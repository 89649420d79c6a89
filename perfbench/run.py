#!/usr/bin/env python3
"""Benchmark of the compressed-I/O pipeline, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload codec_roundtrip --seed 0 \
        --seconds 15 --trace 0
    python3 perfbench/run.py --workload all    # every workload in turn

A run imports ``repro`` from the checkout's ``src/``, sets the workload
up several times (the median is ``setup_s``), then repeats the
workload's cycle until ``--seconds`` have passed, checks every output
and prints the workload's own figures by name. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``. A traced run times three
cycles of fixed size, the middle one traced, so its counts repeat
exactly; it writes its spans to ``.perfbench/spans/``. Run metadata
goes to the line above the result and to ``.perfbench/results/``.
See ``perfbench/README.md`` for the workloads and what each metric
should move.

Exit status: 0 when every check passed, 1 when an operation failed
(the result line is still printed), 2 when there is no program to run.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = {
    "codec_roundtrip": "CodecRoundtrip",
    "campaign_sweep": "CampaignSweep",
    "fleet_dump": "FleetDump",
    "service_mix": "ServiceMix",
}
#: Set-ups per run; ``setup_s`` is the import time plus their median.
SETUP_REPEATS = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0,
                    help="how long the untraced run repeats its cycle")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_all(args) -> int:
    """Every workload in its own process, as a single run would be."""
    worst = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        worst = max(worst, subprocess.run([
            sys.executable, __file__, "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]).returncode)
    return worst


def metadata(quick_bench):
    import numpy
    from repro.compressors import kernels

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": kernels.active_backend(),
        "kernels_env": os.environ.get(kernels.KERNELS_ENV),
        "calibration_s": quick_bench.calibration_seconds(),
    }


def timed_cycle(wl) -> float:
    t0 = time.perf_counter()
    wl.cycle()
    return time.perf_counter() - t0


def run_traced(wl, scratch):
    """A traced cycle between two untraced ones; the per-layer metrics.

    The tracing overhead compares the traced cycle with the mean of
    the untraced cycles on either side, so a drift from one cycle to
    the next (a governor still learning, a warming allocator) cancels.
    """
    import tracing

    untraced_s = timed_cycle(wl)
    rec = tracing.Recorder()
    tracing.install(rec)
    wl.rec, wl.extra = rec, {}
    before = tracing.counter_totals()
    try:
        traced_s = timed_cycle(wl)
    finally:
        rec.restore()
        wl.rec = tracing.NullRecorder()
    after = tracing.counter_totals()
    untraced_s = 0.5 * (untraced_s + timed_cycle(wl))
    wl.extra["overhead"] = traced_s / untraced_s - 1.0
    (scratch / "spans").mkdir(exist_ok=True)
    rec.write_jsonl(scratch / "spans" / f"{wl.name}-seed{wl.seed}.jsonl")
    print(f"spans: {len(rec.spans)}; traced cycle {traced_s:.3f} s, "
          f"untraced {untraced_s:.3f} s")
    return (tracing.per_layer(rec, before, after, wl.extra),
            traced_s + 2 * untraced_s)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    module = importlib.import_module(args.workload)
    import_s = time.perf_counter() - t0

    from common import sibling_script

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    meta = metadata(sibling_script("quick_bench"))
    wl = getattr(module, WORKLOADS[args.workload])(args.seed, scratch)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - t0)
        if args.trace:
            metrics, elapsed = run_traced(wl, scratch)
        else:
            elapsed, cpu = 0.0, wl.cpu_seconds()
            while elapsed < args.seconds:
                elapsed += timed_cycle(wl)
            cpu = wl.cpu_seconds() - cpu
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {
                "setup_s": (import_s + median(setups), "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
                "cpu_ms_p50": (median(wl.op_cpu) * 1e3, "ms"),
                "cpu_ms_per_op": (cpu / len(wl.op_cpu) * 1e3, "ms"),
            }
        wl.verify()
        named = wl.named_metrics(elapsed) if wl.latencies else {}
    finally:
        wl.close()
    if wl.latencies:
        named["latency_p50_ms"] = (median(wl.latencies) * 1e3, "ms")
    named["failed_frac"] = (wl.failed / max(wl.attempted, 1), "ratio")

    for name, (value, unit) in {**named, **metrics}.items():
        print(f"{name} {value if isinstance(value, int) else f'{value:.6g}'} {unit}")
    meta.update(workload=wl.name, seed=wl.seed, trace=args.trace,
                seconds=elapsed, operations=len(wl.latencies),
                import_s=import_s, setups_s=setups)
    print("meta " + json.dumps(meta, sort_keys=True))
    results = scratch / "results"
    results.mkdir(exist_ok=True)
    with open(results / f"{wl.name}-seed{wl.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump({"meta": meta, "named": named, "metrics": metrics,
                   "digests": getattr(wl, "digests", None)},
                  fh, indent=1, sort_keys=True)
    correct = wl.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
