"""Command-line interface: the power-tuning model tool.

Subcommands cover the full workflow without writing Python:

========== ==========================================================
command     what it does
========== ==========================================================
datasets    list the registered Table I datasets and their geometry
generate    synthesize a dataset field to a ``.npy`` file
compress    compress a ``.npy`` array with SZ/ZFP/gzip
decompress  reconstruct a ``.npy`` array from a compressed file
characterize  run the measurement campaign and save fitted models
tune        print frequency recommendations from a saved model bundle
dump        simulate a compress-and-dump and report the energy saved
govern      run a checkpoint campaign under an online DVFS governor
faults      validate or emit example fault-injection plans
experiment  regenerate one of the paper's tables/figures
========== ==========================================================

Example session::

    repro-tool characterize --output models.json --repeats 5
    repro-tool tune --models models.json --policy eqn3
    repro-tool dump --arch skylake --target-gb 512
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

import numpy as np

__all__ = ["main", "build_parser"]

_EXPERIMENTS = (
    "table1", "table2", "table3", "table4", "table5",
    "figure1", "figure2", "figure3", "figure4", "figure5", "figure6",
    "headline",
    "ext-restore", "ext-cluster", "ext-breakeven", "ext-multicore",
)


def _add_executor_args(p: argparse.ArgumentParser) -> None:
    """--workers/--executor knobs shared by the parallel-capable commands."""
    p.add_argument("--workers", type=int, default=None,
                   help="worker count for slab-parallel execution "
                        "(default: CPU count)")
    p.add_argument("--executor", default="auto",
                   choices=("auto", "serial", "thread", "process",
                            "distributed"),
                   help="execution backend for independent slabs "
                        "(distributed shards across a worker fleet; "
                        "see 'repro-tool workers')")


def _check_executor_args(args) -> None:
    """Reject contradictory executor knobs before any work starts."""
    workers = getattr(args, "workers", None)
    if getattr(args, "executor", "auto") == "serial" and workers is not None:
        raise ValueError(
            "--workers conflicts with --executor serial "
            "(the serial backend always runs one worker)"
        )
    # Commands that only shard when --chunk-mb is given would otherwise
    # silently ignore a nonsensical worker count.
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")


def _add_fault_args(p: argparse.ArgumentParser) -> None:
    """--fault-plan knob for the resilience-capable commands."""
    p.add_argument("--fault-plan", default=None, metavar="PATH",
                   help="JSON fault plan to inject (see docs/RESILIENCE.md; "
                        "validate with 'repro-tool faults validate')")


def _load_fault_plan(args):
    """Load + validate the plan named by --fault-plan (None if absent)."""
    if getattr(args, "fault_plan", None) is None:
        return None
    from repro.resilience import FaultPlan, RecoveryPolicy

    plan = FaultPlan.from_file(args.fault_plan)
    RecoveryPolicy.from_dict(plan.policy_doc)  # fail fast on bad policies
    return plan


def _add_governor_args(p: argparse.ArgumentParser) -> None:
    """--governor knobs for commands whose tuned leg can be governed."""
    p.add_argument("--governor", default=None,
                   choices=("static", "adaptive"),
                   help="steer the tuned run with a DVFS governor instead "
                        "of pinned Eqn. 3 frequencies (adaptive learns the "
                        "power curve online; see docs/GOVERNOR.md)")
    p.add_argument("--governor-seed", type=int, default=0,
                   help="RNG seed for the adaptive governor's exploration")
    p.add_argument("--governor-window", type=int, default=64,
                   help="telemetry window per incremental refit (>= 4)")


def _check_governor_plan(name, plan) -> None:
    """Reject two actuators fighting over one frequency knob."""
    if name != "adaptive" or plan is None:
        return
    if "dvfs-throttle" in plan.kinds():
        raise ValueError(
            "--governor adaptive conflicts with a fault plan that injects "
            "dvfs-throttle: the governor and the fault would both cap the "
            "same DVFS knob, making the run's energy unattributable; "
            "drop one of them"
        )


def _run_legs(args, cpu, plan):
    """The base and tuned :class:`~repro.iosim.dumper.RunConfig` of a
    ``dump`` or ``campaign``, and the tuned leg's label.

    Both legs carry the bound, the watt budget and the fault plan; the
    tuned one adds the ``--governor`` spec, or else Eqn. 3's clocks.
    """
    from dataclasses import replace

    from repro.iosim.dumper import RunConfig

    base = RunConfig(
        args.error_bound, power_budget_w=args.power_budget_w, fault_plan=plan
    )
    if args.governor is not None:
        from repro.governor import GovernorSpec

        spec = GovernorSpec(kind=args.governor, seed=args.governor_seed,
                            window=args.governor_window)
        return base, replace(base, governor=spec), f"{args.governor} gov."
    from repro.core.tuning import PAPER_POLICY
    from repro.hardware.workload import WorkloadKind

    tuned = replace(
        base,
        compress_freq_ghz=PAPER_POLICY.frequency_for(cpu, WorkloadKind.COMPRESS_SZ),
        write_freq_ghz=PAPER_POLICY.frequency_for(cpu, WorkloadKind.WRITE),
    )
    return base, tuned, "Eqn. 3"


def _add_cache_args(p: argparse.ArgumentParser) -> None:
    """--cache-dir/--no-cache knobs for the result-cache-aware commands."""
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="persist the result cache here (survives runs; "
                        "see docs/CACHING.md)")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the result cache for this command")


def _install_cache(args):
    """Apply --cache-dir/--no-cache; returns a restore callable (or None).

    Only commands that declare the cache flags touch the global cache;
    the caller invokes the returned callable when the command finishes
    so the process-wide cache is exactly what it was before.
    """
    if args.command in ("cache", "workers"):
        # These commands take --cache-dir as the *object* they operate
        # on (a store to inspect, a fleet's shared directory), not as
        # this process's cache config; installing a disk tier here
        # would create the directory as a side effect.
        return None
    cache_dir = getattr(args, "cache_dir", None)
    no_cache = getattr(args, "no_cache", False)
    if cache_dir is None and not no_cache:
        return None
    from repro.cache import ResultCache, set_cache

    previous = set_cache(ResultCache(disk_dir=cache_dir, enabled=not no_cache))
    return lambda: set_cache(previous)


def _add_observability_args(p: argparse.ArgumentParser) -> None:
    """--trace-out/--metrics-out/--trace-summary artifact knobs.

    Any of these flags switches the process from the no-op tracer to a
    recording one for the duration of the command.
    """
    p.add_argument("--trace-out", default=None, metavar="PATH",
                   help="write the run's span tree as JSON lines")
    p.add_argument("--metrics-out", default=None, metavar="PATH",
                   help="write run metrics in Prometheus text format")
    p.add_argument("--trace-summary", action="store_true",
                   help="print an ASCII per-stage summary after the run")


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing/docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-tool",
        description="Power modeling and DVFS tuning of lossy compressed I/O "
                    "(Wilkins & Calhoun 2022 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list registered datasets")

    p = sub.add_parser("generate", help="synthesize a dataset field to .npy")
    p.add_argument("--dataset", required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--scale", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)

    p = sub.add_parser("compress", help="compress a .npy array")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--codec", default="sz")
    p.add_argument("--error-bound", type=float, default=1e-3)
    p.add_argument("--chunk-mb", type=float, default=None,
                   help="bounded-memory slab size; writes a chunked container")
    _add_executor_args(p)
    _add_observability_args(p)

    p = sub.add_parser("decompress", help="decompress to a .npy array")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    _add_executor_args(p)
    _add_observability_args(p)

    p = sub.add_parser("characterize",
                       help="run the measurement campaign, save fitted models")
    p.add_argument("--output", required=True, help="model bundle JSON path")
    p.add_argument("--export-dir", default=None,
                   help="also write raw sweeps, tables and a manifest here")
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--stride", type=int, default=1,
                   help="take every n-th DVFS grid frequency")
    p.add_argument("--scale", type=int, default=16, help="dataset scale divisor")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--curve", choices=("calibrated", "physical"),
                   default="calibrated", help="ground-truth power curve")
    _add_cache_args(p)
    _add_observability_args(p)

    p = sub.add_parser("tune", help="print recommendations from saved models")
    p.add_argument("--models", required=True)
    p.add_argument("--policy", choices=("eqn3", "optimal"), default="eqn3")
    p.add_argument("--objective", choices=("power", "energy", "edp", "ed2p"),
                   default="energy",
                   help="objective for --policy optimal")

    p = sub.add_parser("dump", help="simulate a compress-and-dump with tuning")
    p.add_argument("--arch", default="skylake")
    p.add_argument("--codec", default="sz")
    p.add_argument("--dataset", default="nyx")
    p.add_argument("--field", default="velocity_x")
    p.add_argument("--error-bound", type=float, default=1e-2)
    p.add_argument("--target-gb", type=float, default=512.0)
    p.add_argument("--scale", type=int, default=16)
    p.add_argument("--chunk-mb", type=float, default=None,
                   help="shard the ratio measurement into slabs of this size")
    p.add_argument("--power-budget-w", type=float, default=None,
                   help="node package watt budget; each phase's frequency is "
                        "capped by inverting the node's P(f) curve")
    _add_executor_args(p)
    _add_governor_args(p)
    _add_fault_args(p)
    _add_cache_args(p)
    _add_observability_args(p)

    p = sub.add_parser("govern",
                       help="run a checkpoint campaign under an online DVFS "
                            "governor (see docs/GOVERNOR.md)")
    p.add_argument("--arch", default="broadwell")
    p.add_argument("--codec", default="sz")
    p.add_argument("--error-bound", type=float, default=1e-2)
    p.add_argument("--snapshot-gb", type=float, default=128.0)
    p.add_argument("--snapshots", type=int, default=12)
    p.add_argument("--interval-s", type=float, default=3600.0)
    p.add_argument("--scale", type=int, default=16)
    # No argparse choices here: the governor registry owns the set of
    # policies, so an unknown name gets its (richer) error message.
    p.add_argument("--governor", default="adaptive",
                   help="policy: static (paper's Eqn. 3), adaptive "
                        "(online explore/fit/exploit) or oracle "
                        "(ground-truth lower bound)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the node's sensors and the governor's "
                        "exploration RNG")
    p.add_argument("--window", type=int, default=64,
                   help="telemetry window per incremental refit (>= 4)")
    p.add_argument("--telemetry-out", default=None, metavar="PATH",
                   help="write the governor's telemetry stream as JSON lines")
    _add_fault_args(p)
    _add_cache_args(p)
    _add_observability_args(p)

    p = sub.add_parser("faults",
                       help="inspect and validate fault-injection plans")
    faults_sub = p.add_subparsers(dest="action", required=True)
    pv = faults_sub.add_parser("validate", help="check a fault-plan JSON file")
    pv.add_argument("plan", help="path to the fault-plan JSON file")
    pe = faults_sub.add_parser("example", help="print an example fault plan")
    pe.add_argument("--output", default=None,
                    help="write the example plan here instead of stdout")

    p = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p.add_argument("name", choices=_EXPERIMENTS)
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--scale", type=int, default=16)

    p = sub.add_parser("advise", help="pick an error bound from a target")
    p.add_argument("--codec", default="sz")
    p.add_argument("--dataset", default="nyx")
    p.add_argument("--field", default="velocity_x")
    p.add_argument("--scale", type=int, default=16)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--target-ratio", type=float)
    group.add_argument("--target-psnr", type=float)

    p = sub.add_parser("campaign",
                       help="simulate a checkpoint campaign, base vs tuned")
    p.add_argument("--arch", default="skylake")
    p.add_argument("--snapshot-gb", type=float, default=128.0)
    p.add_argument("--snapshots", type=int, default=12)
    p.add_argument("--interval-s", type=float, default=3600.0)
    p.add_argument("--error-bound", type=float, default=1e-2)
    p.add_argument("--scale", type=int, default=16)
    p.add_argument("--chunk-mb", type=float, default=None,
                   help="shard each snapshot's ratio measurement into slabs "
                        "of this size (traces then show chunk/slab stages)")
    p.add_argument("--power-budget-w", type=float, default=None,
                   help="per-node package watt budget applied to every sweep "
                        "point (base and tuned alike)")
    _add_executor_args(p)
    _add_governor_args(p)
    _add_fault_args(p)
    _add_cache_args(p)
    _add_observability_args(p)

    p = sub.add_parser("serve",
                       help="run the tuning service (HTTP, see docs/SERVICE.md)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8023,
                   help="TCP port (0 picks a free one; the bound address "
                        "is printed on startup)")
    p.add_argument("--models", action="append", default=None, metavar="[NAME=]PATH",
                   help="bundle JSON to preload (repeatable); NAME defaults "
                        "to the file stem")
    p.add_argument("--models-dir", default=None, metavar="DIR",
                   help="warm-start: register every *.json bundle in DIR")
    p.add_argument("--workers", type=int, default=4,
                   help="scheduler worker threads")
    p.add_argument("--queue-size", type=int, default=64,
                   help="admission bound; a full queue answers 429")
    p.add_argument("--batch-max", type=int, default=16,
                   help="max requests coalesced into one dispatch cycle")
    p.add_argument("--deadline-s", type=float, default=30.0,
                   help="default per-request deadline (queued longer "
                        "answers 504)")
    p.add_argument("--max-jobs", type=int, default=4,
                   help="max unfinished characterize jobs before 429")
    _add_cache_args(p)
    _add_observability_args(p)

    p = sub.add_parser("cache",
                       help="inspect or clear a persisted result cache")
    cache_sub = p.add_subparsers(dest="action", required=True)
    ps = cache_sub.add_parser("stats", help="print cache occupancy and counters")
    ps.add_argument("--cache-dir", default=None, metavar="DIR",
                    help="on-disk cache to inspect (default: this "
                         "process's in-memory cache)")
    pc = cache_sub.add_parser("clear", help="delete every cached entry")
    pc.add_argument("--cache-dir", required=True, metavar="DIR",
                    help="on-disk cache to clear")

    p = sub.add_parser("workers",
                       help="launch a local worker fleet for a "
                            "distributed-executor coordinator")
    p.add_argument("--connect", required=True, metavar="HOST:PORT",
                   help="coordinator address (set REPRO_DIST_LISTEN on "
                        "the coordinator side to pin one)")
    p.add_argument("--workers", type=int, default=None,
                   help="processes to launch (default: CPU count)")
    p.add_argument("--heartbeat", type=float, default=0.5,
                   help="seconds between liveness heartbeats")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="shared on-disk result cache for the fleet")

    p = sub.add_parser("cluster",
                       help="simulate an N-node dump through a shared NFS")
    p.add_argument("--arch", default="skylake")
    p.add_argument("--nodes", type=int, default=8)
    p.add_argument("--per-node-gb", type=float, default=64.0)
    p.add_argument("--error-bound", type=float, default=1e-2)
    p.add_argument("--scale", type=int, default=16)
    _add_observability_args(p)

    p = sub.add_parser("powercap",
                       help="split a fleet watt budget across a simulated "
                            "cluster (see docs/POWERCAP.md)")
    p.add_argument("--budget-w", type=float, required=True,
                   help="fleet-wide power budget, NFS reserve included")
    p.add_argument("--arch", default="broadwell")
    p.add_argument("--nodes", type=int, default=8)
    p.add_argument("--policy", default="waterfill",
                   choices=("uniform", "proportional", "waterfill"))
    p.add_argument("--nfs-reserve-w", type=float, default=None,
                   help="watts held back for the shared NFS server "
                        "(default 40)")
    p.add_argument("--per-node-gb", type=float, default=64.0)
    p.add_argument("--error-bound", type=float, default=1e-2)
    p.add_argument("--scale", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    _add_observability_args(p)

    return parser


# ----------------------------------------------------------------------
# Subcommand implementations
# ----------------------------------------------------------------------

def _cmd_datasets(args) -> int:
    from repro.data.registry import DATASETS
    from repro.workflow.report import render_table

    rows = [
        {
            "name": spec.name,
            "domain": spec.domain,
            "dimensions": " x ".join(str(s) for s in spec.full_shape),
            "fields": ", ".join(f.name for f in spec.fields),
            "field_mb": round(spec.full_field_megabytes, 1),
        }
        for spec in DATASETS.values()
    ]
    print(render_table(rows, title="Registered datasets"))
    return 0


def _cmd_generate(args) -> int:
    from repro.data.registry import load_field

    arr = load_field(args.dataset, args.field, scale=args.scale, seed=args.seed)
    np.save(args.output, arr)
    print(f"wrote {args.output}: shape {arr.shape}, dtype {arr.dtype}, "
          f"{arr.nbytes / 1e6:.1f} MB")
    return 0


def _cmd_compress(args) -> int:
    from repro.compressors import ChunkedCompressor, get_compressor

    _check_executor_args(args)
    arr = np.load(args.input)
    chunk_mb = args.chunk_mb
    # A worker request implies slab sharding; default to 64 MB slabs.
    if chunk_mb is None and (args.workers is not None or args.executor != "auto"):
        chunk_mb = 64.0
    if chunk_mb is not None:
        cc = ChunkedCompressor(
            args.codec, max_chunk_bytes=int(chunk_mb * 1e6),
            executor=args.executor, workers=args.workers,
        )
        buf = cc.compress(arr, args.error_bound)
        label = f"{args.codec} ({len(buf.chunks)} chunks)"
        stats = cc.last_stats
    else:
        buf = get_compressor(args.codec).compress(arr, args.error_bound)
        label = args.codec
        stats = None
    with open(args.output, "wb") as fh:
        fh.write(buf.to_bytes())
    print(f"{label}: {arr.nbytes} -> {buf.nbytes} bytes "
          f"(ratio {buf.ratio:.2f}x, eb {args.error_bound:g})")
    if stats is not None:
        print(f"  {stats.summary()}")
    return 0


def _cmd_decompress(args) -> int:
    from repro.compressors import ChunkedBuffer, ChunkedCompressor, CompressedBuffer, get_compressor

    _check_executor_args(args)
    with open(args.input, "rb") as fh:
        blob = fh.read()
    if blob[:4] == b"RPCK":
        container = ChunkedBuffer.from_bytes(blob)
        codec_name = container.chunks[0].codec
        rec = ChunkedCompressor(
            codec_name, executor=args.executor, workers=args.workers
        ).decompress(container)
        eb = container.chunks[0].error_bound
    else:
        buf = CompressedBuffer.from_bytes(blob)
        codec_name = buf.codec
        rec = get_compressor(buf.codec).decompress(buf)
        eb = buf.error_bound
    np.save(args.output, rec)
    print(f"wrote {args.output}: shape {rec.shape}, dtype {rec.dtype} "
          f"(codec {codec_name}, eb {eb:g})")
    return 0


def _make_pipeline(curve_name: str, seed: int):
    from repro.core.pipeline import TunedIOPipeline
    from repro.hardware.powercurves import CalibratedPowerCurve, PhysicalPowerCurve
    from repro.workflow.sweep import default_nodes

    curve = {"calibrated": CalibratedPowerCurve, "physical": PhysicalPowerCurve}[
        curve_name
    ]()
    return TunedIOPipeline(default_nodes(power_curve=curve, seed=seed))


def _cmd_characterize(args) -> int:
    from repro.core.persistence import ModelBundle
    from repro.workflow.report import render_table
    from repro.workflow.sweep import SweepConfig

    pipe = _make_pipeline(args.curve, args.seed)
    config = SweepConfig(
        repeats=args.repeats,
        frequency_stride=args.stride,
        data_scale=args.scale,
        seed=args.seed,
    )
    outcome = pipe.characterize(config)
    bundle = ModelBundle.from_outcome(
        outcome,
        metadata={
            "curve": args.curve,
            "repeats": args.repeats,
            "frequency_stride": args.stride,
            "data_scale": args.scale,
            "seed": args.seed,
        },
    )
    bundle.save(args.output)
    print(render_table(outcome.model_table("compression"),
                       title="Compression power models (Table IV)"))
    print()
    print(render_table(outcome.model_table("transit"),
                       title="Data-transit power models (Table V)"))
    print(f"\nmodel bundle written to {args.output}")
    if args.export_dir:
        from repro.workflow.export import export_campaign

        paths = export_campaign(
            outcome, args.export_dir,
            config_metadata={"curve": args.curve, "repeats": args.repeats,
                             "frequency_stride": args.stride,
                             "data_scale": args.scale, "seed": args.seed},
        )
        print(f"campaign artifacts exported to {args.export_dir} "
              f"({len(paths)} files)")
    return 0


def _cmd_tune(args) -> int:
    from repro.core.objectives import Objective
    from repro.core.service import TuningService
    from repro.core.tuning import PAPER_POLICY
    from repro.hardware.cpu import get_cpu
    from repro.workflow.report import render_table

    service = TuningService.from_file(args.models)
    policy = PAPER_POLICY if args.policy == "eqn3" else None
    rows = []
    for arch in service.bundle.compression_runtime:
        get_cpu(arch)  # an architecture no CPU spec knows is an error
        for stage in ("compress", "write"):
            try:
                rec = service.decide(arch, stage, Objective(args.objective), policy)
            except KeyError:
                continue  # the bundle has no models for this stage
            rows.append(
                {
                    "cpu": arch,
                    "stage": stage,
                    "policy": rec.objective if policy else f"optimal/{rec.objective}",
                    "freq_ghz": rec.freq_ghz,
                    "power_saving_pct": rec.predicted_power_saving * 100,
                    "slowdown_pct": rec.predicted_slowdown * 100,
                    "energy_saving_pct": rec.predicted_energy_saving * 100,
                }
            )
    print(render_table(rows, title="Frequency recommendations"))
    return 0


def _cmd_dump(args) -> int:
    from repro.compressors import get_compressor
    from repro.data.registry import load_field
    from repro.hardware.cpu import get_cpu
    from repro.hardware.node import SimulatedNode
    from repro.iosim.dumper import DataDumper, measure_ratio

    _check_executor_args(args)
    cpu = get_cpu(args.arch)
    node = SimulatedNode(cpu, seed=0)
    chunk_bytes = None if args.chunk_mb is None else int(args.chunk_mb * 1e6)
    dumper = DataDumper(
        node, chunk_bytes=chunk_bytes,
        executor=args.executor, workers=args.workers,
    )
    arr = load_field(args.dataset, args.field, scale=args.scale)
    codec = get_compressor(args.codec)
    target = int(args.target_gb * 1e9)
    plan = _load_fault_plan(args)
    _check_governor_plan(args.governor, plan)
    base_run, tuned_run, tuned_label = _run_legs(args, cpu, plan)

    # Both dumps compress the same sample at the same bound.
    measurement = measure_ratio(codec, arr, args.error_bound, chunk_bytes,
                                args.executor, args.workers)
    base = dumper.dump(codec, arr, base_run, target, measurement=measurement)
    tuned = dumper.dump(codec, arr, tuned_run, target, measurement=measurement)
    saved = base.total_energy_j - tuned.total_energy_j
    print(f"{args.target_gb:g} GB {args.codec} dump on {args.arch} "
          f"(eb {args.error_bound:g}, ratio {base.compression_ratio:.2f}x):")
    if args.power_budget_w is not None:
        from repro.powercap import phase_caps_for_budget

        phase_caps = phase_caps_for_budget(
            cpu, node.power_curve, args.power_budget_w, codec=args.codec
        )
        caps = ", ".join(
            f"{phase} <= {ghz:.2f} GHz" if ghz > 0 else f"{phase} infeasible"
            for phase, ghz in sorted(phase_caps.items())
        )
        print(f"  power cap  : {args.power_budget_w:g} W -> {caps}")
    print(f"  base clock : {base.total_energy_j / 1e3:8.2f} kJ "
          f"in {base.total_runtime_s:8.1f} s")
    print(f"  {tuned_label:<11s}: {tuned.total_energy_j / 1e3:8.2f} kJ "
          f"in {tuned.total_runtime_s:8.1f} s")
    print(f"  saved      : {saved / 1e3:8.2f} kJ "
          f"({saved / base.total_energy_j:+.1%})")
    if base.parallel is not None:
        print(f"  slab exec  : {base.parallel.summary()}")
    for label, rep in (("base", base), ("tuned", tuned)):
        res = rep.resilience
        if res is not None:
            print(f"  resilience ({label}) : {res.attempts} attempts, "
                  f"{res.retries} retries, "
                  f"overhead {res.energy_overhead_j / 1e3:.2f} kJ, "
                  f"failover {'yes' if res.failover else 'no'}, "
                  f"lost {'yes' if res.lost else 'no'}")
    return 0


def _cmd_govern(args) -> int:
    from repro.compressors import get_compressor
    from repro.data.registry import load_field
    from repro.governor import make_governor
    from repro.hardware.cpu import get_cpu
    from repro.hardware.node import SimulatedNode
    from repro.iosim.dumper import RunConfig
    from repro.workflow.campaign import CheckpointCampaign, run_campaign

    if args.window < 4:
        raise ValueError(f"window must be >= 4, got {args.window}")
    plan = _load_fault_plan(args)
    _check_governor_plan(args.governor, plan)
    cpu = get_cpu(args.arch)
    node = SimulatedNode(cpu, seed=args.seed)
    governor = make_governor(
        args.governor, cpu, seed=args.seed, window=args.window,
        power_curve=node.power_curve,
    )
    arr = load_field("nyx", "velocity_x", scale=args.scale)
    campaign = CheckpointCampaign(
        snapshot_bytes=int(args.snapshot_gb * 1e9),
        n_snapshots=args.snapshots,
        compute_interval_s=args.interval_s,
    )
    report = run_campaign(
        node, get_compressor(args.codec), arr,
        RunConfig(args.error_bound, fault_plan=plan), campaign,
        governor=governor,
    )
    gov = report.governor
    print(f"{args.snapshots} snapshots x {args.snapshot_gb:g} GB on "
          f"{args.arch} under the {gov.policy} governor "
          f"(eb {args.error_bound:g}, seed {args.seed}):")
    print(f"  I/O energy   : {report.io_energy_j / 1e3:8.2f} kJ")
    print(f"  I/O wall time: {report.io_time_s:8.1f} s "
          f"({report.io_time_fraction:.1%} of the campaign)")
    freqs = ", ".join(f"{phase} @ {f:.2f} GHz" for phase, f in gov.frequencies)
    print(f"  frequencies  : {freqs or '(no stages ran)'}")
    settled = all(c for _, c in gov.converged) and bool(gov.converged)
    print(f"  converged    : {'yes' if settled else 'no'} "
          f"({len(gov.decisions)} decisions, {gov.refits} refits, "
          f"trace {gov.trace_sha256[:12]})")
    if args.telemetry_out:
        governor.telemetry.export_jsonl(args.telemetry_out)
        print(f"telemetry written to {args.telemetry_out} "
              f"({len(governor.telemetry)} samples)", file=sys.stderr)
    return 0


def _cmd_experiment(args) -> int:
    import importlib

    from repro.experiments.context import ExperimentContext
    from repro.workflow.sweep import SweepConfig

    if args.name in ("table1", "table2", "table3"):
        module = importlib.import_module(f"repro.experiments.{args.name}")
        module.main()
        return 0
    ctx = ExperimentContext(
        config=SweepConfig(
            repeats=args.repeats,
            frequency_stride=args.stride,
            data_scale=args.scale,
        )
    )
    if args.name.startswith("ext-"):
        from repro.experiments import extensions

        extensions.main(args.name, ctx)
        return 0
    module = importlib.import_module(f"repro.experiments.{args.name}")
    module.main(ctx)
    return 0


def _cmd_advise(args) -> int:
    from repro.compressors import get_compressor
    from repro.core.advisor import ErrorBoundAdvisor
    from repro.data.registry import load_field
    from repro.workflow.report import render_table

    arr = load_field(args.dataset, args.field, scale=args.scale)
    advisor = ErrorBoundAdvisor(get_compressor(args.codec), arr)
    print(render_table(advisor.table(),
                       title=f"{args.codec} profile on {args.dataset}/{args.field}"))
    if args.target_ratio is not None:
        eb = advisor.bound_for_ratio(args.target_ratio)
        print(f"\nbound for ratio >= {args.target_ratio:g}: eb = {eb:.3e}")
    else:
        eb = advisor.bound_for_psnr(args.target_psnr)
        print(f"\nbound for PSNR >= {args.target_psnr:g} dB: eb = {eb:.3e}")
    return 0


def _cmd_campaign(args) -> int:
    from repro.compressors import SZCompressor
    from repro.data.registry import load_field
    from repro.hardware.cpu import get_cpu
    from repro.workflow.campaign import CheckpointCampaign, run_campaign_sweep

    _check_executor_args(args)
    cpu = get_cpu(args.arch)
    arr = load_field("nyx", "velocity_x", scale=args.scale)
    campaign = CheckpointCampaign(
        snapshot_bytes=int(args.snapshot_gb * 1e9),
        n_snapshots=args.snapshots,
        compute_interval_s=args.interval_s,
    )
    chunk_bytes = None if args.chunk_mb is None else int(args.chunk_mb * 1e6)
    plan = _load_fault_plan(args)
    _check_governor_plan(args.governor, plan)
    base_run, tuned_run, tuned_label = _run_legs(args, cpu, plan)
    # Base and tuned are two points of one cached sweep: each runs on a
    # fresh seed-0 node (mutually comparable), and with --cache-dir a
    # re-run recomputes nothing.
    base, tuned = run_campaign_sweep(
        cpu, SZCompressor(), arr, (base_run, tuned_run), campaign,
        chunk_bytes=chunk_bytes, executor=args.executor, workers=args.workers,
    )
    print(f"{args.snapshots} snapshots x {args.snapshot_gb:g} GB on {args.arch} "
          f"(eb {args.error_bound:g}):")
    if args.power_budget_w is not None:
        print(f"  power budget           : {args.power_budget_w:g} W per node")
    print(f"  I/O share of wall time : {base.io_time_fraction:.1%}")
    print(f"  I/O energy, base clock : {base.io_energy_j / 1e3:8.1f} kJ")
    print(f"  I/O energy, {tuned_label:<11s}: {tuned.io_energy_j / 1e3:8.1f} kJ "
          f"({1 - tuned.io_energy_j / base.io_energy_j:.1%} saved)")
    if tuned.governor is not None:
        gov = tuned.governor
        freqs = ", ".join(f"{ph} @ {f:.2f} GHz" for ph, f in gov.frequencies)
        settled = all(c for _, c in gov.converged) and bool(gov.converged)
        print(f"  governor               : "
              f"{'converged' if settled else 'still exploring'} "
              f"({len(gov.decisions)} decisions, {gov.refits} refits) "
              f"-> {freqs}")
    print(f"  campaign wall penalty  : "
          f"{tuned.total_wall_s / base.total_wall_s - 1:.2%}")
    if plan is not None:
        for label, rep in (("base ", base), ("tuned", tuned)):
            print(f"  resilience, {label}    : "
                  f"{rep.attempts} attempts for {len(rep.snapshots)} "
                  f"snapshots, {rep.retried_bytes / 1e9:.2f} GB retried, "
                  f"overhead {rep.energy_overhead_j / 1e3:.2f} kJ, "
                  f"{rep.snapshots_lost} lost")
    return 0


def _cmd_faults(args) -> int:
    from repro.resilience import FaultPlan, RecoveryPolicy, example_plan

    if args.action == "validate":
        plan = FaultPlan.from_file(args.plan)
        policy = RecoveryPolicy.from_dict(plan.policy_doc)
        kinds = ", ".join(plan.kinds()) or "none"
        print(f"{args.plan}: OK")
        print(f"  specs   : {len(plan.specs)} ({kinds})")
        print(f"  seed    : {plan.seed}")
        print(f"  policy  : retry x{policy.retry.max_attempts}, "
              f"failover {'on' if policy.failover else 'off'}, "
              f"retune {'on' if policy.degraded_retune else 'off'}, "
              f"skip {'on' if policy.skip_on_exhaustion else 'off'}")
        return 0
    # action == "example"
    doc = example_plan().to_json()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(doc + "\n")
        print(f"example fault plan written to {args.output}")
    else:
        print(doc)
    return 0


def _cmd_cache(args) -> int:
    import os

    from repro.cache import ResultCache, get_cache

    # A configured-but-nonexistent directory is an empty store, not an
    # error — and inspecting it must not create it as a side effect
    # (ResultCache's disk tier would mkdir on construction).
    if args.cache_dir is not None and not os.path.isdir(args.cache_dir):
        if os.path.exists(args.cache_dir):
            print(f"error: {args.cache_dir} is not a directory",
                  file=sys.stderr)
            return 1
        if args.action == "clear":
            print(f"{args.cache_dir}: 0 entrie(s) removed (no such cache)")
            return 0
        print("enabled        : True")
        print("hits / misses  : 0 / 0")
        print("evictions      : 0")
        print("memory entries : 0 (0 bytes)")
        print(f"disk dir       : {args.cache_dir} (not created yet)")
        print("disk entries   : 0 (0 bytes)")
        return 0
    if args.action == "clear":
        removed = ResultCache(disk_dir=args.cache_dir).clear()
        print(f"{args.cache_dir}: {removed} entrie(s) removed")
        return 0
    # action == "stats"
    cache = (
        ResultCache(disk_dir=args.cache_dir)
        if args.cache_dir is not None else get_cache()
    )
    stats = cache.stats()
    print(f"enabled        : {stats['enabled']}")
    print(f"hits / misses  : {stats['hits']} / {stats['misses']}")
    print(f"evictions      : {stats['evictions']}")
    print(f"memory entries : {stats['memory_entries']} "
          f"({stats['memory_bytes']} bytes)")
    if "disk_dir" in stats:
        print(f"disk dir       : {stats['disk_dir']}")
        print(f"disk entries   : {stats['disk_entries']} "
              f"({stats['disk_bytes']} bytes)")
    return 0


def _cmd_serve(args) -> int:
    import os
    import signal
    import threading

    from repro.core.persistence import ModelBundle
    from repro.service import ServiceConfig, TuningServer

    config = ServiceConfig(
        host=args.host, port=args.port,
        workers=args.workers, queue_size=args.queue_size,
        batch_max=args.batch_max, default_deadline_s=args.deadline_s,
        max_pending_jobs=args.max_jobs,
    )
    server = TuningServer(config)
    if args.models_dir:
        entries = server.registry.load_dir(args.models_dir)
        print(f"warm start: {len(entries)} bundle(s) from {args.models_dir}")
    for spec in args.models or ():
        name, sep, path = spec.partition("=")
        if not sep:
            name, path = "", spec
        if not name:
            name = os.path.splitext(os.path.basename(path))[0]
        entry = server.registry.put(name, ModelBundle.load(path))
        print(f"registered model {entry.name} v{entry.version} "
              f"({entry.fingerprint[:12]}) from {path}")

    # SIGTERM/SIGINT start a graceful drain on a helper thread (the
    # main thread sits in serve_forever and must keep running until
    # httpd.shutdown() releases it). Accepted work always completes.
    state = {"signal": None}

    def _on_signal(signum, frame):
        if state["signal"] is None:
            state["signal"] = signal.Signals(signum).name
            threading.Thread(
                target=server.drain, name="repro-serve-drain", daemon=True
            ).start()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)

    host, port = server.address
    print(f"tuning service listening on http://{host}:{port} "
          f"(workers={config.workers}, queue={config.queue_size}, "
          f"models={len(server.registry)})", flush=True)
    server.serve_forever()
    print(f"received {state['signal'] or 'shutdown'}: drained "
          f"{'cleanly' if server.jobs.unfinished() == 0 else 'with pending jobs'}, "
          f"queue depth {server.scheduler.queue_depth}", flush=True)
    return 0 if server.jobs.unfinished() == 0 else 1


def _cmd_cluster(args) -> int:
    from repro.compressors import SZCompressor
    from repro.core.tuning import PAPER_POLICY
    from repro.data.registry import load_field
    from repro.hardware.cpu import get_cpu
    from repro.hardware.workload import WorkloadKind
    from repro.iosim.cluster import Cluster

    cpu = get_cpu(args.arch)
    cluster = Cluster(cpu, n_nodes=args.nodes, seed=0, repeats=3)
    arr = load_field("nyx", "velocity_x", scale=args.scale)
    per_node = int(args.per_node_gb * 1e9)
    base = cluster.dump_all(SZCompressor(), arr, args.error_bound, per_node)
    tuned = cluster.dump_all(
        SZCompressor(), arr, args.error_bound, per_node,
        compress_freq_ghz=PAPER_POLICY.frequency_for(cpu, WorkloadKind.COMPRESS_SZ),
        write_freq_ghz=PAPER_POLICY.frequency_for(cpu, WorkloadKind.WRITE),
    )
    print(f"{args.nodes} x {args.per_node_gb:g} GB dump on {args.arch} "
          f"(eb {args.error_bound:g}):")
    print(f"  CPU-bound fraction of the write path: {base.cpu_bound_fraction:.2f}")
    print(f"  aggregate write bandwidth: "
          f"{base.aggregate_write_bandwidth_bps / 1e6:.0f} MB/s")
    print(f"  cluster energy, base clock: {base.total_energy_j / 1e3:8.1f} kJ")
    print(f"  cluster energy, Eqn. 3    : {tuned.total_energy_j / 1e3:8.1f} kJ "
          f"({1 - tuned.total_energy_j / base.total_energy_j:.1%} saved)")
    print(f"  makespan: {base.makespan_s:.0f} s -> {tuned.makespan_s:.0f} s")
    return 0


def _cmd_powercap(args) -> int:
    from repro.compressors import SZCompressor
    from repro.data.registry import load_field
    from repro.hardware.cpu import get_cpu
    from repro.iosim.cluster import Cluster, SimulatedCluster

    cpu = get_cpu(args.arch)
    arr = load_field("nyx", "velocity_x", scale=args.scale)
    per_node = int(args.per_node_gb * 1e9)

    uncapped = Cluster(cpu, n_nodes=args.nodes, seed=args.seed, repeats=3)
    base = uncapped.dump_all(SZCompressor(), arr, args.error_bound, per_node)
    capped_cluster = SimulatedCluster(
        cpu, n_nodes=args.nodes, seed=args.seed, repeats=3,
        power_budget_w=args.budget_w, policy=args.policy,
        nfs_reserve_w=args.nfs_reserve_w,
    )
    capped = capped_cluster.dump_all(
        SZCompressor(), arr, args.error_bound, per_node
    )
    rep = capped.powercap

    print(f"{args.nodes}-node fleet on {args.arch} under a "
          f"{args.budget_w:g} W budget ({rep.policy} policy, "
          f"NFS reserve {rep.nfs_reserve_w:g} W):")
    infeasible = set(rep.infeasible)
    for node_id, cap_w, cap_ghz in rep.caps:
        note = "  [below DVFS floor]" if node_id in infeasible else ""
        print(f"  {node_id}: {cap_w:6.1f} W -> {cap_ghz:.2f} GHz{note}")
    delta_e = capped.total_energy_j / base.total_energy_j - 1
    stretch = capped.makespan_s / base.makespan_s - 1
    print(f"  uncapped: {base.total_energy_j / 1e3:8.1f} kJ, "
          f"makespan {base.makespan_s:7.0f} s")
    print(f"  capped  : {capped.total_energy_j / 1e3:8.1f} kJ "
          f"({delta_e:+.1%}), makespan {capped.makespan_s:7.0f} s "
          f"({stretch:+.1%})")
    print(f"  epochs  : {rep.epochs} allocation epochs, "
          f"trace receipt {rep.trace_sha256[:12]}")
    return 0


def _cmd_workers(args) -> int:
    import subprocess

    host, sep, port = args.connect.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(
            f"--connect must be HOST:PORT, got {args.connect!r}"
        )
    from repro.parallel import default_workers

    n = args.workers if args.workers is not None else default_workers()
    if n < 1:
        raise ValueError(f"workers must be >= 1, got {n}")
    cmd = [
        sys.executable, "-m", "repro.distributed.worker",
        "--connect", args.connect,
        "--heartbeat", str(args.heartbeat),
    ]
    if args.cache_dir:
        cmd += ["--cache-dir", args.cache_dir]
    procs = [subprocess.Popen(cmd) for _ in range(n)]
    print(f"{n} worker(s) -> {args.connect} "
          f"(pids {', '.join(str(p.pid) for p in procs)})", flush=True)
    try:
        return max(p.wait() for p in procs)
    except KeyboardInterrupt:
        for p in procs:
            p.terminate()
        for p in procs:
            p.wait()
        return 130


_HANDLERS = {
    "datasets": _cmd_datasets,
    "generate": _cmd_generate,
    "compress": _cmd_compress,
    "decompress": _cmd_decompress,
    "characterize": _cmd_characterize,
    "tune": _cmd_tune,
    "dump": _cmd_dump,
    "govern": _cmd_govern,
    "faults": _cmd_faults,
    "experiment": _cmd_experiment,
    "advise": _cmd_advise,
    "campaign": _cmd_campaign,
    "cluster": _cmd_cluster,
    "powercap": _cmd_powercap,
    "serve": _cmd_serve,
    "cache": _cmd_cache,
    "workers": _cmd_workers,
}


def _export_observability(args, tracer) -> None:
    """Write/print the artifacts requested by the observability flags."""
    from repro.observability import (
        get_registry,
        trace_summary,
        write_metrics_prom,
        write_spans_jsonl,
    )

    if args.trace_out:
        write_spans_jsonl(args.trace_out, tracer.spans)
        print(f"trace written to {args.trace_out}", file=sys.stderr)
    if args.metrics_out:
        write_metrics_prom(args.metrics_out, get_registry())
        print(f"metrics written to {args.metrics_out}", file=sys.stderr)
    if args.trace_summary:
        print("\n" + trace_summary(tracer.spans))


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    tracer = None
    if (
        getattr(args, "trace_out", None)
        or getattr(args, "metrics_out", None)
        or getattr(args, "trace_summary", False)
    ):
        from repro.observability import Tracer, set_tracer

        tracer = Tracer()
        previous_tracer = set_tracer(tracer)
    restore_cache = _install_cache(args)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if restore_cache is not None:
            restore_cache()
        if tracer is not None:
            set_tracer(previous_tracer)
            # Artifacts are written even if the command failed: a trace
            # of the stages that did run is exactly what debugging needs.
            _export_observability(args, tracer)


if __name__ == "__main__":
    sys.exit(main())
