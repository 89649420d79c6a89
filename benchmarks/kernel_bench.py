#!/usr/bin/env python
"""Per-kernel codec throughput benchmark with regression gating.

Times each codec kernel (Huffman encode/decode, bit packing, ZFP plane
encode/decode, negabinary map, SZ quantize/reconstruct) in isolation on
deterministic synthetic workloads and reports throughput in MB/s of
*uncompressed element payload*. Wall times are normalized by a
calibration pass so a committed baseline transfers across runners of
different speeds: the gated quantity is ``kernel seconds / calibration
seconds``. Calibration is interleaved with the kernel's repeats: each
kernel timing sits between two calibration timings and is divided by
the faster of them, so a machine that slows down mid-run slows both
sides of a ratio alike, and the gate takes the median of those ratios.
Rounds cycle through every kernel, so each one is sampled across the
whole run. The
calibration matches the kernel's kind: compute-bound kernels use the
``quick_bench`` kernel (a sort plus a Python loop, which stays in
cache), and the bandwidth-bound ones (``BANDWIDTH_BOUND``) a streaming
pass that allocates and writes arrays of their own payload size.
The recorded ``norm`` is the median over ``PASSES`` independent passes
of all those rounds: one pass of a sub-millisecond kernel can land at a
quiet or a busy moment of a shared machine, and a baseline recorded at
a quiet one would fail kernels that did not change.

CI usage (the ``kernels`` job in ``.github/workflows/ci.yml``)::

    PYTHONPATH=src python benchmarks/kernel_bench.py \
        --output BENCH_kernels_ci.json \
        --baseline benchmarks/BENCH_kernels.json

Exit status is 1 when any kernel's normalized time regresses more than
``--tolerance`` (default 25%) over the baseline. Refresh the baseline
with ``--output benchmarks/BENCH_kernels.json`` and no ``--baseline``.

``--backend scalar`` benches the pure-Python reference backend (at a
reduced default scale — it is orders of magnitude slower); scalar runs
are for inspection and are never gated against the vector baseline.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.compressors import kernels
from repro.compressors.huffman import HuffmanCodec

#: Baselines are only comparable within one backend; the gate refuses
#: to compare a scalar run against a vector baseline (and vice versa).
GATED_KEYS = ("norm",)

#: Kernels whose time is set by memory traffic and allocation rather
#: than by instruction count.
BANDWIDTH_BOUND = frozenset({
    "pack_bits", "unpack_bits", "negabinary_encode", "negabinary_decode",
    "sz_quantize", "sz_reconstruct",
})


def compute_calibration():
    """The fixed numpy kernel ``quick_bench`` calibrates with.

    Kept in lockstep with ``quick_bench.calibration_seconds`` (mixed
    elementwise math, a sort, a Python-level loop; deliberately no
    matmul so BLAS threading cannot skew the ratio).
    """
    rng = np.random.default_rng(0)
    a = rng.normal(size=(448, 448))

    def run():
        b = np.sort(np.abs(a), axis=1)
        float(np.log1p(b).sum())
        acc = 0.0
        for v in b[0].tolist() * 8:
            acc += v * 0.5

    return run


def bandwidth_calibration(nbytes: int):
    """A streaming pass over *nbytes* of float64 that reads the input
    once and allocates and writes two arrays of the same size, the
    access pattern of the bandwidth-bound kernels at their own size."""
    src = np.random.default_rng(1).normal(size=max(1, nbytes // 8))
    return lambda: src * 0.5 + 1.0


# ----------------------------------------------------------------------
# Deterministic workloads
# ----------------------------------------------------------------------


def huffman_workload(n: int, seed: int = 11):
    """Laplacian-ish residual symbols (the SZ entropy stage's diet)."""
    rng = np.random.default_rng(seed)
    sym = np.rint(rng.laplace(scale=12.0, size=n)).astype(np.int64)
    codec = HuffmanCodec.from_data(sym)
    return codec, sym


def zfp_workload(nblocks: int, seed: int = 12):
    """Negabinary rows with geometrically decaying plane occupancy."""
    rng = np.random.default_rng(seed)
    block_size = 16  # 2-D 4x4 blocks
    mag = rng.exponential(scale=2.0 ** 20, size=(nblocks, block_size))
    signed = np.rint(mag * rng.choice([-1.0, 1.0], size=mag.shape)).astype(np.int64)
    rows = kernels.negabinary_encode(signed)
    kv = 30
    top = int(np.max([1, int(np.ceil(np.log2(float(mag.max()) + 2)))])) + 1
    planes = np.arange(top, top - kv, -1, dtype=np.int64)
    planes = planes[planes >= 0]
    return rows, planes, block_size


def sz_workload(n: int, seed: int = 13) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.normal(size=n)) * 1e-2


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------


#: Shortest span one timing covers; faster kernels and calibrations are
#: called that many times in a row.
MIN_SPAN_S = 0.005

#: Independent passes per run; each kernel's recorded norm is their
#: median.
PASSES = 5


def _timer(fn):
    """A function timing *fn* per call over enough calls to span
    ``MIN_SPAN_S``."""
    t0 = time.perf_counter()
    fn()
    calls = max(1, int(MIN_SPAN_S / max(time.perf_counter() - t0, 1e-9)))

    def timed() -> float:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        return (time.perf_counter() - t0) / calls

    return timed


def interleaved_timings(cases, repeats: int):
    """``{name: (best kernel s, best calibration s, median ratio)}``.

    Each round times every kernel between two timings of its
    calibration and divides it by the faster of them, so one slowed
    calibration cannot flatter the ratio; rounds cycle through all the
    kernels, so each kernel's samples spread over the whole run rather
    than one stretch of it. The median of the ratios is gated: the best
    one is a single lucky pair, which moves far more from run to run.
    """
    timers = [(name, _timer(fn), _timer(calibrate)) for name, fn, calibrate in cases]
    samples = {name: [] for name, _, _ in timers}
    for _ in range(repeats):
        for name, kernel, calibration in timers:
            before = calibration()
            seconds = kernel()
            after = calibration()
            samples[name].append((seconds, min(before, after)))
    return {
        name: (
            min(k for k, _ in pairs),
            min(c for _, c in pairs),
            float(np.median([k / c for k, c in pairs])),
        )
        for name, pairs in samples.items()
    }


def build_cases(scale: float):
    """(name, payload_bytes, callable) per kernel; *scale* shrinks the
    element counts (scalar backend runs use a much smaller diet)."""
    n_huff = max(1024, int(500_000 * scale))
    n_blocks = max(64, int(10_000 * scale))
    n_sz = max(1024, int(2_000_000 * scale))

    codec, sym = huffman_workload(n_huff)
    idx = np.searchsorted(codec.alphabet, sym)
    enc_codes = codec._enc_codes[idx]
    enc_lens = codec._enc_lengths[idx]
    packed = kernels.huffman_encode_bits(enc_codes, enc_lens)
    bits = kernels.unpack_bits(packed)[: int(enc_lens.sum())]

    rows, planes, block_size = zfp_workload(n_blocks)
    group_bits = kernels.zfp_encode_plane_group(rows, planes)
    nchunks = rows.shape[0] * planes.size
    signed = kernels.negabinary_decode(rows)

    field = sz_workload(n_sz)
    bin_width = 2e-3
    origin = float(field.min())
    indices = kernels.sz_quantize(field, origin, bin_width)

    return [
        ("huffman_encode", sym.nbytes,
         lambda: kernels.huffman_encode_bits(enc_codes, enc_lens)),
        ("huffman_decode", sym.nbytes,
         lambda: kernels.huffman_decode_symbols(
             bits, codec._dec_symbol, codec._dec_length,
             sym.size, codec.max_code_length)),
        ("pack_bits", bits.nbytes,
         lambda: kernels.pack_bits(bits)),
        ("unpack_bits", bits.nbytes,
         lambda: kernels.unpack_bits(packed)),
        ("zfp_encode_planes", rows.nbytes,
         lambda: kernels.zfp_encode_plane_group(rows, planes)),
        ("zfp_decode_planes", rows.nbytes,
         lambda: kernels.zfp_decode_plane_group(group_bits, nchunks, block_size)),
        ("negabinary_encode", signed.nbytes,
         lambda: kernels.negabinary_encode(signed)),
        ("negabinary_decode", rows.nbytes,
         lambda: kernels.negabinary_decode(rows)),
        ("sz_quantize", field.nbytes,
         lambda: kernels.sz_quantize(field, origin, bin_width)),
        ("sz_reconstruct", indices.nbytes,
         lambda: kernels.sz_reconstruct(indices, origin, bin_width)),
    ]


def compare(current, baseline, tolerance):
    """Human-readable regression messages (empty list = pass)."""
    failures = []
    if baseline.get("backend") != current.get("backend"):
        failures.append(
            f"baseline backend {baseline.get('backend')!r} does not match "
            f"run backend {current.get('backend')!r}; not comparable"
        )
        return failures
    for name, cur in current["kernels"].items():
        base = baseline.get("kernels", {}).get(name)
        if base is None:
            continue
        allowed = base["norm"] * (1.0 + tolerance)
        if cur["norm"] > allowed:
            failures.append(
                f"{name} regressed: norm {cur['norm']:.4f} > "
                f"{base['norm']:.4f} * (1 + {tolerance:.0%}) = {allowed:.4f}"
            )
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--backend", choices=kernels.backend_names(), default=None,
                    help="kernel backend to bench (default: active backend)")
    ap.add_argument("--scale", type=float, default=None,
                    help="workload scale factor (default 1.0 vector, "
                         "0.02 scalar)")
    ap.add_argument("--repeats", type=int, default=15,
                    help="rounds per pass; each times every kernel once")
    ap.add_argument("--output", default="BENCH_kernels.json",
                    help="write the JSON report here")
    ap.add_argument("--baseline", default=None,
                    help="committed baseline JSON to gate against")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed fractional normalized-time regression")
    args = ap.parse_args(argv)

    backend = args.backend or kernels.active_backend()
    scale = args.scale
    if scale is None:
        scale = 1.0 if backend == "vector" else 0.02

    report = {"backend": backend, "scale": scale, "kernels": {}}
    compute = compute_calibration()
    with kernels.use_backend(backend):
        print(f"backend={backend} scale={scale}")
        cases = build_cases(scale)
        kinds = {
            name: "bandwidth" if name in BANDWIDTH_BOUND else "compute"
            for name, _, _ in cases
        }
        passes = [
            interleaved_timings(
                [
                    (name, fn, bandwidth_calibration(nbytes)
                     if kinds[name] == "bandwidth" else compute)
                    for name, nbytes, fn in cases
                ],
                args.repeats,
            )
            for _ in range(PASSES)
        ]
    for name, nbytes, _ in cases:
        seconds, calib, norm = (
            float(np.median(column)) for column in zip(*(t[name] for t in passes))
        )
        report["kernels"][name] = {
            "seconds": seconds,
            "mbytes": nbytes / 1e6,
            "mb_per_s": (nbytes / 1e6) / seconds,
            "calibration": kinds[name],
            "calibration_s": calib,
            "norm": norm,
            "pass_norms": [t[name][2] for t in passes],
        }
        print(f"{name:18s} {seconds * 1e3:9.2f} ms  "
              f"{nbytes / 1e6 / seconds:9.1f} MB/s  "
              f"{kinds[name]:9s} calibration {calib * 1e3:7.2f} ms  "
              f"norm {norm:8.3f}")

    if args.output:
        with open(args.output, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report written to {args.output}")

    if args.baseline:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
        failures = compare(report, baseline, args.tolerance)
        if failures:
            for msg in failures:
                print(f"FAIL: {msg}", file=sys.stderr)
            return 1
        print(f"within {args.tolerance:.0%} of baseline {args.baseline}: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
