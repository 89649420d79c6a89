"""``codec_roundtrip``: SZ and ZFP compress, then decompress, seeded fields.

One operation compresses and then decompresses every input in a fixed
order: ``hacc/x`` (1-D), level 0 of ``cesm-atm/CLDHGH`` (2-D) and
``nyx/velocity_x`` (3-D), about 1 MB each, with both codecs at a loose
(1e-2) and a tight (1e-4) bound; the largest field then also goes
through :class:`~repro.compressors.ChunkedCompressor` (256 KiB slabs,
two threads). It is the only workload that decodes, and it touches no
cache, fleet or service.
"""

from __future__ import annotations

import time

import numpy as np

from common import Workload, pinned, sha256_hex
from repro.compressors import ChunkedCompressor, get_compressor
from repro.data import load_field

#: (label, dataset, field, scale, keep only level 0). CESM's CLDHGH is a
#: single-level field in the model output; the synthetic dataset stacks
#: 26 levels, so the benchmark takes one to get the 2-D input.
FIELDS = (
    ("hacc/x", "hacc", "x", 10, False),
    ("cesm-atm/CLDHGH", "cesm-atm", "CLDHGH", 5, True),
    ("nyx/velocity_x", "nyx", "velocity_x", 8, False),
)
CODECS = ("sz", "zfp")
BOUNDS = (1e-2, 1e-4)
SLAB_BYTES = 256 * 1024
WORKERS = 2


def _compressor(codec: str, chunked: bool):
    if chunked:
        return ChunkedCompressor(codec, max_chunk_bytes=SLAB_BYTES,
                                 executor="thread", workers=WORKERS)
    return get_compressor(codec)


class CodecRoundtrip(Workload):
    name = "codec_roundtrip"

    def setup(self) -> None:
        self.fields = {}
        for label, dataset, field, scale, level0 in FIELDS:
            data = load_field(dataset, field, scale=scale, seed=self.seed)
            self.fields[label] = np.ascontiguousarray(data[0]) if level0 else data
        largest = max(self.fields, key=lambda k: self.fields[k].nbytes)
        self.cases = [
            (label, codec, bound, False)
            for label in self.fields for codec in CODECS for bound in BOUNDS
        ] + [(largest, codec, bound, True) for codec in CODECS for bound in BOUNDS]
        self.pins = pinned(self.name, self.seed)
        self.digests = {}
        self.mb = self.compress_s = self.decompress_s = 0.0
        # Warm-up: every code path once, on a 16^3 sample.
        sample = load_field("nyx", "velocity_x", scale=32, seed=self.seed)
        for codec in CODECS:
            for chunked in (False, True):
                compressor = _compressor(codec, chunked)
                compressor.decompress(compressor.compress(sample, BOUNDS[0]))

    def cycle(self) -> None:
        self.attempted += 1
        done = []
        try:
            with self.rec.op(str(self.attempted), "op.roundtrip"):
                cpu = self.cpu_seconds()
                t_op = time.perf_counter()
                for label, codec, bound, chunked in self.cases:
                    data = self.fields[label]
                    compressor = _compressor(codec, chunked)
                    t0 = time.perf_counter()
                    container = compressor.compress(data, bound)
                    t1 = time.perf_counter()
                    stats = compressor.last_stats if chunked else None
                    out = compressor.decompress(container)
                    t2 = time.perf_counter()
                    self.mb += data.nbytes / 1e6
                    self.compress_s += t1 - t0
                    self.decompress_s += t2 - t1
                    if chunked and self.rec.enabled:
                        self.extra.setdefault("slab_stats", []).extend(
                            (stats, compressor.last_stats))
                    done.append((label, codec, bound, chunked, container, out))
                elapsed = time.perf_counter() - t_op
                cpu = self.cpu_seconds() - cpu
        except Exception as exc:  # one failed operation, not the run
            self.fail(f"{type(exc).__name__}: {exc}")
            return
        self.latencies.append(elapsed)
        self.op_cpu.append(cpu)
        problems = [p for p in map(self._check, done) if p]
        if problems:
            self.fail("; ".join(problems))

    def _check(self, case):
        label, codec, bound, chunked, container, out = case
        key = f"{label}|{codec}|{bound:g}|{'chunked' if chunked else 'serial'}"
        data = self.fields[label]
        err = np.max(np.abs(
            out.reshape(data.shape).astype(np.float64) - data.astype(np.float64)))
        if not err <= bound:
            return f"{key}: max error {err:.3g} exceeds the bound {bound:g}"
        digest = sha256_hex(container.to_bytes())
        first = self.digests.setdefault(key, digest)
        expected = first if self.pins is None else self.pins.get(key)
        if digest != expected:
            return f"{key}: container sha256 {digest[:12]} != {str(expected)[:12]}"
        return None

    def named_metrics(self, elapsed_s):
        return {
            "compress_mb_s": (self.mb / max(self.compress_s, 1e-12), "MB/s"),
            "decompress_mb_s": (self.mb / max(self.decompress_s, 1e-12), "MB/s"),
        }
