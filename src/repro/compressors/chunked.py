"""Chunked compression: bounded-memory processing of huge arrays.

The paper's 512 GB experiment concatenates NYX snapshots; a real tool
cannot hold that in RAM. :class:`ChunkedCompressor` wraps any registered
codec and streams an array through it in slabs along axis 0, producing
an independent :class:`~repro.compressors.base.CompressedBuffer` per
slab inside a simple container. Each slab honours the same absolute
error bound, so the container does too.

Slab independence buys random access (decode one slab without the rest)
and parallelism: slabs are submitted through a
:class:`~repro.parallel.Executor` (serial, thread-pool or process-pool,
auto-selected from slab count and codec cost), with results collected
in slab order so the container — and its serialized bytes — are
identical no matter which backend ran. Per-slab timing is recorded on
``last_stats`` for pipeline reports and scaling benchmarks.
"""

from __future__ import annotations

import struct
import time
import zlib
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from repro.compressors.base import (
    CompressedBuffer,
    Compressor,
    CorruptStreamError,
    get_compressor,
)
from repro.compressors import kernels
from repro.observability import get_registry, get_tracer
from repro.parallel import (
    CODEC_COST,
    Executor,
    ParallelStats,
    TaskStat,
    resolve_executor,
)
from repro.utils.validation import as_float_array, check_positive

__all__ = ["ChunkedBuffer", "ChunkedCompressor", "CorruptChunkError"]

_MAGIC = b"RPCK"
#: magic + ndim byte + chunk-count u32; the shape table adds 8 bytes/dim.
_FIXED_HEADER_BYTES = len(_MAGIC) + 1 + 4
#: u64 length prefix + u32 CRC-32 in front of every chunk body. The
#: checksum is what turns a bit flip in a stored container from a
#: silently-wrong array into a :class:`CorruptChunkError`.
_CHUNK_PREFIX_BYTES = 8 + 4


class CorruptChunkError(CorruptStreamError):
    """A chunk body failed its CRC-32 integrity check.

    ``chunk_index`` names the damaged slab so recovery can recompress
    just that slab instead of the whole container.
    """

    def __init__(self, chunk_index: int, message: str):
        super().__init__(message)
        self.chunk_index = int(chunk_index)


@dataclass(frozen=True)
class ChunkedBuffer:
    """Container of per-slab compressed buffers."""

    chunks: Tuple[CompressedBuffer, ...]
    shape: Tuple[int, ...]

    @property
    def nbytes(self) -> int:
        """Serialized size, computed arithmetically (no serialization)."""
        return (
            _FIXED_HEADER_BYTES
            + 8 * len(self.shape)
            + sum(_CHUNK_PREFIX_BYTES + c.nbytes for c in self.chunks)
        )

    @property
    def original_nbytes(self) -> int:
        return sum(c.original_nbytes for c in self.chunks)

    @property
    def ratio(self) -> float:
        return self.original_nbytes / max(self.nbytes, 1)

    def to_bytes(self) -> bytes:
        """Container layout: magic, ndim+shape, chunk count, then
        length-and-CRC-prefixed chunk buffers."""
        parts = [
            _MAGIC,
            struct.pack("<B", len(self.shape)),
            struct.pack(f"<{len(self.shape)}q", *self.shape),
            struct.pack("<I", len(self.chunks)),
        ]
        for chunk in self.chunks:
            blob = chunk.to_bytes()
            parts.append(struct.pack("<QI", len(blob), zlib.crc32(blob)))
            parts.append(blob)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ChunkedBuffer":
        if data[:4] != _MAGIC:
            raise CorruptStreamError("bad chunked-container magic")
        off = 4
        try:
            (ndim,) = struct.unpack_from("<B", data, off)
            off += 1
            shape = struct.unpack_from(f"<{ndim}q", data, off)
            off += 8 * ndim
            (count,) = struct.unpack_from("<I", data, off)
            off += 4
        except struct.error as exc:
            raise CorruptStreamError(f"container truncated in header: {exc}") from exc
        if ndim == 0:
            raise CorruptStreamError("container declares a 0-dimensional shape")
        if any(s <= 0 for s in shape):
            raise CorruptStreamError(f"container shape {tuple(shape)} is not positive")
        if count == 0:
            raise CorruptStreamError("container declares zero chunks")
        if count * _CHUNK_PREFIX_BYTES > len(data) - off:
            raise CorruptStreamError(
                f"chunk count {count} exceeds what {len(data)} bytes can hold"
            )
        chunks: List[CompressedBuffer] = []
        for index in range(count):
            if off + _CHUNK_PREFIX_BYTES > len(data):
                raise CorruptStreamError("container truncated in chunk table")
            size, crc = struct.unpack_from("<QI", data, off)
            off += _CHUNK_PREFIX_BYTES
            if off + size > len(data):
                raise CorruptStreamError("container truncated in chunk body")
            body = data[off : off + size]
            actual = zlib.crc32(body)
            if actual != crc:
                raise CorruptChunkError(
                    index,
                    f"chunk {index} checksum mismatch "
                    f"(stored {crc:#010x}, computed {actual:#010x})",
                )
            chunks.append(CompressedBuffer.from_bytes(body))
            off += size
        return cls(chunks=tuple(chunks), shape=tuple(int(s) for s in shape))


def _compress_slab(codec: Compressor, error_bound: float, slab: np.ndarray):
    """Module-level so process-pool workers can pickle the task."""
    return codec.compress(slab, error_bound)


def _decompress_chunk(codec: Compressor, chunk: CompressedBuffer):
    return codec.decompress(chunk)


class ChunkedCompressor:
    """Stream arrays through a codec in bounded-memory slabs.

    Parameters
    ----------
    codec:
        Registered codec name or instance; every slab runs through it.
    max_chunk_bytes:
        Upper bound on the uncompressed bytes per slab.
    executor:
        ``"serial"``, ``"thread"``, ``"process"``, ``"auto"`` (selection
        by slab count and codec cost) or a ready
        :class:`~repro.parallel.Executor` instance (not closed by us, so
        one pool can serve many calls).
    workers:
        Worker count for pool backends; ``None`` uses the CPU count.
    retries:
        Per-slab retry budget. With ``retries > 0`` a crashed slab is
        re-run (fail-fast cancellation becomes retry-failed-slab via
        :meth:`repro.parallel.Executor.map_timed_retry`) instead of
        aborting the whole map; the retried indices land on
        ``last_stats.retried_tasks``.
    slab_wrapper:
        Optional fault-injection hook (see
        :class:`repro.resilience.CrashingSlabWrapper`): a callable
        ``wrapper(fn) -> fn'`` where ``fn'`` receives ``(index, slab)``
        instead of ``slab``. Installed by the resilience engine; must be
        picklable for the process backend.
    """

    def __init__(
        self,
        codec: "Compressor | str" = "sz",
        max_chunk_bytes: int = 1 << 26,
        executor: "Executor | str" = "auto",
        workers: Optional[int] = None,
        retries: int = 0,
        slab_wrapper: Optional[Callable] = None,
    ):
        check_positive(max_chunk_bytes, "max_chunk_bytes")
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.codec = get_compressor(codec) if isinstance(codec, str) else codec
        self.max_chunk_bytes = int(max_chunk_bytes)
        self.executor = executor
        self.workers = workers
        self.retries = int(retries)
        self.slab_wrapper = slab_wrapper
        #: Timing of the most recent compress/decompress call.
        self.last_stats: Optional[ParallelStats] = None

    def _slab_starts(self, arr: np.ndarray) -> range:
        """First row of every slab; slabs take whole rows along axis 0."""
        row_bytes = arr.nbytes // arr.shape[0] if arr.shape[0] else arr.nbytes
        rows = max(1, self.max_chunk_bytes // max(row_bytes, 1))
        return range(0, arr.shape[0], rows)

    def slab_count(self, arr: np.ndarray) -> int:
        """Number of slabs (and chunks) :meth:`compress` splits *arr* into."""
        return len(self._slab_starts(arr))

    def _slabs(self, arr: np.ndarray) -> Iterator[np.ndarray]:
        starts = self._slab_starts(arr)
        for lo in starts:
            yield arr[lo : lo + starts.step]

    def _run(self, op, fn, items, bytes_in, bytes_out_of):
        """Map *fn* over *items* through the configured executor and
        record a :class:`ParallelStats` on ``last_stats``.

        The map runs inside a ``chunk.<op>`` span with one
        ``chunk.slab`` child per task; slab-time and byte totals land
        in the process metrics registry.
        """
        executor, owned = resolve_executor(
            self.executor,
            self.workers,
            n_tasks=len(items),
            task_nbytes=max(bytes_in) if bytes_in else 0,
            codec_cost=CODEC_COST.get(self.codec.name, 4.0),
        )
        if self.slab_wrapper is not None:
            # The wrapper targets slabs by index, so feed it (i, item).
            fn = self.slab_wrapper(fn)
            items = list(enumerate(items))
        retried: Tuple[int, ...] = ()
        tracer = get_tracer()
        with tracer.span(
            f"chunk.{op}",
            codec=self.codec.name,
            slabs=len(items),
            bytes_in=sum(bytes_in),
            kernels=kernels.active_backend(),
        ) as sp:
            t0 = time.perf_counter()
            try:
                if self.retries > 0:
                    results, times, retried = executor.map_timed_retry(
                        fn, items, retries=self.retries
                    )
                else:
                    results, times = executor.map_timed(fn, items)
            finally:
                if owned:
                    executor.close()
            wall = time.perf_counter() - t0
            self.last_stats = ParallelStats(
                executor=executor.name,
                workers=executor.workers,
                wall_s=wall,
                tasks=tuple(
                    TaskStat(
                        index=i,
                        wall_s=times[i],
                        bytes_in=bytes_in[i],
                        bytes_out=bytes_out_of(results[i]),
                    )
                    for i in range(len(results))
                ),
                retried_tasks=retried,
            )
            self.last_stats.record_spans(tracer, name="chunk.slab")
            sp.set(
                executor=executor.name,
                workers=executor.workers,
                concurrency=self.last_stats.concurrency,
            )
        registry = get_registry()
        labels = {"codec": self.codec.name, "op": op}
        registry.counter(
            "repro_chunk_slabs_total", labels,
            help="slabs processed by ChunkedCompressor",
        ).inc(len(items))
        registry.counter(
            "repro_chunk_bytes_in_total", labels,
            help="bytes fed to ChunkedCompressor slab maps",
        ).inc(sum(bytes_in))
        slab_seconds = registry.histogram(
            "repro_chunk_slab_seconds", labels=labels,
            help="per-slab in-worker wall time",
        )
        for t in times:
            slab_seconds.observe(t)
        if retried:
            registry.counter(
                "repro_chunk_slab_retries_total", labels,
                help="slabs re-run after a worker failure",
            ).inc(len(retried))
        return results

    def compress(self, data, error_bound: float) -> ChunkedBuffer:
        """Compress slab by slab; each slab satisfies the bound.

        Slabs run through the configured executor; chunk order (and
        therefore the serialized container) matches the serial path
        byte for byte.
        """
        arr = as_float_array(data, "data")
        slabs = list(self._slabs(arr))
        chunks = self._run(
            "compress",
            partial(_compress_slab, self.codec, float(error_bound)),
            slabs,
            bytes_in=[s.nbytes for s in slabs],
            bytes_out_of=lambda c: c.nbytes,
        )
        return ChunkedBuffer(chunks=tuple(chunks), shape=arr.shape)

    def decompress(self, container: ChunkedBuffer) -> np.ndarray:
        """Reassemble the full array from its slabs."""
        if not container.chunks:
            raise CorruptStreamError("container holds no chunks")
        parts = self._run(
            "decompress",
            partial(_decompress_chunk, self.codec),
            list(container.chunks),
            bytes_in=[c.nbytes for c in container.chunks],
            bytes_out_of=lambda a: a.nbytes,
        )
        out = np.concatenate(parts, axis=0)
        if out.shape != container.shape:
            raise CorruptStreamError(
                f"reassembled shape {out.shape} != container shape {container.shape}"
            )
        return out

    def decompress_chunk(self, container: ChunkedBuffer, index: int) -> np.ndarray:
        """Random access: decode a single slab."""
        if not 0 <= index < len(container.chunks):
            raise IndexError(
                f"chunk index {index} out of range [0, {len(container.chunks)})"
            )
        return self.codec.decompress(container.chunks[index])
