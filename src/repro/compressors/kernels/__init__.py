"""Pluggable codec kernel layer: the bit-level hot paths of SZ and ZFP.

Every campaign sweep, tuning answer and service request bottoms out in
the codec inner loops — Huffman bit emission and chain decoding, the
ZFP negabinary plane coder, the SZ grid quantizer. This package isolates
those loops behind a small dispatch surface with two interchangeable
backends that produce **byte-identical** streams:

``vector`` (default)
    NumPy table-driven implementations: canonical code assignment via
    ``bincount``/``cumsum``, code packing by OR-reducing the codes of
    each 64-bit word, decode through one
    :func:`repro.utils.chains.walk_chain` speculative segment walk,
    plane coding through one byte gather and a masked flatten.
``scalar``
    Pure-Python per-symbol / per-bit reference loops. Orders of
    magnitude slower; kept as the readable specification the
    differential suite (``tests/test_kernels_differential.py``) and the
    CI equivalence matrix hold the vector backend to.

Backend selection, outermost wins:

1. :func:`set_backend` / :func:`use_backend` (process-global override);
2. the ``REPRO_KERNELS`` environment variable (inherited by process-
   pool workers, which is how a whole parallel run switches backend);
3. the ``vector`` default.

Each dispatched call opens a ``kernel.<name>`` span on the active
tracer (zero overhead under the default :class:`NullTracer`) and bumps
``repro_kernel_calls_total`` / ``repro_kernel_items_total`` counters
labelled by kernel and backend.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.compressors.kernels import scalar, vector
from repro.observability import get_registry, get_tracer

__all__ = [
    "KERNELS_ENV",
    "DEFAULT_BACKEND",
    "backend_names",
    "active_backend",
    "set_backend",
    "use_backend",
    "canonical_codes",
    "huffman_histogram",
    "huffman_lookup_indices",
    "huffman_encode_bits",
    "huffman_decode_symbols",
    "pack_bits",
    "unpack_bits",
    "negabinary_encode",
    "negabinary_decode",
    "zfp_encode_plane_group",
    "zfp_decode_plane_group",
    "sz_quantize",
    "sz_reconstruct",
]

#: Environment variable consulted when no programmatic override is set.
KERNELS_ENV = "REPRO_KERNELS"

DEFAULT_BACKEND = "vector"

_BACKENDS = {"scalar": scalar, "vector": vector}

_lock = threading.Lock()
_override: Optional[str] = None


def backend_names() -> Tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_BACKENDS))


def _validate(name: str) -> str:
    if name not in _BACKENDS:
        raise ValueError(
            f"unknown kernel backend {name!r}; valid backends: "
            f"{', '.join(backend_names())} (check ${KERNELS_ENV})"
        )
    return name


def active_backend() -> str:
    """Name of the backend the next kernel call will dispatch to."""
    if _override is not None:
        return _override
    env = os.environ.get(KERNELS_ENV)
    if env:
        return _validate(env)
    return DEFAULT_BACKEND


def set_backend(name: Optional[str]) -> Optional[str]:
    """Install a process-global backend override; returns the previous one.

    ``None`` clears the override, falling back to ``$REPRO_KERNELS`` /
    the default. The override is process-wide: thread-pool workers see
    it, process-pool workers do not (use the environment variable to
    reach those — both backends emit identical bytes, so a mixed fleet
    is never a correctness hazard, only a confusing benchmark).
    """
    global _override
    with _lock:
        previous = _override
        _override = _validate(name) if name is not None else None
    return previous


@contextmanager
def use_backend(name: str) -> Iterator[None]:
    """Temporarily dispatch kernel calls to backend *name*."""
    previous = set_backend(name)
    try:
        yield
    finally:
        set_backend(previous)


def _dispatch(kernel: str, items: int, args: tuple):
    backend = active_backend()
    impl = getattr(_BACKENDS[backend], kernel)
    registry = get_registry()
    labels = {"kernel": kernel, "backend": backend}
    registry.counter(
        "repro_kernel_calls_total", labels,
        help="Codec kernel invocations by kernel and backend.",
    ).inc()
    registry.counter(
        "repro_kernel_items_total", labels,
        help="Elements processed by codec kernels (symbols/bits/values).",
    ).inc(items)
    with get_tracer().span(f"kernel.{kernel}", backend=backend, items=items):
        return impl(*args)


# ----------------------------------------------------------------------
# Huffman kernels
# ----------------------------------------------------------------------


def canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """Canonical code values for code lengths sorted by (length, symbol).

    ``lengths`` must be non-decreasing; codes count upward within a
    length and shift left across length boundaries (RFC 1951 rule).
    """
    lens = np.asarray(lengths, dtype=np.int64)
    return _dispatch("canonical_codes", int(lens.size), (lens,))


def huffman_histogram(
    values: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(distinct sorted ascending, counts, inverse)`` of an int64
    symbol stream; ``distinct[inverse]`` rebuilds the stream."""
    v = np.asarray(values, dtype=np.int64).ravel()
    return _dispatch("huffman_histogram", int(v.size), (v,))


def huffman_lookup_indices(
    values: np.ndarray, symbols_sorted: np.ndarray
) -> np.ndarray:
    """Map each symbol to its index in the sorted alphabet.

    Raises ``KeyError`` naming the first out-of-alphabet symbol.
    """
    v = np.asarray(values, dtype=np.int64).ravel()
    return _dispatch("huffman_lookup_indices", int(v.size), (v, symbols_sorted))


def huffman_encode_bits(codes: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Pack per-symbol (code, length) pairs, lengths in [1, 32], into
    MSB-first ``uint8`` bytes, the last one zero-padded."""
    codes = np.asarray(codes, dtype=np.int64).ravel()
    lengths = np.asarray(lengths, dtype=np.int64).ravel()
    return _dispatch("huffman_encode_bits", int(codes.size), (codes, lengths))


def huffman_decode_symbols(
    bits: np.ndarray,
    dec_symbol: np.ndarray,
    dec_length: np.ndarray,
    count: int,
    max_len: int,
) -> np.ndarray:
    """Decode *count* symbols from a 0/1 bit array via the prefix tables.

    ``dec_symbol``/``dec_length`` are the ``2**max_len``-entry canonical
    prefix tables. Raises ``ValueError`` when the code chain escapes the
    stream (corrupt input).
    """
    bits = np.asarray(bits, dtype=np.uint8)
    return _dispatch(
        "huffman_decode_symbols",
        int(count),
        (bits, dec_symbol, dec_length, int(count), int(max_len)),
    )


# ----------------------------------------------------------------------
# Bit packing kernels (the BitWriter/BitReader byte boundary)
# ----------------------------------------------------------------------


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a 0/1 ``uint8`` array into bytes, MSB-first, zero-padded."""
    bits = np.asarray(bits, dtype=np.uint8)
    return _dispatch("pack_bits", int(bits.size), (bits,))


def unpack_bits(data: np.ndarray) -> np.ndarray:
    """Expand a byte array into its 0/1 ``uint8`` bits, MSB-first."""
    data = np.asarray(data, dtype=np.uint8)
    return _dispatch("unpack_bits", int(data.size), (data,))


# ----------------------------------------------------------------------
# ZFP kernels
# ----------------------------------------------------------------------


def negabinary_encode(values: np.ndarray) -> np.ndarray:
    """Map signed int64 to negabinary uint64 (zfp's ``int2uint``)."""
    v = np.asarray(values, dtype=np.int64)
    return _dispatch("negabinary_encode", int(v.size), (v,))


def negabinary_decode(values: np.ndarray) -> np.ndarray:
    """Invert :func:`negabinary_encode` (zfp's ``uint2int``)."""
    v = np.asarray(values, dtype=np.uint64)
    return _dispatch("negabinary_decode", int(v.size), (v,))


def zfp_encode_plane_group(rows: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """Emit the chunk stream for one kept-plane group.

    *rows* is the ``(g, block_size)`` uint64 negabinary matrix of the
    group's blocks; *planes* lists plane indices most-significant first.
    Per block, per plane: a 1-bit non-zero flag, then the plane's
    ``block_size`` raw bits only when the flag is set. Returns the 0/1
    ``uint8`` stream.
    """
    rows = np.asarray(rows, dtype=np.uint64)
    planes = np.asarray(planes, dtype=np.int64)
    return _dispatch(
        "zfp_encode_plane_group", int(rows.size * planes.size), (rows, planes)
    )


def zfp_decode_plane_group(
    bits: np.ndarray, nchunks: int, block_size: int
) -> Tuple[np.ndarray, int]:
    """Parse *nchunks* flag/payload chunks from a plane-group bit stream.

    Returns ``(planes, consumed)`` where ``planes`` is the
    ``(nchunks, block_size)`` uint8 0/1 payload matrix (zero rows for
    unset flags) and ``consumed`` the number of bits the chunks cover.
    Raises ``ValueError`` when the chunk chain escapes the stream.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    return _dispatch(
        "zfp_decode_plane_group",
        int(nchunks) * (1 + int(block_size)),
        (bits, int(nchunks), int(block_size)),
    )


# ----------------------------------------------------------------------
# SZ quantizer kernels
# ----------------------------------------------------------------------


def sz_quantize(data: np.ndarray, origin: float, bin_width: float) -> np.ndarray:
    """Grid indices ``round((x - origin) / bin_width)`` as int64."""
    arr = np.asarray(data, dtype=np.float64)
    return _dispatch(
        "sz_quantize", int(arr.size), (arr, float(origin), float(bin_width))
    )


def sz_reconstruct(indices: np.ndarray, origin: float, bin_width: float) -> np.ndarray:
    """Grid values ``origin + bin_width * k`` as float64."""
    idx = np.asarray(indices)
    return _dispatch(
        "sz_reconstruct", int(idx.size), (idx, float(origin), float(bin_width))
    )
