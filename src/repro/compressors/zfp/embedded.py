"""Negabinary mapping and bit-plane coding over the kernel layer.

ZFP encodes transform coefficients in negabinary (base −2), whose
sign-free representation makes truncating low bit planes a clean
magnitude cut: zeroing planes below *p* perturbs the value by less than
``2**p``.

The plane coder serializes, for every block, its kept planes from most
to least significant. Each plane is one chunk: a 1-bit "non-zero" flag,
followed by the plane's ``block_size`` raw bits only when the flag is
set — ZFP's group-testing idea reduced to plane granularity. The
per-bit inner loops live in :mod:`repro.compressors.kernels`: the
default ``vector`` backend encodes through a byte gather and a masked
flatten and decodes through a :func:`~repro.utils.chains.walk_chain` chunk
chain (a chunk is 1 or ``1 + block_size`` bits), while
``REPRO_KERNELS=scalar`` swaps in the byte-identical reference loops.
"""

from __future__ import annotations

import numpy as np

from repro.compressors import kernels
from repro.utils.bitio import BitReader, BitWriter

__all__ = [
    "int_to_negabinary",
    "negabinary_to_int",
    "encode_planes",
    "decode_planes",
]


def int_to_negabinary(values: np.ndarray) -> np.ndarray:
    """Map signed int64 to negabinary uint64 (zfp's ``int2uint``)."""
    return kernels.negabinary_encode(np.asarray(values, dtype=np.int64))


def negabinary_to_int(values: np.ndarray) -> np.ndarray:
    """Invert :func:`int_to_negabinary` (zfp's ``uint2int``)."""
    return kernels.negabinary_decode(np.asarray(values, dtype=np.uint64))


def encode_planes(
    writer: BitWriter,
    negabinary: np.ndarray,
    kept_planes: np.ndarray,
    top_plane: int,
) -> None:
    """Serialize per-block kept bit planes of a negabinary matrix.

    Parameters
    ----------
    writer:
        Destination bit stream.
    negabinary:
        ``(nblocks, block_size)`` uint64 matrix.
    kept_planes:
        Per-block number of planes to keep (from *top_plane* downward);
        values in ``[0, top_plane + 1]``.
    top_plane:
        Index of the most significant plane (all planes above it must be
        zero for every block).

    Layout: blocks are grouped by their ``kept_planes`` value (ascending,
    zero-plane blocks emit nothing); a 64-bit substream length precedes
    each group so the decoder can window its jump chain. Group membership
    is *not* stored — the decoder recomputes ``kept_planes`` from block
    exponents exactly as the encoder did.
    """
    nb = np.asarray(negabinary, dtype=np.uint64)
    k = np.asarray(kept_planes, dtype=np.int64)
    if nb.ndim != 2:
        raise ValueError("negabinary must be 2-D (nblocks, block_size)")
    if k.shape != (nb.shape[0],):
        raise ValueError("kept_planes must have one entry per block")
    if np.any(k < 0) or np.any(k > top_plane + 1):
        raise ValueError(f"kept_planes must lie in [0, {top_plane + 1}]")

    for kv in np.unique(k):
        kv = int(kv)
        if kv == 0:
            continue
        rows = nb[k == kv]
        planes = np.arange(top_plane, top_plane - kv, -1, dtype=np.int64)
        group_bits = kernels.zfp_encode_plane_group(rows, planes)
        writer.write_uint(group_bits.size, 64)
        writer.write_bits_array(group_bits)


def decode_planes(
    reader: BitReader,
    kept_planes: np.ndarray,
    top_plane: int,
    block_size: int,
) -> np.ndarray:
    """Reconstruct the (truncated) negabinary matrix written by
    :func:`encode_planes`.

    Planes below each block's kept range decode as zero, matching the
    encoder-side truncation.
    """
    k = np.asarray(kept_planes, dtype=np.int64)
    nblocks = k.size
    nb = np.zeros((nblocks, block_size), dtype=np.uint64)

    for kv in np.unique(k):
        kv = int(kv)
        if kv == 0:
            continue
        sel = np.flatnonzero(k == kv)
        nbits = reader.read_uint(64)
        bits = reader.read_bits_array(nbits)
        nchunks = sel.size * kv
        if nchunks:
            if nbits == 0:
                raise ValueError("empty plane group with pending chunks")
            planes, _ = kernels.zfp_decode_plane_group(bits, nchunks, block_size)
            # Each coefficient's kept plane bits, most significant first,
            # go to their places in a 64-bit row (plane p is bit 63 - p);
            # np.packbits turns the rows into big-endian uint64 words.
            rows = np.zeros((sel.size, block_size, 64), dtype=np.uint8)
            rows[:, :, 63 - top_plane : 63 - top_plane + kv] = planes.reshape(
                sel.size, kv, block_size
            ).transpose(0, 2, 1)
            nb[sel] = np.packbits(rows, axis=-1).view(">u8")[:, :, 0]
    return nb
