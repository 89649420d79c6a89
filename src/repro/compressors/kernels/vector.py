"""Vectorized codec kernels (the default backend).

Every function here is the NumPy counterpart of a loop in
:mod:`repro.compressors.kernels.scalar` and must emit **identical
bytes**; the differential suite and the CI ``kernel-equivalence``
matrix enforce that. No O(n) Python loop is allowed on any path in
this module — loops below are O(max_code_length) ≤ 32 rounds or
O(distinct plane counts), never per element. The two decode kernels
follow their sequential code/chunk chains with
:func:`repro.utils.chains.walk_chain`, whose lockstep rounds number
about the steps in one 64-step segment, not the stream length.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.utils.chains import walk_chain

name = "vector"


# ----------------------------------------------------------------------
# Huffman
# ----------------------------------------------------------------------


def canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """Canonical code values for non-decreasing code lengths.

    RFC 1951 construction, vectorized over symbols: the first code of
    each length is ``(first_code[l-1] + count[l-1]) << 1`` (an
    O(max_len) scan), and within a length codes are the first code plus
    the symbol's rank.
    """
    lens = np.asarray(lengths, dtype=np.int64)
    if lens.size == 0:
        return np.empty(0, dtype=np.int64)
    max_len = int(lens[-1])
    counts = np.bincount(lens, minlength=max_len + 1).astype(np.int64)
    first = np.zeros(max_len + 1, dtype=np.int64)
    for ln in range(1, max_len + 1):
        first[ln] = (first[ln - 1] + counts[ln - 1]) << 1
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    rank = np.arange(lens.size, dtype=np.int64) - starts[lens]
    return first[lens] + rank


def huffman_histogram(
    values: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted distinct symbols, their counts and every symbol's index
    among them.

    When the symbols span no more integers than the stream holds (SZ's
    residuals), one ``np.bincount`` over the span gives all three with
    no sort; otherwise one ``np.unique``.
    """
    if values.size:
        lo = int(values.min())
        span = int(values.max()) - lo + 1
        if span <= values.size:
            offsets = values - lo
            counts = np.bincount(offsets, minlength=span)
            present = counts > 0
            distinct = np.flatnonzero(present)
            rank = np.cumsum(present) - 1
            return distinct + lo, counts[distinct], rank[offsets]
    distinct, inverse, counts = np.unique(
        values, return_inverse=True, return_counts=True
    )
    return distinct, counts, inverse


def huffman_lookup_indices(
    values: np.ndarray, symbols_sorted: np.ndarray
) -> np.ndarray:
    """Binary-search every symbol against the sorted alphabet at once."""
    idx = np.searchsorted(symbols_sorted, values)
    bad = (idx >= symbols_sorted.size) | (
        symbols_sorted[np.minimum(idx, symbols_sorted.size - 1)] != values
    )
    if np.any(bad):
        missing = values[bad][0]
        raise KeyError(f"symbol {int(missing)} is not in the codec alphabet")
    return idx


def huffman_encode_bits(codes: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Pack codes MSB-first into 64-bit words, then big-endian bytes.

    Every code's word and end offset follow from the running sum of
    the lengths; codes are shifted into place and one
    ``np.bitwise_or.reduceat`` ORs the codes that start in each word
    together (codes are at most 32 bits, so every word up to the last
    one holds the start of some code). A code that straddles a word
    boundary keeps its high bits in its own word and spills its low
    bits into the top of the next one.
    """
    if codes.size == 0:
        return np.empty(0, dtype=np.uint8)
    ends = np.cumsum(lengths)
    total = int(ends[-1])
    starts = ends - lengths
    word = starts >> 6
    # Free bits to the right of the code in its word; < 0 straddles.
    room = 64 - (starts & 63) - lengths
    straddle = np.flatnonzero(room < 0)
    values = codes.astype(np.uint64)
    placed = values << np.maximum(room, 0).astype(np.uint64)
    spill = (-room[straddle]).astype(np.uint64)
    placed[straddle] = values[straddle] >> spill
    heads = np.flatnonzero(word[1:] != word[:-1]) + 1
    words = np.zeros((total + 63) >> 6, dtype=np.uint64)
    words[: heads.size + 1] = np.bitwise_or.reduceat(
        placed, np.concatenate(([0], heads))
    )
    words[word[straddle] + 1] |= values[straddle] << (np.uint64(64) - spill)
    return words.astype(">u8").view(np.uint8)[: (total + 7) >> 3]


def huffman_decode_symbols(
    bits: np.ndarray,
    dec_symbol: np.ndarray,
    dec_length: np.ndarray,
    count: int,
    max_len: int,
) -> np.ndarray:
    """Prefix-table decode over one exact chain walk.

    The ``max_len``-bit window at bit *p* is cut from the 40-bit
    big-endian word at byte ``p >> 3`` of the packed stream, so windows
    are computed only at positions the walker visits; the code chain
    ``p -> p + dec_length[window(p)]`` goes through :func:`walk_chain`.
    """
    nbits = bits.size
    packed = np.zeros(-(-nbits // 8) + 4, dtype=np.int64)
    packed[:-4] = np.packbits(bits)
    words = (
        packed[:-4] << 32
        | packed[1:-3] << 24
        | packed[2:-2] << 16
        | packed[3:-1] << 8
        | packed[4:]
    )
    mask = (1 << max_len) - 1

    def window(p: np.ndarray) -> np.ndarray:
        return (words[p >> 3] >> (40 - max_len - (p & 7))) & mask

    chain = walk_chain(lambda p: p + dec_length[window(p)], nbits, count, max_len)
    return dec_symbol[window(chain)]


# ----------------------------------------------------------------------
# Bit packing (BitWriter/BitReader byte boundary)
# ----------------------------------------------------------------------


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a 0/1 array into bytes, MSB-first, zero-padded at the tail."""
    return np.packbits(bits)


def unpack_bits(data: np.ndarray) -> np.ndarray:
    """Unpack bytes into a 0/1 array, MSB-first."""
    return np.unpackbits(data)


# ----------------------------------------------------------------------
# ZFP negabinary + bit planes
# ----------------------------------------------------------------------

_NB_MASK = np.uint64(0xAAAAAAAAAAAAAAAA)


def negabinary_encode(values: np.ndarray) -> np.ndarray:
    v = values.astype(np.uint64)
    return (v + _NB_MASK) ^ _NB_MASK


def negabinary_decode(values: np.ndarray) -> np.ndarray:
    return ((values ^ _NB_MASK) - _NB_MASK).astype(np.int64)


def zfp_encode_plane_group(rows: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """Emit flag/payload chunks for a kept-plane group in one masked
    flatten over the ``(g, kv, 1 + block_size)`` chunk tensor.

    Plane *p* of a coefficient is bit ``p & 7`` of byte ``p >> 3`` in
    its little-endian ``uint8`` view. With the bytes regrouped so that
    byte *k* of every coefficient of a block is contiguous, one gather
    takes each plane's bytes, and a shift and mask leave each byte 0 or
    1; a plane's flag is its bit in the OR of the block's coefficients.
    """
    g, block_size = rows.shape
    kv = planes.size
    if g * kv == 0:
        return np.empty(0, dtype=np.uint8)
    octets = np.ascontiguousarray(rows, dtype="<u8").view(np.uint8)
    by_byte = octets.reshape(g, block_size, 8).transpose(0, 2, 1).copy()
    payload = np.take(by_byte, planes >> 3, axis=1)  # (g, kv, block_size)
    payload >>= (planes & 7).astype(np.uint8)[None, :, None]
    payload &= 1
    occupied = np.bitwise_or.reduce(rows, axis=1)
    flags = (occupied[:, None] >> planes.astype(np.uint64)) & np.uint64(1)

    chunks = np.empty((g, kv, 1 + block_size), dtype=np.uint8)
    chunks[:, :, 0] = flags
    chunks[:, :, 1:] = payload
    mask = np.ones(chunks.shape, dtype=bool)
    mask[:, :, 1:] = flags.astype(bool)[:, :, None]
    return chunks[mask]


def zfp_decode_plane_group(
    bits: np.ndarray, nchunks: int, block_size: int
) -> Tuple[np.ndarray, int]:
    """Walk the chunk chain (1 or ``1 + block_size`` bits each) with
    :func:`walk_chain`; the chunks tile the stream, so every bit off
    the chain is payload and one boolean mask takes them all."""
    nbits = bits.size
    width = np.array([1, 1 + block_size], dtype=np.int64)
    chain = walk_chain(lambda p: p + width[bits[p]], nbits, nchunks, 1 + block_size)
    flags = bits[chain].astype(bool)
    consumed = 0
    if nchunks:
        consumed = int(chain[-1]) + 1 + (block_size if flags[-1] else 0)
    if consumed != nbits:
        raise ValueError(
            f"plane group length mismatch: consumed {consumed} of {nbits} bits"
        )
    payload = np.ones(nbits, dtype=bool)
    payload[chain] = False
    # One block_size-byte item per row, so the masked copy moves rows.
    row = np.dtype((np.void, block_size))
    planes = np.zeros((nchunks, block_size), dtype=np.uint8)
    planes.view(row)[flags[:, None]] = bits[payload].view(row)
    return planes, consumed


# ----------------------------------------------------------------------
# SZ grid quantizer
# ----------------------------------------------------------------------


def sz_quantize(data: np.ndarray, origin: float, bin_width: float) -> np.ndarray:
    scaled = (data - origin) / bin_width
    return np.rint(scaled).astype(np.int64)


def sz_reconstruct(indices: np.ndarray, origin: float, bin_width: float) -> np.ndarray:
    return origin + indices.astype(np.float64) * bin_width
