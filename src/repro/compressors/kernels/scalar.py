"""Scalar reference codec kernels (pure-Python loops).

The readable specification of every kernel in
:mod:`repro.compressors.kernels.vector`: one symbol, bit or value per
loop iteration, Python integers throughout. Orders of magnitude slower
than the vector backend — ``benchmarks/quick_bench.py`` gates the
measured gap at ≥3× — but **byte-identical**, which is what makes it
useful: the differential suite decodes vector-encoded streams with
these loops (and vice versa), and the CI equivalence matrix runs whole
test suites under ``REPRO_KERNELS=scalar``.

Float arithmetic deliberately mirrors the vector backend operation by
operation (same subtract/divide/round-half-even sequence), so grid
indices and reconstructed values match bit for bit.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.utils.chains import CORRUPT_CHAIN

name = "scalar"

_U64 = (1 << 64) - 1
_NB_MASK = 0xAAAAAAAAAAAAAAAA


# ----------------------------------------------------------------------
# Huffman
# ----------------------------------------------------------------------


def canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """RFC 1951 canonical assignment, one symbol at a time."""
    lens = lengths.tolist()
    if not lens:
        return np.empty(0, dtype=np.int64)
    codes: List[int] = []
    code = 0
    prev_len = lens[0]
    for ln in lens:
        code <<= ln - prev_len
        codes.append(code)
        prev_len = ln
        code += 1
    return np.array(codes, dtype=np.int64)


def huffman_histogram(
    values: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dict-counting loop, then a rank lookup, one symbol per iteration."""
    stream = values.tolist()
    counts: dict = {}
    for v in stream:
        counts[v] = counts.get(v, 0) + 1
    distinct = sorted(counts)
    rank = {s: i for i, s in enumerate(distinct)}
    return (
        np.array(distinct, dtype=np.int64),
        np.array([counts[s] for s in distinct], dtype=np.int64),
        np.array([rank[v] for v in stream], dtype=np.int64),
    )


def huffman_lookup_indices(
    values: np.ndarray, symbols_sorted: np.ndarray
) -> np.ndarray:
    """Per-symbol dict lookup into the alphabet's index table."""
    index = {s: i for i, s in enumerate(symbols_sorted.tolist())}
    out: List[int] = []
    for v in values.tolist():
        idx = index.get(v)
        if idx is None:
            raise KeyError(f"symbol {v} is not in the codec alphabet")
        out.append(idx)
    return np.array(out, dtype=np.int64)


def huffman_encode_bits(codes: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Append each code MSB-first to an integer accumulator, one symbol
    per loop iteration, and move every completed byte out; the last
    byte is zero-padded."""
    out: List[int] = []
    acc = 0
    nacc = 0
    for code, ln in zip(codes.tolist(), lengths.tolist()):
        acc = (acc << ln) | code
        nacc += ln
        while nacc >= 8:
            nacc -= 8
            out.append(acc >> nacc)
            acc &= (1 << nacc) - 1
    if nacc:
        out.append(acc << (8 - nacc))
    return np.array(out, dtype=np.uint8)


def huffman_decode_symbols(
    bits: np.ndarray,
    dec_symbol: np.ndarray,
    dec_length: np.ndarray,
    count: int,
    max_len: int,
) -> np.ndarray:
    """Sequential prefix-table decode: read a ``max_len``-bit window at
    the cursor, emit its symbol, advance by its code length."""
    stream = bits.tolist()
    nbits = len(stream)
    stream.extend([0] * max_len)
    symbols = dec_symbol.tolist()
    lengths = dec_length.tolist()
    out: List[int] = []
    pos = 0
    for _ in range(count):
        if pos >= nbits:
            raise ValueError(CORRUPT_CHAIN)
        window = 0
        for j in range(max_len):
            window = (window << 1) | stream[pos + j]
        out.append(symbols[window])
        pos += lengths[window]
    return np.array(out, dtype=np.int64)


# ----------------------------------------------------------------------
# Bit packing (BitWriter/BitReader byte boundary)
# ----------------------------------------------------------------------


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Accumulate 8 bits per byte, MSB-first, zero-padding the tail."""
    out: List[int] = []
    acc = 0
    nacc = 0
    for b in bits.tolist():
        acc = (acc << 1) | b
        nacc += 1
        if nacc == 8:
            out.append(acc)
            acc = 0
            nacc = 0
    if nacc:
        out.append(acc << (8 - nacc))
    return np.array(out, dtype=np.uint8)


def unpack_bits(data: np.ndarray) -> np.ndarray:
    """Expand each byte into 8 bits, MSB-first."""
    out: List[int] = []
    for byte in data.tolist():
        for shift in (7, 6, 5, 4, 3, 2, 1, 0):
            out.append((byte >> shift) & 1)
    return np.array(out, dtype=np.uint8)


# ----------------------------------------------------------------------
# ZFP negabinary + bit planes
# ----------------------------------------------------------------------


def negabinary_encode(values: np.ndarray) -> np.ndarray:
    out = [
        (((v & _U64) + _NB_MASK) & _U64) ^ _NB_MASK
        for v in values.ravel().tolist()
    ]
    return np.array(out, dtype=np.uint64).reshape(values.shape)


def negabinary_decode(values: np.ndarray) -> np.ndarray:
    out: List[int] = []
    for v in values.ravel().tolist():
        u = ((v ^ _NB_MASK) - _NB_MASK) & _U64
        out.append(u - (1 << 64) if u >= (1 << 63) else u)
    return np.array(out, dtype=np.int64).reshape(values.shape)


def zfp_encode_plane_group(rows: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """Per block, per plane: test, flag, then emit the raw plane bits."""
    out: List[int] = []
    plane_list = planes.tolist()
    for row in rows.tolist():
        for p in plane_list:
            plane_bits = [(v >> p) & 1 for v in row]
            flag = 1 if any(plane_bits) else 0
            out.append(flag)
            if flag:
                out.extend(plane_bits)
    return np.array(out, dtype=np.uint8)


def zfp_decode_plane_group(
    bits: np.ndarray, nchunks: int, block_size: int
) -> Tuple[np.ndarray, int]:
    """Cursor walk over flag/payload chunks, one chunk per iteration."""
    stream = bits.tolist()
    nbits = len(stream)
    plane_vals = np.zeros((nchunks, block_size), dtype=np.uint8)
    pos = 0
    for chunk in range(nchunks):
        if pos >= nbits:
            raise ValueError(CORRUPT_CHAIN)
        flag = stream[pos]
        pos += 1
        if flag:
            # A truncated final payload still advances the cursor by a
            # full block so the length check below reports the same
            # mismatch the vector chain does.
            row = stream[pos : pos + block_size]
            for j, b in enumerate(row):
                plane_vals[chunk, j] = b
            pos += block_size
    if pos != nbits:
        raise ValueError(
            f"plane group length mismatch: consumed {pos} of {nbits} bits"
        )
    return plane_vals, pos


# ----------------------------------------------------------------------
# SZ grid quantizer
# ----------------------------------------------------------------------


def sz_quantize(data: np.ndarray, origin: float, bin_width: float) -> np.ndarray:
    # Python's round() is round-half-even on floats, matching np.rint.
    out = [round((x - origin) / bin_width) for x in data.ravel().tolist()]
    return np.array(out, dtype=np.int64).reshape(data.shape)


def sz_reconstruct(indices: np.ndarray, origin: float, bin_width: float) -> np.ndarray:
    out = [origin + float(k) * bin_width for k in indices.ravel().tolist()]
    return np.array(out, dtype=np.float64).reshape(indices.shape)
