"""Canonical Huffman coding over the pluggable codec kernel layer.

SZ's entropy stage Huffman-codes quantization codes for arrays with
millions of elements, so a per-symbol Python loop is not an option
(guides: no per-element Python loops on hot paths). The bit-level inner
loops — canonical code assignment, code packing, and prefix-table
chain decoding — live in :mod:`repro.compressors.kernels`, where the
default ``vector`` backend ORs the codes that fall in each 64-bit word
together on encode and follows the 2^L lookup-table code chain with one
speculative segment walk (:func:`repro.utils.chains.walk_chain`) on
decode; ``REPRO_KERNELS=scalar`` swaps in the byte-identical
pure-Python reference loops.

Codes are canonical (assigned in (length, symbol) order), so only the
symbol table and code lengths need to be serialized.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.compressors import kernels
from repro.utils.bitio import BitReader, BitWriter

__all__ = ["HuffmanCodec", "build_code_lengths"]

_ENCODE_CHUNK = 1 << 20


def build_code_lengths(
    frequencies: Dict[int, int], max_code_length: int = 16
) -> Dict[int, int]:
    """Huffman code lengths for a frequency table, limited to *max_code_length*.

    Two-queue merge over frequency-sorted leaves: merged nodes are born
    in non-decreasing frequency order, so the two cheapest nodes are
    always at the head of one of two FIFOs and the whole tree builds in
    O(n) after the sort — no heap, no per-merge subtree rebuilding. The
    merge order (ties prefer leaves, then older merges) reproduces the
    classic ``(freq, insertion counter)`` heap construction exactly, so
    lengths — and therefore canonical codes and stream bytes — are
    unchanged. If the tree comes out deeper than the limit, frequencies
    are repeatedly halved (floored at 1) and the tree rebuilt — a
    standard practical length-limiting scheme that converges to
    near-uniform lengths.
    """
    if not frequencies:
        raise ValueError("frequency table must be non-empty")
    if min(frequencies.values()) <= 0:
        raise ValueError("frequencies must be positive")
    nsym = len(frequencies)
    if nsym > (1 << max_code_length):
        raise ValueError(
            f"{nsym} symbols cannot be coded within {max_code_length}-bit codes"
        )
    if nsym == 1:
        return {next(iter(frequencies)): 1}

    symbols = sorted(frequencies)
    freqs = np.array([frequencies[s] for s in symbols], dtype=np.int64)
    nmerge = nsym - 1
    while True:
        # Leaves in (freq, symbol) order — the heap's pop order for
        # leaves, since its tiebreak counter was the symbol rank.
        order = np.argsort(freqs, kind="stable")
        leaf = freqs[order].tolist()
        # Nodes: 0..nsym-1 = leaves (in pop order), nsym.. = merges. A
        # tie prefers the leaf: its heap counter (symbol rank) is always
        # below any merged node's insertion counter.
        parent = [0] * (nsym + nmerge)
        merged = [0] * nmerge
        ai = bi = 0  # leaf / merged queue heads
        for m in range(nmerge):
            if ai < nsym and (bi >= m or leaf[ai] <= merged[bi]):
                first, f0 = ai, leaf[ai]
                ai += 1
            else:
                first, f0 = nsym + bi, merged[bi]
                bi += 1
            if ai < nsym and (bi >= m or leaf[ai] <= merged[bi]):
                second, f1 = ai, leaf[ai]
                ai += 1
            else:
                second, f1 = nsym + bi, merged[bi]
                bi += 1
            parent[first] = parent[second] = m
            merged[m] = f0 + f1
        # Merges are created after their children, so one descending
        # sweep gives every merge's depth (the root, last, has 0); a
        # leaf sits one below its parent merge.
        depth = [0] * nmerge
        for m in range(nmerge - 2, -1, -1):
            depth[m] = depth[parent[nsym + m]] + 1
        leaf_depth = np.asarray(depth)[parent[:nsym]] + 1
        if leaf_depth.max() <= max_code_length:
            lengths = np.empty(nsym, dtype=np.int64)
            lengths[order] = leaf_depth
            return dict(zip(symbols, lengths.tolist()))
        freqs = np.maximum(freqs // 2, 1)


class HuffmanCodec:
    """Canonical Huffman codec over an ``int64`` symbol alphabet."""

    def __init__(self, symbols: Sequence[int], lengths: Sequence[int]) -> None:
        """Build the canonical code from per-symbol code lengths.

        *symbols* and *lengths* are parallel sequences; symbols must be
        distinct. Kraft completeness is validated (a single-symbol
        alphabet, whose code is the 1-bit string ``0``, is the one
        permitted incomplete code).
        """
        syms = np.asarray(symbols, dtype=np.int64).ravel()
        lens = np.asarray(lengths, dtype=np.int64).ravel()
        if syms.size == 0:
            raise ValueError("alphabet must be non-empty")
        if syms.size != lens.size:
            raise ValueError("symbols and lengths must be parallel")
        if np.unique(syms).size != syms.size:
            raise ValueError("symbols must be distinct")
        if np.any(lens <= 0) or np.any(lens > 32):
            raise ValueError("code lengths must lie in [1, 32]")

        kraft = float(np.sum(2.0 ** (-lens.astype(np.float64))))
        if syms.size > 1 and abs(kraft - 1.0) > 1e-9:
            raise ValueError(f"code lengths violate Kraft equality (sum={kraft})")

        # Canonical assignment: sort by (length, symbol), codes count up.
        order = np.lexsort((syms, lens))
        syms, lens = syms[order], lens[order]
        max_len = int(lens.max())
        codes = kernels.canonical_codes(lens)

        self._max_len = max_len
        # Encoder view: sorted by symbol for searchsorted mapping.
        sym_order = np.argsort(syms)
        self._symbols_sorted = syms[sym_order]
        self._enc_lengths = lens[sym_order]
        self._enc_codes = codes[sym_order]
        # Decoder view: full prefix table of 2^max_len entries.
        starts = codes << (max_len - lens)
        counts = np.int64(1) << (max_len - lens)
        self._dec_symbol = np.repeat(syms, counts)
        self._dec_length = np.repeat(lens, counts)
        if syms.size == 1:
            # Incomplete single-symbol code: pad the table's second half.
            pad = (1 << max_len) - self._dec_symbol.size
            self._dec_symbol = np.concatenate(
                [self._dec_symbol, np.full(pad, syms[0], dtype=np.int64)]
            )
            self._dec_length = np.concatenate(
                [self._dec_length, np.full(pad, lens[0], dtype=np.int64)]
            )
        if self._dec_symbol.size != (1 << max_len):
            raise ValueError("internal error: prefix table incomplete")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_frequencies(
        cls, frequencies: Dict[int, int], max_code_length: int = 16
    ) -> "HuffmanCodec":
        """Build from a ``{symbol: count}`` table."""
        lengths = build_code_lengths(frequencies, max_code_length)
        syms = list(lengths)
        return cls(syms, [lengths[s] for s in syms])

    @classmethod
    def from_data(cls, data, max_code_length: int = 16) -> "HuffmanCodec":
        """Build from observed symbols (the codec's training data)."""
        arr = np.asarray(data, dtype=np.int64).ravel()
        if arr.size == 0:
            raise ValueError("data must be non-empty")
        values, counts, _ = kernels.huffman_histogram(arr)
        return cls.from_frequencies(
            dict(zip(values.tolist(), counts.tolist())), max_code_length
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def alphabet(self) -> np.ndarray:
        """Symbols the codec can encode, sorted ascending."""
        return self._symbols_sorted.copy()

    @property
    def code_lengths(self) -> np.ndarray:
        """Code length of each :attr:`alphabet` symbol, in the same order."""
        return self._enc_lengths.copy()

    @property
    def max_code_length(self) -> int:
        """Longest code length in bits."""
        return self._max_len

    def code_length(self, symbol: int) -> int:
        """Length in bits of *symbol*'s code."""
        idx = self._lookup(np.array([symbol], dtype=np.int64))
        return int(self._enc_lengths[idx[0]])

    def _lookup(self, arr: np.ndarray) -> np.ndarray:
        return kernels.huffman_lookup_indices(arr, self._symbols_sorted)

    # ------------------------------------------------------------------
    # Encode / decode
    # ------------------------------------------------------------------

    def encode_to(self, writer: BitWriter, data) -> int:
        """Append the code bits of *data* to *writer*; returns bit count.

        Per chunk, symbols are mapped to their :attr:`alphabet` positions
        and emitted by :meth:`encode_indices_to`.
        """
        arr = np.asarray(data, dtype=np.int64).ravel()
        total_bits = 0
        for lo in range(0, arr.size, _ENCODE_CHUNK):
            chunk = self._lookup(arr[lo : lo + _ENCODE_CHUNK])
            total_bits += self.encode_indices_to(writer, chunk)
        return total_bits

    def encode_indices_to(self, writer: BitWriter, indices: np.ndarray) -> int:
        """Append the codes of the :attr:`alphabet` symbols at *indices*
        to *writer*; returns the bit count.

        Per chunk, the ``huffman_encode_bits`` kernel packs the
        (code, length) pairs into MSB-first bytes, preserving symbol
        order bit for bit under either backend, and the writer appends
        them at its current bit phase.
        """
        idx = np.asarray(indices, dtype=np.int64).ravel()
        total_bits = 0
        for lo in range(0, idx.size, _ENCODE_CHUNK):
            chunk = idx[lo : lo + _ENCODE_CHUNK]
            lens = self._enc_lengths[chunk]
            nbits = int(lens.sum())
            writer.write_packed(
                kernels.huffman_encode_bits(self._enc_codes[chunk], lens), nbits
            )
            total_bits += nbits
        return total_bits

    def decode(self, bits: np.ndarray, count: int) -> np.ndarray:
        """Decode *count* symbols from a 0/1 bit array.

        The bit array must contain exactly the encoded stream (no
        trailing payload); byte-padding zeros past the last code are
        fine because the chain never visits them.
        """
        if count == 0:
            return np.empty(0, dtype=np.int64)
        bits = np.asarray(bits, dtype=np.uint8).ravel()
        if bits.size == 0:
            raise ValueError("empty bit stream but count > 0")
        return kernels.huffman_decode_symbols(
            bits, self._dec_symbol, self._dec_length, count, self._max_len
        )

    def decode_from(self, reader: BitReader, nbits: int, count: int) -> np.ndarray:
        """Consume *nbits* bits from *reader* and decode *count* symbols."""
        bits = reader.read_bits_array(nbits)
        return self.decode(bits, count)

    # ------------------------------------------------------------------
    # Codebook serialization
    # ------------------------------------------------------------------

    def serialize_to(self, writer: BitWriter) -> None:
        """Write the codebook (symbol values + code lengths)."""
        n = self._symbols_sorted.size
        writer.write_uint(n, 32)
        # Symbols stored zigzag so negative quantization codes fit uint64.
        zz = (self._symbols_sorted << 1) ^ (self._symbols_sorted >> 63)
        writer.write_uint_array(zz.astype(np.uint64), 64)
        writer.write_uint_array(self._enc_lengths.astype(np.uint64), 8)

    @classmethod
    def deserialize_from(cls, reader: BitReader) -> "HuffmanCodec":
        """Read a codebook written by :meth:`serialize_to`."""
        n = reader.read_uint(32)
        if n == 0:
            raise ValueError("serialized codebook is empty")
        zz = reader.read_uint_array(n, 64).astype(np.int64)
        syms = (zz >> 1) ^ -(zz & 1)
        lens = reader.read_uint_array(n, 8).astype(np.int64)
        return cls(syms, lens)
