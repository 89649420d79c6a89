"""Canonical Huffman coding over the pluggable codec kernel layer.

SZ's entropy stage Huffman-codes quantization codes for arrays with
millions of elements, so a per-symbol Python loop is not an option
(guides: no per-element Python loops on hot paths). The bit-level inner
loops — canonical code assignment, table-driven bit emission, and
prefix-table chain decoding — live in
:mod:`repro.compressors.kernels`, where the default ``vector`` backend
flattens a masked bit matrix on encode and follows the 2^L
lookup-table code chain with one speculative segment walk
(:func:`repro.utils.chains.walk_chain`) on decode;
``REPRO_KERNELS=scalar`` swaps in the byte-identical pure-Python
reference loops.

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
    if any(f <= 0 for f in frequencies.values()):
        raise ValueError("frequencies must be positive")
    nsym = len(frequencies)
    if nsym > (1 << max_code_length):
        raise ValueError(
            f"{nsym} symbols cannot be coded within {max_code_length}-bit codes"
        )
    if nsym == 1:
        return {next(iter(frequencies)): 1}

    symbols = sorted(frequencies)
    freqs = [frequencies[s] for s in symbols]
    while True:
        # Leaves in (freq, symbol) order — the heap's pop order for
        # leaves, since its tiebreak counter was the symbol rank.
        order = np.argsort(np.asarray(freqs, dtype=np.int64), kind="stable")
        leaf_freqs = [freqs[i] for i in order.tolist()]
        # Nodes: 0..nsym-1 = leaves (in pop order), nsym.. = merges.
        parent = [0] * (2 * nsym - 1)
        merged_freqs: list[int] = []
        ai = 0  # leaf queue head
        bi = 0  # merged queue head
        for node in range(nsym, 2 * nsym - 1):
            pair = []
            for _ in range(2):
                # Tie prefers the leaf: its heap counter (symbol rank)
                # is always below any merged node's insertion counter.
                if ai < nsym and (
                    bi >= len(merged_freqs) or leaf_freqs[ai] <= merged_freqs[bi]
                ):
                    pair.append(ai)
                    ai += 1
                else:
                    pair.append(nsym + bi)
                    bi += 1
            parent[pair[0]] = node
            parent[pair[1]] = node
            f0 = leaf_freqs[pair[0]] if pair[0] < nsym else merged_freqs[pair[0] - nsym]
            f1 = leaf_freqs[pair[1]] if pair[1] < nsym else merged_freqs[pair[1] - nsym]
            merged_freqs.append(f0 + f1)
        # Parents are created after their children, so a single
        # descending sweep resolves every depth.
        depth = [0] * (2 * nsym - 1)
        for node in range(2 * nsym - 3, -1, -1):
            depth[node] = depth[parent[node]] + 1
        lengths = {
            symbols[sym_idx]: depth[leaf_pos]
            for leaf_pos, sym_idx in enumerate(order.tolist())
        }
        if max(lengths.values()) <= max_code_length:
            return lengths
        freqs = [max(1, f // 2) for f in freqs]


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
        values, counts = kernels.huffman_histogram(arr)
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
    def max_code_length(self) -> int:
        """Longest code length in bits."""
        return self._max_len

    def code_length(self, symbol: int) -> int:
        """Length in bits of *symbol*'s code."""
        idx = self._lookup(np.array([symbol], dtype=np.int64))
        return int(self._enc_lengths[idx[0]])

    def encoded_bit_length(self, data) -> int:
        """Exact number of bits :meth:`encode_to` would emit for *data*."""
        arr = np.asarray(data, dtype=np.int64).ravel()
        if arr.size == 0:
            return 0
        total = 0
        for lo in range(0, arr.size, _ENCODE_CHUNK):
            idx = self._lookup(arr[lo : lo + _ENCODE_CHUNK])
            total += int(self._enc_lengths[idx].sum())
        return total

    def _lookup(self, arr: np.ndarray) -> np.ndarray:
        return kernels.huffman_lookup_indices(arr, self._symbols_sorted)

    # ------------------------------------------------------------------
    # Encode / decode
    # ------------------------------------------------------------------

    def encode_to(self, writer: BitWriter, data) -> int:
        """Append the code bits of *data* to *writer*; returns bit count.

        Per chunk, symbols are mapped to (code, length) pairs and handed
        to the ``huffman_encode_bits`` kernel, which preserves symbol
        order bit for bit under either backend.
        """
        arr = np.asarray(data, dtype=np.int64).ravel()
        if arr.size == 0:
            return 0
        total_bits = 0
        for lo in range(0, arr.size, _ENCODE_CHUNK):
            chunk = arr[lo : lo + _ENCODE_CHUNK]
            idx = self._lookup(chunk)
            lens = self._enc_lengths[idx]
            codes = self._enc_codes[idx]
            writer.write_bits_array(
                kernels.huffman_encode_bits(codes, lens, self._max_len)
            )
            total_bits += int(lens.sum())
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
