"""Unit + property tests for the canonical Huffman codec."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.compressors.huffman import HuffmanCodec, build_code_lengths
from repro.utils.bitio import BitReader, BitWriter


def roundtrip(data, codec=None):
    data = np.asarray(data, dtype=np.int64)
    codec = codec or HuffmanCodec.from_data(data)
    w = BitWriter()
    codec.serialize_to(w)
    nbits = codec.encode_to(w, data)
    r = BitReader(w.getvalue(), nbits=len(w))
    codec2 = HuffmanCodec.deserialize_from(r)
    out = codec2.decode_from(r, nbits, data.size)
    return out


def reference_code_lengths(frequencies, max_code_length=16):
    """The list-per-merge two-queue build that the current
    :func:`build_code_lengths` replaced, kept as its oracle."""
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
        order = np.argsort(np.asarray(freqs, dtype=np.int64), kind="stable")
        leaf_freqs = [freqs[i] for i in order.tolist()]
        parent = [0] * (2 * nsym - 1)
        merged_freqs = []
        ai = 0
        bi = 0
        for node in range(nsym, 2 * nsym - 1):
            pair = []
            for _ in range(2):
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


def halving_rounds(frequencies, max_code_length):
    """How many times the length limit halves the frequencies."""
    freqs = dict(frequencies)
    rounds = 0
    while max(reference_code_lengths(freqs, 64).values()) > max_code_length:
        freqs = {s: max(1, f // 2) for s, f in freqs.items()}
        rounds += 1
    return rounds


symbol_st = st.integers(-(2**52), 2**52)


class TestCodeLengthsMatchReference:
    @given(
        st.dictionaries(symbol_st, st.integers(1, 3), min_size=2, max_size=300),
        st.integers(9, 16),
    )
    @settings(max_examples=60, deadline=None)
    def test_tie_heavy_tables(self, freqs, max_code_length):
        expected = reference_code_lengths(freqs, max_code_length)
        assert build_code_lengths(freqs, max_code_length) == expected

    @given(symbol_st, st.integers(1, 2**40), st.integers(1, 16))
    @settings(max_examples=30, deadline=None)
    def test_single_symbol_tables(self, symbol, freq, max_code_length):
        table = {symbol: freq}
        expected = reference_code_lengths(table, max_code_length)
        assert build_code_lengths(table, max_code_length) == expected == {symbol: 1}

    @given(
        st.lists(st.integers(0, 3), min_size=12, max_size=28),
        st.integers(5, 9),
        st.integers(0, 2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_tables_that_halve_at_least_three_times(
        self, jitter, max_code_length, seed
    ):
        # Near-geometric frequencies build a near-linear tree, so the
        # limit forces several halving rounds.
        rng = np.random.default_rng(seed)
        symbols = rng.choice(2**20, size=len(jitter), replace=False) - 2**19
        freqs = {
            int(s): 2**i + j for i, (s, j) in enumerate(zip(symbols, jitter))
        }
        assume(len(freqs) <= 2**max_code_length)
        assume(halving_rounds(freqs, max_code_length) >= 3)
        expected = reference_code_lengths(freqs, max_code_length)
        assert build_code_lengths(freqs, max_code_length) == expected


class TestBuildCodeLengths:
    def test_two_symbols_one_bit_each(self):
        lengths = build_code_lengths({0: 5, 1: 3})
        assert lengths == {0: 1, 1: 1}

    def test_skewed_frequencies_shorter_codes(self):
        lengths = build_code_lengths({0: 1000, 1: 10, 2: 10, 3: 1})
        assert lengths[0] < lengths[3]

    def test_kraft_equality(self):
        lengths = build_code_lengths({i: i + 1 for i in range(20)})
        assert sum(2.0 ** -l for l in lengths.values()) == pytest.approx(1.0)

    def test_length_limit_respected(self):
        # Exponential frequencies force deep trees without limiting.
        freqs = {i: 2**i for i in range(24)}
        lengths = build_code_lengths(freqs, max_code_length=12)
        assert max(lengths.values()) <= 12
        assert sum(2.0 ** -l for l in lengths.values()) == pytest.approx(1.0)

    def test_single_symbol(self):
        assert build_code_lengths({42: 7}) == {42: 1}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_code_lengths({})

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ValueError):
            build_code_lengths({0: 0})

    def test_alphabet_too_large(self):
        with pytest.raises(ValueError, match="cannot be coded"):
            build_code_lengths({i: 1 for i in range(5)}, max_code_length=2)


class TestCodecConstruction:
    def test_duplicate_symbols_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            HuffmanCodec([1, 1], [1, 1])

    def test_kraft_violation_rejected(self):
        with pytest.raises(ValueError, match="Kraft"):
            HuffmanCodec([0, 1, 2], [1, 1, 1])

    def test_alphabet_sorted(self):
        codec = HuffmanCodec.from_data([3, 1, 2, 1, 1])
        assert codec.alphabet.tolist() == [1, 2, 3]

    def test_code_length_frequency_ordering(self):
        data = [0] * 100 + [1] * 10 + [2]
        codec = HuffmanCodec.from_data(data)
        assert codec.code_length(0) <= codec.code_length(2)

    def test_unknown_symbol_encode(self):
        codec = HuffmanCodec.from_data([1, 2, 3])
        w = BitWriter()
        with pytest.raises(KeyError, match="not in the codec alphabet"):
            codec.encode_to(w, [99])


class TestRoundTrips:
    def test_simple(self):
        data = [1, 2, 3, 1, 1, 2, 1]
        assert roundtrip(data).tolist() == data

    def test_single_symbol_alphabet(self):
        data = [7] * 100
        assert roundtrip(data).tolist() == data

    def test_negative_symbols(self):
        data = [-5, -1, 0, 3, -5, -5, 3]
        assert roundtrip(data).tolist() == data

    def test_large_symbols(self):
        data = [2**50, -(2**50), 0, 2**50]
        assert roundtrip(data).tolist() == data

    def test_large_stream(self):
        rng = np.random.default_rng(0)
        data = rng.choice([-2, -1, 0, 1, 2], size=200_000, p=[0.05, 0.2, 0.5, 0.2, 0.05])
        out = roundtrip(data)
        assert np.array_equal(out, data)

    def test_encode_indices_matches_encode(self):
        data = np.array([5, -3, 5, 9, 9, 9, 5], dtype=np.int64)
        codec = HuffmanCodec.from_data(data)
        by_symbol, by_index = BitWriter(), BitWriter()
        nbits = codec.encode_to(by_symbol, data)
        indices = np.searchsorted(codec.alphabet, data)
        assert codec.encode_indices_to(by_index, indices) == nbits
        assert by_index.getvalue() == by_symbol.getvalue()
        lengths = dict(zip(codec.alphabet.tolist(), codec.code_lengths.tolist()))
        assert nbits == sum(lengths[s] for s in data.tolist())

    def test_encoded_bit_length_exact(self):
        data = np.array([1, 1, 2, 3, 1], dtype=np.int64)
        codec = HuffmanCodec.from_data(data)
        w = BitWriter()
        emitted = codec.encode_to(w, data)
        lengths = dict(zip(codec.alphabet.tolist(), codec.code_lengths.tolist()))
        assert emitted == sum(lengths[s] for s in data.tolist()) == len(w)

    def test_compression_beats_fixed_width_on_skewed_data(self):
        rng = np.random.default_rng(1)
        data = rng.choice(np.arange(16), size=10_000, p=[0.7] + [0.02] * 15)
        codec = HuffmanCodec.from_data(data)
        assert codec.encode_to(BitWriter(), data) < 4 * data.size

    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=500))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, data):
        assert roundtrip(data).tolist() == data

    @given(
        st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=64),
        st.integers(0, 2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_wide_range(self, symbols, seed):
        rng = np.random.default_rng(seed)
        data = rng.choice(np.array(symbols, dtype=np.int64), size=200)
        assert np.array_equal(roundtrip(data), data)


class TestDecodeValidation:
    def test_truncated_stream_raises(self):
        data = np.arange(50, dtype=np.int64) % 5
        codec = HuffmanCodec.from_data(data)
        w = BitWriter()
        nbits = codec.encode_to(w, data)
        full_bits = np.unpackbits(np.frombuffer(w.getvalue(), dtype=np.uint8))
        with pytest.raises((ValueError, EOFError)):
            codec.decode(full_bits[: nbits // 2], 50)

    def test_decode_zero_count(self):
        codec = HuffmanCodec.from_data([1, 2])
        assert codec.decode(np.array([0, 1], dtype=np.uint8), 0).size == 0

    def test_decode_empty_stream_nonzero_count(self):
        codec = HuffmanCodec.from_data([1, 2])
        with pytest.raises(ValueError):
            codec.decode(np.empty(0, dtype=np.uint8), 3)


class TestEmptyAndSingleSymbolEdgeCases:
    """Explicit 0-length-input and alphabet-of-one coverage, per backend."""

    @pytest.fixture(params=["scalar", "vector"])
    def backend(self, request):
        from repro.compressors import kernels

        with kernels.use_backend(request.param):
            yield request.param

    def test_encode_empty_array_emits_nothing(self, backend):
        codec = HuffmanCodec.from_data([4, 5, 4])
        w = BitWriter()
        assert codec.encode_to(w, np.empty(0, dtype=np.int64)) == 0
        assert len(w) == 0
        assert w.getvalue() == b""

    def test_encoded_bit_length_empty(self, backend):
        codec = HuffmanCodec.from_data([4, 5])
        w = BitWriter()
        assert codec.encode_indices_to(w, np.empty(0, dtype=np.int64)) == 0
        assert len(w) == 0

    def test_decode_zero_count_from_empty_stream(self, backend):
        codec = HuffmanCodec.from_data([4, 5])
        out = codec.decode(np.empty(0, dtype=np.uint8), 0)
        assert out.size == 0 and out.dtype == np.int64

    def test_from_data_empty_rejected(self, backend):
        with pytest.raises(ValueError, match="non-empty"):
            HuffmanCodec.from_data(np.empty(0, dtype=np.int64))

    def test_single_symbol_codec_shape(self, backend):
        codec = HuffmanCodec.from_data([9, 9, 9])
        assert codec.alphabet.tolist() == [9]
        assert codec.max_code_length == 1
        assert codec.code_length(9) == 1

    def test_single_symbol_full_roundtrip(self, backend):
        # One symbol costs one bit; byte padding past the stream end
        # must not confuse the decoder.
        data = [123] * 11
        assert roundtrip(data).tolist() == data

    def test_single_symbol_serialize_roundtrip(self, backend):
        codec = HuffmanCodec.from_data([-6])
        w = BitWriter()
        codec.serialize_to(w)
        codec2 = HuffmanCodec.deserialize_from(BitReader(w.getvalue(), nbits=len(w)))
        assert codec2.alphabet.tolist() == [-6]
        assert codec2.max_code_length == 1

    def test_empty_then_single_symbol_stream(self, backend):
        # SZ encodes residual streams of length 0 for 1-element arrays;
        # an empty encode followed by decode(count=0) is a legal pair.
        codec = HuffmanCodec.from_data([0])
        w = BitWriter()
        nbits = codec.encode_to(w, [])
        assert nbits == 0
        assert codec.decode_from(
            BitReader(w.getvalue(), nbits=0), 0, 0
        ).size == 0
