"""Unit + property tests for repro.utils.bitio."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressors.huffman import HuffmanCodec
from repro.utils.bitio import BitReader, BitWriter


class ReferenceBitWriter:
    """The one-``uint8``-per-bit writer the packed :class:`BitWriter`
    replaced, kept as the oracle for its bytes and bit counts."""

    def __init__(self) -> None:
        self._chunks = []
        self._nbits = 0

    def __len__(self) -> int:
        return self._nbits

    def write_bit(self, bit: int) -> None:
        self.write_bits_array(np.array([bit], dtype=np.uint8))

    def write_bits_array(self, bits) -> None:
        arr = np.asarray(bits, dtype=np.uint8).ravel()
        if arr.size == 0:
            return
        if arr.max(initial=0) > 1:
            raise ValueError("bits must be 0 or 1")
        self._chunks.append(arr)
        self._nbits += arr.size

    def write_uint(self, value: int, nbits: int) -> None:
        if nbits <= 0:
            raise ValueError(f"nbits must be positive, got {nbits}")
        value = int(value)
        if value < 0 or value >> nbits:
            raise ValueError(f"value {value} does not fit in {nbits} bits")
        shifts = np.arange(nbits - 1, -1, -1, dtype=np.uint64)
        bits = (np.uint64(value) >> shifts) & np.uint64(1)
        self._chunks.append(bits.astype(np.uint8))
        self._nbits += nbits

    def write_uint_array(self, values, nbits: int) -> None:
        vals = np.asarray(values, dtype=np.uint64).ravel()
        if vals.size == 0:
            return
        if nbits <= 0 or nbits > 64:
            raise ValueError(f"nbits must lie in [1, 64], got {nbits}")
        if nbits < 64 and np.any(vals >> np.uint64(nbits)):
            raise ValueError(f"some values do not fit in {nbits} bits")
        shifts = np.arange(nbits - 1, -1, -1, dtype=np.uint64)
        bits = ((vals[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.uint8)
        self._chunks.append(bits.ravel())
        self._nbits += vals.size * nbits

    def getvalue(self) -> bytes:
        if not self._chunks:
            return b""
        return np.packbits(np.concatenate(self._chunks)).tobytes()


def reference_code_bits(codec: HuffmanCodec, symbols) -> list:
    """Canonical code bits of *symbols*, assigned one code at a time in
    (length, symbol) order from the codec's alphabet and lengths."""
    table = {}
    code = 0
    prev = None
    pairs = sorted(zip(codec.code_lengths.tolist(), codec.alphabet.tolist()))
    for length, symbol in pairs:
        if prev is not None:
            code = (code + 1) << (length - prev)
        table[symbol] = [(code >> s) & 1 for s in range(length - 1, -1, -1)]
        prev = length
    return [bit for s in symbols for bit in table[int(s)]]


#: A complete code whose lengths run 1, 2, ..., 18, 18 (its decode table
#: has 2^18 entries, so it stays cheap to build).
DEEP_CODEC = HuffmanCodec(list(range(19)), list(range(1, 19)) + [18])


class TestBitWriter:
    def test_empty_stream(self):
        w = BitWriter()
        assert len(w) == 0
        assert w.getvalue() == b""

    def test_single_bits_pack_msb_first(self):
        w = BitWriter()
        for b in (1, 0, 1, 0, 0, 0, 0, 0):
            w.write_bit(b)
        assert w.getvalue() == bytes([0b10100000])

    def test_pads_to_byte_boundary(self):
        w = BitWriter()
        w.write_bit(1)
        assert w.getvalue() == bytes([0b10000000])
        assert len(w) == 1

    def test_rejects_non_binary(self):
        w = BitWriter()
        with pytest.raises(ValueError, match="0 or 1"):
            w.write_bits_array([0, 2])

    def test_write_uint_roundtrip(self):
        w = BitWriter()
        w.write_uint(0xDEADBEEF, 32)
        r = BitReader(w.getvalue())
        assert r.read_uint(32) == 0xDEADBEEF

    def test_write_uint_overflow(self):
        w = BitWriter()
        with pytest.raises(ValueError, match="fit"):
            w.write_uint(256, 8)

    def test_write_uint_negative(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write_uint(-1, 8)

    def test_write_uint_bad_width(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write_uint(0, 0)

    def test_write_uint_array_matches_scalar(self):
        values = [0, 1, 255, 1000, 65535]
        w1, w2 = BitWriter(), BitWriter()
        w1.write_uint_array(values, 16)
        for v in values:
            w2.write_uint(v, 16)
        assert w1.getvalue() == w2.getvalue()

    def test_write_uint_array_overflow(self):
        w = BitWriter()
        with pytest.raises(ValueError, match="fit"):
            w.write_uint_array([7, 8], 3)

    def test_write_uint_array_64bit_max(self):
        w = BitWriter()
        w.write_uint_array([2**64 - 1], 64)
        assert BitReader(w.getvalue()).read_uint(64) == 2**64 - 1


class TestWidthBounds:
    """Fixed-width fields are 1 to 64 bits wide, in both directions."""

    def test_write_uint_rejects_65_bits(self):
        w = BitWriter()
        with pytest.raises(ValueError, match=r"\[1, 64\]"):
            w.write_uint(1, 65)
        assert len(w) == 0

    def test_write_uint_oversized_value_is_a_width_error(self):
        with pytest.raises(ValueError, match=r"\[1, 64\]"):
            BitWriter().write_uint(2**64 + 5, 65)

    def test_read_uint_rejects_65_bits(self):
        r = BitReader(b"\xff" * 9, nbits=65)
        with pytest.raises(ValueError, match=r"\[1, 64\]"):
            r.read_uint(65)
        assert r.remaining == 65

    def test_read_uint_rejects_zero_width(self):
        r = BitReader(b"\x00")
        with pytest.raises(ValueError, match=r"\[1, 64\]"):
            r.read_uint(0)


class TestBitReader:
    def test_read_past_end_raises(self):
        w = BitWriter()
        w.write_uint(3, 2)
        r = BitReader(w.getvalue(), nbits=2)
        r.read_bits_array(2)
        with pytest.raises(EOFError):
            r.read_bit()

    def test_nbits_limits_stream(self):
        r = BitReader(b"\xff", nbits=3)
        assert len(r) == 3
        assert r.remaining == 3

    def test_nbits_exceeding_data_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            BitReader(b"\xff", nbits=9)

    def test_read_uint_array_matches_scalars(self):
        w = BitWriter()
        w.write_uint_array([5, 10, 1023], 10)
        r1 = BitReader(w.getvalue())
        r2 = BitReader(w.getvalue())
        arr = r1.read_uint_array(3, 10)
        singles = [r2.read_uint(10) for _ in range(3)]
        assert arr.tolist() == singles

    def test_negative_read_rejected(self):
        r = BitReader(b"\x00")
        with pytest.raises(ValueError):
            r.read_bits_array(-1)

    def test_remaining_tracks_position(self):
        r = BitReader(b"\x00\x00")
        r.read_bits_array(5)
        assert r.remaining == 11


class TestRoundTripProperties:
    @given(st.lists(st.integers(0, 1), min_size=0, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_bits_roundtrip(self, bits):
        w = BitWriter()
        w.write_bits_array(bits)
        r = BitReader(w.getvalue(), nbits=len(bits))
        assert r.read_bits_array(len(bits)).tolist() == bits

    @given(
        st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=50),
        st.integers(32, 64),
    )
    @settings(max_examples=40, deadline=None)
    def test_uint_array_roundtrip(self, values, nbits):
        w = BitWriter()
        w.write_uint_array(values, nbits)
        r = BitReader(w.getvalue())
        assert r.read_uint_array(len(values), nbits).tolist() == values

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_mixed_stream_roundtrip(self, data):
        ops = data.draw(
            st.lists(
                st.tuples(st.integers(1, 24), st.integers(0, 2**24 - 1)),
                min_size=1,
                max_size=20,
            )
        )
        w = BitWriter()
        expect = []
        for nbits, value in ops:
            value &= (1 << nbits) - 1
            w.write_uint(value, nbits)
            expect.append((nbits, value))
        r = BitReader(w.getvalue())
        for nbits, value in expect:
            assert r.read_uint(nbits) == value


def _ops(data):
    """Draw a list of writer operations (see ``_apply``)."""
    width = st.one_of(st.sampled_from([8, 16, 64]), st.integers(1, 64))
    ops = []
    for _ in range(data.draw(st.integers(1, 10), label="nops")):
        kind = data.draw(
            st.sampled_from(["bit", "uint", "uint_array", "bits", "packed", "huffman"])
        )
        if kind == "bit":
            ops.append((kind, data.draw(st.integers(0, 1))))
        elif kind == "uint":
            nbits = data.draw(width)
            ops.append((kind, data.draw(st.integers(0, 2**nbits - 1)), nbits))
        elif kind == "uint_array":
            nbits = data.draw(width)
            values = data.draw(
                st.lists(st.integers(0, 2**nbits - 1), min_size=0, max_size=12)
            )
            ops.append((kind, values, nbits))
        elif kind == "bits":
            ops.append((kind, data.draw(st.lists(st.integers(0, 1), max_size=40))))
        elif kind == "packed":
            raw = data.draw(st.binary(min_size=0, max_size=12))
            ops.append((kind, raw, data.draw(st.integers(0, 8 * len(raw)))))
        else:
            codec = data.draw(st.sampled_from(["data", "deep"]))
            if codec == "deep":
                symbols = data.draw(st.lists(st.integers(0, 18), max_size=30))
                ops.append((kind, DEEP_CODEC, symbols))
            else:
                pool = data.draw(
                    st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=20)
                )
                symbols = data.draw(st.lists(st.sampled_from(pool), max_size=60))
                ops.append((kind, HuffmanCodec.from_data(pool), symbols))
    return ops


def _apply(writer, op, reference: bool) -> None:
    kind, *args = op
    if kind == "bit":
        writer.write_bit(args[0])
    elif kind == "uint":
        writer.write_uint(args[0], args[1])
    elif kind == "uint_array":
        writer.write_uint_array(np.array(args[0], dtype=np.uint64), args[1])
    elif kind == "bits":
        writer.write_bits_array(args[0])
    elif kind == "packed":
        raw, nbits = args
        if reference:
            bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[:nbits]
            writer.write_bits_array(bits)
        else:
            writer.write_packed(raw, nbits)
    else:
        codec, symbols = args
        if reference:
            writer.write_bits_array(reference_code_bits(codec, symbols))
        else:
            emitted = codec.encode_to(writer, np.array(symbols, dtype=np.int64))
            assert emitted == len(reference_code_bits(codec, symbols))


class TestPackedWriterMatchesReference:
    """The packed writer against the one-byte-per-bit writer it replaced:
    random interleavings of every write, started at each bit phase."""

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_interleavings_at_every_phase(self, data):
        ops = _ops(data)
        lead = data.draw(st.integers(0, 127), label="lead")
        for phase in range(8):
            writer, reference = BitWriter(), ReferenceBitWriter()
            if phase:
                writer.write_uint(lead >> (7 - phase), phase)
                reference.write_uint(lead >> (7 - phase), phase)
            for op in ops:
                _apply(writer, op, reference=False)
                _apply(reference, op, reference=True)
                assert len(writer) == len(reference), (phase, op[0])
            assert writer.getvalue() == reference.getvalue(), phase

    @pytest.mark.parametrize("nbits", [8, 16, 24, 64])
    def test_whole_byte_widths_are_big_endian_bytes(self, nbits):
        values = [0, 1, 2**nbits - 1, 0x0123456789ABCDEF % 2**nbits]
        w = BitWriter()
        w.write_uint_array(np.array(values, dtype=np.uint64), nbits)
        expected = b"".join(v.to_bytes(nbits // 8, "big") for v in values)
        assert w.getvalue() == expected

    def test_packed_tail_bits_past_nbits_are_ignored(self):
        w = BitWriter()
        w.write_uint(1, 3)
        w.write_packed(b"\xff\xff", 9)
        assert len(w) == 12
        assert w.getvalue() == bytes([0b00111111, 0b11110000])

    def test_packed_nbits_beyond_data_rejected(self):
        with pytest.raises(ValueError, match="does not fit"):
            BitWriter().write_packed(b"\x00", 9)


def reference_read_uint_array(reader: BitReader, count: int, nbits: int):
    """The shift-sum reader that the packed-word read replaced (every bit
    widened to ``uint64``), kept as the oracle for values and dtype."""
    bits = reader.read_bits_array(count * nbits).astype(np.uint64)
    shifts = np.arange(nbits - 1, -1, -1, dtype=np.uint64)
    return np.sum(bits.reshape(count, nbits) << shifts[None, :], axis=1)


class TestReadUintArrayMatchesReference:
    @given(
        st.one_of(st.sampled_from([8, 16, 24, 32, 40, 48, 56, 64]),
                  st.integers(1, 64)),
        st.integers(0, 300),
        st.integers(0, 7),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_every_width_count_and_phase(self, nbits, count, phase, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 2**nbits, size=count, dtype=np.uint64)
        w = BitWriter()
        if phase:  # the fields start *phase* bits into a byte
            w.write_uint(int(rng.integers(0, 2**phase)), phase)
        w.write_uint_array(values, nbits)
        w.write_uint(int(rng.integers(0, 128)), 7)  # trailing bits stay unread
        readers = [BitReader(w.getvalue()) for _ in range(2)]
        for r in readers:
            r.read_bits_array(phase)
        got = readers[0].read_uint_array(count, nbits)
        expected = reference_read_uint_array(readers[1], count, nbits)
        assert got.dtype == expected.dtype == np.uint64
        assert got.shape == expected.shape == (count,)
        assert np.array_equal(got, expected)
        assert np.array_equal(got, values)
        assert readers[0].remaining == readers[1].remaining
