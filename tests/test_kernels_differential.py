"""Differential suite for the codec kernel layer.

Every kernel has two backends — ``vector`` (NumPy) and ``scalar``
(pure-Python reference loops) — that must produce **identical** output
down to the last bit. This suite holds them to that contract three
ways:

1. per-kernel differential properties under hypothesis-generated
   inputs (random dtypes/shapes/error bounds);
2. whole-container byte identity: SZ and ZFP payloads compressed under
   one backend equal the other's and cross-decode;
3. backend selection semantics (override > ``$REPRO_KERNELS`` > default)
   and the per-call observability contract (spans + counters).
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressors import get_compressor, kernels
from repro.compressors.huffman import HuffmanCodec
from repro.observability import Tracer, get_registry, use_tracer
from repro.utils.bitio import BitReader, BitWriter

BACKENDS = kernels.backend_names()


def both_backends(fn, *args, **kwargs):
    """Run *fn* under each backend, return ``{backend: result}``."""
    out = {}
    for backend in BACKENDS:
        with kernels.use_backend(backend):
            out[backend] = fn(*args, **kwargs)
    return out


def assert_identical(results):
    ref_name, *rest = sorted(results)
    ref = results[ref_name]
    for other in rest:
        np.testing.assert_array_equal(
            ref, results[other], err_msg=f"{ref_name} != {other}"
        )


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------


class TestBackendSelection:
    def test_registered_backends(self):
        assert BACKENDS == ("scalar", "vector")

    def test_default_is_vector(self, monkeypatch):
        monkeypatch.delenv(kernels.KERNELS_ENV, raising=False)
        assert kernels.active_backend() == "vector"

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNELS_ENV, "scalar")
        assert kernels.active_backend() == "scalar"

    def test_env_var_validated(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNELS_ENV, "cuda")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.active_backend()

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNELS_ENV, "scalar")
        with kernels.use_backend("vector"):
            assert kernels.active_backend() == "vector"
        assert kernels.active_backend() == "scalar"

    def test_set_backend_returns_previous_and_clears(self):
        assert kernels.set_backend("scalar") is None
        try:
            assert kernels.set_backend("vector") == "scalar"
        finally:
            assert kernels.set_backend(None) == "vector"

    def test_set_backend_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.set_backend("simd")

    def test_use_backend_restores_on_error(self):
        before = kernels.active_backend()
        other = next(b for b in BACKENDS if b != before)
        with pytest.raises(RuntimeError):
            with kernels.use_backend(other):
                raise RuntimeError("boom")
        assert kernels.active_backend() == before

    def test_env_inherited_by_subprocess(self):
        # The documented route to switch process-pool workers.
        import subprocess
        import sys

        env = dict(os.environ, REPRO_KERNELS="scalar")
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c",
             "from repro.compressors import kernels; "
             "print(kernels.active_backend())"],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout.strip() == "scalar"


# ----------------------------------------------------------------------
# Observability contract
# ----------------------------------------------------------------------


class TestKernelObservability:
    def test_counters_labelled_by_kernel_and_backend(self):
        registry = get_registry()
        registry.reset()
        data = np.linspace(0.0, 1.0, 17)
        for backend in BACKENDS:
            with kernels.use_backend(backend):
                kernels.sz_quantize(data, 0.0, 0.125)
        for backend in BACKENDS:
            labels = {"kernel": "sz_quantize", "backend": backend}
            assert registry.counter("repro_kernel_calls_total", labels).value == 1
            assert (
                registry.counter("repro_kernel_items_total", labels).value
                == data.size
            )

    def test_span_per_dispatch(self):
        tracer = Tracer()
        with use_tracer(tracer):
            kernels.negabinary_encode(np.arange(-4, 4))
        (span,) = tracer.spans
        assert span.name == "kernel.negabinary_encode"
        assert span.attrs["backend"] == kernels.active_backend()
        assert span.attrs["items"] == 8


# ----------------------------------------------------------------------
# Per-kernel differential properties
# ----------------------------------------------------------------------

# Codebook serialization zigzags symbols, which needs |s| < 2^62; SZ
# residuals are bounded far below that (escape symbol is 2^52).
int64_st = st.integers(min_value=-(2**61), max_value=2**61)
full_int64_st = st.integers(min_value=-(2**63), max_value=2**63 - 1)


class TestHuffmanKernels:
    @given(st.lists(int64_st, min_size=1, max_size=300), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_codec_bytes_identical_and_cross_decode(self, pool, seed):
        rng = np.random.default_rng(seed)
        sym = rng.choice(np.array(pool, dtype=np.int64), size=max(1, len(pool)))

        def encode():
            codec = HuffmanCodec.from_data(sym)
            writer = BitWriter()
            codec.serialize_to(writer)
            nbits = codec.encode_to(writer, sym)
            return codec, writer.getvalue(), nbits

        results = both_backends(encode)
        payloads = {b: r[1] for b, r in results.items()}
        assert payloads["scalar"] == payloads["vector"]

        # Cross-decode: scalar decodes the vector-encoded stream.
        codec, payload, nbits = results["vector"]
        reader = BitReader(payload)
        decoded_codec = HuffmanCodec.deserialize_from(reader)
        with kernels.use_backend("scalar"):
            out = decoded_codec.decode_from(reader, nbits, sym.size)
        np.testing.assert_array_equal(out, sym)

    @given(st.lists(st.integers(1, 12), min_size=1, max_size=64))
    @settings(max_examples=60, deadline=None)
    def test_canonical_codes(self, lengths):
        lens = np.sort(np.array(lengths, dtype=np.int64))
        assert_identical(both_backends(kernels.canonical_codes, lens))

    @given(
        st.one_of(
            st.lists(int64_st, min_size=0, max_size=400),
            st.lists(st.integers(-60, 60), min_size=0, max_size=400),
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_histogram(self, values):
        # The second strategy spans fewer integers than it has symbols,
        # which the vector backend counts without sorting.
        arr = np.array(values, dtype=np.int64)
        results = both_backends(kernels.huffman_histogram, arr)
        for key in (0, 1, 2):
            np.testing.assert_array_equal(
                results["scalar"][key], results["vector"][key]
            )
        distinct, counts, inverse = results["vector"]
        np.testing.assert_array_equal(distinct[inverse], arr)
        assert counts.sum() == arr.size

    @given(
        st.lists(
            st.integers(1, 32).flatmap(
                lambda n: st.tuples(st.integers(0, 2**n - 1), st.just(n))
            ),
            max_size=300,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_encode_bits_packed_identical(self, pairs):
        check_packed(pairs)

    @pytest.mark.parametrize("length", [1, 32])
    def test_encode_bits_uniform_lengths(self, length):
        codes = np.random.default_rng(length).integers(0, 2**length, size=1_000)
        check_packed([(c, length) for c in codes.tolist()])

    @pytest.mark.parametrize("length", [2, 17, 32])
    def test_encode_bits_straddle_every_word_offset(self, length):
        # A run of 1-bit codes puts the long code at each offset of the
        # first word; every offset past 64 - length straddles.
        for offset in range(64):
            check_packed([(1, 1)] * offset + [(2**length - 2, length), (5, 3)])

    def test_encode_bits_empty(self):
        assert check_packed([]).dtype == np.uint8

    def test_lookup_raises_same_keyerror(self):
        alphabet = np.array([1, 5, 9], dtype=np.int64)
        for backend in BACKENDS:
            with kernels.use_backend(backend):
                with pytest.raises(KeyError, match="symbol 7 is not in"):
                    kernels.huffman_lookup_indices(
                        np.array([1, 7], dtype=np.int64), alphabet
                    )


class TestBitPackingKernels:
    @given(st.lists(st.integers(0, 1), min_size=0, max_size=500))
    @settings(max_examples=60, deadline=None)
    def test_pack_identical_and_roundtrip(self, bits):
        arr = np.array(bits, dtype=np.uint8)
        packed = both_backends(kernels.pack_bits, arr)
        assert_identical(packed)
        unpacked = both_backends(kernels.unpack_bits, packed["vector"])
        assert_identical(unpacked)
        # Unpack inverts pack up to the byte-boundary zero padding.
        np.testing.assert_array_equal(unpacked["scalar"][: arr.size], arr)
        assert not unpacked["scalar"][arr.size :].any()

    @given(st.binary(min_size=0, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_writer_reader_agree_across_backends(self, raw):
        def roundtrip():
            writer = BitWriter()
            writer.write_bits_array(
                np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
            )
            payload = writer.getvalue()
            reader = BitReader(payload)
            return payload, bytes(np.packbits(reader.read_bits_array(len(reader))))

        results = both_backends(roundtrip)
        assert results["scalar"] == results["vector"]
        payload, back = results["scalar"]
        assert payload == raw
        assert back == raw


class TestZFPKernels:
    @given(st.lists(full_int64_st, min_size=1, max_size=200), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_negabinary_identical_and_inverse(self, values, seed):
        signed = np.array(values, dtype=np.int64)
        encoded = both_backends(kernels.negabinary_encode, signed)
        assert_identical(encoded)
        decoded = both_backends(kernels.negabinary_decode, encoded["vector"])
        assert_identical(decoded)
        np.testing.assert_array_equal(decoded["vector"], signed)

    @given(
        st.integers(1, 12),  # blocks
        st.integers(1, 16),  # block size
        st.integers(1, 8),   # planes
        st.integers(0, 2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_plane_group_identical_both_directions(
        self, nblocks, block_size, nplanes, seed
    ):
        rng = np.random.default_rng(seed)
        top = nplanes + 2
        rows = rng.integers(0, 1 << top, size=(nblocks, block_size)).astype(
            np.uint64
        )
        planes = np.arange(top, top - nplanes, -1, dtype=np.int64)
        encoded = both_backends(kernels.zfp_encode_plane_group, rows, planes)
        assert_identical(encoded)
        nchunks = nblocks * planes.size
        decoded = both_backends(
            kernels.zfp_decode_plane_group, encoded["vector"], nchunks, block_size
        )
        for key in (0, 1):
            np.testing.assert_array_equal(
                decoded["scalar"][key], decoded["vector"][key]
            )

    @pytest.mark.parametrize("block_size", [1, 3, 4, 6, 16, 64])
    def test_plane_group_every_plane_identical(self, block_size):
        # All 64 planes, so every byte of the negabinary words is read,
        # at the 1-D/2-D/3-D block sizes and at odd ones.
        rng = np.random.default_rng(block_size)
        rows = rng.integers(0, 2**64, size=(9, block_size), dtype=np.uint64)
        rows[0] = 0
        rows[1] >>= np.uint64(40)
        planes = np.arange(63, -1, -1, dtype=np.int64)
        assert_identical(both_backends(kernels.zfp_encode_plane_group, rows, planes))

    @pytest.mark.parametrize("nblocks,nplanes", [(0, 3), (3, 0)])
    def test_empty_plane_group_identical(self, nblocks, nplanes):
        rows = np.ones((nblocks, 4), dtype=np.uint64)
        planes = np.arange(nplanes, dtype=np.int64)[::-1]
        encoded = both_backends(kernels.zfp_encode_plane_group, rows, planes)
        assert_identical(encoded)
        assert encoded["vector"].size == 0

    def test_zero_chunks_identical(self):
        for bits in (np.zeros(0, dtype=np.uint8), np.array([1, 0, 1], np.uint8)):
            got = {}
            for backend in BACKENDS:
                with kernels.use_backend(backend):
                    got[backend] = outcome(kernels.zfp_decode_plane_group, bits, 0, 4)
            assert got["scalar"] == got["vector"], bits.size

    def test_plane_group_corruption_raises_in_both(self):
        rows = np.array([[3, 0, 5, 1]], dtype=np.uint64)
        planes = np.array([2, 1, 0], dtype=np.int64)
        bits = kernels.zfp_encode_plane_group(rows, planes)
        for backend in BACKENDS:
            with kernels.use_backend(backend):
                with pytest.raises(ValueError):
                    kernels.zfp_decode_plane_group(bits[:-2], planes.size, 4)
                with pytest.raises(ValueError):
                    kernels.zfp_decode_plane_group(
                        np.concatenate([bits, bits[:3]]), planes.size, 4
                    )


def check_packed(pairs):
    """Pack (code, length) pairs under both backends; both must equal
    the MSB-first bytes of the codes taken one bit at a time."""
    codes = np.array([c for c, _ in pairs], dtype=np.int64)
    lengths = np.array([n for _, n in pairs], dtype=np.int64)
    packed = both_backends(kernels.huffman_encode_bits, codes, lengths)
    assert_identical(packed)
    bits = [(c >> s) & 1 for c, n in pairs for s in range(n - 1, -1, -1)]
    np.testing.assert_array_equal(
        packed["vector"], np.packbits(np.array(bits, dtype=np.uint8))
    )
    return packed["vector"]


def outcome(fn, *args):
    """A call's result bytes, or the type and message of what it raised."""
    try:
        result = fn(*args)
    except Exception as exc:  # compared across backends, never swallowed
        return type(exc), str(exc)
    if isinstance(result, tuple):
        return tuple(np.asarray(r).tobytes() for r in result)
    return result.tobytes()


def walker_segments(nbits, count, max_jump):
    """Segments the vector backend's chain walk splits a stream into
    (``max(max_jump, 64 * nbits // count)`` bits each)."""
    return -(-nbits // max(max_jump, 64 * nbits // count))


def huffman_stream(codec, symbols):
    writer = BitWriter()
    nbits = codec.encode_to(writer, symbols)
    return BitReader(writer.getvalue()).read_bits_array(nbits)


class TestMultiSegmentDecode:
    """Decode streams long enough that the vector backend's chain walk
    splits them into many segments, including streams whose segment
    starts never fall on a code or chunk boundary."""

    def test_huffman_stream_identical_and_roundtrips(self):
        rng = np.random.default_rng(11)
        sym = rng.geometric(0.3, size=20_000) - rng.geometric(0.3, size=20_000)
        codec = HuffmanCodec.from_data(sym)
        bits = huffman_stream(codec, sym)
        assert walker_segments(bits.size, sym.size, codec.max_code_length) >= 100
        decoded = both_backends(codec.decode, bits, sym.size)
        assert_identical(decoded)
        np.testing.assert_array_equal(decoded["vector"], sym)

    def test_huffman_stream_that_never_resynchronises(self):
        # Codes 0, 10, 110, 111: after "0" only "111" follows, so a
        # segment start off the chain's residue mod 3 never lands on it.
        codec = HuffmanCodec([5, 6, 7, 8], [1, 2, 3, 3])
        sym = np.array([5] + [8] * 5_000, dtype=np.int64)
        bits = huffman_stream(codec, sym)
        assert bits[0] == 0 and bits[1:].all()
        assert walker_segments(bits.size, sym.size, 3) >= 8
        decoded = both_backends(codec.decode, bits, sym.size)
        assert_identical(decoded)
        np.testing.assert_array_equal(decoded["vector"], sym)

    @pytest.mark.parametrize("block_size", [4, 16, 64])
    def test_zfp_plane_group_that_never_resynchronises(self, block_size):
        # Block 0's top plane is empty; every other plane is all ones, so
        # one unflagged chunk is followed only by all-ones flagged chunks.
        top = 7
        rows = np.full((300, block_size), (1 << (top + 1)) - 1, dtype=np.uint64)
        rows[0] = (1 << top) - 1
        planes = np.arange(top, -1, -1, dtype=np.int64)
        bits = kernels.zfp_encode_plane_group(rows, planes)
        assert bits[0] == 0 and bits[1:].all()
        nchunks = rows.shape[0] * planes.size
        assert walker_segments(bits.size, nchunks, 1 + block_size) >= 8
        decoded = both_backends(
            kernels.zfp_decode_plane_group, bits, nchunks, block_size
        )
        for key in (0, 1):
            np.testing.assert_array_equal(
                decoded["scalar"][key], decoded["vector"][key]
            )
        got = decoded["vector"][0].reshape(rows.shape[0], planes.size, block_size)
        expected = (rows[:, None, :] >> planes.astype(np.uint64)[None, :, None]) & 1
        np.testing.assert_array_equal(got, expected)

    def test_zfp_random_plane_group_identical(self):
        rng = np.random.default_rng(5)
        values = rng.integers(0, 1 << 10, size=(2_000, 16))
        rows = (values >> rng.integers(0, 10, size=(2_000, 1))).astype(np.uint64)
        planes = np.arange(9, -1, -1, dtype=np.int64)
        bits = kernels.zfp_encode_plane_group(rows, planes)
        nchunks = rows.shape[0] * planes.size
        assert walker_segments(bits.size, nchunks, 17) >= 100
        decoded = both_backends(kernels.zfp_decode_plane_group, bits, nchunks, 16)
        for key in (0, 1):
            np.testing.assert_array_equal(
                decoded["scalar"][key], decoded["vector"][key]
            )

    def test_truncated_huffman_stream_fails_identically(self):
        rng = np.random.default_rng(3)
        sym = rng.choice(5, p=[0.5, 0.2, 0.15, 0.1, 0.05], size=520)
        codec = HuffmanCodec.from_data(sym)
        bits = huffman_stream(codec, sym)
        assert 900 <= bits.size <= 1_100
        assert walker_segments(bits.size, sym.size, codec.max_code_length) >= 4
        for cut in range(bits.size + 1):
            got = {}
            for backend in BACKENDS:
                with kernels.use_backend(backend):
                    got[backend] = outcome(codec.decode, bits[:cut], sym.size)
            assert got["scalar"] == got["vector"], cut
        # The last cut is the whole stream.
        assert got["vector"] == sym.astype(np.int64).tobytes()

    def test_truncated_zfp_plane_group_fails_identically(self):
        rng = np.random.default_rng(4)
        values = rng.integers(0, 1 << 6, size=(46, 4))
        rows = (values >> rng.integers(0, 6, size=(46, 1))).astype(np.uint64)
        planes = np.arange(7, -1, -1, dtype=np.int64)
        bits = kernels.zfp_encode_plane_group(rows, planes)
        nchunks = rows.shape[0] * planes.size
        assert 900 <= bits.size <= 1_100
        assert walker_segments(bits.size, nchunks, 5) >= 4
        for cut in range(bits.size + 1):
            got = {}
            for backend in BACKENDS:
                with kernels.use_backend(backend):
                    got[backend] = outcome(
                        kernels.zfp_decode_plane_group, bits[:cut], nchunks, 4
                    )
            assert got["scalar"] == got["vector"], cut
            if cut < bits.size:
                assert isinstance(got["vector"][0], type), cut


class TestSZKernels:
    # The quantization plan (GridQuantizer.plan) guarantees indices stay
    # far below int64 before these kernels run; mirror that domain here
    # (|x - origin| / width < 2^42 with these bounds).
    @given(
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=300,
        ),
        st.floats(-1e6, 1e6, allow_nan=False),
        st.floats(1e-6, 1e3, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_quantize_reconstruct_bitwise_identical(self, values, origin, width):
        data = np.array(values, dtype=np.float64)
        indices = both_backends(kernels.sz_quantize, data, origin, width)
        assert_identical(indices)
        recon = both_backends(kernels.sz_reconstruct, indices["vector"], origin, width)
        assert_identical(recon)


# ----------------------------------------------------------------------
# Whole-container byte identity
# ----------------------------------------------------------------------


class TestContainerByteIdentity:
    dtypes = (np.float32, np.float64)
    shapes = ((64,), (17, 23), (8, 9, 10))
    bounds = (1e-2, 1e-4)

    @pytest.mark.parametrize("name", ("sz", "zfp"))
    def test_backends_emit_identical_containers(self, name):
        comp = get_compressor(name)
        rng = np.random.default_rng(7)
        for dtype in self.dtypes:
            for shape in self.shapes:
                for eb in self.bounds:
                    field = np.cumsum(
                        rng.normal(size=shape), axis=-1
                    ).astype(dtype)
                    payloads = both_backends(comp.compress, field, eb)
                    assert payloads["scalar"] == payloads["vector"], (
                        name, dtype, shape, eb,
                    )
                    # Cross-backend decode of the shared payload.
                    decoded = both_backends(comp.decompress, payloads["vector"])
                    assert_identical(decoded)
                    assert np.all(
                        np.abs(
                            decoded["vector"].astype(np.float64)
                            - field.astype(np.float64)
                        )
                        <= eb * 1.0000001
                    )
