"""Unit + property tests for the SZ codec end to end."""

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compressors import SZCompressor, kernels
from repro.compressors.base import CorruptStreamError
from repro.data import load_field
from repro.observability import Tracer, get_registry, use_tracer
from repro.utils.bitio import BitReader, BitWriter


@pytest.fixture(scope="module")
def sz():
    return SZCompressor()


class TestModes:
    def test_constant_array(self, sz):
        arr = np.full((16, 16), 3.25, dtype=np.float32)
        buf, rec = sz.roundtrip(arr, 1e-3)
        assert np.max(np.abs(rec - arr)) <= 1e-3
        assert buf.nbytes < 200  # constant mode is tiny

    def test_near_constant_array(self, sz):
        arr = np.full(100, 1.0, dtype=np.float64)
        arr[50] = 1.0 + 4e-4
        buf, rec = sz.roundtrip(arr, 1e-3)
        assert np.max(np.abs(rec - arr)) <= 1e-3

    def test_raw_fallback_on_extreme_range(self, sz):
        # Range/eb overflows the grid: must fall back losslessly.
        arr = np.array([0.0, 1e300], dtype=np.float64)
        buf, rec = sz.roundtrip(arr, 1e-10)
        assert np.array_equal(rec, arr)

    def test_raw_fallback_on_sub_ulp_bound(self, sz):
        arr = np.array([1e6, 1e6 + 1, 1e6 + 2], dtype=np.float32)
        buf, rec = sz.roundtrip(arr, 1e-5)
        assert np.array_equal(rec, arr)

    def test_grid_mode_used_for_normal_data(self, sz):
        arr = np.random.default_rng(0).normal(size=2048).astype(np.float32)
        buf = sz.compress(arr, 1e-2)
        assert buf.ratio > 2.0  # actually compressed, not raw


class TestErrorBounds:
    @pytest.mark.parametrize("eb", [1e-1, 1e-2, 1e-3, 1e-4])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_paper_bounds(self, sz, eb, dtype):
        arr = load_field("nyx", "velocity_x", scale=32).astype(dtype)
        buf, rec = sz.roundtrip(arr, eb)
        err = np.max(np.abs(arr.astype(np.float64) - rec.astype(np.float64)))
        assert err <= eb * (1 + 1e-9)

    def test_finer_bound_lower_ratio(self, sz):
        arr = load_field("cesm-atm", "T", scale=24)
        ratios = [sz.compress(arr, eb).ratio for eb in (1e-1, 1e-2, 1e-3, 1e-4)]
        assert ratios == sorted(ratios, reverse=True)

    def test_smooth_data_compresses_better(self, sz):
        smooth = load_field("cesm-atm", "T", scale=24)
        rough = np.random.default_rng(0).normal(size=smooth.shape).astype(np.float32)
        eb = 1e-3
        assert sz.compress(smooth, eb).ratio > sz.compress(rough, eb).ratio


class TestShapes:
    @pytest.mark.parametrize("shape", [(1,), (7,), (1000,), (3, 5), (16, 16),
                                       (4, 5, 6), (3, 4, 5, 6)])
    def test_arbitrary_shapes(self, sz, shape):
        rng = np.random.default_rng(1)
        arr = rng.normal(size=shape).astype(np.float32)
        buf, rec = sz.roundtrip(arr, 1e-2)
        assert rec.shape == shape
        assert np.max(np.abs(arr - rec)) <= 1e-2

    def test_single_element(self, sz):
        arr = np.array([[3.7]], dtype=np.float64)
        _, rec = sz.roundtrip(arr, 1e-3)
        assert abs(rec[0, 0] - 3.7) <= 1e-3


class TestSerialization:
    def test_buffer_bytes_roundtrip(self, sz):
        from repro.compressors.base import CompressedBuffer

        arr = np.random.default_rng(2).normal(size=(32, 32)).astype(np.float32)
        buf = sz.compress(arr, 1e-2)
        restored = CompressedBuffer.from_bytes(buf.to_bytes())
        rec = sz.decompress(restored)
        assert np.max(np.abs(arr - rec)) <= 1e-2

    def test_corrupt_payload_detected(self, sz):
        arr = np.random.default_rng(3).normal(size=256).astype(np.float32)
        buf = sz.compress(arr, 1e-2)
        bad = buf.__class__(
            codec=buf.codec,
            payload=b"\x00" + buf.payload[1:],
            shape=buf.shape,
            dtype=buf.dtype,
            error_bound=buf.error_bound,
        )
        with pytest.raises((CorruptStreamError, ValueError, EOFError)):
            sz.decompress(bad)

    def test_shape_mismatch_detected(self, sz):
        arr = np.random.default_rng(4).normal(size=256).astype(np.float32)
        buf = sz.compress(arr, 1e-2)
        bad = buf.__class__(
            codec=buf.codec,
            payload=buf.payload,
            shape=(128,),
            dtype=buf.dtype,
            error_bound=buf.error_bound,
        )
        with pytest.raises(CorruptStreamError, match="symbols"):
            sz.decompress(bad)


class TestConfiguration:
    def test_invalid_alphabet(self):
        with pytest.raises(ValueError):
            SZCompressor(max_alphabet=1)

    def test_invalid_zlib_level(self):
        with pytest.raises(ValueError):
            SZCompressor(zlib_level=10)

    def test_small_alphabet_forces_escapes(self):
        # With a tiny literal table most residuals escape — the codec
        # must still honour the bound.
        codec = SZCompressor(max_alphabet=4)
        arr = np.random.default_rng(5).normal(size=4096).astype(np.float32)
        buf, rec = codec.roundtrip(arr, 1e-3)
        assert np.max(np.abs(arr - rec)) <= 1e-3


def kernel_calls(name: str) -> float:
    labels = {"kernel": name, "backend": kernels.active_backend()}
    return get_registry().counter("repro_kernel_calls_total", labels).value


class TestIntStreamGuards:
    """Structure of the Huffman stage, pinned by counts and bytes."""

    def test_one_histogram_and_no_lookup_per_stream(self, monkeypatch):
        # 64^3 at 1e-4 has far more distinct residuals than the literal
        # alphabet holds, so the escape channel is in use.
        field = load_field("nyx", "velocity_x", scale=8)
        assert field.shape == (64, 64, 64)
        histogram = kernels.huffman_histogram
        distinct_sizes = []

        def recording_histogram(values):
            out = histogram(values)
            distinct_sizes.append(out[0].size)
            return out

        monkeypatch.setattr(kernels, "huffman_histogram", recording_histogram)
        get_registry().reset()
        tracer = Tracer()
        with use_tracer(tracer):
            SZCompressor().compress(field, 1e-4)
        streams = sum(
            1
            for root in tracer.spans
            for span, _ in root.walk()
            if span.name == "sz.huffman"
        )
        # Lorenzo residuals, then regression coefficients and residuals.
        assert streams == 3
        assert max(distinct_sizes) > 4095
        assert kernel_calls("huffman_lookup_indices") == 0
        assert kernel_calls("huffman_histogram") == streams

    def test_escape_boundary_tie_is_pinned(self, sz):
        # Lorenzo residuals of this 1-D field: 0 once, 1..4094 three
        # times each, 4095..5000 twice each. The 4095th and 4096th most
        # frequent residuals tie at two, so the argsort tie-break over
        # the counts decides which one keeps a literal code.
        rng = np.random.default_rng(2024)
        steps = np.concatenate(
            [np.repeat(np.arange(1, 4095), 3), np.repeat(np.arange(4095, 5001), 2)]
        )
        field = np.concatenate([[0.0], np.cumsum(rng.permutation(steps), dtype=float)])
        counts = np.sort(np.unique(np.diff(field), return_counts=True)[1])[::-1]
        assert counts[4094] == counts[4095] == 2
        eb = 1 / 1.7  # a grid step of 1.0: residuals are the steps
        buf = sz.compress(field, eb)
        assert hashlib.sha256(buf.to_bytes()).hexdigest() == (
            "6301825fa9b6d2a1e05637afb44e35e57cc88e657f2c54a88b3f8ab5585c0263"
        )
        assert np.max(np.abs(sz.decompress(buf) - field)) <= eb

    @pytest.mark.parametrize(
        "values",
        [
            # 2^53 keeps a literal code although it sorts after _ESCAPE.
            [0, 0, 0, 1, 1, 2, 3, 2**53, 2**53, 2**53],
            # A value equal to _ESCAPE travels in the escape channel.
            [0, 0, 0, 1, 1, 2, 3, 2**52, 2**52, -5],
        ],
    )
    @pytest.mark.parametrize("max_alphabet", [4, 4096])
    def test_literals_on_both_sides_of_escape(self, values, max_alphabet):
        values = np.array(values, dtype=np.int64)
        writer = BitWriter()
        SZCompressor(max_alphabet=max_alphabet)._encode_int_stream_inner(writer, values)
        reader = BitReader(writer.getvalue(), nbits=len(writer))
        decoded = SZCompressor._decode_int_stream(reader, values.size)
        np.testing.assert_array_equal(decoded, values)
        assert reader.remaining == 0

    def test_regression_coefficients_near_bin_limit(self):
        # eb = 1e-14 over [0, 1] spans ~2^45.7 bins, so fixed-point
        # plane constants reach ~2^55; 1600 blocks give more distinct
        # coefficients than the literal alphabet holds, and the largest
        # ones win the count-1 tie-break and keep literal codes above
        # _ESCAPE. SHA-256 taken on the parent commit.
        field = np.random.default_rng(7).random((240, 240))
        sz = SZCompressor(predictor="regression")
        buf = sz.compress(field, 1e-14)
        assert hashlib.sha256(buf.to_bytes()).hexdigest() == (
            "236a1ed28a2413aa29d8102d870ab3a5d0ea06c1d75ceb984e514a9e584ad541"
        )
        assert np.max(np.abs(sz.decompress(buf) - field)) <= 1e-14


class TestPropertyRoundTrip:
    @given(st.data())
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_bound_always_respected(self, data):
        ndim = data.draw(st.integers(1, 3))
        shape = tuple(data.draw(st.integers(1, 12)) for _ in range(ndim))
        n = int(np.prod(shape))
        values = data.draw(
            st.lists(st.floats(-1e4, 1e4, width=32), min_size=n, max_size=n)
        )
        eb = data.draw(st.sampled_from([1e-1, 1e-2, 1e-3]))
        arr = np.array(values, dtype=np.float32).reshape(shape)
        sz = SZCompressor()
        _, rec = sz.roundtrip(arr, eb)
        err = np.max(np.abs(arr.astype(np.float64) - rec.astype(np.float64)))
        assert err <= eb * (1 + 1e-9)
