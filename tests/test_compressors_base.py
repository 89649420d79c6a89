"""Unit tests for the compressor interface and buffer serialization."""

import numpy as np
import pytest

from repro.compressors.base import (
    CompressedBuffer,
    CompressionError,
    CorruptStreamError,
    available_compressors,
    get_compressor,
)


class TestRegistry:
    def test_both_codecs_registered(self):
        assert set(available_compressors()) >= {"sz", "zfp"}

    def test_get_compressor_case_insensitive(self):
        assert get_compressor("SZ").name == "sz"

    def test_unknown_codec(self):
        with pytest.raises(KeyError, match="unknown compressor"):
            get_compressor("lz4")


class TestCompressedBuffer:
    def _buf(self, **overrides):
        defaults = dict(
            codec="sz",
            payload=b"\x01\x02\x03",
            shape=(4, 5),
            dtype=np.dtype(np.float32),
            error_bound=1e-3,
        )
        defaults.update(overrides)
        return CompressedBuffer(**defaults)

    def test_serialization_roundtrip(self):
        buf = self._buf()
        parsed = CompressedBuffer.from_bytes(buf.to_bytes())
        assert parsed == buf

    def test_float64_roundtrip(self):
        buf = self._buf(dtype=np.dtype(np.float64), shape=(7,))
        parsed = CompressedBuffer.from_bytes(buf.to_bytes())
        assert parsed.dtype == np.float64
        assert parsed.shape == (7,)

    def test_original_nbytes(self):
        assert self._buf().original_nbytes == 4 * 5 * 4

    def test_ratio(self):
        buf = self._buf()
        assert buf.ratio == pytest.approx(buf.original_nbytes / buf.nbytes)

    def test_bad_magic_rejected(self):
        data = bytearray(self._buf().to_bytes())
        data[0] = 0
        with pytest.raises(CorruptStreamError, match="magic"):
            CompressedBuffer.from_bytes(bytes(data))

    def test_short_buffer_rejected(self):
        with pytest.raises(CorruptStreamError, match="shorter"):
            CompressedBuffer.from_bytes(b"RP")

    def test_truncated_shape_table(self):
        full = self._buf().to_bytes()
        with pytest.raises(CorruptStreamError, match="truncated"):
            CompressedBuffer.from_bytes(full[:24])


class TestCompressorValidation:
    @pytest.fixture(params=["sz", "zfp"])
    def codec(self, request):
        return get_compressor(request.param)

    def test_rejects_nan(self, codec):
        arr = np.ones((8, 8), dtype=np.float32)
        arr[3, 3] = np.nan
        with pytest.raises(CompressionError, match="finite"):
            codec.compress(arr, 1e-2)

    def test_rejects_inf(self, codec):
        arr = np.ones(16, dtype=np.float64)
        arr[0] = np.inf
        with pytest.raises(CompressionError):
            codec.compress(arr, 1e-2)

    def test_rejects_nonpositive_bound(self, codec):
        arr = np.ones(16, dtype=np.float32)
        for eb in (0.0, -1.0):
            with pytest.raises(ValueError):
                codec.compress(arr, eb)

    def test_rejects_empty(self, codec):
        with pytest.raises(ValueError):
            codec.compress(np.empty(0, dtype=np.float32), 1e-2)

    def test_rejects_5d(self, codec):
        with pytest.raises(CompressionError, match="4-D"):
            codec.compress(np.ones((2,) * 5, dtype=np.float32), 1e-2)

    def test_integer_input_promoted(self, codec):
        buf = codec.compress(np.arange(64).reshape(8, 8), 0.5)
        assert buf.dtype == np.float64

    def test_decompress_wrong_codec_rejected(self, codec):
        other = "zfp" if codec.name == "sz" else "sz"
        buf = get_compressor(other).compress(np.ones(16, dtype=np.float32) * 3, 1e-2)
        with pytest.raises(CorruptStreamError, match="produced by codec"):
            codec.decompress(buf)

    def test_roundtrip_returns_buffer_and_array(self, codec):
        arr = np.linspace(0, 1, 64, dtype=np.float32).reshape(8, 8)
        buf, rec = codec.roundtrip(arr, 1e-2)
        assert rec.shape == arr.shape
        assert rec.dtype == arr.dtype
        assert buf.codec == codec.name

    def test_buffer_metadata(self, codec):
        arr = np.linspace(-1, 1, 100, dtype=np.float64)
        buf = codec.compress(arr, 1e-3)
        assert buf.shape == (100,)
        assert buf.dtype == np.float64
        assert buf.error_bound == 1e-3
