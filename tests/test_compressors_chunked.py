"""Unit + property tests for chunked compression."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressors import ChunkedBuffer, ChunkedCompressor, SZCompressor
from repro.compressors.base import CorruptStreamError
from repro.data import load_field


@pytest.fixture(scope="module")
def field():
    return load_field("nyx", "velocity_x", scale=24)


class TestRoundTrip:
    def test_basic(self, field):
        cc = ChunkedCompressor("sz", max_chunk_bytes=1 << 14)
        container = cc.compress(field, 1e-2)
        rec = cc.decompress(container)
        assert rec.shape == field.shape
        assert np.max(np.abs(field - rec)) <= 1e-2
        assert len(container.chunks) > 1  # actually chunked

    def test_single_chunk_when_budget_large(self, field):
        cc = ChunkedCompressor("sz", max_chunk_bytes=1 << 30)
        container = cc.compress(field, 1e-2)
        assert len(container.chunks) == 1

    def test_bound_holds_per_chunk_and_globally(self, field):
        cc = ChunkedCompressor("zfp", max_chunk_bytes=1 << 13)
        container = cc.compress(field, 1e-3)
        rec = cc.decompress(container)
        assert np.max(np.abs(field.astype(float) - rec.astype(float))) <= 1e-3

    def test_1d_arrays(self):
        arr = np.random.default_rng(0).normal(size=10_000).astype(np.float32)
        cc = ChunkedCompressor("sz", max_chunk_bytes=4096)
        rec = cc.decompress(cc.compress(arr, 1e-2))
        assert np.max(np.abs(arr - rec)) <= 1e-2

    def test_ratio_close_to_monolithic(self, field):
        mono = SZCompressor().compress(field, 1e-2).ratio
        chunked = ChunkedCompressor("sz", max_chunk_bytes=1 << 16).compress(
            field, 1e-2
        ).ratio
        assert chunked > 0.6 * mono  # per-chunk headers cost a little

    @given(st.integers(1, 40), st.integers(1, 12), st.integers(1, 2048))
    @settings(max_examples=40, deadline=None)
    def test_slab_count_is_the_chunk_count(self, rows, cols, budget):
        arr = np.ones((rows, cols), dtype=np.float32)
        cc = ChunkedCompressor("sz", max_chunk_bytes=budget)
        assert cc.slab_count(arr) == len(cc.compress(arr, 1e-2).chunks)

    @given(st.integers(1, 40), st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_property(self, rows, seed):
        rng = np.random.default_rng(seed)
        arr = rng.normal(size=(rows, 12)).astype(np.float32)
        cc = ChunkedCompressor("sz", max_chunk_bytes=256)
        rec = cc.decompress(cc.compress(arr, 1e-2))
        assert rec.shape == arr.shape
        assert np.max(np.abs(arr - rec)) <= 1e-2


class TestRandomAccess:
    def test_decode_single_chunk(self, field):
        cc = ChunkedCompressor("sz", max_chunk_bytes=1 << 14)
        container = cc.compress(field, 1e-2)
        slab0 = cc.decompress_chunk(container, 0)
        assert slab0.shape[1:] == field.shape[1:]
        assert np.max(np.abs(field[: slab0.shape[0]] - slab0)) <= 1e-2

    def test_index_validation(self, field):
        cc = ChunkedCompressor("sz")
        container = cc.compress(field, 1e-2)
        with pytest.raises(IndexError):
            cc.decompress_chunk(container, 99)


class TestContainerSerialization:
    def test_bytes_roundtrip(self, field):
        cc = ChunkedCompressor("sz", max_chunk_bytes=1 << 14)
        container = cc.compress(field, 1e-2)
        restored = ChunkedBuffer.from_bytes(container.to_bytes())
        assert restored.shape == container.shape
        assert len(restored.chunks) == len(container.chunks)
        rec = cc.decompress(restored)
        assert np.max(np.abs(field - rec)) <= 1e-2

    def test_bad_magic(self):
        with pytest.raises(CorruptStreamError, match="magic"):
            ChunkedBuffer.from_bytes(b"XXXX" + b"\x00" * 20)

    def test_truncated_container(self, field):
        cc = ChunkedCompressor("sz", max_chunk_bytes=1 << 14)
        blob = cc.compress(field, 1e-2).to_bytes()
        with pytest.raises(CorruptStreamError, match="truncated"):
            ChunkedBuffer.from_bytes(blob[: len(blob) // 2])

    def test_empty_container_rejected_on_decode(self):
        cc = ChunkedCompressor("sz")
        empty = ChunkedBuffer(chunks=(), shape=(4, 4))
        with pytest.raises(CorruptStreamError, match="no chunks"):
            cc.decompress(empty)


class TestNbytesArithmetic:
    """nbytes is computed from header arithmetic, never by serializing;
    it must agree exactly with the serialized length."""

    def test_container_nbytes_matches_serialization(self, field):
        cc = ChunkedCompressor("sz", max_chunk_bytes=1 << 14)
        container = cc.compress(field, 1e-2)
        assert container.nbytes == len(container.to_bytes())

    def test_chunk_nbytes_matches_serialization(self, field):
        buf = SZCompressor().compress(field, 1e-2)
        assert buf.nbytes == len(buf.to_bytes())

    def test_single_chunk_container(self):
        arr = np.random.default_rng(3).normal(size=(4, 4)).astype(np.float64)
        container = ChunkedCompressor("zfp").compress(arr, 1e-3)
        assert container.nbytes == len(container.to_bytes())

    def test_repeated_polls_are_consistent(self, field):
        container = ChunkedCompressor("sz", max_chunk_bytes=1 << 14).compress(
            field, 1e-2
        )
        first = container.nbytes
        assert all(container.nbytes == first for _ in range(100))


class TestConfiguration:
    def test_codec_by_name_or_instance(self):
        assert ChunkedCompressor("zfp").codec.name == "zfp"
        assert ChunkedCompressor(SZCompressor()).codec.name == "sz"

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            ChunkedCompressor("sz", max_chunk_bytes=0)

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            ChunkedCompressor("sz", workers=0)
