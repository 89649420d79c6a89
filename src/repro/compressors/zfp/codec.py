"""The ZFP compressor: blocks + transform + truncated bit planes.

Stream layout (bit-packed payload):

======  ==============================================================
field   contents
======  ==============================================================
mode    2 bits: 0 = raw fallback, 2 = block-transform coded
e[]     per-block exponents, biased uint16 (mode 2)
groups  plane groups from :func:`repro.compressors.zfp.embedded`
======  ==============================================================

Fixed-accuracy tolerance handling: each block keeps bit planes down to

    p_b = floor(log2(tol)) + q - e_b - 2 - 2*d

(planes below p_b are dropped). Truncation error per coefficient is
< 2**p_b; the inverse transform amplifies it by < 4**d; in real units
that lands at tol/4, leaving the rest of the budget for fixed-point
rounding and the lifting's one-ulp slop — so max |x - x'| <= tol, which
the property-test suite checks exhaustively.
"""

from __future__ import annotations

import math
import zlib
from typing import Tuple

import numpy as np

from repro.compressors.base import Compressor, CorruptStreamError, register_compressor
from repro.compressors.zfp import fixedpoint as fp
from repro.observability import get_tracer
from repro.compressors.zfp.blocks import BlockGrid, partition, unpartition
from repro.compressors.zfp.embedded import (
    decode_planes,
    encode_planes,
    int_to_negabinary,
    negabinary_to_int,
)
from repro.compressors.zfp.transform import (
    forward_transform,
    inverse_transform,
    sequency_order,
)
from repro.utils.bitio import BitReader, BitWriter

__all__ = ["ZFPCompressor"]

_MODE_RAW = 0
_MODE_BLOCK = 2
_MODE_UNIFORM_PLANES = 3  # fixed-precision / fixed-rate coding
_EXP_BIAS = 1 << 14
_ZLIB_LEVEL = 1


def _tolerance_log2(tolerance: float) -> int:
    """``floor(log2(tolerance))`` computed deterministically via frexp."""
    mant, exp = math.frexp(tolerance)  # tolerance = mant * 2**exp, mant in [0.5, 1)
    return exp - 1


@register_compressor
class ZFPCompressor(Compressor):
    """ZFP-style fixed-accuracy compressor (see module docs)."""

    name = "zfp"

    def __init__(self, zlib_level: int = _ZLIB_LEVEL):
        if not 0 <= zlib_level <= 9:
            raise ValueError(f"zlib_level must be in [0, 9], got {zlib_level}")
        self.zlib_level = int(zlib_level)

    # ------------------------------------------------------------------
    # Plane budget shared by encoder and decoder
    # ------------------------------------------------------------------

    @staticmethod
    def _kept_planes(
        exponents: np.ndarray, tolerance: float, precision: int, ndim: int
    ) -> Tuple[np.ndarray, int]:
        """Per-block kept plane count and the top plane index.

        Deterministic integer arithmetic on both sides of the stream.
        """
        top_plane = precision + ndim + 1  # growth < 2**(ndim+1), +negabinary bit
        tl = _tolerance_log2(tolerance)
        # Cut plane: bits with weight below 2**p_b are dropped.
        p = tl + precision - exponents - 2 - 2 * ndim
        kept = np.clip(top_plane + 1 - p, 0, top_plane + 1).astype(np.int64)
        kept[exponents == fp.ZERO_EXPONENT] = 0
        return kept, top_plane

    def _fallback_needed(self, data: np.ndarray, tolerance: float) -> bool:
        """True when the tolerance sits below the fixed-point error floor."""
        maxabs = float(np.max(np.abs(data)))
        if maxabs == 0.0:
            return False
        q = fp.precision_for(data.dtype)
        _, e_max = math.frexp(maxabs)
        return _tolerance_log2(tolerance) < e_max - q + 8

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------

    def _encode(self, data: np.ndarray, error_bound: float) -> bytes:
        writer = BitWriter()
        if self._fallback_needed(data, error_bound):
            writer.write_uint(_MODE_RAW, 2)
            writer.write_packed(np.ascontiguousarray(data).tobytes())
        else:
            self._encode_blocks(writer, data, error_bound)
        packed = writer.getvalue()
        header = len(writer).to_bytes(8, "little")
        with get_tracer().span("zfp.lossless", bytes_in=len(packed) + 8) as sp:
            out = zlib.compress(header + packed, self.zlib_level)
            sp.set(bytes_out=len(out))
        return out

    def _encode_blocks(
        self, writer: BitWriter, data: np.ndarray, tolerance: float
    ) -> None:
        writer.write_uint(_MODE_BLOCK, 2)
        precision = fp.precision_for(data.dtype)
        tracer = get_tracer()
        with tracer.span("zfp.transform", bytes_in=data.nbytes) as sp:
            blocks, grid = partition(np.asarray(data, dtype=np.float64))
            exponents = fp.block_exponents(blocks)

            fixed = fp.to_fixed_point(blocks, exponents, precision)
            coeffs = forward_transform(fixed, grid.ndim)
            order = sequency_order(grid.ndim)
            nb = int_to_negabinary(coeffs[:, order])
            sp.set(blocks=int(grid.nblocks))

        with tracer.span("zfp.planes", blocks=int(grid.nblocks)):
            kept, top_plane = self._kept_planes(
                exponents, tolerance, precision, grid.ndim
            )
            biased = (exponents - fp.ZERO_EXPONENT).astype(np.uint64)
            if np.any(biased >= (1 << 16)):
                raise ValueError("block exponent out of the 16-bit storage range")
            writer.write_uint_array(biased, 16)
            encode_planes(writer, nb, kept, top_plane)

    # ------------------------------------------------------------------
    # Fixed-precision / fixed-rate modes (real ZFP's other two modes)
    # ------------------------------------------------------------------

    def compress_fixed_precision(self, data, planes: int):
        """Keep exactly *planes* bit planes per block (ZFP fixed-precision).

        No absolute error guarantee — quality scales with the per-block
        exponent; the returned buffer records ``error_bound = inf``.
        """
        from repro.compressors.base import CompressedBuffer
        from repro.utils.validation import as_float_array

        arr = as_float_array(data, "data")
        if arr.ndim > 4:
            raise ValueError(f"arrays above 4-D are unsupported, got {arr.ndim}-D")
        if not np.all(np.isfinite(arr)):
            raise ValueError("data must be finite (no NaN/inf)")
        precision = fp.precision_for(arr.dtype)
        top_plane = precision + arr.ndim + 1
        if not 1 <= planes <= top_plane + 1:
            raise ValueError(f"planes must lie in [1, {top_plane + 1}], got {planes}")

        writer = BitWriter()
        writer.write_uint(_MODE_UNIFORM_PLANES, 2)
        writer.write_uint(planes, 8)
        blocks, grid = partition(np.asarray(arr, dtype=np.float64))
        exponents = fp.block_exponents(blocks)
        fixed = fp.to_fixed_point(blocks, exponents, precision)
        coeffs = forward_transform(fixed, grid.ndim)
        order = sequency_order(grid.ndim)
        nb = int_to_negabinary(coeffs[:, order])
        kept = np.full(grid.nblocks, planes, dtype=np.int64)
        kept[exponents == fp.ZERO_EXPONENT] = 0
        biased = (exponents - fp.ZERO_EXPONENT).astype(np.uint64)
        writer.write_uint_array(biased, 16)
        encode_planes(writer, nb, kept, top_plane)

        packed = writer.getvalue()
        header = len(writer).to_bytes(8, "little")
        payload = zlib.compress(header + packed, self.zlib_level)
        return CompressedBuffer(
            codec=self.name, payload=payload, shape=arr.shape,
            dtype=arr.dtype, error_bound=float("inf"),
        )

    def compress_fixed_rate(self, data, bits_per_value: float):
        """Budget ~*bits_per_value* coded bits per element (ZFP fixed rate).

        The uniform plane count is derived from the budget: each kept
        plane of a 4^d block costs at most ``1 + 4^d`` bits plus the
        16-bit exponent header.
        """
        from repro.utils.validation import as_float_array

        arr = as_float_array(data, "data")
        if bits_per_value <= 0:
            raise ValueError(f"bits_per_value must be positive, got {bits_per_value}")
        block_size = 4**arr.ndim
        budget = bits_per_value * block_size - 16  # per-block bits after header
        planes = int(budget // (1 + block_size))
        precision = fp.precision_for(arr.dtype)
        top_plane = precision + arr.ndim + 1
        planes = int(np.clip(planes, 1, top_plane + 1))
        return self.compress_fixed_precision(arr, planes)

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------

    def _decode(
        self, payload: bytes, shape: Tuple[int, ...], dtype: np.dtype, error_bound: float
    ) -> np.ndarray:
        try:
            raw = zlib.decompress(payload)
        except zlib.error as exc:
            raise CorruptStreamError(f"zlib stage failed: {exc}") from exc
        if len(raw) < 8:
            raise CorruptStreamError("payload shorter than bit-count header")
        nbits = int.from_bytes(raw[:8], "little")
        reader = BitReader(raw[8:], nbits=nbits)
        count = int(np.prod(shape, dtype=np.int64))

        mode = reader.read_uint(2)
        if mode == _MODE_RAW:
            bits = reader.read_bits_array(count * dtype.itemsize * 8)
            return np.frombuffer(np.packbits(bits).tobytes(), dtype=dtype).copy()
        if mode not in (_MODE_BLOCK, _MODE_UNIFORM_PLANES):
            raise CorruptStreamError(f"unknown ZFP mode {mode}")

        precision = fp.precision_for(dtype)
        grid = BlockGrid(
            original_shape=shape,
            padded_shape=tuple(s + (-s) % 4 for s in shape),
        )
        uniform_planes = reader.read_uint(8) if mode == _MODE_UNIFORM_PLANES else None
        exponents = (
            reader.read_uint_array(grid.nblocks, 16).astype(np.int64) + fp.ZERO_EXPONENT
        )
        if uniform_planes is not None:
            top_plane = precision + grid.ndim + 1
            kept = np.full(grid.nblocks, uniform_planes, dtype=np.int64)
            kept[exponents == fp.ZERO_EXPONENT] = 0
        else:
            kept, top_plane = self._kept_planes(
                exponents, error_bound, precision, grid.ndim
            )
        nb = decode_planes(reader, kept, top_plane, grid.block_size)

        order = sequency_order(grid.ndim)
        coeffs = np.empty_like(nb, dtype=np.int64)
        coeffs[:, order] = negabinary_to_int(nb)
        fixed = inverse_transform(coeffs, grid.ndim)
        blocks = fp.from_fixed_point(fixed, exponents, precision)
        return unpartition(blocks, grid).astype(dtype, copy=False)
