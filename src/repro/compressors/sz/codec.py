"""The SZ compressor: prediction + quantization + Huffman + lossless.

Stream layout (inside the zlib-compressed payload, bit-packed):

======  =====================================================
field   contents
======  =====================================================
mode    2 bits: 0 = raw (lossless fallback), 1 = constant,
        2 = grid-quantized
...     mode-specific body (see ``_encode_*`` below)
======  =====================================================

Grid mode carries a predictor selector (SZ2's two predictors): Lorenzo
differencing, or the per-block regression hyperplanes of
:mod:`repro.compressors.sz.regression`. The encoder computes both
residual streams and keeps whichever has lower empirical entropy —
smooth fields favour regression, rough ones Lorenzo.

The raw fallback keeps the error-bound guarantee trivially true for
inputs where grid quantization would be numerically unsafe (see
:meth:`~repro.compressors.sz.quantizer.GridQuantizer.plan`).
"""

from __future__ import annotations

import zlib
from typing import Tuple

import numpy as np

from repro.compressors import kernels
from repro.compressors.base import Compressor, CorruptStreamError, register_compressor
from repro.compressors.huffman import HuffmanCodec
from repro.observability import get_tracer
from repro.compressors.sz import regression as _regression
from repro.compressors.sz.predictor import lorenzo_reconstruct, lorenzo_residual
from repro.compressors.sz.quantizer import GridQuantizer
from repro.utils.bitio import BitReader, BitWriter

__all__ = ["SZCompressor"]

_MODE_RAW = 0
_MODE_CONST = 1
_MODE_GRID = 2

_PREDICTOR_LORENZO = 0
_PREDICTOR_REGRESSION = 1

#: Escape symbol replacing residuals outside the Huffman alphabet.
#: Residual magnitudes are bounded by 2^ndim * 2^46 < 2^51 (quantization
#: plan + Lorenzo), and 2^52 still zigzag-encodes without int64 overflow.
_ESCAPE = np.int64(1) << 52

#: Largest literal alphabet before rare residuals are escaped. SZ2 uses
#: a configurable number of quantization intervals (default 65536); we
#: keep the table small enough for 16-bit-limited canonical codes.
_MAX_ALPHABET = 4096

_ZLIB_LEVEL = 1  # entropy coding already happened; zlib mops up structure


def _internal_bound(error_bound: float) -> float:
    """Grid bound with headroom for the final dtype cast.

    Grid reconstruction happens in float64; casting to the original
    dtype adds up to half an ulp. The quantization plan guarantees
    ``eb >= 4 ulp``, so shrinking the grid bound to ``0.85 * eb`` keeps
    the end-to-end error within eb: ``0.85·eb + eb/8 < eb``.
    """
    return 0.85 * error_bound


@register_compressor
class SZCompressor(Compressor):
    """SZ-style absolute-error-bounded compressor (see module docs)."""

    name = "sz"

    def __init__(
        self,
        max_alphabet: int = _MAX_ALPHABET,
        zlib_level: int = _ZLIB_LEVEL,
        predictor: str = "auto",
    ):
        """Create the codec.

        Parameters
        ----------
        max_alphabet:
            Literal Huffman symbols before rare residuals are escaped.
        zlib_level:
            Final lossless stage compression level.
        predictor:
            ``"auto"`` (entropy-based selection, default), ``"lorenzo"``
            or ``"regression"`` to force one predictor — used by the
            predictor ablation bench.
        """
        if max_alphabet < 2:
            raise ValueError(f"max_alphabet must be >= 2, got {max_alphabet}")
        if not 0 <= zlib_level <= 9:
            raise ValueError(f"zlib_level must be in [0, 9], got {zlib_level}")
        if predictor not in ("auto", "lorenzo", "regression"):
            raise ValueError(
                f"predictor must be 'auto', 'lorenzo' or 'regression', got {predictor!r}"
            )
        self.max_alphabet = int(max_alphabet)
        self.zlib_level = int(zlib_level)
        self.predictor = predictor

    # ------------------------------------------------------------------
    # Generic residual/int stream coding (Huffman + escape channel)
    # ------------------------------------------------------------------

    def _encode_int_stream(self, writer: BitWriter, values: np.ndarray) -> None:
        with get_tracer().span("sz.huffman", symbols=int(np.size(values))):
            self._encode_int_stream_inner(writer, values)

    def _encode_int_stream_inner(self, writer: BitWriter, values: np.ndarray) -> None:
        """One histogram yields the escape set, the codebook, the bit
        count and every symbol's codebook index.

        The codebook alphabet is the literal values plus ``_ESCAPE`` when
        some are escaped. Literals may sort on either side of
        ``_ESCAPE`` (regression coefficients reach past 2^52), so each
        distinct value's codebook index is looked up in the codec's own
        sorted alphabet.
        """
        values = np.asarray(values, dtype=np.int64).ravel()
        distinct, counts, inverse = kernels.huffman_histogram(values)
        literal = np.ones(distinct.size, dtype=bool)
        if distinct.size > self.max_alphabet - 1:
            literal[:] = False
            literal[np.argsort(counts)[::-1][: self.max_alphabet - 1]] = True
        # A literal equal to the escape symbol would read back as an
        # escape, so that value always travels in the escape channel.
        literal &= distinct != _ESCAPE

        frequencies = dict(zip(distinct[literal].tolist(), counts[literal].tolist()))
        if not literal.all():
            frequencies[int(_ESCAPE)] = int(counts[~literal].sum())
        codec = HuffmanCodec.from_frequencies(frequencies)
        slot = np.searchsorted(codec.alphabet, np.where(literal, distinct, _ESCAPE))
        codec.serialize_to(writer)
        writer.write_uint(values.size, 64)
        writer.write_uint(int(counts @ codec.code_lengths[slot]), 64)
        codec.encode_indices_to(writer, slot[inverse])

        escaped = values[~literal[inverse]]
        writer.write_uint(escaped.size, 64)
        if escaped.size:
            zz = (escaped << 1) ^ (escaped >> 63)
            writer.write_uint_array(zz.astype(np.uint64), 64)

    @staticmethod
    def _decode_int_stream(reader: BitReader, expected: int) -> np.ndarray:
        codec = HuffmanCodec.deserialize_from(reader)
        nsym = reader.read_uint(64)
        if nsym != expected:
            raise CorruptStreamError(
                f"stream encodes {nsym} symbols but context implies {expected}"
            )
        stream_bits = reader.read_uint(64)
        stream = codec.decode_from(reader, stream_bits, expected)

        n_escape = reader.read_uint(64)
        escape_mask = stream == _ESCAPE
        if int(escape_mask.sum()) != n_escape:
            raise CorruptStreamError(
                f"escape count mismatch: header says {n_escape}, "
                f"stream has {int(escape_mask.sum())}"
            )
        if n_escape:
            zz = reader.read_uint_array(n_escape, 64).astype(np.int64)
            stream[escape_mask] = (zz >> 1) ^ -(zz & 1)
        return stream

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------

    def _encode(self, data: np.ndarray, error_bound: float) -> bytes:
        quantizer = GridQuantizer(_internal_bound(error_bound))
        lo = float(data.min())
        hi = float(data.max())

        if hi - lo <= error_bound:
            # Near-constant array: its midpoint is within eb of every
            # value even after rounding to the output dtype (the rounded
            # midpoint stays inside [lo, hi]).
            writer = BitWriter()
            writer.write_uint(_MODE_CONST, 2)
            mid = np.float64((lo + hi) / 2.0)
            writer.write_uint(int(mid.view(np.uint64)), 64)
            return self._finish(writer)

        with get_tracer().span("sz.quantize", bytes_in=data.nbytes) as sp:
            plan = quantizer.plan(data)
            sp.set(feasible=plan.feasible)
            indices = quantizer.quantize(data, plan.origin) if plan.feasible else None
        if indices is None:
            writer = BitWriter()
            self._encode_raw(writer, data)
            return self._finish(writer)

        with get_tracer().span(
            "sz.predict", predictor=self.predictor, elements=int(indices.size)
        ):
            candidates = self._grid_candidates(indices)
        payloads = []
        for predictor_id, residuals, coeffs in candidates:
            writer = BitWriter()
            self._encode_grid(writer, plan.origin, predictor_id, residuals, coeffs)
            payloads.append(self._finish(writer))
        # Exact selection: keep the smaller finished payload (an entropy
        # proxy misranks the predictors when the final zlib stage finds
        # structure the zero-order estimate cannot see).
        return min(payloads, key=len)

    def _finish(self, writer: BitWriter) -> bytes:
        packed = writer.getvalue()
        header = len(writer).to_bytes(8, "little")
        with get_tracer().span("sz.lossless", bytes_in=len(packed) + 8) as sp:
            out = zlib.compress(header + packed, self.zlib_level)
            sp.set(bytes_out=len(out))
        return out

    def _encode_raw(self, writer: BitWriter, data: np.ndarray) -> None:
        writer.write_uint(_MODE_RAW, 2)
        writer.write_packed(np.ascontiguousarray(data).tobytes())

    def _grid_candidates(self, indices: np.ndarray):
        """Candidate (predictor id, residuals, coefficients) encodings."""
        regression_viable = (
            indices.ndim >= 2
            and indices.size >= _regression.BLOCK_EDGE**indices.ndim
            and self.predictor != "lorenzo"
        )
        candidates = []
        if self.predictor != "regression" or not regression_viable:
            candidates.append(
                (_PREDICTOR_LORENZO, lorenzo_residual(indices).ravel(), None)
            )
        if regression_viable:
            coeffs = _regression.fit_block_planes(indices)
            pred = _regression.predict_from_planes(coeffs, indices.shape)
            candidates.append(
                (_PREDICTOR_REGRESSION, (indices - pred).ravel(), coeffs)
            )
        if self.predictor == "lorenzo":
            candidates = candidates[:1]
        if self.predictor == "regression" and regression_viable:
            candidates = [c for c in candidates if c[0] == _PREDICTOR_REGRESSION]
        return candidates

    def _encode_grid(
        self,
        writer: BitWriter,
        origin: float,
        predictor_id: int,
        residuals: np.ndarray,
        coeffs,
    ) -> None:
        writer.write_uint(_MODE_GRID, 2)
        writer.write_uint(int(np.float64(origin).view(np.uint64)), 64)
        writer.write_uint(predictor_id, 1)
        if predictor_id == _PREDICTOR_REGRESSION:
            self._encode_int_stream(writer, _regression.pack_coefficients(coeffs))
        self._encode_int_stream(writer, residuals)

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
        if mode == _MODE_CONST:
            value = np.uint64(reader.read_uint(64)).view(np.float64)
            return np.full(count, value, dtype=dtype)
        if mode == _MODE_RAW:
            nbytes = count * dtype.itemsize
            bits = reader.read_bits_array(nbytes * 8)
            return np.frombuffer(np.packbits(bits).tobytes(), dtype=dtype).copy()
        if mode != _MODE_GRID:
            raise CorruptStreamError(f"unknown SZ mode {mode}")

        origin = float(np.uint64(reader.read_uint(64)).view(np.float64))
        predictor_id = reader.read_uint(1)
        if predictor_id == _PREDICTOR_REGRESSION:
            ndim = len(shape)
            padded = tuple(
                s + (-s) % _regression.BLOCK_EDGE for s in shape
            )
            nblocks = int(
                np.prod([s // _regression.BLOCK_EDGE for s in padded])
            )
            packed = self._decode_int_stream(reader, nblocks * (ndim + 1))
            coeffs = _regression.unpack_coefficients(packed, nblocks, ndim)
            pred = _regression.predict_from_planes(coeffs, shape)
            residuals = self._decode_int_stream(reader, count)
            indices = pred + residuals.reshape(shape)
        else:
            residuals = self._decode_int_stream(reader, count)
            indices = lorenzo_reconstruct(residuals.reshape(shape))

        quantizer = GridQuantizer(_internal_bound(error_bound))
        return quantizer.reconstruct(indices, origin).astype(dtype, copy=False)
