"""Bit-level I/O for the Huffman and ZFP bit-plane coders.

``BitWriter`` keeps the stream packed from the start: whole bytes go
into one ``bytearray`` and the last 0–7 bits wait in a small integer
until the next write completes their byte. Every write lands at the
current bit phase — packed input is shifted across byte boundaries in
one NumPy pass, fixed-width fields go through Python integers — so no
write expands its bits to one byte each. ``BitReader`` unpacks once via
the ``unpack_bits`` kernel and serves slices, which keeps the per-bit
Python overhead low on the decode side. The kernel imports happen at
call time because :mod:`repro.compressors.kernels` itself depends on
this module.

Bit order is MSB-first within each byte, matching ``np.packbits``'s
default ``bitorder='big'``; fixed-width fields are big-endian.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

__all__ = ["BitWriter", "BitReader"]


def _check_width(nbits: int) -> None:
    if not 1 <= nbits <= 64:
        raise ValueError(f"nbits must lie in [1, 64], got {nbits}")


class BitWriter:
    """Append-only bit stream writer.

    The stream is held as packed bytes plus the 0–7 bits of its
    unfinished last byte; :meth:`getvalue` only zero-pads that byte.
    """

    def __init__(self) -> None:
        self._buf = bytearray()
        self._acc = 0  # pending bits, right-aligned
        self._nacc = 0  # number of pending bits, 0..7

    def __len__(self) -> int:
        """Number of bits written so far."""
        return 8 * len(self._buf) + self._nacc

    def write_bit(self, bit: int) -> None:
        """Append a single bit (0 or 1)."""
        if bit not in (0, 1):
            raise ValueError("bits must be 0 or 1")
        self.write_uint(int(bit), 1)

    def write_bits_array(self, bits: Sequence[int]) -> None:
        """Append an array of bits; each element must be 0 or 1."""
        arr = np.asarray(bits, dtype=np.uint8).ravel()
        if arr.size == 0:
            return
        if arr.max() > 1:
            raise ValueError("bits must be 0 or 1")
        from repro.compressors.kernels import pack_bits

        self.write_packed(pack_bits(arr), arr.size)

    def write_uint(self, value: int, nbits: int) -> None:
        """Append *value* as an unsigned big-endian field of *nbits* bits."""
        _check_width(nbits)
        value = int(value)
        if value < 0 or value >> nbits:
            raise ValueError(f"value {value} does not fit in {nbits} bits")
        acc = (self._acc << nbits) | value
        nacc = self._nacc + nbits
        rest = nacc & 7
        if nacc >= 8:
            self._buf += (acc >> rest).to_bytes(nacc >> 3, "big")
            acc &= (1 << rest) - 1
        self._acc = acc
        self._nacc = rest

    def write_uint_array(self, values: Sequence[int], nbits: int) -> None:
        """Append each value in *values* as an *nbits*-bit unsigned field.

        Every field is cut from its value's big-endian 8-byte form: at
        whole-byte widths the bytes are appended as they are, at other
        widths their bits are unpacked, trimmed and packed again.
        """
        vals = np.asarray(values, dtype=np.uint64).ravel()
        if vals.size == 0:
            return
        _check_width(nbits)
        if nbits < 64 and np.any(vals >> np.uint64(nbits)):
            raise ValueError(f"some values do not fit in {nbits} bits")
        octets = vals.astype(">u8").view(np.uint8).reshape(-1, 8)
        if nbits % 8 == 0:
            self.write_packed(octets[:, 8 - nbits // 8 :].tobytes())
        else:
            bits = np.unpackbits(octets, axis=1)[:, 64 - nbits :]
            self.write_packed(np.packbits(bits), bits.size)

    def write_packed(self, data, nbits: Optional[int] = None) -> None:
        """Append the first *nbits* bits (default: all) of MSB-first
        packed bytes *data*; bits past *nbits* in the last byte are
        ignored."""
        if isinstance(data, np.ndarray):
            octets = np.ascontiguousarray(data, dtype=np.uint8).ravel()
        else:
            octets = np.frombuffer(data, dtype=np.uint8)
        if nbits is None:
            nbits = 8 * octets.size
        if not 0 <= nbits <= 8 * octets.size:
            raise ValueError(
                f"nbits={nbits} does not fit in {octets.size} bytes"
            )
        if nbits == 0:
            return
        whole, tail = divmod(nbits, 8)
        phase = self._nacc
        if phase == 0:
            self._buf += memoryview(octets[:whole])
            if tail:
                self._acc = int(octets[whole]) >> (8 - tail)
                self._nacc = tail
            return
        # Shift the input right by the phase: each output byte takes the
        # low bits of one input byte and the high bits of the next. Bits
        # past *nbits* land past the kept prefix of ``out``.
        used = octets[: whole + (tail > 0)]
        out = np.empty(used.size + 1, dtype=np.uint8)
        out[:-1] = used >> phase
        out[-1] = 0
        out[1:] |= used << (8 - phase)
        out[0] |= self._acc << (8 - phase)
        total = phase + nbits
        done, rest = divmod(total, 8)
        self._buf += memoryview(out[:done])
        self._acc = int(out[done]) >> (8 - rest) if rest else 0
        self._nacc = rest

    def getvalue(self) -> bytes:
        """The stream as bytes, zero-padded to a byte boundary."""
        if self._nacc:
            return bytes(self._buf) + bytes([self._acc << (8 - self._nacc)])
        return bytes(self._buf)


class BitReader:
    """Sequential reader over a byte string produced by :class:`BitWriter`."""

    def __init__(self, data: bytes, nbits: int | None = None) -> None:
        from repro.compressors.kernels import unpack_bits

        buf = np.frombuffer(bytes(data), dtype=np.uint8)
        self._bits = unpack_bits(buf)
        if nbits is not None:
            if nbits > self._bits.size:
                raise ValueError(
                    f"nbits={nbits} exceeds available {self._bits.size} bits"
                )
            self._bits = self._bits[:nbits]
        self._pos = 0

    def __len__(self) -> int:
        """Total number of bits in the stream."""
        return int(self._bits.size)

    @property
    def remaining(self) -> int:
        """Bits left to read."""
        return int(self._bits.size - self._pos)

    def _take(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError(f"cannot read a negative bit count ({n})")
        if self._pos + n > self._bits.size:
            raise EOFError(
                f"bit stream exhausted: wanted {n} bits, {self.remaining} left"
            )
        out = self._bits[self._pos : self._pos + n]
        self._pos += n
        return out

    def read_bit(self) -> int:
        """Read one bit."""
        return int(self._take(1)[0])

    def read_bits_array(self, n: int) -> np.ndarray:
        """Read *n* bits as a ``uint8`` array of 0/1 values."""
        return self._take(n).copy()

    def read_uint(self, nbits: int) -> int:
        """Read an unsigned big-endian field of *nbits* bits."""
        _check_width(nbits)
        bits = self._take(nbits).astype(np.uint64)
        shifts = np.arange(nbits - 1, -1, -1, dtype=np.uint64)
        return int(np.sum(bits << shifts))

    def read_uint_array(self, count: int, nbits: int) -> np.ndarray:
        """Read *count* unsigned fields of *nbits* bits each (vectorized)."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        _check_width(nbits)
        bits = self._take(count * nbits).reshape(count, nbits)
        # Pack each row into bytes (``packbits`` zero-pads it on the
        # right), read it as one big-endian word zero-padded on the left
        # to 8 bytes, and shift the row's padding out.
        nbytes = (nbits + 7) // 8
        words = np.zeros((count, 8), dtype=np.uint8)
        words[:, 8 - nbytes :] = np.packbits(bits, axis=1)
        pad = np.uint64(8 * nbytes - nbits)
        return words.view(">u8").ravel().astype(np.uint64) >> pad
