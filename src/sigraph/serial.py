"""Little-endian binary encoding helpers.

Every persistent structure writes a 4-byte magic tag, a version byte, and
fixed-width little-endian fields; variable parts are length-prefixed, and
bit-packed integer arrays pad their final byte with zeros. Decoders
validate magic, version, lengths, and padding so a decode-encode cycle is
byte-identical.
"""

from __future__ import annotations

import struct
from array import array

from .errors import SerializationError


def width_for(max_value: int) -> int:
    """Bits needed to store values in [0, max_value]."""
    return max(1, max_value.bit_length())


class UIntArray(array):
    """A packed unsigned array that equals the list of its values, as the
    list it replaces did. It adds no slot, so it holds nothing beyond the
    array; indexing and slicing are the array's own."""

    __slots__ = ()

    def __eq__(self, other):
        if isinstance(other, list):
            return self.tolist() == other
        return array.__eq__(self, other)

    def __ne__(self, other):
        # array's own != would not consult __eq__ above
        return not self == other


def uint_array(values, max_value: int) -> UIntArray:
    """values as an array of the narrowest unsigned typecode holding max_value."""
    code = next(c for c in "BHILQ" if max_value < 1 << 8 * array(c).itemsize)
    return UIntArray(code, values)


def check_block_size(stored: int, derived: int) -> None:
    """A stored range-index block size must be the one a loader derives."""
    if stored != derived:
        raise SerializationError(f"range index block size {stored} must be {derived}")


def pack_uints(values, width: int) -> bytes:
    """Bit-pack non-negative ints of the given width, LSB first."""
    out = bytearray()
    acc = 0
    nbits = 0
    limit = 1 << width
    for v in values:
        if not 0 <= v < limit:
            raise SerializationError(f"value {v} does not fit in {width} bits")
        acc |= v << nbits
        nbits += width
        while nbits >= 8:
            out.append(acc & 0xFF)
            acc >>= 8
            nbits -= 8
    if nbits:
        out.append(acc)
    return bytes(out)


def unpack_uints(data: bytes, count: int, width: int) -> list[int]:
    expected = (count * width + 7) // 8
    if len(data) != expected:
        raise SerializationError("packed array length mismatch")
    out = []
    acc = 0
    nbits = 0
    pos = 0
    mask = (1 << width) - 1
    for _ in range(count):
        while nbits < width:
            acc |= data[pos] << nbits
            pos += 1
            nbits += 8
        out.append(acc & mask)
        acc >>= width
        nbits -= width
    if acc:
        raise SerializationError("nonzero padding in packed array")
    return out


class Writer:
    def __init__(self):
        self._buf = bytearray()

    def magic(self, tag: bytes, version: int) -> "Writer":
        assert len(tag) == 4
        self._buf += tag
        self._buf.append(version)
        return self

    def u8(self, v: int) -> "Writer":
        self._buf += struct.pack("<B", v)
        return self

    def u32(self, v: int) -> "Writer":
        self._buf += struct.pack("<L", v)
        return self

    def u64(self, v: int) -> "Writer":
        self._buf += struct.pack("<Q", v)
        return self

    def block(self, payload: bytes) -> "Writer":
        self._buf += struct.pack("<Q", len(payload))
        self._buf += payload
        return self

    def getvalue(self) -> bytes:
        return bytes(self._buf)


class Reader:
    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def magic(self, tag: bytes, version: int) -> None:
        """Consume and check a magic tag and the version byte after it."""
        got = self._take(4)
        if got != tag:
            raise SerializationError(
                f"expected {tag.decode('ascii')} data, found {got!r}"
            )
        found = self.u8()
        if found != version:
            raise SerializationError(
                f"unsupported {tag.decode('ascii')} version {found}"
            )

    def _take(self, k: int) -> bytes:
        if self._pos + k > len(self._data):
            raise SerializationError("truncated data")
        chunk = self._data[self._pos:self._pos + k]
        self._pos += k
        return chunk

    def u8(self) -> int:
        return self._take(1)[0]

    def u32(self) -> int:
        return struct.unpack("<L", self._take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self._take(8))[0]

    def flag(self, what: str) -> int:
        """A u8 that must be 0 or 1, so every accepted byte re-encodes."""
        v = self.u8()
        if v > 1:
            raise SerializationError(f"{what} byte must be 0 or 1, found {v}")
        return v

    def block(self) -> bytes:
        return self._take(self.u64())

    def done(self) -> None:
        if self._pos != len(self._data):
            raise SerializationError("trailing bytes after payload")
