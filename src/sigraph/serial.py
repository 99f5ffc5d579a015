"""Little-endian binary encoding helpers.

Every persistent structure writes a 4-byte magic tag, a version byte, and
fixed-width little-endian fields; variable parts are length-prefixed, and
bit-packed integer arrays pad their final byte with zeros. Decoders
validate magic, version, lengths, and padding so a decode-encode cycle is
byte-identical.
"""

from __future__ import annotations

import struct
import sys
from array import array
from math import gcd

from .errors import SerializationError


# lane typecodes, narrowest first; the kernels read lanes little-endian
_LANES = "BHILQ"
_SWAP = sys.byteorder == "big"


def width_for(max_value: int) -> int:
    """Bits needed to store values in [0, max_value]."""
    return max(1, max_value.bit_length())


def uint_array(values, max_value: int) -> array:
    """values as an array of the narrowest unsigned typecode holding max_value."""
    code = next(c for c in "BHILQ" if max_value < 1 << 8 * array(c).itemsize)
    return array(code, values)


def check_block_size(stored: int, derived: int) -> None:
    """A stored range-index block size must be the one a loader derives."""
    if stored != derived:
        raise SerializationError(f"range index block size {stored} must be {derived}")


def _layout(width: int) -> tuple[int, int, str]:
    """(g, gbytes, typecode) of the broadword kernels for w-bit fields:
    g = 8 / gcd(w, 8) fields fill gbytes = g * w / 8 whole bytes, and
    each field gets a lane of the narrowest 1-, 2-, 4- or 8-byte
    typecode that holds it."""
    if not 1 <= width <= 64:
        raise SerializationError(f"field width {width} outside [1, 64]")
    g = 8 // gcd(width, 8)
    return g, g * width // 8, next(c for c in _LANES if 8 * array(c).itemsize >= width)


def _lane_mask(pattern: int, lane_bytes: int, lanes: int) -> int:
    """pattern repeated in each of lanes consecutive lane_bytes-byte lanes."""
    return int.from_bytes(pattern.to_bytes(lane_bytes, "little") * lanes, "little")


def _misfit(values, width: int) -> SerializationError:
    """The error naming the first of values outside [0, 2**width)."""
    limit = 1 << width
    bad = next((v for v in values if not (isinstance(v, int) and 0 <= v < limit)), None)
    return SerializationError(f"value {bad!r} does not fit in {width} bits")


def pack_uints(values, width: int) -> bytes:
    """Bit-pack non-negative ints of the given width, LSB first.

    Broadword, with no per-value bytecode: the values go into an array
    of lanes, read as one int; g mask-and-shift steps move the g fields
    of each group of lanes next to each other, and gbytes strided slice
    assignments gather each group's bytes. Any value outside
    [0, 2**width) raises SerializationError."""
    g, gbytes, code = _layout(width)
    try:
        if isinstance(values, (bytes, bytearray)):
            values = array("B", values)     # array(code, bytes) reads raw lanes
        elif code == "B" and isinstance(values, list):
            values = bytes(values)          # a third of array("B", list)'s time
        lanes = array(code, values)
    except (OverflowError, TypeError, ValueError):
        raise _misfit(values, width) from None
    count = len(lanes)
    groups = -(-count // g)
    lane = lanes.itemsize
    stride = g * lane
    lanes.frombytes(bytes((groups * g - count) * lane))
    if _SWAP:
        lanes.byteswap()
    if 8 * lane == width:
        return lanes.tobytes()
    x = int.from_bytes(lanes, "little")
    if x & _lane_mask(-1 << width & (1 << 8 * lane) - 1, lane, groups * g):
        if _SWAP:
            lanes.byteswap()
        raise _misfit(lanes, width)
    if g > 1:
        mask = _lane_mask((1 << width) - 1, stride, groups)
        fields = x & mask
        for j in range(1, g):
            fields |= (x >> 8 * lane * j & mask) << width * j
        x = fields
    spread = x.to_bytes(groups * stride, "little")
    if gbytes != stride:
        out = bytearray(groups * gbytes)
        for k in range(gbytes):
            out[k::gbytes] = spread[k::stride]
        spread = out
    return bytes(spread[:(count * width + 7) // 8])


def unpack_uints(data: bytes, count: int, width: int) -> list[int]:
    """The count width-bit ints that pack_uints wrote to data.

    The exact inverse of pack_uints: gbytes strided slice assignments
    spread each group's bytes to the start of its g lanes, and g
    mask-and-shift steps over the block read as one int move each field
    into its own lane. The block length is checked before anything sized
    by count is allocated, and nonzero padding bits are rejected."""
    expected = (count * width + 7) // 8
    if len(data) != expected:
        raise SerializationError("packed array length mismatch")
    if int.from_bytes(data, "little") >> count * width:
        raise SerializationError("nonzero padding in packed array")
    g, gbytes, code = _layout(width)
    groups = -(-count // g)
    lanes = array(code)
    lane = lanes.itemsize
    stride = g * lane
    spread = data
    if gbytes != stride:
        src = bytes(data) + bytes(groups * gbytes - expected)
        spread = bytearray(groups * stride)
        for k in range(gbytes):
            spread[k::stride] = src[k::gbytes]
    if g > 1:
        x = int.from_bytes(spread, "little")
        mask = _lane_mask((1 << width) - 1, stride, groups)
        fields = x & mask
        for j in range(1, g):
            fields |= (x >> width * j & mask) << 8 * lane * j
        spread = fields.to_bytes(groups * stride, "little")
    lanes.frombytes(spread)
    if _SWAP:
        lanes.byteswap()
    del lanes[count:]
    return lanes.tolist()


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
