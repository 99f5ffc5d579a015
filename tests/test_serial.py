"""The bit-packing kernels' contract: serial.pack_uints and unpack_uints
against a bit-by-bit reference, on every width 1..64 and on counts around
the kernels' group size, plus every rejection a decoder relies on; and
le and from_le, the byte-order helpers, on the host and on a simulated
big-endian host."""

import random
import tracemalloc
from array import array
from math import gcd

import pytest

from sigraph import serial
from sigraph.errors import SerializationError
from sigraph.serial import from_le, le, pack_uints, uint_array, unpack_uints

WIDTHS = range(1, 65)

# peak bytes a rejected forged count may allocate, as in test_probes
PEAK_BOUND = 64 * 1024


def reference_pack(values, width: int) -> bytes:
    """LSB-first packing, one value and one byte at a time."""
    out = bytearray()
    acc = nbits = 0
    for v in values:
        assert 0 <= v < 1 << width
        acc |= v << nbits
        nbits += width
        while nbits >= 8:
            out.append(acc & 0xFF)
            acc >>= 8
            nbits -= 8
    if nbits:
        out.append(acc)
    return bytes(out)


def _counts(width: int) -> list[int]:
    """0, 1, g - 1, g, g + 1 and several groups, g = 8 / gcd(width, 8)
    being the fields that fill whole bytes."""
    g = 8 // gcd(width, 8)
    return sorted({0, 1, g - 1, g, g + 1, 5 * g + 3})


def _values(rng, width: int, count: int) -> list[int]:
    """Random fields with the extremes 0 and 2**width - 1 among them."""
    vals = [rng.getrandbits(width) for _ in range(count)]
    if count:
        vals[0] = (1 << width) - 1
        vals[-1] = 0 if count > 1 else vals[-1]
    return vals


@pytest.mark.parametrize("width", WIDTHS)
def test_round_trip_matches_reference(width):
    rng = random.Random(f"serial/{width}")
    for count in _counts(width):
        vals = _values(rng, width, count)
        packed = pack_uints(vals, width)
        assert packed == reference_pack(vals, width), (width, count)
        got = unpack_uints(packed, count, width)
        assert type(got) is list and got == vals, (width, count)


@pytest.mark.parametrize("width", (1, 2, 3, 4, 7, 8, 9, 16, 18, 24, 31, 33, 64))
def test_array_and_bytes_inputs_pack_their_values(width):
    """A packed array of any typecode, and bytes, pack their values, not
    their raw lanes."""
    rng = random.Random(f"serial/arrays/{width}")
    vals = _values(rng, width, 37)
    want = reference_pack(vals, width)
    assert pack_uints(uint_array(vals, (1 << width) - 1), width) == want
    assert pack_uints(array("Q", vals), width) == want
    assert pack_uints(tuple(vals), width) == want
    if width <= 8:
        assert pack_uints(bytes(vals), width) == want
        assert pack_uints(bytearray(vals), width) == want
    else:
        small = [v & 0xFF for v in vals]
        assert pack_uints(bytes(small), width) == reference_pack(small, width)


@pytest.mark.parametrize("width", WIDTHS)
def test_out_of_range_values_are_rejected(width):
    for bad in (1 << width, -1, (1 << width) + 5, -(1 << width), 1 << 70):
        for vals in ([bad], [0, 1, bad, 0], [0] * 9 + [bad]):
            with pytest.raises(SerializationError, match="does not fit"):
                pack_uints(vals, width)


@pytest.mark.parametrize("width", WIDTHS)
def test_wrong_block_length_is_rejected(width):
    rng = random.Random(f"serial/length/{width}")
    for count in _counts(width):
        packed = pack_uints(_values(rng, width, count), width)
        with pytest.raises(SerializationError, match="length"):
            unpack_uints(packed + b"\x00", count, width)
        if packed:
            with pytest.raises(SerializationError, match="length"):
                unpack_uints(packed[:-1], count, width)


@pytest.mark.parametrize("width", WIDTHS)
def test_each_nonzero_padding_bit_is_rejected(width):
    rng = random.Random(f"serial/padding/{width}")
    for count in _counts(width):
        used = count * width % 8
        if not used:
            continue
        packed = pack_uints(_values(rng, width, count), width)
        for bit in range(used, 8):
            forged = packed[:-1] + bytes([packed[-1] | 1 << bit])
            with pytest.raises(SerializationError, match="padding"):
                unpack_uints(forged, count, width)


@pytest.mark.parametrize("width", (1, 4, 18, 64))
def test_forged_count_raises_before_allocating(width):
    tracemalloc.start()
    try:
        for count in (2**40, 2**63 - 1):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            with pytest.raises(SerializationError, match="length"):
                unpack_uints(bytes(16), count, width)
            peak = tracemalloc.get_traced_memory()[1] - base
            assert peak < PEAK_BOUND, (width, count, peak)
    finally:
        tracemalloc.stop()


def _le_values(code: str) -> tuple[list[int], bytes]:
    """Random values of an integer typecode, the extremes among them, and
    their little-endian bytes."""
    size = array(code).itemsize
    signed = code.islower()
    bits = 8 * size - signed
    lo, hi = -signed << bits, (1 << bits) - 1
    rng = random.Random(f"serial/le/{code}")
    values = [lo, hi, 0, 1] + [rng.randint(lo, hi) for _ in range(20)]
    return values, b"".join(v.to_bytes(size, "little", signed=signed) for v in values)


@pytest.mark.parametrize("code", "bBhHiIlLqQ")
def test_le_and_from_le_on_this_host(code):
    """On a little-endian host le passes the array itself through."""
    values, want = _le_values(code)
    a = array(code, values)
    assert (le(a) is a) is not serial._SWAP
    assert bytes(le(a)) == want
    assert from_le(code, want) == a


@pytest.mark.parametrize("code", "bBhHiIlLqQ")
def test_le_and_from_le_on_a_simulated_big_endian_host(code, monkeypatch):
    """A byteswapped array stands in for a big-endian host's native
    layout of the values: le gives their little-endian bytes, in a copy
    that leaves the array as it was, and from_le inverts it."""
    values, want = _le_values(code)
    native = array(code, values)
    native.byteswap()
    before = native.tobytes()
    monkeypatch.setattr(serial, "_SWAP", True)
    out = le(native)
    assert out is not native and bytes(out) == want
    assert native.tobytes() == before
    back = from_le(code, want)
    assert back.typecode == code and back.tobytes() == before
