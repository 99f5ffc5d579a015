import math
import random
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_calls
from sigraph import BitVector, QueryRangeError, SerializationError, serial

# Endpoint sequence of the nine-interval worked example used throughout.
S9 = "000011011001001111"


def bv_from_string(s: str) -> BitVector:
    return BitVector(int(c) for c in s)


class TestGolden:
    def test_rank_zero_prefix(self):
        assert bv_from_string(S9).rank(1, 0) == 0

    def test_rank0(self):
        assert bv_from_string(S9).rank(0, 6) == 4

    def test_rank1(self):
        assert bv_from_string(S9).rank(1, 14) == 5

    def test_select0(self):
        assert bv_from_string(S9).select(0, 5) == 7

    def test_select_out_of_range(self):
        bv = bv_from_string(S9)
        with pytest.raises(QueryRangeError):
            bv.select(1, 10)
        with pytest.raises(QueryRangeError):
            bv.select(0, 0)

    def test_rank_out_of_range(self):
        bv = bv_from_string(S9)
        with pytest.raises(QueryRangeError):
            bv.rank(1, 19)
        with pytest.raises(QueryRangeError):
            bv.rank(0, -1)

    def test_bit_string_round_trip(self):
        assert bv_from_string(S9).bit_string() == S9

    def test_counts(self):
        bv = bv_from_string(S9)
        assert bv.count(0) == 9
        assert bv.count(1) == 9
        assert len(bv) == 18


@given(st.lists(st.integers(0, 1), max_size=600))
@settings(max_examples=150, deadline=None)
def test_rank_select_laws(bits):
    bv = BitVector(bits)
    n = len(bits)
    ones = zeros = 0
    positions = {0: [], 1: []}
    for i in range(1, n + 1):
        b = bits[i - 1]
        positions[b].append(i)
        ones += b
        zeros += 1 - b
        assert bv.access(i) == b
        assert bv.rank(1, i) == ones
        assert bv.rank(0, i) == zeros
        assert bv.rank(0, i) + bv.rank(1, i) == i
        if b:
            assert bv.select(1, ones) == i
        else:
            assert bv.select(0, zeros) == i
        # select of the prefix count lands at or before i
        if ones:
            assert bv.select(1, bv.rank(1, i)) <= i
    for b in (0, 1):
        for j, pos in enumerate(positions[b], start=1):
            assert bv.select(b, j) == pos
            assert bv.rank(b, pos) == j
    assert bv.count(1) == ones
    assert bv.count(0) == zeros


@given(st.lists(st.integers(0, 1), max_size=600))
@settings(max_examples=100, deadline=None)
def test_positions_are_every_select(bits):
    bv = BitVector(bits)
    for b in (0, 1):
        assert bv.positions(b) == [bv.select(b, j) for j in range(1, bv.count(b) + 1)]


def test_large_vector_against_numpy():
    np = pytest.importorskip("numpy")
    rng = random.Random(20260821)
    n = 1_000_000
    arr = np.asarray([rng.getrandbits(1) for _ in range(n)], dtype=np.int64)
    bv = BitVector(arr.tolist())
    cum = np.cumsum(arr)
    one_pos = np.flatnonzero(arr) + 1
    zero_pos = np.flatnonzero(1 - arr) + 1
    for _ in range(2000):
        i = rng.randint(0, n)
        expect1 = int(cum[i - 1]) if i else 0
        assert bv.rank(1, i) == expect1
        assert bv.rank(0, i) == i - expect1
    for _ in range(2000):
        j = rng.randint(1, len(one_pos))
        assert bv.select(1, j) == int(one_pos[j - 1])
        j = rng.randint(1, len(zero_pos))
        assert bv.select(0, j) == int(zero_pos[j - 1])
    report = bv.space_report()
    assert report["directory"] <= 0.5 * n
    assert report["directory"] <= n / 4 + 4096


def test_sparse_and_dense_select():
    # Long runs stress the sampled hints: a lone one after a sea of zeros.
    n = 300_000
    bits = [0] * n
    bits[n - 1] = 1
    bits[12345] = 1
    bv = BitVector(bits)
    assert bv.select(1, 1) == 12346
    assert bv.select(1, 2) == n
    assert bv.select(0, 12345) == 12345
    assert bv.select(0, n - 2) == n - 1
    assert bv.rank(1, n) == 2


def test_empty_vector():
    bv = BitVector([])
    assert len(bv) == 0
    assert bv.rank(0, 0) == 0
    with pytest.raises(QueryRangeError):
        bv.select(0, 1)
    with pytest.raises(QueryRangeError):
        bv.access(1)


def test_serialization_round_trip():
    rng = random.Random(7)
    for n in (0, 1, 63, 64, 65, 1000):
        bits = [rng.getrandbits(1) for _ in range(n)]
        bv = BitVector(bits)
        blob = bv.to_bytes()
        bv2 = BitVector.from_bytes(blob)
        assert bv2.bit_string() == bv.bit_string()
        assert bv2.to_bytes() == blob
        assert bv2.space_bits() == bv.space_bits()


def test_serialization_rejects_garbage():
    bv = BitVector([1, 0, 1])
    blob = bytearray(bv.to_bytes())
    blob[0:4] = b"XXXX"
    with pytest.raises(SerializationError):
        BitVector.from_bytes(bytes(blob))
    with pytest.raises(SerializationError):
        BitVector.from_bytes(bv.to_bytes()[:-1])
    # nonzero padding past the logical end must be rejected
    blob = bytearray(bv.to_bytes())
    blob[-1] |= 0x80
    with pytest.raises(SerializationError):
        BitVector.from_bytes(bytes(blob))
    # so must a short header, a wrong version, a short or long payload,
    # and a forged huge length, before it allocates anything
    blob = BitVector([1, 0, 1] * 30).to_bytes()
    forged_n = blob[:5] + (2**60).to_bytes(8, "little") + blob[13:]
    for bad in (blob[:4], blob[:12], blob[:4] + b"\x02" + blob[5:],
                blob[:-8], blob + bytes(8), blob + b"\x00"):
        with pytest.raises(SerializationError):
            BitVector.from_bytes(bad)
    tracemalloc.start()
    try:
        with pytest.raises(SerializationError):
            BitVector.from_bytes(forged_n)
        assert tracemalloc.get_traced_memory()[1] < 64 * 1024
    finally:
        tracemalloc.stop()


def test_bytes_survive_a_simulated_big_endian_host(monkeypatch):
    """With serial's byte order flipped, a vector keeps its words
    byteswapped, as a big-endian host holds them natively. Everything
    that reads the words' bytes goes through serial.le, so the blob,
    access, the bit text and positions still match the host's vector."""
    rng = random.Random(29)
    bits = [rng.getrandbits(1) for _ in range(1000)]
    host = BitVector(bits)
    blob, text, ones = host.to_bytes(), host.bit_string(), host.positions(1)
    words = array("Q", host._words)
    words.byteswap()
    monkeypatch.setattr(serial, "_SWAP", True)
    for bv in (BitVector(bits), BitVector.from_bytes(blob)):
        assert bv._words == words
        assert bv.to_bytes() == blob
        assert [bv.access(i) for i in range(1, 1001)] == bits
        assert bv.bit_string() == text
        assert bv.positions(1) == ones


# -- select_marked -------------------------------------------------------


def _assert_marked(bv, b, lo_j, mask, calls=None):
    """select_marked against one select per marked occurrence. With the
    live tallies of count_calls over BitVector.select and _text, also
    check its cost: two selects and one word pass when the words spanned
    by its first and last marked occurrence number at most the marked
    count, and one select per marked occurrence, with no word read,
    otherwise."""
    want = [bv.select(b, lo_j + i) for i, m in enumerate(mask) if m]
    if calls is not None:
        calls.clear()
    assert bv.select_marked(b, lo_j, mask) == want, (b, lo_j, bytes(mask))
    if calls is None:
        return
    if len(want) > 1 and (want[-1] - 1) // 64 - (want[0] - 1) // 64 + 1 <= len(want):
        assert calls == {f"BitVector.select{b}": 2, "BitVector._text": 1}, (b, lo_j)
    else:
        assert calls == ({f"BitVector.select{b}": len(want)} if want else {}), (b, lo_j)


def _random_mask(rng, size, density):
    """size >= 1 bytes with nonzero ends, inner bytes nonzero (any of
    1..255) at density."""
    mask = bytearray(rng.randint(1, 255) if rng.random() < density else 0 for _ in range(size))
    mask[0] = mask[-1] = 1
    return mask


@given(st.lists(st.integers(0, 1), max_size=600), st.data())
@settings(max_examples=150, deadline=None)
def test_select_marked_is_every_marked_select(bits, data):
    bv = BitVector(bits)
    for b in (0, 1):
        count = bv.count(b)
        if not count:
            continue
        lo_j = data.draw(st.integers(1, count))
        size = data.draw(st.integers(1, count - lo_j + 1))
        ends = st.binary(min_size=1, max_size=1).filter(lambda e: e != b"\0")
        inner = data.draw(st.binary(min_size=max(0, size - 2), max_size=max(0, size - 2)))
        mask = data.draw(ends) + inner + data.draw(ends) if size > 1 else data.draw(ends)
        _assert_marked(bv, b, lo_j, mask)


@pytest.mark.parametrize("n", [63, 64, 65, 4095, 4097])
def test_select_marked_at_word_and_superblock_edges(n, monkeypatch):
    rng = random.Random(n)
    calls = count_calls(monkeypatch, [(BitVector, "select"), (BitVector, "_text")])
    for density in (0.02, 0.5, 0.98):
        bv = BitVector(int(rng.random() < density) for _ in range(n))
        for b in (0, 1):
            count = bv.count(b)
            if not count:
                continue
            _assert_marked(bv, b, 1, b"\x01" * count, calls)
            _assert_marked(bv, b, 1, _random_mask(rng, count, 0.3), calls)
            for _ in range(5):
                lo_j = rng.randint(1, count)
                size = rng.randint(1, count - lo_j + 1)
                for mask_density in (0.0, 0.02, 0.5, 1.0):
                    _assert_marked(bv, b, lo_j, _random_mask(rng, size, mask_density), calls)


def test_select_marked_all_ones_takes_the_word_pass(monkeypatch):
    """An all-ones mask over a vector with no long gaps: its words never
    outnumber its marks, so two selects and one word pass answer it."""
    rng = random.Random("marked/ones")
    bv = BitVector(int(rng.random() < 0.5) for _ in range(3 * 4096 + 17))
    calls = count_calls(monkeypatch, [(BitVector, "select"), (BitVector, "_text")])
    for b in (0, 1):
        count = bv.count(b)
        for lo_j, size in [(1, count), (1, 2), (count - 1, 2), (4000, 300), (17, count // 3)]:
            _assert_marked(bv, b, lo_j, b"\x01" * size, calls)
            assert calls["BitVector._text"] == 1, (b, lo_j, size)


@pytest.mark.parametrize("k", [65, 200, 1000])
def test_select_marked_one_in_k_selects_each_mark(k, monkeypatch):
    """A mask marking one occurrence in k >= 65 of random bits, where k
    occurrences of either bit span about 2k positions: its marks span
    more words than they number, so each marked occurrence gets its own
    select and no word is read."""
    rng = random.Random(f"marked/{k}")
    bv = BitVector(rng.randint(0, 1) for _ in range(4 * 4096 + 5))
    calls = count_calls(monkeypatch, [(BitVector, "select"), (BitVector, "_text")])
    for b in (0, 1):
        count = bv.count(b)
        mask = bytes(1 if i % k == 0 else 0 for i in range((count - 1) // k * k + 1))
        _assert_marked(bv, b, 1, mask, calls)
        assert "BitVector._text" not in calls, (b, k)


def test_select_marked_masks_of_size_zero_and_one():
    bv = bv_from_string(S9)
    for b in (0, 1):
        assert bv.select_marked(b, 1, b"") == []
        assert bv.select_marked(b, 4, bytearray()) == []
        for j in range(1, bv.count(b) + 1):
            assert bv.select_marked(b, j, b"\x01") == [bv.select(b, j)]
            assert bv.select_marked(b, j, bytearray(b"\xff")) == [bv.select(b, j)]
    assert BitVector([]).select_marked(1, 1, b"") == []


@pytest.mark.parametrize(
    "lo_j, mask",
    [(0, b"\x01"), (10, b"\x01"), (0, b"\x01\x01"), (8, b"\x01\x00\x01"), (1, b"\x01" * 10)],
    ids=["zeroth", "past-count", "zeroth-pair", "last-past-count", "run-past-count"],
)
def test_select_marked_out_of_range_raises_as_select(lo_j, mask):
    bv = bv_from_string(S9)
    for b in (0, 1):
        with pytest.raises(QueryRangeError) as want:
            [bv.select(b, lo_j + i) for i, m in enumerate(mask) if m]
        with pytest.raises(QueryRangeError) as got:
            bv.select_marked(b, lo_j, mask)
        assert str(got.value) == str(want.value)


# -- select at scale -----------------------------------------------------
#
# The vectors above stay inside one 4096-bit superblock and one select
# sample; these cross many of both.


def _clusters(rng, n):
    """Runs of ones and zeros with geometric lengths, their means drawn
    per run from a few words to a few superblocks."""
    bits, b = [], 0
    while len(bits) < n:
        mean = rng.choice((4, 60, 900, 9000))
        bits += [b] * (1 + int(rng.expovariate(1 / mean)))
        b ^= 1
    return bits[:n]


SCALE_SHAPES = {
    "random": lambda rng: [rng.getrandbits(1) for _ in range(300_000)],
    "clusters": lambda rng: _clusters(rng, 300_000),
    "ones-then-zeros": lambda rng: [1] * 10**6 + [0] * 5000,
    "zeros-ones-zero": lambda rng: [0] * 5000 + [1] * 10**6 + [0],
}
ADVERSARIAL = ("ones-then-zeros", "zeros-ones-zero")


def _assert_every_select(bv):
    for b in (0, 1):
        for j, p in enumerate(bv.positions(b), start=1):
            if bv.select(b, j) != p:
                pytest.fail(f"select({b}, {j}) = {bv.select(b, j)}, expected {p}")


@pytest.mark.parametrize("shape", sorted(SCALE_SHAPES))
def test_every_select_at_scale(shape):
    _assert_every_select(BitVector(SCALE_SHAPES[shape](random.Random(shape))))


@pytest.mark.parametrize("rem", [0, 1, 63])
def test_every_select_at_length_residues(rem):
    rng = random.Random(rem)
    n = 5 * 4096 + 3 * 64 + rem
    for density in (0.02, 0.5, 0.98):
        _assert_every_select(BitVector(int(rng.random() < density) for _ in range(n)))


@pytest.mark.parametrize("shape", ADVERSARIAL)
def test_select_reads_logarithmic_directory_entries(shape):
    """A select reads O(log words) rank-directory entries on vectors
    where interpolation guesses badly: each search step reads two, and
    at most every second step fails to halve the words left."""
    bv = BitVector(SCALE_SHAPES[shape](random.Random(shape)))
    reads = [0]

    class Counting(list):
        def __getitem__(self, i):
            reads[0] += 1
            return list.__getitem__(self, i)

    bound = 6 * math.log2(len(bv._word_ones)) + 6
    bv._sb_ones = Counting(bv._sb_ones)
    bv._word_ones = Counting(bv._word_ones)
    for b in (0, 1):
        for j in range(1, bv.count(b) + 1, 1 if b == 0 else 97):
            reads[0] = 0
            bv.select(b, j)
            assert reads[0] <= bound, (b, j, reads[0])
