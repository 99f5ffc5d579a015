import random
from array import array
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_calls
from sigraph import QueryRangeError
from sigraph.rmq import RangeMaxIndex, RangeMinIndex, default_block_size

R9 = [6, 5, 9, 8, 12, 18, 15, 17, 16]


def test_golden_max():
    idx = RangeMaxIndex(R9)
    assert idx.query(1, 5) == 5
    assert idx.query(1, 9) == 6
    assert idx.query(2, 4) == 3


def test_golden_min():
    idx = RangeMinIndex(R9)
    assert idx.query(1, 9) == 2
    assert idx.query(5, 9) == 5


def test_invalid_ranges():
    idx = RangeMaxIndex(R9)
    for i, j in ((0, 3), (3, 2), (1, 10), (10, 10)):
        with pytest.raises(QueryRangeError):
            idx.query(i, j)


def test_leftmost_tie_break():
    values = [3, 7, 7, 1, 7, 2]
    assert RangeMaxIndex(values, block_size=2).query(1, 6) == 2
    assert RangeMaxIndex(values, block_size=2).query(3, 6) == 3
    values = [4, 1, 5, 1, 1]
    assert RangeMinIndex(values, block_size=2).query(1, 5) == 2
    assert RangeMinIndex(values, block_size=2).query(3, 5) == 4


@given(
    st.lists(st.integers(-50, 50), min_size=1, max_size=200),
    st.integers(1, 8),
)
@settings(max_examples=120, deadline=None)
def test_exhaustive_against_scan(values, block):
    vmax = RangeMaxIndex(values, block_size=block)
    vmin = RangeMinIndex(values, block_size=block)
    n = len(values)
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            seg = values[i - 1:j]
            assert vmax.query(i, j) == i + seg.index(max(seg))
            assert vmin.query(i, j) == i + seg.index(min(seg))


def test_large_against_numpy():
    np = pytest.importorskip("numpy")
    rng = random.Random(991)
    n = 1_000_000
    values = [rng.randrange(1 << 20) for _ in range(n)]
    arr = np.asarray(values)
    idx = RangeMaxIndex(values)
    mdx = RangeMinIndex(values)
    for _ in range(10_000):
        span = 1 << rng.randint(0, 19)
        i = rng.randint(1, n - span + 1)
        j = i + span - 1
        assert idx.query(i, j) == i + int(np.argmax(arr[i - 1:j]))
        assert mdx.query(i, j) == i + int(np.argmin(arr[i - 1:j]))
    # directory stays small relative to the sequence it indexes
    assert idx.space_bits() <= n / 4


def test_default_block_size_scales():
    assert default_block_size(0) == 32
    assert default_block_size(20) == 32
    assert default_block_size(200) == 64
    assert default_block_size(100_000) == 512
    assert default_block_size(1_000_000) == 512


def test_leaders_answer_whole_blocks(monkeypatch):
    """A partial block whose leader lies inside the range is answered by
    the leader: a full-range query over whole blocks scans nothing, and a
    prefix or suffix query scans at most one block."""
    rng = random.Random(17)
    indexes = [
        cls([rng.randint(0, 5) for _ in range(4 * c)], block_size=c)
        for cls in (RangeMaxIndex, RangeMinIndex)
        for c in (1, 2, 3, 8, 32)
    ]
    scans = count_calls(monkeypatch, [(RangeMaxIndex, "_scan")])
    for idx in indexes:
        n = len(idx._values)
        scans.clear()
        idx.query(1, n)
        assert scans == {}
        for j in range(1, n + 1):
            scans.clear()
            idx.query(1, j)
            assert scans.get("RangeMaxIndex._scan", 0) <= 1
            scans.clear()
            idx.query(j, n)
            assert scans.get("RangeMaxIndex._scan", 0) <= 1


def _check_records(idx, n):
    """The records rise strictly in position and in value, and the last
    of them at or before j is the prefix answer query(1, j), for every j."""
    recs = idx.records()
    assert isinstance(recs, array) and recs[0] == 1
    values = idx._values
    assert all(a < b and values[a - 1] < values[b - 1] for a, b in zip(recs, recs[1:]))
    for j in range(1, n + 1):
        assert recs[bisect_right(recs, j) - 1] == idx.query(1, j), j


@pytest.mark.parametrize("block", [1, 2, None])
@pytest.mark.parametrize("values", [
    [5],
    [3] * 70,
    list(range(100)),
    list(range(100, 0, -1)),
    [3, 7, 7, 1, 7, 2, 8, 8, 0, 8],
    [1, 2, 3, 2, 1, 4, 5, 6, 0] * 9,
    R9,
    array("I", [9, 9, 4, 12, 12, 3, 40, 40, 41] * 8),
], ids=["n1", "equal", "increasing", "decreasing", "ties", "runs", "R9", "packed"])
@pytest.mark.parametrize("cls", [RangeMaxIndex, RangeMinIndex])
def test_records_answer_every_prefix(cls, values, block):
    _check_records(cls(values, block_size=block), len(values))


@given(
    st.lists(st.integers(-20, 20), min_size=1, max_size=300),
    st.sampled_from([1, 2, None]),
)
@settings(max_examples=150, deadline=None)
def test_records_answer_random_prefixes(values, block):
    _check_records(RangeMaxIndex(values, block_size=block), len(values))
    _check_records(RangeMinIndex(values, block_size=block), len(values))
