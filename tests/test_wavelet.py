import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigraph.errors import GraphInputError, QueryRangeError
from sigraph.wavelet import AlphabetSequence, PointGrid

# 18-symbol sequence over {0..5} used as a fixed golden case.
SEQ = [0, 2, 0, 2, 3, 1, 0, 3, 1, 0, 2, 1, 2, 4, 3, 5, 3, 1]


def brute_rank(seq, a, i):
    return seq[:i].count(a)


def brute_select(seq, a, j):
    seen = 0
    for pos, s in enumerate(seq, start=1):
        if s == a:
            seen += 1
            if seen == j:
                return pos
    raise AssertionError("not enough occurrences")


class TestAlphabetSequence:
    def test_golden_values(self):
        ws = AlphabetSequence(SEQ, sigma=6)
        assert len(ws) == 18
        assert ws.sigma == 6
        assert ws.rank(2, 11) == 3
        assert ws.select(4, 1) == 14
        assert ws.access(16) == 5
        assert ws.rank(0, 18) == 4
        assert ws.select(1, 4) == 18
        assert ws.count(3) == 4
        assert ws.count(5) == 1

    def test_rank_totals_cover_sequence(self):
        ws = AlphabetSequence(SEQ, sigma=6)
        assert sum(ws.rank(a, len(ws)) for a in range(6)) == len(ws)
        for i in range(len(SEQ) + 1):
            assert sum(ws.rank(a, i) for a in range(6)) == i

    def test_full_reconstruction(self):
        ws = AlphabetSequence(SEQ, sigma=6)
        assert [ws.access(i) for i in range(1, 19)] == SEQ

    def test_select_inverts_rank(self):
        ws = AlphabetSequence(SEQ, sigma=6)
        for a in range(6):
            for j in range(1, ws.count(a) + 1):
                pos = ws.select(a, j)
                assert ws.access(pos) == a
                assert ws.rank(a, pos) == j

    def test_query_errors(self):
        ws = AlphabetSequence(SEQ, sigma=6)
        with pytest.raises(QueryRangeError):
            ws.rank(6, 3)
        with pytest.raises(QueryRangeError):
            ws.rank(-1, 3)
        with pytest.raises(QueryRangeError):
            ws.rank(0, 19)
        with pytest.raises(QueryRangeError):
            ws.select(2, 0)
        with pytest.raises(QueryRangeError):
            ws.select(2, 6)
        with pytest.raises(QueryRangeError):
            ws.access(0)
        with pytest.raises(QueryRangeError):
            ws.access(19)

    def test_build_rejects_out_of_alphabet(self):
        with pytest.raises(GraphInputError):
            AlphabetSequence([0, 1, 2], sigma=2)
        with pytest.raises(GraphInputError):
            AlphabetSequence([0, -1], sigma=2)
        with pytest.raises(GraphInputError):
            AlphabetSequence([], sigma=0)

    def test_unary_alphabet(self):
        ws = AlphabetSequence([0] * 7, sigma=1)
        assert ws.rank(0, 7) == 7
        assert ws.select(0, 3) == 3
        assert ws.access(5) == 0

    def test_empty_sequence(self):
        ws = AlphabetSequence([], sigma=4)
        assert len(ws) == 0
        assert ws.rank(2, 0) == 0
        with pytest.raises(QueryRangeError):
            ws.select(2, 1)

    @given(
        st.lists(st.integers(min_value=0, max_value=9), max_size=300),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_list_counting(self, seq, rnd):
        ws = AlphabetSequence(seq, sigma=10)
        n = len(seq)
        for _ in range(20):
            a = rnd.randrange(10)
            i = rnd.randint(0, n)
            assert ws.rank(a, i) == brute_rank(seq, a, i)
        for _ in range(10):
            a = rnd.randrange(10)
            total = seq.count(a)
            assert ws.count(a) == total
            if total:
                j = rnd.randint(1, total)
                assert ws.select(a, j) == brute_select(seq, a, j)
        if n:
            i = rnd.randint(1, n)
            assert ws.access(i) == seq[i - 1]

    def test_roundtrip(self):
        for seq, sigma in [(SEQ, 6), ([], 3), ([0], 1), (list(range(17)), 17)]:
            ws = AlphabetSequence(seq, sigma)
            blob = AlphabetSequence.encode(ws.to_list(), ws.sigma)
            assert blob == AlphabetSequence.encode(seq, sigma)
            symbols, back_sigma = AlphabetSequence.decode(blob)
            assert AlphabetSequence.encode(symbols, back_sigma) == blob
            back = AlphabetSequence(symbols, back_sigma)
            assert len(back) == len(ws)
            assert back_sigma == sigma
            assert [back.access(i) for i in range(1, len(seq) + 1)] == list(seq)

    def test_rejects_corrupt_payload(self):
        blob = AlphabetSequence.encode(SEQ, 6)
        with pytest.raises(GraphInputError):
            AlphabetSequence.decode(b"XXXX" + blob[4:])
        with pytest.raises(GraphInputError):
            AlphabetSequence.decode(blob[:-1])
        with pytest.raises(GraphInputError):
            AlphabetSequence.decode(blob + b"\x00")


def brute_rect(ys, x1, x2, y1, y2):
    return sum(1 for x, y in enumerate(ys, start=1) if x1 <= x <= x2 and y1 <= y <= y2)


class TestPointGrid:
    def test_small_golden_grids(self):
        g = PointGrid([1, 2, 3, 5, 4])
        assert len(g) == 5
        assert [g.y(x) for x in range(1, 6)] == [1, 2, 3, 5, 4]
        assert g.count(1, 5, 1, 5) == 5
        assert g.count(4, 5, 1, 4) == 1
        assert g.count(4, 5, 5, 5) == 1
        assert g.count(2, 4, 2, 3) == 2
        g2 = PointGrid([1, 2])
        assert g2.count(1, 2, 1, 2) == 2
        assert g2.count(2, 2, 1, 1) == 0

    def test_clamps_out_of_range_rectangles(self):
        g = PointGrid([2, 1, 3])
        assert g.count(-5, 99, -5, 99) == 3
        assert g.count(0, 2, 1, 1) == 1
        assert g.count(3, 2, 1, 3) == 0
        assert g.count(1, 3, 3, 2) == 0
        assert g.count(4, 9, 1, 3) == 0

    def test_rejects_non_permutation(self):
        with pytest.raises(GraphInputError):
            PointGrid([1, 1, 3])
        with pytest.raises(GraphInputError):
            PointGrid([0, 1])
        with pytest.raises(GraphInputError):
            PointGrid([2, 3])

    def test_exhaustive_small_rectangles(self):
        rnd = random.Random(4242)
        for m in [1, 2, 3, 7, 16, 33, 40]:
            ys = list(range(1, m + 1))
            rnd.shuffle(ys)
            g = PointGrid(ys)
            for x1 in range(1, m + 1):
                for x2 in range(x1, m + 1):
                    for y1 in range(1, m + 1):
                        for y2 in range(y1, m + 1):
                            assert g.count(x1, x2, y1, y2) == brute_rect(
                                ys, x1, x2, y1, y2
                            )

    def test_random_medium_grid(self):
        rnd = random.Random(77)
        m = 500
        ys = list(range(1, m + 1))
        rnd.shuffle(ys)
        g = PointGrid(ys)
        for x in range(1, m + 1):
            assert g.y(x) == ys[x - 1]
        for _ in range(400):
            x1, x2 = sorted(rnd.randint(1, m) for _ in range(2))
            y1, y2 = sorted(rnd.randint(1, m) for _ in range(2))
            assert g.count(x1, x2, y1, y2) == brute_rect(ys, x1, x2, y1, y2)

    def test_empty_grid(self):
        g = PointGrid([])
        assert len(g) == 0
        assert g.count(1, 5, 1, 5) == 0
        with pytest.raises(QueryRangeError):
            g.y(1)

    def test_column_errors(self):
        g = PointGrid([1, 2])
        with pytest.raises(QueryRangeError):
            g.y(0)
        with pytest.raises(QueryRangeError):
            g.y(3)

    def test_roundtrip(self):
        for ys in [[1, 2, 3, 5, 4], [1], [], [3, 1, 4, 2]]:
            g = PointGrid(ys)
            assert [g.y(x) for x in range(1, len(ys) + 1)] == list(ys)
