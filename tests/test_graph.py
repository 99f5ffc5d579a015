import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIG1_INTERVALS, FIG1_S, fig1_realization
from sigraph.errors import GraphInputError, QueryRangeError
from sigraph.graph import SuccinctIntervalGraph
from sigraph.intervals import IntervalRealization, random_realization
from sigraph.oracle import OracleGraph


@pytest.fixture(scope="module")
def fig1():
    return SuccinctIntervalGraph.from_realization(fig1_realization())


class TestBuild:
    def test_endpoint_sequence(self, fig1):
        assert fig1.n == 9
        assert fig1.endpoint_bits.bit_string() == FIG1_S
        assert fig1.endpoint_bits.rank(0, 18) == 9
        assert fig1.endpoint_bits.rank(1, 18) == 9

    def test_prefix_balance(self, fig1):
        s = fig1.endpoint_bits
        for i in range(1, 19):
            assert s.rank(0, i) >= s.rank(1, i)

    def test_tiny_graphs(self):
        one = SuccinctIntervalGraph.from_realization(
            IntervalRealization(((1, 2),))
        )
        assert one.endpoint_bits.bit_string() == "01"
        two = SuccinctIntervalGraph.from_realization(
            IntervalRealization(((1, 2), (3, 4)))
        )
        assert two.endpoint_bits.bit_string() == "0101"
        assert two._rlist == [2, 4]

    def test_rebuild_realization(self, fig1):
        assert fig1.realization().intervals == FIG1_INTERVALS
        assert fig1.interval_of(5) == (7, 12)


class TestQueries:
    def test_degree(self, fig1):
        assert fig1.degree(1) == 3
        assert fig1.degree(9) == 3
        assert fig1.degree(6) == 4

    def test_adjacent(self, fig1):
        assert fig1.adjacent(2, 3)
        assert not fig1.adjacent(2, 9)
        assert not fig1.adjacent(4, 4)
        assert fig1.adjacent(6, 9)

    def test_neighborhood(self, fig1):
        assert fig1.neighborhood(9) == [6, 7, 8]
        assert fig1.neighborhood(6) == [5, 7, 8, 9]
        assert fig1.neighborhood(1) == [2, 3, 4]

    def test_succ(self, fig1):
        assert fig1.succ(2) == 3
        assert fig1.succ(5) == 6
        lone = SuccinctIntervalGraph.from_realization(
            IntervalRealization(((1, 2),))
        )
        assert lone.succ(1) == 1

    def test_spath(self, fig1):
        assert fig1.spath(1, 9) == [1, 3, 5, 6, 9]
        assert fig1.spath(9, 1) == [9, 6, 5, 3, 1]
        assert fig1.spath(4, 4) == [4]
        assert fig1.spath(2, 3) == [2, 3]

    def test_spath_disconnected(self):
        g = SuccinctIntervalGraph.from_realization(
            IntervalRealization(((1, 2), (3, 4)))
        )
        assert g.spath(1, 2) is None

    def test_vertex_range_errors(self, fig1):
        for bad in (0, 10, -3):
            with pytest.raises(QueryRangeError):
                fig1.degree(bad)
            with pytest.raises(QueryRangeError):
                fig1.neighborhood(bad)
        with pytest.raises(QueryRangeError):
            fig1.adjacent(1, 10)
        with pytest.raises(QueryRangeError):
            fig1.spath(0, 5)


def _check_against_oracle(real):
    g = SuccinctIntervalGraph.from_realization(real)
    o = OracleGraph.from_intervals(real)
    n = real.n
    for v in range(1, n + 1):
        assert g.degree(v) == o.degree(v)
        assert g.neighborhood(v) == o.neighborhood(v)
    for u in range(1, n + 1):
        dist = o.dists_from(u)
        for v in range(1, n + 1):
            assert g.adjacent(u, v) == o.adjacent(u, v)
            path = g.spath(u, v)
            if dist[v] is None:
                assert path is None
            else:
                assert path is not None
                assert len(path) - 1 == dist[v]
                assert path[0] == u and path[-1] == v
                assert all(o.adjacent(a, b) for a, b in zip(path, path[1:]))
        # succ picks the farthest-reaching interval starting before r_u
        s = g.succ(u)
        candidates = [
            w
            for w in range(1, n + 1)
            if g.interval_of(w)[0] < g.interval_of(u)[1]
        ]
        best = max(candidates, key=lambda w: g.interval_of(w)[1])
        assert s == best
    assert g.realization().intervals == real.intervals


class TestOracleEquivalence:
    @given(st.integers(1, 60), st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_random_instances(self, n, seed):
        _check_against_oracle(random_realization(n, random.Random(seed)))

    def test_dense_and_sparse_shapes(self):
        nested = tuple((i + 1, 40 - i) for i in range(20))
        _check_against_oracle(IntervalRealization(nested))
        disjoint = tuple((2 * i + 1, 2 * i + 2) for i in range(20))
        _check_against_oracle(IntervalRealization(disjoint))
        n = 20
        staircase = (
            ((1, 3),)
            + tuple((2 * i - 2, 2 * i + 1) for i in range(2, n))
            + ((2 * n - 2, 2 * n),)
        )
        _check_against_oracle(IntervalRealization(staircase))


class TestSerialization:
    def test_roundtrip_identical(self, fig1):
        blob = fig1.to_bytes()
        back = SuccinctIntervalGraph.from_bytes(blob)
        assert back.to_bytes() == blob
        assert back.realization().intervals == FIG1_INTERVALS
        assert back.spath(1, 9) == [1, 3, 5, 6, 9]

    def test_rejects_garbage(self, fig1):
        blob = fig1.to_bytes()
        with pytest.raises(GraphInputError):
            SuccinctIntervalGraph.from_bytes(b"SXGR" + blob[4:])
        with pytest.raises(GraphInputError):
            SuccinctIntervalGraph.from_bytes(blob[:-2])
        # flip a right endpoint out of range
        broken = bytearray(blob)
        broken[-1] ^= 0x40
        with pytest.raises(GraphInputError):
            SuccinctIntervalGraph.from_bytes(bytes(broken))


class TestSpace:
    def test_components_and_budget(self):
        rng = random.Random(99)
        n = 10**4
        g = SuccinctIntervalGraph.from_realization(random_realization(n, rng))
        rep = g.space_report()
        assert set(rep) == {"S", "S_directory", "r", "rmax_directory"}
        assert 2 * n <= rep["S"] < 2 * n + 64  # word-padded raw bits
        assert rep["r"] == n * 15
        assert g.space_bits() == sum(rep.values())
        import math

        assert g.space_bits() <= 1.3 * n * math.log2(2 * n)
