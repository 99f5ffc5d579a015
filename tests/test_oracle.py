import random

import pytest

from conftest import FIG2_ADJACENCY, FIG2_ARCS, fig1_realization
from sigraph.errors import GraphInputError
from sigraph.intervals import IntervalRealization, random_realization
from sigraph.oracle import OracleGraph, _bits, mis_size_dp


@pytest.fixture(scope="module")
def fig1():
    return OracleGraph.from_intervals(fig1_realization())


@pytest.fixture(scope="module")
def fig2():
    return OracleGraph.from_arc_positions(FIG2_ARCS)


class TestFromIntervals:
    def test_known_edges(self, fig1):
        assert fig1.adjacent(2, 3)
        assert not fig1.adjacent(2, 9)
        assert not fig1.adjacent(4, 4)
        assert fig1.degree(1) == 3
        assert fig1.degree(9) == 3
        assert fig1.neighborhood(6) == [5, 7, 8, 9]
        assert fig1.neighborhood(9) == [6, 7, 8]

    def test_symmetry_zero_diagonal(self, fig1):
        for u in range(1, 10):
            assert not fig1.adjacent(u, u)
            for v in range(1, 10):
                assert fig1.adjacent(u, v) == fig1.adjacent(v, u)


class TestFromArcs:
    def test_full_adjacency(self, fig2):
        for v, nbrs in FIG2_ADJACENCY.items():
            assert set(fig2.neighborhood(v)) == nbrs, v
        assert fig2.degree(4) == 6
        assert fig2.degree(7) == 5

    def test_wrapping_arc_pair(self, fig2):
        assert fig2.adjacent(4, 7)
        assert not fig2.adjacent(6, 7)


class TestDistances:
    def test_fig1_distance(self, fig1):
        assert fig1.bfs_dist(1, 9) == 4
        assert fig1.bfs_dist(1, 1) == 0
        assert fig1.bfs_dist(2, 5) == 2

    def test_unreachable(self):
        g = OracleGraph.from_intervals(IntervalRealization(((1, 2), (3, 4))))
        assert g.bfs_dist(1, 2) is None
        assert g.bfs_dist(1, 1) == 0


class TestOrderValidity:
    def test_ascending_orders_hold(self, fig1):
        order = list(range(1, 10))
        assert fig1.valid_dfs(order)
        assert fig1.valid_bfs(order)
        assert fig1.is_peo(order)

    def test_bad_orders_rejected(self, fig1):
        assert not fig1.valid_dfs([1, 5, 2, 3, 4, 6, 7, 8, 9])
        assert not fig1.valid_bfs([1, 5, 2, 3, 4, 6, 7, 8, 9])
        assert not fig1.valid_dfs([1, 2, 3])  # not a permutation
        assert not fig1.valid_bfs(list(range(2, 11)))

    def test_peo_counterexample(self):
        # 1-2, 2-3 path: putting both ends before the middle breaks it
        g = OracleGraph.from_intervals(IntervalRealization(((1, 3), (2, 5), (4, 6))))
        assert g.is_peo([1, 2, 3])
        assert g.is_peo([2, 1, 3])
        assert not g.is_peo([1, 3, 2])

    def test_dfs_restart_component_rule(self):
        g = OracleGraph.from_intervals(
            IntervalRealization(((1, 2), (3, 5), (4, 6)))
        )
        assert g.valid_dfs([1, 2, 3])
        assert g.valid_dfs([2, 3, 1])
        # abandoning a component half-done is not a DFS
        assert not g.valid_dfs([2, 1, 3])
        assert not g.valid_bfs([2, 1, 3])


class TestSetPredicates:
    def test_fig1_sets(self, fig1):
        assert fig1.is_independent([2, 5, 9])
        assert not fig1.is_independent([1, 2])
        assert fig1.is_clique([1, 2, 3, 4])
        assert not fig1.is_clique([1, 2, 5])
        assert fig1.is_vertex_cover([1, 3, 4, 6, 7, 8])
        assert not fig1.is_vertex_cover([1, 3, 4, 6, 7])


class TestOptimaOracles:
    def test_fig1_sizes(self, fig1):
        assert fig1.mis_size_exhaustive() == 3
        assert fig1.clique_size_exhaustive() == 4
        assert mis_size_dp(fig1_realization()) == 3

    def test_size_guard(self):
        rng = random.Random(3)
        big = OracleGraph.from_intervals(random_realization(25, rng))
        with pytest.raises(GraphInputError):
            big.mis_size_exhaustive()
        with pytest.raises(GraphInputError):
            big.clique_size_exhaustive()

    def test_dp_matches_exhaustive(self):
        rng = random.Random(17)
        for _ in range(40):
            real = random_realization(rng.randint(1, 12), rng)
            g = OracleGraph.from_intervals(real)
            assert mis_size_dp(real) == g.mis_size_exhaustive()


def _pop_bits(mask):
    """Set bits by popping the lowest one at a time."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def test_bits_match_the_pop_loop():
    rng = random.Random(4000)
    masks = [0, 1, 2, 1 << 63, 1 << 64, 1 << 3999, (1 << 4000) - 1]
    masks += [rng.getrandbits(rng.randint(1, 4000)) for _ in range(200)]
    masks += [rng.getrandbits(4000) & rng.getrandbits(4000) & rng.getrandbits(4000)
              for _ in range(50)]
    for mask in masks:
        assert _bits(mask) == _pop_bits(mask)
