import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIG1_D, KINDS, LINEAR, count_calls, fig1_realization
from sigraph.algorithms import (
    bfs_order,
    build_d_sequence,
    dfs_order,
    greedy_coloring,
    max_clique,
    mis,
    mvc,
    peo,
)
from sigraph.bitvector import BitVector
from sigraph.graph import IntervalQueries, SuccinctIntervalGraph
from sigraph.intervals import IntervalRealization, random_realization
from sigraph.oracle import OracleGraph
from sigraph.rmq import RangeMaxIndex, RangeMinIndex
from sigraph.verify import verify


@pytest.fixture(scope="module")
def fig1():
    return SuccinctIntervalGraph.from_realization(fig1_realization())


def build(intervals):
    return SuccinctIntervalGraph.from_realization(IntervalRealization(intervals))


class TestGoldenValues:
    def test_d_sequence(self, fig1):
        assert build_d_sequence(fig1) == FIG1_D

    def test_mis_mvc(self, fig1):
        assert mis(fig1) == [2, 5, 9]
        assert mvc(fig1) == [1, 3, 4, 6, 7, 8]

    def test_clique(self, fig1):
        w = max_clique(fig1)
        assert w.size == 4
        assert w.cut == 4
        assert w.members == (1, 2, 3, 4)

    def test_coloring(self, fig1):
        col = greedy_coloring(fig1)
        assert col.colors == (1, 2, 3, 4, 1, 2, 3, 1, 4)
        assert col.used == 4

    def test_traversal_orders(self, fig1):
        assert dfs_order(fig1) == list(range(1, 10))
        assert bfs_order(fig1) == list(range(1, 10))
        assert peo(fig1) == list(range(1, 10))


class TestTrivialShapes:
    def test_single_vertex(self):
        g = build(((1, 2),))
        assert mis(g) == [1]
        assert mvc(g) == []
        assert max_clique(g).size == 1
        assert greedy_coloring(g).colors == (1,)

    def test_disjoint_intervals(self):
        g = build(tuple((2 * i + 1, 2 * i + 2) for i in range(5)))
        assert mis(g) == [1, 2, 3, 4, 5]
        assert max_clique(g).size == 1
        assert greedy_coloring(g).colors == (1, 1, 1, 1, 1)

    def test_three_clique(self):
        g = build(((1, 4), (2, 5), (3, 6)))
        assert max_clique(g).size == 3
        assert greedy_coloring(g).colors == (1, 2, 3)
        assert mis(g) == [1]

    def test_path_peo(self):
        g = build(((1, 3), (2, 5), (4, 6)))
        assert peo(g) == [1, 2, 3]


class TestProperties:
    @given(st.integers(1, 60), st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_random_instances(self, n, seed):
        real = random_realization(n, random.Random(seed))
        assert verify(SuccinctIntervalGraph(real), real) == []

    def test_small_exhaustive_band(self):
        rng = random.Random(271)
        for _ in range(60):
            real = random_realization(rng.randint(1, 14), rng)
            assert verify(SuccinctIntervalGraph(real), real) == []


# -- every structure, against brute-force definitions ----------------------

def _brute_coloring(o) -> tuple[int, ...]:
    colors = [0] * (o.n + 1)
    for v in range(1, o.n + 1):
        taken = {colors[u] for u in o.neighborhood(v) if u < v}
        colors[v] = min(c for c in range(1, v + 1) if c not in taken)
    return tuple(colors[1:])


def _brute_mis(real, o) -> list[int]:
    out = []
    for v in sorted(range(1, real.n + 1), key=real.right):
        if not any(o.adjacent(u, v) for u in out):
            out.append(v)
    return out


def _expected_outputs(real):
    """d, the first-peak clique and the cover, from the realization alone."""
    n = real.n
    d = [0] * (2 * n)
    for l, r in real.intervals:
        for p in range(l, r):
            d[p - 1] += 1
    cut = d.index(max(d)) + 1
    members = tuple(v for v in range(1, n + 1) if real.left(v) <= cut < real.right(v))
    ind = set(_brute_mis(real, OracleGraph.from_intervals(real)))
    return d, cut, members, [v for v in range(1, n + 1) if v not in ind]


def _assert_exact(g, real):
    d, cut, members, cover = _expected_outputs(real)
    assert build_d_sequence(g) == d
    w = max_clique(g)
    assert (w.cut, w.members) == (cut, members)
    assert mvc(g) == cover


@pytest.mark.parametrize("kind", LINEAR)
def test_exact_outputs_on_every_structure(kind):
    rng = random.Random(f"exact/{kind}")
    for _ in range(40):
        real = KINDS[kind][1](rng.randint(1, 60), rng)
        g = KINDS[kind][0](real)
        o = OracleGraph.from_intervals(real)
        assert greedy_coloring(g).colors == _brute_coloring(o)
        assert mis(g) == _brute_mis(real, o)
        _assert_exact(g, real)


@pytest.mark.parametrize("kind", LINEAR)
def test_algorithms_make_no_per_vertex_queries(kind, monkeypatch):
    """At n = 2000 each algorithm, on its own, calls no neighborhood,
    rank, select or range query; a per-vertex decode would make
    thousands."""
    g = KINDS[kind][0](KINDS[kind][1](2000, random.Random(11)))
    calls = count_calls(monkeypatch, (
        (IntervalQueries, "neighborhood"),
        (type(g), "neighborhood"),
        (BitVector, "rank"),
        (BitVector, "select"),
        (RangeMaxIndex, "query"),
        (RangeMinIndex, "query"),
    ))
    for algorithm in (mis, mvc, max_clique, build_d_sequence, greedy_coloring):
        calls.clear()
        algorithm(g)
        assert calls == {}, algorithm.__name__


@pytest.mark.parametrize("kind", LINEAR)
def test_exact_outputs_on_multi_word_s(kind):
    """n = 2000: S spans 63 words, so the d steps and the clique's label
    prefix cross many word edges."""
    real = KINDS[kind][1](2000, random.Random(f"multiword/{kind}"))
    _assert_exact(KINDS[kind][0](real), real)


def _nested(n):
    return tuple((i, 2 * n + 1 - i) for i in range(1, n + 1))


def _late_peak(n):
    """A chain of n - 2 disjoint intervals, then two nested ones: the
    peak, 2, is reached only at the last left endpoint, 2n - 2."""
    chain = tuple((2 * i + 1, 2 * i + 2) for i in range(n - 2))
    m = 2 * (n - 2)
    return chain + ((m + 1, m + 4), (m + 2, m + 3))


# shape: (intervals, cut, members, proper?)
EDGE_SHAPES = {
    "single": (((1, 2),), 1, (1,), True),
    "chain": (tuple((2 * i + 1, 2 * i + 2) for i in range(70)), 1, (1,), True),
    "nested": (_nested(70), 70, tuple(range(1, 71)), False),
    "late-peak": (_late_peak(70), 138, (69, 70), False),
}


@pytest.mark.parametrize("shape", sorted(EDGE_SHAPES))
def test_clique_edge_shapes(shape):
    intervals, cut, members, proper = EDGE_SHAPES[shape]
    real = IntervalRealization(intervals)
    for kind in LINEAR:
        if kind == "proper" and not proper:
            continue
        g = KINDS[kind][0](real)
        w = max_clique(g)
        assert (w.cut, w.members) == (cut, members), kind
        if shape == "single":
            assert build_d_sequence(g) == [1, 0]
        _assert_exact(g, real)
