"""The cross-checker must stay silent on honest structures and speak up
when a query path is wrong, whichever structure runs that path. Each
message it can emit is shown to fire by a fault planted in one method."""

import random

import pytest

from conftest import FIG1_INTERVALS, FIG2_ARCS, KINDS, LINEAR
from sigraph import algorithms
from sigraph.circular import ArcRealization, CircularArcGraph
from sigraph.graph import IntervalQueries, SuccinctIntervalGraph
from sigraph.intervals import IntervalRealization, normalize, random_realization
from sigraph.variants import MODE_IMPROPER, MODE_PROPER, KProperGraph, ProperIntervalGraph
from sigraph.verify import verify

FIG1 = IntervalRealization(FIG1_INTERVALS)
NESTED = IntervalRealization(((1, 4), (2, 3)))


def _draw(draw, nested: bool) -> IntervalRealization:
    """A random 14-vertex realization from draw, nesting or not as asked,
    in which vertex 1 meets vertex 2."""
    rng = random.Random(11)
    while True:
        real = draw(14, rng)
        (_, r1), (l2, _) = real.intervals[:2]
        rights = [r for _, r in real.intervals]
        if l2 < r1 and (rights != sorted(rights)) == nested:
            return real


def _linear_cases():
    """(kind, structure, realization): FIG1 and a nested random input for
    every kind that accepts nesting, a random proper input for proper."""
    nested = _draw(random_realization, True)
    for kind in LINEAR:
        build, draw = KINDS[kind]
        cases = [_draw(draw, False)] if kind == "proper" else [FIG1, nested]
        for real in cases:
            yield kind, build(real), real


def test_clean_on_golden_instances():
    for kind in LINEAR:
        build = KINDS[kind][0]
        if kind != "proper":
            assert verify(build(FIG1), FIG1) == [], kind
            assert verify(build(NESTED), NESTED) == [], kind
    fig2 = ArcRealization(FIG2_ARCS)
    assert verify(CircularArcGraph(fig2), fig2) == []


def test_clean_on_random_instances():
    rng = random.Random(42)
    for _ in range(6):
        for kind, (build, draw) in KINDS.items():
            real = draw(rng.randint(1, 15), rng)
            assert verify(build(real), real) == [], kind


def test_clean_on_a_tower_too_deep_for_byte_depths():
    """257 nested intervals put depth 256 in either mode, so the depths
    take two bytes and spath keeps the range-max hop: a chain of short
    intervals leaving the tower makes its paths take several hops."""
    depth = 257
    raw = [(i, 2 * depth - i) for i in range(depth)]
    raw += [(2 * depth - 1 + j, 2 * depth + j + 0.5) for j in range(6)]
    real = normalize(raw)
    for mode in (MODE_PROPER, MODE_IMPROPER):
        g = KProperGraph(real, mode)
        assert g.k == 256 and type(g._depths) is not bytes, mode
        assert len(g.spath(depth, real.n)) > 4
        assert verify(g, real) == [], mode


def test_shared_degree_bug_is_reported_on_every_linear_kind(monkeypatch):
    """All linear kinds run IntervalQueries, so each must be checked
    against the oracle, not against another kind running the same code."""
    degree = IntervalQueries.degree
    monkeypatch.setattr(IntervalQueries, "degree", lambda self, v: degree(self, v) + (v == 2))
    for kind, g, real in _linear_cases():
        assert any(s.startswith("degree(2)") for s in verify(g, real)), kind


def test_shared_neighborhood_bug_is_reported_on_every_linear_kind(monkeypatch):
    # the proper structure answers neighborhoods from S alone, so it gets
    # the same bug in its own neighborhood
    for cls in (IntervalQueries, ProperIntervalGraph):
        hood = cls.neighborhood
        monkeypatch.setattr(
            cls, "neighborhood",
            lambda self, v, hood=hood: hood(self, v)[: -1 if v == 1 else None],
        )
    for kind, g, real in _linear_cases():
        assert any(s.startswith("neighborhood(1)") for s in verify(g, real)), kind


@pytest.mark.parametrize("shift", [-1, 1])
def test_shifted_clique_cut_is_reported_on_every_linear_kind(monkeypatch, shift):
    """Members that are pairwise adjacent and a size equal to the peak
    of d do not certify the cut: verify must check it as well. Next to
    the first peak d is one lower, and the member that opens at the cut
    (or closes just past it) is not open at the shifted one."""
    honest = algorithms.max_clique
    monkeypatch.setattr(
        algorithms, "max_clique",
        lambda g: algorithms.CliqueWitness(honest(g).cut + shift, honest(g).members),
    )
    for kind, g, real in _linear_cases():
        issues = verify(g, real)
        assert any(s.startswith("clique cut") for s in issues), kind
        assert any(s.startswith("clique members") and "not open" in s for s in issues), kind


@pytest.mark.parametrize("query", ["degree", "neighborhood"])
def test_circular_query_bug_is_reported(monkeypatch, query):
    real = ArcRealization(FIG2_ARCS)
    g = CircularArcGraph(real)
    honest = getattr(CircularArcGraph, query)
    if query == "degree":
        monkeypatch.setattr(CircularArcGraph, "degree", lambda self, v: honest(self, v) + (v == 2))
    else:
        monkeypatch.setattr(
            CircularArcGraph, "neighborhood", lambda self, v: honest(self, v)[: -1 if v == 2 else None]
        )
    assert any(s.startswith(f"{query}(2)") for s in verify(g, real))


# -- one planted fault for each message verify emits --------------------

# FIG1 then ten disjoint intervals: n = 19 lies past the exhaustive band,
# and no path joins FIG1 to the tail
TAILED = IntervalRealization(FIG1_INTERVALS + tuple((19 + 2 * i, 20 + 2 * i) for i in range(10)))
G = SuccinctIntervalGraph


def _at(pair, path):
    """A fake spath that answers path for the pair, honestly elsewhere."""
    return lambda honest, g, u, v: path if (u, v) == pair else honest(g, u, v)


def _drop_last(honest, g):
    w = honest(g)
    return algorithms.CliqueWitness(w.cut, w.members[:-1])


# case -> (realization, owner, name, fake, wanted): fake(honest, *args)
# stands in for owner.name, and verify must report every wanted text
# and nothing else. On FIG1, spath(1, 9) is [1, 3, 5, 6, 9], mis is
# [2, 5, 9], the clique {1, 2, 3, 4} is cut at 4, d peaks again at 14,
# and the coloring is (1, 2, 3, 4, 1, 2, 3, 1, 4).
PLANTED = {
    "degree": (FIG1, G, "degree", lambda h, g, v: h(g, v) + (v == 2),
               ["degree(2): got 4", "degree(2) = 4 but neighborhood has 3"]),
    "neighborhood": (FIG1, G, "neighborhood", lambda h, g, v: h(g, v)[: -1 if v == 1 else None],
                     ["neighborhood(1): got [2, 3]"]),
    "adjacent": (FIG1, G, "adjacent", lambda h, g, u, v: h(g, u, v) != ((u, v) == (1, 9)),
                 ["adjacent(1,9)"]),
    "spath-unreachable": (TAILED, G, "spath", _at((1, 10), [1, 10]), ["vertices unreachable"]),
    "spath-none": (FIG1, G, "spath", _at((1, 2), None), ["spath(1,2): got none"]),
    "spath-endpoints": (FIG1, G, "spath", _at((1, 2), [2, 1]), ["spath(1,2): endpoints wrong"]),
    "spath-length": (FIG1, G, "spath", _at((1, 2), [1, 3, 2]), ["spath(1,2): length 2"]),
    "spath-hop": (FIG1, G, "spath", _at((1, 9), [1, 2, 5, 6, 9]), ["hop 2-5 not an edge"]),
    "realization": (FIG1, G, "realization", lambda h, g: IntervalRealization(((1, 2),)),
                    ["decoded realization"]),
    "round-trip": (FIG1, G, "from_bytes", lambda h, blob: G(IntervalRealization(((1, 2),))),
                   ["round trip"]),
    "d-length": (FIG1, algorithms, "build_d_sequence", lambda h, g: h(g) + [0],
                 ["d sequence has 19 values"]),
    "d-end": (FIG1, algorithms, "build_d_sequence", lambda h, g: h(g)[:-1] + [1],
              ["d sequence ends at 1"]),
    "d-negative": (FIG1, algorithms, "build_d_sequence", lambda h, g: [-1] + h(g)[1:],
                   ["d sequence goes below 0"]),
    "clique-size": (TAILED, algorithms, "max_clique", _drop_last,
                    ["clique size 3 != peak", "clique cut 4", "coloring uses 4"]),
    "clique-not-adjacent": (
        FIG1, algorithms, "max_clique", lambda h, g: algorithms.CliqueWitness(4, (1, 2, 3, 9)),
        ["not pairwise adjacent", "[9] are not open"]),
    "clique-other-peak": (
        FIG1, algorithms, "max_clique", lambda h, g: algorithms.CliqueWitness(14, (1, 2, 3, 4)),
        ["[1, 2, 3, 4] are not open at cut 14"]),
    "mis-independent": (FIG1, algorithms, "mis", lambda h, g: [2, 3, 9],
                        ["mis [2, 3, 9] is not independent", "mvc [1, 4, 5, 6, 7, 8] misses"]),
    "mis-size": (TAILED, algorithms, "mis", lambda h, g: h(g)[:-1], ["mis size 12 != dp size 13"]),
    "mvc-cover": (FIG1, algorithms, "mvc", lambda h, g: h(g)[1:],
                  ["misses an edge", "not the complement"]),
    "mvc-complement": (FIG1, algorithms, "mvc", lambda h, g: sorted(h(g) + [2]),
                       ["not the complement"]),
    "coloring-count": (
        FIG1, algorithms, "greedy_coloring",
        lambda h, g: algorithms.Coloring(h(g).colors[:-1] + (5,)), ["coloring uses 5"]),
    "coloring-conflict": (
        FIG1, algorithms, "greedy_coloring",
        lambda h, g: algorithms.Coloring((1, 1) + h(g).colors[2:]), ["the same color"]),
    "dfs": (FIG1, algorithms, "dfs_order", lambda h, g: [5, 1, 2, 3, 4, 6, 7, 8, 9], ["dfs"]),
    "bfs": (FIG1, algorithms, "bfs_order", lambda h, g: [5, 1, 2, 3, 4, 6, 7, 8, 9], ["bfs"]),
    "peo": (FIG1, algorithms, "peo", lambda h, g: [5, 1, 2, 3, 4, 6, 7, 8, 9], ["peo"]),
    "exhaustive-mis": (FIG1, algorithms, "mis", lambda h, g: h(g)[:-1],
                       ["!= dp size", "mis size differs from exhaustive"]),
    "exhaustive-clique": (
        FIG1, algorithms, "max_clique", _drop_last,
        ["clique size 3 != peak", "clique cut 4", "coloring uses 4",
         "clique size differs from exhaustive"]),
}


def _planted(monkeypatch, case):
    """verify's report on the case's instance, its fault planted."""
    real, owner, name, fake, _ = PLANTED[case]
    honest = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: fake(honest, *args))
    return verify(G(real), real)


@pytest.mark.parametrize("case", PLANTED)
def test_planted_fault_is_reported(monkeypatch, case):
    """Each fault is planted in one method of a small instance; verify
    reports it under its own message, next to the companions listed when
    the fault cannot break one check alone."""
    wanted = PLANTED[case][-1]
    issues = _planted(monkeypatch, case)
    for text in wanted:
        assert any(text in s for s in issues), (text, issues)
    for s in issues:
        assert any(text in s for text in wanted), (s, wanted)


def test_detects_wrong_degree(monkeypatch):
    assert any("degree(2)" in s for s in _planted(monkeypatch, "degree"))


def test_detects_wrong_neighborhood(monkeypatch):
    assert any("neighborhood(1)" in s for s in _planted(monkeypatch, "neighborhood"))


def test_detects_wrong_path(monkeypatch):
    assert any("spath" in s for s in _planted(monkeypatch, "spath-endpoints"))
