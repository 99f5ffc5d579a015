"""The cross-checker must stay silent on honest structures and speak up
when a query path is wrong, whichever structure runs that path."""

import random

import pytest

from conftest import FIG1_INTERVALS, FIG2_ARCS
from sigraph import algorithms
from sigraph.circular import ArcRealization, CircularArcGraph, random_arc_realization
from sigraph.graph import IntervalQueries, SuccinctIntervalGraph
from sigraph.intervals import (
    IntervalRealization,
    normalize,
    random_proper_realization,
    random_realization,
)
from sigraph.variants import MODE_IMPROPER, MODE_PROPER, KProperGraph, ProperIntervalGraph
from sigraph.verify import verify

# the four linear kinds, each with the realization generator it accepts
LINEAR = {
    "interval": (SuccinctIntervalGraph, random_realization),
    "proper": (ProperIntervalGraph, random_proper_realization),
    "kproper": (lambda real: KProperGraph(real, MODE_PROPER), random_realization),
    "kimproper": (lambda real: KProperGraph(real, MODE_IMPROPER), random_realization),
}
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
    fig1 = IntervalRealization(FIG1_INTERVALS)
    nested = _draw(random_realization, True)
    for kind, (build, draw) in LINEAR.items():
        cases = [_draw(draw, False)] if kind == "proper" else [fig1, nested]
        for real in cases:
            yield kind, build(real), real


def test_clean_on_golden_instances():
    fig1 = IntervalRealization(FIG1_INTERVALS)
    for kind, (build, _) in LINEAR.items():
        if kind != "proper":
            assert verify(build(fig1), fig1) == [], kind
            assert verify(build(NESTED), NESTED) == [], kind
    fig2 = ArcRealization(FIG2_ARCS)
    assert verify(CircularArcGraph(fig2), fig2) == []


def test_clean_on_random_instances():
    rng = random.Random(42)
    for _ in range(6):
        for kind, (build, draw) in LINEAR.items():
            real = draw(rng.randint(1, 15), rng)
            assert verify(build(real), real) == [], kind
        real = random_arc_realization(rng.randint(1, 15), rng)
        assert verify(CircularArcGraph(real), real) == []


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


class _WrongDegree(SuccinctIntervalGraph):
    def degree(self, v):
        return super().degree(v) + (v == 2)


class _WrongHood(SuccinctIntervalGraph):
    def neighborhood(self, v):
        hood = super().neighborhood(v)
        return hood[:-1] if v == 1 and hood else hood


class _WrongPath(SuccinctIntervalGraph):
    def spath(self, u, v):
        path = super().spath(u, v)
        if path is not None and len(path) > 2:
            return [path[0], *path, path[-1]][: len(path)]
        return path


def _issues_for(cls):
    real = IntervalRealization(FIG1_INTERVALS)
    return verify(cls(real), real)


def test_detects_wrong_degree():
    assert any("degree(2)" in s for s in _issues_for(_WrongDegree))


def test_detects_wrong_neighborhood():
    assert any("neighborhood(1)" in s for s in _issues_for(_WrongHood))


def test_detects_wrong_path():
    issues = _issues_for(_WrongPath)
    assert any("spath" in s for s in issues)
