"""Seven release gates, one pass/fail line each (run with -s to see them).

Criteria 2, 3 and 4 sweep all query pairs against the brute oracle on
random instances; 6 measures space through the bench command; 7 sweeps
the degree convention over 300 random instances of its own.
"""

import io
import json
import math
import random
import time
from contextlib import redirect_stdout

from conftest import FIG1_D, FIG1_INTERVALS, FIG2_ARCS
from sigraph import algorithms
from sigraph.circular import ArcRealization, CircularArcGraph, random_arc_realization
from sigraph.cli import main
from sigraph.graph import SuccinctIntervalGraph
from sigraph.intervals import (
    IntervalRealization,
    random_proper_realization,
    random_realization,
)
from sigraph.oracle import OracleGraph, mis_size_dp
from sigraph.variants import MODE_IMPROPER, MODE_PROPER, KProperGraph, ProperIntervalGraph

FIG1_T = [0, 2, 0, 2, 3, 1, 0, 3, 1, 0, 2, 1, 2, 4, 3, 5, 3, 1]


def _gate(num: int, detail: str, started: float, limit: float | None = None) -> None:
    dt = time.perf_counter() - started
    if limit is not None and dt >= limit:
        print(f"FAIL criterion {num}: took {dt:.2f}s, limit {limit:.0f}s")
        raise AssertionError(f"criterion {num} exceeded {limit}s ({dt:.2f}s)")
    print(f"PASS criterion {num}: {detail} ({dt:.2f}s)")


def _check_instance(g, oracle: OracleGraph) -> None:
    """All-pairs query equivalence, the degree convention included."""
    n = oracle.n
    for v in range(1, n + 1):
        hood = g.neighborhood(v)
        deg = g.degree(v)
        assert hood == oracle.neighborhood(v), f"neighborhood({v})"
        assert deg == oracle.degree(v) == len(hood), f"degree({v})"
    for u in range(1, n + 1):
        for v in range(u, n + 1):
            assert g.adjacent(u, v) == oracle.adjacent(u, v), f"adjacent({u},{v})"
    for u in range(1, n + 1):
        dists = oracle.dists_from(u)
        for v in range(u, n + 1):
            path = g.spath(u, v)
            if dists[v] is None:
                assert path is None, f"spath({u},{v}) on unreachable pair"
                continue
            assert path is not None, f"spath({u},{v}) returned none"
            assert len(path) - 1 == dists[v], f"spath({u},{v}) length"
            assert path[0] == u and path[-1] == v, f"spath({u},{v}) endpoints"
            for a, b in zip(path, path[1:]):
                assert oracle.adjacent(a, b), f"spath({u},{v}) hop {a}-{b}"


def test_criterion_1_golden_suite():
    t0 = time.perf_counter()
    real = IntervalRealization(FIG1_INTERVALS)
    g = SuccinctIntervalGraph.from_realization(real)
    assert algorithms.mis(g) == [2, 5, 9]
    assert algorithms.mvc(g) == [1, 3, 4, 6, 7, 8]
    assert g.succ(2) == 3
    assert g.succ(5) == 6
    assert algorithms.build_d_sequence(g) == FIG1_D
    assert algorithms.max_clique(g).size == 4
    kp = KProperGraph.from_realization(real, MODE_PROPER)
    assert kp.annotation.to_list() == FIG1_T
    assert kp.depth_classes() == [[1, 3, 5, 6], [2, 4, 7, 8], [9]]
    assert algorithms.dfs_order(g) == list(range(1, 10))
    assert algorithms.bfs_order(g) == list(range(1, 10))
    _gate(1, "Figure-1 golden values", t0, limit=1.0)


def test_criterion_2_interval_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(1002)
    count = 0
    for n in (10, 50, 200):
        for _ in range(50):
            real = random_realization(n, rng)
            g = SuccinctIntervalGraph.from_realization(real)
            _check_instance(g, OracleGraph.from_intervals(real))
            count += 1
    _gate(2, f"{count} interval instances match the oracle", t0, limit=60.0)


def test_criterion_3_circular_oracle_equivalence():
    t0 = time.perf_counter()
    g = CircularArcGraph.from_realization(ArcRealization(FIG2_ARCS))
    assert tuple(g.arc_of(v)[1] for v in range(1, 8)) == (3, 7, 8, 2, 14, 12, 10)
    assert g._rp.tolist() == [3, 7, 8, 14, 12]
    assert g._rpp.tolist() == [2, 10]
    assert g.realization().reversed_set() == {4, 7}
    _check_instance(g, OracleGraph.from_arc_positions(FIG2_ARCS))
    rng = random.Random(1003)
    count = 1
    for n in (10, 50, 200):
        for _ in range(50):
            real = random_arc_realization(n, rng)
            cg = CircularArcGraph.from_realization(real)
            _check_instance(cg, OracleGraph.from_arc_positions(real.arcs))
            count += 1
    _gate(3, f"{count} circular instances match the oracle", t0, limit=120.0)


def test_criterion_4_cross_representation_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(1004)
    n = 200
    for trial in range(20):
        if trial % 2:
            real = random_proper_realization(n, rng)
            others = [
                ProperIntervalGraph.from_realization(real),
                KProperGraph.from_realization(real, MODE_PROPER),
                KProperGraph.from_realization(real, MODE_IMPROPER),
            ]
        else:
            real = random_realization(n, rng)
            others = [
                KProperGraph.from_realization(real, MODE_PROPER),
                KProperGraph.from_realization(real, MODE_IMPROPER),
            ]
        g = SuccinctIntervalGraph.from_realization(real)
        base_deg = [g.degree(v) for v in range(1, n + 1)]
        base_hood = [g.neighborhood(v) for v in range(1, n + 1)]
        base_pairs = {
            (u, v): (g.adjacent(u, v), g.spath(u, v))
            for u in range(1, n + 1)
            for v in range(u, n + 1)
        }
        for h in others:
            for v in range(1, n + 1):
                assert h.degree(v) == base_deg[v - 1]
                assert h.neighborhood(v) == base_hood[v - 1]
            for u in range(1, n + 1):
                for v in range(u, n + 1):
                    assert h.adjacent(u, v) == base_pairs[u, v][0]
                    assert h.spath(u, v) == base_pairs[u, v][1]
    _gate(4, "20 instances, all representations answer identically", t0)


def test_criterion_5_algorithm_validity():
    t0 = time.perf_counter()
    rng = random.Random(1005)
    n = 200
    for _ in range(50):
        real = random_realization(n, rng)
        g = SuccinctIntervalGraph.from_realization(real)
        oracle = OracleGraph.from_intervals(real)
        clique = algorithms.max_clique(g)
        coloring = algorithms.greedy_coloring(g)
        assert coloring.used == clique.size
        for u in range(1, n + 1):
            for v in oracle.neighborhood(u):
                assert coloring.colors[u - 1] != coloring.colors[v - 1]
        assert oracle.is_clique(clique.members)
        assert oracle.is_peo(algorithms.peo(g))
        assert oracle.valid_dfs(algorithms.dfs_order(g))
        assert oracle.valid_bfs(algorithms.bfs_order(g))
        ind = algorithms.mis(g)
        assert oracle.is_independent(ind)
        assert len(ind) == mis_size_dp(real)
    for _ in range(30):
        small = random_realization(rng.randint(2, 18), rng)
        sg = SuccinctIntervalGraph.from_realization(small)
        so = OracleGraph.from_intervals(small)
        assert len(algorithms.mis(sg)) == so.mis_size_exhaustive()
        assert algorithms.max_clique(sg).size == so.clique_size_exhaustive()
    _gate(5, "algorithms valid on 50 large + 30 exhaustive instances", t0)


def test_criterion_6_space_accounting():
    t0 = time.perf_counter()
    n = 100_000
    reports = {}
    for kind in ("interval", "proper"):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(
                ["bench", "--type", kind, "--n", str(n), "--queries", "20",
                 "--seed", "1006", "--json"]
            )
        assert code == 0
        reports[kind] = json.loads(buf.getvalue())
    interval_bits = reports["interval"]["total_bits"]
    interval_budget = 1.3 * n * math.log2(2 * n)
    assert interval_bits <= interval_budget, (interval_bits, interval_budget)
    proper_bits = reports["proper"]["total_bits"]
    assert proper_bits <= 3 * n, (proper_bits, 3 * n)
    _gate(
        6,
        f"interval {interval_bits} <= {interval_budget:.0f} bits, "
        f"proper {proper_bits} <= {3 * n} bits at n={n}",
        t0,
        limit=30.0,
    )


def test_criterion_7_degree_convention():
    t0 = time.perf_counter()
    rng = random.Random(1007)
    instances = vertices = 0
    for _ in range(150):
        for build, draw in ((SuccinctIntervalGraph, random_realization),
                            (CircularArcGraph, random_arc_realization)):
            real = draw(rng.randint(1, 60), rng)
            g = build.from_realization(real)
            oracle = OracleGraph.of(real)
            for v in range(1, real.n + 1):
                assert g.degree(v) == len(g.neighborhood(v)) == oracle.degree(v)
            instances += 1
            vertices += real.n
    assert instances >= 300
    _gate(
        7,
        f"degree equals neighborhood size and oracle row sum on "
        f"{vertices} vertices across {instances} instances",
        t0,
    )
