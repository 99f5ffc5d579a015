"""Cross-checks of the succinct structures against the brute oracle.

One path serves every kind: verify(g, real) takes the oracle from the
realization's type and checks g's own answers against it, so code that
several structures share is never compared with itself. It returns a
list of mismatch descriptions; an empty list means every check passed.
Checks cover all query pairs, so they are meant for moderate n, not
benchmarks. On linear structures it checks the algorithms too, the d
sequence among them: 2n values, ending at 0, never below 0.
"""

from __future__ import annotations

from . import algorithms
from .circular import ArcRealization
from .oracle import OracleGraph, mis_size_dp


def _check_paths(g, oracle: OracleGraph, issues: list[str]) -> None:
    n = oracle.n
    for u in range(1, n + 1):
        dists = oracle.dists_from(u)
        for v in range(1, n + 1):
            path = g.spath(u, v)
            want = dists[v]
            if want is None:
                if path is not None:
                    issues.append(f"spath({u},{v}): got {path}, vertices unreachable")
                continue
            if path is None:
                issues.append(f"spath({u},{v}): got none, distance is {want}")
                continue
            if path[0] != u or path[-1] != v:
                issues.append(f"spath({u},{v}): endpoints wrong in {path}")
                continue
            if len(path) - 1 != want:
                issues.append(
                    f"spath({u},{v}): length {len(path) - 1}, oracle distance {want}"
                )
            for a, b in zip(path, path[1:]):
                if not oracle.adjacent(a, b):
                    issues.append(f"spath({u},{v}): hop {a}-{b} not an edge")
                    break


def _check_queries(g, oracle: OracleGraph, issues: list[str]) -> None:
    n = oracle.n
    for v in range(1, n + 1):
        got = g.degree(v)
        want = oracle.degree(v)
        if got != want:
            issues.append(f"degree({v}): got {got}, expected {want}")
        hood = g.neighborhood(v)
        if hood != oracle.neighborhood(v):
            issues.append(
                f"neighborhood({v}): got {hood}, expected {oracle.neighborhood(v)}"
            )
        elif len(hood) != got:
            issues.append(f"degree({v}) = {got} but neighborhood has {len(hood)}")
    for u in range(1, n + 1):
        for v in range(1, n + 1):
            if g.adjacent(u, v) != oracle.adjacent(u, v):
                issues.append(
                    f"adjacent({u},{v}): got {g.adjacent(u, v)}, "
                    f"expected {oracle.adjacent(u, v)}"
                )
    _check_paths(g, oracle, issues)


def _check_algorithms(g, real, oracle: OracleGraph, issues: list[str]) -> None:
    n = g.n
    d = algorithms.build_d_sequence(g)
    if len(d) != 2 * n:
        issues.append(f"d sequence has {len(d)} values, expected {2 * n}")
    if d[-1] != 0:
        issues.append(f"d sequence ends at {d[-1]}, not 0")
    if min(d) < 0:
        issues.append(f"d sequence goes below 0, to {min(d)}")
    clique = algorithms.max_clique(g)
    if clique.size != max(d):
        issues.append(f"clique size {clique.size} != peak open count {max(d)}")
    if not oracle.is_clique(clique.members):
        issues.append(f"clique members {clique.members} are not pairwise adjacent")
    cut = clique.cut
    if not 1 <= cut <= len(d) or d[cut - 1] != clique.size:
        issues.append(f"clique cut {cut} does not hold {clique.size} open intervals")
    astray = [v for v in clique.members if not real.left(v) <= cut < real.right(v)]
    if astray:
        issues.append(f"clique members {astray} are not open at cut {cut}")
    ind = algorithms.mis(g)
    if not oracle.is_independent(ind):
        issues.append(f"mis {ind} is not independent")
    if len(ind) != mis_size_dp(real):
        issues.append(f"mis size {len(ind)} != dp size {mis_size_dp(real)}")
    cover = algorithms.mvc(g)
    if not oracle.is_vertex_cover(cover):
        issues.append(f"mvc {cover} misses an edge")
    if sorted(cover + ind) != list(range(1, n + 1)):
        issues.append("mvc is not the complement of mis")
    coloring = algorithms.greedy_coloring(g)
    if coloring.used != clique.size:
        issues.append(f"coloring uses {coloring.used} colors, clique is {clique.size}")
    for u in range(1, n + 1):
        for v in oracle.neighborhood(u):
            if coloring.colors[u - 1] == coloring.colors[v - 1]:
                issues.append(f"coloring gives {u} and {v} the same color")
                break
    if not oracle.valid_dfs(algorithms.dfs_order(g)):
        issues.append("dfs order fails the stack simulation")
    if not oracle.valid_bfs(algorithms.bfs_order(g)):
        issues.append("bfs order fails the queue simulation")
    if not oracle.is_peo(algorithms.peo(g)):
        issues.append("peo order is not a perfect elimination ordering")
    if n <= 18:
        if len(ind) != oracle.mis_size_exhaustive():
            issues.append("mis size differs from exhaustive search")
        if clique.size != oracle.clique_size_exhaustive():
            issues.append("clique size differs from exhaustive search")


def verify(g, real) -> list[str]:
    """Oracle equivalence for a structure g of any kind built from real:
    the decoded realization, a byte-identical blob round trip, every
    query against the oracle, and the algorithms on linear structures."""
    issues: list[str] = []
    oracle = OracleGraph.of(real)
    if g.realization() != real:
        issues.append("decoded realization differs from the input")
    blob = g.to_bytes()
    if type(g).from_bytes(blob).to_bytes() != blob:
        issues.append("serialization round trip is not byte-identical")
    _check_queries(g, oracle, issues)
    if not isinstance(real, ArcRealization):
        _check_algorithms(g, real, oracle, issues)
    return issues
