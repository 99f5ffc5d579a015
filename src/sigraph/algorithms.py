"""Combinatorial algorithms running directly on the succinct structures.

Each algorithm reads the endpoints once, in one sweep: the left
endpoints are the 0 positions of S and the hook _rights lists every
r_v in label order, so the same code serves the plain, proper and
k-proper representations. Everything runs in O(n) time, except
greedy_coloring, which keeps two heaps and runs in O(n log n).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import accumulate


@dataclass(frozen=True)
class CliqueWitness:
    """A maximum clique certified by a cut position: all intervals open
    at position cut (l <= cut < r) pairwise intersect there."""

    cut: int
    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class Coloring:
    colors: tuple[int, ...]

    @property
    def used(self) -> int:
        return max(self.colors) if self.colors else 0


def _intervals(g):
    """(l_v, r_v) for v = 1..n, in label order."""
    return zip(g.endpoint_bits.positions(0), g._rights())


def build_d_sequence(g) -> list[int]:
    """Open-interval count after each endpoint position; peaks give the
    clique number and d_{2n} returns to 0."""
    return list(accumulate(1 if ch == "0" else -1 for ch in g.endpoint_bits.bit_string()))


def dfs_order(g) -> list[int]:
    """Label order 1..n is a valid depth-first discovery order."""
    return list(range(1, g.n + 1))


def bfs_order(g) -> list[int]:
    """Label order 1..n is a valid breadth-first discovery order."""
    return list(range(1, g.n + 1))


def peo(g) -> list[int]:
    """Left-endpoint order is a perfect elimination ordering."""
    return list(range(1, g.n + 1))


def mis(g) -> list[int]:
    """Maximum independent set: repeatedly take the interval with the
    leftmost right endpoint, then skip everything it intersects.

    The sweep keeps the pending interval with the smallest r; the first
    left endpoint past that r proves no later interval ends sooner, so
    the pending one is committed there."""
    out = []
    best_v = best_r = 0
    for v, (l, r) in enumerate(_intervals(g), start=1):
        if best_v and l > best_r:
            out.append(best_v)
            best_v = 0
        if not best_v or r < best_r:
            best_v, best_r = v, r
    out.append(best_v)
    return out


def mvc(g) -> list[int]:
    """Minimum vertex cover: complement of the independent set."""
    inside = set(mis(g))
    return [v for v in range(1, g.n + 1) if v not in inside]


def max_clique(g) -> CliqueWitness:
    d = build_d_sequence(g)
    cut = d.index(max(d)) + 1
    members = [v for v, (l, r) in enumerate(_intervals(g), start=1) if l <= cut < r]
    return CliqueWitness(cut, tuple(members))


def greedy_coloring(g) -> Coloring:
    """Scan by label, giving each vertex the smallest color missing from
    its earlier neighbors; uses exactly clique-number colors.

    The earlier neighbors of v are the intervals still open at l_v. One
    heap holds (r, color) of the open intervals, another the colors they
    have released; with none released, colors 1..len(open) are all in
    use."""
    colors = []
    open_: list[tuple[int, int]] = []
    free: list[int] = []
    for l, r in _intervals(g):
        while open_ and open_[0][0] < l:
            heapq.heappush(free, heapq.heappop(open_)[1])
        c = heapq.heappop(free) if free else len(open_) + 1
        heapq.heappush(open_, (r, c))
        colors.append(c)
    return Coloring(tuple(colors))
