"""Combinatorial algorithms running directly on the succinct structures.

Each algorithm reads the endpoints once: the left endpoints are the 0
positions of S and the hook _rights lists every r_v in label order, so
the same code serves the plain, proper and k-proper representations.
None of them makes a rank, select, range-max or neighborhood call.

Three are whole-sequence C-level passes with no per-position Python
step: build_d_sequence translates S's text to +1/-1 steps and runs one
accumulate; max_clique reads the cut off d and compresses the labels
that start by it against their rights; mvc compresses the labels
through a mask cleared at the independent set. Only mis and
greedy_coloring keep a Python sweep. Everything runs in O(n) time,
except greedy_coloring, which keeps two heaps and runs in O(n log n).
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass
from itertools import accumulate, compress, count, islice

# S's text as steps of the open-interval count: '0' opens, '1' closes
_STEPS = bytes.maketrans(b"01", b"\x01\xff")


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
    steps = array("b", g.endpoint_bits.bit_string().encode("ascii").translate(_STEPS))
    return list(accumulate(steps))


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
    for v, l, r in zip(count(1), g.endpoint_bits.positions(0), g._rights()):
        if best_v and l > best_r:
            out.append(best_v)
            best_v = 0
        if not best_v or r < best_r:
            best_v, best_r = v, r
    out.append(best_v)
    return out


def mvc(g) -> list[int]:
    """Minimum vertex cover: complement of the independent set."""
    outside = bytearray(b"\x01") * g.n
    for v in mis(g):
        outside[v - 1] = 0
    return list(compress(range(1, g.n + 1), outside))


def max_clique(g) -> CliqueWitness:
    """The intervals open at the first peak of d. Up to that cut S holds
    cut endpoints of which d[cut - 1] more are lefts than rights, so the
    labels 1..m starting at or before it number m = (cut + d[cut - 1]) / 2;
    the members are those of them whose right lies past the cut."""
    d = build_d_sequence(g)
    cut = d.index(max(d)) + 1
    m = (cut + d[cut - 1]) // 2
    members = compress(range(1, m + 1), map(cut.__lt__, islice(g._rights(), m)))
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
