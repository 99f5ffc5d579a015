"""Brute-force reference answers for tests and the verify subcommand.

Adjacency lives in per-vertex integer bitmasks (bit v set means adjacent
to vertex v; vertices are 1-based, bit 0 unused), which keeps the n^2 and
exponential checks fast enough for property testing.
"""

from __future__ import annotations

import bisect
from functools import lru_cache
from itertools import compress, count

from .errors import GraphInputError
from .intervals import IntervalRealization

_EXHAUSTIVE_LIMIT = 20
_POLY_LIMIT = 1000


class OracleGraph:
    __slots__ = ("n", "rows", "_full")

    def __init__(self, n: int, rows: list[int]):
        self.n = n
        self.rows = rows
        self._full = ((1 << (n + 1)) - 1) & ~1

    @classmethod
    def of(cls, real) -> "OracleGraph":
        """The oracle of an IntervalRealization or an ArcRealization."""
        if isinstance(real, IntervalRealization):
            return cls.from_intervals(real)
        return cls.from_arc_positions(real.arcs)

    @classmethod
    def from_intervals(cls, real) -> "OracleGraph":
        n = real.n
        iv = real.intervals
        rows = [0] * (n + 1)
        for u in range(1, n + 1):
            lu, ru = iv[u - 1]
            for v in range(u + 1, n + 1):
                lv, rv = iv[v - 1]
                if lu <= rv and lv <= ru:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
        return cls(n, rows)

    @classmethod
    def from_arc_positions(cls, arcs) -> "OracleGraph":
        """Arcs as (l, r) positions in 1..2n; l > r wraps past position 2n."""
        arcs = list(arcs)
        n = len(arcs)
        span = 2 * n
        covers = [0]
        for l, r in arcs:
            if l < r:
                mask = ((1 << (r + 1)) - 1) & ~((1 << l) - 1)
            else:
                mask = (((1 << (span + 1)) - 1) & ~((1 << l) - 1)) | (
                    ((1 << (r + 1)) - 1) & ~1
                )
            covers.append(mask)
        rows = [0] * (n + 1)
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                if covers[u] & covers[v]:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
        return cls(n, rows)

    # -- basic queries ---------------------------------------------------

    def adjacent(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def neighborhood(self, v: int) -> list[int]:
        return _bits(self.rows[v])

    # -- distances -------------------------------------------------------

    def dists_from(self, u: int):
        """BFS distances; None for unreachable vertices."""
        dist = [None] * (self.n + 1)
        frontier = 1 << u
        visited = frontier
        d = 0
        while frontier:
            nxt = 0
            for w in _bits(frontier):
                dist[w] = d
                nxt |= self.rows[w]
            frontier = nxt & ~visited & self._full
            visited |= frontier
            d += 1
        return dist

    def bfs_dist(self, u: int, v: int):
        return self.dists_from(u)[v]

    # -- order validity --------------------------------------------------

    def _is_perm(self, order) -> bool:
        return sorted(order) == list(range(1, self.n + 1))

    def valid_dfs(self, order) -> bool:
        """Simulate the stack: each new vertex must extend the deepest
        still-expandable vertex; restarts only on an empty stack."""
        if not self._is_perm(order):
            return False
        visited = 0
        stack = []
        for w in order:
            unvisited = self._full & ~visited
            while stack and not (self.rows[stack[-1]] & unvisited):
                stack.pop()
            if stack and not self.adjacent(stack[-1], w):
                return False
            if not stack and self.rows[w] & visited:
                # w has a visited neighbor, so some stack vertex should
                # have reached it before the component was abandoned
                return False
            visited |= 1 << w
            stack.append(w)
        return True

    def valid_bfs(self, order) -> bool:
        """Queue analog: each new vertex must attach to the earliest
        discovered vertex that still has undiscovered neighbors."""
        if not self._is_perm(order):
            return False
        visited = 0
        p = 0
        for i, w in enumerate(order):
            unvisited = self._full & ~visited
            while p < i and not (self.rows[order[p]] & unvisited):
                p += 1
            if p < i:
                if not self.adjacent(order[p], w):
                    return False
            elif self.rows[w] & visited:
                return False
            visited |= 1 << w
        return True

    def is_peo(self, order) -> bool:
        """Earlier neighbors of each vertex must form a clique."""
        if not self._is_perm(order):
            return False
        seen = 0
        for w in order:
            earlier = self.rows[w] & seen
            m = earlier
            while m:
                low = m & -m
                u = low.bit_length() - 1
                if earlier & ~self.rows[u] & ~low:
                    return False
                m ^= low
            seen |= 1 << w
        return True

    # -- set predicates --------------------------------------------------

    def is_independent(self, vertices) -> bool:
        mask = 0
        for v in vertices:
            mask |= 1 << v
        return all(not (self.rows[v] & mask) for v in vertices)

    def is_clique(self, vertices) -> bool:
        mask = 0
        for v in vertices:
            mask |= 1 << v
        return all((mask & ~self.rows[v] & ~(1 << v)) == 0 for v in vertices)

    def is_vertex_cover(self, vertices) -> bool:
        mask = 0
        for v in vertices:
            mask |= 1 << v
        for u in range(1, self.n + 1):
            if not (mask >> u) & 1 and self.rows[u] & ~mask:
                return False
        return True

    # -- exhaustive searches (small n) -----------------------------------

    def mis_size_exhaustive(self) -> int:
        if self.n > _EXHAUSTIVE_LIMIT:
            raise GraphInputError(f"exhaustive search capped at n={_EXHAUSTIVE_LIMIT}")
        return _mis_of_rows(tuple(self.rows), self._full)

    def clique_size_exhaustive(self) -> int:
        if self.n > _EXHAUSTIVE_LIMIT:
            raise GraphInputError(f"exhaustive search capped at n={_EXHAUSTIVE_LIMIT}")
        comp = [0] * (self.n + 1)
        for v in range(1, self.n + 1):
            comp[v] = self._full & ~self.rows[v] & ~(1 << v)
        return _mis_of_rows(tuple(comp), self._full)


def _bits(mask: int) -> list[int]:
    """The set bits of a nonnegative mask, ascending: bin(mask) read from
    its last digit, which is bit 0, keeping the positions of its "1"s.
    One C-level pass; popping the low bit would rebuild the whole int
    once per set bit."""
    return list(compress(count(), map("1".__eq__, reversed(bin(mask)))))


def _mis_of_rows(rows: tuple[int, ...], full: int) -> int:
    @lru_cache(maxsize=None)
    def go(cand: int) -> int:
        if not cand:
            return 0
        low = cand & -cand
        v = low.bit_length() - 1
        rest = cand ^ low
        return max(go(rest), 1 + go(rest & ~rows[v]))

    return go(full)


def mis_size_dp(real) -> int:
    """Maximum independent set size by the interval scheduling recurrence."""
    n = real.n
    if n > _POLY_LIMIT:
        raise GraphInputError(f"DP oracle capped at n={_POLY_LIMIT}")
    by_right = sorted(real.intervals, key=lambda p: p[1])
    rights = [r for _, r in by_right]
    best = [0] * (n + 1)
    for i, (l, r) in enumerate(by_right, start=1):
        # closed intervals: compatible predecessors end strictly before l
        j = bisect.bisect_left(rights, l)
        best[i] = max(best[i - 1], best[j] + 1)
    return best[n]
