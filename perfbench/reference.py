"""Reference answers computed from the generated realization alone.

Nothing here touches a structure under test: degrees come from sorted
endpoint ranks (plus an offline dominance count for arcs), adjacency and
neighborhoods from the intervals or arcs, and linear shortest-path
lengths from a greedy reach array.
"""

from __future__ import annotations

import functools
from bisect import bisect_left


class Fenwick:
    __slots__ = ("_t",)

    def __init__(self, size: int):
        self._t = [0] * (size + 1)

    def add(self, i: int) -> None:
        t = self._t
        while i < len(t):
            t[i] += 1
            i += i & -i

    def prefix(self, i: int) -> int:
        t = self._t
        s = 0
        while i > 0:
            s += t[i]
            i -= i & -i
        return s


def dominance_counts(points, queries, size: int) -> list[int]:
    """For each query (x, y), the number of points (a, b) with a > x and
    b < y; coordinates are in [1, size]."""
    points = sorted(points, reverse=True)
    order = sorted(range(len(queries)), key=lambda i: -queries[i][0])
    fw = Fenwick(size)
    out = [0] * len(queries)
    p = 0
    for qi in order:
        x, y = queries[qi]
        while p < len(points) and points[p][0] > x:
            fw.add(points[p][1])
            p += 1
        out[qi] = fw.prefix(y - 1)
    return out


class Linear:
    """Reference for an interval realization (vertices by left endpoint)."""

    def __init__(self, real):
        self.n = n = real.n
        self.l = [0] + [a for a, _ in real.intervals]
        self.r = [0] + [b for _, b in real.intervals]
        self.lefts = self.l[1:]
        self.rights_sorted = sorted(self.r[1:])
        self.max_len = max(b - a for a, b in real.intervals)
        # reach[p]: farthest right endpoint among intervals starting before p
        right_at_left = [0] * (2 * n + 2)
        for a, b in real.intervals:
            right_at_left[a] = b
        reach = [0] * (2 * n + 2)
        best = 0
        for p in range(1, 2 * n + 2):
            reach[p] = best
            if right_at_left[p] > best:
                best = right_at_left[p]
        self.reach = reach

    def degree(self, v: int) -> int:
        return (bisect_left(self.lefts, self.r[v])
                - bisect_left(self.rights_sorted, self.l[v]) - 1)

    def adjacent(self, u: int, v: int) -> bool:
        return u != v and self.l[u] < self.r[v] and self.l[v] < self.r[u]

    def neighborhood(self, v: int) -> list[int]:
        lv, r = self.l[v], self.r
        lo = bisect_left(self.lefts, lv - self.max_len) + 1
        hi = bisect_left(self.lefts, r[v])
        return [u for u in range(lo, hi + 1) if r[u] > lv and u != v]

    def distance(self, u: int, v: int):
        """Edges on a shortest u-v path, or None when disconnected."""
        if u == v:
            return 0
        if u > v:
            u, v = v, u
        lv = self.l[v]
        front = self.r[u]
        hops = 1
        while front < lv:
            nxt = self.reach[front]
            if nxt <= front:
                return None
            front = nxt
            hops += 1
        return hops

    def path_ok(self, path, u: int, v: int) -> bool:
        if not path or path[0] != u or path[-1] != v:
            return False
        if len(path) - 1 != self.distance(u, v):
            return False
        return all(self.adjacent(a, b) for a, b in zip(path, path[1:]))

    def connected(self) -> bool:
        reach, l = self.reach, self.l
        return all(reach[l[v]] > l[v] for v in range(2, self.n + 1))

    def edge_count(self) -> int:
        return sum(self.degree(v) for v in range(1, self.n + 1)) // 2

    def max_containment_depth(self) -> int:
        """Largest number of intervals containing one interval."""
        fw = Fenwick(2 * self.n)
        best = 0
        for v in range(1, self.n + 1):
            rv = self.r[v]
            depth = (v - 1) - fw.prefix(rv)
            if depth > best:
                best = depth
            fw.add(rv)
        return best

    @functools.cached_property
    def clique_number(self) -> int:
        events = sorted([(a, 1) for a in self.lefts] + [(b, -1) for b in self.r[1:]])
        best = cur = 0
        for _, d in events:
            cur += d
            best = max(best, cur)
        return best

    @functools.cached_property
    def mis_size(self) -> int:
        count = 0
        last = 0
        for b, a in sorted(zip(self.r[1:], self.lefts)):
            if a > last:
                count += 1
                last = b
        return count

    def independent(self, verts) -> bool:
        vs = sorted(verts)
        return all(self.r[a] < self.l[b] for a, b in zip(vs, vs[1:]))

    def mis_ok(self, out) -> bool:
        return (len(set(out)) == len(out) == self.mis_size
                and all(1 <= v <= self.n for v in out) and self.independent(out))

    def mvc_ok(self, cover, mis_out) -> bool:
        return sorted(set(range(1, self.n + 1)) - set(mis_out)) == sorted(cover)

    def clique_ok(self, witness) -> bool:
        cut = witness.cut
        return (witness.size == self.clique_number
                and all(self.l[v] <= cut < self.r[v] for v in witness.members))

    def coloring_ok(self, colors) -> bool:
        """Proper, and uses exactly the clique number of colors (greedy in
        left-endpoint order is optimal on interval graphs)."""
        if len(colors) != self.n or min(colors) < 1:
            return False
        at = {}
        for v in range(1, self.n + 1):
            at[self.l[v]] = v
            at[self.r[v]] = -v
        open_colors = set()
        for p in range(1, 2 * self.n + 1):
            v = at[p]
            if v > 0:
                c = colors[v - 1]
                if c in open_colors:
                    return False
                open_colors.add(c)
            else:
                open_colors.discard(colors[-v - 1])
        return max(colors) == self.clique_number


class Circular:
    """Reference for an arc realization; arcs with l > r wrap past 2n."""

    def __init__(self, real):
        self.n = n = real.n
        self.l = [0] + [a for a, _ in real.arcs]
        self.r = [0] + [b for _, b in real.arcs]
        self.normal = [v for v in range(1, n + 1) if self.l[v] < self.r[v]]
        self.wrapped = [v for v in range(1, n + 1) if self.l[v] > self.r[v]]
        self.normal_lefts = [self.l[v] for v in self.normal]
        self.normal_rights_sorted = sorted(self.r[v] for v in self.normal)
        self._degrees = None

    def _pieces(self, v):
        a, b = self.l[v], self.r[v]
        if a < b:
            return ((a, b),)
        return ((a, 2 * self.n + 1), (0, b))

    def adjacent(self, u: int, v: int) -> bool:
        if u == v:
            return False
        return any(a < d and c < b for a, b in self._pieces(u) for c, d in self._pieces(v))

    def degrees(self) -> list[int]:
        """All degrees, index 1..n; cached.

        A normal arc [a, b] meets every normal arc with l < b except those
        ending before a, and every wrapped arc except those lying inside
        the gap (b, a) of the circle outside it; a wrapped arc meets every
        other wrapped arc and every normal arc outside its gap (b, a).
        Gap counts are offline dominance counts.
        """
        if self._degrees is not None:
            return self._degrees
        n, l, r = self.n, self.l, self.r
        size = 2 * n
        w_pts = [(l[u], r[u]) for u in self.wrapped]
        n_pts = [(l[u], r[u]) for u in self.normal]
        in_gap_w = dominance_counts(w_pts, [(r[v], l[v]) for v in self.normal], size)
        in_gap_n = dominance_counts(n_pts, [(r[v], l[v]) for v in self.wrapped], size)
        deg = [0] * (n + 1)
        nw = len(self.wrapped)
        for v, gap in zip(self.normal, in_gap_w):
            normals = (bisect_left(self.normal_lefts, r[v])
                       - bisect_left(self.normal_rights_sorted, l[v]) - 1)
            deg[v] = normals + nw - gap
        for v, gap in zip(self.wrapped, in_gap_n):
            deg[v] = (len(self.normal) - gap) + nw - 1
        self._degrees = deg
        return deg

    def degree(self, v: int) -> int:
        return self.degrees()[v]

    def neighborhood(self, v: int) -> list[int]:
        a, b = self.l[v], self.r[v]
        l, r = self.l, self.r
        if a < b:
            hi = bisect_left(self.normal_lefts, b)
            out = [u for u in self.normal[:hi] if r[u] > a and u != v]
            out += [u for u in self.wrapped if not (l[u] > b and r[u] < a)]
        else:
            out = [u for u in self.normal if not (l[u] > b and r[u] < a)]
            out += [u for u in self.wrapped if u != v]
        out.sort()
        return out

    def path_ok(self, path, u: int, v: int) -> bool:
        if not path or path[0] != u or path[-1] != v:
            return False
        if len(set(path)) != len(path):
            return False
        return all(self.adjacent(a, b) for a, b in zip(path, path[1:]))

    def edge_count(self) -> int:
        return sum(self.degrees()) // 2
