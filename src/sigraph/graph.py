"""Succinct interval-graph representation and its navigational queries.

Vertices are 1..n in increasing left-endpoint order. The structure keeps
the 2n-bit endpoint-kind sequence S (0 marks a left endpoint), the right
endpoints r_1..r_n, and a range-max index over r, all built from the
realization alone: raw S and r enter only through the validating
from_bytes. S is a BitVector, whose words and directory are C arrays.
r is one packed unsigned array of the narrowest typecode that holds 2n
(serial.uint_array), and the range-max index reads that array in place;
IntervalQueries._index_rights builds both, for every structure that
keeps r. All of degree, adjacent and succ are constant-time: degree
makes one select and one rank on S, adjacent one rank. Labels follow
left-endpoint order, so l_v < r_u exactly when S.rank(0, r_u) >= v, and
adjacency never looks up a left endpoint. Neighborhood reports the later
neighbors as one label range. Its K = 2v - 1 - l_v earlier neighbors are
counted by the select that finds l_v, so their search is one scan of at
most 2K labels ending at v - 1, plus at most 2m - 1 range-max calls for
the m of them that scan missed: O(degree) time. Spath walks the
one-ended greedy succ chain; each hop makes one rank and one _farthest
call, by default one range-max over the labels it newly reaches, so a
path costs O(path length) primitive calls. A structure that knows more
about r overrides these: a proper family keeps no r at all, so its
earlier neighbors are the K labels just before v and its hop is the
last label reached (variants.ProperIntervalGraph), and a proper-mode
KProperGraph finds the prefix maxima of r among its depths.
"""

from __future__ import annotations

from typing import Sequence

from .bitvector import BitVector
from .errors import GraphInputError, QueryRangeError
from .intervals import IntervalRealization
from .rmq import RangeMaxIndex, default_block_size
from .serial import (
    Reader,
    Writer,
    check_block_size,
    pack_uints,
    uint_array,
    unpack_uints,
    width_for,
)

_MAGIC = b"SIGR"
_VERSION = 1


def _parity_bits(real: IntervalRealization) -> BitVector:
    """S of a realization: 0 at every left endpoint, 1 at every right."""
    bits = bytearray(b"\x01") * (2 * real.n)
    for l, _ in real.intervals:
        bits[l - 1] = 0
    return BitVector(bits)


def report_above(pick_max, values, lo: int, hi: int, threshold: int, count: int, out: list):
    """Append, in increasing order, the count positions x in [lo, hi]
    whose value values[x - 1] exceeds threshold; the caller knows count.
    The linear structures that keep r report their earlier neighbors
    this way.

    One slice comprehension scans the window of at most 2 * count
    positions ending at hi, which is the whole range when the range is
    that short. The m = count - (window hits) positions the window
    missed lie before it, and search_above finds them on the range-max
    index pick_max. So the cost is one scan of at most 2 * count values
    plus at most max(0, 2m - 1) range-max calls; a count of 0 reads
    nothing. A circular neighborhood takes a window of 64 ranks per hit
    instead, flagged in bytes word-parallel (circular.flags_above), so
    its recursion runs only for hits sparser than that; it marks every
    hit in a byte mask over its family's ranks (a family sparser than
    one hit per 64 ranks lists its ranks instead), so only search_above
    is shared.
    """
    if count <= 0:
        return
    a = max(lo, hi - 2 * count + 1)
    window = [x for x, val in enumerate(values[a - 1:hi], a) if val > threshold]
    missing = count - len(window)
    if missing > 0 and lo < a:
        found = search_above(pick_max, values, lo, a - 1, threshold, missing)
        found.sort()
        out.extend(found)
    out.extend(window)


def search_above(pick_max, values, lo: int, hi: int, threshold: int, missing: int) -> list[int]:
    """Up to missing positions x in [lo, hi] whose value values[x - 1]
    exceeds threshold, in the order a range-max recursion finds them: if
    the maximum of a range clears the bar, report it and split, otherwise
    that range is exhausted. Stopping at the missing-th hit, it makes at
    most max(0, 2 * missing - 1) pick_max calls when [lo, hi] holds that
    many hits, the caller's count."""
    found = []
    stack = [(lo, hi)]
    while stack:
        i, j = stack.pop()
        m = pick_max(i, j)
        if values[m - 1] > threshold:
            found.append(m)
            if len(found) == missing:
                break
            if i < m:
                stack.append((i, m - 1))
            if m < j:
                stack.append((m + 1, j))
    return found


class Structure:
    """What all five structures share, linear and circular alike: the
    vertex count n and its label check, the space total over
    space_report(), pickling and copying through to_bytes() and the
    validating from_bytes(), which every concrete class provides, and
    from_realization, the one constructor, which passes its arguments on
    to the class."""

    __slots__ = ()

    _n: int

    @property
    def n(self) -> int:
        return self._n

    def _check_vertex(self, v: int) -> None:
        if not 1 <= v <= self._n:
            raise QueryRangeError(f"vertex {v} outside [1, {self._n}]")

    def space_bits(self) -> int:
        return sum(self.space_report().values())

    def __reduce__(self):
        # pickle and deepcopy go through the blob and the validating
        # loader, never through the packed arrays or hop closures
        return type(self).from_bytes, (self.to_bytes(),)

    @classmethod
    def from_realization(cls, real, *args, **kwargs):
        return cls(real, *args, **kwargs)


class IntervalQueries(Structure):
    """Query layer shared by every linear-interval representation.

    Every query reads the endpoint sequence S and r. The hooks here read
    r from _rlist, the packed array of r in label order, and search it
    on its range-max index _rmax; a class that derives r from S keeps
    neither, and overrides _r, _rights, _farthest and neighborhood.
    """

    __slots__ = ()

    _s: BitVector
    _rlist: Sequence[int]
    _rmax: RangeMaxIndex

    @property
    def endpoint_bits(self) -> BitVector:
        return self._s

    # -- hooks -----------------------------------------------------------

    def _r(self, v: int) -> int:
        return self._rlist[v - 1]

    def _rights(self) -> list[int]:
        return self._rlist

    def _farthest(self, k: int, kn: int) -> int:
        """A label among 1..kn holding the largest r there, given that
        the caller's current vertex already holds the largest r over
        1..k: one range-max over the labels k + 1..kn."""
        return self._rmax.query(k + 1, kn)

    def _index_rights(self, rights) -> None:
        """Keep r, the n rights in label order, packed in one unsigned
        array as _rlist, and index that array in place as _rmax."""
        self._rlist = packed = uint_array(rights, 2 * self._n)
        self._rmax = RangeMaxIndex(packed, default_block_size(self._n))

    def interval_of(self, v: int) -> tuple[int, int]:
        self._check_vertex(v)
        return self._s.select(0, v), self._r(v)

    def realization(self) -> IntervalRealization:
        """All intervals in one sweep over S; the realization's own
        invariants then check the pairing, so the interval and proper
        loaders call this on untrusted input (the depth-annotated one
        pairs its endpoints itself)."""
        lefts = self._s.positions(0)
        if len(lefts) != self._n:
            raise GraphInputError(
                f"endpoint sequence holds {len(lefts)} left endpoints, expected {self._n}"
            )
        return IntervalRealization(tuple(zip(lefts, self._rights())))

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        # intervals starting before r_v, less those ending before l_v
        # (l_v less the v lefts up to it), less v itself
        return self._s.rank(0, self._r(v)) - (self._s.select(0, v) - v) - 1

    def adjacent(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            return False
        if u > v:
            u, v = v, u
        # l_u < l_v, so the two meet exactly when u ends past l_v, that
        # is, when v is among the intervals starting before r_u
        return self._s.rank(0, self._r(u)) >= v

    def neighborhood(self, v: int) -> list[int]:
        self._check_vertex(v)
        # an earlier label is a neighbor when it ends past l_v: of the v - 1
        # earlier labels, the l_v - v rights before l_v end too soon. Every
        # later label up to the last one starting before r_v starts inside v
        l = self._s.select(0, v)
        out: list[int] = []
        report_above(self._rmax.query, self._rlist, 1, v - 1, l, 2 * v - 1 - l, out)
        out.extend(range(v + 1, self._s.rank(0, self._r(v)) + 1))
        return out

    def succ(self, u: int) -> int:
        """Neighbor with the farthest right endpoint among intervals
        starting before r_u; u itself when nothing reaches farther. One
        rank and one _farthest call."""
        self._check_vertex(u)
        return self._farthest(0, self._s.rank(0, self._r(u)))

    def spath(self, u: int, v: int):
        """A shortest u-v path, or None when they are disconnected.

        Walks the greedy succ chain up from the smaller label. The current
        vertex already holds the maximum r over the labels searched so
        far, so each hop searches only the labels it newly reaches: one
        rank and one _farthest call, which by default is one range-max.
        The chain stays below v, so it is adjacent to v exactly when
        r_cur > l_v.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            return [u]
        swapped = u > v
        if swapped:
            u, v = v, u
        lv = self._s.select(0, v)
        rc = self._r(u)
        path = [u]
        k = 0
        rank = self._s.rank
        farthest = self._farthest
        while rc < lv:
            kn = rank(0, rc)
            if kn == k:
                return None
            i = farthest(k, kn)
            ri = self._r(i)
            if ri <= rc:
                return None
            path.append(i)
            rc, k = ri, kn
        path.append(v)
        if swapped:
            path.reverse()
        return path


class SuccinctIntervalGraph(IntervalQueries):
    """n log n + O(n)-bit interval-graph structure over a realization."""

    __slots__ = ("_n", "_s", "_rlist", "_rmax")

    def __init__(self, real: IntervalRealization):
        self._build(_parity_bits(real), [r for _, r in real.intervals])

    def _build(self, s: BitVector, rights: list[int]) -> None:
        self._n = len(rights)
        self._s = s
        self._index_rights(rights)

    # -- reporting and serialization ------------------------------------

    def space_report(self) -> dict[str, int]:
        s_rep = self._s.space_report()
        return {
            "S": s_rep["raw"],
            "S_directory": s_rep["directory"],
            "r": self._n * width_for(2 * self._n),
            "rmax_directory": self._rmax.space_bits(),
        }

    def to_bytes(self) -> bytes:
        w = Writer().magic(_MAGIC, _VERSION)
        w.u64(self._n).u32(default_block_size(self._n))
        w.block(self._s.to_bytes())
        w.block(pack_uints(self._rlist, width_for(2 * self._n)))
        return w.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes) -> "SuccinctIntervalGraph":
        r = Reader(data)
        r.magic(_MAGIC, _VERSION)
        n = r.u64()
        check_block_size(r.u32(), default_block_size(n))
        s = BitVector.from_bytes(r.block())
        rights = unpack_uints(r.block(), n, width_for(2 * n))
        r.done()
        if len(s) != 2 * n:
            raise GraphInputError("endpoint sequence and right list disagree")
        g = cls.__new__(cls)
        g._build(s, rights)
        g.realization()  # full invariant check on untrusted input
        return g
