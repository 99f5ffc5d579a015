"""Restricted interval families: proper (no nesting) and bounded-depth.

A proper family needs only the 2n endpoint bits S, since the v-th right
endpoint is the v-th 1: it keeps no r and no range-max index. Rights
increase with the label, so a neighborhood is two label ranges, found by
one select0, one select1 and one rank, and a spath hop goes to the last
label it reaches.
The bounded-depth structure annotates every endpoint with its interval's
containment depth, which pairs left and right endpoints within each
depth class. The blob stores only that annotation T. In memory the
structure keeps S, the right list (one packed array, as the general
structure keeps it) with the range-max index its queries run on, and
one depth per vertex. A build takes all of them straight
from the realization; T is made from them in one sweep only when it is
saved or asked for. Only a load pairs T's endpoints, class by class,
and it recounts every depth from the right list, which costs
O(n log n + Σ depth) in a sorted list and never more than the O(n log n)
of a Fenwick tree.

In proper mode a label has depth 0 exactly when it ends after every
earlier label, so the depth-0 labels are the prefix maxima of r and the
farthest-reaching label up to any label is the last depth-0 one. With
k < 256 the depths are one byte each, so a spath or succ hop is one rank
on S and one rfind over those bytes, with no range-max call. Improper
mode, and proper mode with k >= 256, hop by range-max as the general
structure does.
"""

from __future__ import annotations

from bisect import bisect
from collections import deque
from itertools import repeat
from operator import and_

from .bitvector import BitVector
from .errors import GraphInputError, NotProperError
from .graph import IntervalQueries, _parity_bits
from .intervals import IntervalRealization
from .rmq import RangeMaxIndex, default_block_size
from .serial import Reader, Writer, check_block_size, uint_array, width_for
from .wavelet import AlphabetSequence

_PROPER_MAGIC = b"SPGR"
_KPROPER_MAGIC = b"SKGR"
_VERSION = 1

MODE_PROPER = "proper"
MODE_IMPROPER = "improper"


def check_proper(real: IntervalRealization) -> None:
    """Raise NotProperError naming the outermost offending pair."""
    best_v = 0
    best_r = 0
    for v, (_, r) in enumerate(real.intervals, start=1):
        if r < best_r:
            raise NotProperError(best_v, v)
        best_v, best_r = v, r


class ProperIntervalGraph(IntervalQueries):
    """2n + o(n)-bit structure for non-nesting realizations."""

    __slots__ = ("_n", "_s")

    def __init__(self, real: IntervalRealization):
        check_proper(real)
        self._build(_parity_bits(real))

    def _build(self, s: BitVector) -> None:
        self._n = len(s) // 2
        self._s = s

    # -- r from S: the v-th right endpoint is the v-th 1 ---------------

    def _r(self, v: int) -> int:
        return self._s.select(1, v)

    def _rights(self) -> list[int]:
        return self._s.positions(1)

    def _farthest(self, k: int, kn: int) -> int:
        # rights increase with the label, so the last label reached ends last
        return kn

    def neighborhood(self, v: int) -> list[int]:
        """Rights increase with the label, so the l_v - v earlier labels
        that end before l_v are the first ones, and the K = 2v - 1 - l_v
        earlier neighbors are the K labels just before v; the later ones
        run to the last label starting before r_v. One select0, one
        select1 and one rank."""
        self._check_vertex(v)
        l = self._s.select(0, v)
        return [*range(l - v + 1, v), *range(v + 1, self._s.rank(0, self._s.select(1, v)) + 1)]

    # -- reporting and serialization ------------------------------------

    def space_report(self) -> dict[str, int]:
        rep = self._s.space_report()
        return {"S": rep["raw"], "S_directory": rep["directory"]}

    def to_bytes(self) -> bytes:
        w = Writer().magic(_PROPER_MAGIC, _VERSION)
        w.u64(self._n)
        w.block(self._s.to_bytes())
        return w.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes) -> "ProperIntervalGraph":
        r = Reader(data)
        r.magic(_PROPER_MAGIC, _VERSION)
        n = r.u64()
        s = BitVector.from_bytes(r.block())
        r.done()
        if len(s) != 2 * n:
            raise GraphInputError("endpoint sequence length disagrees with header")
        g = cls.__new__(cls)
        g._build(s)
        g.realization()  # validates balance and pairing
        return g


def containment_depths(real: IntervalRealization, mode: str) -> list[int]:
    """Per-vertex depth: intervals containing v (proper mode) or
    contained in v (improper mode)."""
    return _depths_from_rights([r for _, r in real.intervals], mode)


def _depths_from_rights(rights: list[int], mode: str) -> list[int]:
    """containment_depths from the rights in label order, which is left
    order: one _earlier_greater sweep either way."""
    if mode == MODE_PROPER:
        # the earlier labels ending after r_v contain v
        return _earlier_greater(rights)
    if mode == MODE_IMPROPER:
        # the later labels ending before r_v lie inside v: in reversed
        # label order they are the earlier ones, and 2n + 1 - r flips
        # "before" into "after"
        top = 2 * len(rights) + 1
        return _earlier_greater([top - r for r in reversed(rights)])[::-1]
    raise GraphInputError(f"unknown depth mode {mode!r}")


# keys the sorted-list sweep may shift, per key, before the tree takes over
_MOVES_PER_KEY = 32


def _earlier_greater(keys: list[int]) -> list[int]:
    """For each of the distinct positive keys, how many earlier keys
    exceed it. The keys seen so far are kept sorted in a list: a key's
    count is how many of them lie past its bisect point, and inserting
    it shifts exactly those. That is O(n log n) comparisons and Σ counts
    moves, all in C; once the moves pass _MOVES_PER_KEY a key, the
    sweep restarts on a Fenwick tree, O(n log n) whatever the keys."""
    budget = _MOVES_PER_KEY * len(keys)
    seen: list[int] = []
    insert = seen.insert
    counts = []
    push = counts.append
    for x in keys:
        i = bisect(seen, x)
        moved = len(seen) - i
        budget -= moved
        if budget < 0:
            return _fenwick_earlier_greater(keys)
        insert(i, x)
        push(moved)
    return counts


def _fenwick_earlier_greater(keys: list[int]) -> list[int]:
    """_earlier_greater from one sweep over a Fenwick tree of the keys seen."""
    m = max(keys)
    tree = [0] * (m + 1)
    counts = []
    for seen, x in enumerate(keys):
        below = 0
        i = x
        while i:
            below += tree[i]
            i &= i - 1
        counts.append(seen - below)
        while x <= m:
            tree[x] += 1
            x += x & -x
    return counts


class KProperGraph(IntervalQueries):
    """Depth-annotated structure: 2n log k + O(n) bits for families where
    every interval is contained by (or contains) at most k others."""

    # _farthest holds the spath hop _build picks: an instance slot, so no
    # hop tests the mode or the depth width again. It closes over the
    # depths or the range-max index, never over the graph, so a dropped
    # graph is freed at once, not by the cyclic collector
    __slots__ = ("_n", "_s", "_depths", "_mode", "_k", "_rlist", "_rmax", "_farthest")

    def __init__(self, real: IntervalRealization, mode: str = MODE_PROPER):
        rights = [r for _, r in real.intervals]
        self._build(_parity_bits(real), rights, _depths_from_rights(rights, mode), mode)

    def _build(self, s: BitVector, rights: list[int], depths: list[int], mode: str) -> None:
        self._n = len(rights)
        self._s = s
        self._index_rights(rights)
        self._k = max(depths)
        self._mode = mode
        if mode == MODE_PROPER and self._k < 256:
            self._depths = bytes(depths)
            self._farthest = _last_outermost(self._depths)
        else:
            self._depths = uint_array(depths, self._k)
            self._farthest = _range_max_hop(self._rmax)

    # -- depth reporting -------------------------------------------------

    @property
    def k(self) -> int:
        return self._k

    @property
    def mode(self) -> str:
        return self._mode

    def depth_of(self, v: int) -> int:
        self._check_vertex(v)
        return self._depths[v - 1]

    def depth_classes(self) -> list[list[int]]:
        """Labels by depth from one pass over the depths."""
        classes: list[list[int]] = [[] for _ in range(self._k + 1)]
        for v, d in enumerate(self._depths, start=1):
            classes[d].append(v)
        return classes

    def _symbols(self) -> list[int]:
        return _depth_symbols(zip(self._s.positions(0), self._rlist), self._depths)

    @property
    def annotation(self) -> AlphabetSequence:
        """T, the depth-annotated endpoint sequence, rebuilt on demand."""
        return AlphabetSequence(self._symbols(), 2 * self._k + 2)

    # -- reporting and serialization ------------------------------------

    def space_report(self) -> dict[str, int]:
        s_rep = self._s.space_report()
        return {
            "depths": self._n * width_for(self._k),
            "S": s_rep["raw"],
            "S_directory": s_rep["directory"],
            "rmax_directory": self._rmax.space_bits(),
        }

    def to_bytes(self) -> bytes:
        w = Writer().magic(_KPROPER_MAGIC, _VERSION)
        w.u64(self._n).u8(0 if self._mode == MODE_PROPER else 1)
        w.u32(default_block_size(self._n))
        w.block(AlphabetSequence.encode(self._symbols(), 2 * self._k + 2))
        return w.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes) -> "KProperGraph":
        r = Reader(data)
        r.magic(_KPROPER_MAGIC, _VERSION)
        n = r.u64()
        mode = (MODE_PROPER, MODE_IMPROPER)[r.flag("depth mode")]
        check_block_size(r.u32(), default_block_size(n))
        symbols, sigma = AlphabetSequence.decode(r.block())
        r.done()
        if len(symbols) != 2 * n:
            raise GraphInputError("annotation length disagrees with header")
        if not n:
            raise GraphInputError("realization needs at least one interval")
        # _pair allocates one queue per depth class
        if sigma > 2 * n:
            raise GraphInputError(f"depth alphabet of {sigma} exceeds {n} depth classes")
        k = max(symbols) >> 1
        if sigma != 2 * k + 2:
            raise GraphInputError("depth alphabet must end at the deepest class")
        s = BitVector(map(and_, symbols, repeat(1)))
        if s.count(0) != n:
            raise GraphInputError(f"annotation must hold {n} left endpoints")
        # _pair has matched every right to an earlier left, and labels
        # follow left order, so the endpoints form a realization already
        rights, depths = _pair(symbols, n, k)
        if _depths_from_rights(rights, mode) != depths:
            raise GraphInputError("annotation depths disagree with the realization")
        g = cls.__new__(cls)
        g._build(s, rights, depths, mode)
        return g


def _last_outermost(depths: bytes):
    """The proper-mode hop over one-byte depths: _farthest(k, kn) is the
    last depth-0 label up to kn.

    A depth-0 label ends after every earlier label, since one of those
    ending after it would contain it; a label of depth d > 0 ends before
    some earlier one. So the depth-0 labels are the prefix maxima of r,
    and the last of them up to kn holds the largest r over 1..kn. Label 1
    has depth 0, so the search always finds one. r values are distinct,
    so this is the label a range-max returns; if it lies at or before k,
    it is the caller's own vertex, which the caller sees as no advance.
    One C-level rfind, no range-max.
    """
    rfind = depths.rfind

    def last_outermost(k: int, kn: int) -> int:
        return rfind(0, 0, kn) + 1

    return last_outermost


def _range_max_hop(rmax: RangeMaxIndex):
    """IntervalQueries._farthest over rmax, the index of the graph's r:
    one range-max over the labels k + 1..kn."""

    def range_max_hop(k: int, kn: int) -> int:
        return rmax.query(k + 1, kn)

    return range_max_hop


def _pair(symbols: list[int], n: int, k: int) -> tuple[list[int], list[int]]:
    """The rights and depths of T's n intervals, whose deepest class is k:
    within one depth class the i-th left matches the i-th right."""
    pending = [deque() for _ in range(k + 1)]
    rights = [0] * n
    depths = [0] * n
    v = 0
    for p, sym in enumerate(symbols, start=1):
        if sym & 1:
            waiting = pending[sym >> 1]
            if not waiting:
                raise GraphInputError(f"unmatched right endpoint at position {p}")
            rights[waiting.popleft()] = p
        else:
            pending[sym >> 1].append(v)
            depths[v] = sym >> 1
            v += 1
    if any(pending):
        raise GraphInputError("unmatched left endpoints in annotation")
    return rights, depths


def _depth_symbols(intervals, depths) -> list[int]:
    """T from (l, r) in label order and depth d: 2d at l, 2d + 1 at r."""
    symbols = [0] * (2 * len(depths))
    for (l, r), d in zip(intervals, depths):
        symbols[l - 1] = 2 * d
        symbols[r - 1] = 2 * d + 1
    return symbols
