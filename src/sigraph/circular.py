"""Circular-arc graphs: anchored realizations and the succinct structure.

Arcs live on a circle of 2n endpoint positions. One anchor arc starts the
clockwise traversal at position 1; an arc whose start lies after its end
crosses the anchor point and is called reversed. Every reversed arc
covers the wrap position, so reversed arcs pairwise intersect.

The structure splits arcs into the normal family (an interval system)
and the reversed family. The four-symbol endpoint sequence S' (family x
side) factors into three plain bitvectors carrying the same information:
the parity vector S marking right endpoints, a family vector over left
endpoints in label order, and a family vector over right endpoints in
position order. Every S' rank or select is then one or two plain
bitvector operations. On top sit the right-endpoint lists with range-max
indexes for reporting, each list's records for paths, and a degree
table, so degree is one read. A build and a load both count the table
in one sweep over S' with two position counters, reversed gaps opened
and normal arcs ended. Each keeps its marks as one int per block of
positions and a Fenwick tree over the block counts, so a prefix count is
one popcount plus a few tree steps: O(n log n) in all.

Every per-arc array is a packed C array. Each bitvector keeps its words
and its directory in arrays, and a build makes all three from S' as
bytes, one C-level translate each. The right-endpoint lists, _rp of
the normal family and _rpp of the reversed one, are packed unsigned
arrays of the narrowest typecode that holds 2n, and each range-max index
reads its list in place. The degree table is packed the same way.

Adjacency and spath never select on S. Labels follow start order, so a
right endpoint r lies past l_v exactly when S.rank(0, r) >= v. An
adjacency test reads at most two families (one access each) and two
right endpoints (one family rank each), and compares each by one rank:
at most 2 accesses and 4 ranks. A spath makes that test first, then
walks heads (label, r, reversed, k), where k = S.rank(0, r) is ranked
once, when the head is made: a hop's meet test makes no rank. Its
greedy successor is the farthest-reaching arc among labels 1..k and the
reversed arcs, a prefix maximum of a family's right endpoints, so it is
that family's last record (an arc whose end beats every earlier one in
its family) at or before label k. The reversed records are kept as
labels with their ends; the normal ones as ranks, which equal labels
whenever a hop reads them, since a hop reads them only when no reversed
arc starts before r. So a hop is one or two bisects in C, at most one
value, and one rank for the new head's k: no select and no range-max
call. The farthest reversed arc overall is the last reversed record. A
reversed head would exclude itself, but it ends at the frontier, and a
hop takes only an arc ending strictly past it.

The one constructor builds all of it from an ArcRealization; both
range-max indexes take the block size derived from the normal family's
size, and each lists its list's records from its block leaders. A blob
holds that block size, S' and the right-endpoint lists, never the
records or the degree table; a load checks the block size, pairs each
start in S' with the next end of its family's list, lets ArcRealization
check the pairing, and compares the S' those arcs give with the decoded
one.

A neighborhood marks each family's hits in one byte mask over the
family's ranks, from its first hit to its last, while they number at
least one per 64 of those ranks, and turns the mask into labels with
one select_marked on the left family vector. Known runs of hits are
slice assignments of ones, a range-max report's window is one flag byte
per rank, and each hit of its range-max recursion sets one byte. A
family whose hits are sparser lists its ranks and selects each of them
instead, so no mask holds more than 64 bytes per hit. A masked family
costs two selects, one pass over the words its hits span and one
compress of those positions, as long as the hits number at least one
per word; a sparser family takes one select per hit instead. So a
neighborhood makes at most 5 selects, one in the decode and two per
family, and one sort merges the two families' sorted labels. Each
range-max report knows its hit count beforehand: a normal arc's
earlier normal hits are its earlier normal arcs less the normal rights
before its start (two ranks), and the other family's report holds the
degree less the hits already known. So a report reads one window of at
most 64 * count values ending at its range's top, the same 64 ranks per
hit that bound a mask, word-parallel when it holds at least 64
(flags_above). Only hits sparser than that, lying before the window,
cost range-max calls: at most 2m - 1 for the m hits it missed, which
random arcs almost never leave. O(degree) time in all.
"""

from __future__ import annotations

import random
import sys
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress, islice

from .bitvector import BitVector
from .errors import GraphInputError, SerializationError
from .graph import Structure, search_above
from .intervals import check_endpoints
from .rmq import RangeMaxIndex, default_block_size
from .serial import Reader, Writer, check_block_size, pack_uints, uint_array
from .serial import unpack_uints, width_for
from .wavelet import AlphabetSequence

_MAGIC = b"SCAG"
_VERSION = 1

# endpoint symbols in S'
_NL, _NR, _RL, _RR = 0, 1, 2, 3

# bytes.translate tables over S' as bytes: a symbol's side (1 at a right
# endpoint) and its family (1 when reversed); and each side's symbols
_PARITY = bytes([_NL & 1, _NR & 1, _RL & 1, _RR & 1]) + bytes(252)
_REVERSED = bytes([_NL >> 1, _NR >> 1, _RL >> 1, _RR >> 1]) + bytes(252)
_LEFTS = bytes([_NL, _RL])
_RIGHTS = bytes([_NR, _RR])
# bit text to bytes: S's text to each position's normal symbol, a
# family vector's text to 0/1 flags
_SIDE = bytes.maketrans(b"01", bytes([_NL, _NR]))
_BIT = bytes.maketrans(b"01", b"\x00\x01")

# the most family ranks a neighborhood spans per hit: a range-max
# report's window reads at most this many per hit, and a family whose
# hit mask would span more lists its ranks instead
_MASK_SPAN = 64

# flags_above: the shortest window compared word-parallel, and a field's
# top byte (0x80 where its guard bit survived) mapped to a flag. On 'I'
# fields under CPython 3.11 the word compare overtakes the comprehension
# between 16 and 32 values and is 1.5x faster at 64
_WORD_WINDOW = 64
_TOP_FLAG = bytes(128) + b"\x01" + bytes(127)

# array slices hold native-order fields; the word compare reads them little-endian
_SWAP = sys.byteorder == "big"

# _arc_degrees: positions per block of its two counters, as a shift. One
# popcount reads a block; the block trees stay a few levels deep
_BLOCK_SHIFT = 12


@dataclass(frozen=True)
class ArcRealization:
    """n arcs over positions {1..2n}, labeled by clockwise start order;
    the anchor arc starts at position 1. l > r marks a reversed arc."""

    arcs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for l, r in self.arcs:
            if l == r:
                raise GraphInputError("arc start and end must differ")
        check_endpoints(self.arcs, "arc")
        if self.arcs[0][0] != 1:
            raise GraphInputError("anchor arc must start at position 1")

    @property
    def n(self) -> int:
        return len(self.arcs)

    def is_reversed(self, v: int) -> bool:
        l, r = self.arcs[v - 1]
        return l > r

    def reversed_set(self) -> set[int]:
        return {v for v in range(1, self.n + 1) if self.is_reversed(v)}


def anchor_arcs(raw, anchor: int | None = None) -> ArcRealization:
    """Place raw (start, end) pairs on {1..2n} and rotate so the anchor
    arc starts the traversal. Defaults to the arc with the smallest
    start; `anchor` picks one by 1-based input index."""
    pairs = list(raw)
    if not pairs:
        raise GraphInputError("realization needs at least one arc")
    n = len(pairs)
    values = []
    for idx, (a, b) in enumerate(pairs):
        # NaN compares false with everything, so it would sort anywhere
        if a != a or b != b:
            raise GraphInputError(f"arc #{idx + 1} has a NaN coordinate: ({a}, {b})")
        if a == b:
            raise GraphInputError(
                f"arc #{idx + 1} covers the full circle (start equals end)"
            )
        values.append(a)
        values.append(b)
    ranked = sorted(values)
    if any(ranked[i] == ranked[i + 1] for i in range(len(ranked) - 1)):
        raise GraphInputError("arc endpoints must be pairwise distinct")
    pos = {val: i + 1 for i, val in enumerate(ranked)}
    if anchor is None:
        anchor = min(range(n), key=lambda i: pairs[i][0]) + 1
    if not 1 <= anchor <= n:
        raise GraphInputError(f"anchor index {anchor} outside [1, {n}]")
    shift = pos[pairs[anchor - 1][0]] - 1
    span = 2 * n

    def rot(p: int) -> int:
        return (p - 1 - shift) % span + 1

    placed = sorted((rot(pos[a]), rot(pos[b])) for a, b in pairs)
    return ArcRealization(tuple(placed))


def random_arc_realization(
    n: int, rng: random.Random, require_reversed: bool = True
) -> ArcRealization:
    """Random pairing of {1..2n} with random orientations; retries a few
    times to include at least one reversed arc when asked (a single arc
    can never be reversed, since the anchor starts at its own start)."""
    if n < 1:
        raise GraphInputError("need n >= 1")
    for _ in range(20):
        pts = list(range(1, 2 * n + 1))
        rng.shuffle(pts)
        raw = []
        for i in range(n):
            a, b = pts[2 * i], pts[2 * i + 1]
            raw.append((a, b) if rng.random() < 0.5 else (b, a))
        real = anchor_arcs(raw)
        if not require_reversed or real.reversed_set() or n == 1:
            return real
    return real


class CircularArcGraph(Structure):
    """Succinct circular-arc structure with constant-depth decode paths,
    built from its realization."""

    __slots__ = (
        "_n",
        "_q",
        "_s",
        "_lk",
        "_rk",
        "_rp",
        "_rpp",
        "_rmax_n",
        "_rmax_r",
        "_rec_n",
        "_rec_r",
        "_end_r",
        "_degrees",
    )

    def __init__(self, real: ArcRealization):
        self._build(real, _arc_symbols(real.arcs))

    def _build(self, real: ArcRealization, symbols: list[int]) -> None:
        """Every field from the realization and its S', which a load has
        already computed to compare with the decoded one."""
        arcs = real.arcs
        n = real.n
        self._n = n
        # S' as bytes; each vector is one C-level translate of it: S its
        # parity, the left (right) family vector its left (right)
        # symbols, the others deleted, 1 where reversed. Starts in
        # position order are labels 1..n
        raw = bytes(symbols)
        families = raw.translate(_REVERSED, _RIGHTS)
        self._s = BitVector(raw.translate(_PARITY))
        self._lk = BitVector(families)
        self._rk = BitVector(raw.translate(_REVERSED, _LEFTS))
        self._rp = rp = uint_array([r for l, r in arcs if l < r], 2 * n)
        self._rpp = rpp = uint_array([r for l, r in arcs if l > r], 2 * n)
        self._q = len(rp)
        c = default_block_size(self._q)
        self._rmax_n = RangeMaxIndex(rp, c)
        self._rmax_r = RangeMaxIndex(rpp, c)
        # each family's records: the normal ones as ranks, the reversed
        # ones as labels with their ends, which is what a hop reads
        self._rec_n = self._rmax_n.records()
        ranks = self._rmax_r.records()
        labels = list(compress(range(1, n + 1), families))   # reversed, by rank
        self._rec_r = array("I", [labels[x - 1] for x in ranks])
        self._end_r = array(rpp.typecode, [rpp[x - 1] for x in ranks])
        self._degrees = _arc_degrees(arcs, symbols)

    # -- S' operations over the factored vectors -------------------------

    # Left endpoints in position order carry labels 1..n, so a family
    # count over the first p positions reduces to a parity rank followed
    # by a rank in the matching family vector.

    def _rank_nl(self, p: int) -> int:
        return self._lk.rank(0, self._s.rank(0, p))

    # -- decoding --------------------------------------------------------

    @property
    def normal_count(self) -> int:
        return self._q

    def _symbols(self) -> bytes:
        """S' as bytes, without a pass per position in Python: S's parity
        from one translate of its text, then the reversed family's symbol
        at its starts, which compress picks from S's zeros by the left
        family vector, and at its ends, which _rpp lists."""
        sym = bytearray(1) + self._s.bit_string().encode("ascii").translate(_SIDE)
        flags = self._lk.bit_string().encode("ascii").translate(_BIT)
        for p in compress(self._s.positions(0), flags):
            sym[p] = _RL
        for p in self._rpp:
            sym[p] = _RR
        del sym[0]      # positions are 1-based
        return bytes(sym)

    @property
    def endpoint_symbols(self) -> AlphabetSequence:
        """The four-symbol endpoint sequence, rebuilt on demand."""
        return AlphabetSequence(self._symbols(), sigma=4)

    def _right(self, v: int) -> tuple[int, bool, int]:
        """(r_v, reversed, x), x being v's rank in its family: one access
        and one rank, no select."""
        if self._lk.access(v):
            x = self._lk.rank(1, v)
            return self._rpp[x - 1], True, x
        x = self._lk.rank(0, v)
        return self._rp[x - 1], False, x

    def _head(self, v: int, r: int, rev: bool) -> tuple[int, int, bool, int]:
        """A walk's head (v, r_v, reversed, k), where k = S.rank(0, r_v)
        counts the arcs starting before r_v: one rank, made once."""
        return v, r, rev, self._s.rank(0, r)

    def arc_of(self, v: int) -> tuple[int, int]:
        self._check_vertex(v)
        return self._s.select(0, v), self._right(v)[0]

    def is_reversed(self, v: int) -> bool:
        self._check_vertex(v)
        return bool(self._lk.access(v))

    def realization(self) -> ArcRealization:
        """All arcs in one sweep over S and the left family vector."""
        normal = iter(self._rp)
        reversed_ = iter(self._rpp)
        return ArcRealization(tuple(
            (l, next(reversed_) if fam == "1" else next(normal))
            for l, fam in zip(self._s.positions(0), self._lk.bit_string())
        ))

    # -- queries ---------------------------------------------------------

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self._degrees[v - 1]

    # For u < v, a reversed u covers [l_u, 2n] and so holds l_v; a normal
    # u meets v when v starts before r_u, that is when S.rank(0, r_u) >= v;
    # otherwise only a reversed v, wrapping back over position 1, reaches l_u.

    def adjacent(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            return False
        if u > v:
            u, v = v, u
        lk = self._lk
        if lk.access(u):
            return True
        rank = self._s.rank
        if rank(0, self._rp[lk.rank(0, u) - 1]) >= v:
            return True
        return bool(lk.access(v)) and rank(0, self._rpp[lk.rank(1, v) - 1]) >= u

    @staticmethod
    def _meets(a: tuple, b: tuple) -> bool:
        """The adjacent test for two distinct heads, whose family and
        start count k are already known: no primitive call."""
        if a[0] > b[0]:
            a, b = b, a
        u, _, revu, ku = a
        v, _, revv, kv = b
        return revu or ku >= v or (revv and kv >= u)

    def neighborhood(self, v: int) -> list[int]:
        """Neighbors of v in increasing label order. Each family's hits
        are marked in one byte mask over its ranks, from the first hit
        to the last, and one select_marked on the left family vector
        turns the mask into labels; a family with fewer hits than one
        per 64 of those ranks lists them and selects each instead.
        At most 5 selects in all, plus one word pass per family, unless
        a family's hits are sparser than one per word, in which case
        that family takes one select per hit."""
        self._check_vertex(v)
        l = self._s.select(0, v)
        r, rev, mine = self._right(v)   # mine: v's rank in its family
        nrev = self._n - self._q
        deg = self._degrees[v - 1]
        if not rev:
            # an earlier normal arc is a neighbor when it ends past l, so
            # the normal rights before l are the earlier ones that miss v;
            # every later one up to the last starting before r starts inside v
            earlier = mine - 1 - self._rk.rank(0, self._s.rank(1, l))
            k = self._s.rank(0, r)   # labels 1..v and the later ones starting before r
            normal = self._lk.rank(0, k) if k > v else mine   # normal ones among them
            cross = k - normal   # reversed arcs starting before r
            out = _family_labels(
                self._lk, 0, ((mine + 1, normal),),
                *_report(self._rmax_n.query, self._rp, 1, mine - 1, l, earlier),
            )
            out += _family_labels(
                self._lk, 1, ((1, cross),),
                *_report(
                    self._rmax_r.query, self._rpp, cross + 1, nrev, l,
                    deg - earlier - (normal - mine) - cross,
                ),
            )
        else:
            cross = self._rank_nl(r)
            out = _family_labels(
                self._lk, 0, ((1, cross),),
                *_report(
                    self._rmax_n.query, self._rp, cross + 1, self._q, l,
                    deg - cross - (nrev - 1),
                ),
            )
            out += _family_labels(self._lk, 1, ((1, mine - 1), (mine + 1, nrev)))
        out.sort()   # merges the two sorted families
        return out

    # -- shortest paths --------------------------------------------------

    def _succ(self, head: tuple[int, int, bool, int]):
        """Clockwise greedy hop from a head (label, r, reversed, k):
        the head of the neighbor reaching farthest past r; None when
        nothing advances the frontier. The farthest arc of a family
        among labels 1..k is its last record at or before k, one bisect
        in C over the records: one rank, the new head's k, at most one
        value, and no select or range-max call."""
        _, r, _, k = head   # labels 1..k start before r
        labels = self._rec_r
        i = bisect_right(labels, k)
        if i:
            # a reversed neighbor starting before r carries the walk
            # past the anchor point: farther than anything on this lap
            # (from a reversed arc, r < l keeps the arc itself out)
            return self._head(labels[i - 1], self._end_r[i - 1], True)
        # no reversed arc starts before r, so labels 1..k are the first k
        # normal arcs and each one's rank is its label; k >= 1, since the
        # anchor starts at position 1, before every right endpoint
        rec = self._rec_n
        x = rec[bisect_right(rec, k) - 1]
        far = max(r, self._rp[x - 1])
        # a reversed arc ending past far >= r reaches back over a normal
        # head's start, and every other reversed arc meets a reversed
        # head; the head itself ends at r, so it never wins
        if labels and self._end_r[-1] > far:
            return self._head(labels[-1], self._end_r[-1], True)
        if far > r:
            return self._head(x, far, False)
        return None

    def spath(self, u: int, v: int):
        """A shortest u-v path by two alternating clockwise walks, one
        from each end; the first to reach the other side wins. The walks
        carry heads (label, r, reversed, k), so no hop selects on S and
        the meet tests make no primitive call."""
        if self.adjacent(u, v):
            return [u, v]
        if u == v:
            return [u]
        # adjacent has checked both labels and made both walks' first meet
        # test; every later test follows a hop, from a head that missed the
        # far endpoint, so a live head is never that endpoint
        head_a = start_u = self._head(u, *self._right(u)[:2])
        head_b = start_v = self._head(v, *self._right(v)[:2])
        path_a = [u]
        path_b = [v]
        dead_a = dead_b = False
        for _ in range(4 * self._n + 8):
            if not dead_a:
                head_a = self._succ(head_a)
                if head_a is None:
                    dead_a = True
                else:
                    path_a.append(head_a[0])
                    if self._meets(head_a, start_v):
                        path_a.append(v)
                        return path_a
            if not dead_b:
                head_b = self._succ(head_b)
                if head_b is None:
                    dead_b = True
                else:
                    path_b.append(head_b[0])
                    if self._meets(head_b, start_u):
                        path_b.append(u)
                        path_b.reverse()
                        return path_b
            if dead_a and dead_b:
                return None
        # every hop moves a live walk's frontier clockwise, so the walks
        # meet or die well within the cap: reaching it is a bug, and
        # None would wrongly report a disconnected pair
        raise AssertionError("spath walks did not finish within their hop cap")

    # -- reporting and serialization ------------------------------------

    def space_report(self) -> dict[str, int]:
        s_rep = self._s.space_report()
        lk_rep = self._lk.space_report()
        rk_rep = self._rk.space_report()
        width = width_for(2 * self._n)
        return {
            "S": s_rep["raw"],
            "S_directory": s_rep["directory"],
            "left_families": lk_rep["raw"],
            "left_families_directory": lk_rep["directory"],
            "right_families": rk_rep["raw"],
            "right_families_directory": rk_rep["directory"],
            "r_normal": self._q * width,
            "r_reversed": (self._n - self._q) * width,
            "rmax_normal_directory": self._rmax_n.space_bits(),
            "rmax_reversed_directory": self._rmax_r.space_bits(),
            # the normal records' ranks, the reversed records' labels and ends
            "spath_records": (len(self._rec_n) * width_for(self._q)
                              + len(self._rec_r) * (width_for(self._n) + width)),
            "degree_table": self._n * width_for(max(self._n - 1, 1)),
        }

    def to_bytes(self) -> bytes:
        # the flag byte is always 0; from_bytes rejects the 1 that marked
        # a stored degree table
        w = Writer().magic(_MAGIC, _VERSION)
        w.u64(self._n).u32(default_block_size(self._q)).u8(0)
        w.block(AlphabetSequence.encode(self._symbols(), 4))
        width = width_for(2 * self._n)
        w.block(pack_uints(self._rp, width))
        w.block(pack_uints(self._rpp, width))
        return w.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes) -> "CircularArcGraph":
        r = Reader(data)
        r.magic(_MAGIC, _VERSION)
        n = r.u64()
        c = r.u32()
        flag = r.u8()
        if flag:
            raise SerializationError(
                f"degree table byte must be 0, found {flag}: files with a "
                "stored degree table are no longer read; rebuild them"
            )
        symbols, sigma = AlphabetSequence.decode(r.block())
        if len(symbols) != 2 * n or sigma != 4:
            raise GraphInputError("endpoint sequence disagrees with header")
        q = symbols.count(_NL)
        if symbols.count(_RL) != n - q:
            raise GraphInputError("endpoint kinds must pair up")
        check_block_size(c, default_block_size(q))
        width = width_for(2 * n)
        rp = unpack_uints(r.block(), q, width)
        rpp = unpack_uints(r.block(), n - q, width)
        r.done()
        # starts in position order take their ends from their family's
        # list; ArcRealization checks that the ends pair with the starts
        normal = iter(rp)
        reversed_ = iter(rpp)
        real = ArcRealization(tuple(
            (p, next(reversed_) if sym == _RL else next(normal))
            for p, sym in enumerate(symbols, start=1)
            if not sym & 1
        ))
        want = _arc_symbols(real.arcs)
        if want != symbols:
            # sides agree by construction, so a family differs: at a start
            # when an arc's orientation disagrees with its family, else at
            # an end that one family's list places where S' has the other
            if all(want[l - 1] == symbols[l - 1] for l, _ in real.arcs):
                raise GraphInputError("normal right endpoints disagree with the sequence")
            raise GraphInputError("arc orientations disagree with their families")
        g = cls.__new__(cls)
        g._build(real, symbols)
        return g


def _report(pick_max, values, lo: int, hi: int, threshold: int, count: int):
    """A family's range-max report over ranks lo..hi, which holds count
    ranks x with values[x - 1] > threshold: (a, flags, found). flags has
    one byte per rank of the window a..hi, the at most _MASK_SPAN * count
    ranks ending at hi, 1 at a hit; found holds the hits the window
    missed, which lie before it, from search_above. So a report reads at
    most _MASK_SPAN * count values, word-parallel from 64 on, and makes
    at most max(0, 2m - 1) range-max calls for the m hits in found, none
    unless the hits are sparser than one per _MASK_SPAN ranks; a count
    of 0 reads nothing."""
    if count <= 0:
        return 0, b"", ()
    a = max(lo, hi - _MASK_SPAN * count + 1)
    flags = flags_above(values, a, hi, threshold)
    missing = count - flags.count(1)
    if missing > 0 and lo < a:
        return a, flags, search_above(pick_max, values, lo, a - 1, threshold, missing)
    return a, flags, ()


def _family_labels(
    vec: BitVector, b: int, runs, a: int = 0, flags: bytes = b"", found=()
) -> list[int]:
    """Labels of one family's hits, in increasing order, from the left
    family vector vec and the family's bit b. The hits are the ranks of
    runs, (first, last) pairs of which one with first > last is empty;
    the ranks a + i with flags[i] set; and the ranks in found.

    While the hits number at least one per _MASK_SPAN ranks from the
    first to the last, they are marked in one byte mask over those ranks
    for one select_marked: each run is one slice assignment, the flags
    one slice copy from their first hit to their last, and found one
    byte each. A sparser family, an empty one included, lists its ranks
    and selects each of them instead, so no mask holds more than _MASK_SPAN
    bytes per hit."""
    runs = [(lo, hi) for lo, hi in runs if lo <= hi]
    spans = list(runs)
    hits = sum(hi - lo + 1 for lo, hi in runs) + len(found)
    f0 = flags.find(1)
    if f0 >= 0:
        f1 = flags.rfind(1) + 1
        hits += flags.count(1)
        spans.append((a + f0, a + f1 - 1))
    if found:
        spans.append((min(found), max(found)))
    if spans:
        base = min(lo for lo, _ in spans)
        size = max(hi for _, hi in spans) - base + 1
        if size <= _MASK_SPAN * hits:
            mask = bytearray(size)
            for lo, hi in runs:
                mask[lo - base:hi - base + 1] = b"\x01" * (hi - lo + 1)
            if f0 >= 0:
                mask[a + f0 - base:a + f1 - base] = flags[f0:f1]
            for x in found:
                mask[x - base] = 1
            return vec.select_marked(b, base, mask)
    ranks = [x for lo, hi in runs for x in range(lo, hi + 1)]
    ranks += compress(range(a, a + len(flags)), flags)
    ranks += found
    ranks.sort()
    return [vec.select(b, x) for x in ranks]


def flags_above(values, a: int, b: int, threshold: int) -> bytes:
    """One byte per position x in [a, b] (1-based, inclusive) of the
    packed unsigned array values: 1 where values[x - 1] > threshold.

    A window of at least _WORD_WINDOW values is compared word-parallel
    (broadword, as in Vigna's rank/select), in C over the whole slice
    read as one int of w-bit fields: when no field uses its top bit, OR
    a guard bit into each field's top bit and subtract threshold + 1
    from every field at once; a field keeps its guard exactly when its
    value exceeds threshold, and none borrows from the next. The guards
    then become flags through each field's top byte, one strided slice
    and one translate. A shorter window, one holding a value with its
    top bit set, or a negative threshold is compared one value at a time.
    """
    seg = values[a - 1:b]
    size = len(seg)
    if size >= _WORD_WINDOW and threshold >= 0:
        width = seg.itemsize
        if _SWAP:
            seg.byteswap()
        fields = int.from_bytes(seg, "little")
        top = 8 * width - 1
        ones = int.from_bytes((b"\x01" + bytes(width - 1)) * size, "little")
        guards = ones << top
        if not fields & guards:
            if threshold >> top:
                return bytes(size)   # every value is below 2**top <= threshold
            kept = ((fields | guards) - (threshold + 1) * ones) & guards
            return kept.to_bytes(size * width, "little")[width - 1::width].translate(_TOP_FLAG)
    return bytes([val > threshold for val in seg])


def _arc_symbols(arcs) -> list[int]:
    """S' as a list: each arc marks its start and its end with its family."""
    symbols = [0] * (2 * len(arcs))
    for l, r in arcs:
        if l < r:
            symbols[l - 1] = _NL
            symbols[r - 1] = _NR
        else:
            symbols[l - 1] = _RL
            symbols[r - 1] = _RR
    return symbols


def _arc_degrees(arcs, symbols) -> array:
    """Every arc's degree, from one sweep over the 2n symbols of S', as
    an array of the narrowest unsigned typecode that holds n - 1.

    Reversed arcs pairwise intersect. A normal arc [l, r] meets the
    normal arcs that start before r less those that end before l. A
    normal arc and a reversed arc (l', r') miss each other exactly when
    the normal arc nests inside the gap [r', l']. Two position counters
    count those nestings, one from each family's side: gaps marks l' of
    every reversed gap opened, closed marks l of every normal arc ended.
    Each is a two-level counter: one int of marks per block of
    2**_BLOCK_SHIFT positions, and a Fenwick tree over the blocks' counts.
    A mark sets one bit and adds one along the block tree; a prefix count
    is one popcount of the masked block plus the block tree's prefix
    over the blocks before it. So each of the 2n steps costs
    O(log(n / 2**_BLOCK_SHIFT)) Python steps and one C operation over at
    most 2**_BLOCK_SHIFT bits: O(n log n) in all.
    """
    n = len(arcs)
    m = 2 * n
    partner = [0] * (m + 1)     # each endpoint's other endpoint
    for l, r in arcs:
        partner[l] = r
        partner[r] = l
    nrev = symbols.count(_RL)
    q = n - nrev
    shift = _BLOCK_SHIFT
    low = (1 << shift) - 1
    blocks = (m >> shift) + 1
    gap_bits = [0] * blocks     # gaps: a bit at l' per reversed gap opened
    gap_tree = [0] * (blocks + 1)
    closed_bits = [0] * blocks  # closed: a bit at l per normal arc ended
    closed_tree = [0] * (blocks + 1)
    deg = [0] * (m + 1)         # by start position
    lefts = rights = opened = 0     # normal starts, normal ends, reversed gaps
    for p, sym, o in zip(range(1, m + 1), symbols, islice(partner, 1, None)):
        if sym == _NL:
            # normals ending before p miss this arc; so do the gaps around it
            b = o >> shift
            c = (gap_bits[b] & ((2 << (o & low)) - 1)).bit_count()
            while b:
                c += gap_tree[b]
                b &= b - 1
            deg[p] = nrev - (opened - c) - rights
            lefts += 1
        elif sym == _NR:
            deg[o] += lefts - 1
            b = o >> shift
            closed_bits[b] |= 1 << (o & low)
            b += 1
            while b <= blocks:
                closed_tree[b] += 1
                b += b & -b
            rights += 1
        elif sym == _RL:
            # the gap [o, p] closes here: normals inside it miss this arc
            b = o >> shift
            c = (closed_bits[b] & ((2 << (o & low)) - 1)).bit_count()
            while b:
                c += closed_tree[b]
                b &= b - 1
            deg[p] = q - (rights - c) + nrev - 1
        else:
            b = o >> shift
            gap_bits[b] |= 1 << (o & low)
            b += 1
            while b <= blocks:
                gap_tree[b] += 1
                b += b & -b
            opened += 1
    return uint_array([deg[l] for l, _ in arcs], n - 1)
