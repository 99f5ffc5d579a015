"""Shared fixtures: the two worked examples, the kind table, the one
call counter, the degree check of loaded blobs and small helpers."""

from sigraph.bitvector import BitVector
from sigraph.circular import ArcRealization, anchor_arcs
from sigraph.cli import _KINDS
from sigraph.intervals import IntervalRealization, normalize
from sigraph.oracle import OracleGraph

# kind -> (build, draw): build(real) makes the structure, draw(n, rng) a
# random realization it accepts. The circular draw may return no
# reversed arc; random_arc_realization's default retries for one.
KINDS = _KINDS
LINEAR = sorted(set(KINDS) - {"circular"})

# 9-interval family whose queries and algorithm outputs are known by hand.
FIG1_INTERVALS = (
    (1, 6),
    (2, 5),
    (3, 9),
    (4, 8),
    (7, 12),
    (10, 18),
    (11, 15),
    (13, 17),
    (14, 16),
)
FIG1_S = "000011011001001111"
FIG1_D = [1, 2, 3, 4, 3, 2, 3, 2, 1, 2, 3, 2, 3, 4, 3, 2, 1, 0]

# 7-arc circular family; arc 4 and arc 7 wrap past the anchor point.
# Pairs are (start, end) clockwise positions, already in label order.
FIG2_ARCS = (
    (1, 3),
    (4, 7),
    (5, 8),
    (6, 2),
    (9, 14),
    (11, 12),
    (13, 10),
)
FIG2_ADJACENCY = {
    1: {4, 7},
    2: {3, 4, 7},
    3: {2, 4, 7},
    4: {1, 2, 3, 5, 6, 7},
    5: {4, 6, 7},
    6: {4, 5},
    7: {1, 2, 3, 4, 5},
}

# FIG2 as earlier SCAG writers stored it with its degree table (flag
# byte 1, the table appended); loaders reject such blobs now.
FIG2_TABLE_BLOB = (
    "5343414701070000000000000020000000011d0000000000000053415351010e0000"
    "00000000000400000004000000000000001c584c06030000000000000073e80c0100"
    "000000000000a20300000000000000da3c15"
)


def fig1_realization() -> IntervalRealization:
    return IntervalRealization(FIG1_INTERVALS)


def degrees_agree(g) -> bool:
    """Every degree of g equals the oracle's on g's own realization."""
    real = g.realization()
    oracle = (OracleGraph.from_arc_positions(real.arcs) if isinstance(real, ArcRealization)
              else OracleGraph.from_intervals(real))
    return all(g.degree(v) == oracle.degree(v) for v in range(1, g.n + 1))


def circular_adjacent_case(arcs, u: int, v: int) -> str:
    """Which test decides a circular adjacent query on distinct u, v,
    read off the arcs (l, r); the labels are ordered so that u < v."""
    u, v = min(u, v), max(u, v)
    (lu, ru), (lv, rv) = arcs[u - 1], arcs[v - 1]
    if lu > ru:
        return "u reversed"
    if lv < ru:
        return "v starts before r_u"
    if lv < rv:
        return "both normal, no meet"
    return "v reversed"


def few_reversed_arcs(n: int, rng) -> ArcRealization:
    """Arcs of at most 0.2 of the circle: about 90% of them normal."""
    raw = []
    for _ in range(n):
        a = rng.random()
        raw.append((a, (a + rng.random() * 0.2) % 1.0))
    return anchor_arcs(raw)


def deep_nest(depth: int, tail: int) -> IntervalRealization:
    """depth nested intervals, each opening right after a short one has
    come and gone, around tail short disjoint intervals: a late short
    interval's earlier neighbors are every other label of the first
    2 * depth, far before it."""
    n = 2 * depth + tail
    intervals = []
    p = 1
    for d in range(depth):
        intervals.append((p, 2 * n + 1 - d))
        intervals.append((p + 1, p + 2))
        p += 3
    for _ in range(tail):
        intervals.append((p, p + 1))
        p += 2
    return normalize(intervals)


class Tally(dict):
    """count_calls' live tallies, and in log every counted call as
    (key, args) in call order; clear() empties both."""

    def __init__(self):
        super().__init__()
        self.log = []

    def clear(self):
        super().clear()
        self.log.clear()


class _Reads:
    """Stands in for a packed array and reports each read to tally with
    the values it read: an index reads 1 value, a slice its length."""

    def __init__(self, values, tally):
        self._values = values
        self._tally = tally

    def __getitem__(self, i):
        got = self._values[i]
        self._tally((i,), len(got) if isinstance(i, slice) else 1)
        return got


def count_calls(monkeypatch, targets, *, names=None, reads=()) -> Tally:
    """Wrap each (owner, name) method of targets to tally its calls and
    return the live tallies, keyed "Owner.name"; a BitVector select is
    keyed by its bit, "BitVector.select0" or "BitVector.select1".

    names maps a label to an instance: that instance's calls are keyed
    by the label in place of the owner, as in "S.rank". reads lists
    (instance, slot) pairs, each slot a packed array: the values read
    from it are tallied under "Type.slot". The log keeps each call's
    arguments (a method's without self), and each read's index or
    slice."""
    calls = Tally()
    # The instance is kept beside its label, so that its id cannot pass
    # to a new object while the patch is live.
    labels = {id(obj): (label, obj) for label, obj in (names or {}).items()}

    def tally(key, args, step=1):
        calls[key] = calls.get(key, 0) + step
        calls.log.append((key, args))

    def patch(owner, name):
        orig = getattr(owner, name)
        key = f"{owner.__name__}.{name}"
        by_bit = owner is BitVector and name == "select"
        method = isinstance(owner, type)

        def wrapper(*args, **kwargs):
            k = key
            if labels and method and id(args[0]) in labels:
                k = f"{labels[id(args[0])][0]}.{name}"
            if by_bit:
                k += str(args[1])
            tally(k, args[1:] if method else args)
            return orig(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in targets:
        patch(owner, name)
    for obj, slot in reads:
        key = f"{type(obj).__name__}.{slot}"
        view = _Reads(getattr(obj, slot), lambda args, step, key=key: tally(key, args, step))
        monkeypatch.setattr(obj, slot, view)
    return calls
