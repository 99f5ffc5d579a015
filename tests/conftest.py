"""Shared fixtures: the two worked examples and small helpers."""

from sigraph.bitvector import BitVector
from sigraph.intervals import IntervalRealization

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


def count_calls(monkeypatch, targets) -> dict:
    """Wrap each (owner, name) method of targets to tally its calls and
    return the live tallies, keyed "Owner.name"; a BitVector select is
    keyed by its bit, "BitVector.select0" or "BitVector.select1"."""
    calls: dict = {}

    def patch(owner, name):
        orig = getattr(owner, name)
        key = f"{owner.__name__}.{name}"
        by_bit = owner is BitVector and name == "select"

        def wrapper(*args, **kwargs):
            k = f"{key}{args[1]}" if by_bit else key
            calls[k] = calls.get(k, 0) + 1
            return orig(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in targets:
        patch(owner, name)
    return calls
