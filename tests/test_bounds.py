"""The paper's query bounds as one table of counts, not timings: degree
and adjacent O(1), neighborhood O(degree) and spath O(path length), on
every kind at three sizes.

BOUNDS[kind][op][counter] = (a, b) means that every sampled query keeps
count <= a * units + b. Counters are BitVector rank, select0, select1,
access and select_marked calls, range-max calls (rmq), the values read
from _rlist, _rp and _rpp (r), the bits BitVector._text formats (text)
and wavelet calls. Units are 1 for degree and adjacent, the answer's
length for neighborhood and the path's hops for spath; a pair with no
path takes the successor steps its walks made, the stalled last one
included. A counter that a row leaves out must read 0. A row whose a
are all 0 is exact: every query makes exactly b of each counter, and a
circular adjacent pair exactly the counts of its case.

A circular structure loaded as `sigraph query` loads it holds no degree
table and counts a degree when asked: its row, "cold degree", has units
n, since the one slice of r it reads may span every arc.
"""

import random
from array import array
from collections import Counter
from functools import cache
from types import SimpleNamespace

import pytest

from conftest import (
    KINDS, LINEAR, circular_adjacent_case, count_calls, deep_nest, few_reversed_arcs,
)
from sigraph import circular
from sigraph.bitvector import BitVector
from sigraph.circular import CircularArcGraph, anchor_arcs
from sigraph.cli import main
from sigraph.intervals import normalize
from sigraph.oracle import OracleGraph
from sigraph.rmq import RangeMaxIndex
from sigraph.wavelet import AlphabetSequence, PointGrid

SIZES = (64, 1000, 10000)
ORACLE_UP_TO = 1000     # the oracle is O(n^2)
SAMPLES = {"degree": 100, "adjacent": 100, "neighborhood": 30, "spath": 10}

TARGETS = (
    [(BitVector, name) for name in ("rank", "select", "access", "select_marked", "_text")]
    + [(AlphabetSequence, name) for name in ("rank", "select", "access")]
    + [(RangeMaxIndex, "query"), (PointGrid, "count"), (CircularArcGraph, "_succ")]
)
R_SLOTS = ("_rlist", "_rp", "_rpp")

_LINEAR = {
    "degree": {"select0": (0, 1), "rank": (0, 1), "r": (0, 1)},
    "adjacent": {"rank": (0, 1), "r": (0, 1)},
    # r_v, one window of at most 2K values for the K earlier neighbors,
    # and at most 2m - 1 range-max calls, one value each, for the m of
    # them the window missed
    "neighborhood": {"select0": (0, 1), "rank": (0, 1), "rmq": (2, 0), "r": (4, 1)},
    # l_v, r_u, then one rank, one hop and one r per step
    "spath": {"select0": (0, 1), "rank": (1, 0), "rmq": (1, 0), "r": (1, 1)},
}
BOUNDS = {
    "interval": _LINEAR,
    "kproper": _LINEAR,
    "kimproper": _LINEAR,
    # r_v is the v-th 1 of S
    "proper": {
        "degree": {"select0": (0, 1), "select1": (0, 1), "rank": (0, 1)},
        "adjacent": {"select1": (0, 1), "rank": (0, 1)},
        "neighborhood": {"select0": (0, 1), "select1": (0, 1), "rank": (0, 1)},
        "spath": {"select0": (0, 1), "select1": (1, 1), "rank": (1, 0)},
    },
    "circular": {
        "degree": {},
        "adjacent": {"access": (0, 2), "rank": (0, 4), "r": (0, 2)},
        # the decode, then per family at most one select per hit and one
        # select_marked formatting at most 64 bits per hit; each report
        # reads at most 64 values per hit and 2m - 1 range-max calls, one
        # value each, for the m hits its window missed
        "neighborhood": {
            "select0": (1, 1), "select1": (1, 0), "rank": (0, 5), "access": (0, 1),
            "select_marked": (0, 2), "rmq": (2, 0), "r": (66, 1), "text": (64, 0),
        },
        # adjacent and both walks' starts (at most 8 ranks and 4 values),
        # then per greedy hop one rank, at most one value, and no select
        # or range-max call; a path of h hops takes at most 2h - 2 greedy
        # hops, one walk's or the other's, and a pair with no path at
        # least 2, one per walk
        "spath": {"rank": (2, 6), "access": (0, 4), "r": (2, 2)},
        # l_v and r_v, then one slice of the other family's ends
        "cold degree": {"select0": (0, 1), "access": (0, 1), "rank": (0, 5), "r": (1, 1)},
    },
}
# circular adjacent orders the labels so that u < v and stops at the
# first case that decides: a reversed u holds l_v; else r_u is read (one
# family rank) and v starts before it (one rank on S); else a normal v
# misses u; else the reversed v's end is read and tested against l_u
ADJACENT_CASES = {
    "u reversed": {"access": 1},
    "v starts before r_u": {"access": 1, "rank": 2, "r": 1},
    "both normal, no meet": {"access": 2, "rank": 2, "r": 1},
    "v reversed": {"access": 2, "rank": 4, "r": 2},
}


def _counts(calls) -> dict:
    """The counters a query's tallies add up to, those that read 0 left out."""
    out = Counter()
    for key, count in calls.items():
        owner, _, name = key.partition(".")
        if name in R_SLOTS:
            out["r"] += count
        elif owner in ("AlphabetSequence", "PointGrid"):
            out["wavelet"] += count
        elif owner in ("BitVector", "RangeMaxIndex") and name != "_text":
            out["rmq" if name == "query" else name] += count
    out["text"] = sum(64 * (a[1] - a[0]) for key, a in calls.log if key == "BitVector._text")
    return {counter: count for counter, count in out.items() if count}


def _deep_nesting(n, rng):
    """A tower of up to 300 nested intervals over short ones: proper-mode
    depths past one byte, and earlier neighbors far before a late short
    interval's window."""
    depth = min(n // 4, 300)
    return deep_nest(depth, n - 2 * depth)


def _proper_chain(n, rng):
    """Equal intervals, each meeting the next four: long paths."""
    return normalize([(i, i + 4.5) for i in range(n)])


def _short_arcs(n, rng):
    """Arcs of at most 4/n of the circle: about two cover each point, so
    most neighborhoods are small and many are sparse."""
    raw = []
    for _ in range(n):
        a = rng.random()
        raw.append((a, (a + rng.random() * 4 / n) % 1.0))
    return anchor_arcs(raw)


FAMILIES = {kind: (KINDS[kind][1], _deep_nesting, _proper_chain) for kind in LINEAR}
FAMILIES["proper"] = (KINDS["proper"][1], _proper_chain)
FAMILIES["circular"] = (KINDS["circular"][1], _short_arcs, few_reversed_arcs)


@cache
def _realization(draw, n):
    return draw(n, random.Random(f"{draw.__name__}/{n}"))


@cache
def _oracle(draw, n):
    return OracleGraph.of(_realization(draw, n))


@cache
def _graphs(kind, draw, n):
    g = KINDS[kind][0](_realization(draw, n))
    return g, type(g).from_bytes(g.to_bytes())


def _units(g, op, q, got, calls) -> int:
    """What a neighborhood or spath answer costs in units. A circular
    pair with no path counts its walks' greedy hops; a linear one the
    successor steps of the greedy walk from the smaller label, up to and
    including the one that stalls."""
    if op == "neighborhood":
        return len(got)
    if got is not None:
        return len(got) - 1
    if isinstance(g, CircularArcGraph):
        return calls["CircularArcGraph._succ"]
    cur, steps = min(q), 1
    while (nxt := g.succ(cur)) != cur:
        cur, steps = nxt, steps + 1
    return steps


def _check_answer(o, op, q, got):
    if op == "spath":
        dist = o.bfs_dist(*q)
        if dist is None:
            assert got is None
        else:
            assert len(got) - 1 == dist and (got[0], got[-1]) == q
            assert all(o.adjacent(a, b) for a, b in zip(got, got[1:]))
    else:
        assert got == getattr(o, op)(*q)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("op", list(SAMPLES))
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_queries_keep_their_bounds(kind, op, n, monkeypatch):
    """Every kind and op on each family at n = 64, 1,000 and 10,000,
    built and reloaded: the counts keep BOUNDS, and up to 1,000 the
    answers are the oracle's. The circular adjacent pairs reach every
    case."""
    rng = random.Random(f"{kind}/{op}/{n}")
    bounds = BOUNDS[kind][op]
    cases = set()
    for draw in FAMILIES[kind]:
        real = _realization(draw, n)
        for g in _graphs(kind, draw, n):
            calls = count_calls(monkeypatch, TARGETS,
                                reads=[(g, slot) for slot in R_SLOTS if hasattr(g, slot)])
            for _ in range(SAMPLES[op]):
                u, v = rng.sample(range(1, n + 1), 2)
                q = (u,) if op in ("degree", "neighborhood") else (u, v)
                calls.clear()
                got = getattr(g, op)(*q)
                counts = _counts(calls)
                where = (draw.__name__, type(g).__name__, q, counts)
                if op == "adjacent" and kind == "circular":
                    case = circular_adjacent_case(real.arcs, u, v)
                    cases.add(case)
                    assert counts == ADJACENT_CASES[case], where
                elif all(a == 0 for a, _ in bounds.values()):
                    assert counts == {c: b for c, (_, b) in bounds.items()}, where
                else:
                    units = _units(g, op, q, got, calls)
                    for counter, count in counts.items():
                        a, b = bounds.get(counter, (0, 0))
                        assert count <= a * units + b, (counter, units, where)
                if n <= ORACLE_UP_TO:
                    _check_answer(_oracle(draw, n), op, q, got)
            monkeypatch.undo()
    if op == "adjacent" and kind == "circular":
        assert cases == set(ADJACENT_CASES)


def test_count_calls_tallies_exactly(monkeypatch):
    """A fixed script of calls and reads gives exact tallies: a slice
    counts its length, S's calls are keyed apart from a family vector's,
    the log keeps the arguments in call order, and after undo every
    patched attribute is the original object again."""
    s = BitVector(b"\x00\x01\x00\x00\x01\x01")
    family = BitVector(b"\x01\x00\x01")
    index = RangeMaxIndex(array("I", [3, 9, 4, 7]))
    holder = SimpleNamespace(values=array("I", [5, 6, 7, 8, 9]))
    packed = holder.values
    targets = [(BitVector, "rank"), (BitVector, "select"), (BitVector, "select_marked"),
               (RangeMaxIndex, "query")]
    originals = [owner.__dict__[name] for owner, name in targets]
    calls = count_calls(monkeypatch, targets, names={"S": s},
                        reads=[(holder, "values")])
    assert s.rank(0, 3) == 2 and s.rank(1, 6) == 3
    assert s.select(1, 2) == 5 and family.select(0, 1) == 2
    assert family.select_marked(1, 1, b"\x01\x01") == [1, 3]
    assert index.query(1, 4) == 2
    assert holder.values[2] == 7 and list(holder.values[1:4]) == [6, 7, 8]
    assert calls == {
        "S.rank": 2, "S.select1": 1, "BitVector.select0": 1, "BitVector.select_marked": 1,
        "BitVector.select1": 2, "RangeMaxIndex.query": 1, "SimpleNamespace.values": 4,
    }
    assert calls.log == [
        ("S.rank", (0, 3)), ("S.rank", (1, 6)), ("S.select1", (1, 2)),
        ("BitVector.select0", (0, 1)), ("BitVector.select_marked", (1, 1, b"\x01\x01")),
        ("BitVector.select1", (1, 1)), ("BitVector.select1", (1, 2)),
        ("RangeMaxIndex.query", (1, 4)), ("SimpleNamespace.values", (2,)),
        ("SimpleNamespace.values", (slice(1, 4),)),
    ]
    calls.clear()
    assert calls == {} and calls.log == []
    monkeypatch.undo()
    assert all(owner.__dict__[name] is f for (owner, name), f in zip(targets, originals))
    assert holder.values is packed


@pytest.mark.parametrize("n", SIZES)
def test_cold_circular_degree_keeps_its_bound(n, monkeypatch):
    """A circular structure loaded without its degree table, on each
    family at n = 64, 1,000 and 10,000: every count keeps the "cold
    degree" row, makes exactly one select0 and one access, reads r_v
    and one slice and nothing else of r, and equals the table's."""
    rng = random.Random(f"cold/{n}")
    bounds = BOUNDS["circular"]["cold degree"]
    for draw in FAMILIES["circular"]:
        g = _graphs("circular", draw, n)[0]
        h = CircularArcGraph._load_tableless(g.to_bytes())[0]
        calls = count_calls(monkeypatch, TARGETS, reads=[
            (obj, slot) for obj in (h, h._degrees) for slot in R_SLOTS if hasattr(obj, slot)
        ])
        for v in rng.sample(range(1, n + 1), min(n, SAMPLES["degree"])):
            want = g.degree(v)
            calls.clear()
            got = h.degree(v)
            counts = _counts(calls)
            where = (draw.__name__, v, counts)
            assert got == want, where
            for counter, count in counts.items():
                a, b = bounds.get(counter, (0, 0))
                assert count <= a * n + b, (counter, where)
            assert counts["select0"] == counts["access"] == 1, where
            reads = [args[0] for key, args in calls.log if key.rpartition(".")[2] in R_SLOTS]
            assert [type(i) for i in reads] == [int, slice], where
        monkeypatch.undo()


def test_cold_query_sweeps_no_degree_table(tmp_path, monkeypatch, capsys):
    """`sigraph query` on a circular blob makes no _arc_degrees call,
    whatever the op; a validated from_bytes makes exactly one."""
    g = _graphs("circular", KINDS["circular"][1], 1000)[0]
    path = tmp_path / "circular.sig"
    path.write_bytes(g.to_bytes())
    calls = count_calls(monkeypatch, [(circular, "_arc_degrees")])
    for argv in (["degree", "7"], ["adjacent", "3", "9"], ["neighborhood", "7"],
                 ["spath", "3", "900"]):
        assert main(["query", str(path), *argv]) == 0
    assert calls == {}
    CircularArcGraph.from_bytes(path.read_bytes())
    assert calls == {"sigraph.circular._arc_degrees": 1}
    capsys.readouterr()
