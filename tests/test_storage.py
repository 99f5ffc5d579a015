"""Per-vertex arrays are packed: no structure keeps r, its words or its
directories as a Python list of boxed ints, after a build or a load.
Every structure pickles and copies through its blob."""

import copy
import gc
import pickle
import random

import pytest

from conftest import KINDS
from sigraph.bitvector import BitVector
from sigraph.intervals import normalize
from sigraph.rmq import RangeMaxIndex
from sigraph.variants import MODE_IMPROPER, MODE_PROPER, KProperGraph

N = 2000


def _slots(obj):
    """(name, value) of every slot obj has set, and of its __dict__."""
    for cls in type(obj).__mro__:
        for name in getattr(cls, "__slots__", ()):
            if hasattr(obj, name):
                yield name, getattr(obj, name)
    yield from getattr(obj, "__dict__", {}).items()


def _held(g):
    """(owner, slot, value) over g's slots and those of every BitVector
    and RangeMaxIndex a slot of g holds."""
    out = []
    for name, value in _slots(g):
        out.append((type(g).__name__, name, value))
        if isinstance(value, (BitVector, RangeMaxIndex)):
            out += [(type(value).__name__, n, v) for n, v in _slots(value)]
    return out


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_no_slot_holds_a_per_vertex_list(kind):
    """Built and loaded at n = 2000: every list a slot holds, and every
    list inside it, has fewer than n/2 entries."""
    build, draw = KINDS[kind]
    g = build(draw(N, random.Random(f"storage/{kind}")))
    for h in (g, type(g).from_bytes(g.to_bytes())):
        held = _held(h)
        assert any(owner == "BitVector" for owner, _, _ in held), kind
        for owner, name, value in held:
            if isinstance(value, list):
                for x in [value, *(x for x in value if isinstance(x, list))]:
                    assert len(x) < N // 2, f"{kind}: {owner}.{name} holds a list of {len(x)}"


def _tower(depth):
    """depth intervals each nested in all earlier ones: k = depth - 1 in
    either mode."""
    return normalize([(i, 4.0 * depth - i) for i in range(depth)])


def _live_kproper() -> int:
    return sum(type(o) is KProperGraph for o in gc.get_objects())


@pytest.mark.parametrize("deep", [False, True])
@pytest.mark.parametrize("mode", [MODE_PROPER, MODE_IMPROPER])
def test_dropped_kproper_graph_needs_no_collector(mode, deep):
    """A KProperGraph holds no reference to itself: its spath hop closes
    over its depths or its range-max index, never over the graph. So
    with the cyclic collector off, del frees a built and a loaded graph
    at once, in both modes, with depths of one byte and at k >= 256."""
    rng = random.Random(f"freed/{mode}")
    short = [(a, a + rng.uniform(1.0, 1.15)) for a in (rng.uniform(0, 20) for _ in range(300))]
    real = _tower(300) if deep else normalize(short)
    gc.collect()
    gc.disable()
    try:
        before = _live_kproper()
        g = KProperGraph(real, mode)
        loaded = KProperGraph.from_bytes(g.to_bytes())
        assert (g.k >= 256) == deep
        assert _live_kproper() == before + 2
        del g, loaded
        assert _live_kproper() == before
    finally:
        gc.enable()


def _answers(g) -> tuple:
    """Every degree, neighborhood, adjacency and spath answer of g."""
    vs = range(1, g.n + 1)
    return (
        [g.degree(v) for v in vs],
        [g.neighborhood(v) for v in vs],
        [[g.adjacent(u, v) for v in vs] for u in vs],
        [[g.spath(u, v) for v in vs] for u in vs],
    )


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_pickle_and_deepcopy_round_trip(kind):
    """A pickle round trip, a deepcopy and a copy of every kind, built
    and loaded, re-encode byte-identically and give the same answers."""
    build, draw = KINDS[kind]
    g = build(draw(40, random.Random(f"pickle/{kind}")))
    blob = g.to_bytes()
    want = _answers(g)
    for h in (g, type(g).from_bytes(blob)):
        for twin in (pickle.loads(pickle.dumps(h)), copy.deepcopy(h), copy.copy(h)):
            assert type(twin) is type(g), kind
            assert twin.to_bytes() == blob, kind
            assert _answers(twin) == want, kind


def test_bit_vector_pickles_through_its_blob():
    rng = random.Random(5)
    bv = BitVector([rng.random() < 0.3 for _ in range(300)])
    for twin in (pickle.loads(pickle.dumps(bv)), copy.deepcopy(bv)):
        assert twin.to_bytes() == bv.to_bytes()
        assert [twin.select(1, j) for j in range(1, bv.count(1) + 1)] == bv.positions(1)
