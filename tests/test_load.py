"""Validated loading: bulk decoding, operation counts and corrupted blobs.

Every from_bytes treats its blob as untrusted. It must reject a corrupted
blob with GraphInputError (SerializationError is a subclass), or accept
it only when it re-encodes byte-identically, and it must do its checks
in sweeps rather than in per-vertex select/rank/access calls.
"""

import inspect
import random
import struct
from itertools import chain

import pytest

from conftest import FIG2_ARCS, KINDS, count_calls, degrees_agree, few_reversed_arcs, fig1_realization
from sigraph import circular, variants
from sigraph.bitvector import BitVector
from sigraph.circular import (
    ArcRealization,
    CircularArcGraph,
    _arc_symbols,
    random_arc_realization,
)
from sigraph.errors import GraphInputError, SerializationError
from sigraph.graph import Structure
from sigraph.intervals import IntervalRealization, random_realization
from sigraph.rmq import default_block_size
from sigraph.serial import Writer, pack_uints, width_for
from sigraph.variants import (
    MODE_IMPROPER,
    MODE_PROPER,
    KProperGraph,
    containment_depths,
)
from sigraph.verify import verify
from sigraph.wavelet import AlphabetSequence
from test_probes import _blobs, _mutants, _span_edits


def _structure(kind, rng, n):
    """A random structure of the kind; the circular draw here requires a
    reversed arc, which KINDS' draw does not."""
    build, draw = KINDS[kind]
    return build((random_arc_realization if kind == "circular" else draw)(n, rng))


# -- operation counts ----------------------------------------------------

PRIMITIVES = tuple(
    (owner, name)
    for owner in (BitVector, AlphabetSequence)
    for name in ("select", "rank", "access")
)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_load_makes_no_per_vertex_queries(kind, monkeypatch):
    """A validated load at n = 2000 calls no select, rank or access on a
    bit vector or a sequence; a per-vertex decode would make thousands."""
    g = _structure(kind, random.Random(7), 2000)
    blob = g.to_bytes()
    calls = count_calls(monkeypatch, PRIMITIVES)
    h = type(g).from_bytes(blob)
    assert calls == {}
    monkeypatch.undo()
    assert h.to_bytes() == blob


# -- one build path ------------------------------------------------------

def _class_and_args(kind):
    """The class that KINDS builds for the kind, and its mode argument."""
    g = KINDS[kind][0](KINDS[kind][1](1, random.Random(0)))
    return type(g), (g.mode,) if isinstance(g, KProperGraph) else ()


def test_constructors_take_the_realization_alone():
    """No constructor or from_realization takes a block size, raw S, r
    or T, or an alphabet size: only the realization and a depth mode.
    Every kind, the circular one included, shares Structure's
    from_realization, which passes its arguments on to the constructor,
    so it refuses every other argument as the constructor does."""
    for kind, (_, draw) in KINDS.items():
        cls, args = _class_and_args(kind)
        want = ["real", "mode"] if args else ["real"]
        assert list(inspect.signature(cls).parameters) == want, cls
        assert cls.from_realization.__func__ is Structure.from_realization.__func__, cls
        real = draw(5, random.Random(kind))
        for extra, named in (((64,), {}), ((), {"block_size": 64}), ((), {"sigma": 4})):
            with pytest.raises(TypeError):
                cls.from_realization(real, *args, *extra, **named)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_constructor_answers_like_from_realization(kind):
    """cls(real) is the one build path: it gives the blob and the degree,
    neighborhood and spath answers of from_realization(real), and
    verify finds nothing wrong with it."""
    cls, args = _class_and_args(kind)
    draw = KINDS[kind][1]
    rng = random.Random(f"constructor/{kind}")
    for n in range(1, 26):
        real = draw(n, rng)
        g = cls(real, *args)
        f = cls.from_realization(real, *args)
        assert g.to_bytes() == f.to_bytes()
        assert verify(g, real) == [], n
        labels = range(1, n + 1)
        for u in labels:
            assert (g.degree(u), g.neighborhood(u)) == (f.degree(u), f.neighborhood(u)), (n, u)
            assert [g.spath(u, v) for v in labels] == [f.spath(u, v) for v in labels], (n, u)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_space_report_survives_a_round_trip(kind):
    rng = random.Random(f"space/{kind}")
    for n in (1, 2, 40, 700):
        g = _structure(kind, rng, n)
        assert type(g).from_bytes(g.to_bytes()).space_report() == g.space_report()


def test_space_report_survives_a_round_trip_with_few_reversed_arcs():
    """With about 90% normal arcs the two families' own default block
    sizes differ; both indexes take the normal family's, which the blob
    stores, so a load reports the space that the build did."""
    g = CircularArcGraph(few_reversed_arcs(3000, random.Random(3000)))
    q = g.normal_count
    assert 0.85 < q / g.n < 0.95
    assert default_block_size(q) != default_block_size(g.n - q)
    assert CircularArcGraph.from_bytes(g.to_bytes()).space_report() == g.space_report()


# -- bulk decoding -------------------------------------------------------


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_bulk_realization_matches_per_vertex_decode(kind):
    rng = random.Random(f"bulk/{kind}")
    for _ in range(25):
        g = _structure(kind, rng, rng.randint(1, 120))
        per_vertex = (
            tuple(g.arc_of(v) for v in range(1, g.n + 1))
            if isinstance(g, CircularArcGraph)
            else tuple(g.interval_of(v) for v in range(1, g.n + 1))
        )
        real = g.realization()
        assert (real.arcs if isinstance(g, CircularArcGraph) else real.intervals) == per_vertex


def _shallow_blocks(blocks: int, size: int, rng) -> IntervalRealization:
    """Random pairings of size intervals each, laid end to end: nesting
    stays inside a block, so depths stay below size."""
    return IntervalRealization(tuple(
        (l + 2 * size * b, r + 2 * size * b)
        for b in range(blocks)
        for l, r in random_realization(size, rng).intervals
    ))


def test_depths_match_brute_force_on_deep_nesting(monkeypatch):
    """Both depth sweeps give the brute-force depths at n = 300. The
    sorted-list sweep moves Σ depth keys and hands over to the Fenwick
    tree past 32 a key (9,600): the fully nested family (44,850) and a
    uniform random pairing, which nests about a third of all pairs
    (Σ depth ≈ n²/6), take the tree. Shallow random blocks and the
    staircase, where every interval meets every other (ω = n) and none
    nests (k = 0), stay on the list."""
    n = 300
    rng = random.Random(3)
    cases = (
        (IntervalRealization(tuple((i, 2 * n + 1 - i) for i in range(1, n + 1))), True),
        (random_realization(n, rng), True),
        (_shallow_blocks(30, 10, rng), False),
        (IntervalRealization(tuple((i, n + i) for i in range(1, n + 1))), False),
    )
    for real, deep in cases:
        iv = real.intervals
        want_p = [sum(1 for a, b in iv if a < l and b > r) for l, r in iv]
        want_i = [sum(1 for a, b in iv if a > l and b < r) for l, r in iv]
        for mode, want in ((MODE_PROPER, want_p), (MODE_IMPROPER, want_i)):
            calls = count_calls(monkeypatch, ((variants, "_fenwick_earlier_greater"),))
            assert containment_depths(real, mode) == want
            assert calls == ({"sigraph.variants._fenwick_earlier_greater": 1} if deep else {})
            assert deep == (sum(want) > variants._MOVES_PER_KEY * n)
            monkeypatch.undo()


@pytest.mark.parametrize("mode", [MODE_PROPER, MODE_IMPROPER])
def test_deep_nesting_roundtrips(mode):
    """A family nested 300 deep has k = 299, past what one byte holds."""
    n = 300
    real = IntervalRealization(tuple((i, 2 * n + 1 - i) for i in range(1, n + 1)))
    g = KProperGraph.from_realization(real, mode)
    assert g.k == n - 1
    blob = g.to_bytes()
    h = KProperGraph.from_bytes(blob)
    assert h.to_bytes() == blob
    want = containment_depths(real, mode)
    for x in (g, h):
        assert [x.depth_of(v) for v in range(1, n + 1)] == want
        assert x.realization() == real


# -- canonical headers ---------------------------------------------------


def _patched(blob: bytes, offset: int, fmt: str, value: int) -> bytes:
    out = bytearray(blob)
    struct.pack_into(fmt, out, offset, value)
    return bytes(out)


# header layouts: magic(4) version(1) n(8), then the block size as a
# u32, after the mode byte in SKGR
@pytest.mark.parametrize(
    "kind,offset", [("interval", 13), ("kproper", 14), ("circular", 13)]
)
def test_zero_block_size_rejected(kind, offset):
    """A load derives the block size from n (from the normal family's
    size for circular arcs), so it rejects every other stored value."""
    g = _structure(kind, random.Random(1), 30)
    blob = g.to_bytes()
    c = default_block_size(g.normal_count if kind == "circular" else g.n)
    assert struct.unpack_from("<L", blob, offset) == (c,)
    for bad in (0, 1, c - 1, c + 1, 2 * c):
        with pytest.raises(SerializationError, match="block size"):
            type(g).from_bytes(_patched(blob, offset, "<L", bad))


@pytest.mark.parametrize("value", [2, 7, 255])
def test_unknown_mode_byte_rejected(value):
    blob = _structure("kproper", random.Random(2), 30).to_bytes()
    with pytest.raises(SerializationError, match="depth mode"):
        KProperGraph.from_bytes(_patched(blob, 13, "<B", value))


@pytest.mark.parametrize("value", [1, 2, 7, 255])
def test_unknown_degree_table_byte_rejected(value):
    """The byte once flagged a stored degree table; only 0 is read now."""
    blob = _structure("circular", random.Random(3), 30).to_bytes()
    with pytest.raises(SerializationError, match="degree table"):
        CircularArcGraph.from_bytes(_patched(blob, 17, "<B", value))


@pytest.mark.parametrize("kind", sorted(KINDS) + ["sequence"])
def test_version_mismatch_is_a_serialization_error(kind):
    """Byte 4 of every blob is its format version; one the loader does
    not know raises SerializationError, as it does for a bit vector."""
    if kind == "sequence":
        blob, load = AlphabetSequence.encode([0, 2, 1, 2], 3), AlphabetSequence.decode
    else:
        g = _structure(kind, random.Random(5), 20)
        blob, load = g.to_bytes(), type(g).from_bytes
    for version in (0, 2, 255):
        with pytest.raises(SerializationError, match="version"):
            load(blob[:4] + bytes([version]) + blob[5:])


def test_extra_left_symbols_are_an_input_error():
    """A T holding more left symbols than n used to escape as IndexError."""
    g = _structure("kproper", random.Random(4), 20)
    symbols = g.annotation.to_list()
    first_right = next(i for i, s in enumerate(symbols) if s & 1)
    symbols[first_right] -= 1
    blob = bytearray(g.to_bytes())
    seq = AlphabetSequence.encode(symbols, g.annotation.sigma)
    tail = len(blob) - len(seq)
    blob[tail:] = seq
    with pytest.raises(GraphInputError, match="left endpoints"):
        KProperGraph.from_bytes(bytes(blob))


# -- consistency checks that a single flipped bit cannot reach ----------


def _kproper_blob(g, symbols, sigma) -> bytes:
    w = Writer().magic(b"SKGR", 1)
    w.u64(g.n).u8(0 if g.mode == MODE_PROPER else 1).u32(default_block_size(g.n))
    w.block(AlphabetSequence.encode(symbols, sigma))
    return w.getvalue()


def _circular_blob(g, rp, rpp) -> bytes:
    w = Writer().magic(b"SCAG", 1)
    w.u64(g.n).u32(default_block_size(g.normal_count)).u8(0)
    w.block(AlphabetSequence.encode(g.endpoint_symbols.to_list(), 4))
    width = width_for(2 * g.n)
    w.block(pack_uints(rp, width))
    w.block(pack_uints(rpp, width))
    return w.getvalue()


@pytest.mark.parametrize("mode", [MODE_PROPER, MODE_IMPROPER])
def test_kproper_depth_labels_must_match_the_realization(mode):
    g = KProperGraph.from_realization(fig1_realization(), mode)
    symbols = g.annotation.to_list()
    sigma = g.annotation.sigma
    assert _kproper_blob(g, symbols, sigma) == g.to_bytes()
    # swapping depth classes 0 and 1 keeps the pairing, not the depths
    swapped = [s ^ 2 if s < 4 else s for s in symbols]
    with pytest.raises(GraphInputError, match="depths disagree"):
        KProperGraph.from_bytes(_kproper_blob(g, swapped, sigma))
    with pytest.raises(GraphInputError, match="deepest class"):
        KProperGraph.from_bytes(_kproper_blob(g, symbols, sigma + 2))


@pytest.mark.parametrize("mode", [MODE_PROPER, MODE_IMPROPER])
def test_kproper_load_builds_no_realization(mode, monkeypatch):
    """_pair has checked the endpoints, so a validated load recounts the
    depths from the right list without an IntervalRealization."""
    g = KProperGraph.from_realization(random_realization(300, random.Random(9)), mode)
    blob = g.to_bytes()
    calls = count_calls(monkeypatch, ((IntervalRealization, "__post_init__"),))
    h = KProperGraph.from_bytes(blob)
    assert calls == {}
    h.realization()
    assert calls == {"IntervalRealization.__post_init__": 1}
    monkeypatch.undo()
    assert h.to_bytes() == blob


def test_circular_load_computes_s_prime_once(monkeypatch):
    """A validated load builds from the S' it compared with the decoded
    one, so it runs _arc_symbols once, as a build does."""
    g = _structure("circular", random.Random(12), 300)
    blob = g.to_bytes()
    calls = count_calls(monkeypatch, ((circular, "_arc_symbols"),))
    h = CircularArcGraph.from_bytes(blob)
    assert calls == {"sigraph.circular._arc_symbols": 1}
    monkeypatch.undo()
    assert h.to_bytes() == blob


def test_circular_right_lists_must_match_the_sequence():
    g = CircularArcGraph.from_realization(ArcRealization(FIG2_ARCS))
    rp, rpp = list(g._rp), list(g._rpp)
    assert _circular_blob(g, rp, rpp) == g.to_bytes()
    # a normal and a reversed right endpoint trade places
    rp[0], rpp[0] = rpp[0], rp[0]
    with pytest.raises(GraphInputError, match="normal right endpoints"):
        CircularArcGraph.from_bytes(_circular_blob(g, rp, rpp))
    # arcs 1 and 2 trade ends: arc 2 becomes (4, 3), a normal arc that wraps
    rp = list(g._rp)
    rp[0], rp[1] = rp[1], rp[0]
    with pytest.raises(GraphInputError, match="orientations"):
        CircularArcGraph.from_bytes(_circular_blob(g, rp, g._rpp))


def test_one_comparison_catches_both_right_list_swaps():
    """The arcs a load pairs from either swapped blob above pass
    ArcRealization, so what rejects the blob is the one comparison of
    the S' those arcs give with the decoded S'."""
    g = CircularArcGraph.from_realization(ArcRealization(FIG2_ARCS))
    symbols = g.endpoint_symbols.to_list()
    across = (list(g._rp), list(g._rpp))
    across[0][0], across[1][0] = across[1][0], across[0][0]
    within = (list(g._rp), list(g._rpp))
    within[0][0], within[0][1] = within[0][1], within[0][0]
    for rp, rpp in (across, within):
        normal, reversed_ = iter(rp), iter(rpp)
        arcs = tuple(
            (p, next(reversed_) if sym == 2 else next(normal))
            for p, sym in enumerate(symbols, start=1)
            if not sym & 1
        )
        real = ArcRealization(arcs)
        assert _arc_symbols(real.arcs) != symbols
        with pytest.raises(GraphInputError, match="disagree"):
            CircularArcGraph.from_bytes(_circular_blob(g, rp, rpp))


# -- single-bit mutations ------------------------------------------------


@pytest.mark.parametrize("n", [1, 5, 40])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_single_bit_flips(kind, n):
    """Every bit of a blob, flipped one at a time: each mutant is
    rejected with GraphInputError or loads into a structure that
    re-encodes to the same bytes and answers degree consistently with
    its own realization."""
    g = _structure(kind, random.Random(f"flips/{kind}/{n}"), n)
    cls = type(g)
    blob = g.to_bytes()
    bits = range(8 * len(blob))
    accepted = 0
    for bit in bits:
        mutant = bytearray(blob)
        mutant[bit >> 3] ^= 1 << (bit & 7)
        mutant = bytes(mutant)
        try:
            h = cls.from_bytes(mutant)
        except GraphInputError:
            continue
        accepted += 1
        assert h.to_bytes() == mutant, f"bit {bit} accepted but re-encodes differently"
        assert degrees_agree(h), f"bit {bit} accepted with inconsistent degrees"
    assert accepted < len(bits) // 4


def _outcome(load, data: bytes):
    """What load makes of data: the error it rejects data with, or the
    degrees of the structure it loads."""
    try:
        g = load(data)
    except GraphInputError as e:
        return type(e), str(e)
    return [g.degree(v) for v in range(1, g.n + 1)]


def _load_tableless(data: bytes) -> CircularArcGraph:
    return CircularArcGraph._load_tableless(data)[0]


@pytest.mark.parametrize("n", [1, 5, 40])
def test_tableless_load_rejects_what_from_bytes_rejects(n):
    """The decode that `sigraph query` runs without the degree table on
    every circular mutant of test_probes (truncations, byte runs, forged
    fields, span edits) and on every single-bit flip of
    test_single_bit_flips' circular blob: it rejects each mutant with
    the error from_bytes raises, or loads the degrees from_bytes loads."""
    mutants = []
    for kind, m, g in _blobs():
        if kind == "circular" and m == n:
            blob = g.to_bytes()
            mutants += [data for _, data in chain(_mutants(blob), _span_edits(blob))]
    blob = _structure("circular", random.Random(f"flips/circular/{n}"), n).to_bytes()
    mutants.append(blob)    # unmutated, so that one blob at least loads
    for bit in range(8 * len(blob)):
        mutant = bytearray(blob)
        mutant[bit >> 3] ^= 1 << (bit & 7)
        mutants.append(bytes(mutant))
    rejected = 0
    for data in mutants:
        want = _outcome(CircularArcGraph.from_bytes, data)
        assert _outcome(_load_tableless, data) == want, data.hex()
        rejected += isinstance(want, tuple)
    assert 0 < rejected < len(mutants)
