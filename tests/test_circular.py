"""Circular-arc structure against the worked 7-arc example and a
brute-force oracle on random realizations."""

import gc
import math
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FIG2_ADJACENCY,
    FIG2_ARCS,
    FIG2_TABLE_BLOB,
    circular_adjacent_case,
    count_calls,
    few_reversed_arcs,
)
from sigraph import circular, serial
from sigraph.bitvector import BitVector
from sigraph.circular import (
    ArcRealization,
    CircularArcGraph,
    anchor_arcs,
    flags_above,
    random_arc_realization,
)
from sigraph.errors import GraphInputError, QueryRangeError, SerializationError
from sigraph.oracle import OracleGraph
from sigraph.rmq import RangeMaxIndex
from sigraph.verify import verify


def fig2_graph() -> CircularArcGraph:
    return CircularArcGraph.from_realization(ArcRealization(FIG2_ARCS))


# -- build and decode ----------------------------------------------------


def test_endpoint_symbols():
    g = fig2_graph()
    assert g.endpoint_symbols.to_list() == [0, 3, 1, 0, 0, 2, 1, 1, 0, 3, 0, 1, 2, 1]
    assert g.n == 7
    assert g.normal_count == 5


def test_symbols_from_the_vectors_match_the_arcs():
    """S' rebuilt from S, the family vectors and _rpp equals the S' the
    arcs give, on FIG2 and on random realizations with n = 1..300."""
    reals = [ArcRealization(FIG2_ARCS)]
    rng = random.Random(41)
    reals += [random_arc_realization(n, rng, require_reversed=n % 2 == 0)
              for n in range(1, 301)]
    for real in reals:
        g = CircularArcGraph(real)
        assert g._symbols() == bytes(circular._arc_symbols(real.arcs)), real.n


def test_right_lists_and_degree_table():
    g = fig2_graph()
    assert g._rp.tolist() == [3, 7, 8, 14, 12]
    assert g._rpp.tolist() == [2, 10]
    assert list(g._degrees) == [len(FIG2_ADJACENCY[v]) for v in range(1, 8)]


def test_decode_round_trip():
    g = fig2_graph()
    for v, arc in enumerate(FIG2_ARCS, start=1):
        assert g.arc_of(v) == arc
    assert g.realization() == ArcRealization(FIG2_ARCS)
    assert {v for v in range(1, 8) if g.is_reversed(v)} == {4, 7}


def test_realization_validation():
    with pytest.raises(GraphInputError, match="at least one"):
        ArcRealization(())
    with pytest.raises(GraphInputError, match="start order"):
        ArcRealization(((3, 1), (2, 4)))
    with pytest.raises(GraphInputError, match="exactly once"):
        ArcRealization(((1, 3), (3, 4)))
    with pytest.raises(GraphInputError, match="must differ"):
        ArcRealization(((1, 1),))
    with pytest.raises(GraphInputError, match="start at position 1"):
        ArcRealization(((2, 1),))


def test_anchor_rotation():
    real = anchor_arcs([(10, 30), (25, 70), (50, 5)])
    assert real.arcs == ((1, 3), (2, 5), (4, 6))
    # floats and negatives rank the same way
    again = anchor_arcs([(-1.0, 0.5), (0.2, 3.5), (2.25, -1.5)])
    assert again.arcs == real.arcs


def test_anchor_override_relabels_but_keeps_graph():
    base = anchor_arcs([(10, 30), (25, 70), (50, 5)])
    for anchor in (1, 2, 3):
        real = anchor_arcs([(10, 30), (25, 70), (50, 5)], anchor=anchor)
        assert real.arcs[0][0] == 1
        a = OracleGraph.from_arc_positions(base.arcs)
        b = OracleGraph.from_arc_positions(real.arcs)
        assert sorted(a.degree(v) for v in range(1, 4)) == sorted(
            b.degree(v) for v in range(1, 4)
        )
    with pytest.raises(GraphInputError, match="anchor index"):
        anchor_arcs([(1, 2)], anchor=2)


def test_anchor_rejects_degenerate_input():
    with pytest.raises(GraphInputError, match="full circle"):
        anchor_arcs([(4, 4), (1, 2)])
    with pytest.raises(GraphInputError, match="distinct"):
        anchor_arcs([(1, 5), (5, 9)])
    with pytest.raises(GraphInputError, match="at least one"):
        anchor_arcs([])


@pytest.mark.parametrize("pair", [(math.nan, 0.5), (0.5, math.nan)])
def test_anchor_rejects_nan_coordinate(pair):
    with pytest.raises(GraphInputError, match=r"arc #3 has a NaN"):
        anchor_arcs([(0.2, 0.7), (0.6, 0.9), pair])


def test_anchor_accepts_infinite_coordinates():
    assert anchor_arcs([(-math.inf, 0.5), (0.2, math.inf)]).arcs == ((1, 3), (2, 4))


def test_anchor_arc_is_never_reversed():
    rng = random.Random(5)
    for _ in range(30):
        real = random_arc_realization(rng.randint(1, 12), rng)
        assert not real.is_reversed(1)


def test_random_realization_includes_reversed_arc():
    rng = random.Random(11)
    for n in (2, 3, 8, 20):
        real = random_arc_realization(n, rng)
        assert real.reversed_set()


# -- queries on the worked example ---------------------------------------


def test_adjacency_matrix():
    g = fig2_graph()
    for u in range(1, 8):
        for v in range(1, 8):
            assert g.adjacent(u, v) == (v in FIG2_ADJACENCY[u]), (u, v)


def test_degrees():
    g = fig2_graph()
    assert g.degree(4) == 6
    assert g.degree(7) == 5
    for v in range(1, 8):
        assert g.degree(v) == len(FIG2_ADJACENCY[v])


def test_neighborhoods():
    g = fig2_graph()
    assert g.neighborhood(6) == [4, 5]
    for v in range(1, 8):
        assert g.neighborhood(v) == sorted(FIG2_ADJACENCY[v])


def test_paths_on_example():
    g = fig2_graph()
    path = g.spath(1, 6)
    assert path is not None and len(path) == 3
    assert path[0] == 1 and path[-1] == 6
    assert path[1] in FIG2_ADJACENCY[1] & FIG2_ADJACENCY[6]
    assert verify(g, ArcRealization(FIG2_ARCS)) == []


def test_query_range_errors():
    g = fig2_graph()
    for bad in (0, 8, -3):
        with pytest.raises(QueryRangeError):
            g.degree(bad)
        with pytest.raises(QueryRangeError):
            g.neighborhood(bad)
        with pytest.raises(QueryRangeError):
            g.adjacent(1, bad)
        with pytest.raises(QueryRangeError):
            g.spath(bad, 1)
        with pytest.raises(QueryRangeError):
            g.arc_of(bad)


# -- small special shapes ------------------------------------------------


def test_single_arc():
    real = anchor_arcs([(40, 2)])
    assert real.arcs == ((1, 2),)
    g = CircularArcGraph.from_realization(real)
    assert g.n == 1 and g.normal_count == 1
    assert g.degree(1) == 0
    assert g.neighborhood(1) == []
    assert g.spath(1, 1) == [1]


def test_disconnected_components():
    # the reversed arc misses the gap 4..5, isolating the middle arc
    g = CircularArcGraph.from_realization(ArcRealization(((1, 2), (4, 5), (6, 3))))
    assert g.adjacent(1, 3) and not g.adjacent(1, 2) and not g.adjacent(2, 3)
    assert g.spath(2, 1) is None
    assert g.spath(1, 2) is None
    assert g.spath(3, 2) is None
    assert len(g.spath(1, 3)) == 2


def test_spath_hop_cap_is_an_internal_error(monkeypatch):
    """None means disconnected, so walks that never finish must not
    return it: a successor that never advances hits the cap and raises."""
    g = CircularArcGraph.from_realization(ArcRealization(((1, 2), (3, 4), (5, 6))))
    monkeypatch.setattr(CircularArcGraph, "_succ", lambda self, head: head)
    with pytest.raises(AssertionError, match="hop cap"):
        g.spath(1, 3)


def test_all_disjoint_normals():
    g = CircularArcGraph.from_realization(ArcRealization(((1, 2), (3, 4), (5, 6))))
    for u in range(1, 4):
        for v in range(1, 4):
            assert not g.adjacent(u, v)
            if u != v:
                assert g.spath(u, v) is None
        assert g.degree(u) == 0


def test_reversed_arcs_form_a_clique():
    rng = random.Random(77)
    for _ in range(25):
        real = random_arc_realization(rng.randint(2, 15), rng)
        g = CircularArcGraph.from_realization(real)
        rev = sorted(real.reversed_set())
        for i, u in enumerate(rev):
            for v in rev[i + 1 :]:
                assert g.adjacent(u, v)


# -- oracle equivalence --------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9), n=st.integers(1, 28))
def test_matches_oracle(seed, n):
    rng = random.Random(seed)
    real = random_arc_realization(n, rng, require_reversed=False)
    assert verify(CircularArcGraph(real), real) == []


def test_matches_oracle_reversed_heavy():
    rng = random.Random(20260821)
    for _ in range(40):
        real = random_arc_realization(rng.randint(2, 30), rng)
        assert verify(CircularArcGraph(real), real) == []


def _pairings(points):
    """Every perfect matching of the points, as lists of pairs."""
    if not points:
        yield []
        return
    first = points[0]
    for i in range(1, len(points)):
        for rest in _pairings(points[1:i] + points[i + 1:]):
            yield [(first, points[i])] + rest


def _configurations(n: int) -> set[ArcRealization]:
    """Every anchored configuration of n arcs: each pairing of the 2n
    positions, each arc in both orientations."""
    return {
        anchor_arcs([(a, b) if flip >> i & 1 else (b, a) for i, (a, b) in enumerate(pairs)])
        for pairs in _pairings(list(range(1, 2 * n + 1)))
        for flip in range(1 << n)
    }


def test_matches_oracle_on_every_small_configuration():
    """Every arc configuration with n <= 4: each pairing of the 2n
    positions, each arc in both orientations, anchored. Every ordered
    pair's adjacent, spath, degree and neighborhood answer matches the
    oracle, built and loaded without the degree table, and the pairs
    reach every case of the adjacent test."""
    cases = set()
    for n in range(1, 5):
        for real in _configurations(n):
            g = CircularArcGraph(real)
            assert verify(g, real) == []
            assert verify(_tableless(g), real) == []
            cases.update(
                circular_adjacent_case(real.arcs, u, v)
                for u in range(1, n + 1)
                for v in range(1, n + 1)
                if u != v
            )
    assert cases == {
        "u reversed", "v starts before r_u", "both normal, no meet", "v reversed",
    }


def _short_arcs(n: int, rng, reach: int = 20) -> ArcRealization:
    """Arcs of at most reach/n of the circle: at 20, paths of dozens of
    hops, and a few reversed arcs around the anchor point; at 4, about
    two arcs over each point, as in the count contract."""
    raw = []
    for _ in range(n):
        a = rng.random()
        raw.append((a, (a + rng.random() * reach / n) % 1.0))
    return anchor_arcs(raw)


@pytest.mark.parametrize("make", [random_arc_realization, _short_arcs])
def test_spath_heads_rank_their_right_endpoint_once(make, monkeypatch):
    """A head carries k = S.rank(0, r), ranked once when it is made, so
    the meet test needs no primitive call; a greedy hop makes one rank,
    its new head's k."""
    n = 2000
    rng = random.Random(f"heads/{make.__name__}")
    g = CircularArcGraph(make(n, rng))
    s = g._s
    heads = [g._head(v, *g._right(v)[:2]) for v in rng.sample(range(1, n + 1), 400)]
    for v, r, rev, k in heads:
        assert (r, rev) == (g.arc_of(v)[1], g.is_reversed(v))
        assert k == s.rank(0, r)
    calls = count_calls(monkeypatch, [(BitVector, "rank")])
    hops = 0
    for a in heads:
        calls.clear()
        nxt = g._succ(a)
        assert calls.get("BitVector.rank", 0) == (nxt is not None), (a, calls)
        if nxt is not None:
            hops += 1
            assert nxt[3] == s.rank(0, nxt[1])
    assert hops > 300


@pytest.mark.parametrize("make", [random_arc_realization, _short_arcs])
def test_adjacent_and_spath_never_select_on_s(make, monkeypatch):
    """Labels follow start order, so adjacency and the spath walks test
    starts by rank, and a hop reads its label from the records: neither
    selects, on S or on a family vector."""
    n = 2000
    rng = random.Random(f"select-free/{make.__name__}")
    g = CircularArcGraph(make(n, rng))
    calls = count_calls(monkeypatch, [(BitVector, "select")], names={"S": g._s})
    for _ in range(2000):
        g.adjacent(rng.randint(1, n), rng.randint(1, n))
    for _ in range(300):
        g.spath(rng.randint(1, n), rng.randint(1, n))
    assert calls == {}


def _range_max_succ(g: CircularArcGraph, head):
    """The greedy hop by range-max calls: a prefix of r' on a wrap hop,
    else a prefix of r and the maximum of r', less the head on a
    reversed one. The reference the record hop must agree with."""
    v, r, rev, k = head
    lk, rp, rpp = g._lk, g._rp, g._rpp
    wrap = lk.rank(1, k)
    if wrap:
        x = g._rmax_r.query(1, wrap)
        return g._head(lk.select(1, x), rpp[x - 1], True)
    best_x, best_val = None, r
    if k:
        x = g._rmax_n.query(1, k)
        if rp[x - 1] > best_val:
            best_x, best_val = (x, False), rp[x - 1]
    nrev = len(rpp)
    mine = lk.rank(1, v)
    for lo, hi in ((1, mine - 1), (mine + 1, nrev)) if rev else ((1, nrev),):
        if lo <= hi:
            x = g._rmax_r.query(lo, hi)
            if rpp[x - 1] > best_val:
                best_x, best_val = (x, True), rpp[x - 1]
    if best_x is None:
        return None
    x, is_rev = best_x
    return g._head(lk.select(int(is_rev), x), best_val, is_rev)


def _all_normal_arcs(n: int, rng) -> ArcRealization:
    """Arcs of at most 0.1 of the circle starting before 0.85: none
    crosses the anchor point, so r' is empty."""
    raw = []
    for _ in range(n):
        a = rng.uniform(0.0, 0.85)
        raw.append((a, a + rng.random() * 0.1))
    return anchor_arcs(raw)


def _one_reversed_arc(n: int, rng) -> ArcRealization:
    """The anchor at 0, short normal arcs, and one arc across the anchor
    point: r' has one entry."""
    raw = [(0.0, 0.02), (0.95, 0.05)]
    for _ in range(n - 2):
        a = rng.uniform(0.03, 0.85)
        raw.append((a, a + rng.random() * 0.1))
    return anchor_arcs(raw)


def test_record_hop_matches_the_range_max_hop():
    """From every head, built and reloaded, the hop read from the records
    is the range-max hop: on random arcs, short arcs whose records are
    dense, mostly normal arcs, r' of 0 and of 1 entry, and every
    configuration with n <= 3. Over 100 of the heads are the farthest
    reversed arc itself, which the reference leaves out of its own hop."""
    rng = random.Random("record-hop")
    reals = [
        make(n, rng)
        for make in (random_arc_realization, _short_arcs, few_reversed_arcs,
                     _all_normal_arcs, _one_reversed_arc)
        for n in (5, 60, 2000)
    ]
    reals += [real for n in (1, 2, 3) for real in _configurations(n)]
    nrevs = set()
    top_heads = 0
    for real in reals:
        built = CircularArcGraph(real)
        for g in (built, CircularArcGraph.from_bytes(built.to_bytes())):
            nrevs.add(min(len(g._rpp), 2))
            for v in range(1, real.n + 1):
                head = g._head(v, *g._right(v)[:2])
                assert g._succ(head) == _range_max_succ(g, head), (real.arcs, head)
                top_heads += bool(g._rec_r) and v == g._rec_r[-1]
    assert nrevs == {0, 1, 2}
    assert top_heads > 100


@pytest.mark.parametrize("make", [random_arc_realization, _short_arcs, few_reversed_arcs])
def test_spath_makes_no_range_max_call(make, monkeypatch):
    """Every spath hop reads its maxima from the records, built and
    reloaded, also where most normal arcs are records."""
    n = 2000
    rng = random.Random(f"no-rmq/{make.__name__}")
    built = CircularArcGraph(make(n, rng))
    if make is _short_arcs:
        assert len(built._rec_n) > built.normal_count // 4
    for g in (built, CircularArcGraph.from_bytes(built.to_bytes())):
        calls = count_calls(monkeypatch, [(RangeMaxIndex, "query"),
                                          (CircularArcGraph, "_succ")])
        for _ in range(300):
            g.spath(rng.randint(1, n), rng.randint(1, n))
        assert calls["CircularArcGraph._succ"] > 50
        assert "RangeMaxIndex.query" not in calls
        monkeypatch.undo()


def _nested_normals(n: int) -> ArcRealization:
    return ArcRealization(tuple((i, 2 * n + 1 - i) for i in range(1, n + 1)))


def _disjoint_chain(n: int) -> ArcRealization:
    return ArcRealization(tuple((2 * i - 1, 2 * i) for i in range(1, n + 1)))


def _nested_gaps(n: int) -> ArcRealization:
    """The anchor (1, 2), then reversed arcs whose gaps nest, with a
    chain of normal arcs inside the innermost gap: every normal arc but
    the anchor nests inside every gap."""
    h = (n - 1) // 2                  # normal arcs after the anchor
    k = n - 1 - h                     # reversed arcs
    mid = 3 + k                       # the chain starts past the gaps' ends
    arcs = [(1, 2)]
    arcs += [(mid + 2 * j, mid + 2 * j + 1) for j in range(h)]
    arcs += [(2 * n + 1 - i, 2 + i) for i in range(k, 0, -1)]
    return ArcRealization(tuple(arcs))


def _tableless(g: CircularArcGraph) -> CircularArcGraph:
    """g's blob through the validated decode that builds no degree
    table, as `sigraph query` loads it."""
    return CircularArcGraph._load_tableless(g.to_bytes())[0]


def _assert_oracle_degrees(real: ArcRealization) -> None:
    """The table, computed at build and at load, and the one-shot count
    of a structure loaded without it give every vertex its oracle
    degree, and the count's neighborhoods equal the table's."""
    oracle = OracleGraph.from_arc_positions(real.arcs)
    labels = range(1, real.n + 1)
    want = [oracle.degree(v) for v in labels]
    g = CircularArcGraph.from_realization(real)
    h = CircularArcGraph.from_bytes(g.to_bytes())
    cold = _tableless(g)
    assert isinstance(cold._degrees, circular._DegreeCounter)
    for built in (g, h, cold):
        assert [built.degree(v) for v in labels] == want, real.n
    assert [cold.neighborhood(v) for v in labels] == [g.neighborhood(v) for v in labels]


def test_degree_table_matches_oracle():
    rng = random.Random(9)
    for n in range(1, 26):
        _assert_oracle_degrees(random_arc_realization(n, rng, require_reversed=False))
    for n in range(1, 61):
        for require_reversed in (True, False):
            _assert_oracle_degrees(random_arc_realization(n, rng, require_reversed))


@pytest.mark.parametrize("shift", [1, 3])
def test_degree_table_across_block_edges(shift, monkeypatch):
    """With blocks of 2 and 8 positions, marks and prefix counts fall on
    every block edge: the table, built and loaded, matches the oracle on
    random arcs and on the families with the most nestings."""
    monkeypatch.setattr(circular, "_BLOCK_SHIFT", shift)
    rng = random.Random(60 + shift)
    for n in range(1, 61):
        _assert_oracle_degrees(random_arc_realization(n, rng, require_reversed=n % 2 == 0))
    for n in (2, 5, 64):
        for family in (_nested_normals, _disjoint_chain, _nested_gaps):
            _assert_oracle_degrees(family(n))


@pytest.mark.parametrize("n", [2048, 2049])
def test_degree_table_crosses_a_block(n):
    """2n = 4096 and 4098 positions reach past the first block of 4096."""
    assert 2 * n >= 1 << circular._BLOCK_SHIFT
    _assert_oracle_degrees(random_arc_realization(n, random.Random(n)))


def test_degree_table_reuses_the_callers_s_prime(monkeypatch):
    """Counting the table makes no bit vector rank, select or access, and
    a build and a load each run _arc_symbols once: the sweep reads the
    S' its caller holds."""
    real = random_arc_realization(300, random.Random(23))
    symbols = circular._arc_symbols(real.arcs)
    calls = count_calls(
        monkeypatch,
        [(BitVector, name) for name in ("select", "rank", "access")]
        + [(circular, "_arc_symbols")],
    )
    table = circular._arc_degrees(real.arcs, symbols)
    assert calls == {}
    g = CircularArcGraph(real)
    assert calls == {"sigraph.circular._arc_symbols": 1}
    blob = g.to_bytes()
    calls.clear()
    h = CircularArcGraph.from_bytes(blob)
    assert calls == {"sigraph.circular._arc_symbols": 1}
    assert g._degrees == h._degrees == table


# -- the one-shot count --------------------------------------------------


def _gap_around_chain(m: int) -> ArcRealization:
    """One reversed arc whose gap holds a chain of m normal arcs, each
    meeting the next; the anchor is the one short arc the reversed arc
    covers."""
    raw = [(0.01, 0.05), (0.9, 0.1)]
    raw += [(0.15 + 0.7 * i / m, 0.15 + 0.7 * (i + 1.5) / m) for i in range(m)]
    return anchor_arcs(raw)


def _one_reversed(n: int, rng: random.Random) -> ArcRealization:
    """n - 1 random normal arcs over (0.1, 0.8) and one reversed arc
    that covers the anchor's start."""
    raw = [(0.05, 0.3), (0.85, 0.08)]
    for _ in range(n - 2):
        a = 0.1 + 0.6 * rng.random()
        raw.append((a, a + 0.1 * rng.random()))
    return anchor_arcs(raw)


def _all_normal(n: int, rng: random.Random) -> ArcRealization:
    """n random arcs that start and end in (0, 1) in that order: none
    crosses the anchor's start."""
    return anchor_arcs([tuple(sorted((rng.random(), rng.random()))) for _ in range(n)])


def test_degrees_on_constructed_families():
    """The table and the one-shot count on few reversed arcs, none,
    exactly one, one whose gap holds a chain of normal arcs, and arcs of
    at most 4/n of the circle at n = 2,000."""
    rng = random.Random(73)
    for n in (2, 3, 10, 57, 300):
        _assert_oracle_degrees(few_reversed_arcs(n, rng))
        _assert_oracle_degrees(_all_normal(n, rng))
        _assert_oracle_degrees(_one_reversed(n, rng))
    for m in (8, 9, 40):
        real = _gap_around_chain(m)
        assert len(real.reversed_set()) == 1
        _assert_oracle_degrees(real)
    _assert_oracle_degrees(_short_arcs(2000, rng, reach=4))


def test_tableless_answers_match_the_tabled_ones():
    """A structure loaded without its table passes verify and answers
    adjacent and spath exactly as the tabled one."""
    rng = random.Random(75)
    reals = [ArcRealization(FIG2_ARCS)]
    reals += [random_arc_realization(n, rng, require_reversed=n % 2 == 0) for n in range(1, 31)]
    for real in reals:
        g = CircularArcGraph(real)
        h = _tableless(g)
        assert verify(h, real) == []
        labels = range(1, real.n + 1)
        for u in labels:
            for v in labels:
                assert h.adjacent(u, v) == g.adjacent(u, v)
                assert h.spath(u, v) == g.spath(u, v)


def test_the_counter_holds_the_vectors_not_the_structure():
    """The counter keeps the vectors and lists it reads and nothing
    else, so a tableless structure and its counter make no cycle."""
    h = _tableless(fig2_graph())
    held = [x for x in gc.get_referents(h._degrees) if not isinstance(x, (int, type))]
    assert sorted(map(id, held)) == sorted(map(id, (h._s, h._lk, h._rk, h._rp, h._rpp)))


# -- serialization -------------------------------------------------------


def test_round_trip_bytes():
    g = fig2_graph()
    blob = g.to_bytes()
    h = CircularArcGraph.from_bytes(blob)
    assert h.to_bytes() == blob
    assert h.realization() == g.realization()
    for v in range(1, 8):
        assert h.neighborhood(v) == g.neighborhood(v)


# FIG2 as version 1 of the SCAG format writes it
FIG2_BLOB = (
    "5343414701070000000000000020000000001d0000000000000053415351010e0000"
    "00000000000400000004000000000000001c584c06030000000000000073e80c0100"
    "000000000000a2"
)


def test_blob_format_is_pinned():
    blob = bytes.fromhex(FIG2_BLOB)
    assert fig2_graph().to_bytes() == blob
    h = CircularArcGraph.from_bytes(blob)
    assert h.to_bytes() == blob
    assert [h.degree(v) for v in range(1, 8)] == [len(FIG2_ADJACENCY[v]) for v in range(1, 8)]


def test_stored_table_blob_is_rejected():
    """A blob that stores the degree table has flag byte 1; the loader
    names the table instead of reading it."""
    with pytest.raises(SerializationError, match="degree table"):
        CircularArcGraph.from_bytes(bytes.fromhex(FIG2_TABLE_BLOB))


def test_reject_corrupt_bytes():
    blob = bytearray(fig2_graph().to_bytes())
    with pytest.raises(GraphInputError):
        CircularArcGraph.from_bytes(bytes(blob[:-3]))
    wrong = bytearray(blob)
    wrong[:4] = b"SXAG"
    with pytest.raises(GraphInputError):
        CircularArcGraph.from_bytes(bytes(wrong))
    flipped = bytearray(blob)
    flipped[-1] ^= 0x04
    with pytest.raises(GraphInputError):
        CircularArcGraph.from_bytes(bytes(flipped))


def test_round_trip_random():
    rng = random.Random(31)
    for _ in range(15):
        real = random_arc_realization(rng.randint(1, 20), rng, require_reversed=False)
        g = CircularArcGraph.from_realization(real)
        h = CircularArcGraph.from_bytes(g.to_bytes())
        assert h.realization() == real


# -- space ---------------------------------------------------------------


def test_space_report_keys_and_budget():
    n = 20000
    rng = random.Random(13)
    real = random_arc_realization(n, rng)
    g = CircularArcGraph.from_realization(real)
    rep = g.space_report()
    assert set(rep) == {
        "S",
        "S_directory",
        "left_families",
        "left_families_directory",
        "right_families",
        "right_families_directory",
        "r_normal",
        "r_reversed",
        "rmax_normal_directory",
        "rmax_reversed_directory",
        "spath_records",
        "degree_table",
    }
    width = max(1, (2 * n - 1).bit_length())
    assert rep["r_normal"] == g.normal_count * width
    assert rep["r_reversed"] == (n - g.normal_count) * width
    assert rep["spath_records"] == (
        len(g._rec_n) * g.normal_count.bit_length()
        + len(g._rec_r) * (n.bit_length() + width)
    )
    budget = 3.5 * n * n.bit_length()
    assert g.space_bits() <= budget
    assert "degree_table" in CircularArcGraph(ArcRealization(FIG2_ARCS)).space_report()
    # loaded without its table, the structure reports none
    h = CircularArcGraph._load_tableless(g.to_bytes())[0]
    assert h.space_report() == {k: bits for k, bits in rep.items() if k != "degree_table"}
    assert h.space_bits() <= budget - rep["degree_table"]


def _family_reports(real: ArcRealization, oracle: OracleGraph):
    """Per arc, from the realization and the oracle alone: its oracle
    neighborhood, the hit count of each family's range-max report with
    that report's range (family ranks), and the hits the window of at
    most _MASK_SPAN * count ranks ending at the range's top misses. Ranks
    number each family's arcs in label order."""
    arcs = real.arcs
    rank, starts = {}, ([], [])     # starts[False]: normal, [True]: reversed
    for u, (l, r) in enumerate(arcs, start=1):
        starts[l > r].append(l)
        rank[u] = (l > r, len(starts[l > r]))
    sizes = {False: len(starts[False]), True: len(starts[True])}
    out = {}
    for v, (l, r) in enumerate(arcs, start=1):
        hood = oracle.neighborhood(v)
        rev, mine = rank[v]
        # the other family's report covers its ranks starting after r;
        # a normal arc also reports over its earlier normal ranks
        other = not rev
        cross = sum(1 for x in starts[other] if x < r)
        ranges = {other: (cross + 1, sizes[other])}
        if not rev:
            ranges[False] = (1, mine - 1)
        reports = {}
        for fam, (lo, hi) in ranges.items():
            hits = [x for f, x in map(rank.get, hood) if f == fam and lo <= x <= hi]
            top = max(lo, hi - circular._MASK_SPAN * len(hits) + 1)
            missed = sum(1 for x in hits if x < top)
            reports[fam] = (lo, hi, len(hits), missed)
        out[v] = (hood, reports)
    return out


def _first_hit_report(n: int) -> ArcRealization:
    """n arcs: the anchor (1, 2), then the ends of n - 3 reversed arcs
    that miss v, then the normal arc v, then a reversed arc H that ends
    just after v starts and starts just after v ends, then the misses'
    starts. Every reversed arc starts after v ends, so v's reversed
    report covers all of them; its one hit, H, is rank 1 of n - 2, which
    the window of _MASK_SPAN ranks ending at the last rank misses once
    n > _MASK_SPAN + 2."""
    m = n - 3
    arcs = [(1, 2), (m + 3, m + 4), (m + 6, m + 5)]
    arcs += [(m + 6 + i, 2 + i) for i in range(1, m + 1)]
    return ArcRealization(tuple(arcs))


@pytest.mark.parametrize("n", [200, 2000])
def test_neighborhood_knows_its_hit_counts(n, monkeypatch):
    """The counts each family report needs are known without a search:
    a normal arc's earlier normal hits are (mine - 1) less the normal
    rights before l, two ranks, and the other family's report holds
    degree less the hits already known. With them each report reads one
    window and makes at most max(0, 2m - 1) range-max calls, inside its
    range, for the m hits the window misses: a normal arc's own family
    report searches its earlier normal arcs only, and the first normal
    arc's none. Checked on the built and the reloaded graph
    of random arcs and of arcs whose one report hit lies far before the
    window, so the range-max recursion runs."""
    fallbacks = 0
    for real in (random_arc_realization(n, random.Random(n)), _first_hit_report(n)):
        fallbacks += _check_hit_counts(real, monkeypatch)
    assert fallbacks > 0


def _check_hit_counts(real: ArcRealization, monkeypatch) -> int:
    """test_neighborhood_knows_its_hit_counts on one realization: the
    number of family reports whose window missed a hit."""
    n = len(real.arcs)
    fallbacks = 0
    expected = _family_reports(real, OracleGraph.from_arc_positions(real.arcs))
    built = CircularArcGraph.from_realization(real)
    for g in (built, CircularArcGraph.from_bytes(built.to_bytes())):
        nrev = n - g.normal_count
        calls = count_calls(monkeypatch, [(RangeMaxIndex, "query")],
                            names={"normal": g._rmax_n, "reversed": g._rmax_r})
        for v in range(1, n + 1):
            hood, reports = expected[v]
            l, r = g.arc_of(v)
            rev = g.is_reversed(v)
            deg = g.degree(v)
            if not rev:
                mine = g._lk.rank(0, v)
                lo, hi, count, _ = reports[False]
                assert (lo, hi) == (1, mine - 1), v
                assert mine - 1 - g._rk.rank(0, g._s.rank(1, l)) == count, v
                cross = g._lk.rank(1, g._s.rank(0, r))
                normal_total = count + g._rank_nl(r) - mine
                assert deg - normal_total - cross == reports[True][2], v
            else:
                cross = g._rank_nl(r)
                assert deg - cross - (nrev - 1) == reports[False][2], v
            calls.clear()
            assert g.neighborhood(v) == hood, v
            for fam, name in ((False, "normal.query"), (True, "reversed.query")):
                log = [args for key, args in calls.log if key == name]
                lo, hi, count, missed = reports.get(fam, (0, 0, 0, 0))
                assert len(log) <= max(0, 2 * missed - 1), (v, fam, missed)
                assert all(lo <= i <= j <= hi for i, j in log), (v, fam)
                fallbacks += missed > 0
        monkeypatch.undo()
    return fallbacks


def test_neighborhoods_rarely_search_the_range_max_index(monkeypatch):
    """A report's window spans _MASK_SPAN ranks per hit, so random arcs
    seldom leave a hit before it: every neighborhood at n = 2000 equals
    the oracle's, and all of them together make at most n / 100
    range-max calls."""
    n = 2000
    real = random_arc_realization(n, random.Random(2000))
    g = CircularArcGraph.from_realization(real)
    oracle = OracleGraph.from_arc_positions(real.arcs)
    calls = count_calls(monkeypatch, [(RangeMaxIndex, "query")])
    for v in range(1, n + 1):
        assert g.neighborhood(v) == oracle.neighborhood(v), v
    assert calls.get("RangeMaxIndex.query", 0) <= n / 100


def _count_families(monkeypatch) -> dict:
    """Wrap circular._family_labels, which maps one family's hits to
    labels, and return the live tally of the selects its per-hit path
    may make beyond the two for the first and last hit, credited when
    the hits span more words of the left family vector than there are
    hits. The labels are the hits' positions in that vector, so the
    credit reads them off the answer. A·units + b cannot state this
    bound: it is O(1) for dense hits."""
    counts = {"per_hit": 0}
    family_labels = circular._family_labels

    def counting_family_labels(*args):
        out = family_labels(*args)
        hits = len(out)
        if hits > 2 and (out[-1] - 1) // 64 - (out[0] - 1) // 64 + 1 > hits:
            counts["per_hit"] += hits - 2
        return out

    monkeypatch.setattr(circular, "_family_labels", counting_family_labels)
    return counts


def _selects(calls) -> int:
    return calls.get("BitVector.select0", 0) + calls.get("BitVector.select1", 0)


@pytest.mark.parametrize("n", [200, 2000])
def test_neighborhood_makes_at_most_five_selects(n, monkeypatch):
    """One select decodes v and one select_marked maps each family's hit
    mask to labels: two selects and one word pass while the family's hits
    number at least one per word they span, one select per hit past
    that. So a neighborhood costs at most 5 selects plus the per-hit
    selects of sparse families, which random arcs rarely have."""
    g = CircularArcGraph.from_realization(random_arc_realization(n, random.Random(n)))
    oracle = OracleGraph.from_arc_positions(g.realization().arcs)
    counts = _count_families(monkeypatch)
    calls = count_calls(monkeypatch, [(BitVector, "select")])
    total_selects = total_hits = 0
    for v in range(1, n + 1):
        counts["per_hit"] = 0
        calls.clear()
        hood = g.neighborhood(v)
        assert hood == oracle.neighborhood(v), v
        assert _selects(calls) <= 5 + counts["per_hit"], (v, counts, calls)
        total_selects += _selects(calls)
        total_hits += len(hood)
    assert total_selects <= total_hits / 20


def test_neighborhood_ranks_nothing_twice(monkeypatch):
    """v's rank in its family comes from the one _right call that reads
    r_v, so no neighborhood repeats a rank on the same vector, bit and
    position."""
    n = 2000
    g = CircularArcGraph(random_arc_realization(n, random.Random(3)))
    calls = count_calls(monkeypatch, [(BitVector, "rank")],
                        names={"S": g._s, "L": g._lk, "R": g._rk})
    for v in range(1, n + 1):
        calls.clear()
        g.neighborhood(v)
        assert "BitVector.rank" not in calls and len(set(calls.log)) == len(calls.log), v


def _long_arcs(n: int, rng) -> ArcRealization:
    """Arcs of 0.6 to 0.95 of the circle: most of them cover the anchor
    point and are reversed, so both families' masks are long."""
    raw = []
    for _ in range(n):
        a = rng.random()
        raw.append((a, (a + rng.uniform(0.6, 0.95)) % 1.0))
    return anchor_arcs(raw)


SCANS = [(BitVector, "select_marked"), (BitVector, "_text")]


def _check_scans(log) -> None:
    """Over count_calls' log of SCANS: no select_marked mask holds more
    than 64 bytes per hit, and each call formats (BitVector._text) at
    most 64 bits per hit. Every word pass counts against the last
    select_marked call, and there must be one."""
    budget = None
    for key, args in log:
        if key == "BitVector.select_marked":
            b, lo_j, mask = args
            hits = len(mask) - mask.count(0)
            assert len(mask) <= 64 * hits, (b, lo_j, len(mask), hits)
            budget = 64 * hits
        elif key == "BitVector._text":
            assert budget is not None, "a word pass outside select_marked"
            budget -= 64 * (args[1] - args[0])
            assert budget >= 0, args


def test_sparse_hits_are_not_scanned(monkeypatch):
    """One long anchor arc and a second long arc over short arcs that
    overlap in disjoint pairs: a late short arc's hits are ranks 1, 2
    and its partner's, far apart, so its family lists them and selects
    each of them, with no select_marked call, no mask over the ranks
    between and no word pass. No select_marked call formats more than 64
    bits per hit, and no mask holds more than 64 bytes per hit."""
    m = 300
    n = 2 + 2 * m
    arcs = [(1, 2 * n), (2, 2 * n - 1)]
    for k in range(m):
        base = 3 + 4 * k
        arcs += [(base, base + 2), (base + 1, base + 3)]
    g = CircularArcGraph.from_realization(ArcRealization(tuple(arcs)))
    oracle = OracleGraph.from_arc_positions(arcs)
    calls = count_calls(monkeypatch, SCANS + [(BitVector, "select")])
    for v in range(1, n + 1):
        assert g.neighborhood(v) == oracle.neighborhood(v), v
    _check_scans(calls.log)
    # the last short arc: its decode plus one select per hit
    calls.clear()
    assert g.neighborhood(n) == [1, 2, n - 1]
    assert _selects(calls) == 4 and "BitVector.select_marked" not in calls


def test_far_run_builds_no_long_mask(monkeypatch):
    """A normal arc v with one reversed neighbor X that starts before it
    (the run 1..cross) and one, H, that starts last (the report window),
    with m reversed arcs between them in start order that miss v. The
    reversed family's two hits lie m + 1 ranks apart, so they are listed
    and selected one by one, and no mask spans the ranks between them."""
    m = 300
    # X ends at 3; the m misses end before v and start after it; H ends
    # after them and starts last
    arcs = [(1, 2), (m + 4, 3), (m + 5, m + 6)]
    arcs += [(m + 6 + i, 3 + i) for i in range(1, m + 1)]
    arcs += [(2 * m + 8, 2 * m + 7)]
    real = ArcRealization(tuple(arcs))
    g = CircularArcGraph.from_realization(real)
    oracle = OracleGraph.from_arc_positions(arcs)
    v = 3
    calls = count_calls(monkeypatch, SCANS)
    assert g.neighborhood(v) == oracle.neighborhood(v) == [2, g.n]   # X and H
    for u in range(1, g.n + 1):
        assert g.neighborhood(u) == oracle.neighborhood(u), u
    _check_scans(calls.log)


@pytest.mark.parametrize("make", [_long_arcs, _short_arcs])
def test_marked_hits_match_oracle_within_scan_bound(make, monkeypatch):
    """Every arc of a reversed-heavy family and of a short-arc family at
    n = 2000: the neighborhood equals the oracle's, each maps both of its
    families' hits to labels, and no select_marked call formats more than
    64 bits per hit."""
    real = make(2000, random.Random(2000))
    g = CircularArcGraph.from_realization(real)
    oracle = OracleGraph.from_arc_positions(real.arcs)
    calls = count_calls(monkeypatch, SCANS + [(circular, "_family_labels")])
    for v in range(1, g.n + 1):
        assert g.neighborhood(v) == oracle.neighborhood(v), v
    _check_scans(calls.log)
    assert calls["sigraph.circular._family_labels"] == 2 * g.n


@pytest.mark.parametrize("code", "BHILQ")
def test_flags_above_matches_brute_force(code):
    """flags_above against a per-value compare, on packed arrays of every
    typecode: values below the top bit (the word-parallel path) and
    values that use it, which a compare without a spare bit would get
    wrong; windows of 0, 1, 63, 64 and 65 values at several offsets;
    thresholds at 0 (and -1), at the largest value and just below it,
    and at both sides of the top bit."""
    rng = random.Random(code)
    top = 8 * array(code).itemsize - 1
    most = (1 << top + 1) - 1
    low = [rng.randrange(1 << top) for _ in range(200)]
    for values in (
        low,
        low[:150] + [1 << top] + low[150:],   # the top bit set past the first windows
        [rng.randrange(most + 1) for _ in range(200)],
        [most] * 70 + [0] * 70,
        [(1 << top) - 1] * 140,
    ):
        packed = array(code, values)
        peak = max(values)
        thresholds = {-1, 0, 1, peak, peak - 1, (1 << top) - 1, 1 << top, most - 1, most}
        for size in (0, 1, 63, 64, 65):
            for a in (1, 2, 7, len(values) - size + 1):
                b = a + size - 1
                window = values[a - 1:b]
                for t in thresholds:
                    want = bytes(v > t for v in window)
                    assert flags_above(packed, a, b, t) == want, (code, a, size, t)


@pytest.mark.parametrize("code", "BHILQ")
def test_flags_above_on_a_simulated_big_endian_host(code, monkeypatch):
    """With serial's byte order flipped and the array byteswapped, as a
    big-endian host holds it, the word-parallel compare (windows of 64
    values and more) still reads the values through serial.le."""
    rng = random.Random(f"swap/{code}")
    top = 8 * array(code).itemsize - 1
    values = [rng.randrange(1 << top) for _ in range(200)]
    packed = array(code, values)
    packed.byteswap()
    monkeypatch.setattr(serial, "_SWAP", True)
    for a, b in ((1, 64), (2, 66), (1, 200), (137, 200)):
        for t in (0, min(values), values[a], (1 << top) - 1, 1 << top):
            want = bytes(v > t for v in values[a - 1:b])
            assert flags_above(packed, a, b, t) == want, (code, a, b, t)
