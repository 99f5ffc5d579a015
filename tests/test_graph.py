import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIG1_INTERVALS, FIG1_S, KINDS, LINEAR, count_calls, deep_nest, fig1_realization
from sigraph.bitvector import BitVector
from sigraph.circular import CircularArcGraph
from sigraph.errors import GraphInputError, QueryRangeError
from sigraph.graph import IntervalQueries, Structure, SuccinctIntervalGraph
from sigraph.intervals import (
    IntervalRealization,
    normalize,
    random_realization,
)
from sigraph.oracle import OracleGraph
from sigraph.rmq import RangeMaxIndex, default_block_size
from sigraph.variants import (
    MODE_IMPROPER,
    MODE_PROPER,
    KProperGraph,
    ProperIntervalGraph,
)
from sigraph.verify import verify


@pytest.fixture(scope="module")
def fig1():
    return SuccinctIntervalGraph.from_realization(fig1_realization())


class TestBuild:
    def test_endpoint_sequence(self, fig1):
        assert fig1.n == 9
        assert fig1.endpoint_bits.bit_string() == FIG1_S
        assert fig1.endpoint_bits.rank(0, 18) == 9
        assert fig1.endpoint_bits.rank(1, 18) == 9

    def test_prefix_balance(self, fig1):
        s = fig1.endpoint_bits
        for i in range(1, 19):
            assert s.rank(0, i) >= s.rank(1, i)

    def test_tiny_graphs(self):
        one = SuccinctIntervalGraph.from_realization(
            IntervalRealization(((1, 2),))
        )
        assert one.endpoint_bits.bit_string() == "01"
        two = SuccinctIntervalGraph.from_realization(
            IntervalRealization(((1, 2), (3, 4)))
        )
        assert two.endpoint_bits.bit_string() == "0101"
        assert two._rlist.tolist() == [2, 4]

    def test_rebuild_realization(self, fig1):
        assert fig1.realization().intervals == FIG1_INTERVALS
        assert fig1.interval_of(5) == (7, 12)


class TestQueries:
    def test_degree(self, fig1):
        assert fig1.degree(1) == 3
        assert fig1.degree(9) == 3
        assert fig1.degree(6) == 4

    def test_adjacent(self, fig1):
        assert fig1.adjacent(2, 3)
        assert not fig1.adjacent(2, 9)
        assert not fig1.adjacent(4, 4)
        assert fig1.adjacent(6, 9)

    def test_neighborhood(self, fig1):
        assert fig1.neighborhood(9) == [6, 7, 8]
        assert fig1.neighborhood(6) == [5, 7, 8, 9]
        assert fig1.neighborhood(1) == [2, 3, 4]

    def test_succ(self, fig1):
        assert fig1.succ(2) == 3
        assert fig1.succ(5) == 6
        lone = SuccinctIntervalGraph.from_realization(
            IntervalRealization(((1, 2),))
        )
        assert lone.succ(1) == 1

    def test_spath(self, fig1):
        assert fig1.spath(1, 9) == [1, 3, 5, 6, 9]
        assert fig1.spath(9, 1) == [9, 6, 5, 3, 1]
        assert fig1.spath(4, 4) == [4]
        assert fig1.spath(2, 3) == [2, 3]

    def test_spath_disconnected(self):
        g = SuccinctIntervalGraph.from_realization(
            IntervalRealization(((1, 2), (3, 4)))
        )
        assert g.spath(1, 2) is None

    def test_vertex_range_errors(self, fig1):
        for bad in (0, 10, -3):
            with pytest.raises(QueryRangeError):
                fig1.degree(bad)
            with pytest.raises(QueryRangeError):
                fig1.neighborhood(bad)
        with pytest.raises(QueryRangeError):
            fig1.adjacent(1, 10)
        with pytest.raises(QueryRangeError):
            fig1.spath(0, 5)


def _check_against_oracle(real):
    g = SuccinctIntervalGraph.from_realization(real)
    assert verify(g, real) == []
    labels = range(1, real.n + 1)
    for u in labels:
        # succ picks the farthest-reaching interval starting before r_u
        best = max((w for w in labels if real.left(w) < real.right(u)), key=real.right)
        assert g.succ(u) == best


class TestOracleEquivalence:
    @given(st.integers(1, 60), st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_random_instances(self, n, seed):
        _check_against_oracle(random_realization(n, random.Random(seed)))

    def test_dense_and_sparse_shapes(self):
        nested = tuple((i + 1, 40 - i) for i in range(20))
        _check_against_oracle(IntervalRealization(nested))
        disjoint = tuple((2 * i + 1, 2 * i + 2) for i in range(20))
        _check_against_oracle(IntervalRealization(disjoint))
        n = 20
        staircase = (
            ((1, 3),)
            + tuple((2 * i - 2, 2 * i + 1) for i in range(2, n))
            + ((2 * n - 2, 2 * n),)
        )
        _check_against_oracle(IntervalRealization(staircase))


class TestSerialization:
    def test_roundtrip_identical(self, fig1):
        blob = fig1.to_bytes()
        back = SuccinctIntervalGraph.from_bytes(blob)
        assert back.to_bytes() == blob
        assert back.realization().intervals == FIG1_INTERVALS
        assert back.spath(1, 9) == [1, 3, 5, 6, 9]

    def test_rejects_garbage(self, fig1):
        blob = fig1.to_bytes()
        with pytest.raises(GraphInputError):
            SuccinctIntervalGraph.from_bytes(b"SXGR" + blob[4:])
        with pytest.raises(GraphInputError):
            SuccinctIntervalGraph.from_bytes(blob[:-2])
        # flip a right endpoint out of range
        broken = bytearray(blob)
        broken[-1] ^= 0x40
        with pytest.raises(GraphInputError):
            SuccinctIntervalGraph.from_bytes(bytes(broken))


class TestSpace:
    def test_components_and_budget(self):
        rng = random.Random(99)
        n = 10**4
        g = SuccinctIntervalGraph.from_realization(random_realization(n, rng))
        rep = g.space_report()
        assert set(rep) == {"S", "S_directory", "r", "rmax_directory"}
        assert 2 * n <= rep["S"] < 2 * n + 64  # word-padded raw bits
        assert rep["r"] == n * 15
        assert g.space_bits() == sum(rep.values())
        import math

        assert g.space_bits() <= 1.3 * n * math.log2(2 * n)


# -- spath and neighborhood on every linear structure ---------------------

def _scattered(n, rng, proper):
    """Integer intervals over a span of 0.3n to 3n: sparse draws leave
    gaps, hence disconnected pairs. Equal lengths never nest."""
    span = max(1, int(n * rng.choice((0.3, 1, 3))))
    length = rng.randint(1, 4)
    raw = []
    for _ in range(n):
        a = rng.randrange(span)
        raw.append((a, a + (length if proper else rng.randint(0, 6))))
    return normalize(raw)


def _greedy_spath(g, u, v):
    """Reference walk: from the smaller label, step to succ until the
    current vertex is adjacent to the larger one."""
    if u == v:
        return [u]
    a, b = min(u, v), max(u, v)
    path = [a]
    while not g.adjacent(path[-1], b):
        nxt = g.succ(path[-1])
        if nxt == path[-1]:
            return None
        path.append(nxt)
    path.append(b)
    return path if u < v else path[::-1]


@pytest.mark.parametrize("kind", LINEAR)
def test_spath_equals_greedy_reference(kind, monkeypatch):
    """Sampled pairs at n in 100..300, where the derived range-max block
    size leaves at least 3 blocks, so hops search across blocks. Each
    hop searches only the labels it newly reaches: the range-max ranges
    of one path follow one another without overlap. A walk selects l_v
    once and reads r one label at a time, never a slice."""
    build, draw = KINDS[kind]
    rng = random.Random(f"spath/{kind}")
    disconnected = 0
    for t in range(30):
        n = rng.randint(100, 300)
        while -(-n // default_block_size(n)) < 3:
            n = rng.randint(100, 300)
        real = _scattered(n, rng, proper=kind == "proper") if t % 2 else draw(n, rng)
        g = build(real)
        calls = count_calls(monkeypatch, [(RangeMaxIndex, "query"), (BitVector, "select")],
                            reads=[(g, "_rlist")] if hasattr(g, "_rlist") else ())
        for _ in range(400):
            u, v = rng.randint(1, n), rng.randint(1, n)
            calls.clear()
            path = g.spath(u, v)
            ranges = [args for key, args in calls.log if key == "RangeMaxIndex.query"]
            assert all(j < i for (_, j), (i, _) in zip(ranges, ranges[1:])), (u, v, ranges)
            assert calls.get("BitVector.select0", 0) == (u != v), (u, v)
            assert all(type(a[0]) is int for k, a in calls.log if k.endswith("._rlist")), (u, v)
            assert path == _greedy_spath(g, u, v), (real.intervals, u, v)
            disconnected += path is None
        monkeypatch.undo()
    assert disconnected > 0


def _nested(n, rng):
    # lengths in [1, 1.15] over a span of n/16: bounded nesting, connected
    raw = []
    for _ in range(n):
        a = rng.uniform(0.0, n / 16)
        raw.append((a, a + rng.uniform(1.0, 1.15)))
    return normalize(raw)


def _check_neighborhood_counts(g, v, calls):
    """Run g.neighborhood(v) under count_calls' log of range-max calls
    and _rlist reads, and check its cost: the K = 2v - 1 - l_v earlier
    neighbors are searched by one read of at most 2K labels ending at
    v - 1, then at most max(0, 2m - 1) range-max calls, one value read
    each, for the m earlier neighbors that window missed, besides the
    read of r_v. Returns the neighborhood and m."""
    l = g.interval_of(v)[0]
    calls.clear()
    hood = g.neighborhood(v)
    earlier = [u for u in hood if u < v]
    k = len(earlier)
    assert k == 2 * v - 1 - l, v
    missed = sum(1 for u in earlier if u < v - 2 * k)
    indexed = sum(not isinstance(a[0], slice) for key, a in calls.log if key.endswith("._rlist"))
    rmq = calls.get("RangeMaxIndex.query", 0)
    assert sum(c for key, c in calls.items() if key.endswith("._rlist")) - indexed <= 2 * k, v
    assert rmq <= max(0, 2 * missed - 1), (v, missed)
    assert indexed <= rmq + 1, v
    return hood, missed


def _long_over_short(n):
    """One interval spanning n - 1 short disjoint ones."""
    return IntervalRealization(
        ((1, 2 * n),) + tuple((2 * i, 2 * i + 1) for i in range(1, n))
    )


@pytest.mark.parametrize("kind", sorted(set(LINEAR) - {"proper"}))
def test_neighborhood_fallback_matches_oracle(kind, monkeypatch):
    """Families whose earlier neighbors lie far before the window: every
    answer equals the oracle's, the recursion runs, and it stays within
    its 2m - 1 calls. A vertex with no earlier neighbor (K = 0) reads
    no window and makes no range-max call."""
    for real in (_long_over_short(300), deep_nest(12, 200)):
        g = KINDS[kind][0](real)
        o = OracleGraph.from_intervals(real)
        calls = count_calls(monkeypatch, [(RangeMaxIndex, "query")],
                            reads=[(g, "_rlist")])
        fallbacks = 0
        for v in range(1, g.n + 1):
            hood, missed = _check_neighborhood_counts(g, v, calls)
            assert hood == o.neighborhood(v), v
            fallbacks += missed > 0
        assert fallbacks >= g.n // 2
        monkeypatch.undo()


@pytest.mark.parametrize("kind", LINEAR)
def test_endpoint_bits_are_the_realization_s(kind):
    rng = random.Random(f"bits/{kind}")
    build, draw = KINDS[kind]
    for n in (1, 2, 7, 300):
        real = draw(n, rng)
        s = ["1"] * (2 * n)
        for l, _ in real.intervals:
            s[l - 1] = "0"
        assert build(real).endpoint_bits.bit_string() == "".join(s)


def test_query_hooks_live_in_interval_queries():
    """S and r are read in IntervalQueries alone. The proper structure,
    which keeps no r, derives r from S and answers its neighborhoods and
    spath hops from S; the depth-annotated one, which knows where the
    prefix maxima of r lie, overrides only the spath hop. No class keeps
    an argmax hook. What all five structures share, the circular one
    included, lives in Structure alone, and every class is built by the
    one from_realization."""
    base = {"n", "_check_vertex", "space_bits", "__reduce__", "from_realization"}
    assert base <= set(vars(Structure))
    assert "_farthest" in vars(IntervalQueries)
    assert not set(vars(IntervalQueries)) & base
    hooks = {"_r", "_rights", "_argmax_r", "_farthest", "neighborhood"}
    owns = {
        SuccinctIntervalGraph: set(),
        ProperIntervalGraph: {"_r", "_rights", "_farthest", "neighborhood"},
        KProperGraph: {"_farthest"},
    }
    assert not hasattr(IntervalQueries, "_argmax_r")
    for cls, want in owns.items():
        assert issubclass(cls, IntervalQueries)
        own = set(vars(cls))
        assert not own & (base | {"endpoint_bits"}), cls
        assert own & hooks == want, cls
    assert issubclass(CircularArcGraph, Structure)
    assert not set(vars(CircularArcGraph)) & base


def _tower_and_chain(depth, chain):
    """depth nested intervals, each inside all earlier ones, so the
    innermost has depth - 1 containers in proper mode; short intervals
    scattered under the tower; and a chain of chain unit intervals, each
    meeting the next, running from under the tower far past its right
    end, so paths along it take many hops."""
    rng = random.Random(f"tower/{depth}/{chain}")
    raw = [(i, 4.0 * depth - i) for i in range(depth)]
    raw += [(a, a + 0.5) for a in (rng.uniform(depth, 3.0 * depth) for _ in range(depth))]
    raw += [(2.0 * depth + 0.75 * j, 2.0 * depth + 0.75 * j + 1) for j in range(chain)]
    return normalize(raw)


def _kproper_families():
    rng = random.Random("kproper/hop")
    for _ in range(6):
        n = rng.randint(100, 400)
        yield random_realization(n, rng)
        yield _scattered(n, rng, proper=False)
        yield _nested(n, rng)
    yield _tower_and_chain(300, 2000)


@pytest.mark.parametrize("mode", [MODE_PROPER, MODE_IMPROPER])
def test_kproper_paths_match_range_max_route(mode, monkeypatch):
    """KProperGraph's spath and succ against a SuccinctIntervalGraph of the
    same realization, which keeps the range-max hop: the last-depth-0 hop
    of proper mode with k < 256, and the range-max hop of improper mode
    and of k >= 256, give the same labels. The depths are bytes, which
    the hop searches with no range-max call, exactly in proper mode with
    k < 256, after a build and after a load; every succ makes one hop, so
    the range-max route makes calls."""
    calls = count_calls(monkeypatch, [(RangeMaxIndex, "query")])
    deep = 0
    for real in _kproper_families():
        n = real.n
        ref = SuccinctIntervalGraph(real)
        built = KProperGraph.from_realization(real, mode)
        fast = mode == MODE_PROPER and built.k < 256
        deep += built.k >= 256
        rng = random.Random(n)
        pairs = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(200)]
        want_paths = [ref.spath(u, v) for u, v in pairs]
        want_succ = [ref.succ(u) for u, _ in pairs]
        for g in (built, KProperGraph.from_bytes(built.to_bytes())):
            assert (type(g._depths) is bytes) == fast, (mode, g.k)
            calls.clear()
            assert [g.spath(u, v) for u, v in pairs] == want_paths
            assert [g.succ(u) for u, _ in pairs] == want_succ
            assert ("RangeMaxIndex.query" in calls) != fast, (mode, g.k)
    assert deep >= 1
