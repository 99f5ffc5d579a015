import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import count_calls, fig1_realization
from sigraph.bitvector import BitVector
from sigraph.errors import GraphInputError, NotProperError
from sigraph.graph import SuccinctIntervalGraph
from sigraph.intervals import (
    IntervalRealization,
    random_proper_realization,
    random_realization,
)
from sigraph.variants import (
    MODE_IMPROPER,
    MODE_PROPER,
    KProperGraph,
    ProperIntervalGraph,
    _earlier_greater,
    _fenwick_earlier_greater,
    containment_depths,
)
from sigraph.wavelet import AlphabetSequence

FIG1_T = [0, 2, 0, 2, 3, 1, 0, 3, 1, 0, 2, 1, 2, 4, 3, 5, 3, 1]
FIG1_TS = {
    MODE_PROPER: FIG1_T,
    MODE_IMPROPER: [2, 0, 2, 0, 1, 3, 0, 1, 3, 6, 0, 1, 2, 0, 1, 1, 3, 7],
}


class TestProper:
    def test_build_and_queries(self):
        real = IntervalRealization(((1, 3), (2, 5), (4, 6)))
        g = ProperIntervalGraph.from_realization(real)
        assert g.endpoint_bits.bit_string() == "001011"
        assert g.degree(2) == 2
        assert g.adjacent(1, 2) and not g.adjacent(1, 3)
        assert g.neighborhood(2) == [1, 3]
        assert g.spath(1, 3) == [1, 2, 3]
        assert g.realization().intervals == real.intervals

    def test_single_interval(self):
        g = ProperIntervalGraph.from_realization(IntervalRealization(((1, 2),)))
        assert g.endpoint_bits.bit_string() == "01"
        assert g.degree(1) == 0

    def test_nesting_rejected(self):
        with pytest.raises(NotProperError) as exc:
            ProperIntervalGraph.from_realization(
                IntervalRealization(((1, 4), (2, 3)))
            )
        assert exc.value.pair == (1, 2)
        with pytest.raises(NotProperError) as exc:
            ProperIntervalGraph.from_realization(fig1_realization())
        assert exc.value.pair == (1, 2)

    def test_space_has_no_right_array(self):
        rng = random.Random(8)
        g = ProperIntervalGraph.from_realization(random_proper_realization(3000, rng))
        rep = g.space_report()
        assert set(rep) == {"S", "S_directory"}
        assert g.space_bits() <= 3 * 3000

    def test_roundtrip(self):
        rng = random.Random(21)
        g = ProperIntervalGraph.from_realization(random_proper_realization(50, rng))
        blob = g.to_bytes()
        back = ProperIntervalGraph.from_bytes(blob)
        assert back.to_bytes() == blob
        assert back.realization() == g.realization()
        with pytest.raises(GraphInputError):
            ProperIntervalGraph.from_bytes(blob[:-1])


class TestDepths:
    def test_fig1_depths(self):
        real = fig1_realization()
        assert containment_depths(real, "proper") == [0, 1, 0, 1, 0, 0, 1, 1, 2]
        assert containment_depths(real, "improper") == [1, 0, 1, 0, 0, 3, 0, 1, 0]

    def test_brute_force_agreement(self):
        rng = random.Random(40)
        for _ in range(30):
            real = random_realization(rng.randint(1, 120), rng)
            iv = real.intervals
            want_p = [
                sum(1 for l2, r2 in iv if l2 < l and r < r2) for l, r in iv
            ]
            want_i = [
                sum(1 for l2, r2 in iv if l < l2 and r2 < r) for l, r in iv
            ]
            assert containment_depths(real, "proper") == want_p
            assert containment_depths(real, "improper") == want_i

    def test_unknown_mode(self):
        with pytest.raises(GraphInputError):
            containment_depths(fig1_realization(), "sideways")


class TestKProper:
    def test_fig1_annotation(self):
        g = KProperGraph.from_realization(fig1_realization(), "proper")
        assert g.k == 2
        assert g.annotation.to_list() == FIG1_T
        assert g.depth_classes() == [[1, 3, 5, 6], [2, 4, 7, 8], [9]]

    def test_fig1_improper_mode(self):
        g = KProperGraph.from_realization(fig1_realization(), "improper")
        assert g.k == 3
        assert g.depth_of(6) == 3
        assert g.depth_classes()[0] == [2, 4, 5, 7, 9]

    def test_proper_input_degenerates(self):
        real = IntervalRealization(((1, 3), (2, 5), (4, 6)))
        for mode in ("proper", "improper"):
            g = KProperGraph.from_realization(real, mode)
            assert g.k == 0
            assert g.annotation.sigma == 2

    def test_queries_match_fig1(self):
        base = SuccinctIntervalGraph.from_realization(fig1_realization())
        g = KProperGraph.from_realization(fig1_realization(), "proper")
        assert g.degree(9) == 3
        assert g.adjacent(2, 3)
        assert g.spath(1, 9) == base.spath(1, 9) == [1, 3, 5, 6, 9]
        assert g.realization().intervals == fig1_realization().intervals

    def test_roundtrip(self):
        for mode in ("proper", "improper"):
            g = KProperGraph.from_realization(fig1_realization(), mode)
            blob = g.to_bytes()
            back = KProperGraph.from_bytes(blob)
            assert back.to_bytes() == blob
            assert back.mode == mode
            assert back.k == g.k
            assert back.realization().intervals == fig1_realization().intervals

    def test_rejects_corrupt_annotation(self):
        g = KProperGraph.from_realization(fig1_realization(), "proper")
        blob = bytearray(g.to_bytes())
        with pytest.raises(GraphInputError):
            KProperGraph.from_bytes(bytes(blob[:-3]))
        blob[-1] ^= 0x01  # breaks pairing or depth agreement
        with pytest.raises(GraphInputError):
            KProperGraph.from_bytes(bytes(blob))


def _all_query_equal(a, b):
    n = a.n
    assert b.n == n
    for v in range(1, n + 1):
        assert a.degree(v) == b.degree(v)
        assert a.neighborhood(v) == b.neighborhood(v)
        assert a.interval_of(v) == b.interval_of(v)
    for u in range(1, n + 1):
        for v in range(1, n + 1):
            assert a.adjacent(u, v) == b.adjacent(u, v)
            # distinct right endpoints make the greedy hop unique, so the
            # paths must agree exactly, not just in length
            assert a.spath(u, v) == b.spath(u, v)


class TestCrossEquivalence:
    @given(st.integers(1, 50), st.integers(0, 10**9))
    @settings(max_examples=25, deadline=None)
    def test_any_realization(self, n, seed):
        real = random_realization(n, random.Random(seed))
        base = SuccinctIntervalGraph.from_realization(real)
        _all_query_equal(base, KProperGraph.from_realization(real, "proper"))
        _all_query_equal(base, KProperGraph.from_realization(real, "improper"))

    @given(st.integers(1, 50), st.integers(0, 10**9))
    @settings(max_examples=25, deadline=None)
    def test_proper_realization(self, n, seed):
        real = random_proper_realization(n, random.Random(seed))
        base = SuccinctIntervalGraph.from_realization(real)
        _all_query_equal(base, ProperIntervalGraph.from_realization(real))
        kp = KProperGraph.from_realization(real, "proper")
        assert kp.k == 0
        _all_query_equal(base, kp)


_PERMUTATIONS = st.integers(1, 120).flatmap(lambda m: st.permutations(range(1, m + 1)))


@given(_PERMUTATIONS, st.integers(0, 120))
@example(list(range(1, 121)), 120)
@settings(max_examples=60, deadline=None)
def test_earlier_greater_matches_brute_force(keys, j):
    """Both sweeps give the O(m^2) count. A descending prefix of j keys
    moves j(j - 1)/2 of them, past the sorted list's budget of 32 a key
    when j = m > 65, so the tree path runs too."""
    keys = sorted(keys[:j], reverse=True) + keys[j:]
    want = [sum(1 for y in keys[:i] if y > x) for i, x in enumerate(keys)]
    assert _earlier_greater(keys) == want
    assert _fenwick_earlier_greater(keys) == want


def test_right_list_survives_reload():
    rng = random.Random(88)
    fig = fig1_realization()
    cases = [fig] + [random_realization(rng.randint(1, 40), rng) for _ in range(10)]
    for real in cases:
        for mode in (MODE_PROPER, MODE_IMPROPER):
            g = KProperGraph.from_realization(real, mode)
            h = KProperGraph.from_bytes(g.to_bytes())
            for v in range(1, real.n + 1):
                assert g._r(v) == real.intervals[v - 1][1]
                assert h._r(v) == g._r(v)


@pytest.mark.parametrize("mode", [MODE_PROPER, MODE_IMPROPER])
def test_depth_classes_is_one_sweep(mode, monkeypatch):
    """depth_classes is one pass over the held depths: no per-vertex
    select or access."""
    g = KProperGraph.from_realization(random_realization(2000, random.Random(52)), mode)
    expected = [[] for _ in range(g.k + 1)]
    for v in range(1, g.n + 1):
        expected[g.depth_of(v)].append(v)
    calls = count_calls(monkeypatch, [(BitVector, "select"), (AlphabetSequence, "access")])
    assert g.depth_classes() == expected
    assert calls == {}


# magic, version, n, mode byte, block size, then T as a sequence blob
FIG1_BLOBS = {
    MODE_PROPER: (
        "534b4752010900000000000000002000000020000000000000005341535101120000"
        "000000000006000000070000000000000010b4608122ae0b"
    ),
    MODE_IMPROPER: (
        "534b4752010900000000000000012000000020000000000000005341535101120000"
        "00000000000800000007000000000000008290213322243b"
    ),
}


@pytest.mark.parametrize("mode", [MODE_PROPER, MODE_IMPROPER])
def test_blob_format_is_pinned(mode):
    blob = bytes.fromhex(FIG1_BLOBS[mode])
    assert KProperGraph.from_realization(fig1_realization(), mode).to_bytes() == blob
    h = KProperGraph.from_bytes(blob)
    assert h.to_bytes() == blob
    assert h.realization() == fig1_realization()
    assert h.annotation.to_list() == FIG1_TS[mode]


_PRIMITIVES = tuple(
    (owner, name)
    for owner in (BitVector, AlphabetSequence)
    for name in ("select", "rank", "access")
)


@pytest.mark.parametrize("mode", [MODE_PROPER, MODE_IMPROPER])
def test_holds_no_sequence(mode, monkeypatch):
    """Building, saving, loading, depth_of and depth_classes construct no
    AlphabetSequence, and depth_of is one read with no primitive call."""
    real = random_realization(2000, random.Random(f"nosequence/{mode}"))
    want = containment_depths(real, mode)
    classes = [[] for _ in range(max(want) + 1)]
    for v, d in enumerate(want, start=1):
        classes[d].append(v)
    built = count_calls(monkeypatch, ((AlphabetSequence, "__init__"),))
    g = KProperGraph.from_realization(real, mode)
    h = KProperGraph.from_bytes(g.to_bytes())
    for x in (g, h):
        assert [x.depth_of(v) for v in range(1, x.n + 1)] == want
        assert x.depth_classes() == classes
    assert h.to_bytes() == g.to_bytes()
    assert built == {}
    monkeypatch.undo()
    calls = count_calls(monkeypatch, _PRIMITIVES)
    for x in (g, h):
        for v in range(1, x.n + 1):
            x.depth_of(v)
    assert calls == {}


def test_constructor_rejects_symbols_outside_the_alphabet():
    """T enters only through from_bytes, whose decode rejects a stored
    symbol at or past sigma; 6 and 7 both fit the 3-bit field of sigma 6."""
    blob = KProperGraph(fig1_realization(), MODE_PROPER).to_bytes()
    seq = AlphabetSequence.encode(FIG1_T, 6)
    assert blob.endswith(seq)
    for bad in (6, 7):
        mutant = blob[:-len(seq)] + AlphabetSequence.encode(FIG1_T[:-1] + [bad], 6)
        with pytest.raises(GraphInputError, match="outside alphabet"):
            KProperGraph.from_bytes(mutant)
