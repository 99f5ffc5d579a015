import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIG1_INTERVALS
from sigraph.errors import GraphInputError
from sigraph.intervals import (
    IntervalRealization,
    normalize,
    parse_realization_text,
    random_proper_realization,
    random_realization,
)


class TestRealization:
    def test_valid(self):
        real = IntervalRealization(FIG1_INTERVALS)
        assert real.n == 9
        assert real.left(1) == 1
        assert real.right(9) == 16

    def test_rejects_bad_shapes(self):
        with pytest.raises(GraphInputError):
            IntervalRealization(())
        with pytest.raises(GraphInputError):
            IntervalRealization(((2, 1),))
        with pytest.raises(GraphInputError):
            IntervalRealization(((1, 3), (1, 4)))  # duplicate left
        with pytest.raises(GraphInputError):
            IntervalRealization(((2, 4), (1, 3)))  # unsorted
        with pytest.raises(GraphInputError):
            IntervalRealization(((1, 5), (2, 4)))  # value gap: missing 3? no, 6
        with pytest.raises(GraphInputError):
            IntervalRealization(((1, 2), (3, 5)))  # endpoint 4 unused
        for intervals in (
            ((1, 3), (2, 3), (4, 6)),   # 3 twice, 5 unused
            ((1, 2.5), (3, 4)),         # not an integer, 2 unused
        ):
            with pytest.raises(GraphInputError, match="exactly once"):
                IntervalRealization(intervals)


class TestNormalize:
    def test_identity_up_to_scale(self):
        scaled = [(10 * l, 10 * r) for l, r in FIG1_INTERVALS]
        assert normalize(scaled).intervals == FIG1_INTERVALS

    def test_shared_coordinate_stays_intersecting(self):
        real = normalize([(0, 2), (2, 4)])
        assert real.intervals == ((1, 3), (2, 4))

    def test_point_interval(self):
        assert normalize([(1, 1)]).intervals == ((1, 2),)

    def test_float_coordinates(self):
        assert normalize([(0.5, 2.0), (1.0, 3.0)]).intervals == ((1, 3), (2, 4))

    def test_relabels_by_left(self):
        real = normalize([(5, 9), (1, 2)])
        assert real.intervals == ((1, 2), (3, 4))

    def test_errors(self):
        with pytest.raises(GraphInputError):
            normalize([])
        with pytest.raises(GraphInputError):
            normalize([(3, 1)])

    @pytest.mark.parametrize("pair", [(0, math.nan), (math.nan, 2), (math.nan, math.nan)])
    def test_nan_coordinate_is_rejected(self, pair):
        # NaN is unordered: it would sort anywhere and cut intervals apart
        with pytest.raises(GraphInputError, match=r"interval #2 has a NaN"):
            normalize([(1, 2), pair, (1.5, 3)])

    def test_infinite_coordinates_are_ordered(self):
        real = normalize([(0, math.inf), (1, 2), (-math.inf, 1.5)])
        assert real.intervals == ((1, 4), (2, 6), (3, 5))

    @given(
        st.lists(
            st.tuples(st.integers(0, 12), st.integers(0, 12)).map(
                lambda p: (min(p), max(p))
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_preserves_closed_intersections(self, raw):
        # heavy ties on purpose: coordinates drawn from a small range
        real = normalize(raw)
        # input index -> vertex label, via the same left-before-right sort
        events = sorted(
            [(a, 0, i) for i, (a, _) in enumerate(raw)]
            + [(b, 1, i) for i, (_, b) in enumerate(raw)]
        )
        lefts_sorted = [e for e in events if e[1] == 0]
        label_of = {idx: rank for rank, (_, _, idx) in enumerate(lefts_sorted, 1)}
        for i in range(len(raw)):
            for j in range(i + 1, len(raw)):
                want = raw[i][0] <= raw[j][1] and raw[j][0] <= raw[i][1]
                li, ri = real.intervals[label_of[i] - 1]
                lj, rj = real.intervals[label_of[j] - 1]
                got = li <= rj and lj <= ri
                assert got == want, (raw, i, j)


class TestTextFormat:
    def test_interval_file(self):
        kind, pairs = parse_realization_text(
            "# demo\ninterval 3\n1 6\n2.5 5\n3 9\n"
        )
        assert kind == "interval"
        assert pairs == [(1, 6), (2.5, 5), (3, 9)]

    def test_circular_file(self):
        kind, pairs = parse_realization_text("circular 2\n1 3\n4 2\n")
        assert kind == "circular"
        assert pairs == [(1, 3), (4, 2)]

    def test_header_errors(self):
        with pytest.raises(GraphInputError, match="empty"):
            parse_realization_text("\n\n")
        with pytest.raises(GraphInputError, match="line 1"):
            parse_realization_text("triangle 3\n1 2\n3 4\n5 6\n")
        with pytest.raises(GraphInputError, match="line 1"):
            parse_realization_text("interval x\n")
        with pytest.raises(GraphInputError):
            parse_realization_text("interval 0\n")

    def test_body_errors(self):
        with pytest.raises(GraphInputError, match="promises 2"):
            parse_realization_text("interval 2\n1 2\n")
        with pytest.raises(GraphInputError, match="line 3"):
            parse_realization_text("interval 2\n1 2\nfoo 4\n")
        with pytest.raises(GraphInputError, match="line 2"):
            parse_realization_text("interval 1\n1 2 3\n")


class TestGenerators:
    def test_random_valid(self):
        rng = random.Random(11)
        for n in [1, 2, 7, 40]:
            real = random_realization(n, rng)
            assert real.n == n  # __post_init__ already validated the rest

    def test_proper_has_increasing_rights(self):
        rng = random.Random(5)
        for n in [1, 2, 9, 60]:
            for _ in range(10):
                real = random_proper_realization(n, rng)
                rights = [r for _, r in real.intervals]
                assert rights == sorted(rights)

    def test_generators_reject_zero(self):
        rng = random.Random(0)
        with pytest.raises(GraphInputError):
            random_realization(0, rng)
        with pytest.raises(GraphInputError):
            random_proper_realization(0, rng)
