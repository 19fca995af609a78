"""Exact interval-set arithmetic and Cantor-like constructions."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from minklab.cantor import (
    CantorSpec,
    IntervalSet,
    build_cantor,
    covers,
    intersects,
    sum_sets,
    wrap_mod,
)
from minklab.errors import ArgumentError, CapabilityError

THIRDS = Fraction(1, 3)


def union(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    if a.exact and b.exact:
        return IntervalSet.from_pairs(a.as_fractions() + b.as_fractions())
    return IntervalSet.from_pairs(a.as_floats() + b.as_floats())


def is_subset(inner: IntervalSet, outer: IntervalSet) -> bool:
    return all(covers(outer, pair).covered for pair in inner.as_fractions())


class TestBuild:
    def test_depth_zero_identity(self):
        spec = CantorSpec.uniform((0, 1), THIRDS, 0)
        c = build_cantor(spec)
        assert c.as_fractions() == [(Fraction(0), Fraction(1))]

    def test_middle_thirds_depth_one(self):
        c = build_cantor(CantorSpec.uniform((0, 1), THIRDS, 1))
        assert c.as_fractions() == [
            (Fraction(0), Fraction(1, 3)),
            (Fraction(2, 3), Fraction(1)),
        ]

    def test_interval_count_and_exact_length(self):
        depth = 7
        ratios = (THIRDS, Fraction(1, 5), THIRDS, Fraction(2, 7), THIRDS, THIRDS, Fraction(1, 9))
        c = build_cantor(CantorSpec((0, 1), ratios))
        assert len(c) == 2**depth
        expected = Fraction(1)
        for r in ratios:
            expected *= 1 - r
        got = sum(b - a for a, b in c.as_fractions())
        assert got == expected

    def test_depth_guard(self):
        with pytest.raises(CapabilityError):
            CantorSpec.uniform((0, 1), THIRDS, 25)

    def test_bad_ratio(self):
        with pytest.raises(ArgumentError):
            CantorSpec.uniform((0, 1), 1.0, 2)

    @given(st.integers(min_value=0, max_value=8))
    def test_depth_monotone_nesting(self, d):
        c1 = build_cantor(CantorSpec.uniform((0, 1), THIRDS, d))
        c2 = build_cantor(CantorSpec.uniform((0, 1), THIRDS, d + 1))
        assert is_subset(c2, c1)

    def test_central_symmetry(self):
        c = build_cantor(CantorSpec.uniform((-2, 2), Fraction(1, 4), 6))
        assert c.reflect(0) == c


class TestMerge:
    def test_abutting_intervals_merge(self):
        s = IntervalSet.from_pairs([(0, 1), (1, 2)])
        assert len(s) == 1
        assert covers(s, (0, 2)).covered

    def test_unsorted_input(self):
        s = IntervalSet.from_pairs([(3, 4), (0, 1), (0.5, 2)])
        assert s.as_floats() == [(0.0, 2.0), (3.0, 4.0)]

    def test_bad_interval(self):
        with pytest.raises(ArgumentError):
            IntervalSet.from_pairs([(1, 0)])


class TestSum:
    def test_singleton_sum(self):
        a = IntervalSet.from_pairs([(0, 1)])
        b = IntervalSet.from_pairs([(2, 3)])
        assert sum_sets(a, b).as_fractions() == [(Fraction(2), Fraction(4))]

    def test_commutative(self):
        a = build_cantor(CantorSpec.uniform((0, 1), THIRDS, 5))
        b = build_cantor(CantorSpec.uniform((0, 2), Fraction(2, 5), 4))
        assert sum_sets(a, b) == sum_sets(b, a)

    def test_distributes_over_union(self):
        a = IntervalSet.from_pairs([(0, Fraction(1, 8)), (Fraction(1, 2), 1)])
        b = IntervalSet.from_pairs([(Fraction(1, 4), Fraction(3, 8))])
        c = IntervalSet.from_pairs([(0, Fraction(1, 16)), (5, Fraction(21, 4))])
        left = sum_sets(union(a, b), c)
        right = union(sum_sets(a, c), sum_sets(b, c))
        assert left == right

    def test_chunked_matches_unchunked(self):
        a = build_cantor(CantorSpec.uniform((0, 1), THIRDS, 7))
        big = sum_sets(a, a)
        small = sum_sets(a, a, chunk_pairs=64)
        assert big == small

    @pytest.mark.parametrize("depth", [1, 4, 8])
    def test_steinhaus_difference_covers(self, depth):
        c = build_cantor(CantorSpec.uniform((0, 1), THIRDS, depth))
        diff = sum_sets(c, c.negate())
        assert covers(diff, (-1, 1)).covered

    @pytest.mark.parametrize("ratio,expect", [(Fraction(1, 5), True), (THIRDS, True), (Fraction(2, 5), False)])
    def test_middle_removal_self_sum_threshold(self, ratio, expect):
        c = build_cantor(CantorSpec.uniform((0, 1), ratio, 6))
        rep = covers(sum_sets(c, c), (0, 2))
        assert rep.covered is expect
        if not expect:
            assert rep.gaps  # the verdict comes with explicit gap witnesses


class TestCovers:
    def test_gap_report(self):
        s = IntervalSet.from_pairs([(0, 0.4), (0.6, 1)])
        rep = covers(s, (0, 1))
        assert not rep.covered
        assert len(rep.gaps) == 1
        np.testing.assert_allclose(rep.gaps[0], (0.4, 0.6))

    def test_empty_target_edges(self):
        s = IntervalSet.from_pairs([(Fraction(1, 3), Fraction(2, 3))])
        rep = covers(s, (0, 1))
        assert [pytest.approx(g) for g in rep.gaps] == [(0, 1 / 3), (2 / 3, 1)]


class TestTransforms:
    def test_translate_exact(self):
        s = IntervalSet.from_pairs([(0, Fraction(1, 3))])
        t = s.translate(Fraction(5, 6))
        assert t.as_fractions() == [(Fraction(5, 6), Fraction(7, 6))]

    def test_negate_roundtrip(self):
        s = build_cantor(CantorSpec.uniform((0, 1), THIRDS, 4))
        assert s.negate().negate() == s

    def test_intersects_touching(self):
        a = IntervalSet.from_pairs([(0, 1)])
        b = IntervalSet.from_pairs([(1, 2)])
        c = IntervalSet.from_pairs([(Fraction(3, 2), 2)])
        assert intersects(a, b)
        assert not intersects(a, c)
        assert intersects(b, c)

    def test_intersects_interleaved(self):
        a = IntervalSet.from_pairs([(0, 1), (4, 5)])
        b = IntervalSet.from_pairs([(2, 3), (4.5, 4.6)])
        assert intersects(a, b)
        assert not intersects(a, IntervalSet.from_pairs([(1.5, 3.9)]))

    def test_wrap_mod_exact(self):
        s = IntervalSet.from_pairs([(Fraction(5, 2), Fraction(7, 2))])  # crosses 3
        w = wrap_mod(s, 3)
        assert w.as_fractions() == [
            (Fraction(0), Fraction(1, 2)),
            (Fraction(5, 2), Fraction(3)),
        ]

    def test_wrap_mod_covering(self):
        s = IntervalSet.from_pairs([(0, 10)])
        w = wrap_mod(s, 3)
        assert w.as_fractions() == [(Fraction(0), Fraction(3))]

    @pytest.mark.parametrize(
        "period",
        [-1, 0, 0.0, float("nan"), float("inf")],
        ids=["negative", "zero", "zero-float", "nan", "inf"],
    )
    def test_wrap_mod_rejects_bad_period(self, period):
        with pytest.raises(ArgumentError, match="period"):
            wrap_mod(IntervalSet.from_pairs([(0, 1)]), period)

    @pytest.mark.parametrize(
        "pairs, period, expected",
        [([(0, 1)], 10**30, [(0.0, 1.0)]), ([(0, 0)], Fraction(1, 10**30), [(0.0, 0.0)])],
        ids=["huge", "fine-on-a-point"],
    )
    def test_wrap_mod_period_off_the_lattice_runs_in_floats(self, pairs, period, expected):
        w = wrap_mod(IntervalSet.from_pairs(pairs), period)
        assert not w.exact
        assert w.as_floats() == expected

    @pytest.mark.parametrize(
        "period", [10**400, Fraction(1, 10**400)], ids=["beyond-float", "below-float"]
    )
    def test_wrap_mod_period_without_a_float_is_a_capability_error(self, period):
        with pytest.raises(CapabilityError, match="period"):
            wrap_mod(IntervalSet.from_pairs([(0, 1)]), period)


@given(
    st.integers(min_value=0, max_value=6),
    st.fractions(min_value=Fraction(1, 7), max_value=Fraction(6, 7), max_denominator=7),
)
def test_length_identity_random(depth, ratio):
    c = build_cantor(CantorSpec.uniform((0, 1), ratio, depth))
    assert sum(b - a for a, b in c.as_fractions()) == (1 - ratio) ** depth


def test_json_roundtrippable_fields():
    c = build_cantor(CantorSpec.uniform((0, 1), THIRDS, 2))
    j = c.to_json()
    assert j["mode"] == "exact"
    assert j["depth"] == 2
    assert len(j["intervals"]) == 4


class TestMode:
    def test_near_touching_floats_merge_in_float_mode(self):
        s = IntervalSet.from_pairs([(0.0, 1.0), (1.0 + 1e-13, 2.0)])
        assert not s.exact
        assert s.as_floats() == [(0.0, 2.0)]

    def test_near_touching_fractions_stay_apart(self):
        pairs = [(0.0, 1.0), (1.0 + 1e-13, 2.0)]
        s = IntervalSet.from_pairs([(Fraction(a), Fraction(b)) for a, b in pairs])
        assert s.exact
        assert len(s) == 2

    def test_numpy_integer_endpoints_are_exact(self):
        s = IntervalSet.from_pairs([(np.int64(1), np.int64(3)), (np.int32(5), 7)])
        assert s.exact
        assert s.as_fractions() == [(Fraction(1), Fraction(3)), (Fraction(5), Fraction(7))]

    def test_float_shift_gives_a_float_set(self):
        s = build_cantor(CantorSpec.uniform((0, 1), THIRDS, 3))
        assert s.translate(Fraction(1, 2)).exact
        assert not s.translate(0.5).exact
        assert not s.reflect(0.5).exact
        assert not wrap_mod(s, 0.75).exact

    def test_float_wrap_splits_and_merges(self):
        s = IntervalSet.from_pairs([(5.5, 6.5), (-0.25, 0.5), (13.0, 13.5)])
        w = wrap_mod(s, 6.0)
        assert not w.exact
        assert w.as_floats() == [(0.0, 0.5), (1.0, 1.5), (5.5, 6.0)]

    def test_exact_lattice_overflow_raises(self):
        with pytest.raises(CapabilityError):
            IntervalSet.from_pairs([(Fraction(1, 3**40), 1)])

    def test_exact_build_past_the_lattice_raises(self):
        # refining the lattice by 5 takes the left endpoint -2**60 past the
        # int64 headroom, while the right endpoint 0 stays small
        with pytest.raises(CapabilityError):
            build_cantor(CantorSpec((-(2**60), 0), (Fraction(1, 5),)))

    def test_exact_translate_past_the_lattice_raises(self):
        s = IntervalSet.from_pairs([(0, Fraction(1, 2**60))])
        assert s.translate(1).as_fractions() == [(Fraction(1), 1 + Fraction(1, 2**60))]
        with pytest.raises(CapabilityError):
            s.translate(7)
