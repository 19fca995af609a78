"""Exact interval-set arithmetic and Cantor-like constructions."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from minklab import cantor
from minklab.cantor import (
    CantorSpec,
    IntervalSet,
    _merge,
    build_cantor,
    covers,
    intersects,
    sum_sets,
    wrap_mod,
)
from minklab.errors import ArgumentError, CapabilityError

from helpers import (
    SWEEP_BASE,
    SWEEP_CASES,
    arbitrary_sets,
    assert_same_bits,
    covers_by_walk,
    merge_by_running_max,
    spec_built_sets,
    traced_peak,
)

THIRDS = Fraction(1, 3)


def union(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    if a.exact and b.exact:
        return IntervalSet.from_pairs(a.as_fractions() + b.as_fractions())
    return IntervalSet.from_pairs(a.as_floats() + b.as_floats())


def is_subset(inner: IntervalSet, outer: IntervalSet) -> bool:
    return all(covers(outer, pair).covered for pair in inner.as_fractions())


def without_last(c: IntervalSet) -> IntervalSet:
    """``c`` without its last interval: ``2**m - 1`` intervals do not factor."""
    return IntervalSet(c.lo[:-1].copy(), c.hi[:-1].copy(), c.den)


def count_pair_sums(monkeypatch) -> list:
    """A list that gets one entry per ``_then_pair_sums`` call from now on."""
    calls = []
    pair_sums = cantor._then_pair_sums

    def counted(*args):
        calls.append(args[1].size)
        return pair_sums(*args)

    monkeypatch.setattr(cantor, "_then_pair_sums", counted)
    return calls


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
        assert c.negate() == c


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

    def test_chunked_matches_unchunked(self, monkeypatch):
        # 127 intervals do not factor, so the sum takes the pair sums
        a = without_last(build_cantor(CantorSpec.uniform((0, 1), THIRDS, 7)))
        big = sum_sets(a, a)
        monkeypatch.setattr(cantor, "_CHUNK_PAIRS", 64)
        calls = count_pair_sums(monkeypatch)
        assert sum_sets(a, a) == big
        assert len(calls) == 2 * 127  # one row per chunk, both ends

    @pytest.mark.parametrize("case", ["cantor", "near-touching"])
    def test_float_chunked_matches_one_chunk(self, monkeypatch, case):
        if case == "cantor":
            a = b = build_cantor(CantorSpec.uniform((0.0, 1.0), 0.3, 6))
        else:
            # b's gaps of 1e-10 stay gaps in every chunk, near 0 and near 1000
            a = IntervalSet.from_pairs([(0.0, 0.0), (1000.0, 1000.0)])
            b = IntervalSet.from_pairs(
                [(0.3 * k, 0.3 * k + 0.1) for k in range(32)]
                + [(0.3 * k + 0.1 + 1e-10, 0.3 * k + 0.2) for k in range(32)]
            )
            assert len(b) == 64
        monkeypatch.setattr(cantor, "_CHUNK_PAIRS", 1 << 40)
        one = sum_sets(a, b)
        monkeypatch.setattr(cantor, "_CHUNK_PAIRS", 64)  # one row of 64 pairs per chunk
        got = sum_sets(a, b)
        assert not got.exact
        assert_same_bits(got.lo, one.lo)
        assert_same_bits(got.hi, one.hi)
        if case != "cantor":
            assert len(got) == 128  # b's 64 intervals near 0 and again near 1000

    def test_memory_is_one_chunk_plus_the_union(self):
        # the ratio-1/2 set of depth 10 without its last interval does not
        # factor: its self sum merges 1023**2 pairs to 59,038 intervals
        c = without_last(build_cantor(CantorSpec.uniform((0, Fraction(22, 7)), Fraction(1, 2), 10)))
        peak, s = traced_peak(sum_sets, c, c)
        rows = min(len(c), cantor._CHUNK_PAIRS // len(c))
        chunk_bytes = rows * len(c) * 16  # both ends, int64
        assert len(s) == 59038
        assert peak <= 1.5 * chunk_bytes + 5 * (s.lo.nbytes + s.hi.nbytes)

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
            assert rep.gaps.size  # the verdict comes with explicit gap witnesses


def pair_sums_only(x: IntervalSet, y: IntervalSet) -> IntervalSet:
    """``sum_sets`` with no argument taken to factor: the pair sums."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cantor, "_level_steps", lambda a: None)
        return sum_sets(x, y)


def one_unit_off(c: IntervalSet, how: str) -> IntervalSet:
    """``c`` with its last interval shifted, or widened, by one lattice unit."""
    lo, hi = c.lo.copy(), c.hi.copy()
    hi[-1] += 1
    if how == "shifted":
        lo[-1] += 1
    return IntervalSet(lo, hi, c.den)


class TestLevelJoins:
    @given(spec_built_sets(), arbitrary_sets())
    def test_joins_match_the_pair_sums_bit_for_bit(self, a, b):
        assert cantor._level_steps(a) is not None
        for x, y in ((a, b), (b, a)):
            got, want = sum_sets(x, y), pair_sums_only(x, y)
            assert got.den == want.den
            assert_same_bits(got.lo, want.lo)
            assert_same_bits(got.hi, want.hi)

    @given(spec_built_sets(), arbitrary_sets(), st.integers(min_value=0, max_value=40))
    def test_stopped_joins_and_their_points_sum_to_the_whole(self, a, b, limit):
        for x, y in ((a, b), (b, a)):
            part, rest = cantor._joined_sum(x, y, limit)
            whole = sum_sets(x, y)
            assert np.array_equal(rest.lo, rest.hi)
            assert len(part) <= max(limit, len(cantor._joined_sum(x, y, 0)[0]))
            assert pair_sums_only(part, rest) == whole
            if len(part) * 2 <= limit:
                assert rest.as_fractions() == [(0, 0)]
                assert part == whole

    def test_one_interval_joins_the_widened_second_set(self):
        # [0, 1] factors with no level: only the first merge joins the two
        # widened points [0, 1] and [1/2, 3/2]
        a = IntervalSet.from_pairs([(0, 1)])
        b = IntervalSet.from_pairs([(0, 0), (Fraction(1, 2), Fraction(1, 2))])
        assert len(cantor._level_steps(a)) == 0
        assert sum_sets(a, b).as_fractions() == [(Fraction(0), Fraction(3, 2))]
        assert sum_sets(a, b) == pair_sums_only(a, b)

    @pytest.mark.parametrize("how", ["shifted", "widened"])
    @pytest.mark.parametrize("ratio,depth", SWEEP_CASES)
    def test_only_sets_off_the_factoring_take_the_pair_sums(self, monkeypatch, ratio, depth, how):
        c = build_cantor(CantorSpec.uniform(SWEEP_BASE, ratio, depth))
        off = one_unit_off(c, how)
        calls = count_pair_sums(monkeypatch)
        # the first argument factors, or else the second
        for x, y in ((c, c), (c, c.negate()), (c.negate(), off), (off, c), (off, c.negate())):
            sum_sets(x, y)
        assert calls == []
        sum_sets(off, off)
        assert calls

    @pytest.mark.parametrize("depth", [10, 12])
    def test_ratio_half_self_sum_is_its_closed_form(self, depth):
        # C = [0, L/4**m] + sum_i {0, 3L/4**i}, so C + C has 3**m intervals:
        # lo = (3L/4**m) k for the base-4 k with digits 0-2, width 2L/4**m
        length = SWEEP_BASE[1]
        c = build_cantor(CantorSpec.uniform(SWEEP_BASE, Fraction(1, 2), depth))
        s = sum_sets(c, c)
        step, width = (Fraction(f * length, 4**depth) * s.den for f in (3, 2))
        assert step.denominator == width.denominator == 1
        k = np.zeros(1, dtype=np.int64)
        for _ in range(depth):
            k = (4 * k[:, None] + np.arange(3)).ravel()
        assert k.size == 3**depth
        np.testing.assert_array_equal(s.lo, k * int(step))
        np.testing.assert_array_equal(s.hi, k * int(step) + int(width))
        if depth == 10:
            assert pair_sums_only(c, c) == s

    def test_memory_is_a_few_results(self):
        # the ratio-1/2 self sum at depth 10: measured 3.3 times the result's
        # endpoint bytes (0.9 MiB), the last join's two runs and its merge
        c = build_cantor(CantorSpec.uniform(SWEEP_BASE, Fraction(1, 2), 10))
        peak, s = traced_peak(sum_sets, c, c)
        assert len(s) == 59049
        assert peak <= 4 * (s.lo.nbytes + s.hi.nbytes)


class TestInputsStayIntact:
    """``_merge`` sorts in place, so no set's own arrays may reach it."""

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_operations_leave_their_input_arrays_unchanged(self, monkeypatch, exact):
        if exact:
            ratio_a, ratio_b, period = THIRDS, Fraction(2, 5), Fraction(1, 2)
        else:
            ratio_a, ratio_b, period = 1 / 3, 0.4, 0.5
        a = build_cantor(CantorSpec.uniform((0, 1), ratio_a, 5))
        b = build_cantor(CantorSpec.uniform((0, 2), ratio_b, 4))
        assert a.exact is b.exact is exact
        own = [a.lo, a.hi, b.lo, b.hi]
        before = [arr.copy() for arr in own]
        built = []  # every array _merge has returned: the sets made so far
        merge = cantor._merge

        def checked_merge(lo, hi):
            assert not any(np.shares_memory(arg, arr) for arg in (lo, hi) for arr in own + built)
            out = merge(lo, hi)
            built.extend(out)
            return out

        monkeypatch.setattr(cantor, "_merge", checked_merge)
        sum_sets(a, b)
        sum_sets(a, a)
        wrap_mod(a, period)
        covers(a, (0, 1))
        build_cantor(CantorSpec.uniform((0, 1), ratio_a, 5))
        # one merge for the wrap, one for the target of covers, and the base
        # and five levels of the build; per sum, one for the pair sums of a
        # float set, and 1 + 5 for the level joins of an exact one, whose
        # first argument has five levels: 20 merges exact, 10 float
        assert len(built) == 2 * (20 if exact else 10)
        for arr, old in zip(own, before):
            assert_same_bits(arr, old)


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
        np.testing.assert_allclose(rep.gaps, [(0, 1 / 3), (2 / 3, 1)])

    def test_temporaries_stay_below_the_set(self):
        # every interval of the ratio-1/2 depth-10 self sum but the last is
        # followed by a gap, so the returned gaps are as large as the set;
        # what covers holds besides them (measured 0.57 times the set's
        # endpoint bytes, 2.6 times with a set-long cursor) stays below it
        c = build_cantor(CantorSpec.uniform(SWEEP_BASE, Fraction(1, 2), 10))
        s = sum_sets(c, c)
        peak, rep = traced_peak(covers, s, (0, 2 * SWEEP_BASE[1]))
        assert rep.gaps.shape == (len(s) - 1, 2)
        assert peak - rep.gaps.nbytes < s.lo.nbytes + s.hi.nbytes


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


class TestMode:
    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_near_touching_ends_stay_apart(self, exact):
        # one merge rule in both modes: only overlapping or touching ends join
        pairs = [(0.0, 1.0), (1.0 + 1e-13, 2.0)]
        s = IntervalSet.from_pairs([(Fraction(a), Fraction(b)) for a, b in pairs] if exact else pairs)
        assert s.exact is exact
        assert len(s) == 2
        assert not covers(s, (0.0, 2.0)).covered

    def test_numpy_integer_endpoints_are_exact(self):
        s = IntervalSet.from_pairs([(np.int64(1), np.int64(3)), (np.int32(5), 7)])
        assert s.exact
        assert s.as_fractions() == [(Fraction(1), Fraction(3)), (Fraction(5), Fraction(7))]

    def test_float_shift_gives_a_float_set(self):
        s = build_cantor(CantorSpec.uniform((0, 1), THIRDS, 3))
        assert s.translate(Fraction(1, 2)).exact
        assert not s.translate(0.5).exact
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


def _merge_cases(exact: bool, rng: np.random.Generator) -> dict:
    """Named interval lists for the merge oracle; float lists get near-touching gaps."""
    cases = {
        "duplicates": [(0, 3), (5, 9), (5, 9), (0, 3), (2, 4)],
        "points": [(1, 1), (1, 1), (4, 4), (0, 2), (2, 2), (7, 7)],
        "nested": [(0, 10), (2, 3), (4, 8), (5, 6), (12, 20), (13, 13)],
        "touching": [(2, 3), (0, 1), (1, 2), (5, 6), (4, 5), (3, 3)],
        "single": [(3, 7)],
        "empty": [],
    }
    ends = np.sort(rng.integers(-60, 60, size=(40, 2)), axis=1)
    cases["random"] = [tuple(p) for p in ends.tolist()]
    if not exact:
        cases = {name: [(a / 8, b / 8) for a, b in pairs] for name, pairs in cases.items()}
        for scale in (1.0, 1e3):
            # gaps of 0.5 to 2 times 1e-12 times the largest endpoint ``scale``
            near = 1e-12 * scale
            lo = np.array([0.0, 0.2, 0.4, 0.6, 0.8]) * scale
            hi = np.append(lo[1:], scale)
            lo[1:] += np.array([0.5, 0.999, 1.001, 2.0])[rng.permutation(4)] * near
            order = rng.permutation(5)
            cases[f"near touch x{scale:g}"] = list(zip(lo[order].tolist(), hi[order].tolist()))
    return cases


class TestMergeOracle:
    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_merge_matches_the_running_max_merge(self, exact):
        rng = np.random.default_rng(19)
        dtype = np.int64 if exact else float
        for _ in range(25):
            for name, pairs in _merge_cases(exact, rng).items():
                order = rng.permutation(len(pairs))
                lo = np.array([pairs[i][0] for i in order], dtype=dtype)
                hi = np.array([pairs[i][1] for i in order], dtype=dtype)
                got = _merge(lo.copy(), hi.copy())
                want = merge_by_running_max(lo, hi)
                for g, w in zip(got, want):
                    assert g.dtype == w.dtype == dtype, name
                    assert np.array_equal(g, w), name

    def test_float_ends_join_only_where_they_touch(self):
        # gaps of 0.999 and 1.001 times 3e-12 stay apart; ends that touch join
        lo = np.array([0.0, 1.0 + 0.999 * 3e-12, 2.0 + 1.001 * 3e-12, 3.0])
        hi = np.array([1.0, 2.0, 3.0, 4.0])
        got_lo, got_hi = _merge(lo.copy(), hi.copy())
        assert got_lo.tolist() == lo[:3].tolist()
        assert got_hi.tolist() == [1.0, 2.0, 4.0]


def _cover_points(s: IntervalSet, extra) -> list:
    """Target ends at, inside and around every interval and gap of ``s``."""
    pairs = s.as_fractions() if s.exact else s.as_floats()
    points = set(extra)
    for a, b in pairs:
        points.update([a, b, (a + b) / 2])
    for (_, b), (a, _) in zip(pairs, pairs[1:]):
        points.add((a + b) / 2)
    if pairs:
        points.update([pairs[0][0] - 1, pairs[-1][1] + 1])
    return sorted(points)


def assert_gaps(rep, gaps):
    """``rep.gaps`` is a ``(k, 2)`` float64 array equal to ``gaps``, and ``covered`` says ``k = 0``."""
    assert rep.gaps.dtype == np.float64 and rep.gaps.ndim == 2 and rep.gaps.shape[1] == 2
    np.testing.assert_array_equal(rep.gaps, gaps)
    assert rep.covered is (rep.gaps.shape[0] == 0)


def assert_report(rep, covered, gaps):
    assert rep.covered is covered
    assert_gaps(rep, np.array(gaps, dtype=float).reshape(-1, 2))


class TestCoversOracle:
    COVER_SETS = {
        "exact den 27": build_cantor(CantorSpec.uniform((0, 1), THIRDS, 3)),
        "exact den 1": IntervalSet.from_pairs([(-3, -1), (0, 2), (4, 4), (6, 9)]),
        # gaps of 1.5e-12 and 3e-12: each is a gap of every target across it
        "float near tol": IntervalSet.from_pairs(
            [(0.0, 0.25), (0.25 + 1.5e-12, 0.5), (0.5 + 3e-12, 0.75), (0.875, 1.0)]
        ),
        "float": IntervalSet.from_pairs([(-0.5, 0.125), (0.3, 0.3), (0.6, 1.5)]),
        "empty": IntervalSet.from_pairs([]),
    }

    @pytest.mark.parametrize("name", list(COVER_SETS))
    def test_covers_matches_the_walk_on_every_target(self, name):
        s = self.COVER_SETS[name]
        extra = [Fraction(-5, 2), Fraction(5, 2)] if s.exact else [-2.5, -1.0, 2.0, 2.5]
        points = _cover_points(s, extra)
        for i, t0 in enumerate(points):
            for t1 in points[i + 1 :]:
                got, want = covers(s, (t0, t1)), covers_by_walk(s, (t0, t1))
                assert got.covered is want.covered, (t0, t1)
                assert_gaps(got, want.gaps)

    def test_hull_is_covered_and_gaps_are_floats(self):
        s = self.COVER_SETS["exact den 27"]
        assert covers(IntervalSet.from_pairs(s.as_fractions()[:1]), s.as_fractions()[0]).covered
        rep = covers(s, (0, 1))
        assert rep.gaps.dtype == np.float64 and rep.gaps.shape == (7, 2)
        assert tuple(rep.gaps[0]) == (1 / 27, 2 / 27)


class TestCoversPoint:
    def test_exact_point_is_covered_iff_it_lies_in_an_interval(self):
        s = IntervalSet.from_pairs([(1, 2), (Fraction(5, 2), 3)])
        for t in (1, Fraction(3, 2), 2, Fraction(5, 2), 3):
            assert_report(covers(s, (t, t)), True, [])
        for t in (0, Fraction(9, 4), 5):
            assert_report(covers(s, (t, t)), False, [(float(t), float(t))])

    def test_float_point_is_covered_iff_it_lies_in_an_interval(self):
        s = IntervalSet.from_pairs([(0.0, 1.0), (2.0, 3.0)])
        for t in (0.0, 0.5, 1.0, 2.0, 3.0):
            assert_report(covers(s, (t, t)), True, [])
        # a point 1e-13 off an interval is one gap, as one 1e-9 off is
        for t in (1.0 + 1e-13, 2.0 - 1e-13, 1.0 + 1e-9, 1.5, -1.0):
            assert_report(covers(s, (t, t)), False, [(t, t)])

    def test_short_float_target_off_an_interval_is_one_gap(self):
        s = IntervalSet.from_pairs([(0.0, 1.0)])
        assert_report(covers(s, (0.5, 0.5 + 1e-13)), True, [])
        for target in ((5.0, 5.0 + 1e-13), (1.0 + 0.5e-12, 1.0 + 0.6e-12)):
            assert_report(covers(s, target), False, [target])
        # a target reaching 1e-13 past the interval has that reach as its gap
        assert_report(covers(s, (0.5, 1.0 + 1e-13)), False, [(1.0, 1.0 + 1e-13)])

    @pytest.mark.parametrize("t", [3, 0.5, Fraction(1, 3)])
    def test_empty_set_covers_no_point(self, t):
        assert_report(covers(IntervalSet.from_pairs([]), (t, t)), False, [(float(t), float(t))])
