"""SmoothFn carriers, norms, Hölder seminorms, integration tables."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from helpers import assert_same_bits, listed_tables
from hypothesis import given
from hypothesis import strategies as st

from minklab import jets
from minklab.cantor import CantorSpec, IntervalSet
from minklab.curve import ConvexCurve, GaussZeroSet, SupportFn
from minklab.errors import ArgumentError, CapabilityError, RootBracketError, ValidationError
from minklab.fn_core import (
    GridIntegratedFn,
    SmoothFn,
    _cumulative_simpson,
    _simpson,
    cr_norm,
    holder_seminorm,
    invert_monotone,
    newton_pair,
)
from minklab.hinge import schedule_smoothings
from minklab.infconv import infconv_conjugate, infconv_direct, minimizer_map
from minklab.rotated_graph import rotate_graph


def sin_fn(domain=(0.0, math.pi), max_order=8) -> SmoothFn:
    def jet_fn(x, order):
        out = np.zeros((order + 1,) + x.shape)
        for j in range(order + 1):
            out[j] = np.sin(x + j * math.pi / 2)
        return out

    return SmoothFn(domain, max_order, jet_fn, name="sin")


def abs_power_fn(p: float, domain=(-1.0, 1.0), max_order=5) -> SmoothFn:
    """|x|**p with derivative rows computed analytically (p not an integer)."""

    def jet_fn(x, order):
        out = np.zeros((order + 1,) + x.shape)
        for j in range(order + 1):
            fac = 1.0
            for i in range(j):
                fac *= p - i
            mag = np.abs(x) ** (p - j)
            sgn = np.where(x >= 0, 1.0, -1.0) ** j
            out[j] = fac * mag * sgn
        return out

    return SmoothFn(domain, max_order, jet_fn, name=f"|x|^{p}")


class TestSmoothFn:
    def test_polynomial_eval_and_jets(self):
        f = SmoothFn.polynomial([1.0, 0.0, 3.0], (-2, 2))  # 1 + 3x^2
        assert f(0.5) == pytest.approx(1.75)
        assert f.eval(0.5, 1) == pytest.approx(3.0)
        assert f.eval(0.5, 2) == pytest.approx(6.0)
        assert f.eval(0.5, 7) == 0.0
        rows = f.jet(np.linspace(-1, 1, 5), 3)
        assert rows.shape == (4, 5)
        np.testing.assert_allclose(rows[3], 0.0)

    def test_domain_enforced(self):
        f = SmoothFn.polynomial([0.0, 1.0], (0, 1))
        with pytest.raises(ArgumentError):
            f(1.5)
        with pytest.raises(CapabilityError):
            f.eval(0.5, 17)

    def test_call_scalar_vs_array(self):
        f = SmoothFn.polynomial([0.0, 2.0], (0, 1))
        assert isinstance(f(0.25), float)
        out = f(np.array([0.25, 0.5]))
        np.testing.assert_allclose(out, [0.5, 1.0])

    def test_points_within_the_slack_are_clipped_and_further_out_raise(self):
        seen = []

        def jet_fn(x, order):
            seen.append(x.copy())
            return x[None].copy()

        f = SmoothFn((0.0, 1.0), 0, jet_fn)  # slack 2e-9
        assert f(np.array([-1e-10, 0.5, 1.0 + 1e-10])).tolist() == [0.0, 0.5, 1.0]
        assert seen[-1].tolist() == [0.0, 0.5, 1.0]
        for x in (-1e-8, 1.0 + 1e-8):
            with pytest.raises(ArgumentError, match="outside domain"):
                f(np.array([0.5, x]))


def _tabulated_line():
    return GridIntegratedFn([0.0, 1.0, 2.0], lambda x, o: jets.jet_to_derivs(jets.poly_jet([1.0, 0.5], x, o)))


@pytest.mark.parametrize(
    "make",
    [
        lambda: SmoothFn.polynomial([1.0, -2.0, 0.5, 0.25], (0.0, 2.0)),
        _tabulated_line,
        lambda: rotate_graph(_tabulated_line(), 0.3),
    ],
    ids=["polynomial", "grid_integrated", "rotated"],
)
def test_jet_leaves_the_points_unchanged(make):
    f = make()
    lo, hi = f.domain
    x = np.linspace(lo, hi, 33)
    before = x.copy()
    f.jet(x, 3)
    f.eval(x, 2)
    np.testing.assert_array_equal(x, before)


class TestCrNorm:
    def test_linear_example(self):
        f = SmoothFn.polynomial([0.0, 1.0], (0, 1))
        rep = cr_norm(f, 1)
        assert rep.value == pytest.approx(2.0, abs=1e-12)
        assert rep.per_order == pytest.approx((1.0, 1.0))

    def test_sine_sup(self):
        rep = cr_norm(sin_fn(), 0)
        assert rep.value == pytest.approx(1.0, abs=1e-6)

    @given(
        st.lists(st.floats(-2, 2, allow_nan=False), min_size=1, max_size=5),
        st.integers(min_value=0, max_value=3),
    )
    def test_monotone_in_r_and_interval(self, coeffs, r):
        f = SmoothFn.polynomial(coeffs, (-1, 1))
        inner = cr_norm(f, r, (-0.5, 0.5))
        outer = cr_norm(f, r, (-1.0, 1.0))
        higher = cr_norm(f, r + 1, (-1.0, 1.0))
        assert inner.value <= outer.value + 1e-12
        assert outer.value <= higher.value + 1e-12

    def test_errors(self):
        f = SmoothFn.polynomial([1.0], (0, 1), max_order=2)
        with pytest.raises(CapabilityError):
            cr_norm(f, 3)
        with pytest.raises(ArgumentError):
            cr_norm(f, 1, (0.7, 0.2))


_QUAD = SmoothFn.polynomial([0.0, 0.0, 1.0], (-1.0, 1.0), name="quad")


@pytest.mark.parametrize(
    "call",
    [
        lambda: _QUAD.jet(math.nan, 2),
        lambda: _QUAD.jet(np.array([0.1, math.nan]), 1),
        lambda: _QUAD.eval(math.nan),
        lambda: _QUAD.eval(np.array([math.nan, 0.5]), 1),
        lambda: minimizer_map(_QUAD, _QUAD, math.nan),
        lambda: SmoothFn.polynomial([0.0, math.nan], (0, 1)),
        lambda: SmoothFn.polynomial([math.inf], (0, 1)),
    ],
    ids=["jet", "jet-array", "eval", "eval-array", "minimizer-map", "polynomial-nan", "polynomial-inf"],
)
def test_nan_point_raises_argument_error(call):
    with pytest.raises(ArgumentError):
        call()


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize(
    "call",
    [
        lambda n: cr_norm(_QUAD, 1, grid_n=n),
        lambda n: holder_seminorm(_QUAD, 1, 0.5, (-1.0, 1.0), grid_n=n),
        lambda n: infconv_direct(_QUAD, _QUAD, grid_n=n),
        lambda n: infconv_conjugate(_QUAD, _QUAD, grid_n=n),
    ],
    ids=["cr-norm", "holder", "infconv-direct", "infconv-conjugate"],
)
def test_sample_count_below_two_raises_argument_error(call, n):
    with pytest.raises(ArgumentError, match="grid_n"):
        call(n)


@pytest.mark.parametrize("n", [64.5, 64.0, np.float64(64.0), "64", None])
@pytest.mark.parametrize(
    "call",
    [
        lambda n: cr_norm(_QUAD, 1, grid_n=n),
        lambda n: holder_seminorm(_QUAD, 1, 0.5, (-1.0, 1.0), grid_n=n),
        lambda n: infconv_direct(_QUAD, _QUAD, grid_n=n),
        lambda n: infconv_conjugate(_QUAD, _QUAD, grid_n=n),
        lambda n: SupportFn.grid(n),
    ],
    ids=["cr-norm", "holder", "infconv-direct", "infconv-conjugate", "support-grid"],
)
def test_non_integer_sample_count_raises_argument_error(call, n):
    with pytest.raises(ArgumentError, match="grid_n"):
        call(n)


@pytest.mark.parametrize(
    "call",
    [
        lambda: _QUAD.jet(0.5, -1),
        lambda: _QUAD.eval(0.5, -1),
        lambda: _QUAD.eval(np.array([0.5]), -1),
        lambda: _QUAD.jet(0.5, 2.5),
        lambda: _QUAD.eval(0.5, 1.0),
        lambda: _QUAD.eval(np.array([0.5]), np.float64(1.0)),
        lambda: SmoothFn((0.0, 1.0), 2.5, None),
        lambda: SmoothFn((0.0, 1.0), -1, None),
    ],
    ids=[
        "jet", "eval", "eval-array",
        "jet-float", "eval-float", "eval-np-float", "max-order-float", "max-order-negative",
    ],
)
def test_negative_order_raises_argument_error(call):
    with pytest.raises(ArgumentError, match="order"):
        call()


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: cr_norm(_QUAD, 2.5), "r"),
        (lambda: holder_seminorm(_QUAD, 1.5, 0.5, (-1.0, 1.0)), "k"),
        (lambda: schedule_smoothings(_QUAD, 2.5), "m_max"),
        (lambda: CantorSpec.uniform((0, 1), 0.5, 2.5), "depth"),
    ],
    ids=["cr-norm", "holder", "schedule", "cantor-uniform"],
)
def test_non_integer_order_raises_argument_error(call, name):
    with pytest.raises(ArgumentError, match=f"^{name} must be an integer"):
        call()


def _unit_circle_with_normals(edit):
    """A 64-gon on the unit circle whose normal angles ``edit`` changes in place."""
    th = np.arange(64) * (2.0 * math.pi / 64)
    gauss = th.copy()
    edit(gauss)
    return ConvexCurve(np.column_stack([np.cos(th), np.sin(th)]), gauss, np.ones(64), 1)


def _swap_two(gauss):
    gauss[[3, 4]] = gauss[[4, 3]]


def _past_a_turn(gauss):
    gauss[-1] = 2.0 * math.pi + 0.1


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: CantorSpec((1, 1), ()), ArgumentError, "base interval is empty"),
        (lambda: CantorSpec.uniform((0, 1), Fraction(1, 3), -1), ArgumentError, "depth must be >= 0"),
        (lambda: IntervalSet.from_pairs([(0.1, 0.2)]).as_fractions(), CapabilityError, "no exact endpoints"),
        (lambda: _unit_circle_with_normals(_swap_two).validate(), ValidationError, "not non-decreasing"),
        (lambda: _unit_circle_with_normals(_past_a_turn).validate(), ValidationError, "full revolution"),
        (lambda: GaussZeroSet(IntervalSet.from_pairs([])).validate(), ValidationError, "zero set is empty"),
        (
            lambda: SupportFn(np.ones(16), np.zeros(16), np.full(16, -2.0)).validate(),
            ValidationError,
            "curvature radius",
        ),
        (lambda: SmoothFn.polynomial([1.0], ("a", 1.0)), ArgumentError, "not an interval"),
        (lambda: SmoothFn.polynomial([1.0], (0.0, math.inf)), ArgumentError, "interval must be finite"),
        (lambda: cr_norm(_QUAD, 1, (-2.0, 0.5)), ArgumentError, "not contained in domain"),
    ],
    ids=[
        "cantor-empty-base",
        "cantor-negative-depth",
        "float-set-as-fractions",
        "curve-normals-decrease",
        "curve-normals-past-a-turn",
        "zero-set-empty",
        "support-negative-radius",
        "interval-non-numeric",
        "interval-infinite",
        "cr-norm-outside-domain",
    ],
)
def test_contract_check_raises_its_error(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_integer_orders_of_numpy_type_are_accepted():
    assert cr_norm(_QUAD, np.int32(2), grid_n=5).r == 2


class TestHolder:
    def test_quartic_is_flat_at_order_four(self):
        f = SmoothFn.polynomial([0, 0, 0, 0, 1.0], (-1, 1))
        rep = holder_seminorm(f, 4, 0.5, (-1, 1))
        assert rep.seminorm == 0.0

    def test_abs_power_half(self):
        # fourth derivative of |x|^4.5 is 59.0625 * sqrt(|x|)
        f = abs_power_fn(4.5)
        rep = holder_seminorm(f, 4, 0.5, (-1, 1), grid_n=513)
        assert 55.0 < rep.seminorm <= 59.0625 + 1e-9
        assert min(abs(rep.pair_argmax[0]), abs(rep.pair_argmax[1])) < 0.01

    def test_window_shrink_blowup_rate(self):
        f = abs_power_fn(4.5)
        s1 = holder_seminorm(f, 4, 0.6, (-0.5, 0.5), grid_n=513).seminorm
        s2 = holder_seminorm(f, 4, 0.6, (-0.5 / 16, 0.5 / 16), grid_n=513).seminorm
        assert s2 > s1  # smaller window, larger quotient: unbounded seminorm
        np.testing.assert_allclose(s2 / s1, 16**0.1, rtol=0.02)

    def test_monotone_in_window(self):
        f = sin_fn((0, 3))
        small = holder_seminorm(f, 1, 0.5, (1.0, 2.0), grid_n=257).seminorm
        # use a superset window whose grid contains the inner grid
        big = holder_seminorm(f, 1, 0.5, (0.5, 2.5), grid_n=1025).seminorm
        assert big >= small - 1e-12

    def test_alpha_monotone_on_short_windows(self):
        # on windows of length <= 1 every pair quotient grows with alpha
        f = sin_fn((0, 3))
        lo = holder_seminorm(f, 1, 0.4, (1.0, 1.9), grid_n=257).seminorm
        hi = holder_seminorm(f, 1, 0.9, (1.0, 1.9), grid_n=257).seminorm
        assert lo <= hi + 1e-12

    def test_argument_errors(self):
        f = sin_fn()
        with pytest.raises(ArgumentError):
            holder_seminorm(f, 1, 0.5, (1.0, 1.0))
        with pytest.raises(ArgumentError):
            holder_seminorm(f, 1, 1.5, (0.0, 1.0))


@pytest.fixture(scope="module")
def tabulated_sin():
    def d2(x, order):
        out = np.zeros((order + 1,) + x.shape)
        for j in range(order + 1):
            out[j] = -np.sin(x + j * math.pi / 2)
        return out

    return GridIntegratedFn(
        [0.0, 1.1, 3.0], d2, value0=0.0, slope0=1.0, max_order=6, nodes_per_piece=2048
    )


class TestGridIntegrated:
    def test_matches_closed_form(self, tabulated_sin):
        xs = np.linspace(0.0, 3.0, 1234)  # hits many off-node points
        np.testing.assert_allclose(tabulated_sin.jet(xs, 0)[0], np.sin(xs), atol=2e-13)
        np.testing.assert_allclose(tabulated_sin.jet(xs, 1)[1], np.cos(xs), atol=2e-13)
        np.testing.assert_allclose(tabulated_sin.jet(xs, 3)[3], -np.cos(xs), atol=1e-15)

    def test_quadrature_consistency_refinement_ratio(self, tabulated_sin):
        # centered second difference of eval(.,0) vs eval(.,2): O(h^2), ratio ~ 4
        x0 = 1.7
        exact = tabulated_sin.eval(x0, 2)

        def fd2(h):
            vals = tabulated_sin(np.array([x0 - h, x0, x0 + h]))
            return (vals[0] - 2 * vals[1] + vals[2]) / h**2

        e1 = abs(fd2(0.04) - exact)
        e2 = abs(fd2(0.02) - exact)
        assert 3.0 < e1 / e2 < 5.0

    def test_bad_breakpoints(self):
        with pytest.raises(ArgumentError):
            GridIntegratedFn([0.0, 0.0], lambda x, o: np.zeros((o + 1,) + x.shape))

    def test_f_and_slope_converge_at_fourth_order(self):
        # f'' = e^x on [0, 1]: the tables carry the cumulative Simpson
        # rule's O(h^4) error, and the Hermite interpolants keep that order
        # between nodes, so each doubling of n divides every error by 2^4
        def d2(x, order):
            return np.tile(np.exp(x), (order + 1, 1))

        errors = []
        for n in (16, 32, 64, 128, 256, 512):
            fn = GridIntegratedFn([0.0, 1.0], d2, value0=1.0, slope0=1.0, nodes_per_piece=n)
            nodes = np.linspace(0.0, 1.0, n + 1)
            # at the nodes, a quarter and half a step past them: rows (f, f')
            points = (nodes, nodes[:-1] + 0.25 / n, nodes[:-1] + 0.5 / n)
            errors.append([np.max(np.abs(fn.jet(xs, 1) - np.exp(xs)), axis=1) for xs in points])
        errors = np.array(errors)
        ratios = errors[:-1] / errors[1:]
        assert np.all((ratios > 15.0) & (ratios < 17.0)), ratios

    def test_profile_tables_equal_the_listed_build(self, hinge_profile):
        f = hinge_profile.f
        for got, want in zip((f._f_tab, f._d1_tab, f._d2_tab), listed_tables(f, 0.0, 0.0)):
            assert_same_bits(got, want)

    def test_smoothing_tables_equal_the_listed_build(self, hinge_schedule):
        F = hinge_schedule.smoothings[2].F
        # the first node holds value0 and slope0 as the build was given them
        for got, want in zip((F._f_tab, F._d1_tab, F._d2_tab), listed_tables(F, F._f_tab[0], F._d1_tab[0])):
            assert_same_bits(got, want)


def _unit_d2(x, order):
    """Derivative rows of ``f'' = 1``."""
    out = np.zeros((order + 1,) + x.shape)
    out[0] = 1.0
    return out


class TestGridIntegratedInputContract:
    """Bad input raises a ``MinkLabError`` and never builds a NaN table."""

    def _d2_never_called(self, x, order):
        raise AssertionError("d2_jet_fn called on bad input")

    def test_nan_value0(self):
        with pytest.raises(ArgumentError, match="value0"):
            GridIntegratedFn([0.0, 1.0], self._d2_never_called, value0=math.nan)

    def test_infinite_slope0(self):
        with pytest.raises(ArgumentError, match="slope0"):
            GridIntegratedFn([0.0, 1.0], self._d2_never_called, slope0=math.inf)

    def test_infinite_breakpoint(self):
        with pytest.raises(ArgumentError, match="finite"):
            GridIntegratedFn([0.0, math.inf], self._d2_never_called)

    def test_nan_breakpoint(self):
        with pytest.raises(ArgumentError, match="increasing"):
            GridIntegratedFn([0.0, math.nan, 1.0], self._d2_never_called)

    def test_non_integer_nodes_per_piece(self):
        with pytest.raises(ArgumentError, match="nodes_per_piece"):
            GridIntegratedFn([0.0, 1.0], self._d2_never_called, nodes_per_piece=16.0)

    def test_odd_nodes_per_piece(self):
        with pytest.raises(ArgumentError, match="nodes_per_piece must be even"):
            GridIntegratedFn([0.0, 1.0], self._d2_never_called, nodes_per_piece=15)

    def test_overflowing_integral(self):
        with pytest.raises(ValidationError, match="piece 0"):
            GridIntegratedFn([0.0, 1e308, 1.7e308], _unit_d2, nodes_per_piece=16)

    def test_nan_second_derivative(self):
        def d2(x, order):
            out = _unit_d2(x, order)
            out[0, x > 1.5] = np.nan
            return out

        with pytest.raises(ValidationError, match="piece 1 .* of nan_tail"):
            GridIntegratedFn([0.0, 1.0, 2.0], d2, nodes_per_piece=16, name="nan_tail")


class TestInvertMonotone:
    def test_cubic(self):
        fn = lambda x: x**3 + x
        dfn = lambda x: 3 * x**2 + 1
        ys = np.linspace(-8, 8, 41)
        xs = invert_monotone(fn, dfn, ys, -2.5, 2.5)
        np.testing.assert_allclose(fn(xs), ys, atol=1e-13)

    def test_without_derivative(self):
        xs = invert_monotone(np.tanh, None, [0.5], -5, 5)
        np.testing.assert_allclose(np.tanh(xs), 0.5, atol=1e-12)

    @pytest.mark.parametrize("y", [0.5, -0.9, 0.999])
    def test_without_derivative_every_step_bisects(self, y):
        seen = []

        def fn(x):
            seen.append(np.array(x, copy=True))
            return np.tanh(x)

        lo, hi = -5.0, 5.0
        (x,) = invert_monotone(fn, None, [y], lo, hi)
        assert np.tanh(x) == pytest.approx(y, rel=0, abs=1e-15)
        eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
        a, b = lo, hi
        for (p,) in seen[1:]:
            # the midpoint, up to the half tolerance that keeps steps inside
            assert abs(p - 0.5 * (a + b)) <= 2.0 * eps * max(abs(a), abs(b)) + 2.0 * tiny
            a, b = (p, b) if np.tanh(p) < y else (a, p)
        # no more steps than halvings from the bracket down to the stop width
        assert len(seen) <= 1 + math.ceil(math.log2((hi - lo) / (4.0 * eps * abs(x) + 4.0 * tiny)))

    def test_unbracketed(self):
        with pytest.raises(RootBracketError):
            invert_monotone(np.tanh, None, [2.0], -5, 5)

    def test_per_target_brackets(self):
        cube = lambda x: x**3
        lo = np.array([1.0, 2.5, -2.0])
        hi = np.array([2.5, 4.0, 0.0])
        xs = invert_monotone(cube, None, [8.0, 27.0, -1.0], lo, hi)
        np.testing.assert_allclose(xs, [2.0, 3.0, -1.0], rtol=1e-14)
        with pytest.raises(RootBracketError):
            invert_monotone(cube, None, [8.0, 27.0, -1.0], lo[::-1], hi[::-1])

    def test_targets_at_the_bracket_values(self):
        fn = lambda x: x**3 + x
        xs = invert_monotone(fn, None, [fn(-1.0), fn(2.0)], -1.0, 2.0)
        np.testing.assert_allclose(xs, [-1.0, 2.0], rtol=0, atol=1e-14)

    def test_targets_within_the_slack_resolve_to_the_endpoints(self):
        fn = lambda x: x**3 + x
        ys = [fn(-1.0) - 1e-11, fn(2.0) + 1e-11]
        xs = invert_monotone(fn, None, ys, -1.0, 2.0)
        np.testing.assert_allclose(xs, [-1.0, 2.0], rtol=0, atol=1e-14)
        with pytest.raises(RootBracketError):
            invert_monotone(fn, None, [fn(2.0) + 1e-6], -1.0, 2.0)

    def test_nondecreasing_with_a_plateau(self):
        # x below 0, flat 0 on [0, 1], x - 1 above 1
        fn = lambda x: np.minimum(x, 0.0) + np.maximum(x - 1.0, 0.0)
        ys = np.array([-0.5, 0.0, 0.5])
        xs = invert_monotone(fn, None, ys, -2.0, 3.0, rtol=1e-14)
        np.testing.assert_allclose(fn(xs), ys, rtol=0, atol=1e-14)
        assert xs[0] == pytest.approx(-0.5, abs=1e-14)
        assert 0.0 <= xs[1] <= 1.0
        assert xs[2] == pytest.approx(1.5, abs=1e-14)

    def test_target_inside_a_jump(self):
        step = lambda x: np.where(x < 0.3, 0.0, 1.0)
        x = invert_monotone(step, None, [0.5], 0.0, 1.0)
        assert x[0] == pytest.approx(0.3, abs=1e-12)
        with pytest.raises(RootBracketError, match="residual"):
            invert_monotone(step, None, [0.5], 0.0, 1.0, rtol=1e-12)

    def test_targets_near_zero_keep_relative_accuracy(self):
        # bisection: the stop test reads the smallest subnormal, so neither
        # the residual nor the bracket floor stops early near zero
        ys = np.array([1e-300, -1e-305])
        xs = invert_monotone(np.tanh, None, ys, -5.0, 5.0, rtol=1e-14)
        np.testing.assert_allclose(xs, np.arctanh(ys), rtol=4 * np.finfo(float).eps, atol=0.0)
        # the step limit reaches a subnormal root from a bracket near the float range
        (x,) = invert_monotone(lambda x: x, None, [-4e-320], -8e307, 8.5e307)
        assert x == -4e-320

    @pytest.mark.parametrize("fn", [lambda x: x, lambda x: np.tanh(x)], ids=["both", "width only"])
    def test_overflowing_bracket_width_raises_before_any_step(self, fn):
        # every value is finite, but hi - lo (and for the identity fn(hi) -
        # fn(lo)) is not: the filter turns any numpy overflow warning into a failure
        calls = []

        def counted(x):
            calls.append(np.size(x))
            return fn(x)

        with pytest.raises(RootBracketError, match="bracket width .* overflows"):
            invert_monotone(counted, None, [1e-300, 0.5], -1.7e308, 1.7e308)
        assert calls == [2]

    def test_solver_failure_raises(self):
        # a NaN hole around the root: the bracket is valid, the search is not
        holed = lambda x: np.where(np.abs(x - 0.5) < 0.1, np.nan, x)
        with pytest.raises(RootBracketError, match="root search failed"):
            invert_monotone(holed, None, [0.5], 0.0, 1.0)

    def test_fn_sees_only_arrays_shaped_like_the_targets(self):
        shapes = []

        def fn(x):
            shapes.append(np.shape(x))
            return np.sinh(x)

        # targets of very different difficulty converge at different steps
        ys = np.array([[0.0, 1e-300, 0.5], [3.0, 70.0, -2.0]])
        xs = invert_monotone(fn, None, ys, -6.0, 6.0, rtol=1e-14)
        np.testing.assert_allclose(np.sinh(xs), ys, rtol=1e-14, atol=1e-14)
        assert len(shapes) > 3 and shapes[0] == (2,)
        assert all(len(b) == 1 and b[0] <= a[0] for a, b in zip(shapes[1:], shapes[2:]))


class TestInvertMonotoneWork:
    # targets of very different difficulty converge at different steps
    ys = np.array([[0.0, 1e-300, 0.5], [3.0, 70.0, -2.0]])

    @pytest.mark.parametrize("newton", [False, True], ids=["bisection", "newton"])
    def test_batched_roots_equal_lone_roots_and_cost_their_steps(self, newton):
        def solve(ys):
            sizes = []

            def rows(x):
                sizes.append(np.size(x))
                return np.sinh(x), np.cosh(x)

            solver = newton_pair(rows) if newton else (lambda x: rows(x)[0], None)
            return invert_monotone(*solver, ys, -6.0, 6.0, rtol=1e-14), sizes

        xs, sizes = solve(self.ys)
        lone = [solve([y]) for y in self.ys.flat]
        np.testing.assert_array_equal(xs.reshape(-1), [x[0] for x, _ in lone])
        # one call on [lo, hi], then one point per step of an unsolved target
        assert all(s[0] == 2 and set(s[1:]) == {1} for _, s in lone)
        assert sum(sizes) == 2 + sum(len(s) - 1 for _, s in lone)

    def test_shared_brackets_give_shrinking_calls(self):
        seen = []

        def fn(x):
            seen.append(np.array(x, copy=True))
            return np.sinh(x)

        invert_monotone(fn, None, self.ys, -6.0, 6.0)
        np.testing.assert_array_equal(seen[0], [-6.0, 6.0])
        assert all(x.ndim == 1 for x in seen)
        assert all(b.size <= a.size for a, b in zip(seen[1:], seen[2:]))
        assert seen[1].size == self.ys.size

    def test_per_target_brackets_keep_the_targets_shape(self):
        shapes = []

        def fn(x):
            shapes.append(np.shape(x))
            return np.sinh(x)

        lo = np.full(self.ys.shape, -6.0)
        hi = np.array([[1.0, 1.0, 1.0], [6.0, 6.0, 0.0]])
        xs = invert_monotone(fn, None, self.ys, lo, hi, rtol=1e-14)
        np.testing.assert_allclose(np.sinh(xs), self.ys, rtol=1e-14, atol=1e-14)
        assert len(shapes) > 3 and set(shapes) == {self.ys.shape}

    @pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (np.zeros((0, 3)) - 1.0, np.zeros((0, 3)) + 1.0)])
    def test_no_targets_no_call(self, lo, hi):
        def fn(x):
            raise AssertionError("fn called with no targets")

        xs = invert_monotone(fn, fn, np.zeros((0, 3)), lo, hi, rtol=1e-14)
        assert xs.shape == (0, 3)


class TestInvertMonotoneNewton:
    def test_derivative_saves_evaluations(self):
        calls = {None: 0, "newton": 0}
        ys = np.linspace(-8, 8, 41)
        roots = {}
        for key, dfn in ((None, None), ("newton", lambda x: 3 * x**2 + 1)):

            def fn(x, key=key):
                calls[key] += 1
                return x**3 + x

            roots[key] = invert_monotone(fn, dfn, ys, -2.5, 2.5)
        assert calls["newton"] < calls[None]
        np.testing.assert_allclose(roots["newton"], roots[None], rtol=0, atol=4 * np.spacing(2.5))

    def test_derivative_shares_the_value_call(self):
        calls = []

        def rows(x):
            calls.append(x)
            return np.sinh(x), np.cosh(x)

        ys = np.array([[0.0, 1e-300, 0.5], [3.0, 70.0, -2.0]])
        xs = invert_monotone(*newton_pair(rows), ys, -6.0, 6.0, rtol=1e-14)
        np.testing.assert_allclose(np.sinh(xs), ys, rtol=1e-14, atol=1e-14)
        # the bracket ends together, then the steps: one rows call each
        assert np.shape(calls[0]) == (2,) and len(calls) < 20
        assert all(y.ndim == 1 and y.size <= x.size for x, y in zip(calls[1:], calls[2:]))

    @pytest.mark.parametrize(
        "dfn",
        [
            lambda x: np.where(np.abs(x - 0.3) < 0.2, 0.0, 3 * x**2 + 1),
            lambda x: np.full(np.shape(x), np.nan),
            lambda x: -(3 * x**2 + 1),
            lambda x: np.full(np.shape(x), np.inf),
        ],
        ids=["zero-plateau", "nan", "wrong-sign", "inf"],
    )
    def test_bad_derivative_falls_back_inside_the_bracket(self, dfn):
        fn = lambda x: x**3 + x
        seen = []

        def watched(x):
            seen.append(np.array(x, copy=True))
            return fn(x)

        ys = np.linspace(-2.0, 10.0, 25)
        xs = invert_monotone(watched, dfn, ys, -1.0, 2.0, rtol=1e-14)
        np.testing.assert_allclose(fn(xs), ys, rtol=1e-14, atol=1e-14)
        assert all(np.all((x >= -1.0) & (x <= 2.0)) for x in seen)

    @pytest.mark.parametrize("ulps", [12, 14], ids=["stop", "step"])
    def test_newton_steps_across_a_rounding_stair_stay_newton_steps(self, ulps):
        # Near its root a slope gap changes only in rounding quanta: it
        # reads one value over a stair of several ulp, so every Newton step
        # from the stair is a quarter stair long.  The stop tolerance here is
        # 6.8 ulp: steps of 3 ulp are within half of it (the target stops),
        # steps of 3.5 ulp within it (they are taken).  Either way no step
        # may bisect the bracket [0, 0.5], which took 57-59 evaluations
        root, slope = 0.053155566767858514, 2.343
        stair = ulps * np.spacing(root)
        for offset in np.arange(16) / 16:
            calls = []

            def fn(x):
                calls.append(1)
                return slope * stair / 4 * (2 * np.floor((x - root) / stair + offset) + 1)

            x = invert_monotone(fn, lambda x: np.full(np.shape(x), slope), [0.0], 0.0, 0.5)
            assert abs(x[0] - (root - offset * stair)) <= stair
            assert len(calls) <= 8, (offset, len(calls))

    def test_oscillating_newton_steps_give_way_to_bisection(self):
        # Newton on sign(u)|u|^0.55 maps u to -0.82 u: an oscillation inside
        # the bracket that shrinks too slowly unless the step test bisects
        calls = []

        def fn(x):
            calls.append(1)
            return np.sign(x - 0.3) * np.abs(x - 0.3) ** 0.55

        dfn = lambda x: 0.55 * np.abs(x - 0.3) ** -0.45
        xs = invert_monotone(fn, dfn, [0.0], -1.0, 1.0)
        assert xs[0] == pytest.approx(0.3, rel=4e-16)
        assert len(calls) < 60

    def test_no_targets(self):
        xs = invert_monotone(np.tanh, lambda x: 1.0 - np.tanh(x) ** 2, np.zeros((0, 3)), -1.0, 1.0)
        assert xs.shape == (0, 3)

    def test_non_finite_bracket_value_raises(self):
        with pytest.raises(RootBracketError, match="non-finite"):
            invert_monotone(lambda x: np.where(x > 0.9, np.nan, x), None, [0.5], 0.0, 1.0)


_SIMPSON_COUNTS = [3, 5, 2049, 4097, 16385]


@pytest.mark.parametrize("n", _SIMPSON_COUNTS)
def test_simpson_rules_equal_scipy_bit_for_bit(n):
    from scipy.integrate import cumulative_simpson, simpson

    rng = np.random.default_rng([n, 16])
    y = rng.standard_normal(n)
    x = np.cumsum(rng.uniform(0.1, 2.0, n))  # strictly increasing, unequal steps
    h = float(rng.uniform(1e-3, 1.0))
    assert _simpson(y, x) == float(simpson(y, x=x))
    assert np.array_equal(_cumulative_simpson(y, h), cumulative_simpson(y, dx=h, initial=0.0))


# 16385 nodes is left out: there the running sum's own rounding reaches 1.3e-14
@pytest.mark.parametrize("n", [3, 5, 65, 2049, 4097])
def test_simpson_rules_are_exact_on_a_cubic(n):
    x = np.linspace(-1.0, 2.0, n)
    y = 1.0 - 2.0 * x + 3.0 * x**2 + 4.0 * x**3  # positive on [-1, 2]
    integral = (x - x**2 + x**3 + x**4) + 2.0  # the antiderivative, zero at -1
    assert _simpson(y, x) == pytest.approx(integral[-1], rel=1e-14)
    # the steps pair into Simpson panels, so the even nodes are exact
    cum = _cumulative_simpson(y, 3.0 / (n - 1))
    np.testing.assert_allclose(cum[::2], integral[::2], rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("n_y, n_x", [(2, 2), (1, 1), (4, 4), (6, 6), (5, 7)])
def test_simpson_rejects_a_count_it_does_not_implement(n_y, n_x):
    with pytest.raises(ArgumentError, match=f"got {n_y} values at {n_x}"):
        _simpson(np.ones(n_y), np.arange(float(n_x)))

