"""SmoothFn carriers, norms, Hölder seminorms, integration tables."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from minklab import jets
from minklab.errors import ArgumentError, CapabilityError, RootBracketError
from minklab.fn_core import (
    GridIntegratedFn,
    SmoothFn,
    cr_norm,
    derivative_fn,
    holder_seminorm,
    invert_monotone,
    write_csv_table,
)
from minklab.infconv import minimizer_map


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
    ],
    ids=["jet", "jet-array", "eval", "eval-array", "minimizer-map"],
)
def test_nan_point_raises_argument_error(call):
    with pytest.raises(ArgumentError):
        call()


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


class TestDerivativeFn:
    def test_basic(self):
        f = SmoothFn.polynomial([0, 0, 1.0], (-4, 4))  # x^2
        d = derivative_fn(f, 1)
        assert d(3.0) == pytest.approx(6.0)
        assert d.max_order == f.max_order - 1

    def test_identity_case(self):
        f = sin_fn()
        d0 = derivative_fn(f, 0)
        assert d0 is f

    def test_too_large(self):
        f = SmoothFn.polynomial([1.0], (0, 1), max_order=3)
        with pytest.raises(CapabilityError):
            derivative_fn(f, 4)


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
        assert tabulated_sin.kind == "grid_integrated"

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
        assert len(shapes) > 3 and set(shapes) == {ys.shape}


def test_write_csv_table(tmp_path):
    f = SmoothFn.polynomial([0.0, 0.0, 0.5], (0, 2))
    path = tmp_path / "table.csv"
    write_csv_table(f, path, grid_n=11, orders=(0, 1, 2))
    lines = path.read_text().splitlines()
    assert lines[0] == "x,d0,d1,d2"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (11, 4)
    np.testing.assert_array_equal(data[:, 1], 0.5 * data[:, 0] ** 2)
    np.testing.assert_array_equal(data[:, 3], 1.0)


@pytest.mark.parametrize("orders", [(), (0, -1), (1, 1)])
def test_write_csv_table_rejects_bad_orders(tmp_path, orders):
    f = SmoothFn.polynomial([0.0, 0.0, 0.5], (0, 2))
    path = tmp_path / "table.csv"
    with pytest.raises(ArgumentError):
        write_csv_table(f, path, orders=orders)
    assert not path.exists()
