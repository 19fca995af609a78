"""Jet arithmetic against polynomial algebra and mpmath derivatives."""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from minklab import jets

ORDER = 6


def mp_derivs(fn, x: float, order: int) -> np.ndarray:
    """Derivative rows of a scalar mpmath function, as floats."""
    with mp.workdps(40):
        return np.array([float(mp.diff(fn, x, j)) for j in range(order + 1)])


small_coeffs = st.lists(
    st.floats(min_value=-3, max_value=3, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=6,
)
points = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


def test_jet_var_rows():
    j = jets.jet_var([0.5, -1.0], 3)
    assert j.shape == (4, 2)
    np.testing.assert_array_equal(j[0], [0.5, -1.0])
    np.testing.assert_array_equal(j[1], [1.0, 1.0])
    np.testing.assert_array_equal(j[2:], 0.0)


@given(small_coeffs, points)
def test_poly_jet_matches_analytic_derivatives(coeffs, x):
    c = np.asarray(coeffs)
    got = jets.jet_to_derivs(jets.poly_jet(c, np.array([x]), ORDER))[:, 0]
    want = np.zeros(ORDER + 1)
    for j in range(ORDER + 1):
        # j-th derivative of sum c_i x^i evaluated directly
        want[j] = sum(
            c[i] * math.perm(i, j) * x ** (i - j) for i in range(j, c.size)
        )
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)


@given(small_coeffs, small_coeffs, points)
def test_tmul_matches_polynomial_product(ca, cb, x):
    pa, pb = np.asarray(ca), np.asarray(cb)
    prod = np.polynomial.polynomial.polymul(pa, pb)
    xa = np.array([x])
    got = jets.tmul(jets.poly_jet(pa, xa, ORDER), jets.poly_jet(pb, xa, ORDER))
    want = jets.poly_jet(prod, xa, ORDER)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)


@given(small_coeffs, small_coeffs, points)
def test_tdiv_inverts_tmul(ca, cb, x):
    pa, pb = np.asarray(ca), np.asarray(cb)
    xa = np.array([x])
    vb = jets.poly_jet(pb, xa, ORDER)
    if abs(vb[0, 0]) < 0.1:
        vb[0, 0] += 1.0
    va = jets.poly_jet(pa, xa, ORDER)
    prod = jets.tmul(va, vb)
    back = jets.tdiv(prod, vb)
    # backward error: a divisor with a root near x amplifies the product's
    # rounding in the quotient past any fixed tolerance, even in exact
    # arithmetic, but the quotient still multiplies back to the dividend
    np.testing.assert_allclose(jets.tmul(back, vb), prod, rtol=1e-8, atol=1e-8)


def test_trecip_against_mpmath():
    x = 0.7
    v = jets.poly_jet(np.array([1.0, 2.0, -0.5]), np.array([x]), ORDER)
    got = jets.jet_to_derivs(jets.trecip(v))[:, 0]
    want = mp_derivs(lambda t: 1 / (1 + 2 * t - 0.5 * t**2), x, ORDER)
    np.testing.assert_allclose(got, want, rtol=1e-10)


def test_texp_against_mpmath():
    x = 0.3
    v = jets.poly_jet(np.array([0.0, 1.5, -1.0, 0.25]), np.array([x]), ORDER)
    got = jets.jet_to_derivs(jets.texp(v))[:, 0]
    want = mp_derivs(lambda t: mp.e ** (1.5 * t - t**2 + 0.25 * t**3), x, ORDER)
    np.testing.assert_allclose(got, want, rtol=1e-10)


@given(small_coeffs, small_coeffs, points)
def test_tcompose_matches_polynomial_composition(co, ci, x):
    po, pi = np.asarray(co), np.asarray(ci)
    xa = np.array([x])
    inner = jets.poly_jet(pi, xa, ORDER)
    outer_at = jets.poly_jet(po, inner[0], ORDER)
    got = jets.tcompose(outer_at, inner)
    comp = np.polynomial.polynomial.Polynomial(po)(
        np.polynomial.polynomial.Polynomial(pi)
    )
    want = jets.poly_jet(comp.coef, xa, ORDER)
    np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-8)


def test_exp_neg_inv_positive_side():
    for x in (0.05, 0.4, 1.0, 7.0):
        got = jets.jet_to_derivs(jets.exp_neg_inv(jets.jet_var(x, ORDER)))[:, 0]
        want = mp_derivs(lambda t: mp.e ** (-1 / t), x, ORDER)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-300)


def test_exp_neg_inv_flat_side_exactly_zero():
    xs = np.array([-1.0, 0.0, 1e-4, 1.0 / 745.0])
    out = jets.exp_neg_inv(jets.jet_var(xs, ORDER))
    assert np.all(out == 0.0)


def test_smoothstep_step_values():
    xs = np.array([-0.5, 0.0, 0.01, 0.5, 0.99, 1.0, 2.0])
    s = jets.smoothstep_jet(jets.jet_var(xs, 0))[0]
    assert s[0] == 0.0 and s[1] == 0.0
    assert s[-1] == 1.0 and s[-2] == 1.0
    assert 0 < s[2] < 1e-6
    assert abs(s[3] - 0.5) < 1e-15
    assert 1 - 1e-6 < s[4] <= 1.0


def test_smoothstep_exact_plateaus_all_orders():
    xs = np.array([-3.0, -1e-9, 0.0, 1.0, 1.0 + 1e-9, 42.0])
    out = jets.smoothstep_jet(jets.jet_var(xs, ORDER))
    np.testing.assert_array_equal(out[0], [0, 0, 0, 1, 1, 1])
    np.testing.assert_array_equal(out[1:], 0.0)


def test_smoothstep_derivatives_against_mpmath():
    def s(t):
        e1 = mp.e ** (-1 / t)
        e2 = mp.e ** (-1 / (1 - t))
        return e1 / (e1 + e2)

    for x in (0.2, 0.5, 0.77):
        got = jets.jet_to_derivs(jets.smoothstep_jet(jets.jet_var(x, ORDER)))[:, 0]
        want = mp_derivs(s, x, ORDER)
        np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-12)


def test_smoothstep_symmetry_identity():
    xs = np.linspace(-0.3, 1.3, 401)
    s = jets.smoothstep_jet(jets.jet_var(xs, 0))[0]
    s_flip = jets.smoothstep_jet(jets.jet_var(1.0 - xs, 0))[0]
    np.testing.assert_allclose(s + s_flip, 1.0, atol=5e-16)


def test_deriv_coeff_roundtrip():
    j = jets.poly_jet(np.array([1.0, -2.0, 3.0, 0.5]), np.array([0.3, 1.1]), 5)
    np.testing.assert_allclose(jets.derivs_to_jet(jets.jet_to_derivs(j)), j, rtol=1e-15)


@pytest.mark.parametrize("order", [0, 1, 3])
def test_jet_const_shape(order):
    j = jets.jet_const(2.5, order, (3,))
    assert j.shape == (order + 1, 3)
    assert np.all(j[0] == 2.5)
    assert np.all(j[1:] == 0.0)
