"""The dyadic partition bump and the even plateau bump."""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_jets import mp_derivs

from minklab import bumps, jets
from minklab.fn_core import _simpson
from minklab.jets import tdiv


def richardson_fd(fn, x: float, order: int, h: float) -> float:
    """Richardson-extrapolated central finite difference of given order."""
    import math

    def fd(step):
        k = order
        coeff = [(-1) ** (k - i) * math.comb(k, i) for i in range(k + 1)]
        pts = [x + (i - k / 2) * step for i in range(k + 1)]
        return sum(c * fn(p) for c, p in zip(coeff, pts)) / step**k

    a, b = fd(h), fd(h / 2)
    return (4 * b - a) / 3


def test_partition_of_unity_dense():
    x = np.concatenate(
        [np.linspace(1e-5, 8.0, 40001), np.geomspace(1e-8, 1e-5, 2001)]
    )
    total = np.zeros_like(x)
    for m in range(-4, 42):
        total += bumps.psi_scaled_jet(x, m, 0)[0]
    np.testing.assert_allclose(total, 1.0, atol=1e-12)


@given(st.floats(min_value=-26, max_value=3))
def test_partition_of_unity_random_scale(log2x):
    x = np.array([2.0**log2x, 1.3 * 2.0**log2x])
    lo = int(np.floor(log2x)) - 3
    total = np.zeros_like(x)
    for m in range(-lo - 6, -lo + 6):
        total += bumps.psi_scaled_jet(x, m, 0)[0]
    np.testing.assert_allclose(total, 1.0, atol=1e-12)


def test_psi_support_and_plateau_exact():
    lo, hi = bumps.PSI_SUPPORT
    outside = np.array([0.0, lo - 1e-9, lo, hi, hi + 1e-9, 10.0, -1.0])
    out = bumps.psi_jet(outside, 4)
    assert np.all(out == 0.0)

    plateau = np.linspace(0.75, 1.25, 101)
    rows = bumps.psi_jet(plateau, 4)
    np.testing.assert_array_equal(rows[0], 1.0)
    np.testing.assert_array_equal(rows[1:], 0.0)


def test_psi_jet_equals_the_unmasked_quotient():
    # the plateau, ramp and translate masks must not move a single bit
    edges = [2.0 / 3.0, 0.75, 1.25, 4.0 / 3.0, 1.5, 1.0, 0.375, 3.0]
    near = [np.nextafter(e, d) for e in edges for d in (-np.inf, np.inf)]
    near += [np.nextafter(v, d) for v, d in zip(near, [-np.inf, np.inf] * len(edges))]
    x = np.concatenate([edges, near, np.linspace(0.5, 1.7, 24001), [0.0, -1.0, 1e-300]])
    for order in range(9):
        raw = bumps.psi_raw_jet(x, order)
        inside = raw[0] > 0.0
        norm = bumps._normalizer_jet(x, order)
        norm[0] = np.where(inside, norm[0], 1.0)
        expected = np.where(inside, tdiv(raw, norm), 0.0)
        assert np.array_equal(bumps.psi_jet(x, order), expected), order


def test_psi_range_and_positivity():
    xs = np.linspace(0.5, 1.7, 4001)
    v = bumps.psi_jet(xs, 0)[0]
    assert np.all(v >= 0.0)
    assert np.all(v <= 1.0 + 1e-15)
    inside = (xs > bumps.PSI_SUPPORT[0] + 1e-3) & (xs < bumps.PSI_SUPPORT[1] - 1e-3)
    assert np.all(v[inside] > 0.0)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_psi_jets_match_finite_differences(order):
    for x0 in (0.70, 0.9, 1.3, 1.45):
        coeff = bumps.psi_jet(np.array([x0]), order)[order, 0]
        got = coeff * math.factorial(order)  # coefficient -> derivative
        want = richardson_fd(lambda t: bumps.psi_jet(np.array([t]), 0)[0, 0], x0, order, 2e-3)
        tol = 6e-4 * max(1.0, abs(want))
        assert abs(got - want) <= tol, (x0, order, got, want)


def test_psi_scaled_jet_consistency():
    x = np.array([0.9 / 16, 1.2 / 16])
    scaled = bumps.psi_scaled_jet(x, 4, 3)
    base = bumps.psi_jet(16 * x, 3)
    for j in range(4):
        np.testing.assert_allclose(scaled[j], base[j] * 16.0**j, rtol=1e-13)


@pytest.mark.parametrize("order", range(9))
def test_psi_scaled_jet_with_an_exponent_array_equals_one_call_per_exponent(order):
    # points across each scaled support, plateau, ramps and translates,
    # with the scales interleaved
    scales = np.arange(-3, 9)
    s = np.repeat(scales, 600)
    x = np.ldexp(np.tile(np.linspace(0.6, 1.6, 600), scales.size), -s)
    perm = np.random.default_rng(7).permutation(x.size)
    x, s = x[perm], s[perm]
    batched = bumps.psi_scaled_jet(x, s, order)
    for e in scales:
        m = s == e
        np.testing.assert_array_equal(batched[:, m], bumps.psi_scaled_jet(x[m], int(e), order))


def test_psi_scaled_supports_are_dyadic():
    # psi(2^(2k) x) lives on [2/3, 3/2] * 4^-k, psi(2^(2k-1) x) on [4/3, 3] * 4^-k
    k = 3
    tk = 4.0**-k
    inside_even = np.array([0.8 * tk, 1.0 * tk, 1.4 * tk])
    assert np.all(bumps.psi_scaled_jet(inside_even, 2 * k, 0)[0] > 0)
    outside_even = np.array([0.6 * tk, 1.6 * tk])
    assert np.all(bumps.psi_scaled_jet(outside_even, 2 * k, 0)[0] == 0)
    inside_odd = np.array([1.5 * tk, 2.0 * tk, 2.9 * tk])
    assert np.all(bumps.psi_scaled_jet(inside_odd, 2 * k - 1, 0)[0] > 0)
    outside_odd = np.array([1.2 * tk, 3.05 * tk])
    assert np.all(bumps.psi_scaled_jet(outside_odd, 2 * k - 1, 0)[0] == 0)


def test_phi_even_symmetry_support_plateau():
    xs = np.linspace(0.0, 1.2, 601)
    rows_p = bumps.phi_even_jet(xs, 2)
    rows_m = bumps.phi_even_jet(-xs, 2)
    np.testing.assert_array_equal(rows_p[0], rows_m[0])
    np.testing.assert_array_equal(rows_p[1], -rows_m[1])
    v = rows_p[0]
    assert np.all(v[xs >= 1.0] == 0.0)
    assert np.all(v[xs <= 0.5] == 1.0)
    ramp = (xs > 0.5) & (xs < 1.0 - 1e-3)
    assert np.all(np.diff(v[ramp]) <= 1e-15)


def test_phi_even_jets_match_finite_differences():
    for x0 in (0.6, 0.75, 0.93):
        for order in (1, 2, 3):
            coeff = bumps.phi_even_jet(np.array([x0]), order)[order, 0]
            got = coeff * math.factorial(order)
            want = richardson_fd(
                lambda t: bumps.phi_even_jet(np.array([t]), 0)[0, 0], x0, order, 1e-3
            )
            assert abs(got - want) <= 3e-5 * max(1.0, abs(want))


def test_psi_integral_grid_stable():
    lo, hi = bumps.PSI_SUPPORT
    xs = np.linspace(lo, hi, (1 << 14) + 1)
    b = _simpson(bumps.psi_jet(xs, 0)[0], xs)
    assert abs(bumps.psi_integral() - b) < 1e-12 * abs(b)


def mp_psi(x):
    """``psi = P / T`` from the module's definitions, at mpmath precision."""

    def step(t):
        e0 = mp.exp(-1 / t) if t > 0 else 0
        e1 = mp.exp(-1 / (1 - t)) if t < 1 else 0
        return e0 / (e0 + e1)

    def raw(y):
        return step(12 * (y - mp.mpf(2) / 3)) * step(4 * (mp.mpf(3) / 2 - y))

    return raw(x) / (raw(x / 2) + raw(x) + raw(2 * x))


@pytest.mark.parametrize("lo, hi", [(2.0 / 3.0, 0.75), (1.25, 1.5)])
def test_psi_jet_matches_mpmath(lo, hi):
    # equal steps across the ramp, and steps shrinking toward both ends
    near = (hi - lo) * np.geomspace(1e-3, 1e-2, 3)
    xs = np.concatenate([np.linspace(lo, hi, 34)[1:-1], lo + near, hi - near])
    got = jets.jet_to_derivs(bumps.psi_jet(xs, 2))
    ref = np.array([mp_derivs(mp_psi, float(x), 2) for x in xs]).T
    # the left ramp argument t of x (of x/2 on the right ramp) is rounded,
    # and exp(-1/t) turns an error e in t into a relative error e/t**2, as
    # exp(-1/(1-t)) does near t = 1; rows that pass through 0 get an
    # absolute floor at the scale of the row
    eps = np.finfo(float).eps
    t = np.where(xs < 1.0, 12.0 * xs - 8.0, 6.0 * xs - 8.0)
    edge = np.minimum(t, 1.0 - t)
    rtol = 1e-13 + 16.0 * eps / np.where(edge > 0.0, edge, 1.0) ** 2
    atol = 64.0 * eps * np.max(np.abs(ref), axis=1, keepdims=True)
    assert np.all(np.abs(got - ref) <= rtol * np.abs(ref) + atol)
