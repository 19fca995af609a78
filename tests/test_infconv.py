"""Tests for the two infimal-convolution routes and their diagnostics."""

import csv
import tracemalloc

import numpy as np
import pytest
from helpers import flat_center_fn
from hypothesis import given
from hypothesis import strategies as st

from minklab.errors import (
    ArgumentError,
    CapabilityError,
    DegenerateHessianError,
    RootBracketError,
    ValidationError,
)
from minklab.fn_core import SmoothFn
from minklab.infconv import (
    InfConvResult,
    _lower_hull,
    check_convexity,
    infconv_conjugate,
    infconv_direct,
    minimizer_map,
    smoothness_diag,
    write_infconv_csv,
)


def quad(a, domain, name=""):
    """The parabola ``a * x**2 / 2`` as a SmoothFn."""
    return SmoothFn.polynomial([0.0, 0.0, 0.5 * a], domain, name=name or f"quad{a}")


def poly(coeffs, domain, name=""):
    return SmoothFn.polynomial(coeffs, domain, name=name)


class TestValidation:
    def test_nonconvex_input_rejected(self):
        bad = poly([0.0, 0.0, -1.0], (-1, 1))
        good = quad(1.0, (-1, 1))
        with pytest.raises(ValidationError):
            infconv_direct(bad, good)
        with pytest.raises(ValidationError):
            infconv_conjugate(good, bad)

    def test_check_convexity_accepts_linear(self):
        check_convexity(poly([3.0, -2.0], (-5, 5)))

    def test_interval_beyond_domain_sum(self):
        f = quad(1.0, (-1, 1))
        g = quad(1.0, (-1, 1))
        with pytest.raises(ArgumentError):
            infconv_direct(f, g, interval=(-3, 3))
        with pytest.raises(ArgumentError):
            infconv_conjugate(f, g, interval=(-2, 2.5))


class TestQuadraticLaw:
    """Parabola pairs have a closed form: curvatures combine harmonically."""

    def check(self, res: InfConvResult, a, b, atol):
        ab = a * b / (a + b)
        np.testing.assert_allclose(res.values, 0.5 * ab * res.x**2, atol=atol)

    def test_anchor_pair_direct(self):
        f = poly([0.0, 0.0, 1.0], (-4, 4), name="x^2")
        g = poly([0.0, 0.0, 2.0], (-4, 4), name="2x^2")
        res = infconv_direct(f, g, interval=(-1, 1), grid_n=401)
        np.testing.assert_allclose(res.values, (2.0 / 3.0) * res.x**2, atol=1e-12)
        np.testing.assert_allclose(res.mu, (2.0 / 3.0) * res.x, atol=1e-9)
        assert not res.boundary.any()

    def test_anchor_pair_conjugate(self):
        f = poly([0.0, 0.0, 1.0], (-4, 4))
        g = poly([0.0, 0.0, 2.0], (-4, 4))
        res = infconv_conjugate(f, g, interval=(-1, 1), grid_n=401)
        np.testing.assert_allclose(res.values, (2.0 / 3.0) * res.x**2, atol=1e-6)
        np.testing.assert_allclose(res.mu, (2.0 / 3.0) * res.x, atol=2e-3)
        assert res.error_bound is not None and res.error_bound < 1e-6

    @given(
        a=st.floats(min_value=0.2, max_value=5.0),
        b=st.floats(min_value=0.2, max_value=5.0),
    )
    def test_random_parabolas_direct(self, a, b):
        f = quad(a, (-2, 2))
        g = quad(b, (-2, 2))
        res = infconv_direct(f, g, interval=(-1, 1), grid_n=65)
        self.check(res, a, b, atol=1e-12)
        np.testing.assert_allclose(res.mu, b / (a + b) * res.x, atol=1e-9)

    def test_equal_halves(self):
        f = quad(1.0, (-2, 2))
        res = infconv_direct(f, f, interval=(-1, 1), grid_n=101)
        np.testing.assert_allclose(res.values, 0.25 * res.x**2, atol=1e-13)
        np.testing.assert_allclose(res.mu, 0.5 * res.x, atol=1e-9)


class TestStructuralIdentities:
    def test_zero_summand_gives_running_minimum(self):
        f = poly([0.25, -0.5, 0.5], (-1, 1))  # min at x = 0.5, value 0.125
        zero = poly([0.0], (-10, 10))
        res = infconv_direct(f, zero, interval=(-5, 5), grid_n=201)
        np.testing.assert_allclose(res.values, 0.125, atol=1e-12)
        res_c = infconv_conjugate(f, zero, interval=(-5, 5), grid_n=201)
        np.testing.assert_allclose(res_c.values, 0.125, atol=1e-10)

    def test_commutativity(self):
        f = poly([0.0, 1.0, 0.5, 0.0, 0.25], (-1.5, 1.5))
        g = quad(3.0, (-1, 1))
        r1 = infconv_direct(f, g, interval=(-1, 1), grid_n=257)
        r2 = infconv_direct(g, f, interval=(-1, 1), grid_n=257)
        np.testing.assert_allclose(r1.values, r2.values, atol=1e-11)
        np.testing.assert_allclose(r1.mu + r2.mu, r1.x, atol=1e-7)

    def test_result_is_convex(self):
        f = poly([0.0, -1.0, 0.0, 0.0, 0.25], (-2, 2))
        g = quad(2.0, (-1, 1))
        res = infconv_direct(f, g, grid_n=513)
        second = np.diff(res.values, 2)
        scale = 1.0 + np.abs(res.values).max()
        assert second.min() >= -1e-9 * scale

    def test_gradient_and_hessian_identities(self):
        # h' = f' at the minimizer; h'' = f'' j = g'' (1 - j).
        f = poly([0.0, 0.0, 0.5, 0.0, 0.25], (-2, 2))
        g = quad(1.0, (-3, 3))
        xs = np.linspace(-1.4, 1.4, 1000)
        mu = minimizer_map(f, g, xs)
        diag = smoothness_diag(f, g, xs, mu=mu)
        res = infconv_direct(f, g, interval=(-1.5, 1.5), validate=False)
        hj = res.h.jet(xs, 2)
        fprime = f.jet(mu, 1)[1]
        rtol = 1e-6
        np.testing.assert_allclose(hj[1], fprime, rtol=rtol, atol=1e-9)
        np.testing.assert_allclose(hj[2], diag.hess_h, rtol=rtol, atol=1e-9)
        np.testing.assert_allclose(
            diag.hess_h, diag.hess_g * (1.0 - diag.j_mu), rtol=1e-12, atol=1e-15
        )


class TestMinimizerMap:
    def test_parabola_split(self):
        f = quad(1.0, (-4, 4))
        g = quad(3.0, (-4, 4))
        xs = np.linspace(-2, 2, 101)
        mu = minimizer_map(f, g, xs)
        np.testing.assert_allclose(mu, 0.75 * xs, atol=1e-12)

    def test_scalar_round_trip(self):
        f = quad(1.0, (-4, 4))
        mu = minimizer_map(f, f, 1.0)
        assert isinstance(mu, float)
        assert mu == pytest.approx(0.5, abs=1e-12)

    def test_boundary_minimizer_raises(self):
        f = quad(2.0, (-1, 1))
        g = poly([0.0, 0.0, 2.0], (-0.25, 0.25))
        with pytest.raises(RootBracketError):
            minimizer_map(f, g, 1.2)

    def test_stationary_window_end_is_returned(self):
        # at x = 2 the window of f = x^2 with itself is the point 1, where the
        # slope gap is exactly zero: pinned, yet stationary
        f = quad(2.0, (-1, 1))
        assert minimizer_map(f, f, 2.0) == 1.0
        np.testing.assert_array_equal(infconv_direct(f, f).h.jet(2.0, 1)[:, 0], [2.0, 2.0])

    def test_split_ratio_matches_finite_differences(self):
        f = poly([0.0, 0.0, 0.5, 0.0, 0.25], (-2, 2))
        g = quad(1.0, (-3, 3))
        res = infconv_direct(f, g, interval=(-1, 1), grid_n=1025, validate=False)
        diag = smoothness_diag(f, g, res.x, mu=res.mu)
        dmu = np.gradient(res.mu, res.x)
        np.testing.assert_allclose(dmu[2:-2], diag.j_mu[2:-2], rtol=1e-3, atol=1e-4)


class TestSmoothnessDiag:
    def test_parabola_ratio(self):
        f = quad(1.0, (-4, 4))
        g = quad(3.0, (-4, 4))
        diag = smoothness_diag(f, g, np.linspace(-1, 1, 11))
        np.testing.assert_allclose(diag.j_mu, 0.75, atol=1e-12)
        np.testing.assert_allclose(diag.hess_h, 0.75, atol=1e-11)

    def test_flat_partner_kills_curvature(self):
        # A quartic partner is flat at its minimum: the infimal convolution
        # inherits zero curvature exactly there and only there.
        f = quad(1.0, (-2, 2))
        g = poly([0.0, 0.0, 0.0, 0.0, 0.25], (-2, 2), name="quartic")
        diag = smoothness_diag(f, g, np.array([0.0]))
        assert diag.j_mu[0] == pytest.approx(0.0, abs=1e-300)
        assert diag.hess_h[0] == pytest.approx(0.0, abs=1e-300)
        xs = np.linspace(-1, 1, 41)
        diag = smoothness_diag(f, g, xs)
        zero_h = np.abs(diag.hess_h) < 1e-12
        zero_g = np.abs(diag.hess_g) < 1e-12
        np.testing.assert_array_equal(zero_h, zero_g)

    def test_degenerate_pair_raises(self):
        # Both curvatures vanish identically near the matched pair, so the
        # split ratio is genuinely undefined.
        g = flat_center_fn()
        with pytest.raises(DegenerateHessianError):
            smoothness_diag(g, g, np.array([0.0]))
        # Explicitly supplying the stationary point of a quartic pair hits
        # the same degeneracy.
        q = poly([0.0, 0.0, 0.0, 0.0, 0.25], (-1, 1))
        with pytest.raises(DegenerateHessianError):
            smoothness_diag(q, q, np.array([0.0]), mu=np.array([0.0]))


class TestDirectJets:
    def test_quartic_quadratic_oracle(self):
        # With g = x^2/2 the minimizer solves mu^3 + 2 mu = x, so jets of h
        # have closed forms parametrized by mu.
        f = poly([0.0, 0.0, 0.5, 0.0, 0.25], (-2, 2))
        g = quad(1.0, (-3, 3))
        res = infconv_direct(f, g, interval=(-4, 4), validate=False)
        mus = np.array([-1.0, -0.3, 0.0, 0.7, 1.1])
        xs = mus**3 + 2.0 * mus
        got = res.h.jet(xs, 3)
        np.testing.assert_allclose(
            got[0], 0.25 * mus**4 + 0.5 * mus**2 + 0.5 * (xs - mus) ** 2, atol=1e-10
        )
        np.testing.assert_allclose(got[1], mus**3 + mus, atol=1e-9)
        np.testing.assert_allclose(
            got[2], (3 * mus**2 + 1) / (3 * mus**2 + 2), atol=1e-9
        )
        np.testing.assert_allclose(got[3], 6 * mus / (3 * mus**2 + 2) ** 3, atol=1e-8)

    def test_jet_order_capability(self):
        f = quad(1.0, (-1, 1))
        res = infconv_direct(f, f)
        assert res.h.max_order == 15
        with pytest.raises(CapabilityError):
            res.h.jet(0.0, 16)

    def test_degenerate_point_raises_for_jets(self):
        flat = flat_center_fn()
        res = infconv_direct(flat, flat)
        with pytest.raises(DegenerateHessianError):
            res.h.jet(0.0, 2)
        # Away from the flat plateau f = g gives h(x) = 2 f(x/2).
        q = poly([0.0, 0.0, 0.0, 0.0, 0.25], (-1, 1))
        res_q = infconv_direct(q, q)
        got = res_q.h.jet(np.array([0.8]), 2)
        assert got[0][0] == pytest.approx(0.8**4 / 32.0, abs=1e-12)
        assert got[1][0] == pytest.approx(0.8**3 / 8.0, abs=1e-9)


class TestBoundary:
    def pinned_pair(self):
        f = quad(2.0, (-1, 1), name="x^2")
        g = poly([0.0, 0.0, 2.0], (-0.25, 0.25), name="2x^2")
        return f, g, infconv_direct(f, g, grid_n=501)

    def test_window_pinned_split(self):
        f, g, res = self.pinned_pair()
        inner = np.abs(res.x) < 0.5
        outer = np.abs(res.x) > 1.1
        assert not res.boundary[inner].any()
        assert res.boundary[outer].all()
        at = np.searchsorted(res.x, 1.0)
        assert res.x[at] == pytest.approx(1.0, abs=1e-9)
        assert res.values[at] == pytest.approx(0.75**2 + 2 * 0.25**2, abs=1e-10)
        assert res.mu[at] == pytest.approx(0.75, abs=1e-6)

    def test_interior_values_share_the_minimizer_map(self):
        f, g, res = self.pinned_pair()
        inner = ~res.boundary
        np.testing.assert_array_equal(minimizer_map(f, g, res.x[inner]), res.mu[inner])

    def test_flagged_points_sit_on_a_window_end(self):
        f, g, res = self.pinned_pair()
        x, mu = res.x[res.boundary], res.mu[res.boundary]
        ylo = np.maximum(f.domain[0], x - g.domain[1])
        yhi = np.minimum(f.domain[1], x - g.domain[0])
        assert np.all((mu == ylo) | (mu == yhi))

    def test_conjugate_flags_same_region(self):
        f = quad(2.0, (-1, 1))
        g = poly([0.0, 0.0, 2.0], (-0.25, 0.25))
        res = infconv_conjugate(f, g, grid_n=501)
        inner = np.abs(res.x) < 0.5
        outer = np.abs(res.x) > 1.1
        assert not res.boundary[inner].any()
        assert res.boundary[outer].all()


class TestRouteEquivalence:
    def pair_gap(self, f, g, interval, **kw):
        r1 = infconv_direct(f, g, interval=interval, grid_n=513)
        r2 = infconv_conjugate(f, g, interval=interval, grid_n=513, **kw)
        return float(np.max(np.abs(r1.values - r2.values))), r2

    def test_anchor(self):
        f = poly([0.0, 0.0, 1.0], (-4, 4))
        g = poly([0.0, 0.0, 2.0], (-4, 4))
        gap, r2 = self.pair_gap(f, g, (-1, 1))
        assert gap <= 1e-6
        assert gap <= r2.error_bound + 1e-12

    def test_random_convex_polynomials(self, rng):
        for _ in range(3):
            c = rng.uniform(0.0, 3.0, size=3)
            d = rng.uniform(0.0, 3.0, size=3)
            t1, t2 = rng.uniform(-2.0, 2.0, size=2)
            f = poly([0.0, t1, c[0], 0.0, c[1], 0.0, c[2]], (-1, 1))
            g = poly([0.0, t2, d[0], 0.0, d[1], 0.0, d[2]], (-1, 1))
            gap, r2 = self.pair_gap(f, g, (-2, 2))
            assert gap <= max(1e-6, 1.2 * r2.error_bound)

    def test_boundary_regime_pair(self):
        f = quad(2.0, (-1, 1))
        g = poly([0.0, 0.0, 2.0], (-0.25, 0.25))
        gap, _ = self.pair_gap(f, g, (-1.25, 1.25))
        assert gap <= 1e-6


class TestEpigraphSums:
    def test_vertex_sum_hull_matches_conjugate_arithmetic(self, rng):
        # The epigraph of the infimal convolution is the Minkowski sum of
        # the epigraphs.  For piecewise-linear data that sum is the convex
        # hull of pairwise vertex sums — an O(n^2) oracle the slope-merge
        # arithmetic must reproduce exactly.
        n = 65
        f = poly([0.0, -0.7, 1.0, 0.0, 0.5], (-1, 1))
        g = poly([0.2, 0.4, 1.5], (-1.5, 1.5))
        xf = np.linspace(-1, 1, n)
        xg = np.linspace(-1.5, 1.5, n)
        vf, vg = f.eval(xf), g.eval(xg)
        sx = (xf[:, None] + xg[None, :]).ravel()
        sv = (vf[:, None] + vg[None, :]).ravel()
        order = np.argsort(sx, kind="stable")
        hx, hv = _lower_hull(sx[order], sv[order])
        res = infconv_conjugate(f, g, sample_n=n, grid_n=1001)
        expected = np.interp(res.x, hx, hv)
        np.testing.assert_allclose(res.values, expected, atol=1e-12)

    def test_pwl_carrier_is_order_zero(self):
        f = quad(1.0, (-1, 1))
        res = infconv_conjugate(f, f, sample_n=257)
        assert res.h.max_order == 0
        with pytest.raises(CapabilityError):
            res.h.jet(0.0, 1)
        np.testing.assert_allclose(res.h.eval(res.x), res.values, atol=0)


class TestCsvExport:
    def test_round_trip(self, tmp_path):
        f = quad(1.0, (-4, 4))
        g = quad(3.0, (-4, 4))
        res = infconv_direct(f, g, interval=(-1, 1), grid_n=41)
        path = tmp_path / "pair.csv"
        write_infconv_csv(path, res, f, g)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 41
        assert set(rows[0]) == {"x", "h", "mu", "dh", "d2h", "j_mu", "boundary"}
        j = np.array([float(r["j_mu"]) for r in rows])
        np.testing.assert_allclose(j, 0.75, atol=1e-9)
        x = np.array([float(r["x"]) for r in rows])
        dh = np.array([float(r["dh"]) for r in rows])
        np.testing.assert_allclose(dh, 0.75 * x, atol=1e-9)
        assert all(r["boundary"] in {"0", "1"} for r in rows)

    def test_boundary_rows_get_nan(self, tmp_path):
        f = quad(2.0, (-1, 1))
        g = poly([0.0, 0.0, 2.0], (-0.25, 0.25))
        res = infconv_direct(f, g, grid_n=41)
        path = tmp_path / "pinned.csv"
        write_infconv_csv(path, res, f, g)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        flagged = [r for r in rows if r["boundary"] == "1"]
        assert flagged and all(r["j_mu"] == "nan" for r in flagged)


class TestDirectScanBlocks:
    def pair(self):
        return poly([0.0, 0.3, 0.5, 0.0, 0.25], (-1.5, 1.5)), quad(3.0, (-1, 1))

    def test_block_seams_match_a_differently_blocked_subset(self):
        # 1025 columns of a 1024-point scan span five column blocks; every
        # third column is re-minimized in blocks with other seams
        f, g = self.pair()
        res = infconv_direct(f, g, grid_n=1025)
        sub = res.x[1::3]
        np.testing.assert_array_equal(res.h.eval(sub), res.values[1::3])

    def test_scan_never_holds_a_whole_scan_grid(self):
        f, g = self.pair()
        infconv_direct(f, g, grid_n=65)  # first-call set-up stays out of the peak
        tracemalloc.start()
        try:
            infconv_direct(f, g, grid_n=4097)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one float64 array of the whole 1024 x 4097 scan grid
        assert peak < 1024 * 4097 * 8
