"""Tests for the two infimal-convolution routes and their diagnostics."""

import mpmath as mp
import numpy as np
import pytest
from helpers import (
    blended_profile,
    flat_center_fn,
    lower_hull_by_chain,
    minimizer_with_plain_gap,
    traced_peak,
)
from hypothesis import given
from hypothesis import strategies as st

from minklab.errors import (
    ArgumentError,
    CapabilityError,
    DegenerateHessianError,
    RootBracketError,
    ValidationError,
)
from minklab import infconv
from minklab.fn_core import SmoothFn
from minklab.infconv import (
    InfConvResult,
    _SAMPLE_N,
    _lower_hull,
    _minimizer,
    check_convexity,
    infconv_conjugate,
    infconv_direct,
    minimizer_map,
    smoothness_diag,
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
        diag = smoothness_diag(f, g, xs)
        np.testing.assert_array_equal(diag.mu, mu)
        res = infconv_direct(f, g, interval=(-1.5, 1.5))
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
        res = infconv_direct(f, g, interval=(-1, 1), grid_n=1025)
        diag = smoothness_diag(f, g, res.x)
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
        # The stationarity solve of a quartic pair at x = 0 lands on its
        # stationary point mu = 0 exactly, where both curvatures vanish.
        q = poly([0.0, 0.0, 0.0, 0.0, 0.25], (-1, 1))
        assert minimizer_map(q, q, 0.0) == 0.0
        with pytest.raises(DegenerateHessianError):
            smoothness_diag(q, q, np.array([0.0]))


class TestDirectJets:
    def test_quartic_quadratic_oracle(self):
        # With g = x^2/2 the minimizer solves mu^3 + 2 mu = x, so jets of h
        # have closed forms parametrized by mu.
        f = poly([0.0, 0.0, 0.5, 0.0, 0.25], (-2, 2))
        g = quad(1.0, (-3, 3))
        res = infconv_direct(f, g, interval=(-4, 4))
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

    def test_one_sided_flat_point_rows(self):
        # mu^3 + mu = x; at mu = 0 the quartic is flat (f'' = 0) while g'' = 1,
        # so every row is finite there and a route that divides by f'' fails
        f = poly([0.0, 0.0, 0.0, 0.0, 0.25], (-1, 1))
        g = quad(1.0, (-1, 1))
        mus = np.array([0.0, 1e-6, 1e-3, 0.3, -0.5])
        q = 3 * mus**2 + 1
        got = infconv_direct(f, g).h.jet(mus**3 + mus, 4)
        want = [mus**3, 3 * mus**2 / q, 6 * mus / q**3, 6 * (1 - 15 * mus**2) / q**5]
        for row, expected in zip(got[1:], want):
            np.testing.assert_allclose(row, expected, rtol=0, atol=1e-12)

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

    def test_first_order_inputs(self):
        # max_order 1: slope_rows has no derivative row, so the direct
        # route's minimizer solve bisects, and the conjugate route has no
        # f'' to bound its interpolation error by
        pair = (([0.0, 0.1, 1.5], (-0.5, 0.5)), ([0.0, 0.0, 1.0, 0.0, 0.5], (-0.3, 0.3)))
        full = [poly(c, dom) for c, dom in pair]
        first = [SmoothFn.polynomial(c, dom, max_order=1) for c, dom in pair]
        assert np.all(np.isnan(first[0].slope_rows(np.array([-0.2, 0.3]))[1]))
        direct, reference = infconv_direct(*first), infconv_direct(*full)
        assert direct.h.max_order == 0
        atol = 4 * np.finfo(float).eps * float(np.max(np.abs(reference.values)))
        np.testing.assert_allclose(direct.values, reference.values, rtol=0, atol=atol)
        conj = infconv_conjugate(*first)
        assert conj.error_bound is None
        np.testing.assert_array_equal(conj.values, infconv_conjugate(*full).values)


class TestEpigraphSums:
    def test_vertex_sum_hull_matches_conjugate_arithmetic(self, rng, monkeypatch):
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
        hx, hv = lower_hull_by_chain(sx[order], sv[order])
        monkeypatch.setattr(infconv, "_SAMPLE_N", n)
        res = infconv_conjugate(f, g, grid_n=1001)
        expected = np.interp(res.x, hx, hv)
        np.testing.assert_allclose(res.values, expected, atol=1e-12)

    def test_pwl_carrier_is_order_zero(self, monkeypatch):
        f = quad(1.0, (-1, 1))
        monkeypatch.setattr(infconv, "_SAMPLE_N", 257)
        res = infconv_conjugate(f, f)
        assert res.h.max_order == 0
        with pytest.raises(CapabilityError):
            res.h.jet(0.0, 1)
        np.testing.assert_allclose(res.h.eval(res.x), res.values, atol=0)


class TestSlopeMerge:
    def test_linear_pair_of_equal_slope_is_linear(self):
        # each hull is one edge of slope 2; the merge puts f's first, so mu
        # is the upper end of the feasible window, where every split is optimal
        f = poly([1.0, 2.0], (-1, 1))
        g = poly([0.5, 2.0], (-0.5, 2))
        res = infconv_conjugate(f, g, grid_n=257)
        np.testing.assert_allclose(res.values, 1.5 + 2.0 * res.x, rtol=0, atol=1e-14)
        np.testing.assert_allclose(res.mu, np.minimum(1.0, res.x + 0.5), rtol=0, atol=1e-15)
        # no interpolation error; the rounding term, eps (6V + SX/2), of the
        # hull from (-1.5, -1.5) to (3, 7.5) with slope 2
        assert res.error_bound == np.finfo(float).eps * (6.0 * 7.5 + 0.5 * 2.0 * 3.0)

    @pytest.mark.parametrize(
        "f_line, g_line",
        [
            (([0.3, -0.7], (-1, 1)), ([0.1, 1.3], (-0.4, 0.6))),
            (([0.7, 0.1], (-1.3, 0.9)), ([-0.2, 0.1], (-0.6, 1.7))),
            (([0.25, 1.0], (-0.7, 0.3)), ([0.6, 1.0], (-0.2, 0.9))),
        ],
    )
    def test_linear_pairs_keep_the_routes_within_the_bound(self, f_line, g_line):
        # no interpolation error, so only the rounding term covers the gap
        # between the routes (measured 1.1e-16 to 3.3e-16)
        f, g = poly(*f_line), poly(*g_line)
        direct = infconv_direct(f, g, grid_n=513)
        conj = infconv_conjugate(f, g, grid_n=513)
        gap = np.max(np.abs(direct.values - conj.values))
        assert gap <= conj.error_bound

    def test_mu_is_a_minimizer_of_the_interpolants(self, seed7_pair):
        # the split objective of the sampled interpolants at mu is h itself,
        # on f's edges and on g's alike
        f, g = seed7_pair
        res = infconv_conjugate(f, g, grid_n=4097)
        xf, xg = np.linspace(*f.domain, _SAMPLE_N), np.linspace(*g.domain, _SAMPLE_N)
        split = np.interp(res.mu, xf, f.eval(xf)) + np.interp(res.x - res.mu, xg, g.eval(xg))
        resid = np.abs(split - res.values)[~res.boundary] / (1.0 + np.max(np.abs(res.values)))
        assert resid.size > 0 and resid.max() <= 1e-14


@pytest.fixture(scope="module")
def seed7_pair():
    """The pair that perfbench's infconv workload draws for seed 7."""
    f = blended_profile(0.277970282193581).f
    r = 0.24995553264831386
    g = poly([0.0, -0.02193875041298038, 1.9006076085248886, 0.0, 0.6828411581325566], (-r, r), "g")
    return f, g


def assert_same_hull(xs, vs):
    got, want = _lower_hull(xs, vs), lower_hull_by_chain(xs, vs)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)
    return got


class TestLowerHull:
    def test_samples_match_the_chain(self, seed7_pair):
        f, g = seed7_pair
        n = (1 << 14) + 1
        xf, xg = np.linspace(*f.domain, n), np.linspace(*g.domain, n)
        assert_same_hull(xf, f.eval(xf))
        assert_same_hull(xg, g.eval(xg))

    def test_double_well_is_finished_by_the_chain(self, monkeypatch):
        # the bridge between the wells loses one point per side and pass,
        # so the passes run out long before the hull is reached
        chained = []
        chain = infconv._chain_hull
        monkeypatch.setattr(infconv, "_chain_hull", lambda xs, vs: chained.append(xs.size) or chain(xs, vs))
        xs = np.linspace(-1.5, 1.5, (1 << 14) + 1)
        hx, _ = assert_same_hull(xs, xs**4 - xs**2)
        assert len(chained) == 1 and hx.size < chained[0] < xs.size
        assert not np.any((hx > -0.7) & (hx < 0.7))

    def test_random_clouds_with_repeated_interior_abscissae(self):
        rng = np.random.default_rng(20)
        for size in (3, 10, 200, 2000):
            xs = np.sort(rng.integers(-size // 4, size // 4 + 1, size)).astype(float)
            # unique ends: the chain keeps a vertical edge at a repeated one
            xs[0], xs[-1] = xs[1] - 1.0, xs[-2] + 1.0
            for vs in (rng.normal(size=size), 0.01 * xs**2 + rng.normal(size=size)):
                assert_same_hull(xs, vs)

    def test_concave_input_keeps_its_end_points(self):
        xs = np.linspace(-1.0, 2.0, 1001)
        hx, hv = assert_same_hull(xs, -(xs**2))
        np.testing.assert_array_equal(hx, [-1.0, 2.0])
        np.testing.assert_array_equal(hv, [-1.0, -4.0])

    def test_collinear_points_are_dropped(self):
        xs = np.arange(11.0)
        hx, hv = assert_same_hull(xs, np.abs(xs - 4.0))
        np.testing.assert_array_equal(hx, [0.0, 4.0, 10.0])

    def test_repeated_abscissae_collapse_to_their_lowest_point(self):
        xs = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 2.0])
        vs = np.array([3.0, 1.0, 0.5, -1.0, 2.0, 5.0, 4.0])
        hx, hv = _lower_hull(xs, vs)
        np.testing.assert_array_equal(hx, [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(hv, [1.0, -1.0, 4.0])


class CountingFn:
    """A function whose ``jet`` and ``slope_rows`` count their calls, and ``slope_rows`` the points they pass."""

    def __init__(self, fn):
        self.fn, self.calls, self.points, self.jets = fn, 0, 0, 0

    def __getattr__(self, name):
        return getattr(self.fn, name)

    def jet(self, x, order):
        self.jets += 1
        return self.fn.jet(x, order)

    def slope_rows(self, x):
        self.calls += 1
        self.points += np.size(x)
        return self.fn.slope_rows(x)


class TestMinimizerSteps:
    def test_only_moved_targets_are_evaluated(self, seed7_pair):
        f, g = (CountingFn(fn) for fn in seed7_pair)
        xs = np.linspace(f.domain[0] + g.domain[0], f.domain[1] + g.domain[1], 4097)
        mu, pinned = _minimizer(f, g, xs)
        targets = int(np.count_nonzero(~pinned))
        assert targets > 0 and f.calls > 2
        assert f.points == g.points < f.calls * targets
        want_mu, want_pinned = minimizer_with_plain_gap(*seed7_pair, xs)
        np.testing.assert_array_equal(mu, want_mu)
        np.testing.assert_array_equal(pinned, want_pinned)


class TestMatchedPairEvaluations:
    def test_each_request_evaluates_the_matched_pair_once(self):
        # the stationarity solve evaluates f and g at both window ends, and
        # each entry point then evaluates each side once at the matched pair
        f, g = CountingFn(poly([0.0, 0.3, 0.5, 0.0, 0.25], (-1.5, 1.5))), CountingFn(quad(3.0, (-1, 1)))
        xs = np.linspace(-1.0, 1.0, 257)
        h = infconv_direct(f, g).h

        def counts(request):
            for fn in (f, g):
                fn.jets = fn.calls = 0
            request()
            return f.jets, g.jets, f.calls, g.calls

        solve = counts(lambda: _minimizer(f, g, xs))
        assert solve[:2] == (2, 2) and solve[2] == solve[3] > 0
        for request in (
            lambda: minimizer_map(f, g, xs),
            lambda: smoothness_diag(f, g, xs),
            lambda: h.jet(xs, 3),
        ):
            assert counts(request) == (3, 3) + solve[2:]


def monomial_rows(p, q, x, order):
    """Rows 1 to ``order`` of ``x^p/p □ x^q/q`` at ``x > 0``, to 50 digits, from the closed-form conjugate.

    The conjugate is ``|s|^{p'}/p' + |s|^{q'}/q'``, so ``h'`` inverts
    ``X(s) = s^a + s^b`` with ``a = 1/(p - 1)`` and ``b = 1/(q - 1)``.  The
    Taylor coefficients of ``X`` about ``s0 = h'(x)`` are binomial ones;
    reverting that series gives those of ``h'`` about ``x``.
    """
    with mp.workdps(50):
        a, b = mp.mpf(1) / (p - 1), mp.mpf(1) / (q - 1)
        x = mp.mpf(x)
        s0 = mp.findroot(lambda s: s**a + s**b - x, (mp.mpf(0), x), solver="anderson")
        n = order - 1
        c = [mp.binomial(a, k) * s0 ** (a - k) + mp.binomial(b, k) * s0 ** (b - k) for k in range(n + 1)]
        # t = sum d[k] y^k solves sum c[k] t^k = y, one power of y at a time
        d = [mp.mpf(0)] * (n + 1)
        d[1] = 1 / c[1]
        for m in range(2, n + 1):
            power, rest = [mp.mpf(1)] + [mp.mpf(0)] * n, mp.mpf(0)
            for k in range(1, m + 1):
                power = [mp.fsum(power[i] * d[j - i] for i in range(j)) for j in range(n + 1)]
                rest += c[k] * power[m]
            d[m] = -rest / c[1]
        return [s0] + [mp.factorial(k) * d[k] for k in range(1, n + 1)]


class TestDirectRowsOracle:
    @pytest.mark.parametrize("p, q", [(4, 6), (4, 8), (6, 8)])
    def test_monomial_pairs_against_the_conjugate_at_50_digits(self, p, q):
        # measured worst: 1.8e-14 in row 7 of (4, 6) at x = 0.3
        f = poly([0.0] * p + [1.0 / p], (-1, 1))
        g = poly([0.0] * q + [1.0 / q], (-1, 1))
        xs = np.array([0.05, 0.3, 0.9])
        got = infconv_direct(f, g).h.jet(xs, 7)
        for i, x in enumerate(xs):
            want = monomial_rows(p, q, x, 7)
            for k in range(1, 8):
                rel = abs((mp.mpf(got[k, i]) - want[k - 1]) / want[k - 1])
                assert rel <= 1e-12, (p, q, x, k, float(rel))


class TestDirectRoute:
    def pair(self):
        return poly([0.0, 0.3, 0.5, 0.0, 0.25], (-1.5, 1.5)), quad(3.0, (-1, 1))

    def test_on_demand_eval_equals_values(self):
        # every third grid point is re-minimized by h.eval in a call of its
        # own; the stationarity solve must land on the stored values exactly
        f, g = self.pair()
        res = infconv_direct(f, g, grid_n=1025)
        sub = res.x[1::3]
        np.testing.assert_array_equal(res.h.eval(sub), res.values[1::3])

    def test_peak_memory_below_one_1024_by_4097_array(self):
        f, g = self.pair()
        infconv_direct(f, g, grid_n=65)  # first-call set-up stays out of the peak
        peak = traced_peak(infconv_direct, f, g, grid_n=4097)[0]
        # one 1024 x 4097 float64 array (about 32 MB); the per-point
        # stationarity solve holds O(grid_n) data
        assert peak < 1024 * 4097 * 8
