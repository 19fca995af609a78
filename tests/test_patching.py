"""Tests for the slope-gluing construction."""

import math

import numpy as np
import pytest
from helpers import quartic_profile_family, traced_peak
from hypothesis import given, settings
from hypothesis import strategies as st

from minklab import bumps, jets, patching
from minklab.errors import ArgumentError, ConstructionError, ValidationError
from minklab.fn_core import SmoothFn, _simpson
from minklab.patching import (
    SlopeSchedule,
    build_patched_convex,
    decay_acceleration,
    dyadic_partition_residual,
    quadratic_profile_family,
)


def blowup_slopes(k_max: int = 7) -> np.ndarray:
    k = np.arange(k_max + 1)
    return 2.0 ** (-(k * (k + 2)) / 2.0)


def blowup_amplitudes(k_max: int = 7) -> np.ndarray:
    k = np.arange(k_max + 1)
    return 2.0 ** (-((k + 2.0) ** 2))


@pytest.fixture(scope="module")
def quad_build():
    sched = SlopeSchedule(blowup_slopes())
    return build_patched_convex(sched, quadratic_profile_family(blowup_amplitudes()))


@pytest.fixture(scope="module")
def quartic_build():
    sched = SlopeSchedule(blowup_slopes())
    return build_patched_convex(sched, quartic_profile_family())


class TestBumpSystem:
    def test_partition_of_unity_certificate(self):
        assert dyadic_partition_residual(np.geomspace(1e-3, 3.0, 512)) < 1e-12

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_partition_residual_rejects_bad_points(self, bad):
        with pytest.raises(ArgumentError):
            dyadic_partition_residual(np.array([0.5, bad, 2.0]))

    def test_support_and_plateau_are_exact(self):
        psi = bumps.psi_jet(np.array([2.0 / 3.0, 1.5, 0.75, 1.0, 1.25]), 0)[0]
        assert psi[0] == 0.0
        assert psi[1] == 0.0
        assert psi[2] == 1.0
        assert psi[3] == 1.0
        assert psi[4] == 1.0

    def test_integral_against_independent_quadrature(self):
        xs = np.linspace(2.0 / 3.0, 1.5, 20001)
        assert bumps.psi_integral() == pytest.approx(
            float(np.trapezoid(bumps.psi_jet(xs, 0)[0], xs)), abs=1e-8
        )


class TestDecayAcceleration:
    def test_pure_gaussian_decay(self):
        j = np.arange(10)
        q, s, crossings = decay_acceleration(2.0 ** (-(j**2.0)))
        assert q == pytest.approx(1.0, abs=1e-9)
        assert s == pytest.approx(0.0, abs=1e-9)
        assert crossings[4] == pytest.approx(2.0, abs=1e-6)

    def test_geometric_has_no_acceleration(self):
        j = np.arange(10)
        q, s, crossings = decay_acceleration(2.0 ** (-3.0 * j))
        assert abs(q) < 1e-9
        assert s == pytest.approx(3.0, abs=1e-9)
        assert crossings[2] == 0.0  # rate 3 already beyond 2
        assert crossings[8] == np.inf

    def test_rejects_bad_input(self):
        with pytest.raises(ArgumentError):
            decay_acceleration([1.0, 0.5])
        with pytest.raises(ArgumentError):
            decay_acceleration([1.0, -0.5, 0.25, 0.1])
        with pytest.raises(ArgumentError, match="positive"):
            decay_acceleration([1.0, math.nan, 0.1, 0.01])


class TestSlopeSchedule:
    def test_frozen_schedule_is_valid(self):
        sched = SlopeSchedule(blowup_slopes())
        assert sched.k_max == 7
        assert sched.decay_quadratic == pytest.approx(0.5, abs=1e-9)
        np.testing.assert_allclose(sched.t, 4.0 ** -np.arange(8), rtol=0)

    def test_geometric_decay_rejected(self):
        with pytest.raises(ValidationError, match="not accelerating"):
            SlopeSchedule(2.0 ** (-2.0 * np.arange(8)))

    def test_weighted_monotonicity_enforced(self):
        with pytest.raises(ValidationError, match="strictly decreasing"):
            SlopeSchedule(np.array([1.0, 0.6, 0.2, 0.02, 0.0005]))

    def test_positivity_and_length_enforced(self):
        with pytest.raises(ValidationError, match="positive"):
            SlopeSchedule(np.array([1.0, -0.25, 0.01, 1e-4]))
        nan_at_5 = blowup_slopes()
        nan_at_5[5] = math.nan
        with pytest.raises(ValidationError, match="positive"):
            SlopeSchedule(nan_at_5)
        leading_inf = blowup_slopes()
        leading_inf[0] = math.inf
        with pytest.raises(ValidationError, match="positive"):
            SlopeSchedule(leading_inf)
        with pytest.raises(ValidationError, match="four levels"):
            SlopeSchedule(np.array([1.0, 0.25, 0.01]))


class TestQuadraticBuild:
    def test_starts_at_first_level_with_all_corrections_positive(self, quad_build):
        assert quad_build.K == 1
        assert quad_build.k_max == 7
        assert np.all(quad_build.alpha > 0)

    def test_base_point_conditions(self, quad_build):
        rows = quad_build.f.jet(np.array([0.0]), 1)
        assert rows[0][0] == 0.0
        assert rows[1][0] == 0.0

    def test_prescribed_slopes_hit_within_tolerance(self, quad_build):
        b = quad_build.schedule.b
        t = quad_build.schedule.t
        ks = np.arange(quad_build.K, quad_build.k_max + 1)
        slopes = quad_build.f.jet(t[ks], 1)[1]
        resid = slopes - b[ks]
        assert np.max(np.abs(resid)) < 1e-8
        # every level is short by exactly the mass truncated below the
        # deepest one, i.e. by b at the last level
        np.testing.assert_allclose(resid, -b[quad_build.k_max], rtol=1e-3)

    def test_window_identity_exact(self, quad_build):
        b = quad_build.schedule.b
        a = blowup_amplitudes()
        t = quad_build.schedule.t
        for k in (1, 3, 5):
            xs = np.linspace(0.8 * t[k], 1.2 * t[k], 33)
            d2 = quad_build.f.jet(xs, 2)[2]
            assert np.max(np.abs(d2 - b[k] * a[k] ** 2)) == 0.0

    def test_local_profile_slope_identity(self, quad_build):
        # near each anchor the derivative is the profile's plus the target
        b = quad_build.schedule.b
        a = blowup_amplitudes()
        t = quad_build.schedule.t
        for k in (2, 4):
            x = t[k] + 0.5 * t[k + 1]
            got = float(quad_build.f.jet(np.array([x]), 1)[1][0])
            want = b[k] * a[k] ** 2 * (x - t[k]) + b[k]
            assert got == pytest.approx(want, abs=1e-9)

    def test_curvature_vanishes_identically_below_deepest_support(self, quad_build):
        t_deep = quad_build.schedule.t[quad_build.k_max]
        xs = np.linspace(1e-12, (2.0 / 3.0) * t_deep * 0.999, 64)
        assert np.all(quad_build.f.jet(xs, 2)[2] == 0.0)
        # hence the function itself is identically zero there
        assert np.all(quad_build.f.eval(xs) == 0.0)

    def test_curvature_positive_on_covered_region(self, quad_build):
        t = quad_build.schedule.t
        xs = np.geomspace(0.7 * t[quad_build.k_max], 2.9 * t[quad_build.K], 4001)
        d2 = quad_build.f.jet(xs, 2)[2]
        assert np.all(d2 > 0.0)

    def test_convexity_on_whole_domain(self, quad_build):
        xs = np.linspace(*quad_build.f.domain, 4001)
        assert np.all(quad_build.f.jet(xs, 2)[2] >= 0.0)

    def test_balance_identity(self, quad_build):
        b = quad_build.schedule.b
        ks = np.arange(quad_build.K, quad_build.k_max + 1)
        lhs = b[ks] * quad_build.A + b[ks - 1] * quad_build.B + quad_build.alpha * quad_build.D
        np.testing.assert_allclose(lhs, b[ks - 1] - b[ks], rtol=1e-12)
        # and the same telescoping measured on the function itself
        t = quad_build.schedule.t
        for k in (2, 5):
            df = quad_build.f.jet(np.array([4.0 * t[k], t[k]]), 1)[1]
            assert df[0] - df[1] == pytest.approx(b[k - 1] - b[k], rel=1e-9)

    def test_correction_weight_against_independent_quadrature(self, quad_build):
        b = quad_build.schedule.b
        a = blowup_amplitudes()
        t = quad_build.schedule.t
        k = 3
        xs = np.linspace(t[k], 1.5 * t[k], 30001)
        psi_vals = bumps.psi_scaled_jet(xs, 2 * k, 0)[0]
        A = float(np.trapezoid(a[k] ** 2 * psi_vals, xs))
        xs = np.linspace((8.0 / 3.0) * t[k], 4.0 * t[k], 30001)
        psi_vals = bumps.psi_scaled_jet(xs, 2 * (k - 1), 0)[0]
        B = float(np.trapezoid(a[k - 1] ** 2 * psi_vals, xs))
        xs = np.linspace((4.0 / 3.0) * t[k], 3.0 * t[k], 30001)
        D = float(np.trapezoid(bumps.psi_scaled_jet(xs, 2 * k - 1, 0)[0], xs))
        alpha = (b[k - 1] * (1.0 - B) - b[k] * (1.0 + A)) / D
        assert quad_build.alpha[k - quad_build.K] == pytest.approx(alpha, rel=1e-7)

    def test_d_quadrature_matches_scaled_bump_integral(self, quad_build):
        assert quad_build.d_quadrature_gap < 1e-12


def per_level_d2(p, family, x, order):
    """Rows of ``f''`` with one bump call per level and scale, level by level."""
    b, t = p.schedule.b, p.schedule.t
    lo, hi = bumps.PSI_SUPPORT
    out = np.zeros((order + 1,) + x.shape)
    for i, k in enumerate(range(p.K, p.k_max + 1)):
        tk = t[k]
        m = (x > lo * tk) & (x < hi * tk)
        if m.any():
            prof = jets.derivs_to_jet(family(k).jet(x[m] - tk, order + 2)[2:])
            bump = bumps.psi_scaled_jet(x[m], 2 * k, order)
            out[:, m] += b[k] * jets.jet_to_derivs(jets.tmul(prof, bump))
        m = (x > 2.0 * lo * tk) & (x < 2.0 * hi * tk)
        if m.any():
            rows = jets.jet_to_derivs(bumps.psi_scaled_jet(x[m], 2 * k - 1, order))
            out[:, m] += p.alpha[i] * rows
    return out


@pytest.mark.parametrize("order", range(7))
def test_batched_d2_jet_equals_the_per_level_loop(hinge_profile, order):
    p = hinge_profile
    t = p.schedule.t[p.K : p.k_max + 1]
    lo, hi = bumps.PSI_SUPPORT
    edges = np.concatenate([lo * t, hi * t, 2.0 * lo * t, 2.0 * hi * t])
    near = np.concatenate([np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
    x = np.concatenate([np.geomspace(0.5 * t[-1], 3.0 * t[0], 20001), edges, near])
    x = x[x <= p.f.domain[1]]
    family = quadratic_profile_family(2.0 ** -np.arange(11))
    np.testing.assert_array_equal(p.f.jet(x, 2 + order)[2:], per_level_d2(p, family, x, order))


class TestQuarticBuild:
    def test_builds_with_isolated_curvature_zeros_at_anchors(self, quartic_build):
        assert quartic_build.K == 1
        t = quartic_build.schedule.t
        ks = np.arange(quartic_build.K, quartic_build.k_max + 1)
        d2 = quartic_build.f.jet(t[ks], 2)[2]
        assert np.all(d2 == 0.0)
        # but strictly positive just off the anchors
        xs = t[ks] * 1.05
        assert np.all(quartic_build.f.jet(xs, 2)[2] > 0.0)

    def test_prescribed_slopes_still_hit(self, quartic_build):
        b = quartic_build.schedule.b
        t = quartic_build.schedule.t
        ks = np.arange(quartic_build.K, quartic_build.k_max + 1)
        slopes = quartic_build.f.jet(t[ks], 1)[1]
        assert np.max(np.abs(slopes - b[ks])) < 1e-8

    def test_window_identity_cubic_profile(self, quartic_build):
        b = quartic_build.schedule.b
        t = quartic_build.schedule.t
        k = 2
        xs = np.linspace(0.8 * t[k], 1.2 * t[k], 33)
        d2 = quartic_build.f.jet(xs, 2)[2]
        np.testing.assert_allclose(d2, b[k] * 3.0 * (xs - t[k]) ** 2, rtol=1e-12)


class TestConstructionFailures:
    def test_wild_profiles_defeat_the_corrections(self):
        sched = SlopeSchedule(blowup_slopes())
        a = 4.0 * 2.0 ** np.arange(8)
        with pytest.raises(ConstructionError):
            build_patched_convex(sched, quadratic_profile_family(a))

    def test_too_few_levels_after_start(self):
        sched = SlopeSchedule(blowup_slopes(3))
        with pytest.raises(ConstructionError, match="four levels"):
            build_patched_convex(sched, quadratic_profile_family(blowup_amplitudes(3)))

    def test_profile_must_be_flat_at_origin(self):
        sched = SlopeSchedule(blowup_slopes())

        def family(k):
            tk = 4.0**-k
            return SmoothFn.polynomial([0.0, 0.3, 0.5], (-tk, tk))

        with pytest.raises(ValidationError, match="vanish to first order"):
            build_patched_convex(sched, family)


class TestScheduleProperty:
    @settings(max_examples=8, deadline=None)
    @given(c=st.floats(min_value=1.5, max_value=4.0))
    def test_accelerating_schedules_build_and_hit_slopes(self, c):
        k = np.arange(8)
        sched = SlopeSchedule(2.0 ** (-(k * (k + c)) / 2.0))
        pc = build_patched_convex(
            sched, quadratic_profile_family(blowup_amplitudes())
        )
        assert np.all(pc.alpha > 0)
        ks = np.arange(pc.K, pc.k_max + 1)
        slopes = pc.f.jet(pc.schedule.t[ks], 1)[1]
        assert np.max(np.abs(slopes - sched.b[ks])) < 1e-8
        xs = np.linspace(*pc.f.domain, 2001)
        assert np.all(pc.f.jet(xs, 2)[2] >= 0.0)


CONFTEST_AMPLITUDES = 2.0 ** -np.arange(11)
# profile fixture -> its profile family
REUSE_BUILDS = {
    "hinge_profile": lambda: quadratic_profile_family(CONFTEST_AMPLITUDES),
    "second_profile": lambda: quadratic_profile_family(CONFTEST_AMPLITUDES),
    "quartic_build": quartic_profile_family,
}


def direct_quadratures(p, family):
    """``A``, ``B`` and ``D`` of a build, each integrand from its own bump call."""
    lo, hi = bumps.PSI_SUPPORT
    n = patching._QUAD_N
    t = p.schedule.t
    out = []
    for k in range(p.K, p.k_max + 1):
        tk = t[k]
        xs = np.linspace(tk, hi * tk, n + 1)
        A = _simpson(family(k).jet(xs - tk, 2)[2] * bumps.psi_scaled_jet(xs, 2 * k, 0)[0], xs)
        xs = np.linspace(2.0 * (2.0 * lo) * tk, 4.0 * tk, n + 1)
        vals = family(k - 1).jet(xs - t[k - 1], 2)[2] * bumps.psi_scaled_jet(xs, 2 * k - 2, 0)[0]
        B = _simpson(vals, xs)
        xs = np.linspace(2.0 * lo * tk, 2.0 * hi * tk, n + 1)
        D = _simpson(bumps.psi_scaled_jet(xs, 2 * k - 1, 0)[0], xs)
        out.append((A, B, D))
    return np.array(out).T


class TestPsiReuse:
    """A build evaluates psi once per distinct argument and rescales the rows it reuses."""

    @pytest.mark.parametrize("name", REUSE_BUILDS)
    def test_table_equals_the_batched_d2_jet(self, request, name):
        f = request.getfixturevalue(name).f
        bp, n = f._bp, f._n
        rows = [f._d2(np.linspace(bp[i], bp[i + 1], n + 1), 0)[0] for i in range(bp.size - 1)]
        np.testing.assert_array_equal(f._d2_tab, np.concatenate(rows))

    @pytest.mark.parametrize("name", REUSE_BUILDS)
    def test_quadratures_equal_the_direct_integrands(self, request, name):
        p = request.getfixturevalue(name)
        A, B, D = direct_quadratures(p, REUSE_BUILDS[name]())
        np.testing.assert_array_equal(p.A, A)
        np.testing.assert_array_equal(p.B, B)
        np.testing.assert_array_equal(p.D, D)

    def test_a_build_evaluates_psi_once_per_distinct_argument(self, hinge_profile, monkeypatch):
        sizes = []
        psi_jet = bumps.psi_jet

        def counted(x, order):
            sizes.append(np.size(x))
            return psi_jet(x, order)

        monkeypatch.setattr(bumps, "psi_jet", counted)
        p = build_patched_convex(hinge_profile.schedule, quadratic_profile_family(CONFTEST_AMPLITUDES))
        # 71 calls on 368,689 points without reuse: the 40 pieces reach 5
        # distinct arguments, and the 30 quadratures 3
        assert len(sizes) <= 10
        np.testing.assert_array_equal(p.f._d2_tab, hinge_profile.f._d2_tab)


# Traced peak of one profile build: 5.05 MiB at 4,096 table intervals per
# piece, 19.4 MiB at 16,384.
_BUILD_PEAK = 6 * 2**20


def test_table_build_holds_its_tables_once(hinge_profile):
    # ``hinge_profile`` first: one build of the profile has run before the traced one
    family = quadratic_profile_family(CONFTEST_AMPLITUDES)
    peak, p = traced_peak(build_patched_convex, hinge_profile.schedule, family)
    tables = p.f._f_tab.nbytes + p.f._d1_tab.nbytes + p.f._d2_tab.nbytes
    assert p.f._f_tab.size == hinge_profile.f._f_tab.size
    assert peak <= 1.5 * tables
    assert peak <= _BUILD_PEAK


# Table error that counts as converged, relative to the largest |f| or |f'|
# on the profile: a tenth of the ledger's relative tolerance (1e-10).
_TABLE_RTOL = 1e-11


@pytest.mark.parametrize("name", ["hinge_profile", "second_profile"])
def test_table_size_is_certified_by_its_measured_error(request, name, monkeypatch):
    """The profile's ``n`` intervals per piece resolve ``f`` and ``f'`` to ``_TABLE_RTOL``.

    The tables converge at fourth order (``test_f_and_slope_converge_at_fourth_order``),
    so ``|T(n) - T(n/2)| / 15`` estimates the error of ``T(n)``; the gap to
    ``T(4n)`` measures it against a finer table.  Both are read at the
    nodes of ``T(n)``, half of which fall between the nodes of ``T(n/2)``.
    """
    p = request.getfixturevalue(name)
    n = patching._NODES_PER_PIECE
    assert p.f._n == n
    bp = p.f._bp
    xs = np.concatenate([np.linspace(bp[i], bp[i + 1], n + 1) for i in range(bp.size - 1)])

    def rows(count):
        monkeypatch.setattr(patching, "_NODES_PER_PIECE", count)
        return build_patched_convex(p.schedule, quadratic_profile_family(CONFTEST_AMPLITUDES)).f.jet(xs, 1)

    table = p.f.jet(xs, 1)
    tol = _TABLE_RTOL * np.max(np.abs(table), axis=1)
    richardson = np.max(np.abs(table - rows(n // 2)), axis=1) / 15.0
    finer = np.max(np.abs(table - rows(4 * n)), axis=1)
    assert np.all(richardson <= tol), (richardson, tol)
    assert np.all(finer <= tol), (finer, tol)
