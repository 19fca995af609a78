"""Tests for the hinge-smoothing construction and its schedule."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minklab import bumps, hinge, jets
from minklab.errors import (
    ArgumentError,
    ConstructionError,
    HypothesisError,
    ValidationError,
)
from minklab.fn_core import SmoothFn
from minklab.hinge import (
    Hinge,
    _curvature_mass,
    build_smoothing,
    place_profiles,
    schedule_smoothings,
    solve_b_eps,
    solve_epsilon,
)

EXPECTED_CERTIFICATES = {
    "window_weight_positive",
    "window_weight_upper",
    "window_weight_coarse_upper",
    "left_curvature_mass",
    "left_side_slope_negative",
    "entry_slope",
    "exit_slope",
    "endpoint_curvature_zero",
    "curvature_nonnegative",
    "midpoint_curvature",
    "interior_curvature_positive",
    "slope_bound",
    "value_bound",
    "left_endpoint_match",
    "right_endpoint_constant_gap",
    "windows_have_no_common_zero",
    "hinge_side_sum",
}


@pytest.fixture(scope="module")
def quartic():
    return SmoothFn.polynomial(
        [0.0, 0.0, 0.0, 0.0, 0.25], (0.0, 1.0), max_order=8, name="quartic"
    )


@pytest.fixture(scope="module")
def quartic_sr(quartic):
    return build_smoothing(quartic, 0.2, 1e-3)


@pytest.fixture(scope="module")
def profile_sr(hinge_profile):
    return build_smoothing(hinge_profile.f, 0.02205, 9.5e-6)


def apex_angle(h) -> float:
    """The angle at the hinge's apex between its two sides."""
    w = (h.u - h.apex).conjugate() * (h.v - h.apex)
    return abs(math.atan2(w.imag, w.real))


def slope_at(f, x: float) -> float:
    return float(f.jet(np.array([float(x)]), 1)[1][0])


class TestHingeType:
    def test_rejects_nonpositive_sides(self):
        with pytest.raises(ValidationError):
            Hinge(l=0.0, r=1.0, apex=0j, u=-1 + 0j, v=1 + 0j)

    def test_certificate_lookup_unknown_name(self, quartic_sr):
        with pytest.raises(ArgumentError):
            quartic_sr.certificate("no_such_certificate")


class TestPlaceProfiles:
    def test_endpoint_slopes(self, quartic):
        d, gamma = 0.2, 1e-3
        f_u = place_profiles(quartic, d, gamma)
        assert abs(slope_at(f_u, -d) + math.tan(gamma)) <= 1e-12

    def test_endpoint_value_closed_form(self, quartic):
        # the flat tangency point rotates onto (-d, d * tan(gamma))
        d, gamma = 0.2, 1e-3
        f_u = place_profiles(quartic, d, gamma)
        assert f_u.eval(-d) == pytest.approx(d * math.tan(gamma), abs=1e-15)

    def test_degenerate_angle_rejected(self, quartic):
        with pytest.raises(ArgumentError, match="genuine hinge"):
            place_profiles(quartic, 0.2, 0.0)

    def test_large_angle_rejected(self, quartic):
        with pytest.raises(HypothesisError):
            place_profiles(quartic, 0.2, 1.1)

    def test_wide_hinge_rejected(self, quartic):
        with pytest.raises(HypothesisError, match="below the profile domain"):
            place_profiles(quartic, 0.25, 1e-3)

    def test_profile_domain_must_start_at_zero(self):
        shifted = SmoothFn.polynomial([0.0, 0.0, 1.0], (0.5, 1.0), max_order=6)
        with pytest.raises(ArgumentError, match="start at 0"):
            place_profiles(shifted, 0.1, 1e-3)

    def test_nonpositive_halfwidth_rejected(self, quartic):
        with pytest.raises(ArgumentError):
            place_profiles(quartic, -0.1, 1e-3)


class TestSolveEpsilon:
    def test_quartic_closed_form(self, quartic):
        # slope x**3 equals tan(gamma) at 4*eps, so eps = tan(gamma)**(1/3)/4
        for gamma in (1e-3, 1e-2, 0.1):
            eps = solve_epsilon(quartic, gamma)
            assert eps == pytest.approx(math.tan(gamma) ** (1.0 / 3.0) / 4.0, rel=1e-12)

    def test_slope_residual(self, quartic):
        gamma = 1e-3
        eps = solve_epsilon(quartic, gamma)
        assert abs(slope_at(quartic, 4.0 * eps) - math.tan(gamma)) < 1e-12

    def test_monotone_in_gamma(self, quartic):
        assert solve_epsilon(quartic, 2e-3) > solve_epsilon(quartic, 1e-3)

    def test_angle_outside_slope_range(self, quartic):
        # top slope of the quartic profile is 1.0 < tan(0.8)
        with pytest.raises(HypothesisError, match="slope range"):
            solve_epsilon(quartic, 0.8)

    def test_nonpositive_gamma_rejected(self, quartic):
        with pytest.raises(ArgumentError):
            solve_epsilon(quartic, 0.0)

    @pytest.mark.parametrize("gamma", [math.inf, math.nan])
    def test_non_finite_gamma_rejected(self, quartic, gamma):
        with pytest.raises(ArgumentError, match="gamma"):
            solve_epsilon(quartic, gamma)

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda f: place_profiles(f, math.nan, 0.1), "d"),
            (lambda f: build_smoothing(f, math.nan, 0.1), "d"),
            (lambda f: solve_b_eps(place_profiles(f, 0.2, 1e-3), math.nan, 0.2), "eps"),
            (lambda f: solve_b_eps(place_profiles(f, 0.2, 1e-3), 1e-3, math.nan), "d"),
            (lambda f: place_profiles(f, 0.2, math.nan), "gamma"),
            (lambda f: build_smoothing(f, 0.2, math.inf), "gamma"),
        ],
        ids=["place-d", "build-d", "b-eps-eps", "b-eps-d", "place-gamma", "build-gamma"],
    )
    def test_non_finite_half_width_window_or_angle_rejected(self, quartic, call, name):
        # a NaN fails every comparison, so it must be named before any bound reads it
        with pytest.raises(ArgumentError, match=f"^{name} must be finite"):
            call(quartic)


class TestSolveBEps:
    def test_positive_and_bounded(self, quartic):
        d, gamma = 0.2, 1e-3
        f_u = place_profiles(quartic, d, gamma)
        eps = solve_epsilon(quartic, gamma)
        b = solve_b_eps(f_u, eps, d)[0]
        tan_g = -slope_at(f_u, -d)
        assert b > 0.0
        assert b <= tan_g / (d - 2.0 * eps)
        assert b < 2.0 * tan_g / d

    def test_window_too_wide_rejected(self, quartic):
        d, gamma = 0.2, 1e-3
        f_u = place_profiles(quartic, d, gamma)
        with pytest.raises(HypothesisError, match="4\\*eps"):
            solve_b_eps(f_u, d / 3.0, d)


class TestQuarticBuild:
    def test_all_certificates_pass(self, quartic_sr):
        assert {c.name for c in quartic_sr.certificates} == EXPECTED_CERTIFICATES
        assert all(c.passed for c in quartic_sr.certificates)

    def test_entry_and_exit_slopes(self, quartic_sr):
        tan_g = math.tan(quartic_sr.gamma)
        tol = 1e-12 * (1.0 + tan_g)
        d = quartic_sr.d
        assert abs(slope_at(quartic_sr.F, -d) + tan_g) <= tol
        assert abs(slope_at(quartic_sr.F, d) - tan_g) <= tol

    def test_exit_slope_matches_right_profile(self, quartic, quartic_sr):
        # the linear solve for the window weight has this as its residual;
        # the right profile's slope at d is -f_u'(-d)
        d = quartic_sr.d
        f_u = place_profiles(quartic, d, quartic_sr.gamma)
        gap = slope_at(quartic_sr.F, d) + slope_at(f_u, -d)
        assert abs(gap) <= 1e-12 * (1.0 + math.tan(quartic_sr.gamma))

    def test_endpoint_curvature_exactly_zero(self, quartic_sr):
        assert quartic_sr.certificate("endpoint_curvature_zero").measured == 0.0

    def test_curvature_positive_inside(self, quartic_sr):
        d = quartic_sr.d
        xs = np.linspace(-0.999 * d, 0.999 * d, 2001)
        assert np.all(quartic_sr.F.jet(xs, 2)[2] > 0.0)

    def test_plateau_curvature_equals_window_weight(self, quartic_sr):
        mid = float(quartic_sr.F.jet(np.array([0.0]), 2)[2][0])
        assert mid == quartic_sr.b_eps

    def test_left_endpoint_interpolation(self, quartic, quartic_sr):
        d, eps = quartic_sr.d, quartic_sr.epsilon
        f_u = place_profiles(quartic, d, quartic_sr.gamma)
        xs = np.linspace(-d, -d + eps, 257)
        gap = np.max(np.abs(quartic_sr.F.eval(xs) - f_u.eval(xs)))
        assert gap <= 1e-10

    def test_right_endpoint_constant_gap(self, quartic, quartic_sr):
        d, eps = quartic_sr.d, quartic_sr.epsilon
        f_u = place_profiles(quartic, d, quartic_sr.gamma)
        xs = np.linspace(d - eps, d, 257)
        # the right profile f_v(x) is f_u(-x)
        diff = quartic_sr.F.eval(xs) - f_u.eval(-xs)
        assert float(diff.max() - diff.min()) <= 1e-10

    def test_slope_and_value_bounds(self, quartic_sr):
        tan_g = math.tan(quartic_sr.gamma)
        d = quartic_sr.d
        xs = np.linspace(-d, d, 2001)
        rows = quartic_sr.F.jet(xs, 1)
        assert np.max(np.abs(rows[1])) < 7.0 * tan_g
        assert np.max(np.abs(rows[0])) <= 3.0 * d * tan_g

    def test_symmetric_input_gives_even_smoothing(self, quartic_sr):
        d = quartic_sr.d
        xs = np.linspace(0.0, d, 801)
        gap = np.max(np.abs(quartic_sr.F.eval(xs) - quartic_sr.F.eval(-xs)))
        assert gap <= 1e-14

    def test_induced_hinge_geometry(self, quartic_sr):
        d, gamma = quartic_sr.d, quartic_sr.gamma
        h = quartic_sr.hinge_out
        assert abs(h.apex) <= 1e-12
        assert h.l + h.r == pytest.approx(2.0 * d / math.cos(gamma), rel=1e-12)
        assert apex_angle(h) == pytest.approx(math.pi - 2.0 * gamma, abs=1e-12)
        assert h.l + h.r <= 4.0 * d / math.cos(gamma)

    def test_build_is_deterministic(self, quartic, quartic_sr):
        again = build_smoothing(quartic, quartic_sr.d, quartic_sr.gamma)
        assert again.epsilon == quartic_sr.epsilon
        assert again.b_eps == quartic_sr.b_eps

    def test_angle_too_large_for_halfwidth(self, quartic):
        # eps(1e-2) = tan(1e-2)**(1/3)/4 makes 4*eps exceed d = 0.2
        with pytest.raises(HypothesisError, match="not small enough"):
            build_smoothing(quartic, 0.2, 1e-2)


class TestGluedProfileBuild:
    def test_all_certificates_pass(self, profile_sr):
        assert {c.name for c in profile_sr.certificates} == EXPECTED_CERTIFICATES
        assert all(c.passed for c in profile_sr.certificates)

    def test_plateau_curvature_equals_window_weight(self, profile_sr):
        mid = float(profile_sr.F.jet(np.array([0.0]), 2)[2][0])
        assert mid == profile_sr.b_eps

    def test_interior_positive_outside_flat_collar(self, profile_sr):
        cert = profile_sr.certificate("interior_curvature_positive")
        assert cert.measured > 0.0

    def test_even_smoothing(self, profile_sr):
        d = profile_sr.d
        xs = np.linspace(0.0, d, 513)
        gap = np.max(np.abs(profile_sr.F.eval(xs) - profile_sr.F.eval(-xs)))
        assert gap <= 1e-14

    def test_apex_angle_relation(self, profile_sr):
        expected = math.pi - 2.0 * profile_sr.gamma
        assert apex_angle(profile_sr.hinge_out) == pytest.approx(expected, abs=1e-9)


class TestSchedule:
    def test_turning_angle_is_exact_fraction_of_pi(self, hinge_schedule):
        hs = hinge_schedule
        assert hs.n == 29
        assert hs.turning_sum == pytest.approx(math.pi / hs.n, abs=1e-12)
        weights = 2.0 ** np.arange(2, len(hs.smoothings) + 2)
        assert float(weights @ [s.gamma for s in hs.smoothings]) == pytest.approx(
            math.pi / hs.n, abs=1e-12
        )

    def test_halfwidths_follow_configured_decay(self, hinge_schedule):
        expected = 0.18 * 0.35 ** np.arange(1, 6)
        np.testing.assert_allclose([s.d for s in hinge_schedule.smoothings], expected, rtol=0.0)

    def test_angles_frozen(self, hinge_schedule):
        expected = np.array(
            [2.69579661e-02, 9.50304012e-06, 7.66424795e-06, 5.64161423e-06, 1.87082531e-06]
        )
        np.testing.assert_allclose([s.gamma for s in hinge_schedule.smoothings], expected, rtol=1e-6)

    def test_norms_uniformly_capped(self, hinge_schedule):
        hs = hinge_schedule
        assert np.all(hs.norm_table <= hs.caps)
        # the cap is anchored at twice the first build's norms
        np.testing.assert_allclose(hs.norm_table[0], hs.caps / 2.0, rtol=5e-2)

    def test_weighted_side_sums_decrease(self, hinge_schedule):
        sums = np.array(
            [
                2.0 ** (m + 1) * (s.hinge_out.l + s.hinge_out.r)
                for m, s in enumerate(hinge_schedule.smoothings)
            ]
        )
        assert np.all(np.diff(sums) < 0.0)
        assert sums[0] == pytest.approx(0.2521, rel=1e-3)
        assert sums[-1] == pytest.approx(0.0605, rel=1e-3)

    def test_apex_angles_approach_straight(self, hinge_schedule):
        for sr in hinge_schedule.smoothings:
            gap = math.pi - apex_angle(sr.hinge_out)
            assert gap == pytest.approx(2.0 * sr.gamma, rel=1e-6, abs=1e-12)

    def test_every_build_certified(self, hinge_schedule):
        for sr in hinge_schedule.smoothings:
            assert all(c.passed for c in sr.certificates)

    def test_bad_arguments(self, hinge_profile):
        with pytest.raises(ArgumentError):
            schedule_smoothings(hinge_profile.f, 0)
        # shorter than 4 d_1 = 0.252
        short = SmoothFn.polynomial([0.0, 0.0, 0.5], (0.0, 0.2))
        with pytest.raises(HypothesisError, match="4d < profile length"):
            schedule_smoothings(short, 2)


class TestCertifyOnlyKeptBuilds:
    def test_schedule_returns_fresh_builds(self, hinge_profile, hinge_schedule):
        for sr in hinge_schedule.smoothings:
            fresh = build_smoothing(hinge_profile.f, sr.d, sr.gamma)
            assert fresh.epsilon == sr.epsilon
            assert fresh.b_eps == sr.b_eps
            xs = np.linspace(-sr.d, sr.d, 257)
            np.testing.assert_array_equal(fresh.F.jet(xs, 3), sr.F.jet(xs, 3))
            assert fresh.certificates == sr.certificates

    def test_mass_certificates_are_the_quadratures(self, hinge_profile, hinge_schedule):
        for sr in hinge_schedule.smoothings:
            eps, d = sr.epsilon, sr.d
            f_u = place_profiles(hinge_profile.f, d, sr.gamma)
            mass = _curvature_mass(f_u, eps, d)
            assert sr.certificate("left_curvature_mass").measured == mass
            assert solve_b_eps(f_u, eps, d) == (sr.b_eps, mass)

    def test_search_builds_only_the_kept_levels(self, hinge_profile, monkeypatch):
        calls = []

        def counted(f, d, gamma):
            calls.append(gamma)
            return build_smoothing(f, d, gamma)

        monkeypatch.setattr(hinge, "build_smoothing", counted)
        hs = schedule_smoothings(hinge_profile.f, 1)
        assert calls == [s.gamma for s in hs.smoothings]

    def test_final_build_certificate_failure_raises(self, hinge_profile, monkeypatch):
        monkeypatch.setattr(hinge, "_ENDPOINT_TOL", 0.0)
        with pytest.raises(ConstructionError, match="right_endpoint_constant_gap"):
            schedule_smoothings(hinge_profile.f, 1)


class TestZeroCurvatureStretchIsRejected:
    """A smoothing whose ``F''`` vanishes on an interior stretch fails its exact curvature certificate."""

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_a_hole_in_the_plateau_window_raises(self, hinge_profile, hinge_schedule, monkeypatch, level):
        window = hinge._window_0_rows

        def holed(x, d, eps, order):
            rows = window(x, d, eps, order)
            rows[:, np.abs(x) < d / 100.0] = 0.0
            return rows

        monkeypatch.setattr(hinge, "_window_0_rows", holed)
        sr = hinge_schedule.smoothings[level - 1]
        with pytest.raises(ConstructionError, match="interior_curvature_positive: measured 0.0 ") as err:
            build_smoothing(hinge_profile.f, sr.d, sr.gamma)
        # F'' is zero there, not negative: the positivity check is what rejects it
        assert "curvature_nonnegative" not in str(err.value)


class TestRightEndMirrorsLeft:
    """The right end is read as the left profile at ``-x``, row ``j`` times ``(-1)**j``."""

    def test_curvature_rows_are_mirrored_bit_for_bit(self, hinge_schedule, second_schedule):
        for sr in hinge_schedule.smoothings + second_schedule.smoothings:
            xs = np.linspace(-sr.d, sr.d, 4 * hinge._CERT_GRID_N + 1)
            signs = ((-1.0) ** np.arange(2, 5))[:, None]
            np.testing.assert_array_equal(sr.F.jet(-xs, 4)[2:], signs * sr.F.jet(xs, 4)[2:])


@pytest.fixture(scope="module")
def recorded_search(hinge_profile):
    """The five-level schedule with every placement and integration recorded."""
    placements, integrated = [], []
    place, integrate = hinge._place, hinge._integrate

    def recorded_place(f, d, gamma):
        placements.append((d, gamma) + place(f, d, gamma))
        return placements[-1][2:]

    def counted_integrate(*args):
        integrated.append(args[1])
        return integrate(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hinge, "_place", recorded_place)
        mp.setattr(hinge, "_integrate", counted_integrate)
        hs = schedule_smoothings(hinge_profile.f, 5)
    return hs, placements, integrated


class TestNormFloorSearch:
    def test_integrates_eleven_times(self, recorded_search):
        # 6 search candidates and 5 certified builds; 26 before the norm floor
        hs, placements, integrated = recorded_search
        assert len(integrated) == 11
        assert len(placements) == 26

    def test_floor_rows_are_the_norm_rows(self, hinge_profile, recorded_search):
        hs, placements, _ = recorded_search
        rejected = kept = 0
        for d, gamma, f_u, eps in placements:
            if d not in [s.d for s in hs.smoothings[:3]]:
                continue
            F = hinge._integrate(hinge_profile.f, d, f_u, eps)[0]
            xs = np.linspace(-d, d, hinge._NORM_GRID_N)
            ends = np.abs(xs) >= d - eps
            rows = hinge._end_rows(xs[ends], d, eps, f_u, 2)
            np.testing.assert_array_equal(rows, F.jet(xs, 4)[2:, ends])
            floor = hinge._norm_floor(f_u, eps, d)
            assert np.all(floor <= hinge._norms_upto(F))
            if np.all(floor <= hs.caps):
                kept += 1
            else:
                rejected += 1
        # both sides of the floor's verdict are checked
        assert rejected >= 5 and kept >= 3

    def test_never_rejecting_floor_gives_the_same_schedule(self, hinge_profile, monkeypatch):
        bounded = schedule_smoothings(hinge_profile.f, 3)
        monkeypatch.setattr(hinge, "_norm_floor", lambda *args: np.zeros(hinge._R_MAX + 1))
        full = schedule_smoothings(hinge_profile.f, 3)
        assert [s.gamma for s in bounded.smoothings] == [s.gamma for s in full.smoothings]
        np.testing.assert_array_equal(bounded.caps, full.caps)
        np.testing.assert_array_equal(bounded.norm_table, full.norm_table)


def two_call_end_rows(x, d, eps, f_u, order):
    """The end rows with one jet call per end and each end's own window.

    ``f_v``'s rows are ``f_u``'s at ``-x``, row ``j`` times ``(-1)**j``, and
    the window ``W((d + sign x) / (2 eps))`` is scaled by ``s**j sign**j``.
    """
    out = np.zeros((order + 1,) + x.shape)
    s = 1.0 / (2.0 * eps)
    for m, sign in ((x < 2.0 * eps - d, 1), (x > d - 2.0 * eps, -1)):
        if m.any():
            rows = f_u.jet(sign * x[m], order + 2) * (float(sign) ** np.arange(order + 3))[:, None]
            coeff = bumps.phi_even_jet((d + sign * x[m]) * s, order)
            j = np.arange(order + 1)
            window = jets.jet_to_derivs(coeff * ((s**j) * (float(sign) ** j))[:, None])
            prod = jets.tmul(jets.derivs_to_jet(rows[2:]), jets.derivs_to_jet(window))
            out[:, m] += jets.jet_to_derivs(prod)
    return out


class TestBatchedJets:
    def test_end_rows_equal_the_two_call_route(self, recorded_search):
        hs, placements, _ = recorded_search
        for d, gamma, f_u, eps in placements[::4]:
            edges = np.array([-d, 2.0 * eps - d, d - 2.0 * eps, d])
            xs = np.concatenate([np.linspace(-d, d, 1025), edges, np.nextafter(edges, 0.0)])
            for order in (0, 2, 6):
                rows = hinge._end_rows(xs, d, eps, f_u, order)
                oracle = two_call_end_rows(xs, d, eps, f_u, order)
                np.testing.assert_array_equal(rows, oracle)

    def test_one_kernel_call_per_jet_request(self, hinge_profile):
        # each d2_jet call makes one psi_scaled_jet call; each _end_rows
        # call makes at most one f_u.jet call, and as many window calls
        # and products of its own
        f = hinge_profile.f
        d2, psi, end_rows = f._d2, bumps.psi_scaled_jet, hinge._end_rows
        tmul, window = jets.tmul, hinge._window_end_rows
        psi_calls, per_d2, per_end, own = [], [], [], []

        def counted_psi(*args):
            psi_calls.append(1)
            return psi(*args)

        def counted_d2(x, order):
            before = len(psi_calls)
            out = d2(x, order)
            per_d2.append(len(psi_calls) - before)
            return out

        def counted_tmul(*args):
            own.append("tmul")
            return tmul(*args)

        def counted_window(*args):
            own.append("window")
            return window(*args)

        def counted_end_rows(x, d, eps, f_u, order):
            start = len(own)

            def counted_jet(*args):
                before = len(own)
                out = type(f_u).jet(f_u, *args)
                # products inside the profile's own jet are not the end rows'
                own[before:] = ["jet"]
                return out

            with pytest.MonkeyPatch.context() as inner:
                inner.setattr(f_u, "jet", counted_jet, raising=False)
                out = end_rows(x, d, eps, f_u, order)
            per_end.append(sorted(own[start:]))
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bumps, "psi_scaled_jet", counted_psi)
            mp.setattr(f, "_d2", counted_d2)
            mp.setattr(jets, "tmul", counted_tmul)
            mp.setattr(hinge, "_window_end_rows", counted_window)
            mp.setattr(hinge, "_end_rows", counted_end_rows)
            schedule_smoothings(f, 3)
        assert len(per_d2) > 50 and set(per_d2) == {1}
        calls = {tuple(c) for c in per_end}
        assert len(per_end) > 10 and calls <= {(), ("jet", "tmul", "window")} and len(calls) == 2


class TestBuildProperty:
    @given(
        gamma=st.floats(min_value=2e-4, max_value=3e-3),
        d=st.floats(min_value=0.15, max_value=0.22),
    )
    @settings(max_examples=8, deadline=None)
    def test_certificates_hold_across_parameters(self, quartic, gamma, d):
        sr = build_smoothing(quartic, d, gamma)
        assert all(c.passed for c in sr.certificates)
        tan_g = math.tan(gamma)
        assert abs(slope_at(sr.F, d) - tan_g) <= 1e-12 * (1.0 + tan_g)


def plain_rotated_profile(f, d, gamma):
    """``f_u`` as :func:`place_profiles` places it, with no point memo."""
    from minklab.rotated_graph import rotate_graph

    shift = d / math.cos(gamma)
    lo, hi = f.domain
    h = SmoothFn((lo - shift, hi - shift), f.max_order, lambda x, k: f.jet(x + shift, k))
    return rotate_graph(h, -gamma)


class TestRememberedProfile:
    D, GAMMA = 0.02205, 9.5e-6

    @pytest.fixture()
    def placed(self, hinge_profile):
        f = hinge_profile.f
        f_u = place_profiles(f, self.D, self.GAMMA)
        return f_u, plain_rotated_profile(f, self.D, self.GAMMA), solve_epsilon(f, self.GAMMA)

    def test_rows_equal_the_plain_rotated_graph(self, placed):
        f_u, plain, eps = placed
        d = self.D
        ends = np.linspace(-d, -d + 2.0 * eps, 257)
        overlap = np.linspace(-d + eps, -d + 3.0 * eps, 192)
        grids = [ends, ends, overlap, ends[::-1], np.concatenate([ends[:5], ends[:5]]), overlap.reshape(3, -1)]
        for order in (0, 2, 4, 6):
            for xs in grids:
                np.testing.assert_array_equal(f_u.jet(xs, order), plain.jet(xs, order))
            np.testing.assert_array_equal(f_u.eval(-d, order), plain.eval(-d, order))

    def test_misses_are_solved_once_and_signed_zeros_are_two_points(self):
        asked = []

        def jet_fn(x, order):
            asked.append(x.copy())
            return np.vstack([np.copysign(1.0, x)] + [x] * order)

        g = hinge._remembered(SmoothFn((-1.0, 1.0), 2, jet_fn))
        xs = np.array([0.5, 0.0, -0.0, 0.5, -0.25, 0.0])
        np.testing.assert_array_equal(g.jet(xs, 1), jet_fn(xs, 1))
        assert len(asked) == 2 and sorted(asked[0].tolist()) == [-0.25, 0.0, 0.0, 0.5]
        np.testing.assert_array_equal(g.jet(-xs, 1)[0], np.copysign(1.0, -xs))
        assert sorted(asked[2].tolist()) == [-0.5, 0.25]

    def test_a_repeated_request_makes_no_inversion(self, hinge_profile, monkeypatch):
        from minklab import rotated_graph

        targets = []
        invert = rotated_graph.invert_monotone

        def counted(fn, dfn, ys, *args, **kwargs):
            targets.append(np.size(ys))
            return invert(fn, dfn, ys, *args, **kwargs)

        monkeypatch.setattr(rotated_graph, "invert_monotone", counted)
        f_u = place_profiles(hinge_profile.f, self.D, self.GAMMA)
        xs = np.linspace(-self.D, -self.D / 2.0, 101)
        first = f_u.jet(xs, 2)
        assert targets == [101]
        np.testing.assert_array_equal(f_u.jet(xs, 2), first)
        np.testing.assert_array_equal(f_u.jet(xs[::-1], 2), first[:, ::-1])
        np.testing.assert_array_equal(f_u.jet(np.repeat(xs[:7], 3), 2), np.repeat(first[:, :7], 3, axis=1))
        assert targets == [101]
        # one new point and repeats of it: one inversion of one target
        f_u.jet(np.concatenate([xs, [self.D / 3.0] * 4]), 2)
        assert targets == [101, 1]

    def test_a_point_asked_at_two_orders(self, placed):
        f_u, plain, eps = placed
        xs = np.linspace(-self.D, -self.D + 2.0 * eps, 65)
        low = f_u.jet(xs, 2)
        high = f_u.jet(xs, 4)
        np.testing.assert_array_equal(low, plain.jet(xs, 2))
        np.testing.assert_array_equal(high, plain.jet(xs, 4))
        np.testing.assert_array_equal(high[:3], low)
        np.testing.assert_array_equal(f_u.jet(xs[::2], 2), low[:, ::2])

    def test_a_finished_build_stores_no_new_rows(self, quartic, monkeypatch):
        from minklab import rotated_graph

        placed = []
        place = hinge.place_profiles
        monkeypatch.setattr(hinge, "place_profiles", lambda *args: placed.append(place(*args)) or placed[-1])
        build_smoothing(quartic, 0.2, 1e-3)
        (f_u,) = placed
        targets = []
        invert = rotated_graph.invert_monotone

        def counted(fn, dfn, ys, *args, **kwargs):
            targets.append(np.size(ys))
            return invert(fn, dfn, ys, *args, **kwargs)

        monkeypatch.setattr(rotated_graph, "invert_monotone", counted)
        xs = np.linspace(-0.2, -0.1, 101)
        first = f_u.jet(xs, 2)
        np.testing.assert_array_equal(f_u.jet(xs, 2), first)
        assert targets == [101, 101]
        np.testing.assert_array_equal(first, plain_rotated_profile(quartic, 0.2, 1e-3).jet(xs, 2))


    def test_the_certificate_grids_add_no_targets(self, hinge_profile, hinge_schedule, monkeypatch):
        from minklab import rotated_graph

        targets = []
        invert = rotated_graph.invert_monotone

        def counted(fn, dfn, ys, *args, **kwargs):
            targets.append(np.array(ys, dtype=float).reshape(-1))
            return invert(fn, dfn, ys, *args, **kwargs)

        monkeypatch.setattr(rotated_graph, "invert_monotone", counted)
        sr = hinge_schedule.smoothings[0]
        build_smoothing(hinge_profile.f, sr.d, sr.gamma)
        d, eps, n = sr.d, sr.epsilon, hinge._CERT_GRID_N
        bits, times = np.unique(np.concatenate(targets).view(np.int64), return_counts=True)
        # the endpoint-match grids are every other node of F's outer pieces
        # and the side-slope point ends the mass quadrature: all were solved
        # at order 2 before the certificates read them at that order
        grids = np.concatenate([np.linspace(-d, -d + eps, n), -np.linspace(d - eps, d, n), [2.0 * eps - d]])
        assert np.isin(grids.view(np.int64), bits).all()
        # so each is solved once, and so is -d, whose order-2 row gives F's
        # start value and slope and tan(gamma): no target repeats
        assert times.max() == 1, bits[times > 1].view(float)


class TestFlatFloor:
    def test_one_probe_scan_per_profile(self, monkeypatch):
        probe = hinge._probe_flat_floor
        scans = []

        def counted(f):
            scans.append(f)
            return probe(f)

        monkeypatch.setattr(hinge, "_probe_flat_floor", counted)
        quartic = SmoothFn.polynomial([0.0, 0.0, 0.0, 0.0, 0.25], (0.0, 1.0), max_order=8)
        first = build_smoothing(quartic, 0.2, 1e-3)
        again = build_smoothing(quartic, 0.19, 1e-3)
        assert scans == [quartic]
        other = SmoothFn.polynomial([0.0, 0.0, 0.0, 0.0, 0.25], (0.0, 1.0), max_order=8)
        fresh = build_smoothing(other, 0.2, 1e-3)
        assert scans == [quartic, other]
        assert fresh.certificates == first.certificates
        assert again.certificate("interior_curvature_positive").passed
