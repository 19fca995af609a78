"""Tests for graph rotation: coordinate maps, derivatives, norm bound."""

import math

import numpy as np
import pytest
from helpers import central_fd, flat_center_fn, rotated_point
from hypothesis import given
from hypothesis import strategies as st

from minklab.errors import CapabilityError, HypothesisError, RotationTooLargeError
from minklab.fn_core import SmoothFn, cr_norm
from minklab.rotated_graph import cr_bound_check, rotate_graph


def poly(coeffs, domain, name=""):
    return SmoothFn.polynomial(coeffs, domain, name=name)


class TestBasicRotations:
    def test_rotating_axis_segment_gives_sloped_line(self):
        f = poly([0.0], (0, 1))
        phi = math.pi / 6
        rf = rotate_graph(f, phi)
        lo, hi = rf.domain
        assert lo == pytest.approx(0.0, abs=1e-15)
        assert hi == pytest.approx(math.cos(phi), abs=1e-15)
        ys = np.linspace(lo, hi, 17)
        np.testing.assert_allclose(rf.eval(ys), ys * math.tan(phi), atol=1e-13)
        _, first, second = rf.jet(rotated_point(f, phi, 0.5)[0], 2)
        assert first == pytest.approx(math.tan(phi), abs=1e-15)
        assert second == 0.0

    def test_diagonal_rotates_onto_axis(self):
        f = poly([0.0, 1.0], (0, 1))
        rf = rotate_graph(f, -math.pi / 4)
        lo, hi = rf.domain
        assert hi == pytest.approx(math.sqrt(2.0), abs=1e-12)
        ys = np.linspace(lo, hi, 17)
        np.testing.assert_allclose(rf.eval(ys), 0.0, atol=1e-12)

    def test_zero_angle_is_identity(self):
        f = poly([0.3, -0.2, 0.5, 0.1], (-1, 1))
        rf = rotate_graph(f, 0.0)
        xs = np.linspace(-1, 1, 33)
        np.testing.assert_allclose(rf.eval(xs), f.eval(xs), atol=1e-12)
        np.testing.assert_allclose(rf.jet(xs, 3), f.jet(xs, 3), atol=1e-9)

    @given(phi=st.floats(min_value=-0.4, max_value=0.4))
    def test_defining_identity(self, phi):
        f = poly([0.1, -0.3, 0.4, 0.0, 0.2], (-1, 1))
        rf = rotate_graph(f, phi)
        xs = np.linspace(-1, 1, 41)
        r, i = rotated_point(f, phi, xs)
        np.testing.assert_allclose(rf.eval(r), i, rtol=0, atol=1e-10)

    def test_involution(self):
        f = poly([0.0, 0.2, 0.5, -0.1], (-1, 1))
        phi = 0.3
        rf = rotate_graph(f, phi)
        back = rotate_graph(rf, -phi)
        xs = np.linspace(-0.999, 0.999, 101)
        inside = (xs >= back.domain[0] + 1e-9) & (xs <= back.domain[1] - 1e-9)
        np.testing.assert_allclose(back.eval(xs[inside]), f.eval(xs[inside]), atol=1e-9)


class TestDerivatives:
    def test_parabola_second_derivative_at_flat_point(self):
        f = poly([0.0, 0.0, 0.5], (-1, 1))
        phi = math.pi / 6
        rf = rotate_graph(f, phi)
        _, first, second = rf.jet(rotated_point(f, phi, 0.0)[0], 2)
        assert first == pytest.approx(math.tan(phi), abs=1e-15)
        assert second == pytest.approx(1.0 / math.cos(phi) ** 3, rel=1e-14)

    def test_matches_finite_differences(self):
        f = poly([0.0, 0.1, 0.5, 0.0, -0.05], (-1, 1))
        phi = 0.2
        rf = rotate_graph(f, phi)
        for x0 in (-0.5, 0.0, 0.4):
            u0 = float(rotated_point(f, phi, x0)[0])
            _, first, second = rf.jet(u0, 2)
            fd1 = central_fd(rf.eval, u0, 1, 1e-5)
            fd2 = central_fd(rf.eval, u0, 2, 1e-4)
            assert first == pytest.approx(float(fd1), abs=1e-8)
            assert second == pytest.approx(float(fd2), abs=1e-5)

    def test_higher_order_jets_match_exact_conic(self):
        # A rotated parabola is still a conic with a closed form: solving
        # the quadratic R(x) = u gives x(u), and the rotated function is
        # x s + x^2 c / 2.  High-precision differentiation of that closed
        # form is an independent oracle for orders 3 and 4.
        import mpmath as mp

        phi = 0.25
        f = poly([0.0, 0.0, 0.5], (-1, 1))
        rf = rotate_graph(f, phi)
        u0 = 0.3
        rows = rf.jet(np.array([u0]), 4)
        with mp.workdps(40):
            c, s = mp.cos(mp.mpf("0.25")), mp.sin(mp.mpf("0.25"))

            def closed(u):
                x = (c - mp.sqrt(c * c - 2 * s * u)) / s
                return x * s + x * x / 2 * c

            for order in range(5):
                exact = float(mp.diff(closed, mp.mpf("0.3"), order))
                assert rows[order][0] == pytest.approx(exact, rel=1e-10, abs=1e-12)

    def test_curvature_is_rotation_invariant(self):
        f = poly([0.0, 0.0, 0.5], (-1, 1))
        phi = 0.35
        rf = rotate_graph(f, phi)
        xs = np.linspace(-0.8, 0.8, 25)
        rows = f.jet(xs, 2)
        kappa = rows[2] / (1.0 + rows[1] ** 2) ** 1.5
        _, first, second = rf.jet(rotated_point(f, phi, xs)[0], 2)
        kappa_rot = second / (1.0 + first**2) ** 1.5
        np.testing.assert_allclose(kappa_rot, kappa, rtol=0, atol=1e-8)

    def test_flat_zero_set_is_preserved_exactly(self):
        f = flat_center_fn()
        phi = 0.05
        rf = rotate_graph(f, phi)
        plateau = np.linspace(-0.09, 0.09, 11)
        _, first, second = rf.jet(rotated_point(f, phi, plateau)[0], 2)
        np.testing.assert_array_equal(second, 0.0)
        np.testing.assert_allclose(first, math.tan(phi), atol=1e-16)
        curved = np.array([0.5, -0.7])
        second_c = rf.jet(rotated_point(f, phi, curved)[0], 2)[2]
        assert (second_c > 0).all()


class TestErrors:
    def test_too_steep_rotation_rejected(self):
        f = poly([0.0, 2.0], (0, 1))
        with pytest.raises(RotationTooLargeError):
            rotate_graph(f, math.pi / 4)

    def test_function_without_a_slope_is_rejected_when_rotated(self):
        # the graph check needs f'; without it R could not be checked monotone
        p = poly([0.0, 0.0, 0.5], (-1, 1))
        f = SmoothFn(p.domain, 0, lambda x, m: p.jet(x, m), name="values only")
        with pytest.raises(CapabilityError):
            rotate_graph(f, 0.1)


class TestCrBound:
    def test_zero_function(self):
        f = poly([0.0], (0, 1))
        report = cr_bound_check(f, [0.1, 0.3, 0.6], r=2)
        for entry in report.entries:
            expected = math.sin(entry.phi) + math.tan(entry.phi)
            assert entry.measured == pytest.approx(expected, rel=1e-6)
            assert entry.bound >= entry.measured
            assert entry.hypothesis_value == 0.0

    def test_parabola_small_angle(self):
        f = poly([0.0, 0.0, 0.5], (0, 0.25))
        report = cr_bound_check(f, [0.1], r=2)
        entry = report.entries[0]
        assert entry.hypothesis_value < 1.0
        assert entry.measured <= entry.bound
        assert entry.bound < 20.0

    def test_angle_to_zero_recovers_base_norm(self):
        f = poly([0.0, 0.0, 0.5], (0, 0.25))
        base = cr_norm(f, 2).value
        report = cr_bound_check(f, [1e-8], r=2)
        assert report.entries[0].measured == pytest.approx(base, rel=1e-5)

    def test_hypothesis_violation_names_angle(self):
        f = poly([0.0, 0.0, 2.0], (0, 2))  # large norms
        with pytest.raises(HypothesisError) as exc:
            cr_bound_check(f, [0.5], r=2)
        assert "0.5" in str(exc.value)

    def test_monotone_angles_report_all_entries(self):
        f = poly([0.0, 0.0, 0.5], (0, 0.25))
        phis = [0.01, 0.05, 0.1]
        report = cr_bound_check(f, phis, r=2)
        assert [e.phi for e in report.entries] == phis
        assert report.diameter == pytest.approx(0.25)
