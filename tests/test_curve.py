"""Tests for curve assembly, support-function calculus, and zero-set sweeps."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from helpers import (
    SWEEP_BASE,
    SWEEP_CASES,
    angular_resolution_arc,
    arbitrary_sets,
    assert_same_bits,
    point_support,
    rolled_cross_and_length,
    rolled_edge_vectors,
    rolled_symmetry_gap,
    rolled_turning,
    spec_built_sets,
    traced_peak,
)
from hypothesis import given
from hypothesis import strategies as st

from minklab.cantor import (
    CantorSpec,
    IntervalSet,
    _float_ends,
    _level_steps,
    build_cantor,
    covers,
    sum_sets,
    wrap_mod,
)
from minklab.curve import (
    ConvexCurve,
    CurveAtlas,
    GaussZeroSet,
    SupportFn,
    assemble_curve,
    curvature_transfer_check,
    minkowski_sum,
    refinement_intervals,
    _FLAT_TOL,
    _SWEEP_BLOCK_ELEMS,
    _VALIDATE_TOL,
    _cross_and_length,
    _junction_set,
    rotations_avoiding_zero_sets,
)
from minklab.errors import (
    ArgumentError,
    CapabilityError,
    ConstructionError,
    HypothesisError,
    ValidationError,
)
from minklab.hinge import schedule_smoothings

TAU = 2.0 * math.pi
CELL = TAU / (1 << 16)


def circle_curve(n=64, radius=1.0, order=None, offset=0.0):
    """A regular n-gon sampled from a circle, with exact vertex normals."""
    th = np.arange(n) * (TAU / n) + offset
    pts = radius * np.column_stack([np.cos(th), np.sin(th)])
    return ConvexCurve(
        boundary=pts,
        gauss_angle=th,
        curvature=np.full(n, 1.0 / radius),
        symmetry_order=order if order is not None else n,
    )


def bare_atlas():
    """A one-instance atlas without templates: enough to reach argument checks."""
    zero = np.zeros(1)
    return CurveAtlas(
        n=1,
        templates=[],
        inst_level=np.ones(1, dtype=int),
        inst_rot=zero,
        inst_base=zero.astype(complex),
        inst_gauss=np.zeros(2),
        center=0j,
    )


# ---------------------------------------------------------------------------
# ConvexCurve container and validation
# ---------------------------------------------------------------------------


def test_convex_curve_rejects_bad_shapes():
    pts = np.zeros((2, 2))
    with pytest.raises(ArgumentError):
        ConvexCurve(pts, np.zeros(2), np.zeros(2), 1)
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ArgumentError):
        ConvexCurve(tri, np.zeros(2), np.zeros(3), 1)
    with pytest.raises(ArgumentError):
        ConvexCurve(tri, np.zeros(3), np.zeros(3), 0)


def test_circle_sample_turns_once_and_validates():
    c = circle_curve(64, radius=2.0)
    assert c.total_turning() == pytest.approx(TAU, abs=1e-12)
    assert c.symmetry_gap() < 1e-12
    c.validate()


@pytest.mark.parametrize("array", ["boundary", "gauss_angle", "curvature"])
def test_octagon_with_a_nan_entry_raises_argument_error(array):
    c = circle_curve(8)
    bad = getattr(c, array).copy()
    bad[(3, 0) if array == "boundary" else 3] = math.nan
    with pytest.raises(ArgumentError, match="finite"):
        dataclasses.replace(c, **{array: bad})


def test_validate_rejects_nonconvex_polyline():
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [1.0, 0.5]])
    c = ConvexCurve(pts, np.zeros(4), np.zeros(4), 1)
    with pytest.raises(ValidationError, match="not convex"):
        c.validate()


def test_validate_rejects_broken_symmetry():
    c = circle_curve(32, radius=1.0, order=32)
    pts = c.boundary.copy()
    pts[0] *= 1.001
    bent = dataclasses.replace(c, boundary=pts)
    with pytest.raises(ValidationError, match="not invariant"):
        bent.validate()


def hand_polygons():
    """Small boundaries with a claimed symmetry order, some of them wrong."""
    square = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    th = np.arange(6) * (TAU / 6)
    hexagon = 3.0 * np.column_stack([np.cos(th), np.sin(th)]) + [0.5, -0.25]
    notch = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [1.0, 0.5]])
    bent = hexagon.copy()
    bent[2] *= 1.001
    out = [(square, k) for k in (1, 2, 3, 4)]
    out += [(hexagon, k) for k in (1, 2, 3, 4, 6)]
    out += [(square[::-1].copy(), 4), (notch, 1), (notch, 2), (bent, 6), (square[:3].copy(), 2)]
    return [
        ConvexCurve(b, np.zeros(len(b)), np.zeros(len(b)), k)
        for b, k in out
    ]


def test_measurements_equal_the_rolled_formulas_bit_for_bit(assembled, assembled_second):
    curves = [assembled[0], assembled_second[0]] + hand_polygons()
    for c in curves:
        e = c.edge_vectors()
        assert_same_bits(e, rolled_edge_vectors(c.boundary))
        cross, length = rolled_cross_and_length(e)
        got = _cross_and_length(e)
        assert_same_bits(got[0], cross)
        assert_same_bits(got[1], length)
        assert_same_bits(c.total_turning(), rolled_turning(e))
        assert_same_bits(c.symmetry_gap(), rolled_symmetry_gap(c.boundary, c.symmetry_order))
        # validate reports the convexity verdict and worst cross ratio of the rolled formulas
        scale = length * np.roll(length, -1)
        try:
            c.validate()
            message = ""
        except ValidationError as err:
            message = str(err)
        if np.any(cross < -_VALIDATE_TOL * scale):
            worst = float(np.min(cross / np.maximum(scale, 1e-300)))
            assert message == f"boundary is not convex: min cross ratio {worst:.3e}"
        else:
            assert "not convex" not in message
    # the square at orders 1, 3 and 4, the triangle at order 2, the bent hexagon
    gaps = [c.symmetry_gap() for c in curves[2:]]
    assert gaps[0] == 0.0 and gaps[2] == math.inf and gaps[-1] == math.inf
    assert 0.0 < gaps[3] < 1e-15 and gaps[-2] > 1e-3


def test_angular_resolution_arc_on_uniform_polygon():
    # normals centred in their cells: exactly one edge lands in each bin
    c = circle_curve(64, radius=1.0, offset=math.pi / 64)
    edge = 2.0 * math.sin(math.pi / 64)
    assert angular_resolution_arc(c, 64) == pytest.approx(edge, rel=1e-12)
    # at half the resolution every cell holds exactly two edges
    assert angular_resolution_arc(c, 32) == pytest.approx(2 * edge, rel=1e-12)
    with pytest.raises(ArgumentError):
        angular_resolution_arc(c, 4)


# ---------------------------------------------------------------------------
# GaussZeroSet
# ---------------------------------------------------------------------------


def points_set(values):
    return IntervalSet.from_pairs([(v, v) for v in sorted(values)])


def test_zero_set_validates_symmetric_quadruple():
    z = GaussZeroSet(Z=points_set([0.0, math.pi / 2, math.pi, 3 * math.pi / 2]))
    z.validate(symmetry_order=4)


def test_zero_set_rejects_broken_rotation_symmetry():
    z = GaussZeroSet(Z=points_set([0.1, TAU - 0.1]))
    z.validate()  # mirror-symmetric pair is fine without an order
    with pytest.raises(ValidationError, match="rotation"):
        z.validate(symmetry_order=4)


def test_zero_set_rejects_broken_mirror_symmetry():
    z = GaussZeroSet(Z=points_set([0.1, 0.2]))
    with pytest.raises(ValidationError, match="negation"):
        z.validate()


def test_zero_set_symmetry_is_measured_on_the_circle():
    # rotating k*pi/29 by pi/29 sends the last point to 2*pi - 8.9e-16,
    # which has to meet the point at 0 across the seam
    n = 29
    angles = [k * math.pi / n for k in range(2 * n)]
    GaussZeroSet(Z=points_set(angles)).validate(symmetry_order=2 * n)
    # a point missing at the seam, or one near it without its mirror, is
    # still an asymmetry
    with pytest.raises(ValidationError, match="rotation"):
        GaussZeroSet(Z=points_set(angles[1:])).validate(symmetry_order=2 * n)
    with pytest.raises(ValidationError, match="negation"):
        GaussZeroSet(Z=points_set([0.0, math.pi, TAU - 0.01])).validate()


def test_zero_set_pairs_every_point():
    # one extra junction 1e-10 from another lies within the 1e-9 tolerance
    # of its neighbour, but it has no partner of its own under either map
    n = 29
    angles = [k * math.pi / n for k in range(2 * n)]
    z = GaussZeroSet(Z=points_set(angles + [angles[3] + 1e-10]))
    with pytest.raises(ValidationError, match="negation"):
        z.validate()
    with pytest.raises(ValidationError, match="rotation"):
        z.validate(symmetry_order=2 * n)
    # pairing reads points only: a mirror-symmetric interval is refused
    with pytest.raises(ValidationError, match="point set"):
        GaussZeroSet(Z=IntervalSet.from_pairs([(-0.1, 0.1)])).validate()


def test_coinciding_junctions_raise_capability_error():
    z = _junction_set(np.array([2.0, 0.0, 1.0]), 3)
    assert z.Z.as_floats() == [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]
    with pytest.raises(CapabilityError, match="m_max = 8"):
        _junction_set(np.array([0.0, 1.0, 2.0, 1.0]), 8)


# ---------------------------------------------------------------------------
# refinement intervals
# ---------------------------------------------------------------------------


def test_refinement_intervals_two_levels_exact():
    out = refinement_intervals([0.1, 0.05], 0)
    assert out == [(0.0, pytest.approx(0.4)), (pytest.approx(0.4), pytest.approx(0.8))]
    out1 = refinement_intervals([0.1, 0.05], 1)
    lo = [a for a, _ in out1]
    hi = [b for _, b in out1]
    assert lo == pytest.approx([0.0, 0.3, 0.4, 0.7])
    assert hi == pytest.approx([0.1, 0.4, 0.5, 0.8])
    for bad in (-1, 2):
        with pytest.raises(ArgumentError):
            refinement_intervals([0.1, 0.05], bad)


def test_refinement_lengths_telescope(hinge_schedule):
    g = [s.gamma for s in hinge_schedule.smoothings]
    arc = math.pi / hinge_schedule.n
    for q in range(len(g)):
        ivals = refinement_intervals(g, q)
        survived = sum(b - a for a, b in ivals)
        removed = sum(2.0 ** m * 2.0 * g[m - 1] for m in range(1, q + 1))
        assert survived + removed == pytest.approx(arc, abs=1e-12)
        assert len(ivals) == 2 ** (q + 1)


# ---------------------------------------------------------------------------
# assembly on the shared schedule
# ---------------------------------------------------------------------------


def test_assembled_turning_and_symmetry(assembled, hinge_schedule):
    curve, _ = assembled
    assert curve.symmetry_order == 2 * hinge_schedule.n
    assert abs(curve.total_turning() - TAU) < 1e-6
    assert curve.symmetry_gap() < 1e-9
    # 2n copies of (sum_m 2^m template vertex counts) minus shared junctions
    assert curve.boundary.shape[0] % curve.symmetry_order == 0


def test_assembled_normals_cover_circle_monotonically(assembled):
    curve, _ = assembled
    dg = np.diff(curve.gauss_angle)
    assert np.all(dg >= -1e-12)
    assert curve.gauss_angle[0] == 0.0
    assert curve.gauss_angle[-1] < TAU


def test_flat_marks_sit_on_zero_structure(assembled):
    """Curvature vanishes on the marked set and only near it.

    Every flat-marked vertex normal lies within one angular grid cell of a
    junction angle, and every junction angle has a marked vertex nearby, so
    the zero set of the curvature coincides with the removed-middle marks at
    the built depth.
    """
    curve, zset = assembled
    junctions = np.array(sorted({lo for lo, _ in zset.Z.as_floats()}))
    marked = curve.gauss_angle[curve.curvature <= _FLAT_TOL * np.max(curve.curvature)]
    assert marked.size > 0

    def dist_to(points, targets):
        j = np.clip(np.searchsorted(targets, points), 1, targets.size - 1)
        return np.minimum(
            np.abs(points - targets[j - 1]), np.abs(points - targets[j])
        )

    assert float(np.max(dist_to(marked, junctions))) < CELL
    assert float(np.max(dist_to(junctions, np.sort(marked)))) < CELL
    # vertices angularly far from every junction carry positive curvature
    far = dist_to(curve.gauss_angle, junctions) > CELL
    kmax = float(np.max(curve.curvature))
    assert float(np.min(curve.curvature[far])) > 1e-8 * kmax


def test_zero_set_symmetries_and_entries(assembled):
    curve, zset = assembled
    zset.validate(symmetry_order=curve.symmetry_order)
    per_arc = len(zset.Z) // curve.symmetry_order
    assert len(zset.Z) == per_arc * curve.symmetry_order
    assert per_arc == 2 * (2 ** 5 - 1)  # two half-trees of 2^5 - 1 smoothings


def test_entries_dense_in_refinement(assembled, hinge_schedule):
    """Every surviving interval at every built depth contains a junction angle."""
    _, zset = assembled
    arc = math.pi / hinge_schedule.n
    e_arc = np.sort(np.unique(np.mod(np.array(zset.Z.as_floats())[:, 0], arc)))
    g = [s.gamma for s in hinge_schedule.smoothings]
    for depth in range(len(g)):
        for lo, hi in refinement_intervals(g, depth):
            j = np.searchsorted(e_arc, lo - 1e-12)
            assert j < e_arc.size and e_arc[j] <= hi + 1e-12, (depth, lo, hi)


def test_norms_stay_capped_across_levels(assembled, hinge_schedule):
    """Uniform smoothness across levels: scheduled norms under their caps,
    and the assembled curvature bounded by the scheduled C^2 norms (rigid
    placement leaves curvature unchanged)."""
    curve, _ = assembled
    table = hinge_schedule.norm_table
    assert np.all(table <= hinge_schedule.caps[None, :] + 1e-12)
    assert float(np.max(curve.curvature)) <= float(np.max(table[:, 2]))


def test_stage_graphs_increase_pointwise(hinge_schedule):
    from minklab.curve import _build_templates, _check_stage_monotone

    sms = hinge_schedule.smoothings[:3]
    templates = _build_templates(sms, 512)
    _check_stage_monotone(templates)
    # a smoothing sagging below its hinge interior must be caught
    bad = list(templates)
    t = bad[1]
    sag = 1e-3 * (1.0 - (t.z.real / t.sm.d) ** 2)
    bad[1] = dataclasses.replace(t, z=t.z - 1j * sag)
    with pytest.raises(ConstructionError, match="dips below"):
        _check_stage_monotone(bad)


def test_last_stage_is_the_assembled_arc(assembled):
    """The stage check's final walk lays the arc down as assembly does."""
    from minklab.curve import _half_order, _walk

    curve, _ = assembled
    atlas = curve.atlas
    m_max = len(atlas.templates)
    order = _half_order(m_max) * 2
    poly, _, rot, base, gauss = _walk(atlas.templates, order, m_max)
    assert np.array_equal(rot, atlas.inst_rot)
    assert np.array_equal(base, atlas.inst_base)
    assert np.array_equal(gauss, atlas.inst_gauss)
    final = 1j * (poly - atlas.center)
    first_arc = curve.boundary[: poly.size]
    assert np.array_equal(np.column_stack([final.real, final.imag]), first_arc)


def test_second_body_closes_at_depth_seven(second_profile):
    """The last copy meets vertex 0 closely enough for the convexity check.

    The closing edge is about 7e-6 long here, so a seam off by 4e-14 (what
    translating each copy by the recursive copy sum leaves) reads a cross
    ratio of -5e-9, beyond the 1e-9 tolerance.

    Its level-7 junction pairs lie 8.9e-13 apart.  The sweep keeps both
    points of each pair, so a rotation that takes one junction to the
    middle of a pair, and no junction onto another, avoids the set.
    """
    hs = schedule_smoothings(second_profile.f, 7)
    _, zset = assemble_curve(second_profile.f, hs, m_max=7)
    assert len(zset.Z) == 2 * (2**7 - 1) * 2 * hs.n == 16_256
    assert len(wrap_mod(zset.Z, TAU)) == 16_256
    z = np.sort(np.mod(np.asarray(zset.Z.as_floats())[:, 0], TAU))
    pairs = np.flatnonzero(np.diff(z) < 2e-12)
    j = pairs[:: pairs.size // 16][:16]
    probes = (z[j] + z[j + 1]) / 2 - z[j[::-1]]
    # each probe's least circular distance from a rotated junction to a junction
    moved = np.mod(z[None, :] + probes[:, None], TAU)
    idx = np.searchsorted(z, moved)
    gap = np.minimum(np.abs(moved - z[idx - 1]), np.abs(moved - z[idx % z.size]))
    assert np.all(np.minimum(gap, TAU - gap).min(axis=1) > 0.0)
    np.testing.assert_array_equal(rotations_avoiding_zero_sets(zset, zset, probes), probes)


def test_assembly_holds_at_most_three_times_its_curve_arrays(hinge_profile, hinge_schedule, assembled):
    # ``assembled`` first: one assembly of the schedule has run before the traced one
    peak, (c, _) = traced_peak(assemble_curve, hinge_profile.f, hinge_schedule, m_max=5)
    arrays = c.boundary.nbytes + c.gauss_angle.nbytes + c.curvature.nbytes
    assert c.boundary.shape == assembled[0].boundary.shape
    assert peak <= 3 * arrays


def test_assemble_rejects_bad_arguments(hinge_profile, hinge_schedule):
    with pytest.raises(ArgumentError):
        assemble_curve(hinge_profile.f, hinge_schedule, m_max=0)
    with pytest.raises(ArgumentError):
        assemble_curve(hinge_profile.f, hinge_schedule, m_max=9)
    with pytest.raises(ArgumentError):
        assemble_curve(hinge_profile.f, [], m_max=None)
    with pytest.raises(ArgumentError):
        assemble_curve(hinge_profile.f, [1, 2, 3], m_max=2)
    # the smoothings without their schedule, and no depth
    with pytest.raises(ArgumentError, match="HingeSchedule"):
        assemble_curve(hinge_profile.f, hinge_schedule.smoothings, m_max=5)
    with pytest.raises(ArgumentError, match="integer"):
        assemble_curve(hinge_profile.f, hinge_schedule, m_max=None)
    # a shallower depth is not a prefix of the schedule: its turns miss pi/n
    with pytest.raises(ArgumentError, match="depth 5"):
        assemble_curve(hinge_profile.f, hinge_schedule, m_max=4)


def test_assemble_rejects_unnormalized_schedule(hinge_profile, hinge_schedule):
    skewed = dataclasses.replace(
        hinge_schedule,
        smoothings=[dataclasses.replace(s, gamma=s.gamma * 1.01) for s in hinge_schedule.smoothings[:5]],
    )
    with pytest.raises(HypothesisError, match="pi/n"):
        assemble_curve(hinge_profile.f, skewed, m_max=5)
    # n is the schedule's own field: one its turns do not sum to is rejected
    miscounted = dataclasses.replace(hinge_schedule, n=hinge_schedule.n + 1)
    with pytest.raises(HypothesisError, match="pi/n"):
        assemble_curve(hinge_profile.f, miscounted, m_max=5)


# ---------------------------------------------------------------------------
# support functions: constructors and calculus
# ---------------------------------------------------------------------------


def test_support_grid_must_be_uniform():
    n = 16
    ones = np.ones(n)
    s = SupportFn(ones, 0 * ones, 0 * ones)
    np.testing.assert_array_equal(s.theta, SupportFn.grid(n))
    with pytest.raises(ArgumentError):
        SupportFn(np.ones(4), np.zeros(4), np.zeros(4))
    with pytest.raises(ArgumentError):
        SupportFn(np.ones(n - 1), 0 * ones, 0 * ones)


def test_too_few_support_samples_name_h():
    # a direct caller passes h, not grid_n
    with pytest.raises(ArgumentError, match="^h must be at least 8 samples, got 4$"):
        SupportFn(np.ones(4), np.zeros(4), np.zeros(4))


def test_disk_support_and_reconstruction():
    s = minkowski_sum(SupportFn.ellipse(1.5, 1.5, grid_n=512), point_support((0.3, -0.2), grid_n=512))
    s.validate()
    assert np.allclose(s.rho(), 1.5, atol=1e-12)
    rec = s.reconstruct()
    rad = np.hypot(rec[:, 0] - 0.3, rec[:, 1] + 0.2)
    assert np.allclose(rad, 1.5, atol=1e-12)
    with pytest.raises(ArgumentError):
        SupportFn.ellipse(-1.0, -1.0)


def test_ellipse_support_matches_implicit_equation():
    a, b = 2.0, 0.7
    s = SupportFn.ellipse(a, b, grid_n=1024)
    s.validate()
    rec = s.reconstruct()
    resid = (rec[:, 0] / a) ** 2 + (rec[:, 1] / b) ** 2 - 1.0
    assert float(np.max(np.abs(resid))) < 1e-12
    assert np.allclose(s.rho(), (a * b) ** 2 / s.h**3, atol=1e-12)


# ---------------------------------------------------------------------------
# Minkowski sums
# ---------------------------------------------------------------------------


def test_disk_plus_disk_is_larger_disk():
    s = minkowski_sum(SupportFn.ellipse(1.0, 1.0, grid_n=1024), SupportFn.ellipse(1.0, 1.0, grid_n=1024))
    assert np.allclose(s.h, 2.0, atol=1e-12)
    assert np.allclose(s.rho(), 2.0, atol=1e-12)


def test_point_summand_translates():
    e = SupportFn.ellipse(2.0, 1.0, grid_n=512)
    p = point_support((0.4, -0.7), grid_n=512)
    s = minkowski_sum(e, p)
    shift = s.reconstruct() - e.reconstruct()
    assert np.allclose(shift, [0.4, -0.7], atol=1e-12)
    assert np.allclose(s.rho(), e.rho(), atol=1e-12)


@pytest.mark.parametrize(
    "call",
    [
        lambda: SupportFn.ellipse(math.nan, 1.0, grid_n=64),
        lambda: SupportFn.ellipse(1.0, math.inf, grid_n=64),
        lambda: rotations_avoiding_zero_sets(
            IntervalSet.from_pairs([(0.0, 0.1)]),
            IntervalSet.from_pairs([(0.0, 0.1)]),
            [0.0, math.nan, 1.0],
        ),
        lambda: IntervalSet.from_pairs([(0.0, 0.1)]).translate(math.nan),
        lambda: IntervalSet.from_pairs([(0.0, 0.1)]).translate(-math.inf),
        lambda: IntervalSet.from_pairs([(0.0, math.inf)]),
        lambda: covers(build_cantor(CantorSpec.uniform((0, 1), Fraction(1, 3), 4)), (0, math.inf)),
        lambda: curvature_transfer_check(
            SupportFn.ellipse(2.0, 1.0, grid_n=64), SupportFn.ellipse(1.0, 1.0, grid_n=64), [math.nan]
        ),
        lambda: curvature_transfer_check(
            SupportFn.ellipse(2.0, 1.0, grid_n=64), SupportFn.ellipse(1.0, 1.0, grid_n=64), [math.inf]
        ),
        lambda: bare_atlas().support_data([math.nan, 0.3]),
        lambda: SupportFn(np.full(64, math.nan), np.zeros(64), np.zeros(64)),
        lambda: SupportFn(np.ones(64), np.full(64, math.inf), np.zeros(64)),
        lambda: SupportFn(np.ones(64), np.zeros(64), np.full(64, math.nan)),
        lambda: SupportFn(np.ones(64), np.zeros(64), np.full(64, -math.inf)),
    ],
    ids=[
        "ellipse-nan",
        "ellipse-inf",
        "sweep-angle",
        "translate-shift",
        "translate-inf",
        "from-pairs-inf",
        "covers-inf-target",
        "transfer-nan",
        "transfer-inf",
        "support-data-nan",
        "support-h-nan",
        "support-dh-inf",
        "support-d2h-nan",
        "support-d2h-neg-inf",
    ],
)
def test_non_finite_parameters_raise_argument_error(call):
    with pytest.raises(ArgumentError):
        call()


@pytest.mark.parametrize("grid_n", [0, -3])
@pytest.mark.parametrize(
    "build",
    [
        lambda n, curve: SupportFn.ellipse(1.0, 1.0, grid_n=n),
        lambda n, curve: SupportFn.ellipse(2.0, 1.0, grid_n=n),
        lambda n, curve: point_support((0.3, -0.2), grid_n=n),
        lambda n, curve: SupportFn.from_curve(curve, grid_n=n),
    ],
    ids=["disk", "ellipse", "point", "curve"],
)
def test_grid_below_eight_samples_raises_argument_error(build, grid_n, assembled):
    with pytest.raises(ArgumentError, match="at least 8 samples"):
        build(grid_n, assembled[0])


@pytest.mark.parametrize("a", [1e200, 1e-200])
def test_ellipse_with_extreme_equal_axes_is_the_circle(a):
    s = SupportFn.ellipse(a, a, grid_n=64)
    np.testing.assert_allclose(s.h, a, rtol=4e-16, atol=0)
    np.testing.assert_allclose(s.dh / a, 0.0, atol=4e-16)
    np.testing.assert_allclose(s.rho(), a, rtol=2e-15, atol=0)


def test_non_integer_grid_n_raises_argument_error():
    with pytest.raises(ArgumentError, match="grid_n"):
        SupportFn.grid(64.5)
    with pytest.raises(ArgumentError, match="grid_n"):
        SupportFn.ellipse(1.0, 1.0, grid_n=64.5)


def test_support_fn_with_a_two_dimensional_h_raises_argument_error():
    with pytest.raises(ArgumentError, match="1-D"):
        SupportFn(h=np.zeros((8, 8)), dh=np.zeros(8), d2h=np.zeros(8))


@pytest.mark.parametrize("th", [1e19, 1e300])
def test_huge_transfer_angle_snaps_to_its_reduced_grid_angle(th):
    a = SupportFn.ellipse(2.0, 1.0, grid_n=64)
    rep = curvature_transfer_check(a, SupportFn.ellipse(1.0, 1.0, grid_n=64), [th])
    circular = np.abs(np.angle(np.exp(1j * (a.theta - np.mod(th, 2.0 * math.pi)))))
    assert rep.theta[0] == a.theta[np.argmin(circular)]


def test_minkowski_sum_rejects_grid_mismatch():
    with pytest.raises(ArgumentError):
        minkowski_sum(SupportFn.ellipse(1.0, 1.0, grid_n=256), SupportFn.ellipse(1.0, 1.0, grid_n=512))


def test_ellipse_sum_matches_hull_oracle():
    """Support-route sum against a brute-force polygon-hull Minkowski sum."""
    from scipy.spatial import ConvexHull, cKDTree

    s = minkowski_sum(SupportFn.ellipse(2.0, 1.0), SupportFn.ellipse(1.0, 3.0))
    s.validate()
    t = np.arange(1200) * (TAU / 1200)
    p = np.column_stack([2.0 * np.cos(t), np.sin(t)])
    q = np.column_stack([np.cos(t), 3.0 * np.sin(t)])
    pairs = (p[:, None, :] + q[None, :, :]).reshape(-1, 2)
    hull = ConvexHull(pairs)
    hv = pairs[hull.vertices]
    seg = np.roll(hv, -1, axis=0) - hv
    frac = np.linspace(0.0, 1.0, 8, endpoint=False)
    dense = (hv[:, None, :] + frac[None, :, None] * seg[:, None, :]).reshape(-1, 2)

    rec = s.reconstruct()
    d_rec = float(np.max(cKDTree(dense).query(rec)[0]))
    d_hull = float(np.max(cKDTree(rec).query(dense)[0]))
    # inscribed-polygon sagitta + hull-edge and recon sampling spacing
    assert max(d_rec, d_hull) < 1.2e-3


@given(
    r1=st.floats(0.2, 3.0),
    r2=st.floats(0.2, 3.0),
    cx=st.floats(-1.0, 1.0),
    cy=st.floats(-1.0, 1.0),
)
def test_minkowski_commutes_and_adds_radii(r1, r2, cx, cy):
    a = minkowski_sum(SupportFn.ellipse(r1, r1, grid_n=256), point_support((cx, cy), grid_n=256))
    b = SupportFn.ellipse(r2, r2, grid_n=256)
    ab = minkowski_sum(a, b)
    ba = minkowski_sum(b, a)
    assert np.array_equal(ab.h, ba.h)
    assert np.allclose(ab.rho(), r1 + r2, atol=1e-12)


# ---------------------------------------------------------------------------
# assembled-curve support extraction
# ---------------------------------------------------------------------------


def test_from_curve_needs_atlas():
    with pytest.raises(ArgumentError, match="atlas"):
        SupportFn.from_curve(circle_curve(16))


def test_assembled_support_validates(support_first):
    support_first.validate()
    assert bool(support_first.flat[0])
    assert math.isinf(support_first.rho()[0])
    assert support_first.kappa()[0] == 0.0
    # the curve's quarter-turn junctions land exactly on the grid
    quarters = np.array([0.0, 0.25, 0.5, 0.75]) * TAU
    idx = np.round(quarters / CELL).astype(int)
    assert np.all(support_first.flat[idx])


def test_support_solves_each_target_once(assembled, support_first, monkeypatch):
    # each slope target is inverted, and each touching point's jet asked
    # for, once per support_data call
    from minklab import curve as curve_module
    from minklab.fn_core import GridIntegratedFn

    slopes, points = [], []
    invert, jet = curve_module.invert_monotone, GridIntegratedFn.jet

    def counted_invert(fn, dfn, ys, *args, **kwargs):
        slopes.append(np.asarray(ys).ravel())
        return invert(fn, dfn, ys, *args, **kwargs)

    smoothings = [tpl.sm.F for tpl in assembled[0].atlas.templates]

    def counted_jet(self, x, order):
        if any(self is F for F in smoothings):
            points.append(np.asarray(x).ravel())
        return jet(self, x, order)

    monkeypatch.setattr(curve_module, "invert_monotone", counted_invert)
    monkeypatch.setattr(GridIntegratedFn, "jet", counted_jet)
    again = SupportFn.from_curve(assembled[0])
    assert len(slopes) > 2 and len(points) == len(slopes)
    for requests in (slopes, points):
        assert [ys.size for ys in requests] == [np.unique(ys).size for ys in requests]
    for key in ("h", "dh", "d2h", "flat"):
        np.testing.assert_array_equal(getattr(again, key), getattr(support_first, key))


def test_support_end_rows_solve_each_profile_point_once(assembled, monkeypatch):
    # the left end and the mirror image of the right end share their points
    from minklab import rotated_graph

    targets = []
    invert = rotated_graph.invert_monotone

    def counted(fn, dfn, ys, *args, **kwargs):
        targets.append(np.array(ys, dtype=float).reshape(-1))
        return invert(fn, dfn, ys, *args, **kwargs)

    monkeypatch.setattr(rotated_graph, "invert_monotone", counted)
    SupportFn.from_curve(assembled[0])
    every = np.concatenate(targets)
    assert every.size > 0 and np.unique(every).size == every.size


def test_support_farthest_point_matches_polyline(assembled, support_first):
    curve, _ = assembled
    assert float(np.max(support_first.h)) == pytest.approx(
        float(np.max(np.hypot(*curve.boundary.T))), abs=1e-9
    )


def test_support_reconstruction_agrees_with_polyline(assembled, support_first):
    """Both routes to the boundary agree within the angular resolution floor."""
    from scipy.spatial import cKDTree

    curve, _ = assembled
    rec = support_first.reconstruct()
    floor = angular_resolution_arc(curve, support_first.theta.size)
    d_rec = float(np.max(cKDTree(curve.boundary).query(rec)[0]))
    d_poly = float(np.max(cKDTree(rec).query(curve.boundary)[0]))
    # reconstruction points always sit on the curve; polyline vertices can
    # be at most one hidden sub-cell stretch away from the nearest sample
    assert d_rec < 1e-3
    assert d_poly <= 0.75 * floor
    assert floor < 0.15


# ---------------------------------------------------------------------------
# curvature transfer
# ---------------------------------------------------------------------------


def test_two_circles_transfer_to_third_curvature():
    rep = curvature_transfer_check(
        SupportFn.ellipse(1.0, 1.0, grid_n=4096),
        SupportFn.ellipse(2.0, 2.0, grid_n=4096),
        np.linspace(0.0, TAU, 97),
    )
    assert rep.transfer_ok
    assert np.allclose(rep.kappa_sum, 1.0 / 3.0, atol=1e-12)
    assert rep.additive_gap < 1e-12
    assert rep.discrete_gap < 1e-6


def test_disk_plus_flat_body_goes_flat(support_first):
    """A positively curved summand cannot remove the other body's flats."""
    disk = SupportFn.ellipse(1.0, 1.0, grid_n=support_first.theta.size)
    flats = support_first.theta[support_first.flat]
    generic = np.array([0.3, 1.1, 2.9])
    rep = curvature_transfer_check(disk, support_first, np.concatenate([flats, generic]))
    assert rep.transfer_ok
    assert np.all(rep.kappa_sum[: flats.size] == 0.0)
    assert np.all(rep.kappa_sum[flats.size :] > 0.0)
    assert rep.additive_gap < 1e-8


def test_transfer_requires_curved_first_body(support_first):
    disk = SupportFn.ellipse(1.0, 1.0, grid_n=support_first.theta.size)
    with pytest.raises(HypothesisError, match="positive curvature"):
        curvature_transfer_check(support_first, disk, 0.0)


def test_transfer_snaps_angles_to_grid():
    a = SupportFn.ellipse(1.0, 1.0, grid_n=512)
    b = SupportFn.ellipse(1.0, 1.0, grid_n=512)
    rep = curvature_transfer_check(a, b, [0.1234])
    assert rep.theta[0] in a.theta


def test_curve_pair_shares_flat_sum_angle(support_first, support_second):
    """Summing the two assembled bodies keeps the shared junction flat."""
    s = minkowski_sum(support_first, support_second)
    assert bool(s.flat[0])
    assert s.kappa()[0] == 0.0
    fin = ~s.flat
    gap = np.abs(
        support_first.rho()[fin] + support_second.rho()[fin] - s.rho()[fin]
    )
    assert float(np.max(gap)) < 1e-8


# ---------------------------------------------------------------------------
# rotation sweeps over zero sets
# ---------------------------------------------------------------------------


def test_rotations_avoid_single_point_obstruction():
    za = points_set([0.25])
    zb = points_set([1.0])
    grid = np.array([0.25, 0.5, 0.75])
    out = rotations_avoiding_zero_sets(za, zb, grid)
    assert 0.75 not in out
    assert set(out.tolist()) == {0.25, 0.5}


def test_rotations_blocked_by_covering_cantor():
    # remaining ratio 1/3 per side on a base longer than pi: the difference
    # set covers the full circle, so no rotation avoids
    spec = CantorSpec((0, Fraction(22, 7)), tuple([Fraction(1, 3)] * 8))
    z = build_cantor(spec)
    grid = np.arange(512) * (TAU / 512)
    out = rotations_avoiding_zero_sets(z, z, grid)
    assert out.size == 0


def test_rotations_escape_thin_cantor():
    spec = CantorSpec((0, Fraction(22, 7)), tuple([Fraction(3, 5)] * 8))
    z = build_cantor(spec)
    grid = np.arange(512) * (TAU / 512)
    out = rotations_avoiding_zero_sets(z, z, grid)
    assert out.size > 0


def test_rotations_accept_zero_set_wrappers(assembled):
    _, zset = assembled
    grid = np.array([0.5 * CELL])  # between grid junctions: generic angle
    out = rotations_avoiding_zero_sets(zset, zset, grid)
    # point-like zero sets at finite depth: a generic rotation avoids
    assert out.size == 1


def difference_set_verdicts(za, zb, grid):
    """Oracle: rotating A by d meets B iff d lies in (B - A) mod 2*pi.

    Returns the avoid verdicts and a mask of the grid angles within 1e-9 of
    an endpoint of the difference set, where the two routes may round apart.
    """
    diff = np.asarray(wrap_mod(sum_sets(zb, za.negate()), TAU).as_floats())
    lo, hi = diff[:, 0], diff[:, 1]
    j = np.searchsorted(lo, grid, side="right") - 1
    meets = (j >= 0) & (grid <= hi[np.maximum(j, 0)])
    edges = np.sort(diff.ravel())
    k = np.clip(np.searchsorted(edges, grid), 1, edges.size - 1)
    near = np.minimum(np.abs(grid - edges[k - 1]), np.abs(grid - edges[k])) <= 1e-9
    return ~meets, near


def float_copy(z):
    """The same intervals as a float set: the sweep takes its blocked route."""
    return IntervalSet(*_float_ends(z), None)


def test_rotations_of_distinct_cantor_sets_match_difference_set():
    za = build_cantor(CantorSpec((0, Fraction(22, 7)), tuple([Fraction(1, 3)] * 6)))
    zb = build_cantor(CantorSpec((1, 4), tuple([Fraction(3, 5)] * 7)))
    grid = np.arange(512) * (TAU / 512) + 1e-3
    out = rotations_avoiding_zero_sets(za, zb, grid)
    avoids, near = difference_set_verdicts(za, zb, grid)
    assert 0 < out.size < grid.size
    np.testing.assert_array_equal(np.isin(grid, out)[~near], avoids[~near])


def test_rotation_splits_a_piece_straddling_two_pi():
    za = IntervalSet.from_pairs([(5.5, 6.0)])
    zb = points_set([0.1])
    # +0.5 wraps the piece onto [0, 0.217], over the point; +0.3 wraps it
    # onto [0, 0.017] and +1.0 moves it past 2*pi entirely, both missing
    out = rotations_avoiding_zero_sets(za, zb, np.array([0.5, 1.0, 0.3]))
    assert out.tolist() == [1.0, 0.3]


@pytest.mark.parametrize("pair", [(0, 7), (1.0, 1.0 + TAU)])
def test_rotation_blocked_by_a_full_turn_interval(pair):
    za = IntervalSet.from_pairs([pair])
    out = rotations_avoiding_zero_sets(za, points_set([2.0]), np.arange(16) * (TAU / 16))
    assert out.size == 0


@pytest.mark.parametrize("empty_first", [True, False])
def test_every_rotation_avoids_an_empty_set(empty_first):
    empty, z = IntervalSet.from_pairs([]), points_set([0.0, 1.0])
    grid = np.arange(16) * (TAU / 16)
    args = (empty, z) if empty_first else (z, empty)
    out = rotations_avoiding_zero_sets(*args, grid)
    np.testing.assert_array_equal(out, grid)


def test_rotation_sweep_across_block_seams():
    z = build_cantor(CantorSpec((0, Fraction(22, 7)), tuple([Fraction(3, 5)] * 10)))
    grid = np.arange(700) * (TAU / 700) + 1e-3
    assert grid.size * len(z) > 2 * _SWEEP_BLOCK_ELEMS  # at least three blocks
    # the float copy takes the blocked route; the oracle reads the exact set
    zf = float_copy(z)
    out = rotations_avoiding_zero_sets(zf, zf, grid)
    avoids, near = difference_set_verdicts(z, z, grid)
    assert 0 < out.size < grid.size
    np.testing.assert_array_equal(np.isin(grid, out)[~near], avoids[~near])


@pytest.mark.parametrize("turns", [1e9, 1e12, 1e15])
def test_far_rotation_angle_is_reduced_before_the_translate(turns):
    # an angle added to the set's endpoints before its reduction rounds
    # their digits away: the verdicts must be those of the reduced angles
    z = build_cantor(CantorSpec.uniform((0, Fraction(22, 7)), Fraction(3, 5), 9))
    far = np.random.default_rng(7).uniform(0.0, TAU, 2000) + TAU * turns
    near = np.mod(far, TAU)
    got = np.isin(far, rotations_avoiding_zero_sets(z, z, far))
    np.testing.assert_array_equal(got, np.isin(near, rotations_avoiding_zero_sets(z, z, near)))
    avoids, close = difference_set_verdicts(z, z, near)
    np.testing.assert_array_equal(got[~close], avoids[~close])


@pytest.mark.parametrize("turns", [1e9, 1e15])
def test_far_rotation_angle_is_reduced_in_the_blocked_sweep(turns):
    z = build_cantor(CantorSpec.uniform((0, Fraction(22, 7)), Fraction(3, 5), 9))
    far = np.random.default_rng(7).uniform(0.0, TAU, 2000) + TAU * turns
    got = np.isin(far, rotations_avoiding_zero_sets(float_copy(z), float_copy(z), far))
    avoids, close = difference_set_verdicts(z, z, np.mod(far, TAU))
    np.testing.assert_array_equal(got[~close], avoids[~close])


def test_sweep_memory_is_a_few_blocks():
    # each block holds about four arrays of its size at once; the wrapped
    # second set and the float ends, made once a call, come to about eight
    # copies of the set's own bytes
    z = float_copy(build_cantor(CantorSpec.uniform((0, Fraction(22, 7)), Fraction(1, 2), 10)))
    grid = np.arange(512) * (TAU / 512) + 1e-3
    peak, _ = traced_peak(rotations_avoiding_zero_sets, z, z, grid)
    rows = min(grid.size, _SWEEP_BLOCK_ELEMS // len(z))
    block_bytes = rows * len(z) * 8  # one float64 per piece
    assert peak <= 5 * block_bytes + 8 * (z.lo.nbytes + z.hi.nbytes)


def count_block_sweeps(monkeypatch) -> list:
    """A list that gets one entry, the two sets it sweeps, per blocked sweep from now on."""
    from minklab import curve as curve_module

    calls = []
    blocked = curve_module._avoids_in_blocks

    def counted(*args):
        calls.append(args[:2])
        return blocked(*args)

    monkeypatch.setattr(curve_module, "_avoids_in_blocks", counted)
    return calls


def near_difference_ends(za, zb, grid, band=1e-9):
    """Grid angles within ``band`` of an endpoint of ``(zb - za) mod 2*pi``, on the circle."""
    ends = np.concatenate(_float_ends(sum_sets(zb, za.negate())))
    off = np.mod(grid[:, None] - ends[None, :], TAU)
    return np.any(np.minimum(off, TAU - off) <= band, axis=1)


SWEEP_GRID = np.arange(97) * (TAU / 97) + 1e-3


@pytest.mark.parametrize("block", [_SWEEP_BLOCK_ELEMS, 1], ids=["joined", "stopped early"])
@given(a=spec_built_sets(), b=arbitrary_sets())
def test_difference_route_matches_the_blocked_sweep(block, a, b):
    # a one-element block stops the joins after those that keep the
    # difference within |B| + 1 intervals, so the sweep looks up many points
    assert _level_steps(a) is not None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("minklab.curve._SWEEP_BLOCK_ELEMS", block)
        for x, y in ((a, b), (b, a)):
            got = np.isin(SWEEP_GRID, rotations_avoiding_zero_sets(x, y, SWEEP_GRID))
            want = np.isin(SWEEP_GRID, rotations_avoiding_zero_sets(float_copy(x), float_copy(y), SWEEP_GRID))
            if len(x) and len(y):
                far = ~near_difference_ends(x, y, SWEEP_GRID)
                np.testing.assert_array_equal(got[far], want[far])
            else:
                assert got.all() and want.all()


SWEEP_SETS = [build_cantor(CantorSpec.uniform(SWEEP_BASE, ratio, depth)) for ratio, depth in SWEEP_CASES]


def is_points(z) -> bool:
    return bool(np.array_equal(z.lo, z.hi))


@pytest.mark.parametrize("z", SWEEP_SETS, ids=["1/3", "1/2", "3/5"])
def test_factoring_pairs_sweep_fewer_points_than_the_first_set_has_intervals(monkeypatch, z):
    calls = count_block_sweeps(monkeypatch)
    grid = np.arange(64) * (TAU / 64) + 1e-3
    off = IntervalSet(z.lo[:-1].copy(), z.hi[:-1].copy(), z.den)  # 2**m - 1 intervals
    pairs = [(z, z), (z.negate(), z), (z.translate(3), z), (z, off), (off, z.negate())]
    for x, y in pairs:
        rotations_avoiding_zero_sets(x, y, grid)
    for (x, y), (swept, part) in zip(pairs, calls):
        assert is_points(swept) and len(swept) < len(x)
        assert len(part) <= len(y) + _SWEEP_BLOCK_ELEMS
    calls.clear()
    # a lattice past int64 sends the exact pair to floats
    wide = IntervalSet.from_pairs([(0, Fraction(1, (1 << 61) - 1))])
    pairs = [(off, off), (float_copy(z), z), (z, float_copy(z)), (z, wide)]
    for x, y in pairs:
        rotations_avoiding_zero_sets(x, y, grid)
    assert [(x, y) for x, y in calls] == pairs


def test_joins_stop_before_the_difference_outgrows_a_block_plus_the_second_set(monkeypatch):
    # ratio 1/2: each join grows B - A by half, to 3**m intervals in the end
    calls = count_block_sweeps(monkeypatch)
    grid = np.arange(16) * (TAU / 16) + 1e-3
    z10 = SWEEP_SETS[1]
    rotations_avoiding_zero_sets(z10, z10, grid)
    (swept, part), = calls
    assert len(sum_sets(z10, z10.negate())) > len(z10) + _SWEEP_BLOCK_ELEMS >= len(part)
    assert 1 < len(swept) < len(z10)
    # at depth 14 the first join would pass the limit: the sets sweep as they are
    calls.clear()
    z14 = build_cantor(CantorSpec.uniform(SWEEP_BASE, Fraction(1, 2), 14))
    rotations_avoiding_zero_sets(z14, z14, grid)
    assert calls == [(z14, z14)]


def test_deep_spec_built_sweep_memory_is_a_few_blocks():
    # the difference of a ratio-1/2 depth-14 set with itself has 3**14 = 4.8M
    # intervals; the sweep holds what the blocked sweep of the set holds
    z = build_cantor(CantorSpec.uniform(SWEEP_BASE, Fraction(1, 2), 14))
    grid = np.arange(64) * (TAU / 64) + 1e-3
    peak, out = traced_peak(rotations_avoiding_zero_sets, z, z, grid)
    rows = max(1, _SWEEP_BLOCK_ELEMS // len(z))
    block_bytes = rows * len(z) * 8  # one float64 per piece
    assert peak <= 5 * block_bytes + 8 * (z.lo.nbytes + z.hi.nbytes)
    want = rotations_avoiding_zero_sets(float_copy(z), float_copy(z), grid)
    np.testing.assert_array_equal(out, want)


def test_difference_sweep_memory_is_a_few_blocks():
    # the sweep of rest against part is a blocked sweep of a second set of
    # at most |B| + one block of intervals, and the joins that build part
    # hold less than its wrap does
    z = SWEEP_SETS[1]
    grid = np.arange(512) * (TAU / 512) + 1e-3
    peak, _ = traced_peak(rotations_avoiding_zero_sets, z, z, grid)
    block_bytes = _SWEEP_BLOCK_ELEMS * 8
    assert peak <= 5 * block_bytes + 8 * 16 * (len(z) + _SWEEP_BLOCK_ELEMS)


@pytest.mark.parametrize(
    "za, zb",
    [
        (IntervalSet.from_pairs([(0, 1)]), IntervalSet.from_pairs([(0, 1), (10**9, 10**9 + 1)])),
        (build_cantor(CantorSpec((0, 10**6), (Fraction(9, 10),) * 5)),) * 2,
    ],
    ids=["one interval, wide partner", "wide spec-built"],
)
def test_a_difference_spanning_many_turns_sweeps_in_one_pass(monkeypatch, za, zb):
    # D spans up to 1.6e8 turns of 2*pi; its wrap, not a loop over turns, meets the angles
    calls = count_block_sweeps(monkeypatch)
    grid = np.arange(512) * (TAU / 512) + 1e-3
    got = np.isin(grid, rotations_avoiding_zero_sets(za, zb, grid))
    assert len(calls) == 1
    want = np.isin(grid, rotations_avoiding_zero_sets(float_copy(za), float_copy(zb), grid))
    far = ~near_difference_ends(za, zb, grid)
    np.testing.assert_array_equal(got[far], want[far])


def test_a_full_turn_difference_interval_blocks_every_angle(monkeypatch):
    # no interval is 2*pi long, the difference [-4, 3] is
    za, zb = IntervalSet.from_pairs([(0, 4), (10, 14)]), IntervalSet.from_pairs([(0, 3)])
    calls = count_block_sweeps(monkeypatch)
    grid = np.arange(16) * (TAU / 16)
    assert rotations_avoiding_zero_sets(za, zb, grid).size == 0
    (swept, part), = calls
    assert is_points(swept) and part.as_fractions() == [(-14, -7), (-4, 3)]
    assert rotations_avoiding_zero_sets(float_copy(za), float_copy(zb), grid).size == 0


@pytest.mark.parametrize("empty_first", [True, False])
def test_every_rotation_avoids_an_empty_set_beside_a_factoring_one(empty_first):
    args = (IntervalSet.from_pairs([]), SWEEP_SETS[0])
    grid = np.arange(16) * (TAU / 16)
    out = rotations_avoiding_zero_sets(*(args if empty_first else args[::-1]), grid)
    np.testing.assert_array_equal(out, grid)


def test_validate_takes_the_edge_vectors_once(monkeypatch):
    c = circle_curve(64, radius=2.0)
    calls = []
    edges = ConvexCurve.edge_vectors

    def counted(self):
        calls.append(1)
        return edges(self)

    monkeypatch.setattr(ConvexCurve, "edge_vectors", counted)
    c.validate()
    assert len(calls) == 1
    # a convex loop walked twice turns 4*pi: the turning check sees the same edges
    th = np.arange(64) * (2.0 * TAU / 64)
    twice = ConvexCurve(
        2.0 * np.column_stack([np.cos(th), np.sin(th)]), np.sort(np.mod(th, TAU)),
        np.full(64, 0.5), 1,
    )
    with pytest.raises(ValidationError, match="total turning .* is not 2\\*pi"):
        twice.validate()
    assert twice.total_turning() == pytest.approx(2.0 * TAU)
