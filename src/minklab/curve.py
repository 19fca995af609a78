"""Closed convex curves glued from graded hinge smoothings, plus
support-function calculus for plane convex bodies.

Assembly lays the smoothings along a base segment in a two-half
middle-marking pattern: the segment splits into two equal halves, each half
marks its middle interval, bends there, and recurses into the flanking
pieces, so the depth-``m`` smoothing appears ``2**m`` times.  Because the
schedule normalizes the total bend to ``pi/n``, the swept normal directions
of the smoothings tile an arc of exactly ``pi/n`` and ``2n`` rotated copies
close up into a convex curve: copy ``j`` is copy 0 rotated about the center
by ``j*pi/n``, a center at which each copy starts where the one before
ends.  Curvature vanishes exactly at the junction angles between
consecutive smoothings; those angles follow a middle-removal (Cantor-like)
pattern recorded in :class:`GaussZeroSet`.  Between its flat ends each
smoothing's exact ``F''`` is certified positive when it is built
(:func:`~minklab.hinge.build_smoothing`); the sampled polyline is checked
only for convexity, turning, monotone normals and symmetry.

:class:`SupportFn` samples support functions on the grid ``k * 2*pi / N``
with exact first/second data (curvature radius ``rho = h + h''``), which
makes Minkowski sums pointwise additions; a flat normal has ``h'' = +inf``,
and ``inf + x = inf`` carries it exactly through sums.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .cantor import IntervalSet, _float_ends, _joined_sum, _meets, wrap_mod
from .errors import (
    ArgumentError,
    CapabilityError,
    ConstructionError,
    HypothesisError,
    ValidationError,
)
from .fn_core import SmoothFn, _check_grid_n, _check_int, invert_monotone, newton_pair
from .hinge import HingeSchedule, SmoothingResult

__all__ = [
    "ConvexCurve",
    "CurveAtlas",
    "GaussZeroSet",
    "SupportFn",
    "TransferReport",
    "assemble_curve",
    "curvature_transfer_check",
    "minkowski_sum",
    "refinement_intervals",
    "rotations_avoiding_zero_sets",
]

TAU = 2.0 * math.pi
# Curvature at or below this fraction of the largest template curvature
# is zero: the curvature radius is ``inf`` there, a flat normal.
_FLAT_TOL = 1e-8
# Relative tolerance of the float invariant checks (convexity, monotone
# normals, symmetry, zero-set membership, curvature-radius sign),
# and the allowed defect of the total turning from 2*pi.
_VALIDATE_TOL = 1e-9
_TURNING_TOL = 1e-6
# Level-1 template edges (halved per level, at least 32) and the sample
# count of the stage-monotonicity comparison.
_BASE_EDGES = 512
_STAGE_GRID_N = 4097
# grid angles per block of the rotation sweep times intervals of the rotated
# set: its float temporaries are 64 KiB, under glibc's 128 KiB mmap
# threshold, above which each would be page-faulted afresh; 2**12 pays more
# per-block overhead.  The sweep's level joins may also grow the difference
# set to this many intervals past the second set.
_SWEEP_BLOCK_ELEMS = 1 << 13


# ---------------------------------------------------------------------------
# smoothing templates and their placement along one arc
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _Template:
    """Sampled graph data of one smoothing level, in its own frame."""

    level: int
    sm: SmoothingResult
    z: np.ndarray  # complex graph points x + 1j * F(x), x in [-d, d] with both ends
    tau: np.ndarray  # tangent angle arctan(F')
    kappa: np.ndarray  # curvature F'' / (1 + F'^2)^(3/2)

    @property
    def turn(self) -> float:
        return 2.0 * self.sm.gamma


def _build_templates(smoothings: Sequence[SmoothingResult], base_edges: int) -> list[_Template]:
    out = []
    for m, sm in enumerate(smoothings, start=1):
        edges = max(32, base_edges >> (m - 1))
        xs = np.linspace(-sm.d, sm.d, edges + 1)
        jet = sm.F.jet(xs, 2)
        val, slope, d2 = jet[0], jet[1], jet[2]
        kappa = d2 / (1.0 + slope * slope) ** 1.5
        out.append(_Template(m, sm, xs + 1j * val, np.arctan(slope), kappa))
    return out


def _half_order(m_max: int) -> list[int]:
    """In-order level sequence of one half-tree (level m recurses to m+1)."""
    seq: list[int] = []

    def rec(m: int) -> None:
        if m > m_max:
            return
        rec(m + 1)
        seq.append(m)
        rec(m + 1)

    rec(1)
    return seq


def _walk(templates: Sequence[_Template], order: Sequence[int], built: int):
    """Lay the instances of ``order`` down along one arc, stage ``built``.

    The turtle starts at the origin heading along +x.  An instance of level
    <= ``built`` is placed tangent to the current heading and turns it by
    ``2*gamma``; a deeper one is a straight step along its induced hinge.
    Returns the complex polyline, its end point, and per instance the
    template-frame rotation it is (or would be) placed with, its left
    endpoint and the heading there, plus the final heading; with
    ``built = m_max`` this is the assembled arc and its atlas table.
    """
    inst_rot = np.empty(len(order))
    inst_base = np.empty(len(order), dtype=complex)
    inst_gauss = np.empty(len(order) + 1)
    pts: list[np.ndarray] = [np.array([0j])]
    pos = 0j
    psi = 0.0
    for i, m in enumerate(order):
        t = templates[m - 1]
        rot = psi + t.sm.gamma
        inst_rot[i], inst_base[i], inst_gauss[i] = rot, pos, psi
        if m <= built:
            ph = cmath.exp(1j * rot)
            pts.append(pos + ph * (t.z[1:] - t.z[0]))
            pos = pos + ph * (t.z[-1] - t.z[0])
            psi += t.turn
        else:
            pos = pos + (t.sm.hinge_out.l + t.sm.hinge_out.r) * cmath.exp(1j * psi)
            pts.append(np.array([pos]))
    inst_gauss[-1] = psi
    return np.concatenate(pts), pos, inst_rot, inst_base, inst_gauss


def _check_stage_monotone(templates: Sequence[_Template]):
    """Assert the stage graphs only move up: h_k <= h_{k+1} pointwise.

    Stage ``k`` is ``_walk(templates, order, k)``; the last, at the depth
    ``len(templates)``, is the assembled arc itself, and its walk is
    returned.  Each bend rotates the tail upward and each smoothing lies
    above its hinge's tangent lines, so later stages dominate earlier ones;
    a failure means the placement itself is wrong.
    """
    m_max = len(templates)
    order = _half_order(m_max) * 2
    walks = [_walk(templates, order, k) for k in range(m_max + 1)]
    polys = [w[0] for w in walks]
    # straight steps carry no interpolation error; only the sampled
    # smoothing pieces cut below their true graphs, by at most the local
    # chord sagitta max(|dz|)^2 * kappa / 8 of each template
    sagitta = max(
        float(np.max(np.abs(np.diff(t.z))) ** 2 * np.max(t.kappa)) / 8.0
        for t in templates
    )
    if any(np.any(np.diff(p.real) <= 0.0) for p in polys):
        raise ConstructionError("stage polyline is not a graph over the base segment")
    for k in range(m_max):
        a, b = polys[k], polys[k + 1]
        hi = min(a.real[-1], b.real[-1])
        xs = np.linspace(0.0, hi, _STAGE_GRID_N)
        ya = np.interp(xs, a.real, a.imag)
        yb = np.interp(xs, b.real, b.imag)
        tol = 2.0 * sagitta + 1e-12 * (1.0 + hi)
        gap = float(np.min(yb - ya))
        if gap < -tol:
            raise ConstructionError(
                f"assembly stage {k + 1} dips below stage {k} by {-gap:.3e} "
                f"(allowed {tol:.3e}); bending must only lift the graph"
            )
    return walks[-1]


# ---------------------------------------------------------------------------
# curve and zero-set containers
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class CurveAtlas:
    """Exact placement data of every smoothing copy on the closed curve.

    Everything the polyline cannot answer exactly (support points, curvature
    radii at prescribed normals) is recomputed from the templates through
    this atlas.  Its instances are those of copy 0; copy ``j`` is copy 0
    rotated about ``center`` by ``j*pi/n`` (:func:`_copy`, as in the
    polyline), and ``center`` is the point that makes each copy start where
    the one before ends.
    """

    n: int
    templates: list[_Template]  # one per level 1..m_max
    inst_level: np.ndarray  # (K,) level of each arc instance, traversal order
    inst_rot: np.ndarray  # (K,) template-frame rotation, arc frame
    inst_base: np.ndarray  # (K,) complex position of the left endpoint
    inst_gauss: np.ndarray  # (K+1,) normal-angle sweep boundaries in [0, pi/n]
    center: complex  # fixed point of the copy rotations, arc frame

    @property
    def arc_turn(self) -> float:
        return math.pi / self.n

    def support_data(self, theta) -> dict[str, np.ndarray]:
        """Exact boundary point / curvature radius at outward-normal ``theta``.

        Returns the complex boundary points (final frame) and the curvature
        radius ``rho``.  ``rho`` is ``inf`` where the touching point is
        flat, that is where its template curvature is at most ``_FLAT_TOL``
        times the largest one.  There the touching set may be a segment,
        and the point returned is whichever point of it the inversion lands
        on.  A non-finite angle raises :class:`ArgumentError`.
        """
        th = np.asarray(theta, dtype=float)
        if not np.all(np.isfinite(th)):
            raise ArgumentError("normal angles must be finite")
        th = np.mod(th, TAU)
        arc = self.arc_turn
        copies = 2 * self.n
        j = np.minimum((th / arc).astype(int), copies - 1)
        loc = th - j * arc
        k = np.clip(
            np.searchsorted(self.inst_gauss, loc, side="right") - 1,
            0,
            self.inst_level.size - 1,
        )
        # the sweep boundaries are closed on the left; a query exactly on a
        # boundary resolves into the instance that starts there
        pts = np.empty(th.shape, dtype=complex)
        rho = np.empty(th.shape, dtype=float)
        kappa_max = max(float(np.max(t.kappa)) for t in self.templates)
        kappa_floor = _FLAT_TOL * kappa_max
        for tpl in self.templates:
            sel = np.nonzero(self.inst_level[k] == tpl.level)[0]
            if sel.size == 0:
                continue
            F = tpl.sm.F
            d = tpl.sm.d
            # each distinct slope is inverted, and each distinct touching
            # point solved, once; rows depend on their point only
            tgt, per_tgt = np.unique(np.tan(loc[sel] - self.inst_rot[k[sel]]), return_inverse=True)
            xs, per_x = np.unique(invert_monotone(*newton_pair(F.slope_rows), tgt, -d, d), return_inverse=True)
            back = per_x[per_tgt]
            val, slope, d2 = F.jet(xs, 2)[:, back]
            xs = xs[back]
            zpts = self.inst_base[k[sel]] + np.exp(1j * self.inst_rot[k[sel]]) * (
                xs + 1j * val - tpl.z[0]
            )
            pts[sel] = _copy(zpts, j[sel], self.n, self.center)
            scale = (1.0 + slope * slope) ** 1.5
            zero = d2 <= kappa_floor * scale
            with np.errstate(divide="ignore"):
                r = np.where(zero, np.inf, scale / np.where(zero, 1.0, d2))
            rho[sel] = r
        return {"point": pts, "rho": rho}


def _copy(z, j, n: int, center: complex):
    """Arc-frame points ``z`` of copy 0 rotated about ``center`` by ``j*pi/n``, in the curve's frame.

    ``j`` is one copy index or one per point; the curve's frame is the arc
    frame turned by a quarter turn, so copy 0 starts at normal angle 0.
    """
    return 1j * np.exp(1j * (j * (math.pi / n))) * (z - center)


@dataclass(eq=False)
class ConvexCurve:
    """Closed convex polyline with per-vertex normal angles and curvature.

    ``boundary`` holds the vertices once (the closing edge back to vertex 0
    is implicit), positively oriented.  ``gauss_angle`` is the outward
    normal angle in [0, 2*pi), non-decreasing along the curve; ``curvature``
    the signed curvature (>= 0).  Where the curvature vanishes is certified
    on the exact smoothings, not on these samples: each one's ``F''`` is
    checked when it is built, and :class:`GaussZeroSet` holds the junction
    angles.
    """

    boundary: np.ndarray
    gauss_angle: np.ndarray
    curvature: np.ndarray
    symmetry_order: int
    atlas: CurveAtlas | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        n = self.boundary.shape[0]
        if self.boundary.ndim != 2 or self.boundary.shape[1] != 2 or n < 3:
            raise ArgumentError("boundary must be an (N, 2) array with N >= 3")
        if self.gauss_angle.shape != (n,) or self.curvature.shape != (n,):
            raise ArgumentError("per-vertex arrays must match the boundary length")
        if self.symmetry_order < 1:
            raise ArgumentError("symmetry_order must be a positive integer")
        # every check of validate is a comparison, which a NaN passes silently
        if not all(np.all(np.isfinite(a)) for a in (self.boundary, self.gauss_angle, self.curvature)):
            raise ArgumentError("boundary, gauss_angle and curvature must be finite")

    # -- measurements ---------------------------------------------------

    def edge_vectors(self) -> np.ndarray:
        """Edge ``i`` runs from vertex ``i`` to ``i + 1``; the last closes the loop."""
        return _with_next(np.subtract, self.boundary, self.boundary, np.empty_like(self.boundary))

    def total_turning(self) -> float:
        """Winding of the edge directions, 2*pi for a convex positive loop."""
        return _turning(self.edge_vectors())

    def symmetry_gap(self) -> float:
        """Mismatch of the boundary against its own 2*pi/order rotation, one copy block at a time."""
        order = self.symmetry_order
        if order == 1:
            return 0.0
        n = self.boundary.shape[0]
        if n % order != 0:
            return float("inf")
        shift, b = n // order, self.boundary

        def block(k):  # vertices k * shift .. (k + 1) * shift - 1, cyclically, as complex points
            rows = slice(k % order * shift, (k % order + 1) * shift)
            return b[rows, 0] + 1j * b[rows, 1]

        ph = cmath.exp(1j * TAU / order)
        return float(np.max([np.max(np.abs(block(k + 1) - block(k) * ph)) for k in range(order)]))

    def validate(self) -> None:
        """Check convexity, turning, monotone normals and symmetry.

        Beyond the curve's own arrays it holds the edge vectors and at most
        three more per-vertex float arrays at a time.
        """
        e = self.edge_vectors()
        cross, length = _cross_and_length(e)
        bound = _with_next(np.multiply, length, length, np.empty(length.size))
        if np.any(cross < np.multiply(bound, -_VALIDATE_TOL, out=bound)):
            scale = _with_next(np.multiply, length, length, bound)
            worst = float(np.min(cross / np.maximum(scale, 1e-300)))
            raise ValidationError(f"boundary is not convex: min cross ratio {worst:.3e}")
        del cross, bound, length
        turn = _turning(e)
        del e
        if abs(turn - TAU) > _TURNING_TOL:
            raise ValidationError(f"total turning {turn!r} is not 2*pi")
        if np.any(np.diff(self.gauss_angle) < -_VALIDATE_TOL):
            raise ValidationError("gauss_angle is not non-decreasing")
        wrap = self.gauss_angle[0] + TAU - self.gauss_angle[-1]
        if wrap < -_VALIDATE_TOL:
            raise ValidationError("gauss_angle exceeds one full revolution")
        diam = max(float(np.max(self.boundary)), -float(np.min(self.boundary)))
        if self.symmetry_gap() > _VALIDATE_TOL * max(diam, 1.0):
            raise ValidationError(
                f"boundary is not invariant under rotation by 2*pi/{self.symmetry_order}"
            )


def _with_next(ufunc, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``ufunc(b[i + 1], a[i])`` into ``out[i]`` along axis 0, cyclically, with no rolled copy."""
    ufunc(b[1:], a[:-1], out=out[:-1])
    ufunc(b[:1], a[-1:], out=out[-1:])
    return out


def _cross_and_length(e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cross product of each edge with the next one, and each edge's length."""
    ex, ey = e[:, 0], e[:, 1]
    cross = _with_next(np.multiply, ex, ey, np.empty(ex.size))
    cross -= _with_next(np.multiply, ey, ex, np.empty(ex.size))
    length = ex * ex
    length += ey * ey
    return cross, np.sqrt(length, out=length)


def _turning(e: np.ndarray) -> float:
    """Sum of the turns between consecutive edge vectors ``e``, each in ``[-pi, pi)``."""
    ang = np.arctan2(e[:, 1], e[:, 0])
    d = _with_next(np.subtract, ang, ang, np.empty(ang.size))
    d += math.pi
    np.mod(d, TAU, out=d)
    d -= math.pi
    return float(np.sum(d))


@dataclass(eq=False)
class GaussZeroSet:
    """Normal angles with vanishing curvature.

    ``Z`` holds them as a point set in ``[0, 2*pi)``: on the assembled
    curve these are the junction angles between consecutive smoothings,
    one point per junction.
    """

    Z: IntervalSet

    def validate(self, *, symmetry_order: int | None = None) -> None:
        """Check that ``Z`` is a non-empty point set mapped onto itself.

        Negation, and rotation by ``2*pi/symmetry_order`` when an order is
        given, must pair every point with an image point within the
        validation tolerance.
        """
        lo, hi = _float_ends(self.Z)
        if lo.size == 0:
            raise ValidationError("zero set is empty")
        if not np.array_equal(lo, hi):
            raise ValidationError("zero set is not a finite point set")
        z = np.sort(np.mod(lo, TAU))
        if symmetry_order is not None and symmetry_order > 1:
            if _pair_gap(z, z + TAU / symmetry_order) > _VALIDATE_TOL:
                raise ValidationError("zero set is not rotation invariant")
        if _pair_gap(z, -z) > _VALIDATE_TOL:
            raise ValidationError("zero set is not symmetric under angle negation")


def _pair_gap(z: np.ndarray, image: np.ndarray) -> float:
    """Largest circular distance between angles ``z`` and ``image``, paired in order.

    ``z`` is sorted and lies in ``[0, 2*pi)``.  The image is reduced mod
    2*pi, sorted, and rolled so that its point nearest ``z[0]`` comes
    first; the seam at 0 = 2*pi then needs no special case.  One point too
    many or too few on either side shifts the pairing and shows as a gap of
    the order of the point spacing.
    """
    w = np.sort(np.mod(image, TAU))
    near = np.mod(w - z[0] + math.pi, TAU) - math.pi
    d = np.roll(w, -int(np.argmin(np.abs(near)))) - z
    return float(np.max(np.abs(np.mod(d + math.pi, TAU) - math.pi)))


def _junction_set(junctions: np.ndarray, m_max: int) -> GaussZeroSet:
    """The zero set of the assembled curve: its junction angles as points.

    Junctions that coincide as floats raise :class:`CapabilityError`: the
    gaps of the deepest level are then below the float resolution of an
    angle, and merging them would hide junctions.
    """
    z = np.unique(junctions)
    if z.size < junctions.size:
        raise CapabilityError(
            f"{junctions.size - z.size} of {junctions.size} junction angles coincide "
            f"as floats at m_max = {m_max}; float angles cannot resolve this depth"
        )
    return GaussZeroSet(Z=IntervalSet(z, z, None))


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def refinement_intervals(gammas: Sequence[float], depth: int) -> list[tuple[float, float]]:
    """Surviving normal-angle intervals after removing levels <= ``depth``.

    The full sweep of one arc tiles ``[0, sum_m 2**(m+1) gamma_m]``; at
    refinement depth ``q`` the sweeps of levels ``1..q`` are removed and each
    remaining interval is the angular span of one unresolved subtree.
    """
    g = [float(x) for x in gammas]
    m_max = len(g)
    if not 0 <= depth < m_max:
        raise ArgumentError("depth must satisfy 0 <= depth < len(gammas)")
    span = {m_max + 1: 0.0}
    for m in range(m_max, 0, -1):
        span[m] = 2.0 * span[m + 1] + 2.0 * g[m - 1]
    out: list[tuple[float, float]] = []

    def rec(m: int, t0: float) -> None:
        if m > depth:
            out.append((t0, t0 + span.get(m, 0.0)))
            return
        rec(m + 1, t0)
        rec(m + 1, t0 + span[m + 1] + 2.0 * g[m - 1])

    rec(1, 0.0)
    rec(1, span[1])
    return out


def assemble_curve(f: SmoothFn, schedule: HingeSchedule, m_max: int) -> tuple[ConvexCurve, GaussZeroSet]:
    """Assemble the closed convex curve of a smoothing schedule.

    The smoothings of ``schedule`` are placed along a base segment in the
    two-half middle-marking pattern (level ``m`` appears ``2**m`` times),
    each one tangent to the incoming direction and advancing it by
    ``2*gamma_m``.  One pass must sweep the normals ``[0, pi/n]`` with
    ``n = schedule.n``; this is assembly's one turn-sum check, and a miss
    raises :class:`HypothesisError`.  Copy ``j`` is copy 0 rotated about the
    center ``pos / (1 - e^{i pi/n})`` by ``j*pi/n``, as in the atlas; the
    center of the arc's end point ``pos`` makes each copy start where the
    one before ends, so the ``2n`` copies close by definition, and the seam
    is tangent because the sweep is ``pi/n``.  Returns the sampled curve
    (with its exact placement atlas attached) and its junction angles as a
    :class:`GaussZeroSet`; junction angles that coincide as floats raise
    :class:`CapabilityError`.

    Each copy is written straight into the curve's ``boundary``,
    ``gauss_angle`` and ``curvature``: beyond them the assembly holds only
    per-copy temporaries and what :meth:`ConvexCurve.validate` holds.
    ``f`` is not read, and ``m_max`` must be the schedule's depth: the
    smoothings carry all the data the assembly uses.  Both parameters stay
    while the benchmark's construct workload passes them.
    """
    if not isinstance(schedule, HingeSchedule):
        raise ArgumentError(f"schedule must be a HingeSchedule, got {type(schedule).__name__}")
    _check_int(m_max, "m_max")
    if m_max != len(schedule.smoothings):
        raise ArgumentError(f"m_max must be the schedule's depth {len(schedule.smoothings)}, got {m_max}")
    n = schedule.n
    templates = _build_templates(schedule.smoothings, _BASE_EDGES)
    arc_z, pos, inst_rot, inst_base, inst_gauss = _check_stage_monotone(templates)

    # --- one arc: instances, polyline, zero structure -------------------
    order = _half_order(m_max) * 2
    arc = math.pi / n
    if abs(inst_gauss[-1] - arc) > 1e-9:
        raise HypothesisError(
            f"arc sweeps {float(inst_gauss[-1])!r} instead of pi/n = {arc!r} for n = {n}; "
            f"the schedule's turns do not sum to pi/n"
        )
    copies = 2 * n
    # every junction between consecutive smoothings is a zero-curvature angle
    zset = _junction_set(np.concatenate([inst_gauss[:-1] + j * arc for j in range(copies)]), m_max)
    tpls = [templates[m - 1] for m in order]
    arc_g = np.concatenate([[0.0]] + [r + t.tau[1:] for r, t in zip(inst_rot, tpls)])
    arc_k = np.concatenate([[0.0]] + [t.kappa[1:] for t in tpls])

    # --- close with 2n rotated copies -----------------------------------
    # the center's definition makes copy j end where copy j + 1 starts
    center = pos / (1.0 - cmath.exp(1j * arc))

    # copy j > 0 starts after the point it shares with copy j - 1, and the
    # last copy's final point (vertex 0 again) is dropped
    seg = arc_z.size - 1
    n_vert = copies * seg
    boundary = np.empty((n_vert, 2))
    full_g = np.empty(n_vert)
    full_k = np.empty(n_vert)
    for j in range(copies):
        first = 0 if j == 0 else 1
        lo, hi = j * seg + first, min((j + 1) * seg + 1, n_vert)
        sl = slice(first, first + hi - lo)
        final = _copy(arc_z[sl], j, n, center)
        boundary[lo:hi, 0] = final.real
        boundary[lo:hi, 1] = final.imag
        np.add(arc_g[sl], j * arc, out=full_g[lo:hi])
        full_k[lo:hi] = arc_k[sl]

    atlas = CurveAtlas(
        n=n,
        templates=templates,
        inst_level=np.array(order, dtype=int),
        inst_rot=inst_rot,
        inst_base=inst_base,
        inst_gauss=inst_gauss,
        center=center,
    )
    curve = ConvexCurve(
        boundary=boundary,
        gauss_angle=full_g,
        curvature=full_k,
        symmetry_order=copies,
        atlas=atlas,
    )

    curve.validate()
    zset.validate(symmetry_order=copies)
    return curve, zset


# ---------------------------------------------------------------------------
# support functions
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class SupportFn:
    """Support function samples on the uniform angular grid ``k * 2*pi / N``.

    ``h`` is the support value, ``dh``/``d2h`` its first and second angular
    derivatives at the ``N = h.size`` grid angles :attr:`theta`; the
    curvature radius of the boundary at normal ``theta`` is
    ``rho = h + d2h``, which is additive under Minkowski sums.  At a flat
    normal, where the touching boundary point has zero curvature, ``d2h``
    is ``+inf`` (:attr:`flat` reads it off); ``dh`` there belongs to
    whichever point of the flat piece the support inversion returned, not
    to a one-sided derivative of ``h``.

    Every constructor maps the grid angles to the boundary points they
    touch and the curvature radii there, and hands both to one builder,
    :meth:`_from_points`; ``_check_grid_n`` with its floor of 8 is the one
    sample-count check.
    """

    h: np.ndarray
    dh: np.ndarray
    d2h: np.ndarray

    def __post_init__(self):
        if np.ndim(self.h) != 1:
            raise ArgumentError(f"h must be a 1-D array, got shape {np.shape(self.h)}")
        n = self.h.size
        _check_grid_n(n, 8, "h")
        if self.dh.shape != (n,) or self.d2h.shape != (n,):
            raise ArgumentError("h, dh and d2h must have equal lengths")
        # validate's comparisons pass a NaN silently, and d2h = -inf would be
        # a curvature radius of -inf; d2h is +inf where flat
        if not (np.all(np.isfinite(self.h)) and np.all(np.isfinite(self.dh)) and np.all(self.d2h > -math.inf)):
            raise ArgumentError("h and dh must be finite and d2h neither NaN nor -inf")

    @property
    def theta(self) -> np.ndarray:
        return self.grid(self.h.size)

    @property
    def flat(self) -> np.ndarray:
        return np.isposinf(self.d2h)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def grid(grid_n: int) -> np.ndarray:
        _check_grid_n(grid_n, 8)
        return np.arange(grid_n) * (TAU / grid_n)

    @classmethod
    def _from_points(cls, theta, points, rho) -> "SupportFn":
        """Support data from the boundary point touched at each grid normal.

        ``points`` are complex boundary points and ``rho`` the curvature
        radii there, ``inf`` at a flat normal (arrays or scalars broadcast
        over ``theta``).  In the frame of the normal,
        ``w = point * e^{-i theta}`` has ``h = Re w`` and ``h' = Im w``;
        then ``h'' = rho - h``.
        """
        phase = np.exp(-1j * theta)
        w = points * phase
        h = np.real(w)
        with np.errstate(invalid="ignore"):
            d2h = rho - h
        return cls(h=h, dh=np.imag(w), d2h=d2h)

    @classmethod
    def ellipse(cls, a: float, b: float, *, grid_n: int = 1 << 16) -> "SupportFn":
        if not (a > 0 and b > 0 and np.all(np.isfinite([a, b]))):
            raise ArgumentError(f"semi-axes must be positive and finite: {a!r}, {b!r}")
        th = cls.grid(grid_n)
        c, s = np.cos(th), np.sin(th)
        # no squared axis: they overflow past about 1e154 and underflow below 1e-154
        he = np.hypot(a * c, b * s)
        pts = a * (a * c / he) + 1j * (b * (b * s / he))
        rho = (a / he) * (b / he) * (a * (b / he))
        return cls._from_points(th, pts, rho)

    @classmethod
    def from_curve(cls, curve: ConvexCurve, *, grid_n: int = 1 << 16) -> "SupportFn":
        """Exact support samples of an assembled curve via its atlas."""
        if curve.atlas is None:
            raise ArgumentError(
                "support extraction needs the placement atlas produced by "
                "assemble_curve"
            )
        th = cls.grid(grid_n)
        data = curve.atlas.support_data(th)
        return cls._from_points(th, data["point"], data["rho"])

    # -- calculus ----------------------------------------------------------

    def rho(self) -> np.ndarray:
        return self.h + self.d2h

    def kappa(self) -> np.ndarray:
        """Curvature ``1 / rho``: 0 at a flat normal, where ``rho`` is ``inf``."""
        with np.errstate(divide="ignore"):
            return 1.0 / self.rho()

    def reconstruct(self) -> np.ndarray:
        """Boundary points h*u + h'*u_perp at every grid angle."""
        c, s = np.cos(self.theta), np.sin(self.theta)
        return np.column_stack([self.h * c - self.dh * s, self.h * s + self.dh * c])

    def validate(self) -> None:
        r = self.rho()
        finite = ~self.flat
        scale = float(np.max(np.abs(self.h))) + 1.0
        if np.any(r[finite] < -_VALIDATE_TOL * scale):
            raise ValidationError(
                f"curvature radius h + h'' dips to {float(np.min(r[finite])):.3e}"
            )


def minkowski_sum(a: SupportFn, b: SupportFn) -> SupportFn:
    """Pointwise sum of support data; ``inf + d2h = inf`` keeps either summand's flat normals."""
    if a.h.size != b.h.size:
        raise ArgumentError("support functions live on different angular grids")
    return SupportFn(h=a.h + b.h, dh=a.dh + b.dh, d2h=a.d2h + b.d2h)


@dataclass(frozen=True)
class TransferReport:
    """Curvature bookkeeping of a Minkowski sum at selected normals."""

    theta: np.ndarray
    rho_sum: np.ndarray
    kappa_sum: np.ndarray
    additive_gap: float
    discrete_gap: float
    transfer_ok: bool


def curvature_transfer_check(a: SupportFn, b: SupportFn, theta) -> TransferReport:
    """Check curvature-radius additivity and zero transfer at given normals.

    Requires ``a`` to have strictly positive curvature at every requested
    angle; under that hypothesis the sum's curvature vanishes exactly where
    ``b``'s does.  Angles snap to the common grid; a non-finite one raises
    :class:`ArgumentError`.  ``additive_gap`` is the worst defect of
    ``rho_a + rho_b == rho_sum`` over the finite entries, and
    ``discrete_gap`` cross-checks the stored second derivatives of the sum
    against central differences of its support values.
    """
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    if not np.all(np.isfinite(th)):
        raise ArgumentError("normal angles must be finite")
    n = a.h.size
    stepw = TAU / n
    # reduce before the cast: a huge angle overflows the integer index
    idx = np.mod(np.round(np.mod(th, TAU) / stepw).astype(int), n)
    snapped = a.theta[idx]
    # a flat normal has kappa 0
    ka = a.kappa()[idx]
    if np.any(ka <= 0.0):
        raise HypothesisError(
            "first body must have strictly positive curvature at the "
            "requested angles"
        )
    s = minkowski_sum(a, b)
    ra, rb, rs = a.rho()[idx], b.rho()[idx], s.rho()[idx]
    kb, ks = b.kappa()[idx], s.kappa()[idx]
    finite = np.isfinite(rb)
    additive = float(np.max(np.abs(ra[finite] + rb[finite] - rs[finite]), initial=0.0))
    # independent second-difference probe of the summed support values
    ip, im = np.mod(idx + 1, n), np.mod(idx - 1, n)
    d2_disc = (s.h[ip] - 2.0 * s.h[idx] + s.h[im]) / stepw**2
    s_flat = s.flat
    ok_disc = finite & ~s_flat[ip] & ~s_flat[im]
    discrete = float(np.max(np.abs(d2_disc - s.d2h[idx])[ok_disc], initial=0.0))
    transfer_ok = bool(np.all((ks == 0.0) == (kb == 0.0)))
    return TransferReport(
        theta=snapped,
        rho_sum=rs,
        kappa_sum=ks,
        additive_gap=additive,
        discrete_gap=discrete,
        transfer_ok=transfer_ok,
    )


def rotations_avoiding_zero_sets(z_a, z_b, angle_grid) -> np.ndarray:
    """Grid angles whose rotation of the first zero set misses the second.

    Both arguments may be :class:`GaussZeroSet` or plain interval sets.
    Rotating ``A`` by ``theta`` meets ``B`` iff ``theta`` lies in
    ``(B - A) mod 2*pi``.  The test runs in floats for every angle at once,
    in blocks of angles: the first set's endpoints are translated by each
    reduced grid angle and reduced mod 2*pi as
    :func:`~minklab.cantor.wrap_mod` reduces them, and every piece is looked
    up in the wrapped second set.  Cost ``O(angles * |A| * log|B|)``; memory
    a few blocks of ``_SWEEP_BLOCK_ELEMS`` elements and a few copies of the
    second set.

    An exact pair of which one set factors as ``[lo_0, hi_0] + sum_l {0, t_l}``
    (every set from :func:`~minklab.cantor.build_cantor` does, also
    translated or negated) first joins levels of ``D = B - A`` as
    :func:`~minklab.cantor.sum_sets` does, finest first, while ``D`` stays
    within ``|B| + _SWEEP_BLOCK_ELEMS`` intervals.  With ``rest`` the points
    ``sum {0, t_l}`` of the levels left, ``D = part + rest``, and the blocks
    sweep ``-rest`` against ``part`` when ``rest`` has fewer points than
    ``A`` has intervals: ``O(sum_l |T_l| + angles * |rest| * log|part|)``,
    with ``|rest| = 1`` once every level joins.  Memory stays that of the
    blocked sweep of a second set of at most ``|B| + _SWEEP_BLOCK_ELEMS``
    intervals.
    Float sets, so every ``GaussZeroSet``, and exact sets that do not
    factor sweep as they are.

    An interval of ``A`` or of ``D`` at least 2*pi long blocks every angle.
    A non-finite grid angle raises :class:`ArgumentError`.
    """
    za = z_a.Z if isinstance(z_a, GaussZeroSet) else z_a
    zb = z_b.Z if isinstance(z_b, GaussZeroSet) else z_b
    grid = np.asarray(angle_grid, dtype=float).ravel()
    if not np.all(np.isfinite(grid)):
        raise ArgumentError("rotation angles must be finite")
    if len(za) == 0 or len(zb) == 0:
        return grid.copy()
    if za.exact and zb.exact:
        joined = _joined_sum(zb, za.negate(), _SWEEP_BLOCK_ELEMS + len(zb))
        # B - A = part + rest, so A + theta meets B iff -rest + theta meets part
        if joined is not None and len(joined[1]) < len(za):
            za, zb = joined[1].negate(), joined[0]
    return grid[_avoids_in_blocks(za, zb, grid)]


def _avoids_in_blocks(za: IntervalSet, zb: IntervalSet, grid: np.ndarray) -> np.ndarray:
    """Per grid angle: does ``za`` rotated by it miss ``zb``?  In blocks of angles."""
    blo, bhi = _float_ends(wrap_mod(zb, TAU))
    alo, ahi = _float_ends(za)
    avoids = np.empty(grid.size, dtype=bool)
    rows = max(1, _SWEEP_BLOCK_ELEMS // alo.size)
    for start in range(0, grid.size, rows):
        # reduce before the add: a huge angle would round the endpoints away
        delta = np.mod(grid[start : start + rows, None], TAU)
        # one statement each, so the last block's arrays go before these come
        lo = alo + delta
        hi = ahi + delta
        blocked = np.any(hi - lo >= TAU, axis=1)
        shift = np.floor(lo / TAU) * TAU
        lo -= shift
        hi -= shift
        del shift
        # a piece crossing 2*pi splits into [lo, 2*pi] and [0, hi - 2*pi]
        wrap = hi > TAU
        over = hi[wrap] - TAU
        hits = _meets(blo, bhi, lo, np.minimum(hi, TAU, out=hi))
        hits[wrap] |= _meets(blo, bhi, 0.0, over)
        avoids[start : start + rows] = ~(blocked | hits.any(axis=1))
    return avoids

