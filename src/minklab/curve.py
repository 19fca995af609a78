"""Closed convex curves glued from graded hinge smoothings, plus
support-function calculus for plane convex bodies.

Assembly lays the smoothings along a base segment in a two-half
middle-marking pattern: the segment splits into two equal halves, each half
marks its middle interval, bends there, and recurses into the flanking
pieces, so the depth-``m`` smoothing appears ``2**m`` times.  Because the
schedule normalizes the total bend to ``pi/n``, the swept normal directions
of the smoothings tile an arc of exactly ``pi/n`` and ``2n`` rotated copies
close up into a convex curve.  Curvature vanishes exactly at the junction
angles between consecutive smoothings; those angles follow a middle-removal
(Cantor-like) pattern recorded in :class:`GaussZeroSet`.

:class:`SupportFn` samples support functions on a uniform angular grid with
exact first/second data (curvature radius ``rho = h + h''``), which makes
Minkowski sums pointwise additions and lets flat normal directions be
tracked exactly through sums.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .cantor import IntervalSet, _float_ends, _meets, wrap_mod
from .errors import (
    ArgumentError,
    ConstructionError,
    HypothesisError,
    ValidationError,
)
from .export import write_csv, write_json
from .fn_core import SmoothFn, invert_monotone
from .hinge import HingeSchedule, SmoothingResult, _flat_floor

__all__ = [
    "ConvexCurve",
    "CurveAtlas",
    "GaussZeroSet",
    "SupportFn",
    "TransferReport",
    "angular_resolution_arc",
    "assemble_curve",
    "curvature_transfer_check",
    "minkowski_sum",
    "refinement_intervals",
    "rotations_avoiding_zero_sets",
    "write_curve_json",
    "write_support_csv",
]

TAU = 2.0 * math.pi
# Curvature at or below this fraction of the largest template curvature
# is zero: it sets both the curve's ``flat_marks`` and the support's ``flat``.
_FLAT_TOL = 1e-8
# Relative tolerance of the float invariant checks (convexity, monotone
# normals, symmetry, closure, zero-set membership, curvature-radius sign),
# and the allowed defect of the total turning from 2*pi.
_VALIDATE_TOL = 1e-9
_TURNING_TOL = 1e-6
# Level-1 template edges (halved per level, at least 32) and the sample
# count of the stage-monotonicity comparison.
_BASE_EDGES = 512
_STAGE_GRID_N = 4097
# grid angles per sweep block times intervals of the rotated set: bounds the
# sweep's temporaries to a few MB whatever the grid size
_SWEEP_BLOCK_ELEMS = 1 << 18


# ---------------------------------------------------------------------------
# smoothing templates and their placement along one arc
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _Template:
    """Sampled graph data of one smoothing level, in its own frame."""

    level: int
    sm: SmoothingResult
    x: np.ndarray  # sample abscissas in [-d, d], endpoints included
    z: np.ndarray  # complex graph points x + 1j * F(x)
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
        out.append(_Template(m, sm, xs, xs + 1j * val, np.arctan(slope), kappa))
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


def _check_stage_monotone(templates: Sequence[_Template], m_max: int) -> None:
    """Assert the stage graphs only move up: h_k <= h_{k+1} pointwise.

    Stage ``k`` is ``_walk(templates, order, k)``; the final stage
    ``m_max`` is the assembled arc itself.  Each bend rotates the tail
    upward and each smoothing lies above its hinge's tangent lines, so
    later stages dominate earlier ones; a failure means the placement
    itself is wrong.
    """
    order = _half_order(m_max) * 2
    polys = [_walk(templates, order, k)[0] for k in range(m_max + 1)]
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


# ---------------------------------------------------------------------------
# curve and zero-set containers
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class CurveAtlas:
    """Exact placement data of every smoothing copy on the closed curve.

    Everything the polyline cannot answer exactly (support points, curvature
    radii at prescribed normals) is recomputed from the templates through
    this atlas.
    """

    n: int
    m_max: int
    templates: list[_Template]
    inst_level: np.ndarray  # (K,) level of each arc instance, traversal order
    inst_rot: np.ndarray  # (K,) template-frame rotation, arc frame
    inst_base: np.ndarray  # (K,) complex position of the left endpoint
    inst_gauss: np.ndarray  # (K+1,) normal-angle sweep boundaries in [0, pi/n]
    copy_shift: np.ndarray  # (2n,) complex translation of each arc copy
    center: complex
    gammas: np.ndarray

    @property
    def arc_turn(self) -> float:
        return math.pi / self.n

    def support_data(self, theta) -> dict[str, np.ndarray]:
        """Exact boundary point / curvature radius at outward-normal ``theta``.

        Returns the complex boundary points (final frame), the curvature
        radius ``rho`` (``inf`` where the touching point is flat), and the
        flat mask; a point is flat when its template curvature is at most
        ``_FLAT_TOL`` times the largest one.  Where ``flat`` is set the
        touching set may be a segment, and the point returned is whichever
        point of it the inversion lands on.  A non-finite angle raises
        :class:`ArgumentError`.
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
        flat = np.zeros(th.shape, dtype=bool)
        kappa_max = max(float(np.max(t.kappa)) for t in self.templates)
        kappa_floor = _FLAT_TOL * kappa_max
        for tpl in self.templates:
            sel = np.nonzero(self.inst_level[k] == tpl.level)[0]
            if sel.size == 0:
                continue
            F = tpl.sm.F
            d = tpl.sm.d
            tgt = np.tan(loc[sel] - self.inst_rot[k[sel]])
            xs = invert_monotone(lambda u: F.jet(u, 1)[1], None, tgt, -d, d)
            jet = F.jet(xs, 2)
            val, slope, d2 = jet[0], jet[1], jet[2]
            zpts = self.inst_base[k[sel]] + np.exp(1j * self.inst_rot[k[sel]]) * (
                xs + 1j * val - tpl.z[0]
            )
            zfull = np.exp(1j * (j[sel] * arc)) * zpts + self.copy_shift[j[sel]]
            pts[sel] = 1j * (zfull - self.center)
            scale = (1.0 + slope * slope) ** 1.5
            zero = d2 <= kappa_floor * scale
            with np.errstate(divide="ignore"):
                r = np.where(zero, np.inf, scale / np.where(zero, 1.0, d2))
            rho[sel] = r
            flat[sel] = zero
        return {"point": pts, "rho": rho, "flat": flat}


@dataclass(eq=False)
class ConvexCurve:
    """Closed convex polyline with per-vertex normal angles and curvature.

    ``boundary`` holds the vertices once (the closing edge back to vertex 0
    is implicit), positively oriented.  ``gauss_angle`` is the outward
    normal angle in [0, 2*pi), non-decreasing along the curve; ``curvature``
    the signed curvature (>= 0); ``flat_marks`` the vertex indices whose
    curvature vanishes within the flat tolerance.
    """

    boundary: np.ndarray
    gauss_angle: np.ndarray
    curvature: np.ndarray
    flat_marks: np.ndarray
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

    # -- measurements ---------------------------------------------------

    def edge_vectors(self) -> np.ndarray:
        return np.roll(self.boundary, -1, axis=0) - self.boundary

    def total_turning(self) -> float:
        """Winding of the edge directions, 2*pi for a convex positive loop."""
        e = self.edge_vectors()
        ang = np.arctan2(e[:, 1], e[:, 0])
        d = np.diff(ang, append=ang[:1])
        d = np.mod(d + math.pi, TAU) - math.pi
        return float(np.sum(d))

    def symmetry_gap(self) -> float:
        """Mismatch of the boundary against its own 2*pi/order rotation."""
        order = self.symmetry_order
        if order == 1:
            return 0.0
        n = self.boundary.shape[0]
        if n % order != 0:
            return float("inf")
        shift = n // order
        z = self.boundary[:, 0] + 1j * self.boundary[:, 1]
        rot = z * cmath.exp(1j * TAU / order)
        return float(np.max(np.abs(np.roll(z, -shift) - rot)))

    def validate(self, *, straight_run_tol: float = 0.0, normal_sweep_tol: float = 1e-9) -> None:
        e = self.edge_vectors()
        cross = e[:, 0] * np.roll(e[:, 1], -1) - e[:, 1] * np.roll(e[:, 0], -1)
        scale = np.linalg.norm(e, axis=1) * np.roll(np.linalg.norm(e, axis=1), -1)
        if np.any(cross < -_VALIDATE_TOL * scale):
            worst = float(np.min(cross / np.maximum(scale, 1e-300)))
            raise ValidationError(f"boundary is not convex: min cross ratio {worst:.3e}")
        turn = self.total_turning()
        if abs(turn - TAU) > _TURNING_TOL:
            raise ValidationError(f"total turning {turn!r} is not 2*pi")
        dg = np.diff(self.gauss_angle)
        if np.any(dg < -_VALIDATE_TOL):
            raise ValidationError("gauss_angle is not non-decreasing")
        wrap = self.gauss_angle[0] + TAU - self.gauss_angle[-1]
        if wrap < -_VALIDATE_TOL:
            raise ValidationError("gauss_angle exceeds one full revolution")
        self._check_straight_runs(straight_run_tol, normal_sweep_tol)
        diam = float(np.max(np.abs(self.boundary)))
        if self.symmetry_gap() > _VALIDATE_TOL * max(diam, 1.0):
            raise ValidationError(
                f"boundary is not invariant under rotation by 2*pi/{self.symmetry_order}"
            )

    def _check_straight_runs(self, tol: float, sweep_tol: float) -> None:
        """Bound the length and normal sweep of zero-curvature runs.

        Flat vertices cluster around junctions within the profile's
        below-threshold curvature band; a run longer than ``tol`` or turning
        through more than ``sweep_tol`` of normal directions signals a
        failed or missing smoothing rather than truncation-level flatness.
        """
        n = self.boundary.shape[0]
        if self.flat_marks.size == 0:
            return
        flat = np.zeros(n, dtype=bool)
        flat[self.flat_marks] = True
        idx = np.nonzero(flat)[0]
        # split cyclic runs of consecutive flat vertices
        breaks = np.nonzero(np.diff(idx) > 1)[0]
        runs = np.split(idx, breaks + 1)
        if len(runs) > 1 and idx[0] == 0 and idx[-1] == n - 1:
            runs[0] = np.concatenate([runs[-1], runs[0]])
            runs = runs[:-1]
        for run in runs:
            if run.size < 2:
                continue
            pts = self.boundary[run]
            span = float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))
            if span > tol:
                raise ValidationError(
                    f"zero-curvature run spans length {span:.3e} > {tol:.3e}"
                )
            sweep = float(self.gauss_angle[run[-1] % n] - self.gauss_angle[run[0]])
            if run[0] > run[-1] % n:  # wrapped run
                sweep += TAU
            if sweep > sweep_tol:
                raise ValidationError(
                    f"zero-curvature run sweeps {sweep:.3e} rad of normals "
                    f"(> {sweep_tol:.3e}); flat vertices must cluster around "
                    f"a single junction direction"
                )


def angular_resolution_arc(curve: ConvexCurve, grid_n: int) -> float:
    """Largest boundary arc whose normals fit inside one angular grid cell.

    Support sampling on a uniform ``grid_n``-point angle grid touches the
    boundary only where a grid angle is attained as an outward normal; a
    stretch whose normals all fall strictly between two consecutive grid
    angles is invisible to the samples.  Nearly-flat pieces turn the normal
    very slowly, so they can hide entire long edges inside one cell; the
    value returned here is the honest resolution floor for any
    reconstruction-versus-boundary distance at that grid size.
    """
    if grid_n < 8:
        raise ArgumentError("angular grid needs at least 8 samples")
    cell = TAU / float(grid_n)
    elen = np.hypot(*curve.edge_vectors().T)
    bins = np.minimum((curve.gauss_angle / cell).astype(np.int64), grid_n - 1)
    acc = np.zeros(grid_n, dtype=float)
    np.add.at(acc, bins, elen)
    return float(acc.max())


@dataclass(eq=False)
class GaussZeroSet:
    """Normal angles with vanishing curvature, plus the entry-angle list.

    ``Z`` collects every angle whose touching boundary point is flat;
    ``E`` lists the angles at which the smoothings are entered (the curve
    points over the left end of each smoothing window).  On the assembled
    curve every junction is such an entry angle, so ``E`` is dense in ``Z``
    at the built depth.
    """

    Z: IntervalSet
    E: list[float]

    def validate(self, *, symmetry_order: int | None = None) -> None:
        ivals = np.asarray(self.Z.as_floats(), dtype=float)
        if ivals.size == 0:
            raise ValidationError("zero set is empty")
        lo, hi = ivals[:, 0], ivals[:, 1]
        e = np.asarray(self.E, dtype=float)
        j = np.searchsorted(lo, e + _VALIDATE_TOL) - 1
        jc = np.maximum(j, 0)
        inside = (j >= 0) & (e >= lo[jc] - _VALIDATE_TOL) & (e <= hi[jc] + _VALIDATE_TOL)
        if not np.all(inside):
            bad = float(e[np.argmin(inside)])
            raise ValidationError(f"entry angle {bad!r} lies outside the zero set")
        if symmetry_order is not None and symmetry_order > 1:
            step = TAU / symmetry_order
            rotated = wrap_mod(self.Z.translate(step), TAU)
            if not _sets_close(rotated, self.Z, _VALIDATE_TOL):
                raise ValidationError("zero set is not rotation invariant")
        mirrored = wrap_mod(self.Z.negate(), TAU)
        if not _sets_close(mirrored, self.Z, _VALIDATE_TOL):
            raise ValidationError("zero set is not symmetric under angle negation")


def _sets_close(a: IntervalSet, b: IntervalSet, tol: float) -> bool:
    """Hausdorff-style closeness of two angle sets' endpoint arrays.

    Both sets lie in ``[0, 2*pi]`` and distance is taken on the circle, so
    an endpoint just below ``2*pi`` is close to an interval at 0.
    """
    pa = np.asarray(a.as_floats(), dtype=float)
    pb = np.asarray(b.as_floats(), dtype=float)

    def one_sided(p, q):
        if p.size == 0:
            return 0.0
        gaps = []
        for col in (0, 1):
            x = p[:, col]
            j = np.clip(np.searchsorted(q[:, 0], x), 1, q.shape[0])
            # distance to the nearest interval among the two neighbours and
            # the two wrap-around neighbours across the seam at 0 = 2*pi
            cand = np.minimum.reduce(
                [
                    _point_set_distance(x, q[j - 1]),
                    _point_set_distance(x, q[np.minimum(j, q.shape[0] - 1)]),
                    _point_set_distance(x - TAU, q[0]),
                    _point_set_distance(x + TAU, q[-1]),
                ]
            )
            gaps.append(np.max(cand))
        return max(gaps)

    return one_sided(pa, pb) <= tol and one_sided(pb, pa) <= tol


def _point_set_distance(x: np.ndarray, ival: np.ndarray) -> np.ndarray:
    lo, hi = ival[..., 0], ival[..., 1]
    return np.maximum(lo - x, np.maximum(x - hi, 0.0))


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def _flat_band(f: SmoothFn, thresh: float) -> tuple[float, float]:
    """Last profile point with curvature below ``thresh``, and its slope.

    The truncated profile's curvature falls below any fixed threshold on
    plateaus near its origin, so curve vertices up to this distance from a
    junction can be straight to double precision even when narrow curvature
    spikes in between go unsampled; the strict-convexity check must allow
    flat runs of that length.
    """
    hi = float(f.domain[1])
    xs = np.geomspace(max(1e-12, 1e-9 * hi), hi, 8192)
    under = f.jet(xs, 2)[2] <= thresh
    if not np.any(under):
        x_last = float(xs[0])
    else:
        x_last = float(xs[int(np.nonzero(under)[0][-1])])
    slope = float(f.jet(np.array([x_last]), 1)[1][0])
    return x_last, slope


def _normalize_schedule(schedule) -> list[SmoothingResult]:
    if isinstance(schedule, HingeSchedule):
        return list(schedule.smoothings)
    sms = list(schedule)
    if not sms:
        raise ArgumentError("schedule must contain at least one smoothing")
    for s in sms:
        if not isinstance(s, SmoothingResult):
            raise ArgumentError("schedule entries must be SmoothingResult objects")
    return sms


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


def assemble_curve(
    f: SmoothFn,
    schedule,
    m_max: int | None = None,
) -> tuple[ConvexCurve, GaussZeroSet]:
    """Assemble the closed convex curve of a smoothing schedule.

    The first ``m_max`` smoothings are placed along a base segment in the
    two-half middle-marking pattern (level ``m`` appears ``2**m`` times),
    each one tangent to the incoming direction and advancing it by
    ``2*gamma_m``; the schedule's normalization makes one full pass sweep
    the normal directions ``[0, pi/n]`` exactly, and ``2n`` rotated copies
    close the curve.  Returns the sampled curve (with its exact placement
    atlas attached) and the zero-curvature angle structure.
    """
    sms = _normalize_schedule(schedule)
    if m_max is None:
        m_max = min(6, len(sms))
    if not 1 <= m_max <= len(sms):
        raise ArgumentError(f"m_max must lie in [1, {len(sms)}]")
    sms = sms[:m_max]
    gammas = np.array([s.gamma for s in sms])
    total = float(np.sum(2.0 ** (np.arange(1, m_max + 1) + 1) * gammas))
    n_float = math.pi / total
    n = round(n_float)
    if n < 1 or abs(n_float - n) > 1e-6 * max(n, 1):
        raise HypothesisError(
            f"schedule turn sum {total!r} is not pi/n for an integer n "
            f"(got pi/total = {n_float!r}); run the scheduler first"
        )

    templates = _build_templates(sms, _BASE_EDGES)
    _check_stage_monotone(templates, m_max)

    # --- one arc: instances, polyline, zero structure -------------------
    order = _half_order(m_max) * 2
    inst_level = np.array(order, dtype=int)
    arc_z, pos, inst_rot, inst_base, inst_gauss = _walk(templates, order, m_max)
    arc = math.pi / n
    if abs(inst_gauss[-1] - arc) > 1e-9:
        raise ConstructionError(
            f"arc sweeps {float(inst_gauss[-1])!r} instead of pi/n = {arc!r}; "
            f"schedule and placement disagree"
        )
    tpls = [templates[m - 1] for m in order]
    arc_g = np.concatenate([[0.0]] + [r + t.tau[1:] for r, t in zip(inst_rot, tpls)])
    arc_k = np.concatenate([[0.0]] + [t.kappa[1:] for t in tpls])

    # --- close with 2n rotated copies -----------------------------------
    copies = 2 * n
    step = cmath.exp(1j * arc)
    shift = np.empty(copies, dtype=complex)
    shift[0] = 0j
    for j in range(1, copies):
        shift[j] = step * shift[j - 1] + pos
    closure = step * shift[-1] + pos
    scale = float(np.max(np.abs(arc_z))) + abs(pos) * copies
    if abs(closure) > _VALIDATE_TOL * max(scale, 1.0):
        raise ConstructionError(
            f"copies fail to close: gap {abs(closure):.3e} over scale {scale:.3e}"
        )
    center = pos / (1.0 - step)

    parts_z = []
    parts_g = []
    parts_k = []
    for j in range(copies):
        zj = np.exp(1j * (j * arc)) * arc_z + shift[j]
        sl = slice(None) if j == 0 else slice(1, None)
        parts_z.append(zj[sl])
        parts_g.append(arc_g[sl] + j * arc)
        parts_k.append(arc_k[sl])
    full_z = np.concatenate(parts_z)[:-1]  # final vertex repeats the first
    full_g = np.concatenate(parts_g)[:-1]
    full_k = np.concatenate(parts_k)[:-1]
    final = 1j * (full_z - center)
    boundary = np.column_stack([final.real, final.imag])

    kmax = float(np.max(full_k))
    flat_marks = np.nonzero(full_k <= _FLAT_TOL * kmax)[0]
    atlas = CurveAtlas(
        n=n,
        m_max=m_max,
        templates=templates,
        inst_level=inst_level,
        inst_rot=inst_rot,
        inst_base=inst_base,
        inst_gauss=inst_gauss,
        copy_shift=shift,
        center=center,
        gammas=gammas,
    )
    curve = ConvexCurve(
        boundary=boundary,
        gauss_angle=full_g,
        curvature=full_k,
        flat_marks=flat_marks,
        symmetry_order=copies,
        atlas=atlas,
    )

    # --- zero-curvature angle structure ---------------------------------
    # every junction is both a zero-curvature angle and an entry angle
    junctions = np.concatenate([inst_gauss[:-1] + j * arc for j in range(copies)])
    zset = GaussZeroSet(
        Z=IntervalSet.from_pairs([(a, a) for a in np.sort(junctions)]),
        E=[float(a) for a in junctions],
    )

    band, band_slope = _flat_band(f, 2.0 * _FLAT_TOL * kmax)
    run_tol = max(2.5 * band + 16.0 * _flat_floor(f), 1e-9 * max(scale, 1.0))
    sweep_tol = max(4.0 * band_slope, 1e-9)
    curve.validate(straight_run_tol=run_tol, normal_sweep_tol=sweep_tol)
    zset.validate(symmetry_order=copies)
    return curve, zset


# ---------------------------------------------------------------------------
# support functions
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class SupportFn:
    """Support function samples on a uniform angular grid.

    ``h`` is the support value, ``dh``/``d2h`` its first and second angular
    derivatives at the grid angles; the curvature radius of the boundary at
    normal ``theta`` is ``rho = h + d2h``, which is additive under Minkowski
    sums.  ``flat[i]`` marks angles whose touching boundary point has zero
    curvature (``rho`` infinite); ``d2h`` holds ``inf`` there, and ``dh``
    belongs to whichever point of the flat piece the support inversion
    returned: it is not a one-sided derivative of ``h``.
    """

    theta: np.ndarray
    h: np.ndarray
    dh: np.ndarray
    d2h: np.ndarray
    flat: np.ndarray
    body: str | None = None

    def __post_init__(self):
        n = self.theta.size
        if n < 8:
            raise ArgumentError("angular grid needs at least 8 samples")
        step = TAU / n
        if np.max(np.abs(self.theta - np.arange(n) * step)) > 1e-12:
            raise ArgumentError("theta must be the uniform grid k * 2*pi / N")
        for arr in (self.h, self.dh, self.d2h, self.flat):
            if arr.shape != (n,):
                raise ArgumentError("support arrays must match the grid length")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def grid(grid_n: int) -> np.ndarray:
        return np.arange(grid_n) * (TAU / grid_n)

    @classmethod
    def disk(cls, radius: float, center=(0.0, 0.0), *, grid_n: int = 1 << 16) -> "SupportFn":
        cx, cy = float(center[0]), float(center[1])
        if not (radius > 0 and np.all(np.isfinite([radius, cx, cy]))):
            raise ArgumentError(f"disk needs a finite radius > 0 and center: {radius!r}, {center!r}")
        th = cls.grid(grid_n)
        c, s = np.cos(th), np.sin(th)
        return cls(
            theta=th,
            h=radius + cx * c + cy * s,
            dh=-cx * s + cy * c,
            d2h=-(cx * c + cy * s),
            flat=np.zeros(grid_n, dtype=bool),
            body=f"disk(r={radius})",
        )

    @classmethod
    def ellipse(cls, a: float, b: float, *, grid_n: int = 1 << 16) -> "SupportFn":
        if not (a > 0 and b > 0 and np.all(np.isfinite([a, b]))):
            raise ArgumentError(f"semi-axes must be positive and finite: {a!r}, {b!r}")
        th = cls.grid(grid_n)
        c, s = np.cos(th), np.sin(th)
        h = np.sqrt(a * a * c * c + b * b * s * s)
        dh = (b * b - a * a) * c * s / h
        rho = (a * b) ** 2 / h**3
        return cls(
            theta=th,
            h=h,
            dh=dh,
            d2h=rho - h,
            flat=np.zeros(grid_n, dtype=bool),
            body=f"ellipse({a},{b})",
        )

    @classmethod
    def point(cls, p=(0.0, 0.0), *, grid_n: int = 1 << 16) -> "SupportFn":
        px, py = float(p[0]), float(p[1])
        if not np.all(np.isfinite([px, py])):
            raise ArgumentError(f"point must be finite: {p!r}")
        th = cls.grid(grid_n)
        c, s = np.cos(th), np.sin(th)
        h = px * c + py * s
        return cls(
            theta=th,
            h=h,
            dh=-px * s + py * c,
            d2h=-h,
            flat=np.zeros(grid_n, dtype=bool),
            body=f"point({px},{py})",
        )

    @classmethod
    def from_polygon(cls, vertices: np.ndarray, *, grid_n: int = 1 << 16) -> "SupportFn":
        """Support samples of a convex polygon (curvature radius zero a.e.)."""
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise ArgumentError("polygon needs an (N, 2) vertex array")
        if not np.all(np.isfinite(v)):
            raise ArgumentError("polygon vertices must be finite")
        th = cls.grid(grid_n)
        u = np.column_stack([np.cos(th), np.sin(th)])
        prods = u @ v.T
        best = np.argmax(prods, axis=1)
        pts = v[best]
        h = prods[np.arange(grid_n), best]
        dh = -pts[:, 0] * np.sin(th) + pts[:, 1] * np.cos(th)
        return cls(
            theta=th,
            h=h,
            dh=dh,
            d2h=-h,
            flat=np.zeros(grid_n, dtype=bool),
            body="polygon",
        )

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
        w = data["point"]
        phase = np.exp(-1j * th)
        h = np.real(w * phase)
        dh = np.imag(w * phase)
        with np.errstate(invalid="ignore"):
            d2h = data["rho"] - h
        return cls(
            theta=th,
            h=h,
            dh=dh,
            d2h=d2h,
            flat=data["flat"],
            body="assembled-curve",
        )

    # -- calculus ----------------------------------------------------------

    def rho(self) -> np.ndarray:
        return self.h + self.d2h

    def kappa(self) -> np.ndarray:
        r = self.rho()
        with np.errstate(divide="ignore"):
            k = np.where(self.flat, 0.0, 1.0 / np.where(self.flat, 1.0, r))
        return k

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
    """Pointwise sum of support data; flat directions propagate by union."""
    if a.theta.size != b.theta.size or np.max(np.abs(a.theta - b.theta)) > 1e-12:
        raise ArgumentError("support functions live on different angular grids")
    return SupportFn(
        theta=a.theta,
        h=a.h + b.h,
        dh=a.dh + b.dh,
        d2h=a.d2h + b.d2h,
        flat=a.flat | b.flat,
        body=f"({a.body})+({b.body})",
    )


@dataclass(frozen=True)
class TransferReport:
    """Curvature bookkeeping of a Minkowski sum at selected normals."""

    theta: np.ndarray
    rho_a: np.ndarray
    rho_b: np.ndarray
    rho_sum: np.ndarray
    kappa_a: np.ndarray
    kappa_b: np.ndarray
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
    n = a.theta.size
    stepw = TAU / n
    # reduce before the cast: a huge angle overflows the integer index
    idx = np.mod(np.round(np.mod(th, TAU) / stepw).astype(int), n)
    snapped = a.theta[idx]
    ka = a.kappa()[idx]
    if np.any(a.flat[idx]) or np.any(ka <= 0.0):
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
    ok_disc = finite & ~s.flat[np.mod(idx + 1, n)] & ~s.flat[im]
    discrete = float(np.max(np.abs(d2_disc - s.d2h[idx])[ok_disc], initial=0.0))
    transfer_ok = bool(np.all((ks == 0.0) == (kb == 0.0)))
    return TransferReport(
        theta=snapped,
        rho_a=ra,
        rho_b=rb,
        rho_sum=rs,
        kappa_a=ka,
        kappa_b=kb,
        kappa_sum=ks,
        additive_gap=additive,
        discrete_gap=discrete,
        transfer_ok=transfer_ok,
    )


def rotations_avoiding_zero_sets(z_a, z_b, angle_grid) -> np.ndarray:
    """Grid angles whose rotation of the first zero set misses the second.

    Both arguments may be :class:`GaussZeroSet` or plain interval sets.  The
    test runs in floats for every angle at once: the first set's endpoints
    are translated by each grid angle, reduced mod 2*pi as :func:`wrap_mod`
    reduces them (an interval at least 2*pi long blocks the angle), and
    every piece is looked up in the wrapped second set.  A non-finite grid
    angle raises :class:`ArgumentError`.
    """
    za = z_a.Z if isinstance(z_a, GaussZeroSet) else z_a
    zb = z_b.Z if isinstance(z_b, GaussZeroSet) else z_b
    grid = np.asarray(angle_grid, dtype=float).ravel()
    if not np.all(np.isfinite(grid)):
        raise ArgumentError("rotation angles must be finite")
    blo, bhi = _float_ends(wrap_mod(zb, TAU))
    alo, ahi = _float_ends(za)
    if blo.size == 0 or alo.size == 0:
        return grid.copy()
    avoids = np.empty(grid.size, dtype=bool)
    rows = max(1, _SWEEP_BLOCK_ELEMS // alo.size)
    for start in range(0, grid.size, rows):
        delta = grid[start : start + rows, None]
        lo, hi = alo + delta, ahi + delta
        blocked = np.any(hi - lo >= TAU, axis=1)
        shift = np.floor(lo / TAU) * TAU
        lo -= shift
        hi -= shift
        # a piece crossing 2*pi splits into [lo, 2*pi] and [0, hi - 2*pi]
        wrap = hi > TAU
        hits = _meets(blo, bhi, lo, np.minimum(hi, TAU))
        hits[wrap] |= _meets(blo, bhi, 0.0, hi[wrap] - TAU)
        avoids[start : start + rows] = ~(blocked | hits.any(axis=1))
    return grid[avoids]


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def write_curve_json(path, curve: ConvexCurve, zero_set: GaussZeroSet | None = None) -> None:
    payload = {
        "symmetry_order": int(curve.symmetry_order),
        "vertices": np.asarray(curve.boundary, dtype=float).tolist(),
        "gauss_angle": np.asarray(curve.gauss_angle, dtype=float).tolist(),
        "curvature": np.asarray(curve.curvature, dtype=float).tolist(),
        "flat_marks": np.asarray(curve.flat_marks, dtype=np.int64).tolist(),
        "cantor_spec": _cantor_spec_dict(curve.atlas),
    }
    if zero_set is not None:
        payload["zero_set"] = {
            "Z": zero_set.Z.to_json(),
            "E": np.asarray(zero_set.E, dtype=float).tolist(),
        }
    write_json(path, payload)


def _cantor_spec_dict(atlas: CurveAtlas | None) -> dict | None:
    if atlas is None:
        return None
    return {
        "arc": [0.0, math.pi / atlas.n],
        "copies": 2 * atlas.n,
        "depth": atlas.m_max,
        "removal_lengths": [2.0 * float(g) for g in atlas.gammas],
        "pattern": "two-half middle marking; level m removed 2**m times",
    }


def write_support_csv(path, s: SupportFn) -> None:
    write_csv(path, {"theta": s.theta, "h": s.h, "dh": s.dh, "d2h": s.d2h})
