"""Infimal convolution of one-dimensional convex functions, two ways.

Given convex ``f`` and ``g`` on compact intervals, the infimal convolution
``h(x) = inf_y f(y) + g(x - y)`` is computed by two independent routes:

* :func:`infconv_direct` minimizes the split objective per output point
  by solving the stationarity condition ``f'(mu(x)) = g'(x - mu(x))`` on
  the feasible window, clamped to a window end where the slope gap has no
  sign change; it needs convex inputs with first derivatives.  The result
  carries an on-demand :class:`~minklab.fn_core.SmoothFn` whose higher
  derivatives come from a truncated-Taylor solve of the same condition,
  so the smoothness of ``h`` can be probed wherever the minimizer is
  interior and the matched curvature sum is positive.
* :func:`infconv_conjugate` adds the *exact* Legendre transforms of the
  piecewise-linear interpolants of ``f`` and ``g``, which is merging their
  lower hulls' edges by slope (the epigraph of ``h`` is the Minkowski sum
  of the epigraphs).  Up to rounding this is the exact infimal convolution
  of the interpolants, so the distance from the true ``h`` is controlled
  by the interpolation errors ``dx^2 * max f'' / 8`` and a rounding term.

Shared diagnostics: :func:`minimizer_map`, :func:`smoothness_diag` and the
rows of the direct route's ``h`` read one stationarity solve (bracketed
Newton steps on the slope gap, through :func:`~minklab.fn_core.invert_monotone`),
one evaluation of ``f`` and ``g`` at the matched pair, and one Taylor solve,
whose row 1 is the split ratio ``j = g''/(f'' + g'')`` of :func:`smoothness_diag`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import jets
from .errors import (
    ArgumentError,
    CapabilityError,
    DegenerateHessianError,
    RootBracketError,
    ValidationError,
)
from .fn_core import SmoothFn, _as_interval, _check_grid_n, invert_monotone, newton_pair

__all__ = [
    "InfConvResult",
    "SmoothnessDiag",
    "check_convexity",
    "infconv_direct",
    "infconv_conjugate",
    "minimizer_map",
    "smoothness_diag",
]

_TINY = np.finfo(float).tiny
# Node count and relative tolerance of the discrete convexity guard.
_CONVEXITY_GRID_N = 2049
_CONVEXITY_TOL = 1e-9
# Largest stationarity residual of the minimizer map, relative to the
# matched slope scale ``1 + |f'(mu)|``.
_RESIDUAL_TOL = 1e-9
# Array passes of the lower hull before the monotone chain takes over.
_HULL_PASSES = 32
# Sample count of each input of :func:`infconv_conjugate`.
_SAMPLE_N = (1 << 14) + 1


# ---------------------------------------------------------------------------
# validation and geometry helpers
# ---------------------------------------------------------------------------


def check_convexity(fn: SmoothFn) -> None:
    """Raise :class:`ValidationError` unless ``fn`` looks convex on a grid.

    The test is on discrete second differences over ``_CONVEXITY_GRID_N``
    nodes, so concavity smaller than ``_CONVEXITY_TOL * scale / dx^2``
    cannot be detected; it is a guard against passing outright non-convex
    inputs, not a proof.
    """
    xs = np.linspace(fn.domain[0], fn.domain[1], _CONVEXITY_GRID_N)
    vals = fn.eval(xs)
    second = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
    scale = 1.0 + float(np.max(np.abs(vals)))
    worst = float(np.min(second)) if second.size else 0.0
    if worst < -_CONVEXITY_TOL * scale:
        raise ValidationError(
            f"{fn.name or 'input'} fails discrete convexity: min second "
            f"difference {worst:.3e} over {_CONVEXITY_GRID_N} nodes on {fn.domain}"
        )


def _windows(f: SmoothFn, g: SmoothFn, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Feasible minimizer window ``[ylo, yhi]`` for each output point."""
    lo_sum = f.domain[0] + g.domain[0]
    hi_sum = f.domain[1] + g.domain[1]
    slack = 1e-9 * (1.0 + abs(lo_sum) + abs(hi_sum))
    if xs.size and (xs.min() < lo_sum - slack or xs.max() > hi_sum + slack):
        raise ArgumentError(
            f"requested points exceed the sum of the domains "
            f"[{lo_sum!r}, {hi_sum!r}]"
        )
    ylo = np.maximum(f.domain[0], xs - g.domain[1])
    yhi = np.minimum(f.domain[1], xs - g.domain[0])
    # Rounding at the extreme ends can invert the window by an ulp; collapse
    # such windows to a feasible point.
    bad = ylo > yhi
    if np.any(bad):
        mid = np.clip(0.5 * (ylo + yhi), f.domain[0], f.domain[1])
        ylo = np.where(bad, mid, ylo)
        yhi = np.where(bad, mid, yhi)
    return ylo, yhi


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InfConvResult:
    """Sampled infimal convolution plus a function-object view of it.

    ``mu[i]`` minimizes ``y -> f(y) + g(x[i] - y)``: for the conjugate route
    that of the sampled interpolants, at the upper end where the minimizers
    form an interval.  ``boundary[i]`` is True where the minimizer is pinned
    to an end of its feasible window, i.e. where the unconstrained
    optimality condition need not hold.
    """

    x: np.ndarray
    values: np.ndarray
    mu: np.ndarray
    boundary: np.ndarray
    h: SmoothFn
    error_bound: float | None = field(default=None)


@dataclass(frozen=True)
class SmoothnessDiag:
    """Curvature bookkeeping of the infimal convolution at sample points."""

    x: np.ndarray
    mu: np.ndarray
    hess_g: np.ndarray
    hess_h: np.ndarray
    j_mu: np.ndarray


# ---------------------------------------------------------------------------
# direct route: the minimizer, the matched rows and the curvature diagnostics
# ---------------------------------------------------------------------------


def _slope_gap(f: SmoothFn, g: SmoothFn, xs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Derivative ``f'(y) - g'(x - y)`` of the split objective in ``y``."""
    return f.jet(y, 1)[1] - g.jet(xs - y, 1)[1]


def _minimizer(f: SmoothFn, g: SmoothFn, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimizer of ``y -> f(y) + g(x - y)`` on each feasible window.

    The slope gap is nondecreasing for convex inputs.  Where it changes
    sign on the window its root, found by bracketed Newton steps through
    :func:`~minklab.fn_core.invert_monotone` with the curvature sum
    ``f''(y) + g''(x - y)`` as derivative, is the minimizer; elsewhere
    the minimizer is the window end the gap points to, and ``pinned`` is
    True there.  Each step evaluates the slope rows of the targets whose
    point moved and reuses the stored rows of the others.
    """
    ylo, yhi = _windows(f, g, xs)
    glo = _slope_gap(f, g, xs, ylo)
    root = (glo < 0.0) & (_slope_gap(f, g, xs, yhi) > 0.0)
    mu = np.where(glo >= 0.0, ylo, yhi)
    if np.any(root):
        xr = xs[root]
        # the point and the slope rows f', f'', g', g'' last evaluated per target
        at = np.full(xr.size, np.nan)
        rows = np.empty((4, xr.size))

        def gap_rows(y):
            # every call gets all targets' points, and only the unsolved
            # ones move; slope_rows is pointwise, so the rest are reused
            moved = np.flatnonzero(y != at)
            ym = y[moved]
            at[moved] = ym
            rows[0, moved], rows[1, moved] = f.slope_rows(ym)
            rows[2, moved], rows[3, moved] = g.slope_rows(xr[moved] - ym)
            return rows[0] - rows[2], rows[1] + rows[3]

        mu[root] = invert_monotone(*newton_pair(gap_rows), np.zeros(xr.size), ylo[root], yhi[root])
    return mu, ~root


def _matched_rows(f: SmoothFn, g: SmoothFn, xs: np.ndarray, order: int):
    """The minimizer ``mu`` and rows 0 to ``order`` of ``f`` at ``mu`` and ``g`` at ``x - mu``.

    Raises :class:`~minklab.errors.RootBracketError` on the slope residual
    of these rows, as :func:`minimizer_map` documents.
    """
    mu, _ = _minimizer(f, g, xs)
    f_rows = f.jet(mu, order)
    g_rows = g.jet(xs - mu, order)
    resid = np.abs(f_rows[1] - g_rows[1])
    scale = 1.0 + np.abs(f_rows[1])
    if np.any(resid > _RESIDUAL_TOL * scale):
        worst = int(np.argmax(resid / scale))
        raise RootBracketError(
            f"stationarity residual {resid[worst]:.3e} at x={xs[worst]!r} "
            f"exceeds tolerance {_RESIDUAL_TOL:g}"
        )
    return mu, f_rows, g_rows


def _mu_taylor(xs, mu0, f_derivs, g_derivs, order):
    """Taylor rows of the minimizer map about each ``x``.

    Solves the stationarity condition order by order: with the rows below
    ``k`` fixed, the row-``k`` residual is linear in the unknown with
    coefficient ``f''(mu) + g''(x - mu)``, so row 1 is ``g''/(f'' + g'')``.
    Raises :class:`~minklab.errors.DegenerateHessianError` where that sum
    vanishes or is NaN.
    """
    fc = jets.derivs_to_jet(f_derivs)
    gc = jets.derivs_to_jet(g_derivs)
    total = f_derivs[2] + g_derivs[2]
    bad = np.flatnonzero(~(total >= _TINY))
    if bad.size:
        raise DegenerateHessianError(
            f"curvature sum vanishes at {bad.size} point(s); first at "
            f"x={xs[bad[0]]!r} (f''={f_derivs[2][bad[0]]!r}, g''={g_derivs[2][bad[0]]!r})"
        )
    lift = np.arange(1, order + 2).reshape((order + 1,) + (1,) * (fc.ndim - 1))
    fprime = fc[1:] * lift
    gprime = gc[1:] * lift
    u = jets.jet_var(xs, order)
    mu_rows = np.zeros((order + 1,) + xs.shape)
    mu_rows[0] = mu0
    for k in range(1, order + 1):
        resid = jets.tcompose(fprime, mu_rows) - jets.tcompose(gprime, u - mu_rows)
        mu_rows[k] = -resid[k] / total
    return mu_rows, fc, gc, u


def minimizer_map(f: SmoothFn, g: SmoothFn, x) -> np.ndarray:
    """Solve ``f'(mu) = g'(x - mu)`` for each ``x``, vectorized.

    The solve is the one of :func:`infconv_direct`, and the one that
    :func:`smoothness_diag` and the rows of the direct route's ``h`` read.
    Raises :class:`~minklab.errors.RootBracketError` when the residual stays
    above ``_RESIDUAL_TOL`` relative to the matched slope scale; that
    includes every minimizer pinned to a window end where the gap is not zero.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    mu = _matched_rows(f, g, xs, 1)[0]
    return float(mu[0]) if np.ndim(x) == 0 else mu


def smoothness_diag(f: SmoothFn, g: SmoothFn, x) -> SmoothnessDiag:
    """Report ``f''``, ``g''``, the split ratio and ``h''`` at matched pairs.

    The pairs are those of :func:`minimizer_map`; the split ratio
    ``j = g''/(f'' + g'')`` is row 1 of the Taylor solve behind the direct
    route's ``h``, and ``h'' = f'' * j = g'' * (1 - j)``.  Raises where the
    minimizer map does, and :class:`~minklab.errors.DegenerateHessianError`
    where the curvature sum vanishes or is NaN.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    mu, f_rows, g_rows = _matched_rows(f, g, xs, 2)
    j = _mu_taylor(xs, mu, f_rows, g_rows, 1)[0][1]
    return SmoothnessDiag(x=xs, mu=mu, hess_g=g_rows[2], hess_h=f_rows[2] * j, j_mu=j)


def infconv_direct(
    f: SmoothFn,
    g: SmoothFn,
    *,
    interval=None,
    grid_n: int = 1025,
) -> InfConvResult:
    """Infimal convolution by per-point minimization of the split objective.

    Needs convex ``f`` and ``g`` with first derivatives.  Each requested
    point's minimizer solves the stationarity condition
    ``f'(mu) = g'(x - mu)`` on its feasible window, clamped to the window
    end the slope gap points to where the gap has no sign change there
    (those points are flagged in ``boundary``).  The returned function
    object re-minimizes on demand; its derivative rows (orders up to
    ``min(max orders) - 1``) come from the truncated-Taylor solve of the
    stationarity condition and therefore require an interior minimizer
    with positive curvature sum.
    """
    _check_grid_n(grid_n)
    check_convexity(f)
    check_convexity(g)
    lo_sum = f.domain[0] + g.domain[0]
    hi_sum = f.domain[1] + g.domain[1]
    span = _as_interval(interval) if interval is not None else (lo_sum, hi_sum)
    xs = np.linspace(span[0], span[1], grid_n)

    def h_values(xq):
        mu_q, pinned = _minimizer(f, g, xq)
        return f.eval(mu_q) + g.eval(xq - mu_q), mu_q, pinned

    def h_jet(xq, order):
        if order == 0:
            return h_values(xq)[0][None, :]
        mu, f_rows, g_rows = _matched_rows(f, g, xq, order + 1)
        mu_rows, fc, gc, u = _mu_taylor(xq, mu, f_rows, g_rows, order)
        h_coeffs = jets.tcompose(fc[: order + 1], mu_rows)
        h_coeffs += jets.tcompose(gc[: order + 1], u - mu_rows)
        return jets.jet_to_derivs(h_coeffs)

    vals, mu, boundary = h_values(xs)
    jet_order = max(0, min(f.max_order, g.max_order) - 1)

    h = SmoothFn(span, jet_order, h_jet, name=f"infconv[{f.name or 'f'},{g.name or 'g'}]")
    return InfConvResult(
        x=xs,
        values=vals,
        mu=mu,
        boundary=boundary,
        h=h,
    )


# ---------------------------------------------------------------------------
# conjugate route (one slope merge of the sampled lower hulls)
# ---------------------------------------------------------------------------


def _lower_hull(xs: np.ndarray, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertices of the lower convex hull of the graph points, in order.

    Input rule: ``xs`` is nondecreasing, and of points with equal abscissa
    only the lowest can be a vertex, so each such run is first collapsed to
    its lowest point.  Collinear interior points are dropped, so consecutive
    chord slopes are strictly increasing.  Each array pass drops every
    point on or above the chord of its current neighbours (no such point
    is a vertex, so one pass may drop them all), until a pass drops none.
    A bridge over a long concave stretch loses only one point per side and
    pass, so after ``_HULL_PASSES`` passes the monotone chain finishes on
    the survivors.
    """
    repeat = xs[1:] == xs[:-1]
    if repeat.any():
        starts = np.flatnonzero(np.concatenate(([True], ~repeat)))
        xs, vs = xs[starts], np.minimum.reduceat(vs, starts)
    for _ in range(_HULL_PASSES):
        if xs.size < 3:
            return xs, vs
        x0, v0 = xs[:-2], vs[:-2]
        cross = (xs[1:-1] - x0) * (vs[2:] - v0) - (vs[1:-1] - v0) * (xs[2:] - x0)
        keep = ~(cross <= 0.0)
        if keep.all():
            return xs, vs
        keep = np.concatenate(([True], keep, [True]))
        xs, vs = xs[keep], vs[keep]
    return _chain_hull(xs, vs)


def _chain_hull(xs: np.ndarray, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Andrew's monotone chain over points of increasing abscissa, one point at a time."""
    x_list = xs.tolist()
    v_list = vs.tolist()
    keep: list[int] = []
    for i in range(len(x_list)):
        xi, vi = x_list[i], v_list[i]
        while len(keep) >= 2:
            i1 = keep[-1]
            i0 = keep[-2]
            cross = (x_list[i1] - x_list[i0]) * (vi - v_list[i0]) - (
                v_list[i1] - v_list[i0]
            ) * (xi - x_list[i0])
            if cross <= 0.0:
                keep.pop()
            else:
                break
        keep.append(i)
    idx = np.asarray(keep, dtype=np.intp)
    return xs[idx], vs[idx]


def _samples(fn: SmoothFn, xs: np.ndarray) -> tuple[np.ndarray, float | None]:
    """Values of ``fn`` at ``xs`` and ``max fn''`` there, from one ``jet`` call.

    The maximum is None, and the values come from ``eval``, when ``fn``
    has no second derivative.
    """
    try:
        rows = fn.jet(xs, 2)
    except CapabilityError:
        return fn.eval(xs), None
    return rows[0], float(np.max(rows[2]))


def infconv_conjugate(
    f: SmoothFn,
    g: SmoothFn,
    *,
    interval=None,
    grid_n: int = 1025,
) -> InfConvResult:
    """Infimal convolution of the piecewise-linear interpolants of ``f`` and ``g``.

    ``f`` and ``g`` are sampled at ``_SAMPLE_N`` nodes each.  Adding the two
    conjugates is merging the two lower hulls' edges by slope, ``f``'s first
    at a tie; on an edge of ``f`` the minimizer ``mu`` keeps ``g`` at a
    vertex, and on an edge of ``g`` it is ``f``'s vertex.  The returned
    function object is the piecewise-linear ``h`` (order-0 only).
    ``error_bound``, when the inputs expose second derivatives, bounds the
    sup-norm distance to the true infimal convolution to first order in
    ``eps``: ``(dx_f^2 max f'' + dx_g^2 max g'')/8`` for the interpolation
    plus ``eps (6V + SX/2)`` for rounding, with ``V``, ``S`` and ``X`` the
    largest ``|value|``, ``|slope|`` and ``|abscissa|`` of the merged hull.
    With ``u = eps/2``, ``h(x) = hv[k] + s (x - hx[k])`` on edge ``k`` and
    ``|s (x - hx[k])| <= 2V``: the sums ``hv[k]`` and ``hx[k]`` add ``uV``
    and ``uSX``, the slope (a quotient of differences) ``6uV``, and the
    difference, product and last sum ``5uV``.  The inputs' own rounding in
    the samples is not counted.
    """
    _check_grid_n(grid_n)
    check_convexity(f)
    check_convexity(g)
    xf = np.linspace(f.domain[0], f.domain[1], _SAMPLE_N)
    xg = np.linspace(g.domain[0], g.domain[1], _SAMPLE_N)
    vf, max_hf = _samples(f, xf)
    vg, max_hg = _samples(g, xg)
    hxf, hvf = _lower_hull(xf, vf)
    hxg, hvg = _lower_hull(xg, vg)
    sf = np.diff(hvf) / np.diff(hxf)
    sg = np.diff(hvg) / np.diff(hxg)
    slopes = np.concatenate([sf, sg])
    by_slope = np.argsort(slopes, kind="stable")
    slopes, from_f = slopes[by_slope], by_slope < sf.size
    # f's and g's vertex at the left end of each merged edge, and one past
    # the last edge: the number of each side's edges merged before it
    fi = np.concatenate(([0], np.cumsum(from_f)))
    gi = np.arange(fi.size) - fi
    hx = hxf[fi] + hxg[gi]
    hv = hvf[fi] + hvg[gi]

    lo_sum, hi_sum = hx[0], hx[-1]
    span = _as_interval(interval) if interval is not None else (lo_sum, hi_sum)
    slack = 1e-9 * (1.0 + abs(lo_sum) + abs(hi_sum))
    if span[0] < lo_sum - slack or span[1] > hi_sum + slack:
        raise ArgumentError(
            f"requested interval {span} exceeds the sum of the domains "
            f"[{lo_sum!r}, {hi_sum!r}]"
        )

    def pwl_eval(xq):
        # the edge that contains each point; a point on a vertex takes the left one
        k = np.clip(np.searchsorted(hx, xq, side="left") - 1, 0, slopes.size - 1)
        return hv[k] + slopes[k] * (xq - hx[k]), k

    xs = np.linspace(span[0], span[1], grid_n)
    vals, k = pwl_eval(xs)
    mu = np.where(from_f[k], xs - hxg[gi[k]], hxf[fi[k]])
    slope_at = slopes[k]
    boundary = (
        (slope_at <= sf[0])
        | (slope_at >= sf[-1])
        | (slope_at <= sg[0])
        | (slope_at >= sg[-1])
    )

    def h_jet(xq, order):
        return pwl_eval(xq)[0][None, :]

    h = SmoothFn(span, 0, h_jet, name=f"infconv_pwl[{f.name or 'f'},{g.name or 'g'}]")

    error_bound = None
    if max_hf is not None and max_hg is not None:
        dxf = (f.domain[1] - f.domain[0]) / (_SAMPLE_N - 1)
        dxg = (g.domain[1] - g.domain[0]) / (_SAMPLE_N - 1)
        vmax, smax, xmax = (float(np.max(np.abs(a))) for a in (hv, slopes, hx))
        rounding = float(np.finfo(float).eps) * (6.0 * vmax + 0.5 * smax * xmax)
        error_bound = (dxf**2 * max_hf + dxg**2 * max_hg) / 8.0 + rounding

    return InfConvResult(
        x=xs,
        values=vals,
        mu=mu,
        boundary=boundary,
        h=h,
        error_bound=error_bound,
    )

