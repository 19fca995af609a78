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
* :func:`infconv_conjugate` forms the *exact* Legendre transforms of the
  piecewise-linear interpolants of ``f`` and ``g`` (breakpoints at the
  chord slopes — no slope grid), adds them, and transforms back.  Up to
  rounding this equals the exact infimal convolution of the interpolants,
  so the distance from the true ``h`` is controlled by the interpolation
  errors ``dx^2 * max f'' / 8`` alone.

Shared diagnostics: :func:`minimizer_map` is the direct route's
stationarity solve (Chandrupatla's method, through
:func:`~minklab.fn_core.invert_monotone`) restricted to stationary points, and
:func:`smoothness_diag` reports the curvature split ``j = g''/(f'' + g'')``
together with the transferred curvature ``h'' = f'' * j``.
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
from .export import write_csv
from .fn_core import SmoothFn, _as_interval, invert_monotone

__all__ = [
    "InfConvResult",
    "SmoothnessDiag",
    "check_convexity",
    "infconv_direct",
    "infconv_conjugate",
    "minimizer_map",
    "smoothness_diag",
    "write_infconv_csv",
]

_TINY = np.finfo(float).tiny
# Node count and relative tolerance of the discrete convexity guard.
_CONVEXITY_GRID_N = 2049
_CONVEXITY_TOL = 1e-9
# Largest stationarity residual of the minimizer map, relative to the
# matched slope scale ``1 + |f'(mu)|``.
_RESIDUAL_TOL = 1e-9


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

    ``boundary[i]`` is True where the minimizer is pinned to an end of its
    feasible window, i.e. where the unconstrained optimality condition need
    not hold.
    """

    route: str
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
    hess_f: np.ndarray
    hess_g: np.ndarray
    hess_h: np.ndarray
    j_mu: np.ndarray


# ---------------------------------------------------------------------------
# minimizer map and curvature diagnostics
# ---------------------------------------------------------------------------


def _slope_gap(f: SmoothFn, g: SmoothFn, xs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Derivative ``f'(y) - g'(x - y)`` of the split objective in ``y``."""
    return f.jet(y, 1)[1] - g.jet(xs - y, 1)[1]


def _minimizer(f: SmoothFn, g: SmoothFn, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimizer of ``y -> f(y) + g(x - y)`` on each feasible window.

    The slope gap is nondecreasing for convex inputs.  Where it changes
    sign on the window its root, found by Chandrupatla's method through
    :func:`~minklab.fn_core.invert_monotone`, is the minimizer; elsewhere
    the minimizer is the window end the gap points to, and ``pinned`` is
    True there.
    """
    ylo, yhi = _windows(f, g, xs)
    glo = _slope_gap(f, g, xs, ylo)
    root = (glo < 0.0) & (_slope_gap(f, g, xs, yhi) > 0.0)
    mu = np.where(glo >= 0.0, ylo, yhi)
    if np.any(root):
        xr = xs[root]
        mu[root] = invert_monotone(
            lambda y: _slope_gap(f, g, xr, y), None, np.zeros(xr.size), ylo[root], yhi[root]
        )
    return mu, ~root


def minimizer_map(f: SmoothFn, g: SmoothFn, x) -> np.ndarray:
    """Solve ``f'(mu) = g'(x - mu)`` for each ``x``, vectorized.

    The solve is the one of :func:`infconv_direct`.  Raises
    :class:`~minklab.errors.RootBracketError` when the residual stays above
    ``_RESIDUAL_TOL`` relative to the matched slope scale; that includes
    every minimizer pinned to a window end where the slope gap is not zero.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    scalar = np.ndim(x) == 0
    mu, _ = _minimizer(f, g, xs)
    resid = np.abs(_slope_gap(f, g, xs, mu))
    scale = 1.0 + np.abs(f.jet(mu, 1)[1])
    if np.any(resid > _RESIDUAL_TOL * scale):
        worst = int(np.argmax(resid / scale))
        raise RootBracketError(
            f"stationarity residual {resid[worst]:.3e} at x={xs[worst]!r} "
            f"exceeds tolerance {_RESIDUAL_TOL:g}"
        )
    return float(mu[0]) if scalar else mu


def smoothness_diag(f: SmoothFn, g: SmoothFn, x, *, mu=None) -> SmoothnessDiag:
    """Report ``f''``, ``g''``, the split ratio and ``h''`` at matched pairs.

    The split ratio ``j = g''/(f'' + g'')`` is the derivative of the
    minimizer map, and ``h'' = f'' * j = g'' * (1 - j)``.  Raises
    :class:`~minklab.errors.DegenerateHessianError` where ``j`` is undefined:
    the curvature sum vanishes (the formula degenerates there) or is NaN.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if mu is None:
        mus = np.atleast_1d(minimizer_map(f, g, xs))
    else:
        mus = np.atleast_1d(np.asarray(mu, dtype=float))
    hf, hg, j, hh = _curvature_split(f, g, xs, mus)
    if np.any(np.isnan(j)):
        bad = np.where(np.isnan(j))[0]
        raise DegenerateHessianError(
            f"curvature sum vanishes at {bad.size} point(s); first at "
            f"x={xs[bad[0]]!r} (f''={hf[bad[0]]!r}, g''={hg[bad[0]]!r})"
        )
    return SmoothnessDiag(x=xs, mu=mus, hess_f=hf, hess_g=hg, hess_h=hh, j_mu=j)


def _curvature_split(f: SmoothFn, g: SmoothFn, xs: np.ndarray, mus: np.ndarray):
    """Return ``(f'', g'', j, h'')`` at the matched pairs ``(mu, x - mu)``.

    ``j = g''/(f'' + g'')`` and ``h'' = f'' * j``; both are NaN wherever the
    curvature sum is below the smallest normal float.
    """
    hf = f.jet(mus, 2)[2]
    hg = g.jet(xs - mus, 2)[2]
    total = hf + hg
    ok = total >= _TINY
    j = np.where(ok, hg / np.where(ok, total, 1.0), np.nan)
    return hf, hg, j, np.where(ok, hf * j, np.nan)


# ---------------------------------------------------------------------------
# direct route
# ---------------------------------------------------------------------------


def _mu_taylor(xs, mu0, f_derivs, g_derivs, order):
    """Taylor rows of the minimizer map about each ``x``.

    Solves the stationarity condition order by order: with the rows below
    ``k`` fixed, the row-``k`` residual is linear in the unknown with
    coefficient ``f''(mu) + g''(x - mu)``.
    """
    fc = jets.derivs_to_jet(f_derivs)
    gc = jets.derivs_to_jet(g_derivs)
    total = f_derivs[2] + g_derivs[2]
    if np.any(total < _TINY):
        bad = np.where(total < _TINY)[0]
        raise DegenerateHessianError(
            f"curvature sum vanishes at {bad.size} point(s); first at "
            f"x={xs[bad[0]]!r} — higher derivatives of the infimal "
            f"convolution are unavailable there"
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


def _direct_jet(f, g, xs, order):
    mu0 = np.atleast_1d(minimizer_map(f, g, xs))
    f_derivs = f.jet(mu0, order + 1)
    g_derivs = g.jet(xs - mu0, order + 1)
    mu_rows, fc, gc, u = _mu_taylor(xs, mu0, f_derivs, g_derivs, order)
    h_coeffs = jets.tcompose(fc[: order + 1], mu_rows)
    h_coeffs += jets.tcompose(gc[: order + 1], u - mu_rows)
    return jets.jet_to_derivs(h_coeffs)


def infconv_direct(
    f: SmoothFn,
    g: SmoothFn,
    *,
    interval=None,
    grid_n: int = 1025,
    validate: bool = True,
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
    if validate:
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
        return _direct_jet(f, g, xq, order)

    vals, mu, boundary = h_values(xs)
    jet_order = max(0, min(f.max_order, g.max_order) - 1)

    h = SmoothFn.from_jet_fn(
        span,
        jet_order,
        h_jet,
        name=f"infconv[{f.name or 'f'},{g.name or 'g'}]",
    )
    return InfConvResult(
        route="direct_min",
        x=xs,
        values=vals,
        mu=mu,
        boundary=boundary,
        h=h,
    )


# ---------------------------------------------------------------------------
# conjugate route (exact piecewise-linear Legendre transforms)
# ---------------------------------------------------------------------------


def _lower_hull(xs: np.ndarray, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertices of the lower convex hull of the graph points, in order.

    Collinear interior points are dropped, so consecutive chord slopes are
    strictly increasing.
    """
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


def _conjugate_vertices(xs, vs):
    """Hull vertices plus chord slopes: the data of the exact conjugate.

    The conjugate of the piecewise-linear interpolant is itself piecewise
    linear with breakpoints exactly at the chord slopes; on the slope
    interval ending at ``s[i]`` its value is ``p * x[i] - v[i]``.
    """
    hx, hv = _lower_hull(xs, vs)
    if hx.size < 2:
        raise ValidationError("conjugate needs at least two hull vertices")
    slopes = np.diff(hv) / np.diff(hx)
    return hx, hv, slopes


def _conjugate_eval(hx, hv, slopes, p):
    """Exact conjugate values at slopes ``p`` (and the argmax vertex index)."""
    idx = np.searchsorted(slopes, p, side="left")
    return p * hx[idx] - hv[idx], idx


def infconv_conjugate(
    f: SmoothFn,
    g: SmoothFn,
    *,
    interval=None,
    grid_n: int = 1025,
    sample_n: int = (1 << 14) + 1,
    validate: bool = True,
) -> InfConvResult:
    """Infimal convolution via exact piecewise-linear Legendre transforms.

    ``f`` and ``g`` are sampled at ``sample_n`` nodes; everything after
    that is exact arithmetic on piecewise-linear functions: conjugate each
    interpolant, add on the merged slope set, conjugate back.  The returned
    function object is the resulting piecewise-linear ``h`` (order-0 only).
    ``error_bound`` stores ``(dx_f^2 max f'' + dx_g^2 max g'')/8`` when the
    inputs expose second derivatives — a sup-norm bound on the distance to
    the true infimal convolution.
    """
    if validate:
        check_convexity(f)
        check_convexity(g)
    if sample_n < 3:
        raise ArgumentError("sample_n must be at least 3")
    xf = np.linspace(f.domain[0], f.domain[1], sample_n)
    xg = np.linspace(g.domain[0], g.domain[1], sample_n)
    vf = f.eval(xf)
    vg = g.eval(xg)
    hxf, hvf, sf = _conjugate_vertices(xf, vf)
    hxg, hvg, sg = _conjugate_vertices(xg, vg)

    p_all = np.unique(np.concatenate([sf, sg]))
    conj_sum, _ = _conjugate_eval(hxf, hvf, sf, p_all)
    conj_g, _ = _conjugate_eval(hxg, hvg, sg, p_all)
    conj_sum += conj_g
    # The summed conjugate sampled at its own breakpoints is convex data up
    # to rounding; hulling it again is a cheap safeguard.
    pv, sv = _lower_hull(p_all, conj_sum)
    if pv.size < 2:
        raise ValidationError("degenerate summed conjugate (all slopes equal)")
    kinks = np.diff(sv) / np.diff(pv)

    lo_sum = hxf[0] + hxg[0]
    hi_sum = hxf[-1] + hxg[-1]
    span = _as_interval(interval) if interval is not None else (lo_sum, hi_sum)
    slack = 1e-9 * (1.0 + abs(lo_sum) + abs(hi_sum))
    if span[0] < lo_sum - slack or span[1] > hi_sum + slack:
        raise ArgumentError(
            f"requested interval {span} exceeds the sum of the domains "
            f"[{lo_sum!r}, {hi_sum!r}]"
        )

    def pwl_eval(xq):
        idx = np.searchsorted(kinks, xq, side="left")
        return xq * pv[idx] - sv[idx], pv[idx]

    xs = np.linspace(span[0], span[1], grid_n)
    vals, slope_at = pwl_eval(xs)
    fidx = np.searchsorted(sf, slope_at, side="left")
    mu = hxf[fidx]
    boundary = (
        (slope_at <= sf[0])
        | (slope_at >= sf[-1])
        | (slope_at <= sg[0])
        | (slope_at >= sg[-1])
    )

    def h_jet(xq, order):
        out = np.zeros((order + 1,) + xq.shape)
        out[0] = pwl_eval(xq)[0]
        return out

    h = SmoothFn.from_jet_fn(
        span,
        0,
        h_jet,
        name=f"infconv_pwl[{f.name or 'f'},{g.name or 'g'}]",
    )

    error_bound = None
    try:
        max_hf = float(np.max(f.jet(xf, 2)[2]))
        max_hg = float(np.max(g.jet(xg, 2)[2]))
        dxf = (f.domain[1] - f.domain[0]) / (sample_n - 1)
        dxg = (g.domain[1] - g.domain[0]) / (sample_n - 1)
        error_bound = (dxf**2 * max_hf + dxg**2 * max_hg) / 8.0
    except CapabilityError:
        pass

    return InfConvResult(
        route="conjugate",
        x=xs,
        values=vals,
        mu=mu,
        boundary=boundary,
        h=h,
        error_bound=error_bound,
    )


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def write_infconv_csv(path, result: InfConvResult, f: SmoothFn, g: SmoothFn) -> None:
    """Write ``x, h, mu, dh, d2h, j_mu, boundary`` columns for a result.

    ``dh = f'(mu)`` and the curvature split ``d2h``/``j_mu`` (as in
    :func:`smoothness_diag`) fill the interior rows; rows whose minimizer
    sits on the window boundary, or where the curvature sum vanishes, get
    NaN there.  ``f`` and ``g`` must expose second derivatives.  The file
    format is the one of :func:`minklab.export.write_csv`.
    """
    dh, d2h, j_mu = np.full((3, result.x.size), np.nan)
    interior = ~result.boundary
    if np.any(interior):
        mu_i = result.mu[interior]
        dh[interior] = f.jet(mu_i, 1)[1]
        _, _, j_mu[interior], d2h[interior] = _curvature_split(f, g, result.x[interior], mu_i)
    write_csv(
        path,
        {
            "x": result.x,
            "h": result.values,
            "mu": result.mu,
            "dh": dh,
            "d2h": d2h,
            "j_mu": j_mu,
            "boundary": result.boundary,
        },
    )
