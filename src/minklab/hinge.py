"""Convex smoothing of a hinge, modelled on a flat-ended convex profile.

A hinge is two straight segments meeting at an apex.  Given a convex
profile ``f`` on ``[0, tau]`` with ``f(0) = f'(0) = 0`` and positive slope
and curvature away from 0, the smoothing of the symmetric hinge with
half-width ``d`` and opening parameter ``gamma`` is built by

  1. placing the profile: ``f_u`` is the graph of ``f`` translated left
     by ``d/cos(gamma)`` and rotated clockwise by ``gamma`` (so it is
     tangent to the hinge at its left endpoint);
  2. choosing ``eps`` so that ``f'(4 eps) = tan(gamma)``;
  3. integrating the curvature recipe

         F'' = f_u'' W_u + f_v'' W_v + b W_0,

     where ``W_u`` is a mollifier window of width ``2 eps`` at the left
     endpoint, ``W_0`` is a plateau window vanishing within ``eps`` of
     both endpoints, and the constant ``b`` is solved in closed form so
     the exit slope matches ``f_v'(d) = tan(gamma)`` exactly.

The right end is the left end's mirror: ``f_v(t) = f_u(-t)`` and
``W_v(t) = W_u(-t)``.  Only the left end is computed; the right end term
at ``x`` is the left one's rows at ``-x``, row ``j`` times ``(-1)**j``
(:func:`_mirror`), so ``F''`` is even bit for bit, and one curvature mass
balances both ends.

The result interpolates ``f_u`` near the left endpoint, matches ``f_v``
up to a constant near the right one, has strictly positive curvature in
between and zero curvature at the ends, and carries quantitative
certificates (slope and value bounds, induced-hinge side lengths) that
:func:`build_smoothing` verifies on every build it returns.
:func:`schedule_smoothings` produces a whole sequence of such smoothings
with shrinking hinges, uniformly bounded norms, and total turning angle
exactly ``pi/n``; its angle search rejects most candidates by an exact
lower bound on their norms, integrates and norms only the rest, and every
smoothing it returns is fully certified.  During a build the placement's
``f_u`` solves each point once, whichever end asks for it.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from . import bumps, jets
from .errors import (
    ArgumentError,
    ConstructionError,
    HypothesisError,
    ValidationError,
)
from .fn_core import GridIntegratedFn, SmoothFn, _check_int, _finite, _simpson, cr_norm, invert_monotone, newton_pair
from .rotated_graph import rotate_graph

__all__ = [
    "Hinge",
    "Certificate",
    "SmoothingResult",
    "HingeSchedule",
    "place_profiles",
    "solve_epsilon",
    "solve_b_eps",
    "build_smoothing",
    "schedule_smoothings",
]

# Quadrature points of the curvature masses and the plateau-window area.
_QUAD_N = 4096
# Grid intervals per piece of the integrated smoothing.
_NODES_PER_PIECE = 2048
# Sample count of the certificate grids.
_CERT_GRID_N = 1025
# Bound of the two endpoint-interpolation certificates.
_ENDPOINT_TOL = 1e-10
# Highest norm order the schedule caps, the cap as a multiple of the first
# build's norms, the angle halvings allowed per level, and the norm grid.
_R_MAX = 4
_CAP_FACTOR = 2.0
_MAX_HALVINGS = 40
_NORM_GRID_N = 2049
# The schedule's half-widths ``d_m = _D0 * _D_RATIO**m``; the ratio is below
# 1/2, so ``2**m d_m`` converges.
_D0 = 0.18
_D_RATIO = 0.35
# Relative tolerance of the ``eps`` inversion.
_EPS_RTOL = 1e-12
# Probe count of the search for the profile's flat start; the start of
# each live profile, computed on first use.
_PROBE_N = 4096
_FLOORS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class Hinge:
    """Two segments of lengths ``l``, ``r`` meeting at ``apex``.

    ``u`` and ``v`` are the endpoint positions in the plane (complex
    numbers).
    """

    l: float
    r: float
    apex: complex
    u: complex
    v: complex

    def __post_init__(self):
        if not (self.l > 0 and self.r > 0):
            raise ValidationError("hinge side lengths must be positive")


@dataclass(frozen=True)
class Certificate:
    name: str
    measured: float
    bound: float
    passed: bool


@dataclass(frozen=True)
class SmoothingResult:
    """A smoothing ``F`` on ``[-d, d]`` with its construction data."""

    F: SmoothFn
    d: float
    gamma: float
    epsilon: float
    b_eps: float
    hinge_out: Hinge
    certificates: tuple[Certificate, ...]

    def certificate(self, name: str) -> Certificate:
        for c in self.certificates:
            if c.name == name:
                return c
        raise ArgumentError(f"no certificate named {name!r}")


# ---------------------------------------------------------------------------
# profile placement
# ---------------------------------------------------------------------------


def place_profiles(f: SmoothFn, d: float, gamma: float) -> SmoothFn:
    """The left copy ``f_u`` of the profile, tangent to the hinge's left end.

    ``f_u`` is the translate-then-rotate-clockwise copy; its domain
    contains ``[-d, d]`` and ``-f_u'(-d) = tan(gamma)``.  It is the only
    placed copy: the right copy ``f_v(t) = f_u(-t)`` is never built, as the
    build reads the right end as the left one at ``-t`` (:func:`_mirror`).
    ``f_u`` remembers the rows of each point
    it was asked (:func:`_remembered`), so the masses, the table of ``F``
    and the certificates solve each point once; the rows are the plain
    rotated graph's, bit for bit.  :func:`build_smoothing` ends the memo
    when it returns.
    """
    if d <= 0.0:
        raise ArgumentError("half-width d must be positive")
    if gamma <= 0.0:
        raise ArgumentError("a genuine hinge needs gamma > 0")
    if gamma >= math.pi / 3.0:
        raise HypothesisError(f"gamma={gamma!r} is not below pi/3")
    lo, hi = f.domain
    if abs(lo) > 1e-12 * max(1.0, abs(hi)):
        raise ArgumentError("profile domain must start at 0")
    if not 4.0 * d < hi - lo:
        raise HypothesisError(
            f"4d={4.0 * d!r} must be below the profile domain length {hi - lo!r}"
        )

    shift = d / math.cos(gamma)

    def shifted_jet(x, order):
        return f.jet(x + shift, order)

    h = SmoothFn((lo - shift, hi - shift), f.max_order, shifted_jet, name="shifted profile")
    f_u = _remembered(rotate_graph(h, -gamma))
    if f_u.domain[1] < d:
        raise HypothesisError(
            "rotated profile does not reach the right endpoint; shrink d or gamma"
        )
    return f_u


def _remembered(g: SmoothFn) -> SmoothFn:
    """``g`` with a point memo: each point is solved once per order asked.

    For each order the memo keeps the points solved so far, as sorted
    integer views of their bits, and their rows.  A call finds its points
    bit for bit (so ``-0.0`` and ``0.0`` are two points), solves the
    misses in one call of ``g`` on their distinct values and merges them
    in.  ``g``'s rows must depend on their point only, not on the other
    points of the call, so the rows are those ``g`` itself returns.
    """
    memo = {}

    def jet_fn(x, order):
        keys, rows = memo.get(order, (np.empty(0, np.int64), np.empty((order + 1, 0))))
        bits = np.ascontiguousarray(x, dtype=float).reshape(-1).view(np.int64)
        at = np.minimum(np.searchsorted(keys, bits), keys.size - 1)
        miss = bits[keys[at] != bits] if keys.size else bits
        if miss.size:
            new = np.unique(miss)
            slot = np.searchsorted(keys, new)
            keys = np.insert(keys, slot, new)
            rows = np.insert(rows, slot, g.jet(new.view(float), order), axis=1)
            memo[order] = keys, rows
            at = np.searchsorted(keys, bits)
        return rows[:, at].reshape((order + 1,) + x.shape)

    jet_fn.plain = g.jet
    return SmoothFn(g.domain, g.max_order, jet_fn, name=g.name)


def _forget(f_u: SmoothFn) -> None:
    """Drop the point memo of a :func:`_remembered` ``f_u``: it then calls ``g`` on every point."""
    f_u._jet_fn = f_u._jet_fn.plain


def _mirror(rows: np.ndarray) -> np.ndarray:
    """Derivative rows of ``g(-x)`` from those of ``g`` at ``-x``: row ``j`` times ``(-1)**j``."""
    return rows * ((-1.0) ** np.arange(rows.shape[0]))[:, None]


# ---------------------------------------------------------------------------
# the two scalar solves
# ---------------------------------------------------------------------------


def solve_epsilon(f: SmoothFn, gamma: float) -> float:
    """The unique ``eps`` with ``f'(4 eps) = tan(gamma)``.

    Requires ``tan(gamma)`` inside the range of ``f'``; also verifies the
    half-angle comparison ``f'(2 eps / cos(gamma)) <= tan(gamma)`` that
    makes the later side conditions automatic.  A non-finite ``gamma``
    raises :class:`ArgumentError`.
    """
    if not _finite(gamma, "gamma") > 0.0:
        raise ArgumentError("gamma must be positive")
    tan_g = math.tan(gamma)
    lo, hi = f.domain
    top = f.eval(hi, 1)
    if not tan_g < top:
        raise HypothesisError(
            f"tan(gamma)={tan_g!r} is not inside the slope range (0, {top!r})"
        )

    slope, curvature = newton_pair(f.slope_rows)
    x4 = float(invert_monotone(slope, curvature, np.array([tan_g]), lo, hi, rtol=_EPS_RTOL)[0])
    eps = x4 / 4.0
    probe = 2.0 * eps / math.cos(gamma)
    if probe <= hi and f.eval(probe, 1) > tan_g * (1.0 + 1e-12):
        raise HypothesisError(
            "gamma is not small enough: slope at 2eps/cos(gamma) exceeds tan(gamma)"
        )
    return eps


def _window_end_rows(x: np.ndarray, d: float, eps: float, order: int) -> np.ndarray:
    """Derivative rows of ``W_u(x) = W((d + x) / (2 eps))``; ``W_v``'s at ``x`` are :func:`_mirror` of these at ``-x``."""
    s = 1.0 / (2.0 * eps)
    coeff = bumps.phi_even_jet((d + x) * s, order)
    return jets.jet_to_derivs(coeff * (s ** np.arange(order + 1))[:, None])


def _window_0_rows(x: np.ndarray, d: float, eps: float, order: int) -> np.ndarray:
    """Derivative rows of ``W_0(x) = W(eps / (d - |x|))``.

    Exactly 1 on ``|x| <= d - 2 eps``, exactly 0 on ``|x| >= d - eps``,
    and an even smooth ramp in between.
    """
    out = np.zeros((order + 1,) + x.shape)
    ax = np.abs(x)
    out[0][ax <= d - 2.0 * eps] = 1.0
    ramp = (ax > d - 2.0 * eps) & (ax < d - eps)
    if ramp.any():
        xr = ax[ramp]
        inner = np.empty((order + 1, xr.size))
        for j in range(order + 1):
            inner[j] = eps / (d - xr) ** (j + 1)
        outer = bumps.phi_even_jet(inner[0], order)
        comp = jets.jet_to_derivs(jets.tcompose(outer, inner))
        sign = np.where(x[ramp] < 0.0, -1.0, 1.0)
        for j in range(order + 1):
            out[j][ramp] = comp[j] * sign**j
    return out


def solve_b_eps(f_u: SmoothFn, eps: float, d: float) -> tuple[float, float]:
    """``(b, mass)``: the window weight and the end curvature mass it balances.

    ``b`` makes the exit slope match ``f_v'(d) = -f_u'(-d)``.  The ends
    are mirrors, so one mass, the quadrature of ``f_u'' W_u`` over the left
    window, is the curvature of either end, and the plateau window's
    integral spends the slope budget ``2 tan(gamma)`` that twice the mass
    leaves.  Positivity of ``b`` is exactly the numerical form of the
    curvature-mass inequality; failure signals the construction is
    inconsistent.
    """
    if not 4.0 * eps < d:
        raise HypothesisError(f"need 4*eps < d, got eps={eps!r}, d={d!r}")
    # the row at -d starts the mass quadrature: read at order 2, it is solved once
    tan_g = -float(f_u.jet(np.array([-d]), 2)[1, 0])
    mass = _curvature_mass(f_u, eps, d)
    b = 2.0 * (tan_g - mass) / _window_0_area(eps, d)
    if not b > 0.0:
        raise ConstructionError(
            f"window weight {b!r} is not positive: the curvature mass {mass!r} "
            f"of each end is not below tan(gamma)={tan_g!r}"
        )
    if not b <= tan_g / (d - 2.0 * eps):
        raise ConstructionError(
            f"window weight {b!r} exceeds tan(gamma)/(d-2eps)"
        )
    return b, mass


def _curvature_mass(f_u, eps, d):
    xs = np.linspace(-d, -d + 2.0 * eps, _QUAD_N + 1)
    vals = f_u.jet(xs, 2)[2] * _window_end_rows(xs, d, eps, 0)[0]
    return _simpson(vals, xs)


def _window_0_area(eps, d):
    xs = np.linspace(-d + eps, -d + 2.0 * eps, _QUAD_N + 1)
    ramp = _simpson(_window_0_rows(xs, d, eps, 0)[0], xs)
    return 2.0 * (d - 2.0 * eps) + 2.0 * ramp


# ---------------------------------------------------------------------------
# the build
# ---------------------------------------------------------------------------


def _flat_floor(f: SmoothFn) -> float:
    """Largest probe point below which the profile curvature vanishes.

    Computed once per profile object: a schedule's builds share one probe
    scan.
    """
    if f not in _FLOORS:
        _FLOORS[f] = _probe_flat_floor(f)
    return _FLOORS[f]


def _probe_flat_floor(f: SmoothFn) -> float:
    lo, hi = f.domain
    xs = np.geomspace(max(hi, 1.0) * 1e-13, hi, _PROBE_N)
    pos = f.jet(xs, 2)[2] > 0.0
    if not pos.any():
        raise ValidationError("profile has no positive curvature at all")
    first = int(np.argmax(pos))
    return float(xs[first]) if first > 0 else 0.0


def _place(f: SmoothFn, d: float, gamma: float):
    """``(f_u, eps)``: the placed profile and ``eps``; raises what those solves raise."""
    f_u = place_profiles(f, d, gamma)
    eps = solve_epsilon(f, gamma)
    if not 4.0 * eps < d:
        raise HypothesisError(
            f"gamma is not small enough for this d: 4*eps={4.0 * eps!r} >= d={d!r}"
        )
    return f_u, eps


def _end_rows(x, d, eps, f_u, order):
    """Derivative rows of ``f_u'' W_u + f_v'' W_v``, the end terms of ``F''``.

    Both ends are read at ``y = -|x|`` in the left window: each distinct
    ``y`` is solved once, in one ``f_u`` jet and one product, and the right
    term is :func:`_mirror` of the left one's rows at ``-x``.
    """
    out = np.zeros((order + 1,) + x.shape)
    ends = np.abs(x) > d - 2.0 * eps
    if not ends.any():
        return out
    y, back = np.unique(-np.abs(x[ends]), return_inverse=True)
    prod = jets.tmul(
        jets.derivs_to_jet(f_u.jet(y, order + 2)[2:]),
        jets.derivs_to_jet(_window_end_rows(y, d, eps, order)),
    )
    rows = jets.jet_to_derivs(prod)[:, back]
    out[:, ends] += np.where(x[ends] > 0.0, _mirror(rows), rows)
    return out


def _integrate(f: SmoothFn, d: float, f_u: SmoothFn, eps: float):
    """Solve ``b_eps`` for a placement from :func:`_place` and integrate ``F``.

    Returns ``(F, b_eps, mass)``.  Raises what the ``b_eps`` solve
    raises, but checks no certificate.
    """
    b_eps, mass = solve_b_eps(f_u, eps, d)
    value0, slope0 = f_u.jet(np.array([-d]), 2)[:2, 0]

    def d2_rows(x, order):
        return b_eps * _window_0_rows(x, d, eps, order) + _end_rows(x, d, eps, f_u, order)

    breakpoints = np.array([-d, -d + eps, -d + 2.0 * eps, d - 2.0 * eps, d - eps, d])
    F = GridIntegratedFn(
        breakpoints,
        d2_rows,
        value0=value0,
        slope0=slope0,
        max_order=f.max_order,
        nodes_per_piece=_NODES_PER_PIECE,
        name=f"hinge_smoothing[d={d:.4g}]",
    )
    return F, b_eps, mass


def build_smoothing(f: SmoothFn, d: float, gamma: float) -> SmoothingResult:
    """Build the convex smoothing for half-width ``d`` and angle ``gamma``.

    Emits certificates for every guaranteed inequality (positivity and
    upper bound of the window weight, curvature-mass inequalities, exact
    endpoint slopes, endpoint interpolation of the profiles, slope bound
    ``7 tan(gamma)``, value bound ``3 d tan(gamma)``, induced-hinge side
    sum ``<= 4d/cos(gamma)``) and raises on any failure.  Interior
    curvature positivity is checked outside a collar whose width reflects
    the profile's own exactly-flat start (a truncated profile vanishes
    identically near 0, so the smoothing inherits a flat collar there).
    """
    f_u, eps = _place(f, d, gamma)
    F, b_eps, mass = _integrate(f, d, f_u, eps)
    tan_g = math.tan(gamma)
    certs = _solve_certificates(f_u, eps, d, b_eps, tan_g, mass)
    certs += _function_certificates(F, f_u, f, eps, d, tan_g)
    hinge_out, side_cert = _induced_hinge(F, d, gamma)
    certs.append(side_cert)

    failed = [c for c in certs if not c.passed]
    if failed:
        lines = ", ".join(
            f"{c.name}: measured {c.measured!r} vs bound {c.bound!r}" for c in failed
        )
        raise ConstructionError(f"smoothing certificates failed: {lines}")

    # the memo only serves the build: F's later jets solve their points afresh
    _forget(f_u)
    return SmoothingResult(
        F=F,
        d=d,
        gamma=gamma,
        epsilon=eps,
        b_eps=b_eps,
        hinge_out=hinge_out,
        certificates=tuple(certs),
    )


def _solve_certificates(f_u, eps, d, b_eps, tan_g, mass):
    # the right end is the left one's mirror: its mass and side slope
    # would be these two with the slope negated, bit for bit
    upper = tan_g / (d - 2.0 * eps)
    coarse = 2.0 * tan_g / d
    # the mass quadrature solved this point at order 2: the memo answers it
    su = float(f_u.jet(np.array([2.0 * eps - d]), 2)[1, 0])
    return [
        Certificate("window_weight_positive", b_eps, 0.0, b_eps > 0.0),
        Certificate("window_weight_upper", b_eps, upper, b_eps <= upper),
        Certificate("window_weight_coarse_upper", b_eps, coarse, b_eps < coarse),
        Certificate("left_curvature_mass", mass, tan_g, mass < tan_g),
        Certificate("left_side_slope_negative", su, 0.0, su < 0.0),
    ]


def _function_certificates(F, f_u, f, eps, d, tan_g):
    tol = 1e-12 * (1.0 + tan_g)
    entry = abs(F.eval(-d, 1) + tan_g)
    exit_ = abs(F.eval(d, 1) - tan_g)
    end_curv = abs(F.eval(-d, 2)) + abs(F.eval(d, 2))
    xs = np.linspace(-d, d, 4 * _CERT_GRID_N + 1)
    rows = F.jet(xs, 2)
    curv_min = float(rows[2].min())
    mid = F.eval(0.0, 2)
    collar = max(4.0 * _flat_floor(f), 1e-12 * d)
    interior = np.linspace(-d + collar, d - collar, 4 * _CERT_GRID_N + 1)
    interior_min = float(F.jet(interior, 2)[2].min())
    max_slope = float(np.abs(rows[1]).max())
    max_value = float(np.abs(rows[0]).max())
    # every other node of F's outer pieces, whose end rows solved them at
    # order 2: read at that order, the memo answers them
    left = np.linspace(-d, -d + eps, _CERT_GRID_N)
    gap_left = float(np.abs(F.eval(left) - f_u.jet(left, 2)[0]).max())
    right = np.linspace(d - eps, d, _CERT_GRID_N)
    diff = F.eval(right) - f_u.jet(-right, 2)[0]
    gap_right = float(diff.max() - diff.min())
    window_floor = float(
        np.min(
            _window_end_rows(xs, d, eps, 0)[0]
            + _window_end_rows(-xs, d, eps, 0)[0]
            + _window_0_rows(xs, d, eps, 0)[0]
        )
    )
    return [
        Certificate("entry_slope", entry, tol, entry <= tol),
        Certificate("exit_slope", exit_, tol, exit_ <= tol),
        Certificate("endpoint_curvature_zero", end_curv, 0.0, end_curv == 0.0),
        Certificate("curvature_nonnegative", curv_min, 0.0, bool(np.all(rows[2] >= 0.0))),
        Certificate("midpoint_curvature", mid, 0.0, mid > 0.0),
        Certificate("interior_curvature_positive", interior_min, 0.0, interior_min > 0.0),
        Certificate("slope_bound", max_slope, 7.0 * tan_g, bool(max_slope < 7.0 * tan_g)),
        Certificate(
            "value_bound", max_value, 3.0 * d * tan_g, bool(max_value <= 3.0 * d * tan_g)
        ),
        Certificate("left_endpoint_match", gap_left, _ENDPOINT_TOL, gap_left <= _ENDPOINT_TOL),
        Certificate(
            "right_endpoint_constant_gap", gap_right, _ENDPOINT_TOL, gap_right <= _ENDPOINT_TOL
        ),
        Certificate("windows_have_no_common_zero", window_floor, 0.0, window_floor > 0.0),
    ]


def _induced_hinge(F, d, gamma):
    value_l = F.eval(-d)
    value_r = F.eval(d)
    slope_l = F.eval(-d, 1)
    slope_r = F.eval(d, 1)
    x_apex = (value_r - value_l - d * (slope_l + slope_r)) / (slope_l - slope_r)
    y_apex = value_l + slope_l * (x_apex + d)
    apex = complex(x_apex, y_apex)
    u = complex(-d, value_l)
    v = complex(d, value_r)
    l, r = abs(u - apex), abs(v - apex)
    hinge = Hinge(l=l, r=r, apex=apex, u=u, v=v)
    bound = 4.0 * d / math.cos(gamma)
    cert = Certificate("hinge_side_sum", l + r, bound, l + r <= bound)
    return hinge, cert


# ---------------------------------------------------------------------------
# the schedule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HingeSchedule:
    """A sequence of smoothings with uniform norms and exact total turn.

    ``turning_sum`` equals ``sum_m 2**(m+1) * gamma_m == pi / n``; the
    per-build C^r norms (columns ``r = 0..4``) all sit below ``caps``.
    """

    smoothings: list[SmoothingResult]
    n: int
    caps: np.ndarray
    norm_table: np.ndarray
    turning_sum: float


def _norms_upto(F: SmoothFn) -> np.ndarray:
    per = cr_norm(F, _R_MAX, grid_n=_NORM_GRID_N).per_order
    return np.cumsum(per)


def _norm_floor(f_u, eps, d) -> np.ndarray:
    """A lower bound on ``_norms_upto(F)`` in every column, with no ``b_eps`` and no table.

    ``W_0`` vanishes on ``|x| >= d - eps``, so at those points of the norm
    grid ``F''``, ``F'''`` and ``F''''`` are the end rows bit for bit; their
    partial sums cannot exceed the whole grid's, as rounded addition is
    monotone.
    """
    xs = np.linspace(-d, d, _NORM_GRID_N)
    rows = _end_rows(xs[np.abs(xs) >= d - eps], d, eps, f_u, _R_MAX - 2)
    return np.cumsum([0.0, 0.0, *np.abs(rows).max(axis=1)])


def schedule_smoothings(f: SmoothFn, m_max: int) -> HingeSchedule:
    """Build smoothings for ``m = 1..m_max`` with a diagonal angle search.

    Half-widths follow ``d_m = 0.18 * 0.35**m`` (a series whose dyadic
    weighting ``2**m d_m`` converges).  The starting angle for each level
    is half the profile's slope angle at ``d_m / 8``, halved further until
    the C^r norms fall below the cap anchored at the first build (twice
    its norms).  The angle sequence is then rescaled so the total turn
    ``sum 2**(m+1) gamma_m`` is exactly ``pi/n`` for the least integer
    ``n >= 2``, and every smoothing is rebuilt.  A search candidate is
    placed and its ``eps`` solved; where ``W_0`` vanishes, the norm grid's
    ``F''`` rows need no mass solve and no table, and when their norms
    already break the cap the candidate is rejected unintegrated, so a
    :class:`ConstructionError` of its mass solve no longer stops the
    search.  The other candidates are integrated and normed, uncertified.
    Every returned smoothing is a full :func:`build_smoothing`, so it is
    certified and a failed certificate raises :class:`ConstructionError`.
    """
    _check_int(m_max, "m_max")
    if m_max < 1:
        raise ArgumentError("need at least one level")
    ds = _D0 * _D_RATIO ** np.arange(1, m_max + 1)
    lo, hi = f.domain
    if not 4.0 * ds[0] < hi - lo:
        raise HypothesisError("largest half-width violates 4d < profile length")

    gammas = np.zeros(m_max)
    caps = None
    for i, d in enumerate(ds.tolist()):
        gamma = 0.5 * math.atan(f.eval(d / 8.0, 1))
        built = False
        for _ in range(_MAX_HALVINGS + 1):
            f_u, eps = _place(f, d, gamma)
            if caps is None or np.all(_norm_floor(f_u, eps, d) <= caps):
                norms = _norms_upto(_integrate(f, d, f_u, eps)[0])
                if caps is None:
                    caps = _CAP_FACTOR * norms
                if np.all(norms <= caps):
                    built = True
                    break
            gamma *= 0.5
        if not built:
            raise ConstructionError(
                f"level {i + 1}: norm cap unreachable within {_MAX_HALVINGS} halvings"
            )
        gammas[i] = gamma

    weights = 2.0 ** np.arange(2, m_max + 2)
    total = float(weights @ gammas)
    n = max(2, math.ceil(math.pi / total - 1e-12))
    if math.pi / n > total:
        n += 1
    lam = (math.pi / n) / total
    gammas *= lam

    smoothings = []
    norm_table = np.zeros((m_max, _R_MAX + 1))
    for i, (d, gamma) in enumerate(zip(ds, gammas)):
        sr = build_smoothing(f, float(d), float(gamma))
        norm_table[i] = _norms_upto(sr.F)
        if not np.all(norm_table[i] <= caps):
            raise ConstructionError(
                f"level {i + 1} violates the norm cap after the angle rescale"
            )
        smoothings.append(sr)

    turning_sum = float(weights @ gammas)
    if abs(turning_sum - math.pi / n) > 1e-12 * math.pi:
        raise ConstructionError("turning-angle rescale failed to hit pi/n")
    return HingeSchedule(
        smoothings=smoothings,
        n=n,
        caps=caps,
        norm_table=norm_table,
        turning_sum=turning_sum,
    )

