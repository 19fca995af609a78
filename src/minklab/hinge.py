"""Convex smoothing of a hinge, modelled on a flat-ended convex profile.

A hinge is two straight segments meeting at an apex.  Given a convex
profile ``f`` on ``[0, tau]`` with ``f(0) = f'(0) = 0`` and positive slope
and curvature away from 0, the smoothing of the symmetric hinge with
half-width ``d`` and opening parameter ``gamma`` is built by

  1. placing two copies of the profile: ``f_u`` is the graph of ``f``
     translated left by ``d/cos(gamma)`` and rotated clockwise by
     ``gamma`` (so it is tangent to the hinge at its left endpoint), and
     ``f_v(t) = f_u(-t)`` is its mirror image;
  2. choosing ``eps`` so that ``f'(4 eps) = tan(gamma)``;
  3. integrating the curvature recipe

         F'' = f_u'' W_u + f_v'' W_v + b W_0,

     where ``W_u``, ``W_v`` are mollifier windows of width ``2 eps`` at
     the endpoints, ``W_0`` is a plateau window vanishing within ``eps``
     of both endpoints, and the constant ``b`` is solved in closed form
     so the exit slope matches ``f_v'(d) = tan(gamma)`` exactly.

The result interpolates ``f_u`` near the left endpoint, matches ``f_v``
up to a constant near the right one, has strictly positive curvature in
between and zero curvature at the ends, and carries quantitative
certificates (slope and value bounds, induced-hinge side lengths) that
:func:`build_smoothing` verifies on every build it returns.
:func:`schedule_smoothings` produces a whole sequence of such smoothings
with shrinking hinges, uniformly bounded norms, and total turning angle
exactly ``pi/n``; its angle search only integrates and norms candidates,
and every smoothing it returns is fully certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.integrate import simpson

from . import bumps, jets
from .errors import (
    ArgumentError,
    ConstructionError,
    HypothesisError,
    ValidationError,
)
from .export import write_json
from .fn_core import GridIntegratedFn, SmoothFn, cr_norm, invert_monotone
from .patching import PliableSeries
from .rotated_graph import rotate_graph

__all__ = [
    "Hinge",
    "Certificate",
    "SmoothingResult",
    "HingeSchedule",
    "place_profiles",
    "transport_series",
    "solve_epsilon",
    "solve_b_eps",
    "build_smoothing",
    "schedule_smoothings",
    "write_smoothing_json",
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
# Sample count of the value/slope/curvature grid of the smoothing JSON.
_JSON_GRID_N = 513
# Relative tolerance of the ``eps`` inversion.
_EPS_RTOL = 1e-12
# Probe count of the search for the profile's flat start.
_PROBE_N = 4096


@dataclass(frozen=True)
class Hinge:
    """Two segments of lengths ``l``, ``r`` meeting at ``apex``.

    ``alpha`` is the angle at the apex; ``u`` and ``v`` are the endpoint
    positions in the plane (complex numbers).
    """

    l: float
    r: float
    alpha: float
    apex: complex
    u: complex
    v: complex

    def __post_init__(self):
        if not (self.l > 0 and self.r > 0):
            raise ValidationError("hinge side lengths must be positive")
        if not 0.0 < self.alpha < math.pi:
            raise ValidationError("apex angle must lie in (0, pi)")


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
    f_u: SmoothFn
    f_v: SmoothFn
    hinge_out: Hinge
    certificates: tuple[Certificate, ...]

    def certificate(self, name: str) -> Certificate:
        for c in self.certificates:
            if c.name == name:
                return c
        raise ArgumentError(f"no certificate named {name!r}")


def _slope(f: SmoothFn, x: float) -> float:
    return float(f.jet(np.array([float(x)]), 1)[1][0])


def _value(f: SmoothFn, x: float) -> float:
    return float(f.eval(np.array([float(x)]))[0])


# ---------------------------------------------------------------------------
# profile placement
# ---------------------------------------------------------------------------


def place_profiles(f: SmoothFn, d: float, gamma: float) -> tuple[SmoothFn, SmoothFn]:
    """Left and right copies of the profile, tangent to the hinge ends.

    ``f_u`` is the translate-then-rotate-clockwise copy; ``f_v`` its
    mirror, so ``f_u(t) = f_v(-t)`` identically.  Both contain ``[-d, d]``
    in their domains and ``-f_u'(-d) = tan(gamma) = f_v'(d)``.
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

    h = SmoothFn.from_jet_fn(
        (lo - shift, hi - shift), f.max_order, shifted_jet, name="shifted profile"
    )
    f_u = rotate_graph(h, -gamma).f_phi
    if f_u.domain[1] < d:
        raise HypothesisError(
            "rotated profile does not reach the right endpoint; shrink d or gamma"
        )

    signs = (-1.0) ** np.arange(f_u.max_order + 1)

    def mirror_jet(x, order):
        rows = f_u.jet(-x, order)
        return rows * signs[: order + 1, None]

    f_v = SmoothFn.from_jet_fn(
        (-f_u.domain[1], -f_u.domain[0]), f_u.max_order, mirror_jet, name="f_v"
    )
    return f_u, f_v


def transport_series(
    ps: PliableSeries, f: SmoothFn, d: float, gamma: float
) -> PliableSeries:
    """Transport a curvature series through the left-profile placement.

    :func:`place_profiles` sends a base abscissa ``x`` to

        m(x) = (x - d/cos(gamma)) * cos(gamma) + f(x) * sin(gamma),

    the abscissa of the translated-then-rotated graph point, so a series
    representing ``f''`` that accumulates at 0 becomes a series for
    ``f_u''`` accumulating exactly at ``-d``.  Each transported piece is
    ``(p / m'**3) o m^{-1}`` — the chain factor of second derivatives
    under the graph rotation — so the coefficient-weighted sum of the
    transported pieces reproduces ``f_u''`` identically on the transported
    supports, while coefficients, indices, and the accumulation structure
    survive unchanged.
    """
    if d <= 0.0:
        raise ArgumentError("half-width d must be positive")
    if not 0.0 < gamma < math.pi / 3.0:
        raise ArgumentError("gamma must lie in (0, pi/3)")
    c = math.cos(gamma)
    s = math.sin(gamma)
    shift = d / c

    def m_map(x):
        x = np.asarray(x, dtype=float)
        return (x - shift) * c + f.eval(x) * s

    def transported_piece(piece: SmoothFn, slo: float, shi: float) -> SmoothFn:
        order_cap = min(piece.max_order, f.max_order - 1)

        def jet_fn(y, order):
            x = invert_monotone(m_map, None, y, slo, shi, rtol=1e-14)
            pj = jets.derivs_to_jet(piece.jet(x, order))
            fc = jets.derivs_to_jet(f.jet(x, order + 1))
            lift = np.arange(1, order + 2).reshape((order + 1,) + (1,) * (fc.ndim - 1))
            mp = s * fc[1:] * lift
            mp[0] += c
            mp3 = jets.tmul(jets.tmul(mp, mp), mp)
            return jets.quotient_derivs(jets.tdiv(pj, mp3), mp)

        dom = (
            float(m_map(np.array([slo]))[0]),
            float(m_map(np.array([shi]))[0]),
        )
        return SmoothFn.from_jet_fn(
            dom, order_cap, jet_fn, name=f"placed[{piece.name or 'piece'}]"
        )

    supports = m_map(ps.supports.ravel()).reshape(ps.supports.shape)
    pieces = [
        transported_piece(p, float(slo), float(shi))
        for p, (slo, shi) in zip(ps.pieces, ps.supports)
    ]
    lo_i, hi_i = ps.interval
    return PliableSeries(
        coeffs=ps.coeffs.copy(),
        pieces=pieces,
        supports=supports,
        indices=ps.indices.copy(),
        base_point=float(m_map(np.array([ps.base_point]))[0]),
        interval=(
            float(m_map(np.array([lo_i]))[0]),
            float(m_map(np.array([hi_i]))[0]),
        ),
    )


# ---------------------------------------------------------------------------
# the two scalar solves
# ---------------------------------------------------------------------------


def solve_epsilon(f: SmoothFn, gamma: float) -> float:
    """The unique ``eps`` with ``f'(4 eps) = tan(gamma)``.

    Requires ``tan(gamma)`` inside the range of ``f'``; also verifies the
    half-angle comparison ``f'(2 eps / cos(gamma)) <= tan(gamma)`` that
    makes the later side conditions automatic.
    """
    if gamma <= 0.0:
        raise ArgumentError("gamma must be positive")
    tan_g = math.tan(gamma)
    lo, hi = f.domain
    top = _slope(f, hi)
    if not tan_g < top:
        raise HypothesisError(
            f"tan(gamma)={tan_g!r} is not inside the slope range (0, {top!r})"
        )

    def slope(x):
        return f.jet(x, 1)[1]

    x4 = float(invert_monotone(slope, None, np.array([tan_g]), lo, hi, rtol=_EPS_RTOL)[0])
    eps = x4 / 4.0
    probe = 2.0 * eps / math.cos(gamma)
    if probe <= hi and _slope(f, probe) > tan_g * (1.0 + 1e-12):
        raise HypothesisError(
            "gamma is not small enough: slope at 2eps/cos(gamma) exceeds tan(gamma)"
        )
    return eps


def _window_end_rows(x: np.ndarray, d: float, eps: float, order: int, sign: int) -> np.ndarray:
    """Derivative rows of ``W((d + sign x) / (2 eps))``: ``W_u`` for sign 1, ``W_v`` for -1."""
    s = 1.0 / (2.0 * eps)
    coeff = bumps.phi_even_jet((d + sign * x) * s, order)
    scale = (sign * s) ** np.arange(order + 1)
    return jets.jet_to_derivs(coeff * scale[:, None])


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


def solve_b_eps(f_u: SmoothFn, f_v: SmoothFn, eps: float, d: float) -> float:
    """The window weight that makes the exit slope match ``f_v'(d)``.

    Solves the linear endpoint-slope equation by quadrature of the two
    profile-curvature masses and the plateau-window integral.  Positivity
    of the result is exactly the numerical form of the curvature-mass
    inequality; failure signals the construction is inconsistent.
    """
    return _solve_b_masses(f_u, f_v, eps, d)[0]


def _solve_b_masses(f_u, f_v, eps, d):
    """``(b, mass_u, mass_v)``: the window weight and the two masses it balances."""
    if not 4.0 * eps < d:
        raise HypothesisError(f"need 4*eps < d, got eps={eps!r}, d={d!r}")
    tan_g = _slope(f_v, d)
    mass_u = _curvature_mass_u(f_u, eps, d)
    mass_v = _curvature_mass_v(f_v, eps, d)
    window_area = _window_0_area(eps, d)
    b = (2.0 * tan_g - mass_u - mass_v) / window_area
    if not b > 0.0:
        raise ConstructionError(
            f"window weight {b!r} is not positive: the curvature masses "
            f"{mass_u!r} + {mass_v!r} exceed the slope budget {2.0 * tan_g!r}"
        )
    if not b <= tan_g / (d - 2.0 * eps):
        raise ConstructionError(
            f"window weight {b!r} exceeds tan(gamma)/(d-2eps)"
        )
    return b, mass_u, mass_v


def _curvature_mass_u(f_u, eps, d):
    xs = np.linspace(-d, -d + 2.0 * eps, _QUAD_N + 1)
    vals = f_u.jet(xs, 2)[2] * _window_end_rows(xs, d, eps, 0, 1)[0]
    return float(simpson(vals, x=xs))


def _curvature_mass_v(f_v, eps, d):
    xs = np.linspace(d - 2.0 * eps, d, _QUAD_N + 1)
    vals = f_v.jet(xs, 2)[2] * _window_end_rows(xs, d, eps, 0, -1)[0]
    return float(simpson(vals, x=xs))


def _window_0_area(eps, d):
    xs = np.linspace(-d + eps, -d + 2.0 * eps, _QUAD_N + 1)
    ramp = float(simpson(_window_0_rows(xs, d, eps, 0)[0], x=xs))
    return 2.0 * (d - 2.0 * eps) + 2.0 * ramp


# ---------------------------------------------------------------------------
# the build
# ---------------------------------------------------------------------------


def _flat_floor(f: SmoothFn) -> float:
    """Largest probe point below which the profile curvature vanishes."""
    lo, hi = f.domain
    xs = np.geomspace(max(hi, 1.0) * 1e-13, hi, _PROBE_N)
    pos = f.jet(xs, 2)[2] > 0.0
    if not pos.any():
        raise ValidationError("profile has no positive curvature at all")
    first = int(np.argmax(pos))
    return float(xs[first]) if first > 0 else 0.0


def _integrate(f: SmoothFn, d: float, gamma: float):
    """Place the profiles, solve ``eps`` and ``b_eps``, and integrate ``F``.

    Returns ``(F, f_u, f_v, eps, b_eps, mass_u, mass_v)``.  Raises what the
    placement and the two solves raise, but checks no certificate.
    """
    f_u, f_v = place_profiles(f, d, gamma)
    eps = solve_epsilon(f, gamma)
    if not 4.0 * eps < d:
        raise HypothesisError(
            f"gamma is not small enough for this d: 4*eps={4.0 * eps!r} >= d={d!r}"
        )
    b_eps, mass_u, mass_v = _solve_b_masses(f_u, f_v, eps, d)

    def d2_rows(x, order):
        out = b_eps * _window_0_rows(x, d, eps, order)
        for m, prof, sign in (
            (x < 2.0 * eps - d, f_u, 1),
            (x > d - 2.0 * eps, f_v, -1),
        ):
            if m.any():
                prod = jets.tmul(
                    jets.derivs_to_jet(prof.jet(x[m], order + 2)[2:]),
                    jets.derivs_to_jet(_window_end_rows(x[m], d, eps, order, sign)),
                )
                out[:, m] += jets.jet_to_derivs(prod)
        return out

    breakpoints = np.array([-d, -d + eps, -d + 2.0 * eps, d - 2.0 * eps, d - eps, d])
    F = GridIntegratedFn(
        breakpoints,
        d2_rows,
        value0=_value(f_u, -d),
        slope0=_slope(f_u, -d),
        max_order=f.max_order,
        nodes_per_piece=_NODES_PER_PIECE,
        name=f"hinge_smoothing[d={d:.4g}]",
    )
    return F, f_u, f_v, eps, b_eps, mass_u, mass_v


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
    F, f_u, f_v, eps, b_eps, mass_u, mass_v = _integrate(f, d, gamma)
    tan_g = math.tan(gamma)
    certs = _solve_certificates(f_u, f_v, eps, d, b_eps, tan_g, mass_u, mass_v)
    certs += _function_certificates(F, f_u, f_v, f, eps, d, tan_g)
    hinge_out, side_cert = _induced_hinge(F, d, tan_g, gamma)
    certs.append(side_cert)

    failed = [c for c in certs if not c.passed]
    if failed:
        lines = ", ".join(
            f"{c.name}: measured {c.measured!r} vs bound {c.bound!r}" for c in failed
        )
        raise ConstructionError(f"smoothing certificates failed: {lines}")

    return SmoothingResult(
        F=F,
        d=d,
        gamma=gamma,
        epsilon=eps,
        b_eps=b_eps,
        f_u=f_u,
        f_v=f_v,
        hinge_out=hinge_out,
        certificates=tuple(certs),
    )


def _solve_certificates(f_u, f_v, eps, d, b_eps, tan_g, mass_u, mass_v):
    upper = tan_g / (d - 2.0 * eps)
    coarse = 2.0 * tan_g / d
    su = _slope(f_u, 2.0 * eps - d)
    sv = _slope(f_v, d - 2.0 * eps)
    return [
        Certificate("window_weight_positive", b_eps, 0.0, b_eps > 0.0),
        Certificate("window_weight_upper", b_eps, upper, b_eps <= upper),
        Certificate("window_weight_coarse_upper", b_eps, coarse, b_eps < coarse),
        Certificate("left_curvature_mass", mass_u, tan_g, mass_u < tan_g),
        Certificate("right_curvature_mass", mass_v, tan_g, mass_v < tan_g),
        Certificate("left_side_slope_negative", su, 0.0, su < 0.0),
        Certificate("right_side_slope_positive", sv, 0.0, sv > 0.0),
    ]


def _function_certificates(F, f_u, f_v, f, eps, d, tan_g):
    tol = 1e-12 * (1.0 + tan_g)
    entry = abs(_slope(F, -d) + tan_g)
    exit_ = abs(_slope(F, d) - tan_g)
    end_curv = abs(float(F.jet(np.array([-d]), 2)[2][0])) + abs(
        float(F.jet(np.array([d]), 2)[2][0])
    )
    xs = np.linspace(-d, d, 4 * _CERT_GRID_N + 1)
    rows = F.jet(xs, 2)
    curv_min = float(rows[2].min())
    mid = float(F.jet(np.array([0.0]), 2)[2][0])
    collar = max(4.0 * _flat_floor(f), 1e-12 * d)
    interior = np.linspace(-d + collar, d - collar, 4 * _CERT_GRID_N + 1)
    interior_min = float(F.jet(interior, 2)[2].min())
    max_slope = float(np.abs(rows[1]).max())
    max_value = float(np.abs(rows[0]).max())
    left = np.linspace(-d, -d + eps, _CERT_GRID_N)
    gap_left = float(np.abs(F.eval(left) - f_u.eval(left)).max())
    right = np.linspace(d - eps, d, _CERT_GRID_N)
    diff = F.eval(right) - f_v.eval(right)
    gap_right = float(diff.max() - diff.min())
    window_floor = float(
        np.min(
            _window_end_rows(xs, d, eps, 0, 1)[0]
            + _window_end_rows(xs, d, eps, 0, -1)[0]
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


def _induced_hinge(F, d, tan_g, gamma):
    value_l = _value(F, -d)
    value_r = _value(F, d)
    slope_l = _slope(F, -d)
    slope_r = _slope(F, d)
    x_apex = (value_r - value_l - d * (slope_l + slope_r)) / (slope_l - slope_r)
    y_apex = value_l + slope_l * (x_apex + d)
    apex = complex(x_apex, y_apex)
    u = complex(-d, value_l)
    v = complex(d, value_r)
    au, av = u - apex, v - apex
    l, r = abs(au), abs(av)
    alpha = abs(
        math.atan2((au.conjugate() * av).imag, (au.conjugate() * av).real)
    )
    hinge = Hinge(l=l, r=r, alpha=alpha, apex=apex, u=u, v=v)
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

    @property
    def d_values(self) -> np.ndarray:
        return np.array([s.d for s in self.smoothings])

    @property
    def gamma_values(self) -> np.ndarray:
        return np.array([s.gamma for s in self.smoothings])


def _norms_upto(F: SmoothFn) -> np.ndarray:
    per = cr_norm(F, _R_MAX, grid_n=_NORM_GRID_N).per_order
    return np.cumsum(per)


def schedule_smoothings(
    f: SmoothFn,
    m_max: int,
    *,
    d0: float = 0.18,
    d_ratio: float = 0.35,
) -> HingeSchedule:
    """Build smoothings for ``m = 1..m_max`` with a diagonal angle search.

    Half-widths follow ``d_m = d0 * d_ratio**m`` (a series whose dyadic
    weighting ``2**m d_m`` converges).  The starting angle for each level
    is half the profile's slope angle at ``d_m / 8``, halved further until
    the C^r norms fall below the cap anchored at the first build (twice
    its norms).  The angle sequence is then rescaled so the total turn
    ``sum 2**(m+1) gamma_m`` is exactly ``pi/n`` for the least integer
    ``n >= 2``, and every smoothing is rebuilt.  Search candidates are
    only integrated and normed; every returned smoothing is a full
    :func:`build_smoothing`, so it is certified and a failed certificate
    raises :class:`ConstructionError`.
    """
    if m_max < 1:
        raise ArgumentError("need at least one level")
    if not 0.0 < 2.0 * d_ratio < 1.0:
        raise ArgumentError("d_ratio must be below 1/2 so 2**m d_m converges")
    ds = d0 * d_ratio ** np.arange(1, m_max + 1)
    lo, hi = f.domain
    if not 4.0 * ds[0] < hi - lo:
        raise HypothesisError("largest half-width violates 4d < profile length")

    gammas = np.zeros(m_max)
    caps = None
    for i, d in enumerate(ds):
        gamma = 0.5 * math.atan(_slope(f, d / 8.0))
        built = False
        for _ in range(_MAX_HALVINGS + 1):
            norms = _norms_upto(_integrate(f, float(d), gamma)[0])
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


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def write_smoothing_json(path, sr: SmoothingResult) -> None:
    """Dump parameters, certificates, and a value/slope/curvature grid on ``[-d, d]``."""
    xs = np.linspace(-sr.d, sr.d, _JSON_GRID_N)
    rows = sr.F.jet(xs, 2)
    payload = {
        "parameters": {
            "d": sr.d,
            "gamma": sr.gamma,
            "epsilon": sr.epsilon,
            "b_eps": sr.b_eps,
        },
        "hinge": {
            "l": sr.hinge_out.l,
            "r": sr.hinge_out.r,
            "alpha": sr.hinge_out.alpha,
            "apex": [sr.hinge_out.apex.real, sr.hinge_out.apex.imag],
        },
        "certificates": [
            {
                "name": c.name,
                "measured": c.measured,
                "bound": c.bound,
                "pass": c.passed,
            }
            for c in sr.certificates
        ],
        "grid": {
            "x": xs.tolist(),
            "value": rows[0].tolist(),
            "slope": rows[1].tolist(),
            "curvature": rows[2].tolist(),
        },
    }
    write_json(path, payload)
