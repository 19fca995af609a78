"""Convex patching: glue prescribed slopes at dyadic anchors smoothly.

Given anchors ``t_k = 4**-k`` and target slopes ``b_k`` (positive, with
``2**k b_k`` strictly decreasing and decaying ever faster), the second
derivative is assembled as a locally finite series

    f''(x) = sum_k  b_k * F_k''(x - t_k) * Psi(4**k x)
           + sum_k  alpha_k * Psi(2**(2k-1) x),

where ``Psi`` is a dyadic partition-of-unity bump supported on
``(2/3, 3/2)`` and ``F_k`` is a supplied convex profile family.  The
correction weights ``alpha_k`` are solved in closed form from three
quadratures per level so that integrating twice from 0 yields
``f'(t_k) = b_k`` exactly; the construction fails if no starting level
makes every ``alpha_k`` positive.

The pieces are exactly self-similar (breakpoints ``{2/3, 3/4, 4/3, 3/2} *
4**-k``, and power-of-two scaling is exact), so a build evaluates ``Psi``
once per distinct argument array and rescales the rows where it recurs;
arrays are compared whole, so a reuse can miss but never approximates.

The built ``f`` has 4,096 table intervals per piece, certified on the test
profiles: the error estimate ``|T(4096) - T(2048)| / 15`` and the gap to 16,384
intervals stay under 1e-11 of the largest ``|f|`` and ``|f'|``; 2,048 fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import bumps, jets
from .errors import ArgumentError, ConstructionError, ValidationError
from .fn_core import GridIntegratedFn, SmoothFn, _simpson

__all__ = [
    "SlopeSchedule",
    "PatchedConvex",
    "quadratic_profile_family",
    "build_patched_convex",
    "decay_acceleration",
]

# Least quadratic coefficient of -log2 of the slopes that counts as
# accelerating decay.
_DECAY_Q_MIN = 0.01
# Simpson intervals of each gluing quadrature; the built profile's
# derivative order and grid intervals per piece.
_QUAD_N = 4096
_MAX_ORDER = 8
_NODES_PER_PIECE = 1 << 12
# psi arguments a build keeps: one period, four pieces of at most two terms
_REUSE_SLOTS = 8


# ---------------------------------------------------------------------------
# the dyadic partition
# ---------------------------------------------------------------------------


def dyadic_partition_residual(xs: np.ndarray) -> float:
    """Max deviation of ``sum_m psi(2**m x)`` from 1 over positive ``xs``.

    The translates are summed over the whole array, one shift ``m`` at a
    time, across every shift that can reach the support at some point.
    """
    x = np.asarray(xs, dtype=float).ravel()
    if not np.all(np.isfinite(x)):
        raise ArgumentError("partition points must be finite")
    if np.any(x <= 0):
        raise ArgumentError("partition identity holds for positive x only")
    if x.size == 0:
        return 0.0
    lo, hi = bumps.PSI_SUPPORT
    total = np.zeros_like(x)
    m_lo = math.floor(math.log2(lo / x.max()))
    m_hi = math.ceil(math.log2(hi / x.min()))
    for m in range(m_lo, m_hi + 1):
        total += bumps.psi_jet(np.ldexp(x, m), 0)[0]
    return float(np.max(np.abs(total - 1.0)))


# ---------------------------------------------------------------------------
# schedules and profile families
# ---------------------------------------------------------------------------


def decay_acceleration(values: Sequence[float]) -> tuple[float, float, dict[int, float]]:
    """Fit ``-log2(values)`` by a quadratic in the index.

    Returns ``(q, s, crossings)`` where ``q`` is the quadratic coefficient
    (positive means the decay rate keeps increasing — the finite signature
    of super-exponential decay), ``s`` the linear one, and ``crossings``
    maps each probe rate in ``{1, 2, 4, 8}`` to the fitted index past which
    the instantaneous decay rate ``2 q j + s`` exceeds it.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 3:
        raise ArgumentError("need at least three positive values")
    if not np.all(np.isfinite(v) & (v > 0)):
        raise ArgumentError("values must be positive and finite")
    idx = np.arange(v.size, dtype=float)
    d = -np.log2(v)
    coef = np.polyfit(idx, d, 2)
    q, s = float(coef[0]), float(coef[1])
    crossings = {}
    for gamma in (1, 2, 4, 8):
        if q > 1e-12:
            crossings[gamma] = max(0.0, (gamma - s) / (2.0 * q))
        else:
            crossings[gamma] = math.inf if s < gamma else 0.0
    return q, s, crossings


@dataclass(frozen=True)
class SlopeSchedule:
    """Target slopes ``b_k`` at the anchors ``t_k = 4**-k``.

    Validated on construction: every ``b_k`` finite and positive,
    ``2**k b_k`` strictly decreasing, and the decay visibly accelerating
    (positive quadratic coefficient of ``-log2 b_k``), the finite stand-in
    for decay faster than every exponential.
    """

    b: np.ndarray
    decay_quadratic: float = field(init=False)

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        object.__setattr__(self, "b", b)
        if b.ndim != 1 or b.size < 4:
            raise ValidationError("schedule needs at least four levels")
        if not np.all(np.isfinite(b) & (b > 0)):
            raise ValidationError("slopes must be positive and finite")
        weighted = np.ldexp(b, np.arange(b.size))
        if np.any(np.diff(weighted) >= 0):
            raise ValidationError("2**k b_k must be strictly decreasing")
        q, _, _ = decay_acceleration(b)
        if q <= _DECAY_Q_MIN:
            raise ValidationError(
                f"slope decay is not accelerating (quadratic coefficient "
                f"{q:.4g}); a faster-than-exponential schedule is required"
            )
        object.__setattr__(self, "decay_quadratic", float(q))

    @property
    def k_max(self) -> int:
        return self.b.size - 1

    @property
    def t(self) -> np.ndarray:
        return 4.0 ** -np.arange(self.b.size)


def quadratic_profile_family(a: Sequence[float]) -> Callable[[int], SmoothFn]:
    """Profiles ``F_k(x) = a_k^2 x^2 / 2`` on ``[-t_k, t_k]``."""
    a = np.asarray(a, dtype=float)

    def family(k: int) -> SmoothFn:
        tk = 4.0**-k
        return SmoothFn.polynomial(
            [0.0, 0.0, 0.5 * a[k] ** 2], (-tk, tk), name=f"quad_profile[{k}]"
        )

    return family


# ---------------------------------------------------------------------------
# the construction
# ---------------------------------------------------------------------------


_EVEN_SUPPORT = bumps.PSI_SUPPORT  # times t_k
_ODD_SUPPORT = (2.0 * bumps.PSI_SUPPORT[0], 2.0 * bumps.PSI_SUPPORT[1])  # times t_k


@dataclass(frozen=True)
class PatchedConvex:
    """Result of the slope-gluing construction on ``[0, 3 t_K]``."""

    f: SmoothFn
    K: int
    k_max: int
    alpha: np.ndarray
    A: np.ndarray
    B: np.ndarray
    D: np.ndarray
    schedule: SlopeSchedule
    d_quadrature_gap: float


def _even_product_rows(family_k: SmoothFn, tk: float, xs: np.ndarray, bump: np.ndarray) -> np.ndarray:
    """Derivative rows of ``F_k''(x - t_k) * Psi(4**k x)`` on ``xs``; ``bump`` is ``Psi(4**k x)``'s jet."""
    prof = jets.derivs_to_jet(family_k.jet(xs - tk, bump.shape[0] + 1)[2:])
    return jets.jet_to_derivs(jets.tmul(prof, bump))


def _reused_psi_rows(seen: list, x: np.ndarray, s: int, order: int) -> np.ndarray:
    """``bumps.psi_scaled_jet(x, s, order)``, reusing the rows of an argument ``2**s x`` in ``seen``.

    ``seen`` holds the last ``_REUSE_SLOTS`` arguments and their ``psi_jet`` rows.
    """
    arg = np.ldexp(x, s)
    for i, (prev, rows) in enumerate(seen):
        if prev.shape == arg.shape and rows.shape[0] == order + 1 and np.array_equal(prev, arg):
            seen.append(seen.pop(i))
            break
    else:
        rows = bumps.psi_jet(arg, order)
        seen.append((arg, rows))
        del seen[:-_REUSE_SLOTS]
    return bumps._scale_rows(rows.copy(), s)


def build_patched_convex(
    schedule: SlopeSchedule,
    family: Callable[[int], SmoothFn],
) -> PatchedConvex:
    """Run the gluing construction for a slope schedule and profile family.

    Per level the three quadratures are computed by composite Simpson with
    ``_QUAD_N`` intervals over the exact supports; the correction weights

        alpha_k = (b_{k-1} (1 - B_k) - b_k (1 + A_k)) / D_k

    must all be positive from some starting level ``K`` on, else the
    construction fails.  The result integrates the series twice from 0
    (both integration constants zero) on a piecewise grid whose pieces are
    the support edges, so every scale is resolved.

    Pieces and quadrature grids of different levels are exact ``4**-k``
    rescalings, so ``Psi`` rows are evaluated once per distinct argument array
    and reused bit-identically; the returned ``f`` makes one bump call per request.
    """
    b = schedule.b
    t = schedule.t
    k_max = schedule.k_max
    if k_max < 3:
        raise ArgumentError("need at least levels 0..3")

    fams = {k: family(k) for k in range(k_max + 1)}
    for k, fn in fams.items():
        rows = fn.jet(np.array([0.0]), 1)
        if abs(rows[0][0]) > 1e-15 or abs(rows[1][0]) > 1e-15:
            raise ValidationError(
                f"profile {k} must vanish to first order at 0 "
                f"(got value {rows[0][0]!r}, slope {rows[1][0]!r})"
            )

    psi_int = bumps.psi_integral()
    seen = []  # psi rows by argument, for this build only
    A = np.zeros(k_max + 1)
    B = np.zeros(k_max + 1)
    D = np.zeros(k_max + 1)
    alpha = np.zeros(k_max + 1)
    d_gap = 0.0
    for k in range(1, k_max + 1):
        tk = t[k]
        xs = np.linspace(tk, _EVEN_SUPPORT[1] * tk, _QUAD_N + 1)
        vals = _even_product_rows(fams[k], tk, xs, _reused_psi_rows(seen, xs, 2 * k, 0))[0]
        A[k] = _simpson(vals, xs)

        xs = np.linspace(2.0 * _ODD_SUPPORT[0] * tk, 4.0 * tk, _QUAD_N + 1)
        vals = _even_product_rows(fams[k - 1], t[k - 1], xs, _reused_psi_rows(seen, xs, 2 * k - 2, 0))[0]
        B[k] = _simpson(vals, xs)

        xs = np.linspace(_ODD_SUPPORT[0] * tk, _ODD_SUPPORT[1] * tk, _QUAD_N + 1)
        vals = jets.jet_to_derivs(_reused_psi_rows(seen, xs, 2 * k - 1, 0))[0]
        D[k] = _simpson(vals, xs)
        d_gap = max(d_gap, abs(D[k] - 2.0 * tk * psi_int) / (2.0 * tk * psi_int))

        alpha[k] = (b[k - 1] * (1.0 - B[k]) - b[k] * (1.0 + A[k])) / D[k]

    positive = alpha[1:] > 0.0
    if not positive[-1]:
        raise ConstructionError(
            "correction weights are nonpositive even at the deepest level"
        )
    K = k_max
    while K > 1 and alpha[K - 1] > 0.0:
        K -= 1
    if K > k_max - 3:
        raise ConstructionError(
            f"no starting level with all-positive corrections leaves at "
            f"least four levels (first admissible K={K}, k_max={k_max})"
        )

    levels = list(range(K, k_max + 1))

    def d2_jet(x, order):
        # the (level, scale) terms whose support meets the points' range
        x_lo, x_hi = np.min(x, initial=np.inf), np.max(x, initial=-np.inf)
        terms = [
            (k, s, (x > lo * t[k]) & (x < hi * t[k]))
            for k in levels
            for s, (lo, hi) in ((2 * k, _EVEN_SUPPORT), (2 * k - 1, _ODD_SUPPORT))
            if lo * t[k] < x_hi and hi * t[k] > x_lo
        ]
        if seen is not None:
            parts = [_reused_psi_rows(seen, x[m], s, order) for _, s, m in terms]
        else:
            # after the build: one bump call for all terms, on no points if none is reached
            counts = [np.count_nonzero(m) for _, _, m in terms]
            bump = bumps.psi_scaled_jet(
                np.concatenate([x[m] for _, _, m in terms] + [np.empty(0)]),
                np.repeat(np.array([s for _, s, _ in terms], dtype=int), counts),
                order,
            )
            parts = np.split(bump, np.cumsum(counts)[:-1], axis=1)
        out = np.zeros((order + 1,) + x.shape)
        for (k, s, m), rows in zip(terms, parts):
            if not rows.shape[1]:
                continue
            if s == 2 * k:
                out[:, m] += b[k] * _even_product_rows(fams[k], t[k], x[m], rows)
            else:
                out[:, m] += alpha[k] * jets.jet_to_derivs(rows)
        return out

    hi_end = 3.0 * t[K]
    edges = {0.0, hi_end}
    for k in levels:
        tk = t[k]
        for e in (
            _EVEN_SUPPORT[0] * tk,
            _EVEN_SUPPORT[1] * tk,
            _ODD_SUPPORT[0] * tk,
            _ODD_SUPPORT[1] * tk,
        ):
            if e < hi_end:
                edges.add(e)
    breakpoints = np.array(sorted(edges))

    f = GridIntegratedFn(
        breakpoints,
        d2_jet,
        value0=0.0,
        slope0=0.0,
        max_order=_MAX_ORDER,
        nodes_per_piece=_NODES_PER_PIECE,
        name=f"patched[K={K}]",
    )
    seen = None

    return PatchedConvex(
        f=f,
        K=K,
        k_max=k_max,
        alpha=alpha[K:],
        A=A[K:],
        B=B[K:],
        D=D[K:],
        schedule=schedule,
        d_quadrature_gap=d_gap,
    )

