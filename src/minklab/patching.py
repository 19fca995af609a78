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

The same series, with its coefficients split off and its pieces
normalized, is exported as a :class:`PliableSeries` — a series whose
coefficients decay super-exponentially while the pieces' supports march
into the base point in a controlled way.  :func:`check_pliable` verifies
those conditions numerically and :func:`partial_sum_convergence` measures
tail norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import simpson

from . import bumps, jets
from .errors import ArgumentError, ConstructionError, ValidationError
from .fn_core import GridIntegratedFn, SmoothFn, cr_norm

__all__ = [
    "BumpSystem",
    "SlopeSchedule",
    "PatchedConvex",
    "PliableSeries",
    "PliabilityReport",
    "TailNormReport",
    "make_bump_system",
    "quadratic_profile_family",
    "quartic_profile_family",
    "build_patched_convex",
    "check_pliable",
    "partial_sum_convergence",
    "decay_acceleration",
]

# Least quadratic coefficient of -log2 of decaying values that counts as
# accelerating decay (slope schedules and series coefficients alike), the
# largest one of log2 of the piece norms that counts as exponential growth,
# and the cap of a pliable series' accumulation constant L.
_DECAY_Q_MIN = 0.01
_GROWTH_Q_MAX = 0.05
_L_CAP = 64.0
# Samples per support of the piece norms and of the partial-sum slices.
_NORM_GRID_N = 2049
# The bump's derivative order and partition-certificate samples; Simpson
# intervals of each gluing quadrature; the built profile's derivative order
# and grid intervals per piece.
_BUMP_MAX_ORDER = 10
_CERT_GRID_N = 512
_QUAD_N = 4096
_MAX_ORDER = 8
_NODES_PER_PIECE = 1 << 14


# ---------------------------------------------------------------------------
# bump system
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BumpSystem:
    """The normalized dyadic bump plus its partition certificate.

    ``psi`` is supported exactly on ``(2/3, 3/2)``, equals 1 exactly on
    ``[3/4, 5/4]``, and satisfies ``sum_m psi(2**m x) = 1`` for every
    ``x > 0``; ``partition_residual`` records the worst deviation of that
    sum from 1 over a logarithmic test grid.
    """

    psi: SmoothFn
    integral: float
    partition_residual: float


def dyadic_partition_residual(xs: np.ndarray) -> float:
    """Max deviation of ``sum_m psi(2**m x)`` from 1 over positive ``xs``."""
    worst = 0.0
    lo, hi = bumps.PSI_SUPPORT
    for x in np.asarray(xs, dtype=float):
        if x <= 0:
            raise ArgumentError("partition identity holds for positive x only")
        m_lo = math.floor(math.log2(lo / x))
        m_hi = math.ceil(math.log2(hi / x))
        total = 0.0
        for m in range(m_lo, m_hi + 1):
            total += float(bumps.psi_jet(np.ldexp(x, m), 0)[0][0])
        worst = max(worst, abs(total - 1.0))
    return worst


def make_bump_system() -> BumpSystem:
    """Build the normalized bump and record its partition certificate."""

    def jet_fn(x, order):
        return jets.jet_to_derivs(bumps.psi_jet(x, order))

    # the bump vanishes identically outside (2/3, 3/2); a generous domain
    # lets callers probe neighboring dyadic scales directly
    psi = SmoothFn.from_jet_fn((1.0 / 64.0, 16.0), _BUMP_MAX_ORDER, jet_fn, name="psi")
    xs = np.geomspace(1e-3, 3.0, _CERT_GRID_N)
    residual = dyadic_partition_residual(xs)
    return BumpSystem(
        psi=psi, integral=bumps.psi_integral(), partition_residual=residual
    )


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
    if np.any(v <= 0):
        raise ArgumentError("values must be positive")
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

    Validated on construction: all ``b_k > 0``, ``2**k b_k`` strictly
    decreasing, and the decay visibly accelerating (positive quadratic
    coefficient of ``-log2 b_k``), the finite stand-in for decay faster
    than every exponential.
    """

    b: np.ndarray
    decay_quadratic: float = field(init=False)

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        object.__setattr__(self, "b", b)
        if b.ndim != 1 or b.size < 4:
            raise ValidationError("schedule needs at least four levels")
        if np.any(b <= 0):
            raise ValidationError("slopes must be positive")
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


def quartic_profile_family() -> Callable[[int], SmoothFn]:
    """Profiles ``F_k(x) = x^4 / 4`` on ``[-t_k, t_k]`` (flat at 0)."""

    def family(k: int) -> SmoothFn:
        tk = 4.0**-k
        return SmoothFn.polynomial(
            [0.0, 0.0, 0.0, 0.0, 0.25], (-tk, tk), name=f"quart_profile[{k}]"
        )

    return family


# ---------------------------------------------------------------------------
# the construction
# ---------------------------------------------------------------------------


_EVEN_SUPPORT = bumps.PSI_SUPPORT  # times t_k
_ODD_SUPPORT = (2.0 * bumps.PSI_SUPPORT[0], 2.0 * bumps.PSI_SUPPORT[1])  # times t_k


@dataclass(frozen=True)
class PliableSeries:
    """A coefficient/piece split of a locally finite series on ``J``.

    ``coeffs[i]`` weights ``pieces[i]`` (normalized to unit sup), whose
    support is ``supports[i]``; ``indices[i]`` is the dyadic index used in
    the accumulation condition ``2**(-index * L) <= eps``.
    """

    coeffs: np.ndarray
    pieces: list[SmoothFn]
    supports: np.ndarray
    indices: np.ndarray
    base_point: float
    interval: tuple[float, float]


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
    series: PliableSeries

    @property
    def t(self) -> np.ndarray:
        return self.schedule.t


def _simpson_on(f_vals: np.ndarray, xs: np.ndarray) -> float:
    return float(simpson(f_vals, x=xs))


def _even_product_rows(family_k: SmoothFn, tk: float, k: int, xs: np.ndarray, order: int) -> np.ndarray:
    """Derivative rows of ``F_k''(x - t_k) * Psi(4**k x)`` on ``xs``."""
    prof = jets.derivs_to_jet(family_k.jet(xs - tk, order + 2)[2:])
    bump = bumps.psi_scaled_jet(xs, 2 * k, order)
    return jets.jet_to_derivs(jets.tmul(prof, bump))


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
    A = np.zeros(k_max + 1)
    B = np.zeros(k_max + 1)
    D = np.zeros(k_max + 1)
    alpha = np.zeros(k_max + 1)
    d_gap = 0.0
    for k in range(1, k_max + 1):
        tk = t[k]
        xs = np.linspace(tk, _EVEN_SUPPORT[1] * tk, _QUAD_N + 1)
        vals = _even_product_rows(fams[k], tk, k, xs, 0)[0]
        A[k] = _simpson_on(vals, xs)

        xs = np.linspace(2.0 * _ODD_SUPPORT[0] * tk, 4.0 * tk, _QUAD_N + 1)
        vals = _even_product_rows(fams[k - 1], t[k - 1], k - 1, xs, 0)[0]
        B[k] = _simpson_on(vals, xs)

        xs = np.linspace(_ODD_SUPPORT[0] * tk, _ODD_SUPPORT[1] * tk, _QUAD_N + 1)
        vals = jets.jet_to_derivs(bumps.psi_scaled_jet(xs, 2 * k - 1, 0))[0]
        D[k] = _simpson_on(vals, xs)
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
        out = np.zeros((order + 1,) + x.shape)
        for k in levels:
            tk = t[k]
            m = (x > _EVEN_SUPPORT[0] * tk) & (x < _EVEN_SUPPORT[1] * tk)
            if m.any():
                out[:, m] += b[k] * _even_product_rows(fams[k], tk, k, x[m], order)
            m = (x > _ODD_SUPPORT[0] * tk) & (x < _ODD_SUPPORT[1] * tk)
            if m.any():
                rows = jets.jet_to_derivs(bumps.psi_scaled_jet(x[m], 2 * k - 1, order))
                out[:, m] += alpha[k] * rows
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

    series = _assemble_series(b, t, alpha, fams, levels, hi_end)

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
        series=series,
    )


def _assemble_series(b, t, alpha, fams, levels, hi_end) -> PliableSeries:
    """Split the assembled second derivative into coefficient * unit piece."""
    coeffs: list[float] = []
    pieces: list[SmoothFn] = []
    supports: list[tuple[float, float]] = []
    indices: list[int] = []
    interval = (0.0, hi_end)
    for k in levels:
        tk = t[k]

        # odd piece: the bare bump, already unit sup (its plateau hits 1)
        lo_o, hi_o = _ODD_SUPPORT[0] * tk, _ODD_SUPPORT[1] * tk

        def odd_jet(x, order, k=k, lo=lo_o, hi=hi_o):
            out = np.zeros((order + 1,) + x.shape)
            m = (x > lo) & (x < hi)
            if m.any():
                out[:, m] = jets.jet_to_derivs(
                    bumps.psi_scaled_jet(x[m], 2 * k - 1, order)
                )
            return out

        coeffs.append(float(alpha[k]))
        pieces.append(
            SmoothFn.from_jet_fn(interval, _MAX_ORDER, odd_jet, name=f"piece[{2 * k - 1}]")
        )
        supports.append((lo_o, hi_o))
        indices.append(2 * k - 1)

        # even piece: profile curvature times bump, normalized to unit sup
        lo_e, hi_e = _EVEN_SUPPORT[0] * tk, _EVEN_SUPPORT[1] * tk
        grid = np.linspace(lo_e, hi_e, 4097)
        sup = float(np.max(_even_product_rows(fams[k], tk, k, grid, 0)[0]))
        if sup <= 0:
            raise ConstructionError(f"level {k} produces a vanishing even piece")

        def even_jet(x, order, k=k, tk=tk, sup=sup, lo=lo_e, hi=hi_e):
            out = np.zeros((order + 1,) + x.shape)
            m = (x > lo) & (x < hi)
            if m.any():
                out[:, m] = _even_product_rows(fams[k], tk, k, x[m], order) / sup
            return out

        coeffs.append(float(b[k]) * sup)
        pieces.append(
            SmoothFn.from_jet_fn(interval, _MAX_ORDER, even_jet, name=f"piece[{2 * k}]")
        )
        supports.append((lo_e, hi_e))
        indices.append(2 * k)

    order = np.argsort(indices)
    return PliableSeries(
        coeffs=np.asarray(coeffs)[order],
        pieces=[pieces[i] for i in order],
        supports=np.asarray(supports)[order],
        indices=np.asarray(indices)[order],
        base_point=0.0,
        interval=interval,
    )


# ---------------------------------------------------------------------------
# pliability checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PliabilityReport:
    """Numerical verdicts on the three pliability conditions.

    ``violations`` collects human-readable failures; the series counts as
    numerically pliable when it is empty.
    """

    coefficients_positive: bool
    decay_quadratic: float
    decay_crossings: dict[int, float]
    norm_growth: dict[int, tuple[float, float]]  # r -> (rate, quadratic coeff)
    accumulation_constant: float
    eps_counts: dict[float, int]
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_pliable(
    ps: PliableSeries,
    r_max: int,
    eps_grid: Sequence[float],
) -> PliabilityReport:
    """Verify the pliability conditions on a stored finite series.

    (i) positive coefficients whose decay accelerates (quadratic
    coefficient of ``-log2 c`` above ``_DECAY_Q_MIN``); (ii) piece norms
    growing at most exponentially in the index for every ``r <= r_max``
    (quadratic coefficient of ``log2`` of the norms at most
    ``_GROWTH_Q_MAX``); (iii) for each ``eps``, the pieces meeting the
    annulus ``eps <= |x - base| <= 2 eps`` are few and deep: their count
    and their ``-log2(eps)/index`` must share a finite bound ``L``,
    reported and capped by ``_L_CAP``.  Each piece is normed on a
    ``_NORM_GRID_N``-point grid over its support.
    """
    violations: list[str] = []

    positive = bool(np.all(ps.coeffs > 0))
    if not positive:
        violations.append("coefficients are not all positive")
    few = len(ps.pieces) < 3
    if few:
        # a finite family satisfies every asymptotic condition vacuously
        q, crossings = math.inf, {}
    else:
        q, _, crossings = decay_acceleration(ps.coeffs)
        if q <= _DECAY_Q_MIN:
            violations.append(
                f"coefficient decay is not accelerating (quadratic "
                f"coefficient {q:.4g} <= {_DECAY_Q_MIN})"
            )

    norm_growth: dict[int, tuple[float, float]] = {}
    per_piece = np.zeros((len(ps.pieces), r_max + 1))
    for i, g in enumerate(ps.pieces):
        # sample each piece over its own support: a grid over the whole
        # interval would step right over the deep, narrow ones
        lo_s, hi_s = ps.supports[i]
        per = cr_norm(g, r_max, (float(lo_s), float(hi_s)), grid_n=_NORM_GRID_N).per_order
        per_piece[i] = np.cumsum(per)
    for r in range(r_max + 1):
        norms = per_piece[:, r]
        if np.any(norms <= 0):
            violations.append(f"some pieces have zero C^{r} norm")
            norm_growth[r] = (math.nan, math.nan)
            continue
        if few:
            norm_growth[r] = (0.0, 0.0)
            continue
        idx = ps.indices.astype(float)
        coef = np.polyfit(idx, np.log2(norms), 2)
        qg, rate = float(coef[0]), float(coef[1])
        norm_growth[r] = (rate, qg)
        if qg > _GROWTH_Q_MAX:
            violations.append(
                f"C^{r} norms of the pieces grow faster than exponentially "
                f"(quadratic coefficient {qg:.4g} > {_GROWTH_Q_MAX})"
            )

    length = ps.interval[1] - ps.interval[0]
    lo_d = np.minimum(
        np.abs(ps.supports[:, 0] - ps.base_point),
        np.abs(ps.supports[:, 1] - ps.base_point),
    )
    hi_d = np.maximum(
        np.abs(ps.supports[:, 0] - ps.base_point),
        np.abs(ps.supports[:, 1] - ps.base_point),
    )
    L_req = 0.0
    eps_counts: dict[float, int] = {}
    for eps in eps_grid:
        eps = float(eps)
        if not 0.0 < 2.0 * eps < length:
            violations.append(f"eps={eps!r} outside the admissible range")
            continue
        hits = (lo_d <= 2.0 * eps) & (hi_d >= eps)
        count = int(np.count_nonzero(hits))
        eps_counts[eps] = count
        L_req = max(L_req, float(count))
        if eps < 1.0:
            for j in ps.indices[hits]:
                L_req = max(L_req, -math.log2(eps) / float(j))
    if L_req > _L_CAP:
        violations.append(
            f"accumulation constant {L_req:.3g} exceeds the cap {_L_CAP}"
        )

    return PliabilityReport(
        coefficients_positive=positive,
        decay_quadratic=q,
        decay_crossings=crossings,
        norm_growth=norm_growth,
        accumulation_constant=L_req,
        eps_counts=eps_counts,
        violations=violations,
    )


@dataclass(frozen=True)
class TailNormReport:
    r: int
    depth_lo: int
    depth_hi: int
    value: float
    per_order: np.ndarray


def partial_sum_convergence(
    ps: PliableSeries,
    r: int,
    *,
    depth_lo: int | None = None,
    depth_hi: int | None = None,
) -> TailNormReport:
    """C^r norm of the series slice between two truncation depths.

    Depths count terms from the start; the default compares dropping the
    last term against keeping it.  The slice is sampled on the union of
    per-support grids so pieces at every scale are resolved.  Depth
    difference zero reports exactly 0.
    """
    n = len(ps.pieces)
    hi = n if depth_hi is None else depth_hi
    lo = hi - 1 if depth_lo is None else depth_lo
    if not 0 <= lo <= hi <= n:
        raise ArgumentError(f"bad depths {lo}, {hi} for a series of {n} terms")
    if lo == hi:
        return TailNormReport(
            r=r, depth_lo=lo, depth_hi=hi, value=0.0, per_order=np.zeros(r + 1)
        )

    xs = np.unique(
        np.concatenate(
            [np.linspace(s_lo, s_hi, _NORM_GRID_N) for s_lo, s_hi in ps.supports[lo:hi]]
        )
    )
    rows = np.zeros((r + 1, xs.size))
    for i in range(lo, hi):
        rows += ps.coeffs[i] * ps.pieces[i].jet(xs, r)
    per_order = np.abs(rows).max(axis=1)
    return TailNormReport(
        r=r,
        depth_lo=lo,
        depth_hi=hi,
        value=float(per_order.sum()),
        per_order=per_order,
    )
