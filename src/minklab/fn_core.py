"""Smooth 1-D function carriers, norms, and Hölder seminorm estimation.

A :class:`SmoothFn` is a function on a compact interval whose derivatives
up to ``max_order`` can be evaluated in batch: ``f.jet(x, m)`` returns an
``(m + 1, N)`` array whose row ``j`` holds ``f^(j)(x_i)`` (derivative
values, *not* Taylor coefficients — conversion helpers live in
:mod:`minklab.jets`).

Two kinds exist:

* :class:`SmoothFn` itself — derivatives come from an explicit rule;
* :class:`GridIntegratedFn` — the function is defined through its second
  derivative: ``f''`` is tabulated on a piecewise-uniform grid and
  integrated twice by composite Simpson quadrature (with stored
  integration constants).  Between nodes, ``f`` comes from quintic
  Hermite interpolation of the bracketing nodes' ``(f, f', f'')``, with
  error O(h^6), and ``f'`` from cubic Hermite interpolation of their
  ``(f', f'')``, with error O(h^4); orders >= 2 are delegated to the
  closed-form second-derivative rule.

The package's two Simpson rules, :func:`_simpson` and
:func:`_cumulative_simpson`, are its own: they repeat SciPy's formulas in
the same operations and order, so the package needs no SciPy at run time.

:func:`invert_monotone` is the package's one bracketed root finder.  It
takes Newton steps where the caller passes a derivative (built with
:func:`newton_pair` when one call yields value and derivative, as
:meth:`SmoothFn.slope_rows` does for ``f'``) and bisects otherwise.  With
scalar brackets it evaluates both ends in one call and then only the
points of the targets still unsolved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import jets
from .errors import ArgumentError, CapabilityError, RootBracketError, ValidationError

__all__ = [
    "SmoothFn",
    "GridIntegratedFn",
    "NormReport",
    "HolderReport",
    "cr_norm",
    "holder_seminorm",
    "invert_monotone",
    "newton_pair",
]

Interval = tuple[float, float]

# Step limit of invert_monotone: the number of halvings from the largest
# float down to the smallest subnormal one.
_MAXITER = 2098


def _as_interval(interval) -> Interval:
    try:
        lo, hi = float(interval[0]), float(interval[1])
    except (TypeError, ValueError, IndexError) as exc:
        raise ArgumentError(f"not an interval: {interval!r}") from exc
    if not np.isfinite(lo) or not np.isfinite(hi):
        raise ArgumentError(f"interval must be finite: {interval!r}")
    if hi <= lo:
        raise ArgumentError(f"empty interval: {interval!r}")
    return lo, hi


def _check_int(value, name: str) -> None:
    if not isinstance(value, (int, np.integer)):
        raise ArgumentError(f"{name} must be an integer, got {value!r}")


def _finite(value, name: str) -> float:
    x = float(value)
    if not np.isfinite(x):
        raise ArgumentError(f"{name} must be finite, got {x!r}")
    return x


def _check_grid_n(grid_n: int, least: int = 2) -> None:
    _check_int(grid_n, "grid_n")
    if grid_n < least:
        raise ArgumentError(f"grid_n must be at least {least} samples, got {grid_n!r}")


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Simpson integral of samples ``y`` at increasing points ``x``: ``scipy.integrate.simpson`` for odd counts."""
    if len(y) < 3 or len(y) % 2 == 0 or len(x) != len(y):
        raise ArgumentError(f"Simpson's rule needs an odd count >= 3 of points, got {len(y)} values at {len(x)}")
    h = np.diff(x)
    h0, h1 = h[:-1:2], h[1::2]
    hsum, hprod, h0divh1 = h0 + h1, h0 * h1, h0 / h1
    return float(np.sum(hsum / 6.0 * (
        y[:-2:2] * (2.0 - 1.0 / h0divh1) + y[1:-1:2] * (hsum * (hsum / hprod)) + y[2::2] * (2.0 - h0divh1)
    )))


def _cumulative_simpson(y: np.ndarray, h: float) -> np.ndarray:
    """``scipy.integrate.cumulative_simpson(y, dx=h, initial=0.0)`` for at least 3 samples.

    Steps 0, 2, 4, ... integrate the parabola through their nodes and the
    next one; the other steps, and the last, the one through the node before.
    """
    fwd = h / 3 * (5 * y[:-2] / 4 + 2 * y[1:-1] - y[2:] / 4)
    bwd = h / 3 * (5 * y[2:] / 4 + 2 * y[1:-1] - y[:-2] / 4)
    out = np.zeros(len(y))
    out[1:-1:2], out[2::2], out[-1] = fwd[::2], bwd[::2], bwd[-1]
    return np.cumsum(out, out=out)


class SmoothFn:
    """A function with batched derivative evaluation on a compact interval.

    Parameters
    ----------
    domain : (lo, hi)
        Compact interval of definition.
    max_order : int
        Highest derivative order ``jet`` may be asked for.
    jet_fn : callable
        ``jet_fn(x, order) -> (order + 1, N)`` array of derivative values
        for a 1-D float array ``x`` already validated to lie in `domain`.
        ``None`` in a subclass that defines ``_jet_fn`` as a method.
    """

    def __init__(self, domain: Interval, max_order: int, jet_fn, *, name: str = ""):
        self.domain = _as_interval(domain)
        _check_int(max_order, "max_order")
        if max_order < 0:
            raise ArgumentError("max_order must be >= 0")
        self.max_order = int(max_order)
        if jet_fn is not None:
            self._jet_fn = jet_fn
        self.name = name

    # -- evaluation ----------------------------------------------------

    def _coerce_x(self, x) -> tuple[np.ndarray, bool]:
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        scalar = np.ndim(x) == 0
        lo, hi = self.domain
        slack = 1e-9 * (1.0 + abs(lo) + abs(hi))
        if arr.size:
            mn, mx = arr.min(), arr.max()
            # written so that a NaN point fails the test too
            if not (mn >= lo - slack and mx <= hi + slack):
                raise ArgumentError(
                    f"evaluation point outside domain [{lo!r}, {hi!r}]: range [{mn!r}, {mx!r}]"
                )
            if mn < lo or mx > hi:
                arr = np.clip(arr, lo, hi)
        return arr, scalar

    def _check_order(self, order: int, name: str = "order") -> None:
        _check_int(order, name)
        if order > self.max_order:
            raise CapabilityError(
                f"{name} {order} exceeds max_order {self.max_order} of {self.name or 'SmoothFn'}"
            )
        if order < 0:
            raise ArgumentError(f"{name} must be >= 0")

    def jet(self, x, order: int) -> np.ndarray:
        """Derivative rows ``f(x), f'(x), ..., f^(order)(x)``."""
        self._check_order(order)
        arr, _ = self._coerce_x(x)
        return self._jet_fn(arr, order)

    def eval(self, x, order: int = 0):
        """Value of the ``order``-th derivative at ``x`` (scalar in, scalar out)."""
        self._check_order(order)
        arr, scalar = self._coerce_x(x)
        out = self._jet_fn(arr, order)[order]
        return float(out[0]) if scalar else out

    def __call__(self, x):
        return self.eval(x, 0)

    def slope_rows(self, x) -> tuple[np.ndarray, np.ndarray]:
        """``f'`` at the points ``x`` and its derivative, for a Newton inversion of ``f'``.

        Below ``max_order`` 2 the derivative is NaN, so the Newton steps of
        :func:`invert_monotone` fall back to bisection.
        """
        if self.max_order < 2:
            slope = self.jet(x, 1)[1]
            return slope, np.full(slope.shape, np.nan)
        rows = self.jet(x, 2)
        return rows[1], rows[2]

    def __repr__(self):  # pragma: no cover - cosmetic
        lo, hi = self.domain
        tag = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{tag} order<={self.max_order} on [{lo:g}, {hi:g}]>"

    # -- constructors ----------------------------------------------------

    @staticmethod
    def polynomial(coeffs: Sequence[float], domain: Interval, *, max_order: int = 16, name: str = "") -> "SmoothFn":
        """The polynomial ``sum coeffs[i] * x**i`` restricted to ``domain``."""
        c = np.asarray(coeffs, dtype=float)
        if c.ndim != 1 or c.size == 0 or not np.all(np.isfinite(c)):
            raise ArgumentError(f"coeffs must be a nonempty 1-D sequence of finite numbers, got {coeffs!r}")

        def jet_fn(x, order):
            return jets.jet_to_derivs(jets.poly_jet(c, x, order))

        return SmoothFn(domain, max_order, jet_fn, name=name or "poly")


class GridIntegratedFn(SmoothFn):
    """A function defined by a closed-form second derivative, integrated twice.

    Parameters
    ----------
    breakpoints : increasing 1-D array
        Piece boundaries; the domain is ``[breakpoints[0], breakpoints[-1]]``
        and every piece gets its own uniform node grid, so features of very
        different scales are each resolved.
    d2_jet_fn : callable
        ``d2_jet_fn(x, m) -> (m + 1, N)`` derivative rows of ``f''``.
    value0, slope0 : float
        ``f`` and ``f'`` at the left endpoint.
    nodes_per_piece : int
        Number of *intervals* per piece (so each piece stores that many
        plus one nodes).  Must be even for Simpson weights.

    The tables of ``f``, ``f'`` and ``f''`` are each allocated once and
    written piece by piece, so a build never holds a second copy.  Before
    any ``d2_jet_fn`` call, breakpoints not strictly increasing or of
    infinite span, a non-finite ``value0`` or ``slope0``, or an odd or
    non-integer ``nodes_per_piece`` raise :class:`ArgumentError`; a
    non-finite table entry raises :class:`ValidationError` naming its piece.
    """

    def __init__(
        self,
        breakpoints,
        d2_jet_fn,
        *,
        value0: float = 0.0,
        slope0: float = 0.0,
        max_order: int = 8,
        nodes_per_piece: int = 1 << 14,
        name: str = "",
    ):
        bp = np.asarray(breakpoints, dtype=float)
        if bp.ndim != 1 or bp.size < 2 or not np.all(bp[1:] > bp[:-1]):
            raise ArgumentError("breakpoints must be strictly increasing with >= 2 entries")
        # increasing with a finite span: every breakpoint and every step is finite
        if not np.isfinite(float(bp[-1]) - float(bp[0])):
            raise ArgumentError(f"breakpoints must span a finite width, got [{bp[0]!r}, {bp[-1]!r}]")
        f_acc, d1_acc = _finite(value0, "value0"), _finite(slope0, "slope0")
        _check_int(nodes_per_piece, "nodes_per_piece")
        if nodes_per_piece < 2 or nodes_per_piece % 2:
            raise ArgumentError("nodes_per_piece must be even and >= 2")
        self._bp = bp
        self._d2 = d2_jet_fn
        self._steps = np.diff(bp) / nodes_per_piece
        self._n = n = int(nodes_per_piece)

        self._d2_tab, self._d1_tab, self._f_tab = (np.empty((bp.size - 1) * (n + 1)) for _ in range(3))
        for i in range(bp.size - 1):
            lo, hi = bp[i], bp[i + 1]
            nodes = np.linspace(lo, hi, n + 1)
            cut = slice(i * (n + 1), (i + 1) * (n + 1))
            d2, d1, f = self._d2_tab[cut], self._d1_tab[cut], self._f_tab[cut]
            d2[:] = d2_jet_fn(nodes, 0)[0]
            h = self._steps[i]
            # an overflow shows as a non-finite entry, checked below
            with np.errstate(over="ignore", invalid="ignore"):
                i2 = _cumulative_simpson(d2, h)
                i2x = _cumulative_simpson(nodes * d2, h)
                d1[:] = d1_acc + i2
                f[:] = f_acc + d1_acc * (nodes - lo) + nodes * i2 - i2x
            if not all(np.isfinite(tab).all() for tab in (d2, d1, f)):
                raise ValidationError(
                    f"non-finite table entry on piece {i} [{lo!r}, {hi!r}] of {name or 'GridIntegratedFn'}"
                )
            f_acc, d1_acc = float(f[-1]), float(d1[-1])

        # no bound method stored on the instance: that would be a reference
        # cycle, and the tables would wait for the cyclic collector
        super().__init__((float(bp[0]), float(bp[-1])), max_order, None, name=name)

    def _cell(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Table index of the node left of each point, the step, and the offset in steps."""
        piece = np.clip(np.searchsorted(self._bp, x, side="right") - 1, 0, self._bp.size - 2)
        h = self._steps[piece]
        lo = self._bp[piece]
        idx = np.clip(np.floor((x - lo) / h).astype(int), 0, self._n - 1)
        node = lo + idx * h
        return piece * (self._n + 1) + idx, h, (x - node) / h

    def _table01(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(f, f') at arbitrary points: Hermite interpolation between nodes.

        Each node stores (f, f', f''), so the bracketing nodes determine a
        quintic for f — error O(h^6 max|f^(6)|) — and a cubic for f' built
        from its own (f', f'') data — error O(h^4 max|f^(6)|).  Both combine
        their table values with O(1) coefficients, so stored quadrature
        error passes through unamplified, and evaluation stays free of
        further ``d2_jet_fn`` calls.
        """
        flat, h, t = self._cell(x)
        f0, f1 = self._f_tab[flat], self._f_tab[flat + 1]
        d0, d1 = self._d1_tab[flat], self._d1_tab[flat + 1]
        s0, s1 = self._d2_tab[flat], self._d2_tab[flat + 1]

        t2 = t * t
        t3 = t2 * t
        t4 = t3 * t
        t5 = t4 * t
        f = (
            f0 * (1.0 - 10.0 * t3 + 15.0 * t4 - 6.0 * t5)
            + f1 * (10.0 * t3 - 15.0 * t4 + 6.0 * t5)
            + h * d0 * (t - 6.0 * t3 + 8.0 * t4 - 3.0 * t5)
            + h * d1 * (-4.0 * t3 + 7.0 * t4 - 3.0 * t5)
            + h * h * s0 * 0.5 * (t2 - 3.0 * t3 + 3.0 * t4 - t5)
            + h * h * s1 * 0.5 * (t3 - 2.0 * t4 + t5)
        )
        return f, self._cubic_slope(d0, d1, s0, s1, h, t, t2, t3)

    @staticmethod
    def _cubic_slope(d0, d1, s0, s1, h, t, t2, t3) -> np.ndarray:
        """The cubic Hermite ``f'`` of a table cell from its end data."""
        return (
            d0 * (1.0 - 3.0 * t2 + 2.0 * t3)
            + d1 * (3.0 * t2 - 2.0 * t3)
            + h * s0 * (t - 2.0 * t2 + t3)
            + h * s1 * (t3 - t2)
        )

    def slope_rows(self, x) -> tuple[np.ndarray, np.ndarray]:
        """The cubic Hermite ``f'`` of :meth:`_table01` and its own derivative.

        The derivative is exact for the interpolant that ``jet`` reports as
        ``f'`` and costs no ``d2_jet_fn`` call.
        """
        x, _ = self._coerce_x(x)
        flat, h, t = self._cell(x)
        t2 = t * t
        t3 = t2 * t
        d0, d1 = self._d1_tab[flat], self._d1_tab[flat + 1]
        s0, s1 = self._d2_tab[flat], self._d2_tab[flat + 1]
        curv = (
            (d1 - d0) * (6.0 * t - 6.0 * t2) / h
            + s0 * (1.0 - 4.0 * t + 3.0 * t2)
            + s1 * (3.0 * t2 - 2.0 * t)
        )
        return self._cubic_slope(d0, d1, s0, s1, h, t, t2, t3), curv

    def _jet_fn(self, x: np.ndarray, order: int) -> np.ndarray:
        out = np.zeros((order + 1,) + x.shape)
        f, d1 = self._table01(x)
        out[0] = f
        if order >= 1:
            out[1] = d1
        if order >= 2:
            out[2:] = self._d2(x, order - 2)
        return out


@dataclass(frozen=True)
class NormReport:
    """Value of ``||f||_r = sum_{i<=r} max |f^(i)|`` over an interval."""

    r: int
    value: float
    per_order: tuple[float, ...] = ()


@dataclass(frozen=True)
class HolderReport:
    """Discrete sup of the k-th derivative Hölder quotient over a window."""

    k: int
    alpha: float
    seminorm: float
    pair_argmax: tuple[float, float]


def cr_norm(f: SmoothFn, r: int, interval: Interval | None = None, *, grid_n: int = 4097) -> NormReport:
    """Sum of per-order maxima of ``|f^(i)|``, ``i = 0..r``, over a grid."""
    f._check_order(r, "r")
    _check_grid_n(grid_n)
    lo, hi = _as_interval(interval if interval is not None else f.domain)
    dlo, dhi = f.domain
    if lo < dlo - 1e-12 * (1 + abs(dlo)) or hi > dhi + 1e-12 * (1 + abs(dhi)):
        raise ArgumentError(f"interval [{lo}, {hi}] not contained in domain [{dlo}, {dhi}]")
    xs = np.linspace(max(lo, dlo), min(hi, dhi), grid_n)
    rows = f.jet(xs, r)
    per_order = tuple(float(np.max(np.abs(rows[i]))) for i in range(r + 1))
    return NormReport(r=r, value=float(sum(per_order)), per_order=per_order)


def holder_seminorm(
    f: SmoothFn,
    k: int,
    alpha: float,
    window: Interval,
    *,
    grid_n: int = 512,
) -> HolderReport:
    """Discrete ``sup |f^(k)(x) - f^(k)(y)| / |x - y|^alpha`` over a pair grid."""
    f._check_order(k, "k")
    if not (0.0 < alpha <= 1.0):
        raise ArgumentError(f"alpha must lie in (0, 1], got {alpha}")
    _check_grid_n(grid_n)
    lo, hi = _as_interval(window)
    xs = np.linspace(lo, hi, grid_n)
    d = f.eval(xs, k)
    num = np.abs(d[:, None] - d[None, :])
    den = np.abs(xs[:, None] - xs[None, :]) ** alpha
    np.fill_diagonal(den, np.inf)
    q = num / den
    flat = int(np.argmax(q))
    i, j = divmod(flat, grid_n)
    return HolderReport(
        k=k,
        alpha=alpha,
        seminorm=float(q[i, j]),
        pair_argmax=(float(xs[i]), float(xs[j])),
    )


def newton_pair(rows: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]):
    """``(fn, dfn)`` for :func:`invert_monotone` from one call giving both.

    ``rows(x)`` returns the value and the derivative at ``x``; ``fn`` keeps
    the derivative for the ``dfn`` call that follows it on the same array.
    """
    last = [None, None]

    def fn(x):
        value, last[1] = rows(x)
        last[0] = x
        return value

    def dfn(x):
        return last[1] if last[0] is x else rows(x)[1]

    return fn, dfn


def invert_monotone(
    fn: Callable[[np.ndarray], np.ndarray],
    dfn: Callable[[np.ndarray], np.ndarray] | None,
    ys,
    lo,
    hi,
    *,
    rtol: float = 0.0,
) -> np.ndarray:
    """Solve ``fn(x) = y`` for nondecreasing ``fn`` on ``[lo, hi]``, vectorized.

    Every target keeps a bracket with a sign change and is solved in one
    loop.  Without ``dfn`` every step bisects the bracket.  With ``dfn``
    (the derivative of ``fn``) the first step is regula falsi and every
    later one a Newton step from the latest point.  A Newton step that
    leaves the bracket (as any zero, NaN, infinite or negative derivative
    makes it do), or that is longer than half the step before last (a
    Newton cycle), falls back to bisection.  Every step stays at least
    half a tolerance inside the bracket, and a target stops once its
    bracket is narrower than ``4 eps |x| + 4 tiny`` (about 4 ulp) or
    ``|fn(x) - y|`` is at most ``tiny``, the smallest subnormal float (the
    smallest normal one would stop a target near zero with a large relative
    error); the bracket end with the smaller residual is returned.

    ``fn`` takes one argument, an array of points.  Scalar ``lo`` and
    ``hi`` mean every target inverts the same function, and ``fn`` must
    then be pointwise (``fn(x)[k]`` depends on ``x[k]`` only): one call on
    ``[lo, hi]`` gives both bracket values, and each step passes only the
    unsolved targets' points, as a 1-D array.  Per-target brackets, arrays
    matching ``ys``, keep every call shaped like ``ys``.  ``dfn`` is called
    right after ``fn`` on the same array object, so it may return a
    derivative computed alongside the value.  No targets, no call.

    A target outside ``[fn(lo), fn(hi)]`` by less than ``1e-9 * (1 + span)``
    resolves to the nearer endpoint; one further out, a non-finite value,
    a bracket width ``hi - lo`` or ``fn(hi) - fn(lo)`` that overflows
    (checked before any step), a target not converged within the float
    range's bisection count, or (when ``rtol > 0``) a residual
    ``|fn(x) - y|`` above ``rtol * (1 + |y|)`` raises
    :class:`~minklab.errors.RootBracketError`.
    The residual reads the value ``fn`` gave at the returned bracket end.
    """
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    if not ys.size:
        return np.empty(ys.shape)
    lo_a = np.broadcast_to(np.asarray(lo, dtype=float), ys.shape).copy()
    hi_a = np.broadcast_to(np.asarray(hi, dtype=float), ys.shape).copy()
    shared = np.ndim(lo) == np.ndim(hi) == 0
    if shared:
        flo, fhi = np.reshape(fn(np.array([lo, hi], dtype=float)), -1)
    else:
        flo, fhi = fn(lo_a), fn(hi_a)
    if not all(np.isfinite(v).all() for v in (lo_a, hi_a, flo, fhi, ys)):
        raise RootBracketError("root search failed: non-finite bracket, bracket value or target")
    with np.errstate(over="ignore"):
        width, rise = hi_a - lo_a, fhi - flo
    if not (np.isfinite(width).all() and np.isfinite(rise).all()):
        raise RootBracketError(
            "root search failed: the bracket width hi - lo or fn(hi) - fn(lo) overflows to inf"
        )
    slack = 1e-9 * (1.0 + float(np.max(np.abs(rise))))
    if np.any(flo > ys + slack) or np.any(fhi < ys - slack):
        bad = np.flatnonzero((flo > ys + slack) | (fhi < ys - slack))
        raise RootBracketError(
            f"{bad.size} target(s) outside the bracketed range; first offending y={ys.flat[bad[0]]!r}"
        )
    # clipped targets give every bracket a sign change (or a root at an end)
    tgt = np.clip(ys, flo, fhi).reshape(-1)
    # x1 the latest point, x2 the bracket end across the root; v* the values
    # fn(x*), f* the gaps v* - y, d1 the derivative at x1
    x1, x2 = lo_a.reshape(-1), hi_a.reshape(-1)
    v1, v2 = (np.broadcast_to(np.reshape(v, -1), tgt.shape) for v in (flo, fhi))
    f1, f2 = v1 - tgt, v2 - tgt
    d1 = None
    # the last two step lengths: a Newton step must halve the older one
    step1 = step2 = np.abs(x2 - x1)
    out, out_v = np.empty(x1.shape), np.empty(x1.shape)
    arg = None if shared else lo_a.reshape(-1).copy()
    idx = np.arange(x1.size)
    tiny, eps = np.finfo(float).smallest_subnormal, np.finfo(float).eps
    for it in range(_MAXITER + 1):
        a1, a2 = np.abs(f1), np.abs(f2)
        small = a1 < a2
        xmin = np.where(small, x1, x2)
        span = x2 - x1
        tol = 4.0 * eps * np.abs(xmin) + 4.0 * tiny
        stop = (np.minimum(a1, a2) <= tiny) | (np.abs(span) < tol)
        if stop.any():
            done, keep = np.flatnonzero(stop), np.flatnonzero(~stop)  # faster than masks
            out[idx[done]] = xmin[done]
            out_v[idx[done]] = np.where(small, v1, v2)[done]
            idx, tgt, x1, f1, v1, x2, f2, v2, span, tol, step1, step2 = (
                a[keep] for a in (idx, tgt, x1, f1, v1, x2, f2, v2, span, tol, step1, step2)
            )
            d1 = None if d1 is None else d1[keep]
        if not idx.size:
            break
        if it == _MAXITER:
            raise RootBracketError(
                f"root search failed for {idx.size} target(s): no convergence in "
                f"{_MAXITER} steps; first offending y={ys.flat[idx[0]]!r}"
            )
        with np.errstate(divide="ignore", invalid="ignore"):
            if dfn is None:
                t = 0.5
            elif d1 is None:  # the first step: regula falsi
                t = f1 / (f1 - f2)
            else:
                newton = -f1 / d1
                t = newton / span
                t[~((t > 0.0) & (t < 1.0) & (np.abs(newton) <= 0.5 * step2))] = 0.5
        tl = 0.5 * tol / np.abs(span)
        x = x1 + np.clip(t, tl, 1.0 - tl) * span
        step2, step1 = step1, np.abs(x - x1)
        if shared:
            pts, sel = x, slice(None)
        else:
            arg[idx] = x
            pts, sel = arg.reshape(ys.shape), idx
        v = np.reshape(fn(pts), -1)[sel]
        f = v - tgt
        if dfn is not None:
            d1 = np.reshape(dfn(pts), -1)[sel]
        if not np.isfinite(f).all():
            bad = idx[~np.isfinite(f)]
            raise RootBracketError(
                f"root search failed for {bad.size} target(s): non-finite value; "
                f"first offending y={ys.flat[bad[0]]!r}"
            )
        same = np.sign(f) == np.sign(f1)
        x2, f2, v2 = np.where(same, x2, x1), np.where(same, f2, f1), np.where(same, v2, v1)
        x1, f1, v1 = x, f, v
    if rtol > 0 and np.any(np.abs(out_v.reshape(ys.shape) - ys) > rtol * (1.0 + np.abs(ys))):
        raise RootBracketError("inversion residual above tolerance")
    return out.reshape(ys.shape)

