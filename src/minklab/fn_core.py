"""Smooth 1-D function carriers, norms, and Hölder seminorm estimation.

A :class:`SmoothFn` is a function on a compact interval whose derivatives
up to ``max_order`` can be evaluated in batch: ``f.jet(x, m)`` returns an
``(m + 1, N)`` array whose row ``j`` holds ``f^(j)(x_i)`` (derivative
values, *not* Taylor coefficients — conversion helpers live in
:mod:`minklab.jets`).

Two kinds exist, named by the class attribute ``kind``:

* ``closed_form`` — derivatives come from an explicit rule;
* ``grid_integrated`` — the function is defined through its second
  derivative: ``f''`` is tabulated on a piecewise-uniform grid and
  integrated twice by composite Simpson quadrature (with stored
  integration constants).  Between nodes, ``f`` comes from quintic
  Hermite interpolation of the bracketing nodes' ``(f, f', f'')``, with
  error O(h^6), and ``f'`` from cubic Hermite interpolation of their
  ``(f', f'')``, with error O(h^4); orders >= 2 are delegated to the
  closed-form second-derivative rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.optimize.elementwise import find_root

from . import jets
from .errors import ArgumentError, CapabilityError, RootBracketError
from .export import write_csv

__all__ = [
    "SmoothFn",
    "GridIntegratedFn",
    "NormReport",
    "HolderReport",
    "cr_norm",
    "holder_seminorm",
    "derivative_fn",
    "invert_monotone",
    "write_csv_table",
]

Interval = tuple[float, float]


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
    """

    kind = "closed_form"

    def __init__(self, domain: Interval, max_order: int, jet_fn, *, name: str = ""):
        self.domain = _as_interval(domain)
        if max_order < 0:
            raise ArgumentError("max_order must be >= 0")
        self.max_order = int(max_order)
        self._jet_fn = jet_fn
        self.name = name

    # -- evaluation ----------------------------------------------------

    def _coerce_x(self, x) -> tuple[np.ndarray, bool]:
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        scalar = np.ndim(x) == 0
        lo, hi = self.domain
        slack = 1e-9 * (1.0 + abs(lo) + abs(hi))
        # written so that a NaN point fails the test too
        if arr.size and not (arr.min() >= lo - slack and arr.max() <= hi + slack):
            raise ArgumentError(
                f"evaluation point outside domain [{lo!r}, {hi!r}]: "
                f"range [{arr.min()!r}, {arr.max()!r}]"
            )
        return np.clip(arr, lo, hi), scalar

    def jet(self, x, order: int) -> np.ndarray:
        """Derivative rows ``f(x), f'(x), ..., f^(order)(x)``."""
        if order > self.max_order:
            raise CapabilityError(
                f"order {order} exceeds max_order {self.max_order} of {self.name or 'SmoothFn'}"
            )
        if order < 0:
            raise ArgumentError("order must be >= 0")
        arr, _ = self._coerce_x(x)
        return self._jet_fn(arr, order)

    def eval(self, x, order: int = 0):
        """Value of the ``order``-th derivative at ``x`` (scalar in, scalar out)."""
        if order > self.max_order:
            raise CapabilityError(
                f"order {order} exceeds max_order {self.max_order} of {self.name or 'SmoothFn'}"
            )
        arr, scalar = self._coerce_x(x)
        out = self._jet_fn(arr, order)[order]
        return float(out[0]) if scalar else out

    def __call__(self, x):
        return self.eval(x, 0)

    def __repr__(self):  # pragma: no cover - cosmetic
        lo, hi = self.domain
        tag = f" {self.name!r}" if self.name else ""
        return f"<SmoothFn{tag} kind={self.kind} order<={self.max_order} on [{lo:g}, {hi:g}]>"

    # -- constructors ----------------------------------------------------

    @staticmethod
    def polynomial(coeffs: Sequence[float], domain: Interval, *, max_order: int = 16, name: str = "") -> "SmoothFn":
        """The polynomial ``sum coeffs[i] * x**i`` restricted to ``domain``."""
        c = np.asarray(coeffs, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ArgumentError("coeffs must be a nonempty 1-D sequence")

        def jet_fn(x, order):
            return jets.jet_to_derivs(jets.poly_jet(c, x, order))

        return SmoothFn(domain, max_order, jet_fn, name=name or "poly")

    @staticmethod
    def from_jet_fn(domain: Interval, max_order: int, jet_fn, *, name: str = "") -> "SmoothFn":
        """Wrap a raw derivative-rows callable."""
        return SmoothFn(domain, max_order, jet_fn, name=name)


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
    """

    kind = "grid_integrated"

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
        if bp.ndim != 1 or bp.size < 2 or not np.all(np.diff(bp) > 0):
            raise ArgumentError("breakpoints must be strictly increasing with >= 2 entries")
        if nodes_per_piece < 2 or nodes_per_piece % 2:
            raise ArgumentError("nodes_per_piece must be even and >= 2")
        self._bp = bp
        self._d2 = d2_jet_fn
        self._steps = np.diff(bp) / nodes_per_piece
        self._n = int(nodes_per_piece)

        d2_tabs, d1_tabs, f_tabs = [], [], []
        f_acc, d1_acc = float(value0), float(slope0)
        for i in range(bp.size - 1):
            lo, hi = bp[i], bp[i + 1]
            nodes = np.linspace(lo, hi, self._n + 1)
            d2 = d2_jet_fn(nodes, 0)[0]
            h = self._steps[i]
            i2 = cumulative_simpson(d2, dx=h, initial=0.0)
            i2x = cumulative_simpson(nodes * d2, dx=h, initial=0.0)
            d1 = d1_acc + i2
            f = f_acc + d1_acc * (nodes - lo) + nodes * i2 - i2x
            d2_tabs.append(d2)
            d1_tabs.append(d1)
            f_tabs.append(f)
            f_acc, d1_acc = float(f[-1]), float(d1[-1])
        self._d2_tab = np.concatenate(d2_tabs)
        self._d1_tab = np.concatenate(d1_tabs)
        self._f_tab = np.concatenate(f_tabs)

        super().__init__(
            (float(bp[0]), float(bp[-1])),
            max_order,
            self._jet_impl,
            name=name,
        )

    def _table01(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(f, f') at arbitrary points: Hermite interpolation between nodes.

        Each node stores (f, f', f''), so the bracketing nodes determine a
        quintic for f — error O(h^6 max|f^(6)|) — and a cubic for f' built
        from its own (f', f'') data — error O(h^4 max|f^(6)|).  Both combine
        their table values with O(1) coefficients, so stored quadrature
        error passes through unamplified, and evaluation stays free of
        further ``d2_jet_fn`` calls.
        """
        piece = np.clip(np.searchsorted(self._bp, x, side="right") - 1, 0, self._bp.size - 2)
        h = self._steps[piece]
        lo = self._bp[piece]
        idx = np.clip(np.floor((x - lo) / h).astype(int), 0, self._n - 1)
        node = lo + idx * h
        t = (x - node) / h

        flat = piece * (self._n + 1) + idx
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
        df = (
            d0 * (1.0 - 3.0 * t2 + 2.0 * t3)
            + d1 * (3.0 * t2 - 2.0 * t3)
            + h * s0 * (t - 2.0 * t2 + t3)
            + h * s1 * (t3 - t2)
        )
        return f, df

    def _jet_impl(self, x: np.ndarray, order: int) -> np.ndarray:
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
    interval: Interval
    per_order: tuple[float, ...] = ()


@dataclass(frozen=True)
class HolderReport:
    """Discrete sup of the k-th derivative Hölder quotient over a window."""

    k: int
    alpha: float
    window: Interval
    seminorm: float
    pair_argmax: tuple[float, float]


def cr_norm(f: SmoothFn, r: int, interval: Interval | None = None, *, grid_n: int = 4097) -> NormReport:
    """Sum of per-order maxima of ``|f^(i)|``, ``i = 0..r``, over a grid."""
    if r > f.max_order:
        raise CapabilityError(f"r={r} exceeds max_order={f.max_order}")
    if grid_n < 2:
        raise ArgumentError(f"grid_n must be at least 2, got {grid_n!r}")
    lo, hi = _as_interval(interval if interval is not None else f.domain)
    dlo, dhi = f.domain
    if lo < dlo - 1e-12 * (1 + abs(dlo)) or hi > dhi + 1e-12 * (1 + abs(dhi)):
        raise ArgumentError(f"interval [{lo}, {hi}] not contained in domain [{dlo}, {dhi}]")
    xs = np.linspace(max(lo, dlo), min(hi, dhi), grid_n)
    rows = f.jet(xs, r)
    per_order = tuple(float(np.max(np.abs(rows[i]))) for i in range(r + 1))
    return NormReport(r=r, value=float(sum(per_order)), interval=(lo, hi), per_order=per_order)


def holder_seminorm(
    f: SmoothFn,
    k: int,
    alpha: float,
    window: Interval,
    *,
    grid_n: int = 512,
) -> HolderReport:
    """Discrete ``sup |f^(k)(x) - f^(k)(y)| / |x - y|^alpha`` over a pair grid."""
    if k > f.max_order:
        raise CapabilityError(f"k={k} exceeds max_order={f.max_order}")
    if not (0.0 < alpha <= 1.0):
        raise ArgumentError(f"alpha must lie in (0, 1], got {alpha}")
    if grid_n < 2:
        raise ArgumentError(f"grid_n must be at least 2, got {grid_n!r}")
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
        window=(lo, hi),
        seminorm=float(q[i, j]),
        pair_argmax=(float(xs[i]), float(xs[j])),
    )


def derivative_fn(f: SmoothFn, order: int) -> SmoothFn:
    """The ``order``-th derivative of ``f`` as a SmoothFn of its own."""
    if order > f.max_order:
        raise CapabilityError(f"order={order} exceeds max_order={f.max_order}")
    if order < 0:
        raise ArgumentError("order must be >= 0")
    if order == 0:
        return f

    def jet_fn(x, m):
        return f.jet(x, m + order)[order:]

    return SmoothFn(
        f.domain,
        f.max_order - order,
        jet_fn,
        name=f"{f.name or 'f'}^({order})",
    )


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

    ``lo``/``hi`` may be scalars or arrays matching ``ys`` (per-target
    brackets).  Every target is solved by Chandrupatla's bracketed method
    (:func:`scipy.optimize.elementwise.find_root`), which needs neither a
    derivative nor an iteration count; ``dfn`` is accepted for call
    compatibility and ignored.  ``fn`` is only ever called with an array
    shaped like ``ys``.  A target outside ``[fn(lo), fn(hi)]`` by less than
    ``1e-9 * (1 + span)`` resolves to the nearer endpoint; one further out,
    a target the solver does not converge on, or (when ``rtol > 0``) a
    residual ``|fn(x) - y|`` above ``rtol * (1 + |y|)`` raises
    :class:`~minklab.errors.RootBracketError`.
    """
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    lo_a = np.broadcast_to(np.asarray(lo, dtype=float), ys.shape).copy()
    hi_a = np.broadcast_to(np.asarray(hi, dtype=float), ys.shape).copy()
    flo = fn(lo_a)
    fhi = fn(hi_a)
    span = float(np.max(np.abs(fhi - flo))) if ys.size else 0.0
    slack = 1e-9 * (1.0 + span)
    if np.any(flo > ys + slack) or np.any(fhi < ys - slack):
        bad = np.where((flo > ys + slack) | (fhi < ys - slack))[0]
        raise RootBracketError(
            f"{bad.size} target(s) outside the bracketed range; first offending y={ys[bad[0]]!r}"
        )
    # clipped targets give every bracket a sign change (or a root at an end)
    target = np.clip(ys, flo, fhi).ravel()
    x_full = lo_a.copy()
    x_flat = x_full.reshape(-1)

    def gap(x, idx):
        # the solver passes only its unconverged targets; scatter them into
        # a full-shape argument so fn sees the same shape on every call
        x_flat[idx] = x
        return fn(x_full).reshape(-1)[idx] - target[idx]

    res = find_root(gap, (lo_a.ravel(), hi_a.ravel()), args=(np.arange(ys.size),))
    if not np.all(res.success):
        bad = np.where(~res.success)[0]
        raise RootBracketError(
            f"root search failed for {bad.size} target(s); first offending "
            f"y={ys.flat[bad[0]]!r} (status {int(res.status[bad[0]])})"
        )
    x = res.x.reshape(ys.shape)
    if rtol > 0:
        resid = np.abs(fn(x) - ys)
        if np.any(resid > rtol * (1.0 + np.abs(ys))):
            raise RootBracketError("inversion residual above tolerance")
    return x


def write_csv_table(
    f: SmoothFn,
    path,
    *,
    grid_n: int = 1001,
    orders: Sequence[int] = (0, 1, 2),
) -> None:
    """Write ``x`` and the columns ``d<o>`` (``f^(o)(x)``) on ``f.domain``.

    ``orders`` must be a non-empty sequence of distinct derivative orders
    ``>= 0``; the file format is the one of :func:`minklab.export.write_csv`.
    """
    orders = tuple(int(o) for o in orders)
    if not orders or min(orders) < 0 or len(set(orders)) < len(orders):
        raise ArgumentError(f"orders must be distinct, non-negative and non-empty: {orders!r}")
    xs = np.linspace(*f.domain, grid_n)
    rows = f.jet(xs, max(orders))
    write_csv(path, {"x": xs, **{f"d{o}": rows[o] for o in orders}})
