"""Rotate a function graph and evaluate the rotated graph as a function.

Rotating ``{(x, f(x))}`` by the angle ``phi`` about the origin produces the
parametric curve ``x -> (R(x), I(x))`` with ``R = x cos(phi) - f sin(phi)``
and ``I = x sin(phi) + f cos(phi)``.  As long as ``R' = cos(phi) -
f' sin(phi)`` stays positive the image is again a graph, and
:func:`rotate_graph` returns it as a :class:`~minklab.fn_core.SmoothFn`
``f_phi`` with ``f_phi(R(x)) = I(x)``.  It inverts ``R`` with bracketed
Newton steps, taking ``R`` and ``R'`` from one jet of ``f`` per step
(:func:`minklab.fn_core.invert_monotone`), and obtains derivative rows
through the quotient recursion: if ``g_k`` denotes the k-th derivative of
the rotated function pre-composed with ``R``, then ``g_{k+1} = g_k' / R'``
(:func:`minklab.jets.quotient_derivs`).
In particular the first two orders reduce to the closed forms

    first  = (sin(phi) + f' cos(phi)) / (cos(phi) - f' sin(phi)),
    second = f'' / (R')^3,

so zero curvature of ``f`` transfers exactly.  :func:`cr_bound_check`
compares the measured ``C^r`` norm of the rotated function against an
explicit finite bound in terms of the ``C^s`` norms of ``f`` (for
``s <= 2r - 1``) and the diameter of the domain together with the origin;
the bound is valid under a smallness hypothesis on ``tan(phi)`` times the
norms, which the checker enforces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import jets
from .errors import (
    ArgumentError,
    HypothesisError,
    RotationTooLargeError,
    ValidationError,
)
from .fn_core import SmoothFn, _finite, cr_norm, invert_monotone, newton_pair

__all__ = [
    "CrBoundEntry",
    "CrBoundReport",
    "rotate_graph",
    "cr_bound_check",
]

# Sample count of the graph check of a rotation and of the norms that
# ``cr_bound_check`` compares.
_CHECK_N = 4097


def rotate_graph(f: SmoothFn, phi: float) -> SmoothFn:
    """Rotate the graph of ``f`` by ``phi`` (radians, counterclockwise).

    Returns the rotated graph as a function of the rotated abscissa.

    Raises :class:`~minklab.errors.RotationTooLargeError` when
    ``cos(phi) - f' sin(phi)`` fails to stay positive on a ``_CHECK_N``-point
    grid, i.e. when the rotated set is no longer the graph of a function,
    :class:`~minklab.errors.CapabilityError` when ``f`` has no first
    derivative (``max_order`` 0), and ``ArgumentError`` for a non-finite ``phi``.
    """
    phi = _finite(phi, "phi")
    c = math.cos(phi)
    s = math.sin(phi)
    lo, hi = f.domain

    grid = np.linspace(lo, hi, _CHECK_N)
    rprime = c - f.jet(grid, 1)[1] * s
    worst = float(rprime.min())
    if worst <= 0.0:
        raise RotationTooLargeError(
            f"rotation by phi={phi!r} produces a non-graph: "
            f"min slope of the abscissa map is {worst:.3e}"
        )

    u_lo = float(lo * c - f.eval(lo) * s)
    u_hi = float(hi * c - f.eval(hi) * s)
    if not u_lo < u_hi:
        raise RotationTooLargeError(
            f"rotation by phi={phi!r} collapses the domain image "
            f"[{u_lo!r}, {u_hi!r}]"
        )

    def r_rows(x):
        rows = f.jet(x, 1)
        return x * c - rows[0] * s, c - rows[1] * s

    def jet_fn(u, order):
        # one jet of f per step gives R and R' to the Newton steps
        x = invert_monotone(*newton_pair(r_rows), u, lo, hi, rtol=1e-14)
        if order == 0:
            return (x * s + f.eval(x) * c)[None]
        m = order
        fc = jets.derivs_to_jet(f.jet(x, m))
        xj = jets.jet_var(x, m)
        ij = xj * s + fc * c
        lift = np.arange(1, m + 1).reshape((m,) + (1,) * (fc.ndim - 1))
        rpj = -s * (fc[1:] * lift)
        rpj[0] += c
        return jets.quotient_derivs(ij, rpj)

    return SmoothFn((u_lo, u_hi), f.max_order, jet_fn, name=f"rot[{f.name or 'f'}, {phi:g}]")


@dataclass(frozen=True)
class CrBoundEntry:
    """One angle's measured norm versus the explicit bound."""

    phi: float
    measured: float
    bound: float
    hypothesis_value: float


@dataclass(frozen=True)
class CrBoundReport:
    r: int
    diameter: float
    entries: list[CrBoundEntry]


def cr_bound_check(
    f: SmoothFn,
    phi_set: Sequence[float],
    r: int,
) -> CrBoundReport:
    """Check the explicit ``C^r`` bound for rotated graphs at each angle.

    The bound is assembled from the norms ``N_s = sum_{i<=s} max|f^(i)|``
    for ``s`` up to ``2r - 1`` and ``D``, the diameter of the domain
    together with the origin:

        bound = D + N_0 + sum_{i=0}^{r-1} (D + 1 + N_{r+i}) /
                ((cos phi - |sin phi| N_{r+i}) (cos phi - |sin phi| N_r)^i)

    Every denominator must be positive — equivalently ``|tan phi| N_s < 1``
    for all ``s`` in ``r .. 2r-1`` — otherwise a
    :class:`~minklab.errors.HypothesisError` names the offending angle.
    The measured side is the ``C^r`` norm of the rotated function on its
    full (rotated) domain; a measured value above the bound raises
    :class:`~minklab.errors.ValidationError`.  Non-finite angles raise ``ArgumentError`` first.
    """
    if r < 0:
        raise ArgumentError("r must be >= 0")
    phis = [_finite(phi, "phi") for phi in phi_set]
    top = max(r, 2 * r - 1) if r >= 1 else 0
    per = cr_norm(f, top, grid_n=_CHECK_N).per_order
    norms = np.cumsum(per)
    lo, hi = f.domain
    diameter = max(hi, 0.0) - min(lo, 0.0)

    entries: list[CrBoundEntry] = []
    for phi in phis:
        c = math.cos(phi)
        s_abs = abs(math.sin(phi))
        needed = range(r, 2 * r) if r >= 1 else range(0, 1)
        for s_idx in needed:
            if c - s_abs * norms[s_idx] <= 0.0:
                raise HypothesisError(
                    f"phi={phi!r} violates the smallness hypothesis: "
                    f"|tan phi| * N_{s_idx} = "
                    f"{(s_abs / c) * norms[s_idx] if c > 0 else math.inf:.6g} >= 1"
                )
        hypothesis_value = (s_abs / c) * norms[r]

        measured = cr_norm(rotate_graph(f, phi), r, grid_n=_CHECK_N).value

        bound = diameter + norms[0]
        for i in range(r):
            den = (c - s_abs * norms[r + i]) * (c - s_abs * norms[r]) ** i
            bound += (diameter + 1.0 + norms[r + i]) / den

        if measured > bound:
            raise ValidationError(
                f"measured C^{r} norm {measured:.6g} exceeds the bound "
                f"{bound:.6g} at phi={phi!r}"
            )
        entries.append(
            CrBoundEntry(
                phi=phi,
                measured=float(measured),
                bound=float(bound),
                hypothesis_value=float(hypothesis_value),
            )
        )
    return CrBoundReport(r=r, diameter=diameter, entries=entries)
