"""Vectorized truncated-Taylor (jet) arithmetic.

A *jet* of order ``m`` evaluated at ``N`` points is an ndarray of shape
``(m + 1, N)`` (more generally ``(m + 1,) + tail``): row ``j`` holds the
Taylor coefficient ``c_j = f^(j)(x_i) / j!`` of the represented function
at each point.  All combinators below work along axis 0 and broadcast
over the trailing axes, so whole grids are processed at once.

The smooth cut-offs used throughout the package are built from
``exp(-1/u)``; :func:`exp_neg_inv` implements its jet with an explicit
underflow guard so that the flat side of every bump is *exactly* zero in
floating point (the true values there are below the smallest subnormal).
"""

from __future__ import annotations

import math

import numpy as np

# exp(-x) underflows to exactly 0.0 once x > ~745.1; we clamp a little
# earlier so every "flat side" value is exactly 0.0 rather than subnormal.
_EXP_CUT = 744.0

__all__ = [
    "jet_var",
    "jet_const",
    "tmul",
    "tdiv",
    "trecip",
    "texp",
    "tcompose",
    "quotient_derivs",
    "poly_jet",
    "exp_neg_inv",
    "smoothstep_jet",
    "jet_to_derivs",
    "derivs_to_jet",
]


def jet_var(x, order: int) -> np.ndarray:
    """Jet of the identity map ``u -> u`` at the points ``x``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros((order + 1,) + x.shape)
    out[0] = x
    if order >= 1:
        out[1] = 1.0
    return out


def jet_const(c, order: int, tail_shape: tuple = ()) -> np.ndarray:
    """Jet of a constant function."""
    out = np.zeros((order + 1,) + tuple(tail_shape))
    out[0] = c
    return out


def tmul(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Truncated Cauchy product of two jets of equal order."""
    m = u.shape[0]
    tail = np.broadcast_shapes(u.shape[1:], v.shape[1:])
    out = np.zeros((m,) + tail)
    for k in range(m):
        for j in range(k + 1):
            out[k] += u[j] * v[k - j]
    return out


def tdiv(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Jet of ``u / v``; ``v`` must have a nonvanishing constant term."""
    m = u.shape[0]
    tail = np.broadcast_shapes(u.shape[1:], v.shape[1:])
    out = np.zeros((m,) + tail)
    out[0] = u[0] / v[0]
    for k in range(1, m):
        acc = np.empty(tail)
        acc[...] = u[k]
        for j in range(1, k + 1):
            acc -= v[j] * out[k - j]
        out[k] = acc / v[0]
    return out


def trecip(v: np.ndarray) -> np.ndarray:
    """Jet of ``1 / v``."""
    return tdiv(jet_const(1.0, v.shape[0] - 1, v.shape[1:]), v)


def texp(v: np.ndarray) -> np.ndarray:
    """Jet of ``exp(v)`` via the standard derivative recurrence."""
    m = v.shape[0]
    out = np.zeros(v.shape)
    out[0] = np.exp(v[0])
    for k in range(1, m):
        acc = np.zeros(v.shape[1:])
        for j in range(1, k + 1):
            acc += j * v[j] * out[k - j]
        out[k] = acc / k
    return out


def tcompose(outer_coeffs: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Jet of ``f(g(x))`` given Taylor coefficients of ``f`` at ``g[0]``.

    ``outer_coeffs[j]`` must equal ``f^(j)(inner[0]) / j!`` (broadcastable
    against the tail of ``inner``).  Evaluated by Horner's scheme in the
    zero-constant part of ``inner``.
    """
    m = inner.shape[0]
    d = np.array(inner, dtype=float, copy=True)
    d[0] = 0.0
    tail = np.broadcast_shapes(outer_coeffs.shape[1:], inner.shape[1:])
    out = np.zeros((m,) + tail)
    out[0] = outer_coeffs[m - 1]
    for j in range(m - 2, -1, -1):
        out = tmul(out, d)
        out[0] += outer_coeffs[j]
    return out


def quotient_derivs(g: np.ndarray, rp: np.ndarray) -> np.ndarray:
    """Derivative rows of ``g o R^{-1}`` from jets in the base variable.

    ``g`` is the jet (order ``m``) of a function pre-composed with ``R``,
    ``rp`` the jet of ``R'`` (at least ``m`` rows, nonvanishing constant
    term).  Row ``k`` of the result is the k-th derivative with respect to
    ``u = R(x)``, by the recursion ``g_{k+1} = g_k' / R'``.
    """
    out = np.zeros(g.shape)
    out[0] = g[0]
    cur = g
    for k in range(1, g.shape[0]):
        oc = cur.shape[0] - 1
        deriv = cur[1:] * np.arange(1, oc + 1).reshape((oc,) + (1,) * (cur.ndim - 1))
        cur = tdiv(deriv, rp[:oc])
        out[k] = cur[0]
    return out


def poly_jet(coeffs, x, order: int) -> np.ndarray:
    """Jet of the polynomial ``sum coeffs[i] * x**i`` at the points ``x``."""
    c = np.asarray(coeffs, dtype=float)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros((order + 1,) + x.shape)
    # Taylor coefficients at x by repeated synthetic division (Horner).
    work = np.broadcast_to(c[:, None], (c.shape[0],) + x.shape).copy()
    n = c.shape[0]
    for j in range(min(order + 1, n)):
        # one Horner pass leaves p(x) in work[j]; higher rows hold the quotient
        acc = np.zeros(x.shape)
        for i in range(n - 1, j - 1, -1):
            acc = acc * x + work[i]
            work[i] = acc
        out[j] = work[j]
    return out


def _guarded_positive(u0: np.ndarray) -> np.ndarray:
    """True where exp(-1/u0) is representably positive."""
    return (u0 > 0.0) & (u0 * _EXP_CUT > 1.0)


def exp_neg_inv(u: np.ndarray) -> np.ndarray:
    """Jet of ``E(t) = exp(-1/t) if t > 0 else 0`` composed with jet ``u``.

    Columns where the value would underflow (or ``u[0] <= 0``) are exactly
    zero in every row; the absolute error committed is below the smallest
    subnormal double.
    """
    u = np.asarray(u, dtype=float)
    ok = _guarded_positive(np.asarray(u[0]))
    safe = u.copy()
    safe[0] = np.where(ok, u[0], 1.0)
    w = texp(-trecip(safe))
    w *= ok  # zero out the flat side, all rows at once
    return w


def smoothstep_jet(u: np.ndarray) -> np.ndarray:
    """Jet of the smooth step ``S(t) = E(t) / (E(t) + E(1-t))``.

    ``S`` is 0 for ``t <= 0``, 1 for ``t >= 1``, strictly increasing in
    between, and infinitely flat at both ends.  Thanks to the underflow
    guard the output rows are exactly ``[0, 0, ...]`` below the ramp and
    exactly ``[1, 0, ...]`` above it.
    """
    u = np.asarray(u, dtype=float)
    one_minus = -u
    one_minus[0] += 1.0
    eu = exp_neg_inv(u)
    ev = exp_neg_inv(one_minus)
    den = eu + ev  # constant term is bounded below by 2*exp(-2) ~ 0.27
    return tdiv(eu, den)


_FACTORIALS = np.array([math.factorial(k) for k in range(32)], dtype=float)


def jet_to_derivs(jet: np.ndarray) -> np.ndarray:
    """Convert Taylor coefficients to derivative values (row j times j!)."""
    m = jet.shape[0]
    shape = (m,) + (1,) * (jet.ndim - 1)
    return jet * _FACTORIALS[:m].reshape(shape)


def derivs_to_jet(derivs: np.ndarray) -> np.ndarray:
    """Convert derivative values to Taylor coefficients (row j over j!)."""
    m = derivs.shape[0]
    shape = (m,) + (1,) * (derivs.ndim - 1)
    return derivs / _FACTORIALS[:m].reshape(shape)
