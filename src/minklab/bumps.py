"""Smooth cut-offs: the dyadic partition of unity and an even plateau bump.

Everything here is built from the step ``S(t) = E(t) / (E(t) + E(1-t))``
with ``E(t) = exp(-1/t)`` for ``t > 0``:

* ``psi`` — a bump supported exactly on ``(2/3, 3/2)``, identically 1 on
  ``[3/4, 5/4]``, normalized so that ``sum_m psi(2**m x) = 1`` for every
  ``x > 0``.  The normalizer is invariant under dyadic rescaling, which
  makes the partition identity hold to rounding error, and it is
  identically 1 on the plateau, so the plateau value stays exactly 1.
* ``phi_even`` — an even bump supported on ``(-1, 1)``, identically 1 on
  ``[-1/2, 1/2]``.

All evaluators return jets (see :mod:`minklab.jets`): shape
``(order + 1, N)`` arrays of Taylor coefficients.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .fn_core import _simpson
from .jets import jet_var, smoothstep_jet, tdiv, tmul

__all__ = [
    "PSI_SUPPORT",
    "psi_raw_jet",
    "psi_jet",
    "psi_scaled_jet",
    "phi_even_jet",
    "psi_integral",
]

PSI_SUPPORT = (2.0 / 3.0, 1.5)

# Ramp slopes chosen so the plateau edges land exactly on S's flat ends:
# 12 * (3/4 - 2/3) = 1 and 4 * (3/2 - 5/4) = 1.
_LEFT_RAMP = 12.0
_RIGHT_RAMP = 4.0
# Simpson intervals of the integral of psi.
_INTEGRAL_N = 1 << 13


def _affine_jet(x, a: float, b: float, order: int) -> np.ndarray:
    """Jet of ``a*x + b`` at the points ``x``."""
    out = jet_var(x, order)
    out[0] = a * out[0] + b
    if order >= 1:
        out[1] = a
    return out


def psi_raw_jet(x, order: int) -> np.ndarray:
    """Jet of the unnormalized dyadic bump ``S(12(x-2/3)) * S(4(3/2-x))``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    left = smoothstep_jet(_affine_jet(x, _LEFT_RAMP, -_LEFT_RAMP * PSI_SUPPORT[0], order))
    right = smoothstep_jet(_affine_jet(x, -_RIGHT_RAMP, _RIGHT_RAMP * PSI_SUPPORT[1], order))
    return tmul(left, right)


def _normalizer_jet(x, order: int) -> np.ndarray:
    """Jet of ``T(x) = psi_raw(x/2) + psi_raw(x) + psi_raw(2x)``.

    Only the three central dyadic translates can be positive on the
    support of ``psi_raw``, and ``T(2x) = T(x)`` there, so dividing by
    ``T`` yields an exact partition of unity along dyadic scales.
    :func:`psi_jet` adds the same three terms, each only where it can be
    nonzero.
    """
    out = np.zeros((order + 1,) + np.shape(np.atleast_1d(x)))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    for m in (-1, 0, 1):
        out += _translate_jet(x, m, order)
    return out


def _translate_jet(x: np.ndarray, m: int, order: int) -> np.ndarray:
    """Jet of ``psi_raw(2**m x)`` in the variable ``x``."""
    return _scale_rows(psi_raw_jet(np.ldexp(x, m), order), m)


def _scale_rows(rows: np.ndarray, s) -> np.ndarray:
    """Jet of ``g(2**s x)`` from the jet of ``g`` at ``2**s x``: row ``j`` times ``2**(s j)``, in place."""
    for j in range(rows.shape[0]):
        rows[j] = np.ldexp(rows[j], s * j)
    return rows


def psi_jet(x, order: int) -> np.ndarray:
    """Jet of the normalized partition bump ``psi = psi_raw / T``.

    On the plateau, where both ramp arguments are at least 1, the jet is
    ``[1, 0, ...]``; on the ramps one :func:`psi_raw_jet` call gives ``psi_raw``
    and each outer translate of ``T`` where it can be nonzero (``psi_raw(x/2)``
    needs ``x > 4/3``, ``psi_raw(2x)`` needs ``x < 3/4``).  The result equals
    the unmasked ``psi_raw / T`` bit for bit.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros((order + 1,) + x.shape)
    # the constant rows of the two _affine_jet ramps in psi_raw_jet
    left = _LEFT_RAMP * x - _LEFT_RAMP * PSI_SUPPORT[0]
    right = -_RIGHT_RAMP * x + _RIGHT_RAMP * PSI_SUPPORT[1]
    plateau = (left >= 1.0) & (right >= 1.0)
    out[0][plateau] = 1.0
    ramp = ~plateau & (left > 0.0) & (right > 0.0)
    if not ramp.any():
        return out
    xr = x[ramp]
    near_lo, near_hi = xr > 2.0 * PSI_SUPPORT[0], xr < PSI_SUPPORT[1] / 2.0
    n, n_lo = xr.size, np.count_nonzero(near_lo)
    rows = psi_raw_jet(np.concatenate([xr, np.ldexp(xr[near_lo], -1), np.ldexp(xr[near_hi], 1)]), order)
    raw = rows[:, :n]
    norm = raw.copy()
    norm[:, near_lo] += _scale_rows(rows[:, n : n + n_lo], -1)
    norm[:, near_hi] += _scale_rows(rows[:, n + n_lo :], 1)
    inside = raw[0] > 0.0
    norm[0] = np.where(inside, norm[0], 1.0)
    out[:, ramp] = np.where(inside, tdiv(raw, norm), 0.0)
    return out


def psi_scaled_jet(x, scale_log2, order: int) -> np.ndarray:
    """Jet of ``psi(2**scale_log2 * x)`` (exact dyadic argument scaling).

    ``scale_log2`` is an int or an integer array that broadcasts against ``x``.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    # int32: numpy's ldexp loop for int64 exponents is over 10x slower
    scale_log2 = np.asarray(scale_log2).astype(np.int32, casting="same_kind")
    return _scale_rows(psi_jet(np.ldexp(x, scale_log2), order), scale_log2)


def phi_even_jet(x, order: int) -> np.ndarray:
    """Jet of the even bump ``phi(x) = S(4(1 - x^2)/3)``.

    Support is exactly ``(-1, 1)`` and the value is exactly 1 on
    ``[-1/2, 1/2]`` (the inner argument reaches 1 at ``|x| = 1/2``).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    inner = np.zeros((max(order, 2) + 1,) + x.shape)
    inner[0] = (4.0 / 3.0) * (1.0 - x * x)
    inner[1] = -(8.0 / 3.0) * x
    inner[2] = -4.0 / 3.0
    return smoothstep_jet(inner[: order + 1])


@lru_cache(maxsize=1)
def psi_integral() -> float:
    """The integral of the normalized bump ``psi`` over its support."""
    lo, hi = PSI_SUPPORT
    xs = np.linspace(lo, hi, _INTEGRAL_N + 1)
    return _simpson(psi_jet(xs, 0)[0], xs)
