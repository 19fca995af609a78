"""Shared test fixtures-as-functions: simple carriers, FD stencils, oracles."""

import numpy as np

from minklab.cantor import _FLOAT_TOL, CoverReport, IntervalSet, _common_lattice
from minklab.fn_core import SmoothFn


def flat_center_fn(domain=(-1, 1), half_width=0.1):
    """Convex C^3 function that is *exactly* zero near 0: (|x|-w)_+^4."""

    def jet_fn(x, order):
        out = np.zeros((order + 1,) + x.shape)
        s = np.sign(x)
        t = np.maximum(np.abs(x) - half_width, 0.0)
        out[0] = t**4
        if order >= 1:
            out[1] = 4.0 * s * t**3
        if order >= 2:
            out[2] = 12.0 * t**2
        if order >= 3:
            out[3] = 24.0 * s * t
        if order >= 4:
            out[4] = np.where(t > 0, 24.0, 0.0)
        return out

    return SmoothFn.from_jet_fn(domain, 4, jet_fn, name="flat_center")


def central_fd(fn, x, order, h):
    """Central finite-difference derivative of a callable, orders 1..4."""
    if order == 1:
        return (fn(x + h) - fn(x - h)) / (2 * h)
    if order == 2:
        return (fn(x + h) - 2 * fn(x) + fn(x - h)) / h**2
    if order == 3:
        return (fn(x + 2 * h) - 2 * fn(x + h) + 2 * fn(x - h) - fn(x - 2 * h)) / (
            2 * h**3
        )
    if order == 4:
        return (
            fn(x + 2 * h) - 4 * fn(x + h) + 6 * fn(x) - 4 * fn(x - h) + fn(x - 2 * h)
        ) / h**4
    raise ValueError(f"unsupported order {order}")


def merge_by_running_max(lo, hi, exact):
    """Oracle for ``cantor._merge``: sort by ``lo``, then split where ``lo`` passes the running max of ``hi``."""
    if lo.size == 0:
        return lo, hi
    order = np.argsort(lo, kind="stable")
    lo, hi = lo[order], hi[order]
    run_hi = np.maximum.accumulate(hi)
    reach = run_hi[:-1]
    if not exact:
        reach = reach + _FLOAT_TOL * max(1.0, float(np.max(np.abs(lo))), float(np.max(np.abs(hi))))
    starts = np.empty(lo.size, dtype=bool)
    starts[0] = True
    starts[1:] = lo[1:] > reach
    idx = np.flatnonzero(starts)
    return lo[idx], np.maximum.reduceat(run_hi, idx)


def covers_by_walk(a, target):
    """Oracle for ``cantor.covers``: walk the intervals one by one with a cursor.

    It calls every zero-length target covered, so compare it on targets of
    positive length only.
    """
    t = IntervalSet.from_pairs([target])
    aa, tt = _common_lattice(a, t)
    tlo, thi = tt.lo[0], tt.hi[0]
    tol = 0 if aa.exact else _FLOAT_TOL * max(1.0, abs(float(tlo)), abs(float(thi)))
    gaps = []
    cursor = tlo
    den = aa.den if aa.exact else 1
    for lo, hi in zip(aa.lo.tolist(), aa.hi.tolist()):
        if hi < cursor or lo > thi:
            if lo > thi:
                break
            continue
        if lo > cursor + tol:
            gaps.append((cursor / den, min(lo, thi) / den))
        cursor = max(cursor, hi)
        if cursor >= thi:
            break
    if cursor < thi - tol:
        gaps.append((cursor / den, thi / den))
    return CoverReport(covered=not gaps, gaps=tuple(gaps))
