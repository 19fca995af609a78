"""Shared test fixtures-as-functions: simple carriers, FD stencils, oracles."""

import cmath
import math
import tracemalloc
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from minklab.bumps import _scale_rows, psi_raw_jet
from minklab.cantor import CantorSpec, CoverReport, IntervalSet, _common_lattice, build_cantor
from minklab.curve import SupportFn
from minklab.errors import ArgumentError
from minklab.fn_core import SmoothFn, _cumulative_simpson, invert_monotone, newton_pair
from minklab.infconv import _slope_gap, _windows
from minklab.patching import SlopeSchedule, build_patched_convex, quadratic_profile_family

# The slope schedules of the ``hinge_profile`` and ``second_profile`` fixtures.
SLOPES_1 = np.array([2.0, 0.8, 0.3, 0.1, 0.02, 1e-3, 1e-5, 1e-8, 1e-12, 1e-17, 1e-23])
SLOPES_2 = np.array([1.6, 0.7, 0.28, 0.09, 0.018, 9e-4, 9e-6, 9e-9, 9e-13, 9e-18, 9e-24])


def blended_profile(w):
    """The glued profile of the slope schedule ``SLOPES_1**(1 - w) * SLOPES_2**w``, as perfbench builds it."""
    b = SLOPES_1 ** (1.0 - w) * SLOPES_2**w
    return build_patched_convex(SlopeSchedule(b), quadratic_profile_family(2.0 ** -np.arange(11)))


def quartic_profile_family():
    """Profiles ``F_k(x) = x^4 / 4`` on ``[-t_k, t_k]`` (flat at 0), for ``build_patched_convex``."""

    def family(k: int) -> SmoothFn:
        tk = 4.0**-k
        return SmoothFn.polynomial(
            [0.0, 0.0, 0.0, 0.0, 0.25], (-tk, tk), name=f"quart_profile[{k}]"
        )

    return family


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

    return SmoothFn(domain, 4, jet_fn, name="flat_center")


def rotated_point(f, phi, x):
    """The graph point ``(x, f(x))`` rotated by ``phi``: ``(x cos phi - f sin phi, x sin phi + f cos phi)``."""
    x = np.asarray(x, dtype=float)
    y = f.eval(x)
    c, s = np.cos(phi), np.sin(phi)
    return x * c - y * s, x * s + y * c


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


def merge_by_running_max(lo, hi):
    """Oracle for ``cantor._merge``: sort by ``lo``, then split where ``lo`` passes the running max of ``hi``."""
    if lo.size == 0:
        return lo, hi
    order = np.argsort(lo, kind="stable")
    lo, hi = lo[order], hi[order]
    run_hi = np.maximum.accumulate(hi)
    starts = np.empty(lo.size, dtype=bool)
    starts[0] = True
    starts[1:] = lo[1:] > run_hi[:-1]
    idx = np.flatnonzero(starts)
    return lo[idx], np.maximum.reduceat(run_hi, idx)


def lower_hull_by_chain(xs, vs):
    """Oracle for ``infconv._lower_hull``: Andrew's monotone chain, one point at a time.

    Points with equal abscissa are not collapsed first, so where an end
    abscissa repeats the hull keeps a vertical first or last edge.
    """
    x_list = xs.tolist()
    v_list = vs.tolist()
    keep = []
    for i in range(len(x_list)):
        xi, vi = x_list[i], v_list[i]
        while len(keep) >= 2:
            i1 = keep[-1]
            i0 = keep[-2]
            cross = (x_list[i1] - x_list[i0]) * (vi - v_list[i0]) - (
                v_list[i1] - v_list[i0]
            ) * (xi - x_list[i0])
            if cross <= 0.0:
                keep.pop()
            else:
                break
        keep.append(i)
    idx = np.asarray(keep, dtype=np.intp)
    return xs[idx], vs[idx]


def minimizer_with_plain_gap(f, g, xs):
    """Oracle for ``infconv._minimizer``: its gap function evaluates every target on every call."""
    ylo, yhi = _windows(f, g, xs)
    glo = _slope_gap(f, g, xs, ylo)
    root = (glo < 0.0) & (_slope_gap(f, g, xs, yhi) > 0.0)
    mu = np.where(glo >= 0.0, ylo, yhi)
    if np.any(root):
        xr = xs[root]

        def gap_rows(y):
            fs, fc = f.slope_rows(y)
            gs, gc = g.slope_rows(xr - y)
            return fs - gs, fc + gc

        mu[root] = invert_monotone(*newton_pair(gap_rows), np.zeros(xr.size), ylo[root], yhi[root])
    return mu, ~root


def covers_by_walk(a, target):
    """Oracle for ``cantor.covers``: walk the intervals one by one with a cursor.

    It calls every zero-length target covered, so compare it on targets of
    positive length only.
    """
    t = IntervalSet.from_pairs([target])
    aa, tt = _common_lattice(a, t)
    tlo, thi = tt.lo[0], tt.hi[0]
    gaps = []
    cursor = tlo
    den = aa.den if aa.exact else 1
    for lo, hi in zip(aa.lo.tolist(), aa.hi.tolist()):
        if hi < cursor or lo > thi:
            if lo > thi:
                break
            continue
        if lo > cursor:
            gaps.append((cursor / den, min(lo, thi) / den))
        cursor = max(cursor, hi)
        if cursor >= thi:
            break
    if cursor < thi:
        gaps.append((cursor / den, thi / den))
    return CoverReport(covered=not gaps, gaps=np.array(gaps, dtype=float).reshape(-1, 2))


def normalizer_jet(x, order):
    """Oracle for the normalizer inside ``bumps.psi_jet``: the jet of ``T(x) = psi_raw(x/2) + psi_raw(x) + psi_raw(2x)``.

    Only the three central dyadic translates can be positive on the
    support of ``psi_raw``, and ``T(2x) = T(x)`` there; each term is added
    at every point, with no mask.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros((order + 1,) + x.shape)
    for m in (-1, 0, 1):
        out += translate_jet(x, m, order)
    return out


def translate_jet(x, m, order):
    """Jet of ``psi_raw(2**m x)`` in the variable ``x``."""
    return _scale_rows(psi_raw_jet(np.ldexp(x, m), order), m)


def angular_resolution_arc(curve, grid_n):
    """Largest boundary arc of a ``ConvexCurve`` whose normals fit inside one angular grid cell.

    Support sampling on a uniform ``grid_n``-point angle grid touches the
    boundary only where a grid angle is attained as an outward normal; a
    stretch whose normals all fall strictly between two consecutive grid
    angles is invisible to the samples.  Nearly-flat pieces turn the normal
    very slowly, so they can hide entire long edges inside one cell; the
    value returned here is the resolution floor for any
    reconstruction-versus-boundary distance at that grid size.
    """
    if grid_n < 8:
        raise ArgumentError("angular grid needs at least 8 samples")
    cell = 2.0 * math.pi / float(grid_n)
    elen = np.hypot(*curve.edge_vectors().T)
    bins = np.minimum((curve.gauss_angle / cell).astype(np.int64), grid_n - 1)
    acc = np.zeros(grid_n, dtype=float)
    np.add.at(acc, bins, elen)
    return float(acc.max())


def point_support(p, *, grid_n):
    """Support data of the one-point body ``{p}``: ``h(theta) = <p, u(theta)>``, curvature radius 0."""
    th = SupportFn.grid(grid_n)
    return SupportFn._from_points(th, complex(p[0], p[1]), 0.0)


def traced_peak(fn, *args, **kwargs):
    """``(peak, result)``: the traced peak bytes while ``fn(*args, **kwargs)`` runs, and what it returns."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, result


def listed_tables(f, value0, slope0):
    """Oracle for a ``GridIntegratedFn`` build: its ``(f, f', f'')`` tables, each piece in a list, then concatenated."""
    bp, n = f._bp, f._n
    d2_tabs, d1_tabs, f_tabs = [], [], []
    f_acc, d1_acc = float(value0), float(slope0)
    for i in range(bp.size - 1):
        lo, hi = bp[i], bp[i + 1]
        nodes = np.linspace(lo, hi, n + 1)
        d2 = f._d2(nodes, 0)[0]
        h = f._steps[i]
        i2 = _cumulative_simpson(d2, h)
        i2x = _cumulative_simpson(nodes * d2, h)
        d1 = d1_acc + i2
        fv = f_acc + d1_acc * (nodes - lo) + nodes * i2 - i2x
        d2_tabs.append(d2)
        d1_tabs.append(d1)
        f_tabs.append(fv)
        f_acc, d1_acc = float(fv[-1]), float(d1[-1])
    return np.concatenate(f_tabs), np.concatenate(d1_tabs), np.concatenate(d2_tabs)


def assert_same_bits(got, want):
    """``got`` and ``want`` have one dtype and shape and the same bytes (so ``-0.0 != 0.0``)."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def rolled_edge_vectors(boundary):
    """Oracle for ``ConvexCurve.edge_vectors``: the boundary rolled by one, minus the boundary."""
    return np.roll(boundary, -1, axis=0) - boundary


def rolled_cross_and_length(e):
    """Oracle for ``curve._cross_and_length``: rolled next edges and ``np.linalg.norm``."""
    cross = e[:, 0] * np.roll(e[:, 1], -1) - e[:, 1] * np.roll(e[:, 0], -1)
    return cross, np.linalg.norm(e, axis=1)


def rolled_turning(e):
    """Oracle for ``curve._turning``: ``np.diff`` with the first angle appended."""
    ang = np.arctan2(e[:, 1], e[:, 0])
    d = np.diff(ang, append=ang[:1])
    d = np.mod(d + math.pi, 2.0 * math.pi) - math.pi
    return float(np.sum(d))


def rolled_symmetry_gap(boundary, order):
    """Oracle for ``ConvexCurve.symmetry_gap``: the whole boundary rotated and rolled at once."""
    if order == 1:
        return 0.0
    n = boundary.shape[0]
    if n % order != 0:
        return float("inf")
    z = boundary[:, 0] + 1j * boundary[:, 1]
    rot = z * cmath.exp(1j * (2.0 * math.pi) / order)
    return float(np.max(np.abs(np.roll(z, -(n // order)) - rot)))


# removal ratio and depth of the three cantor_sweep sets, on the base (0, 22/7)
SWEEP_CASES = [(Fraction(1, 3), 8), (Fraction(1, 2), 10), (Fraction(3, 5), 9)]
SWEEP_BASE = (0, Fraction(22, 7))

# exact sets for the level joins and the difference sweep
small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def spec_built_sets(draw):
    """Exact sets from :func:`build_cantor` with per-level ratios, depth 0-7, maybe translated or negated."""
    ratios = draw(st.lists(st.fractions(min_value=Fraction(1, 8), max_value=Fraction(7, 8), max_denominator=8), max_size=7))
    lo = draw(small_fractions)
    width = draw(st.fractions(min_value=Fraction(1, 6), max_value=3, max_denominator=6))
    c = build_cantor(CantorSpec((lo, lo + width), tuple(ratios)))
    if draw(st.booleans()):
        c = c.translate(draw(small_fractions))
    return c.negate() if draw(st.booleans()) else c


@st.composite
def arbitrary_sets(draw):
    """Up to 12 intervals between sorted points: points, touching and apart."""
    n = draw(st.integers(min_value=0, max_value=12))
    ends = sorted(draw(st.lists(small_fractions, min_size=2 * n, max_size=2 * n)))
    return IntervalSet.from_pairs(list(zip(ends[::2], ends[1::2])))
