"""Exact finite-depth arithmetic of Cantor-like interval sets.

An :class:`IntervalSet` is a sorted union of disjoint closed intervals.
Its mode follows from the types of its data, never from their values:

* ``int``, ``numpy.integer`` and ``Fraction`` endpoints are *exact*: they
  are carried as int64 numerators over one common denominator, so sums,
  translations, reflections and covering verdicts compare integers only.
  Exact endpoints whose common lattice does not fit int64 raise
  :class:`CapabilityError`.
* Any float endpoint (Python ``float`` or ``numpy.floating``) makes the
  set a *float* set.

The same rule applies to a translation, a removal ratio and a
``wrap_mod`` period: a float argument gives a float result.
A binary operation on two exact sets whose common lattice overflows
int64 runs in floats.

Both modes merge by one rule: two intervals join only where they overlap
or touch, so two float ends one ulp apart stay two intervals.

Middle-portion removal: one step with removal ratio ``r`` replaces each
interval by its two outer parts of relative length ``s = (1 - r) / 2``.

Minkowski sums take one of two paths, chosen by the data.  An exact set
of depth ``m`` from :func:`build_cantor` is ``[lo_0, hi_0] + sum_l {0, t_l}``,
so its sum with any exact set is ``m`` joins of two sorted runs (*level
joins*).  Every other pair, and every float pair, is summed by forming all
``|A| * |B|`` endpoint pairs in bounded chunks (*pair sums*).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

import numpy as np

from .errors import ArgumentError, CapabilityError
from .fn_core import _check_int

__all__ = [
    "MAX_DEPTH",
    "CantorSpec",
    "IntervalSet",
    "CoverReport",
    "build_cantor",
    "sum_sets",
    "covers",
    "intersects",
    "wrap_mod",
]

MAX_DEPTH = 24
_INT_LIMIT = 1 << 61  # headroom so a sum of two endpoints stays in int64
# Endpoint pairs the pair sums of :func:`sum_sets` form per merge, 1 MiB per
# end.  Each merge still passes over the union so far: on the self sums of the
# ratio-1/3, 1/2 and 3/5 Cantor sets of depths 8-10, 2**14 and 2**15 pairs were
# slower, and 2**16 and 2**18 no faster.  Those sums now take the level joins
_CHUNK_PAIRS = 1 << 17

Number = Union[int, float, Fraction]


def _to_fraction(x: Number) -> Fraction | None:
    """The Fraction of an exact-type number; None for a float (float mode)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    return None


@dataclass(frozen=True)
class CantorSpec:
    """Base interval plus per-step middle-removal ratios."""

    base: tuple[Number, Number]
    ratios: tuple[Number, ...]

    def __post_init__(self):
        lo, hi = self.base
        if not (float(lo) < float(hi)):
            raise ArgumentError(f"base interval is empty: {self.base!r}")
        for r in self.ratios:
            if not (0.0 < float(r) < 1.0):
                raise ArgumentError(f"removal ratio must lie in (0, 1): {r!r}")
        if len(self.ratios) > MAX_DEPTH:
            raise CapabilityError(
                f"depth {len(self.ratios)} exceeds the supported maximum {MAX_DEPTH}"
            )

    @property
    def side_ratios(self) -> tuple[Number, ...]:
        """Relative length of each surviving side per step: (1 - ratio) / 2."""
        out = []
        for r in self.ratios:
            fr = _to_fraction(r)
            out.append((1 - fr) / 2 if fr is not None else (1.0 - float(r)) / 2.0)
        return tuple(out)

    @staticmethod
    def uniform(base: tuple[Number, Number], ratio: Number, depth: int) -> "CantorSpec":
        _check_int(depth, "depth")
        if depth < 0:
            raise ArgumentError("depth must be >= 0")
        return CantorSpec(tuple(base), (ratio,) * depth)


class IntervalSet:
    """Sorted disjoint closed intervals, exact (integer lattice) or float."""

    __slots__ = ("lo", "hi", "den")

    def __init__(self, lo: np.ndarray, hi: np.ndarray, den: int | None):
        # internal constructor: inputs must already be sorted, merged, disjoint
        self.lo = lo
        self.hi = hi
        self.den = den

    # -- construction --------------------------------------------------

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[Number, Number]]) -> "IntervalSet":
        pairs = list(pairs)
        fracs = [(_to_fraction(a), _to_fraction(b)) for a, b in pairs]
        if all(fa is not None and fb is not None for fa, fb in fracs):
            for (a, b), (fa, fb) in zip(pairs, fracs):
                if fb < fa:
                    raise ArgumentError(f"interval with hi < lo: ({a!r}, {b!r})")
            den = math.lcm(1, *(f.denominator for pair in fracs for f in pair))
            lo = [int(fa * den) for fa, _ in fracs]
            hi = [int(fb * den) for _, fb in fracs]
            if any(abs(v) >= _INT_LIMIT for v in lo + hi):
                raise CapabilityError("exact endpoints overflow the int64 lattice")
            lo, hi = _merge(np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64))
            return IntervalSet(lo, hi, den)
        lo = np.array([float(a) for a, _ in pairs])
        hi = np.array([float(b) for _, b in pairs])
        if not np.all(np.isfinite(lo) & np.isfinite(hi) & (lo <= hi)):
            raise ArgumentError("interval with hi < lo or a non-finite endpoint")
        lo, hi = _merge(lo, hi)
        return IntervalSet(lo, hi, None)

    # -- views -----------------------------------------------------------

    @property
    def exact(self) -> bool:
        return self.den is not None

    def __len__(self) -> int:
        return int(self.lo.size)

    def as_floats(self) -> list[tuple[float, float]]:
        lo, hi = _float_ends(self)
        return list(zip(lo.tolist(), hi.tolist()))

    def as_fractions(self) -> list[tuple[Fraction, Fraction]]:
        if not self.exact:
            raise CapabilityError("float-mode set has no exact endpoints")
        return [
            (Fraction(int(a), self.den), Fraction(int(b), self.den))
            for a, b in zip(self.lo.tolist(), self.hi.tolist())
        ]

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        a, b = _common_lattice(self, other)
        return (
            a.lo.size == b.lo.size
            and bool(np.all(a.lo == b.lo))
            and bool(np.all(a.hi == b.hi))
        )

    def __hash__(self):  # pragma: no cover - sets are not meant for dict keys
        return id(self)

    def __repr__(self):  # pragma: no cover - cosmetic
        mode = f"1/{self.den}" if self.exact else "float"
        return f"<IntervalSet {len(self)} intervals, lattice {mode}>"

    # -- exact transforms ------------------------------------------------

    def translate(self, c: Number) -> "IntervalSet":
        fc = _to_fraction(c)
        if self.exact and fc is not None:
            shift = fc * self.den
            room = _INT_LIMIT - max(_max_abs(self.lo), _max_abs(self.hi))
            if shift.denominator == 1 and abs(shift) < room:
                return IntervalSet(self.lo + int(shift), self.hi + int(shift), self.den)
            return IntervalSet.from_pairs([(a + fc, b + fc) for a, b in self.as_fractions()])
        if fc is None and not math.isfinite(float(c)):
            raise ArgumentError(f"shift must be finite, got {c!r}")
        lo, hi = _float_ends(self)
        return IntervalSet(lo + float(c), hi + float(c), None)

    def negate(self) -> "IntervalSet":
        """The reflection ``{-x : x in A}`` (exact)."""
        return IntervalSet(-self.hi[::-1].copy(), -self.lo[::-1].copy(), self.den)


# -- kernels ---------------------------------------------------------------


def _float_ends(a: IntervalSet) -> tuple[np.ndarray, np.ndarray]:
    """The endpoints as float arrays; a float set's own arrays, not copies."""
    if a.exact:
        return np.asarray(a.lo, dtype=float) / a.den, np.asarray(a.hi, dtype=float) / a.den
    return a.lo, a.hi


def _meets(blo: np.ndarray, bhi: np.ndarray, lo, hi) -> np.ndarray:
    """Per query interval ``[lo, hi]``: does it meet the non-empty union ``(blo, bhi)``?

    The only candidate is the last union interval starting at or before
    ``hi``; it meets the query iff it ends at or after ``lo``.
    """
    j = np.searchsorted(blo, hi, side="right") - 1
    # j = -1 reads the last interval, and the mask then drops it
    return (j >= 0) & (bhi[j] >= lo)


def _merge(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort and merge intervals; two join only where they overlap or touch.

    It takes its arguments over and sorts them in place, so callers pass
    arrays that they have just built and that no set holds.

    With ``L = sort(lo)`` and ``H = sort(hi)``, stable so that timsort merges
    the sorted runs callers lay out (the union so far, each row of pair
    sums), a component starts at ``i`` iff ``L[i] > H[i-1]`` and ends at
    ``H[next start - 1]``.  That is the running-max rule on the intervals
    sorted by ``lo``, bit for bit: ``H[i-1]`` is at most the running max of
    the first ``i`` ends, and when ``L[i]`` exceeds it the ``i`` smallest
    ``hi`` lie below ``L[i]``, so they belong to the first ``i`` intervals
    (each ``lo <= hi``) and the two reaches are equal.  The rule compares
    endpoints only, so it is the same for exact and float sets and needs
    no temporary.
    """
    if lo.size == 0:
        return lo, hi
    lo.sort(kind="stable")
    hi.sort(kind="stable")
    ends = np.flatnonzero(lo[1:] > hi[:-1])
    return np.concatenate([lo[:1], lo[ends + 1]]), np.concatenate([hi[ends], hi[-1:]])


def _max_abs(arr: np.ndarray) -> int:
    return int(np.max(np.abs(arr))) if arr.size else 0


def _fits(a: IntervalSet, factor: int) -> bool:
    """Do the exact endpoints of ``a`` times ``factor`` stay on the int64 lattice?"""
    return max(_max_abs(a.lo), _max_abs(a.hi)) * factor < _INT_LIMIT


def _common_lattice(a: IntervalSet, b: IntervalSet) -> tuple[IntervalSet, IntervalSet]:
    """Rescale two sets onto one lattice (or both to floats)."""
    if a.exact and b.exact:
        den = a.den * b.den // math.gcd(a.den, b.den)
        fa, fb = den // a.den, den // b.den
        if _fits(a, fa) and _fits(b, fb):
            return tuple(s if f == 1 else IntervalSet(s.lo * f, s.hi * f, den) for s, f in ((a, fa), (b, fb)))
    return IntervalSet(*_float_ends(a), None), IntervalSet(*_float_ends(b), None)


# -- operations ----------------------------------------------------------


def build_cantor(spec: CantorSpec) -> IntervalSet:
    """Exact recursive middle-portion removal; 2**depth intervals."""
    current = IntervalSet.from_pairs([spec.base])
    for s in spec.side_ratios:
        fs = _to_fraction(s)
        exact = current.exact and fs is not None
        lo, hi = (current.lo, current.hi) if exact else _float_ends(current)
        # on the lattice refined by the ratio's denominator q every width is
        # q times an old width, so the side width is an old width times the
        # ratio's numerator: exact, and smaller than the width
        w = (hi - lo) * (fs.numerator if exact else float(s))
        if exact:
            if not _fits(current, fs.denominator):
                raise CapabilityError("lattice overflow; reduce depth or simplify ratios")
            lo, hi = lo * fs.denominator, hi * fs.denominator
        lo, hi = _merge(np.concatenate([lo, hi - w]), np.concatenate([lo + w, hi]))
        current = IntervalSet(lo, hi, current.den * fs.denominator if exact else None)
    return current


def sum_sets(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    """Exact Minkowski sum: union of ``[lo_a + lo_b, hi_a + hi_b]``.

    Level joins (:func:`_joined_sum`): when, on the common lattice, ``a``
    (else ``b``) factors as ``[lo_0, hi_0] + sum_l {0, t_l}``
    (:func:`_level_steps`; every exact set
    from :func:`build_cantor` does), the sum starts from the other set
    widened by ``[lo_0, hi_0]`` and merged, ``T``, and joins
    ``T <- T ∪ (T + t_l)`` level by level, finest first.  Each join writes
    ``T`` and ``T + t_l`` into one new array and merges the two sorted runs
    in linear time, so the cost is ``O(sum_l |T_l|)`` and the memory about
    four times the endpoints of the largest ``T``.

    Pair sums: any other pair, and every float pair, forms all
    ``|a| * |b|`` endpoint sums, about ``_CHUNK_PAIRS`` at a time, and
    merges each chunk after the union so far.  Memory: one chunk plus the
    union so far.  Both paths return the same merged union, bit for bit.
    """
    joined = _joined_sum(a, b)
    if joined is not None:
        return joined[0]
    a, b = _common_lattice(a, b)
    rows_per_chunk = max(1, _CHUNK_PAIRS // max(1, b.lo.size))
    lo, hi = a.lo[:0], a.hi[:0]
    for start in range(0, a.lo.size, rows_per_chunk):
        sl = slice(start, start + rows_per_chunk)
        # two rebindings, not one tuple, so the old union is freed before the merge
        lo = _then_pair_sums(lo, a.lo[sl], b.lo)
        hi = _then_pair_sums(hi, a.hi[sl], b.hi)
        lo, hi = _merge(lo, hi)
    return IntervalSet(lo, hi, a.den)


def _level_steps(a: IntervalSet) -> np.ndarray | None:
    """The steps ``t_l`` of an exact ``a = [lo_0, hi_0] + sum_l {0, t_l}``, finest first; else None.

    ``a`` factors iff it holds ``2**m`` intervals of one width and
    rebuilding ``lo`` from ``lo_0`` by ``L <- concat(L, L + t)``, with
    ``t = lo[2**k] - lo_0`` for ``k = 0 .. m-1``, gives ``lo``.  The rebuild
    is checked half by half, ``lo[h:2h] == lo[:h] + t`` for ``h = 2**k``, on
    the set's own entries, so no sum leaves int64.
    """
    lo, n = a.lo, a.lo.size
    if not a.exact or n == 0 or n & (n - 1):
        return None
    width = a.hi - lo
    if not np.all(width == width[0]):
        return None
    steps = lo[1 << np.arange(n.bit_length() - 1)] - lo[0]
    for k, t in enumerate(steps):
        h = 1 << k
        if not np.array_equal(lo[h : 2 * h], lo[:h] + t):
            return None
    return steps


def _joined_sum(a: IntervalSet, b: IntervalSet, limit: int | None = None) -> tuple[IntervalSet, IntervalSet] | None:
    """``a + b`` by level joins, as ``(part, rest)`` with ``a + b = part + rest``; None if neither set factors.

    On the common lattice, when ``a`` (else ``b``) factors as
    ``[lo_0, hi_0] + sum_l {0, t_l}``, ``part`` starts from the other set
    widened by ``[lo_0, hi_0]`` and joins the levels finest first.  With a
    ``limit`` the joins stop before one could make ``part`` longer than
    ``limit`` intervals, so they hold a few times that many endpoints at
    most.  ``rest`` is ``sum {0, t_l}`` over the levels left, as zero-width
    intervals: ``{0}`` when every level joined.
    """
    a, b = _common_lattice(a, b)
    for x, y in ((a, b), (b, a)):
        steps = _level_steps(x)
        if steps is None:
            continue
        # y widened by x's first interval may overlap itself; with no level
        # to join after it, only this merge would join them
        lo, hi = _merge(y.lo + x.lo[0], y.hi + x.hi[0])
        joined = 0
        while joined < steps.size and (limit is None or 2 * lo.size <= limit):
            # two rebindings, so each old run is freed before the merge
            lo = _then_shifted(lo, steps[joined])
            hi = _then_shifted(hi, steps[joined])
            lo, hi = _merge(lo, hi)
            joined += 1
        # x.lo[k] - lo_0 sums the t_l of the bits of k, so the multiples of
        # 2**joined give the sums over the levels left, in increasing order
        rest = x.lo[:: 1 << joined] - x.lo[0]
        return IntervalSet(lo, hi, x.den), IntervalSet(rest, rest.copy(), x.den)
    return None


def _then_shifted(acc: np.ndarray, t) -> np.ndarray:
    """One new array: ``acc``, then ``acc + t``."""
    buf = np.empty(2 * acc.size, dtype=acc.dtype)
    buf[: acc.size] = acc
    np.add(acc, t, out=buf[acc.size :])
    return buf


def _then_pair_sums(acc: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """One new array: ``acc``, then every sum ``x[i] + y[j]``, row by row."""
    buf = np.empty(acc.size + x.size * y.size, dtype=acc.dtype)
    buf[: acc.size] = acc
    np.add(x[:, None], y[None, :], out=buf[acc.size :].reshape(x.size, y.size))
    return buf


@dataclass(frozen=True, eq=False)
class CoverReport:
    covered: bool
    gaps: np.ndarray  # (k, 2) float64: the start and end of each gap


def covers(a: IntervalSet, target: tuple[Number, Number]) -> CoverReport:
    """Exact containment check of a closed target interval, with its gaps.

    ``gaps`` is a ``(k, 2)`` float64 array, one row per gap: the end of the
    covered part before it (or the target's start) and the next interval's
    start (or the target's end); the target is covered iff ``k = 0``.
    Endpoints are compared as they are, in both modes: a gap is any
    positive distance, and a zero-length target ``(t, t)`` is covered iff
    ``t`` lies in an interval, else its one gap is the target itself.  The
    gap ends are lattice integers divided by the denominator in one float
    division: correctly rounded while both are below 2**53 in magnitude,
    and off by up to an ulp or two above that.  Cost: two ``searchsorted`` calls and one pass over the
    intervals that reach into the target.  Memory: the gaps, a mask over the
    reached intervals and one column of gaps at a time.
    """
    t = IntervalSet.from_pairs([target])
    aa, tt = _common_lattice(a, t)
    lo, hi, tlo, thi = aa.lo, aa.hi, tt.lo[0], tt.hi[0]
    # reached: from the first interval ending at or after tlo up to the first
    # ending at or after thi, short of the first starting after thi
    first, last = np.searchsorted(hi, (tlo, thi))
    stop = min(np.searchsorted(lo, thi, side="right"), last + 1)
    # hi increases, so the cursor before a reached interval is the previous
    # one's end (tlo before the first): slices compared in place, with no
    # set-long cursor array
    reached, before = lo[first:stop], hi[first : max(first, stop - 1)]
    gap = np.empty(reached.size, dtype=bool)
    gap[:1] = reached[:1] > tlo
    np.greater(reached[1:], before, out=gap[1:])
    final = hi[stop - 1] if stop > first else tlo
    k = int(np.count_nonzero(gap))
    # a target that reaches no interval is one gap, also when it is a point
    tail = bool(final < thi or stop == first)
    gaps = np.empty((k + tail, 2))
    head = int(gap[0]) if gap.size else 0
    gaps[:head, 0] = tlo
    gaps[head:k, 0] = before[gap[1:]]
    gaps[:k, 1] = reached[gap]
    if tail:
        gaps[k] = final, thi
    if aa.exact:
        gaps /= aa.den
    return CoverReport(covered=not gaps.size, gaps=gaps)


def intersects(a: IntervalSet, b: IntervalSet) -> bool:
    """True iff the two closed unions share at least one point (exact)."""
    aa, bb = _common_lattice(a, b)
    if aa.lo.size == 0 or bb.lo.size == 0:
        return False
    return bool(np.any(_meets(bb.lo, bb.hi, aa.lo, aa.hi)))


def wrap_mod(a: IntervalSet, period: Number) -> IntervalSet:
    """Reduce a union of intervals into the fundamental domain [0, period].

    The period must be positive, and finite if it is a float, else
    :class:`ArgumentError`.  An exact period reduces an exact set on their
    common lattice while that fits int64; otherwise the reduction runs in
    floats, and a period with no positive finite float raises
    :class:`CapabilityError`.
    """
    fp = _to_fraction(period)
    if not (fp > 0 if fp is not None else 0.0 < float(period) < math.inf):
        raise ArgumentError(f"wrap period must be finite and positive: {period!r}")
    if a.exact and fp is not None:
        den = a.den * fp.denominator // math.gcd(a.den, fp.denominator)
        f, p = den // a.den, int(fp * den)
        if max(f, p) < _INT_LIMIT and _fits(a, f):
            lo, hi = a.lo * f, a.hi * f
            return _split_at_period(lo, hi, np.floor_divide(lo, p) * p, p, den)
    p = float(period) if fp is None or fp <= np.finfo(float).max else math.inf
    if not 0.0 < p < math.inf:
        raise CapabilityError(f"wrap period {period!r} fits neither the int64 lattice nor a float")
    lo, hi = _float_ends(a)
    return _split_at_period(lo, hi, np.floor(lo / p) * p, p, None)


def _split_at_period(lo, hi, shift, p, den) -> IntervalSet:
    """Shift each interval so its ``lo`` lands in ``[0, p)``, split it at ``p`` and merge."""
    if np.any(hi - lo >= p):
        full = np.array([0, p], dtype=lo.dtype)
        return IntervalSet(full[:1], full[1:], den)
    lo, hi = lo - shift, hi - shift
    # an interval shorter than the period crosses p at most once
    wrap = hi > p
    lo, hi = _merge(
        np.concatenate([lo, np.zeros(np.count_nonzero(wrap), dtype=lo.dtype)]),
        np.concatenate([np.minimum(hi, p), hi[wrap] - p]),
    )
    return IntervalSet(lo, hi, den)
