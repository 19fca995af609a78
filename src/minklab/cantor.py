"""Exact finite-depth arithmetic of Cantor-like interval sets.

An :class:`IntervalSet` is a sorted union of disjoint closed intervals.
Its mode follows from the types of its data, never from their values:

* ``int``, ``numpy.integer`` and ``Fraction`` endpoints are *exact*: they
  are carried as int64 numerators over one common denominator, so sums,
  translations, reflections and covering verdicts compare integers only.
  Exact endpoints whose common lattice does not fit int64 raise
  :class:`CapabilityError`.
* Any float endpoint (Python ``float`` or ``numpy.floating``) makes the
  set a *float* set, merged with a relative tolerance of 1e-12.

The same rule applies to a translation, a reflection centre, a removal
ratio and a ``wrap_mod`` period: a float argument gives a float result.
A binary operation on two exact sets whose common lattice overflows
int64 runs in floats.

Middle-portion removal: one step with removal ratio ``r`` replaces each
interval by its two outer parts of relative length ``s = (1 - r) / 2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import ArgumentError, CapabilityError

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
_FLOAT_TOL = 1e-12

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
    def depth(self) -> int:
        return len(self.ratios)

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
        if depth < 0:
            raise ArgumentError("depth must be >= 0")
        return CantorSpec(tuple(base), (ratio,) * depth)


class IntervalSet:
    """Sorted disjoint closed intervals, exact (integer lattice) or float."""

    __slots__ = ("lo", "hi", "den", "depth")

    def __init__(self, lo: np.ndarray, hi: np.ndarray, den: int | None, depth: int | None = None):
        # internal constructor: inputs must already be sorted, merged, disjoint
        self.lo = lo
        self.hi = hi
        self.den = den
        self.depth = depth

    # -- construction --------------------------------------------------

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[Number, Number]], *, depth: int | None = None) -> "IntervalSet":
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
            lo, hi = _merge(np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64), True)
            return IntervalSet(lo, hi, den, depth)
        lo = np.array([float(a) for a, _ in pairs])
        hi = np.array([float(b) for _, b in pairs])
        if not np.all(lo <= hi):
            raise ArgumentError("interval with hi < lo or a NaN endpoint")
        lo, hi = _merge(lo, hi, False)
        return IntervalSet(lo, hi, None, depth)

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
                return IntervalSet(self.lo + int(shift), self.hi + int(shift), self.den, self.depth)
            return IntervalSet.from_pairs(
                [(a + fc, b + fc) for a, b in self.as_fractions()], depth=self.depth
            )
        if fc is None and math.isnan(float(c)):
            raise ArgumentError("shift is NaN")
        lo, hi = _float_ends(self)
        return IntervalSet(lo + float(c), hi + float(c), None, self.depth)

    def negate(self) -> "IntervalSet":
        """The reflection ``{-x : x in A}`` (exact)."""
        return IntervalSet(-self.hi[::-1].copy(), -self.lo[::-1].copy(), self.den, self.depth)

    def reflect(self, center: Number) -> "IntervalSet":
        """Reflection through a point: ``2 * center - A``."""
        fc = _to_fraction(center)
        return self.negate().translate(2 * float(center) if fc is None else 2 * fc)

    def to_json(self) -> dict:
        return {
            "mode": "exact" if self.exact else "float",
            "denominator": self.den,
            "depth": self.depth,
            "intervals": [[a, b] for a, b in self.as_floats()],
        }


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
    return (j >= 0) & (bhi[np.maximum(j, 0)] >= lo)


def _merge(lo: np.ndarray, hi: np.ndarray, exact: bool) -> tuple[np.ndarray, np.ndarray]:
    """Sort and merge intervals; float ones closer than the float tolerance join."""
    if lo.size == 0:
        return lo, hi
    order = np.argsort(lo, kind="stable")
    lo, hi = lo[order], hi[order]
    run_hi = np.maximum.accumulate(hi)
    # a new component starts where lo exceeds the running max of hi; an
    # exact merge compares with no tolerance and so needs no temporary
    reach = run_hi[:-1]
    if not exact:
        reach = reach + _FLOAT_TOL * max(1.0, float(np.max(np.abs(lo))), float(np.max(np.abs(hi))))
    starts = np.empty(lo.size, dtype=bool)
    starts[0] = True
    starts[1:] = lo[1:] > reach
    idx = np.flatnonzero(starts)
    return lo[idx], np.maximum.reduceat(run_hi, idx)


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
            return (
                IntervalSet(a.lo * fa, a.hi * fa, den, a.depth),
                IntervalSet(b.lo * fb, b.hi * fb, den, b.depth),
            )
    return (
        IntervalSet(*_float_ends(a), None, a.depth),
        IntervalSet(*_float_ends(b), None, b.depth),
    )


# -- operations ----------------------------------------------------------


def build_cantor(spec: CantorSpec) -> IntervalSet:
    """Exact recursive middle-portion removal; 2**depth intervals."""
    if spec.depth > MAX_DEPTH:
        raise CapabilityError(f"depth {spec.depth} exceeds {MAX_DEPTH}")
    base = IntervalSet.from_pairs([spec.base], depth=0)
    current = base
    for step, s in enumerate(spec.side_ratios):
        fs = _to_fraction(s)
        if current.exact and fs is not None:
            # on the lattice refined by the ratio's denominator q every width
            # is q times an old width, so the side width is an old width
            # times the ratio's numerator: exact, and smaller than the width
            q = fs.denominator
            if not _fits(current, q):
                raise CapabilityError("lattice overflow; reduce depth or simplify ratios")
            den = current.den * q
            lo = current.lo * q
            hi = current.hi * q
            w_num = (current.hi - current.lo) * fs.numerator
            new_lo = np.concatenate([lo, hi - w_num])
            new_hi = np.concatenate([lo + w_num, hi])
            new_lo, new_hi = _merge(new_lo, new_hi, True)
            current = IntervalSet(new_lo, new_hi, den, step + 1)
        else:
            flo, fhi = _float_ends(current)
            w = (fhi - flo) * float(s)
            new_lo = np.concatenate([flo, fhi - w])
            new_hi = np.concatenate([flo + w, fhi])
            new_lo, new_hi = _merge(new_lo, new_hi, False)
            current = IntervalSet(new_lo, new_hi, None, step + 1)
    return current


def sum_sets(a: IntervalSet, b: IntervalSet, *, chunk_pairs: int = 1 << 22) -> IntervalSet:
    """Exact Minkowski sum: union of ``[lo_a + lo_b, hi_a + hi_b]``."""
    a, b = _common_lattice(a, b)
    if a.lo.size == 0 or b.lo.size == 0:
        return IntervalSet(a.lo[:0], a.hi[:0], a.den)
    rows_per_chunk = max(1, chunk_pairs // max(1, b.lo.size))
    acc_lo = acc_hi = None
    for start in range(0, a.lo.size, rows_per_chunk):
        sl = slice(start, start + rows_per_chunk)
        lo = (a.lo[sl][:, None] + b.lo[None, :]).ravel()
        hi = (a.hi[sl][:, None] + b.hi[None, :]).ravel()
        if acc_lo is None:
            acc_lo, acc_hi = _merge(lo, hi, a.exact)
        else:
            acc_lo, acc_hi = _merge(np.concatenate([acc_lo, lo]), np.concatenate([acc_hi, hi]), a.exact)
    return IntervalSet(acc_lo, acc_hi, a.den)


@dataclass(frozen=True)
class CoverReport:
    covered: bool
    gaps: tuple[tuple[float, float], ...]


def covers(a: IntervalSet, target: tuple[Number, Number]) -> CoverReport:
    """Exact containment check of a closed target interval, with gap list."""
    t = IntervalSet.from_pairs([target])
    aa, tt = _common_lattice(a, t)
    tlo, thi = tt.lo[0], tt.hi[0]
    tol = 0 if aa.exact else _FLOAT_TOL * max(1.0, abs(float(tlo)), abs(float(thi)))
    gaps: list[tuple[float, float]] = []
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
            return _split_at_period(lo, hi, np.floor_divide(lo, p) * p, p, den, a.depth)
    p = float(period) if fp is None or fp <= np.finfo(float).max else math.inf
    if not 0.0 < p < math.inf:
        raise CapabilityError(f"wrap period {period!r} fits neither the int64 lattice nor a float")
    lo, hi = _float_ends(a)
    return _split_at_period(lo, hi, np.floor(lo / p) * p, p, None, a.depth)


def _split_at_period(lo, hi, shift, p, den, depth) -> IntervalSet:
    """Shift each interval so its ``lo`` lands in ``[0, p)``, split it at ``p`` and merge."""
    if np.any(hi - lo >= p):
        full = np.array([0, p], dtype=lo.dtype)
        return IntervalSet(full[:1], full[1:], den, depth)
    lo, hi = lo - shift, hi - shift
    # an interval shorter than the period crosses p at most once
    wrap = hi > p
    lo, hi = _merge(
        np.concatenate([lo, np.zeros(np.count_nonzero(wrap), dtype=lo.dtype)]),
        np.concatenate([np.minimum(hi, p), hi[wrap] - p]),
        den is not None,
    )
    return IntervalSet(lo, hi, den, depth)
