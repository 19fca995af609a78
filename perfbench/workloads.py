"""Seeded inputs, timed passes and independent output checks per workload.

Each workload turns a seed into plain parameters (:meth:`params`), builds
whatever the timed passes need from them (:meth:`prepare`), runs one pass
(:meth:`run_pass`, the only timed call) and checks the pass's outputs by a
route that does not share the timed code path (:meth:`check`).

An *operation* is one body (``construct``), one function pair
(``infconv``) or one Cantor set (``cantor_sweep``).  It fails when the
package raises a :class:`~minklab.errors.MinkLabError`, when a certificate
fails, or when an output disagrees with its independent check.  A pass
that raised stops there and is not *completed*; its operation is counted
as failed and the run goes on.

The program sees only what these generators make from the seed.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from minklab import cantor, curve, errors, hinge, infconv, patching
from minklab.fn_core import SmoothFn

TAU = 2.0 * math.pi

# The two slope schedules of the package's test fixtures; construct and
# infconv blend them geometrically, b = b1**(1 - w) * b2**w.
SLOPES_1 = np.array([2.0, 0.8, 0.3, 0.1, 0.02, 1e-3, 1e-5, 1e-8, 1e-12, 1e-17, 1e-23])
SLOPES_2 = np.array([1.6, 0.7, 0.28, 0.09, 0.018, 9e-4, 9e-6, 9e-9, 9e-13, 9e-18, 9e-24])
PROFILE_A = 2.0 ** -np.arange(11)


@dataclass
class Op:
    """Outcome of one operation: ``error`` is None when it succeeded.

    ``wrong`` marks an output that a check refuted (as opposed to a call
    that raised): such a run is reported as not correct.
    """

    label: str
    error: str | None = None
    wrong: bool = False
    accuracy: float | None = None  # worst measured error over its bound
    accuracy_name: str = ""


@dataclass
class PassOutput:
    """What a timed pass hands to the untimed checks."""

    index: int
    data: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)  # op label -> error text

    @property
    def completed(self) -> bool:
        return not self.errors


def attempt(out: PassOutput, label: str, fn):
    """Run ``fn``; a MinkLabError is recorded against ``label`` and yields None."""
    try:
        return fn()
    except errors.MinkLabError as exc:
        out.errors[label] = f"{type(exc).__name__}: {exc}"
        return None


def digest(params) -> str:
    """SHA-256 of the canonical text of a parameter structure."""
    return hashlib.sha256(_canonical(params).encode()).hexdigest()


def _canonical(obj) -> str:
    if isinstance(obj, dict):
        return "{" + ",".join(f"{k}:{_canonical(obj[k])}" for k in sorted(obj)) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_canonical(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return f"nd{obj.dtype.str}{obj.shape}:{obj.tobytes().hex()}"
    if isinstance(obj, float):
        return float.hex(obj)
    return repr(obj)


def blended_profile(w: float):
    """The glued convex profile of the blended slope schedule (flat start)."""
    b = SLOPES_1 ** (1.0 - w) * SLOPES_2 ** w
    return patching.build_patched_convex(
        patching.SlopeSchedule(b), patching.quadratic_profile_family(PROFILE_A)
    )


def _certificate_accuracy(schedule) -> tuple[float, str, list[str]]:
    worst, worst_name, failed = 0.0, "", []
    for level, sr in enumerate(schedule.smoothings, start=1):
        for c in sr.certificates:
            if not c.passed:
                failed.append(f"level {level} {c.name}: {c.measured!r} vs {c.bound!r}")
            if c.bound > 0.0 and c.measured / c.bound > worst:
                worst, worst_name = c.measured / c.bound, c.name
    return worst, worst_name, failed


class Construct:
    """Profile -> hinge schedule -> curve -> support -> Minkowski sum -> sweep.

    A run builds two bodies whose blend weights sit half a unit apart on the
    circle ``[0, 1)``: ``w_k = (u + k / 2) mod 1`` with ``u`` drawn from the
    seed.  Each ``w_k`` is uniform on ``[0, 1)``, and the pair spreads the
    bodies over the whole range, so every run sees a comparable mix of
    zero-set sizes ``n``.
    """

    name = "construct"
    round = 2  # bodies per run

    def __init__(self, *, levels=5, angles=64, support_n=1 << 16):
        self.levels = levels
        self.angles = angles
        self.support_n = support_n

    def params(self, seed: int) -> dict:
        rng = np.random.default_rng([seed, 1])
        u = float(rng.random())
        bodies = []
        for k in range(self.round):
            bodies.append(
                {
                    "w": (u + k / self.round) % 1.0,
                    "ellipse": (float(rng.uniform(1.0, 3.0)), float(rng.uniform(0.5, 1.5))),
                    "angles": np.sort(rng.uniform(0.0, TAU, self.angles)),
                }
            )
        return {"bodies": bodies}

    def prepare(self, params: dict) -> dict:
        return params

    def run_pass(self, state: dict, index: int) -> PassOutput:
        body = state["bodies"][index % self.round]
        out = PassOutput(index, {"w": body["w"]})
        label = f"body w={body['w']:.4f}"
        d = out.data
        steps = [
            ("profile", lambda: blended_profile(body["w"])),
            ("schedule", lambda: hinge.schedule_smoothings(d["profile"].f, self.levels)),
            ("assembly", lambda: curve.assemble_curve(d["profile"].f, d["schedule"], m_max=self.levels)),
            ("support", lambda: curve.SupportFn.from_curve(d["assembly"][0], grid_n=self.support_n)),
            ("ellipse", lambda: curve.SupportFn.ellipse(*body["ellipse"], grid_n=self.support_n)),
            ("sum", lambda: curve.minkowski_sum(d["ellipse"], d["support"])),
            ("transfer", lambda: curve.curvature_transfer_check(d["ellipse"], d["support"], d["support"].theta)),
            ("sweep", lambda: curve.rotations_avoiding_zero_sets(d["assembly"][1], d["assembly"][1], body["angles"])),
        ]
        for key, fn in steps:
            result = attempt(out, label, fn)
            if result is None:
                out.data["failed_stage"] = key
                break
            d[key] = result
        return out

    def check(self, state: dict, out: PassOutput) -> list[Op]:
        body = state["bodies"][out.index % self.round]
        label = f"body w={body['w']:.4f}"
        op = Op(label)
        d = out.data
        problems = []
        if "schedule" in d:
            op.accuracy, op.accuracy_name, failed = _certificate_accuracy(d["schedule"])
            problems += [f"certificate {f}" for f in failed]
        if not out.errors:
            if not d["transfer"].transfer_ok:
                problems.append("curvature transfer: zero sets of body and sum differ")
            problems += _check_point_sweep(d["assembly"][1].Z, body["angles"], d["sweep"])
        op.wrong = bool(problems)
        if out.errors:
            problems.insert(0, f"{d['failed_stage']}: {out.errors[label]}")
        op.error = "; ".join(problems) or None
        return [op]


def _check_point_sweep(zset, angles, avoiding) -> list[str]:
    """Recompute sweep verdicts for a point-like zero set by circular distances.

    A rotation by ``a`` avoids the set exactly when no rotated point lands
    on a point of the set.  Verdicts within 1e-9 of a touch are left
    undecided: the two routes round differently there.
    """
    pts = np.asarray(zset.as_floats(), dtype=float)
    if pts.size == 0 or np.any(pts[:, 1] != pts[:, 0]):
        return ["sweep check: zero set is not a finite point set"]
    z = np.sort(np.mod(pts[:, 0], TAU))
    moved = np.mod(z[None, :] + angles[:, None], TAU)
    idx = np.searchsorted(z, moved)
    left = z[(idx - 1) % z.size]
    right = z[idx % z.size]
    gap = np.minimum(np.abs(moved - left), np.abs(moved - right))
    gap = np.minimum(gap, TAU - gap).min(axis=1)
    expect_avoid = gap > 1e-9
    expect_hit = gap == 0.0
    got = np.isin(angles, avoiding)
    bad = (expect_avoid & ~got) | (expect_hit & got)
    if bad.any():
        return [f"sweep check: {int(bad.sum())} of {angles.size} verdicts disagree"]
    return []


class InfConv:
    """Direct and conjugate infimal convolution of a patched profile and a polynomial."""

    name = "infconv"
    round = 1

    def __init__(self, *, grid_n=4097):
        self.grid_n = grid_n

    def params(self, seed: int) -> dict:
        rng = np.random.default_rng([seed, 2])
        return {
            "w": float(rng.random()),
            # g(x) = c1 x + c2 x^2 + c4 x^4 on [-r, r]: strictly convex
            "g": (float(rng.uniform(-0.2, 0.2)), float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.0, 1.0))),
            "r": float(rng.uniform(0.2, 0.4)),
        }

    def prepare(self, params: dict) -> dict:
        c1, c2, c4 = params["g"]
        r = params["r"]
        return {
            "f": blended_profile(params["w"]).f,
            "g": SmoothFn.polynomial([0.0, c1, c2, 0.0, c4], (-r, r), name="g"),
        }

    def run_pass(self, state: dict, index: int) -> PassOutput:
        f, g = state["f"], state["g"]
        out = PassOutput(index)
        d = out.data

        def direct():
            return infconv.infconv_direct(f, g, grid_n=self.grid_n)

        def conjugate():
            return infconv.infconv_conjugate(f, g, grid_n=self.grid_n)

        def diag():
            inner = d["direct"].x[~d["direct"].boundary]
            d["inner"] = inner
            return infconv.smoothness_diag(f, g, inner)

        def jet():
            return d["direct"].h.jet(d["inner"], 3)

        for key, fn in (("direct", direct), ("conjugate", conjugate), ("diag", diag), ("jet", jet)):
            result = attempt(out, "pair", fn)
            if result is None:
                d["failed_stage"] = key
                break
            d[key] = result
        return out

    def check(self, state: dict, out: PassOutput) -> list[Op]:
        op = Op("pair", accuracy_name="max|direct - conjugate| / error_bound")
        d = out.data
        if out.errors:
            op.error = f"{d['failed_stage']}: {out.errors['pair']}"
            return [op]
        direct, conj = d["direct"], d["conjugate"]
        if conj.error_bound is None or not conj.error_bound > 0.0:
            op.error, op.wrong = "conjugate route gave no error bound", True
            return [op]
        gap = float(np.max(np.abs(direct.values - conj.values)))
        op.accuracy = gap / conj.error_bound
        problems = []
        if not gap <= conj.error_bound:
            problems.append(f"routes differ by {gap:.3e} > error bound {conj.error_bound:.3e}")
        if not (np.all(np.isfinite(d["jet"])) and np.all(np.isfinite(d["diag"].hess_h))):
            problems.append("non-finite derivative rows at interior points")
        op.wrong = bool(problems)
        op.error = "; ".join(problems) or None
        return [op]


# removal ratio -> depth: the covering, middle and thin cases, one depth each
CANTOR_CASES = ((Fraction(1, 3), 8), (Fraction(1, 2), 10), (Fraction(3, 5), 9))
# just above pi, so the covering case's difference set wraps the whole circle
CANTOR_LENGTH = Fraction(22, 7)


class CantorSweep:
    """Exact-lattice Cantor sets: build, sum-and-cover, rotation sweep."""

    name = "cantor_sweep"
    round = 1

    def __init__(self, *, cases=CANTOR_CASES, angles=512):
        self.cases = cases
        self.angles = angles

    def params(self, seed: int) -> dict:
        # The seed moves the angle grid only: shifting the base, even by an
        # integer, changes which translates stay on the int64 lattice and so
        # the cost of a pass by up to 40%.
        rng = np.random.default_rng([seed, 3])
        specs = [
            {"base": (0, CANTOR_LENGTH), "ratio": ratio, "depth": depth}
            for ratio, depth in self.cases
        ]
        step = TAU / self.angles
        offset = float(rng.uniform(0.0, step))
        return {"specs": specs, "angles": offset + step * np.arange(self.angles)}

    def prepare(self, params: dict) -> dict:
        return params

    @staticmethod
    def _label(spec) -> str:
        return f"cantor r={spec['ratio']} depth={spec['depth']}"

    def run_pass(self, state: dict, index: int) -> PassOutput:
        out = PassOutput(index)
        angles = state["angles"]
        for spec in state["specs"]:
            label = self._label(spec)

            def one(spec=spec):
                c = cantor.build_cantor(cantor.CantorSpec.uniform(spec["base"], spec["ratio"], spec["depth"]))
                s = cantor.sum_sets(c, c)
                lo, hi = spec["base"]
                cover = cantor.covers(s, (2 * lo, 2 * hi))
                sweep = curve.rotations_avoiding_zero_sets(c, c, angles)
                return c, s, cover, sweep

            result = attempt(out, label, one)
            if result is not None:
                out.data[label] = result
        return out

    def check(self, state: dict, out: PassOutput) -> list[Op]:
        ops = []
        angles = state["angles"]
        for spec in state["specs"]:
            label = self._label(spec)
            op = Op(label)
            ops.append(op)
            if label in out.errors:
                op.error = out.errors[label]
                continue
            c, s, cover, sweep = out.data[label]
            problems = []
            if len(c) != 2 ** spec["depth"] or not c.exact:
                problems.append(f"expected {2 ** spec['depth']} exact intervals, got {len(c)}")
            if not s.exact:
                problems.append("sum of an exact set left the lattice")
            else:
                # a merged exact union covers its hull iff it is one interval
                lo, hi = spec["base"]
                hull = len(s) == 1 and s.as_fractions()[0] == (2 * lo, 2 * hi)
                if cover.covered != hull:
                    problems.append(f"covers says {cover.covered}, merged sum says {hull}")
            problems += _check_difference_sweep(c, angles, sweep)
            op.wrong = bool(problems)
            op.error = "; ".join(problems) or None
        return ops


def _check_difference_sweep(c, angles, avoiding) -> list[str]:
    """Sweep verdicts from the difference set: rotating C by a meets C iff a in (C - C) mod 2 pi."""
    diff = cantor.wrap_mod(cantor.sum_sets(c, c.negate()), TAU)
    lo, hi = (np.asarray(v, dtype=float) for v in (diff.lo, diff.hi))
    if diff.exact:
        lo, hi = lo / diff.den, hi / diff.den
    j = np.searchsorted(lo, angles, side="right") - 1
    inside = (j >= 0) & (angles <= hi[np.clip(j, 0, None)])
    # distance to the nearest endpoint: verdicts within 1e-9 of one are undecided
    edges = np.sort(np.concatenate([lo, hi]))
    k = np.clip(np.searchsorted(edges, angles), 1, edges.size - 1)
    near = np.minimum(np.abs(angles - edges[k - 1]), np.abs(angles - edges[k])) <= 1e-9
    got = np.isin(angles, avoiding)
    bad = ~near & (got == inside)
    if bad.any():
        return [f"sweep check: {int(bad.sum())} of {angles.size} verdicts disagree with the difference set"]
    return []


WORKLOADS = {w.name: w for w in (Construct, InfConv, CantorSweep)}
