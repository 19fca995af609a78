"""Parity ledger: named scalars of the two conftest bodies, kept in a file.

Every entry is a number the pipeline computes on the shared test bodies
(the ``hinge_profile`` and ``second_profile`` fixtures and what is built
from them): the schedule's certificates, angles, norms and turn sum, the
curve's symmetry gap and turning, the zero-set size and smallest gap, the
curvature transfer gaps, and min, max and sum of each support array.  Each entry
carries its own tolerance (``rtol``, ``atol``); counts and verdicts are
compared exactly.  The SHA-256 of each support array is recorded too but
never compared, because it depends on the numpy build.

``tests/test_ledger.py`` compares the entries with ``tests/data/ledger.json``.
From the root of a checkout::

    python tests/ledger.py --diff     # print every entry that moved
    python tests/ledger.py --write    # rewrite tests/data/ledger.json

Rewriting the file is a change to test data: list each moved entry, with
its reason, in ``CHANGES.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
LEDGER = HERE / "data" / "ledger.json"

# Relative tolerance of every float entry; far above rounding noise, and a
# move of 1e-9 relative fails it.
RTOL = 1e-10
# Absolute floor of a float entry, as a multiple of its family's scale (a
# certificate's bound or slope, an array's largest magnitude): a residual
# measured at rounding level may move by a few ulp of that scale.
ATOL_SCALE = 1e-13
# Angles of the ledger's rotation sweep: midpoints of a 64-cell grid.
SWEEP_N = 64
# Semi-axes of the strictly convex first body of the transfer check.
ELLIPSE = (2.0, 1.0)


def _float(name, value, scale=0.0):
    value = float(value)
    return name, {"value": value, "rtol": RTOL, "atol": ATOL_SCALE * abs(float(scale))}


def _exact(name, value):
    return name, {"value": value, "rtol": 0.0, "atol": 0.0}


def schedule_entries(tag, schedule):
    """Certificates, angles, ``eps``, ``b_eps``, ``n``, caps, norms and turn sum of one schedule."""
    out = [_exact(f"{tag}.n", int(schedule.n))]
    out.append(_float(f"{tag}.turning_sum", schedule.turning_sum))
    for r, cap in enumerate(schedule.caps):
        out.append(_float(f"{tag}.caps[{r}]", cap))
    for level, sr in enumerate(schedule.smoothings, start=1):
        lv = f"{tag}.level{level}"
        out.append(_float(f"{lv}.gamma", sr.gamma))
        out.append(_float(f"{lv}.epsilon", sr.epsilon))
        out.append(_float(f"{lv}.b_eps", sr.b_eps))
        for r, norm in enumerate(schedule.norm_table[level - 1]):
            out.append(_float(f"{lv}.norm[{r}]", norm))
        tan_g = math.tan(sr.gamma)
        for c in sr.certificates:
            # a bound of 0 is a sign test, compared relative only; any other
            # bound also floors the entry at the slope scale tan(gamma)
            scale = max(abs(c.bound), abs(c.measured), tan_g) if c.bound else 0.0
            out.append(_float(f"{lv}.cert.{c.name}.measured", c.measured, scale))
            out.append(_float(f"{lv}.cert.{c.name}.bound", c.bound))
            out.append(_exact(f"{lv}.cert.{c.name}.passed", bool(c.passed)))
    return out


def curve_entries(tag, curve, zset):
    """Vertex count, symmetry gap, turning, zero-set size and smallest gap, and a sweep count of one curve."""
    diam = float(np.max(np.abs(curve.boundary)))
    grid = (np.arange(SWEEP_N) + 0.5) * (2.0 * math.pi / SWEEP_N)
    from minklab.curve import _FLAT_TOL, rotations_avoiding_zero_sets

    zero_angles = np.array(zset.Z.as_floats())[:, 0]
    return [
        _exact(f"{tag}.curve.vertices", int(curve.boundary.shape[0])),
        # the vertices whose curvature is zero within the support's flat tolerance
        _exact(
            f"{tag}.curve.flat_marks",
            int(np.count_nonzero(curve.curvature <= _FLAT_TOL * np.max(curve.curvature))),
        ),
        _float(f"{tag}.curve.symmetry_gap", curve.symmetry_gap(), diam),
        _float(f"{tag}.curve.total_turning", curve.total_turning(), 2.0 * math.pi),
        _exact(f"{tag}.zero_set.Z_components", len(zset.Z)),
        _float(f"{tag}.zero_set.min_gap", np.min(np.diff(zero_angles)), 2.0 * math.pi),
        _exact(f"{tag}.sweep.avoiding", int(rotations_avoiding_zero_sets(zset, zset, grid).size)),
    ]


def support_entries(tag, support):
    """Min, max and sum of each support array (``d2h`` over its finite entries), and the flat count."""
    out, hashes = [], {}
    arrays = {"h": support.h, "dh": support.dh, "d2h": support.d2h[~support.flat]}
    for key, arr in arrays.items():
        scale = float(np.max(np.abs(arr)))
        name = f"{tag}.support.{key}"
        out.append(_float(f"{name}.min", arr.min(), scale))
        out.append(_float(f"{name}.max", arr.max(), scale))
        out.append(_float(f"{name}.sum", arr.sum(), scale * arr.size))
    out.append(_exact(f"{tag}.support.flat.count", int(np.count_nonzero(support.flat))))
    for key in ("h", "dh", "d2h", "flat"):
        hashes[f"{tag}.support.{key}"] = hashlib.sha256(getattr(support, key).tobytes()).hexdigest()
    return out, hashes


def transfer_entries(tag, support):
    """The two gaps and the verdict of an ellipse plus the body, at every grid normal."""
    from minklab.curve import SupportFn, curvature_transfer_check

    ellipse = SupportFn.ellipse(*ELLIPSE, grid_n=support.theta.size)
    rep = curvature_transfer_check(ellipse, support, support.theta)
    scale = float(np.max(rep.rho_sum[np.isfinite(rep.rho_sum)]))
    return [
        _float(f"{tag}.transfer.additive_gap", rep.additive_gap, scale),
        _float(f"{tag}.transfer.discrete_gap", rep.discrete_gap, scale),
        _exact(f"{tag}.transfer.transfer_ok", bool(rep.transfer_ok)),
    ]


def entries(bodies):
    """``(entries, hashes)`` of ``bodies``: tag -> ``(schedule, (curve, zset), support)``."""
    out, hashes = [], {}
    for tag, (schedule, (curve, zset), support) in bodies.items():
        out += schedule_entries(tag, schedule)
        out += curve_entries(tag, curve, zset)
        rows, h = support_entries(tag, support)
        out += rows
        hashes.update(h)
        out += transfer_entries(tag, support)
    names = [name for name, _ in out]
    if len(set(names)) != len(names):
        raise ValueError("ledger entry names are not unique")
    return dict(out), hashes


def build_bodies():
    """The two conftest bodies, built as the session fixtures build them."""
    from helpers import SLOPES_1, SLOPES_2
    from minklab.curve import SupportFn, assemble_curve
    from minklab.hinge import schedule_smoothings
    from minklab.patching import SlopeSchedule, build_patched_convex, quadratic_profile_family

    bodies = {}
    for tag, slopes in (("first", SLOPES_1), ("second", SLOPES_2)):
        a = 2.0 ** -np.arange(11)
        f = build_patched_convex(SlopeSchedule(slopes), quadratic_profile_family(a)).f
        schedule = schedule_smoothings(f, 5)
        curve, zset = assemble_curve(f, schedule, m_max=5)
        bodies[tag] = (schedule, (curve, zset), SupportFn.from_curve(curve))
    return bodies


def load(path=LEDGER):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return data["entries"], data["sha256"]


def save(entries_, hashes, path=LEDGER):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"entries": entries_, "sha256": hashes}, fh, indent=1)
        fh.write("\n")


def within(new, old):
    """Whether entry value ``new`` matches the stored entry ``old`` at its tolerance."""
    a, b = old["value"], new
    if isinstance(a, bool) or isinstance(b, bool) or old["rtol"] == old["atol"] == 0.0:
        return type(a) is type(b) and a == b
    return abs(b - a) <= old["rtol"] * max(abs(a), abs(b)) + old["atol"]


def compare(current, stored):
    """Moves of ``current`` against ``stored``: ``(moved, missing, added)``.

    ``moved`` lists ``(name, old, new, beyond)`` for every entry whose value
    differs at all; ``beyond`` says whether it left its tolerance.
    """
    moved = []
    for name, old in stored.items():
        if name in current:
            new = current[name]["value"]
            if new != old["value"] or type(new) is not type(old["value"]):
                moved.append((name, old["value"], new, not within(new, old)))
    missing = sorted(set(stored) - set(current))
    added = sorted(set(current) - set(stored))
    return moved, missing, added


def _main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--diff", action="store_true", help="print the entries that moved")
    mode.add_argument("--write", action="store_true", help="rewrite the ledger file")
    args = p.parse_args(argv)
    current, hashes = entries(build_bodies())
    if args.write:
        save(current, hashes)
        print(f"wrote {len(current)} entries to {LEDGER}")
        return 0
    stored, stored_hashes = load()
    moved, missing, added = compare(current, stored)
    for name, old, new, beyond in moved:
        tag = "beyond tolerance" if beyond else "within tolerance"
        print(f"- ledger `{name}`: {old!r} -> {new!r} ({tag})")
    for name in missing:
        print(f"- ledger `{name}`: no longer computed")
    for name in added:
        print(f"- ledger `{name}`: new entry {current[name]['value']!r}")
    changed = sorted(k for k in stored_hashes if hashes.get(k) != stored_hashes[k])
    for name in changed:
        print(f"- sha256 of `{name}` differs (not asserted)")
    print(f"{len(stored)} entries, {len(moved)} moved, {sum(b for *_, b in moved)} beyond tolerance")
    return 1 if any(b for *_, b in moved) or missing or added else 0


if __name__ == "__main__":
    sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
    raise SystemExit(_main())
