"""Span recording around calls into minklab's public functions.

A :class:`Tracer` replaces module attributes (and a few class attributes)
with recorders that time each call and keep the span in memory.  A span
is ``[name, start, end, parent, run, counts]``: ``parent`` is the index
of the enclosing span (-1 at top level), ``run`` the pass it belongs to
(0 is set-up), and ``counts`` an optional dict of work counts taken from
the call's arguments or result.

Every binding of a wrapped function is patched: ``invert_monotone`` is
imported by name into ``rotated_graph``, ``hinge``, ``curve`` and
``infconv``, and ``tmul`` into ``bumps``, so the tracer scans every loaded
``minklab`` module for the original object.  :meth:`Tracer.uninstall`
puts every binding back; :meth:`Tracer.recording` patches only for the
length of a ``with`` block.

:func:`layer_metrics` turns the spans into the per-layer metrics of
``BENCHMARK.json``.  Self time is a span's duration minus the part of it
that its direct children cover.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import sys
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """In-memory span recorder that patches minklab while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.run = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, bool, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, probe=None):
        """A function that records a span named ``name`` around ``fn``.

        ``probe(fn, args, kwargs) -> (result, counts)`` runs the call itself
        when the span needs counts from its arguments or result.
        """
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.run, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                if probe is None:
                    return fn(*args, **kwargs)
                result, span[5] = probe(fn, args, kwargs)
                return result
            finally:
                span[2] = clock()
                stack.pop()

        traced.__wrapped_by_tracer__ = True
        return traced

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, had_own, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def patch_function(self, name, original, probe=None):
        """Replace every binding of ``original`` in the loaded minklab modules."""
        wrapped = self.wrap(name, original, probe)
        for mod in _minklab_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapped)

    def patch_method(self, owner, attr, name, probe=None, *, source=None):
        """Replace ``owner.attr`` (plain, static or class method) by a recorder.

        ``source`` names the class whose attribute is wrapped when ``owner``
        inherits it, so a subclass can be traced alone.
        """
        raw = vars(source or owner)[attr]
        if isinstance(raw, staticmethod):
            value = staticmethod(self.wrap(name, raw.__func__, probe))
        elif isinstance(raw, classmethod):
            value = classmethod(self.wrap(name, raw.__func__, probe))
        else:
            value = self.wrap(name, raw, probe)
        self._set(owner, attr, value)

    def install(self):
        """Patch every layer boundary listed in :func:`_targets`."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for kind, *spec in _targets():
            if kind == "fn":
                self.patch_function(*spec)
            else:
                owner, attr, name, probe, source = spec
                self.patch_method(owner, attr, name, probe, source=source)

    @contextlib.contextmanager
    def recording(self, run: int):
        """Record spans of ``run`` while the block runs; minklab is unpatched after it."""
        self.run = run
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def uninstall(self):
        for owner, attr, had_own, original in reversed(self._patches):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def write(self, path):
        """Write the spans as gzip-compressed JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, run, counts in self.spans:
                fh.write(json.dumps([name, start, end, parent, run, counts]) + "\n")


def _minklab_modules():
    return [
        mod
        for key, mod in list(sys.modules.items())
        if mod is not None and (key == "minklab" or key.startswith("minklab."))
    ]


# ---------------------------------------------------------------------------
# probes: work counts taken at the layer boundary
# ---------------------------------------------------------------------------


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _probe_invert(fn, args, kwargs):
    evals = 0
    target = _arg(args, kwargs, 0, "fn")

    def counted(x):
        nonlocal evals
        evals += 1
        return target(x)

    if args:
        result = fn(counted, *args[1:], **kwargs)
    else:
        result = fn(**{**kwargs, "fn": counted})
    ys = _arg(args, kwargs, 2, "ys")
    return result, {"targets": int(np.size(ys)), "fn_evals": evals}


def _probe_points(fn, args, kwargs):
    return fn(*args, **kwargs), {"points": int(np.size(_arg(args, kwargs, 1, "x")))}


def _probe_from_pairs(fn, args, kwargs):
    pairs = list(_arg(args, kwargs, 0, "pairs"))
    rest = {k: v for k, v in kwargs.items() if k != "pairs"}
    result = fn(pairs, **rest)
    return result, {"pairs": len(pairs), "exact": int(result.exact)}


def _probe_sum_sets(fn, args, kwargs):
    a = _arg(args, kwargs, 0, "a")
    b = _arg(args, kwargs, 1, "b")
    return fn(*args, **kwargs), {"pairs": len(a) * len(b)}


def _probe_schedule(fn, args, kwargs):
    result = fn(*args, **kwargs)
    return result, {"kept": len(result.smoothings)}


def _probe_assemble(fn, args, kwargs):
    result = fn(*args, **kwargs)
    return result, {"vertices": int(result[0].boundary.shape[0])}


def _probe_support(fn, args, kwargs):
    result = fn(*args, **kwargs)
    return result, {"angles": int(result.theta.size)}


def _probe_sweep(fn, args, kwargs):
    result = fn(*args, **kwargs)
    grid = _arg(args, kwargs, 2, "angle_grid")
    return result, {"angles": int(np.size(grid)), "avoiding": int(result.size)}


def _targets():
    """Layer boundaries: (kind, ...) entries consumed by :meth:`Tracer.install`."""
    from minklab import bumps, cantor, curve, fn_core, hinge, infconv, jets, patching, rotated_graph

    grid_fn = fn_core.GridIntegratedFn
    return [
        ("fn", "jets.tmul", jets.tmul, None),
        ("fn", "jets.tcompose", jets.tcompose, None),
        ("fn", "jets.exp_neg_inv", jets.exp_neg_inv, None),
        ("fn", "bumps.psi_scaled_jet", bumps.psi_scaled_jet, None),
        ("fn", "fn_core.invert_monotone", fn_core.invert_monotone, _probe_invert),
        ("fn", "fn_core.cr_norm", fn_core.cr_norm, None),
        # eval (and so __call__) reaches the interpolation table without jet
        ("method", grid_fn, "jet", "fn_core.grid_fn.jet", _probe_points, fn_core.SmoothFn),
        ("method", grid_fn, "eval", "fn_core.grid_fn.eval", _probe_points, fn_core.SmoothFn),
        ("method", grid_fn, "__init__", "fn_core.grid_fn.build", None, None),
        ("fn", "patching.build_patched_convex", patching.build_patched_convex, None),
        ("fn", "rotated_graph.rotate_graph", rotated_graph.rotate_graph, None),
        ("fn", "hinge.schedule_smoothings", hinge.schedule_smoothings, _probe_schedule),
        ("fn", "hinge.build_smoothing", hinge.build_smoothing, None),
        ("fn", "hinge.solve_epsilon", hinge.solve_epsilon, None),
        ("fn", "hinge.solve_b_eps", hinge.solve_b_eps, None),
        ("fn", "hinge.place_profiles", hinge.place_profiles, None),
        ("fn", "curve.assemble_curve", curve.assemble_curve, _probe_assemble),
        ("method", curve.SupportFn, "from_curve", "curve.support_from_curve", _probe_support, None),
        ("fn", "curve.minkowski_sum", curve.minkowski_sum, None),
        ("fn", "curve.curvature_transfer_check", curve.curvature_transfer_check, None),
        ("fn", "curve.rotations_avoiding_zero_sets", curve.rotations_avoiding_zero_sets, _probe_sweep),
        ("method", cantor.IntervalSet, "from_pairs", "cantor.from_pairs", _probe_from_pairs, None),
        ("method", cantor.IntervalSet, "translate", "cantor.translate", None, None),
        ("fn", "cantor.wrap_mod", cantor.wrap_mod, None),
        ("fn", "cantor.intersects", cantor.intersects, None),
        ("fn", "cantor.sum_sets", cantor.sum_sets, _probe_sum_sets),
        ("fn", "cantor.build_cantor", cantor.build_cantor, None),
        ("fn", "cantor.covers", cantor.covers, None),
        ("fn", "infconv.infconv_direct", infconv.infconv_direct, None),
        ("fn", "infconv.infconv_conjugate", infconv.infconv_conjugate, None),
        ("fn", "infconv.smoothness_diag", infconv.smoothness_diag, None),
        ("fn", "infconv.check_convexity", infconv.check_convexity, None),
        ("fn", "infconv.minimizer_map", infconv.minimizer_map, None),
    ]


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its direct children within it."""
    children = defaultdict(list)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_lo, c_hi in sorted(children.get(i, ())):
            c_lo, c_hi = max(c_lo, cursor), min(c_hi, end)
            if c_hi > c_lo:
                covered += c_hi - c_lo
                cursor = c_hi
        out.append((end - start) - covered)
    return out


def _outermost(spans) -> list[bool]:
    """True for spans with no ancestor of the same name (no double counting)."""
    flags = []
    for name, _s, _e, parent, *_ in spans:
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        flags.append(p < 0)
    return flags


# (metric name, unit, better) in BENCHMARK.json order; "trace.overhead_frac"
# is measured by the runner, everything else comes from the spans.
LAYER_METRICS = [
    ("fn_core.invert_monotone.calls", "count", "lower"),
    ("fn_core.invert_monotone.targets", "count", "lower"),
    ("fn_core.invert_monotone.fn_evals", "count", "lower"),
    ("fn_core.invert_monotone.self_s", "s", "lower"),
    ("fn_core.grid_fn.jet.calls", "count", "lower"),
    ("fn_core.grid_fn.jet.points", "count", "lower"),
    ("fn_core.grid_fn.jet.self_s", "s", "lower"),
    ("fn_core.grid_fn.eval.calls", "count", "lower"),
    ("fn_core.grid_fn.eval.points", "count", "lower"),
    ("fn_core.grid_fn.eval.self_s", "s", "lower"),
    ("fn_core.grid_fn.builds", "count", "lower"),
    ("fn_core.grid_fn.build_s", "s", "lower"),
    ("fn_core.cr_norm.calls", "count", "lower"),
    ("fn_core.cr_norm.self_s", "s", "lower"),
    ("jets.tmul.calls", "count", "lower"),
    ("jets.tmul.self_s", "s", "lower"),
    ("jets.tcompose.calls", "count", "lower"),
    ("jets.tcompose.self_s", "s", "lower"),
    ("jets.exp_neg_inv.calls", "count", "lower"),
    ("jets.exp_neg_inv.self_s", "s", "lower"),
    ("bumps.psi_scaled_jet.calls", "count", "lower"),
    ("bumps.psi_scaled_jet.self_s", "s", "lower"),
    ("patching.build_patched_convex.s", "s", "lower"),
    ("rotated_graph.rotate_graph.calls", "count", "lower"),
    ("rotated_graph.rotate_graph.self_s", "s", "lower"),
    ("hinge.schedule_smoothings.s", "s", "lower"),
    ("hinge.build_smoothing.calls", "count", "lower"),
    ("hinge.build_smoothing.self_s", "s", "lower"),
    ("hinge.build_smoothing.kept_frac", "ratio", "higher"),
    ("hinge.solve_epsilon.self_s", "s", "lower"),
    ("hinge.solve_b_eps.self_s", "s", "lower"),
    ("hinge.place_profiles.self_s", "s", "lower"),
    ("curve.assemble_curve.s", "s", "lower"),
    ("curve.assemble_curve.vertices", "count", "lower"),
    ("curve.support_from_curve.s", "s", "lower"),
    ("curve.support_from_curve.angles", "count", "lower"),
    ("curve.minkowski_sum.s", "s", "lower"),
    ("curve.curvature_transfer_check.s", "s", "lower"),
    ("curve.rotations_avoiding_zero_sets.s", "s", "lower"),
    ("curve.rotations_avoiding_zero_sets.angles", "count", "lower"),
    ("curve.rotations_avoiding_zero_sets.avoiding", "count", "higher"),
    ("cantor.from_pairs.calls", "count", "lower"),
    ("cantor.from_pairs.pairs", "count", "lower"),
    ("cantor.from_pairs.exact_frac", "ratio", "higher"),
    ("cantor.from_pairs.self_s", "s", "lower"),
    ("cantor.translate.calls", "count", "lower"),
    ("cantor.translate.self_s", "s", "lower"),
    ("cantor.wrap_mod.calls", "count", "lower"),
    ("cantor.wrap_mod.self_s", "s", "lower"),
    ("cantor.intersects.calls", "count", "lower"),
    ("cantor.intersects.self_s", "s", "lower"),
    ("cantor.sum_sets.pairs", "count", "lower"),
    ("cantor.sum_sets.self_s", "s", "lower"),
    ("cantor.build_cantor.s", "s", "lower"),
    ("cantor.covers.s", "s", "lower"),
    ("infconv.infconv_direct.s", "s", "lower"),
    ("infconv.infconv_conjugate.s", "s", "lower"),
    ("infconv.smoothness_diag.s", "s", "lower"),
    ("infconv.check_convexity.s", "s", "lower"),
    ("infconv.minimizer_map.calls", "count", "lower"),
    ("infconv.minimizer_map.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

def layer_metrics(spans, passes) -> dict[str, float]:
    """Per-layer totals: set-up (run 0) once plus the mean over ``passes``.

    ``passes`` holds the run ids of the passes to average over; spans of
    other runs are left out.  Returns ``<span>.calls``, ``<span>.s``
    (outermost spans only, so a function reached again inside itself is
    not counted twice), ``<span>.self_s`` and ``<span>.<count>`` for every
    count a probe took, plus ``fn_core.grid_fn.{builds,build_s}`` and the
    ratios ``hinge.build_smoothing.kept_frac`` and
    ``cantor.from_pairs.exact_frac``.
    """
    passes = set(passes)
    if not passes or 0 in passes:
        raise ValueError("need at least one traced pass")
    totals: dict[str, float] = defaultdict(float)
    selfs = self_times(spans)
    outer = _outermost(spans)
    for span, self_s, top in zip(spans, selfs, outer):
        name, start, end, _parent, run, counts = span
        if run != 0 and run not in passes:
            continue
        weight = 1.0 if run == 0 else 1.0 / len(passes)
        totals[f"{name}.calls"] += weight
        totals[f"{name}.self_s"] += weight * self_s
        if top:
            totals[f"{name}.s"] += weight * (end - start)
        for key, value in (counts or {}).items():
            totals[f"{name}.{key}"] += weight * value
    totals["fn_core.grid_fn.builds"] = totals.get("fn_core.grid_fn.build.calls", 0.0)
    totals["fn_core.grid_fn.build_s"] = totals.get("fn_core.grid_fn.build.s", 0.0)
    builds = totals.get("hinge.build_smoothing.calls", 0.0)
    totals["hinge.build_smoothing.kept_frac"] = (
        totals.get("hinge.schedule_smoothings.kept", 0.0) / builds if builds else 0.0
    )
    made = totals.get("cantor.from_pairs.calls", 0.0)
    totals["cantor.from_pairs.exact_frac"] = (
        totals.get("cantor.from_pairs.exact", 0.0) / made if made else 0.0
    )
    return dict(totals)
