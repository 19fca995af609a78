"""Fast self-tests of the benchmark: inputs, span arithmetic, failure counting, smoke passes.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads
from minklab import fn_core, jets
from minklab.errors import ValidationError

BENCH = Path(__file__).resolve().parents[1]


# -- seeded inputs -----------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    wl = workloads.WORKLOADS[name]()
    first = workloads._canonical(wl.params(7))
    assert workloads._canonical(wl.params(7)) == first
    assert workloads._canonical(wl.params(8)) != first


def test_inputs_identical_across_processes():
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import workloads\n"
        "print(' '.join(workloads.digest(w().params(7)) for _, w in sorted(workloads.WORKLOADS.items())))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(BENCH.parent / "src"), str(BENCH)],
        capture_output=True, text=True, check=True,
    )
    here = " ".join(workloads.digest(w().params(7)) for _, w in sorted(workloads.WORKLOADS.items()))
    assert done.stdout.split() == here.split()


def test_construct_weights_cover_the_circle_in_pairs():
    for seed in range(20):
        w = [b["w"] for b in workloads.Construct().params(seed)["bodies"]]
        assert all(0.0 <= x < 1.0 for x in w)
        assert abs((w[1] - w[0]) % 1.0 - 0.5) < 1e-12


# -- span arithmetic ---------------------------------------------------------


def _span(name, start, end, parent, run_id=1, counts=None):
    return [name, start, end, parent, run_id, counts]


def test_self_time_subtracts_children():
    spans = [
        _span("a", 0.0, 10.0, -1),
        _span("b", 1.0, 4.0, 0),
        _span("d", 2.0, 3.0, 1),
        _span("c", 5.0, 7.0, 0),
        _span("e", 9.0, 12.0, 0),  # runs past its parent: only [9, 10] counts
    ]
    assert tracing.self_times(spans) == pytest.approx([10 - 3 - 2 - 1, 2.0, 1.0, 2.0, 3.0])


def test_layer_metrics_weights_setup_and_passes():
    spans = [
        _span("hinge.build_smoothing", 0.0, 1.0, -1, run_id=0),
        _span("hinge.build_smoothing", 0.0, 2.0, -1, run_id=1),
        _span("hinge.build_smoothing", 0.0, 4.0, -1, run_id=2),
        _span("hinge.schedule_smoothings", 0.0, 8.0, -1, run_id=2, counts={"kept": 1}),
        _span("hinge.schedule_smoothings", 1.0, 2.0, 3, run_id=2, counts={"kept": 2}),
        _span("cantor.wrap_mod", 0.0, 5.0, -1, run_id=3),  # a pass left out
        _span("hinge.build_smoothing", 0.0, 9.0, -1, run_id=3),
        _span("fn_core.grid_fn.build", 0.0, 0.5, -1, run_id=0),
    ]
    m = tracing.layer_metrics(spans, passes=[1, 2])
    assert m["hinge.build_smoothing.calls"] == pytest.approx(1 + 2 / 2)
    assert m["hinge.build_smoothing.s"] == pytest.approx(1 + (2 + 4) / 2)
    # the nested span of the same name counts in self time, not again in .s
    assert m["hinge.schedule_smoothings.s"] == pytest.approx(8 / 2)
    assert m["hinge.schedule_smoothings.self_s"] == pytest.approx((7 + 1) / 2)
    assert m["hinge.build_smoothing.kept_frac"] == pytest.approx((3 / 2) / 2)
    assert "cantor.wrap_mod.calls" not in m
    assert (m["fn_core.grid_fn.builds"], m["fn_core.grid_fn.build_s"]) == pytest.approx((1.0, 0.5))
    with pytest.raises(ValueError):
        tracing.layer_metrics(spans, passes=[])


def test_tracer_patches_every_binding_and_restores_them():
    from minklab import bumps, curve, hinge, infconv, rotated_graph

    before = {mod: mod.invert_monotone for mod in (fn_core, rotated_graph, hinge, curve, infconv)}
    tmul = bumps.tmul
    tracer = tracing.Tracer()
    with tracer.recording(1):
        for mod in before:
            assert getattr(mod.invert_monotone, "__wrapped_by_tracer__", False), mod.__name__
        assert bumps.tmul is jets.tmul and bumps.tmul is not tmul
        x = fn_core.invert_monotone(lambda v: v**3, None, np.array([8.0, 27.0]), 0.0, 4.0)
        assert x == pytest.approx([2.0, 3.0])
    assert all(mod.invert_monotone is fn for mod, fn in before.items())
    assert bumps.tmul is tmul and "jet" not in vars(fn_core.GridIntegratedFn)
    (span,) = [s for s in tracer.spans if s[0] == "fn_core.invert_monotone"]
    assert span[4] == 1 and span[5]["targets"] == 2 and span[5]["fn_evals"] == 2 + 52


# -- failure counting --------------------------------------------------------


class _Stub:
    """Two operations per pass; the second raises on odd passes."""

    round = 2

    def __init__(self, exc):
        self.exc = exc

    def run_pass(self, state, index):
        out = workloads.PassOutput(index)
        workloads.attempt(out, "ok", lambda: 1)

        def maybe_raise():
            if index % 2:
                raise self.exc("stub failure")
            return 2

        workloads.attempt(out, "flaky", maybe_raise)
        return out

    def check(self, state, out):
        return [workloads.Op(label, out.errors.get(label)) for label in ("ok", "flaky")]


def test_fail_frac_counts_validation_errors(capsys):
    loop = run.Loop(_Stub(ValidationError), state=None)
    loop.run(0.0, 4, started=0.0)
    attempted, failed, correct = run.report_ops(loop.ops)
    assert (attempted, failed, correct) == (8, 2, True)
    assert loop.completed == [True, False, True, False]
    assert "stub failure" in capsys.readouterr().out
    # failed passes leave the solve time; all of them count when none completed
    assert run.solve_time([1.0, 9.0, 3.0], [True, False, True]) == 2.0
    assert run.solve_time([1.0, 9.0], [False, False]) == 5.0


def test_other_exceptions_are_not_counted_but_raised():
    loop = run.Loop(_Stub(TypeError), state=None)
    with pytest.raises(TypeError):
        loop.run(0.0, 2, started=0.0)


# -- smoke passes at reduced size ---------------------------------------------


# at this seed the small construct run assembles one body and hits the
# zero-set defect on the other, so both paths run
SMALL_SEED = 4
SMALL = {
    "construct": lambda: workloads.Construct(levels=1, angles=4, support_n=1024),
    "infconv": lambda: workloads.InfConv(grid_n=129),
    "cantor_sweep": lambda: workloads.CantorSweep(
        cases=((Fraction(1, 3), 3), (Fraction(1, 2), 4), (Fraction(3, 5), 3)), angles=16
    ),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_smoke_pass(name):
    wl = SMALL[name]()
    loop = run.Loop(wl, wl.prepare(wl.params(SMALL_SEED)))
    loop.run(0.0, wl.round, started=0.0)
    attempted, failed, correct = run.report_ops(loop.ops)
    assert attempted >= 1 and correct
    for op in loop.ops:
        assert op.error is None or "Error" in op.error  # a raised MinkLabError, named


def test_construct_counts_a_failed_assembly(monkeypatch, capsys):
    # the shape of the known defect: validate() rejects an invariant zero set
    def defect(*args, **kwargs):
        raise ValidationError("zero set is not rotation invariant")

    monkeypatch.setattr(workloads.curve, "assemble_curve", defect)
    wl = SMALL["construct"]()
    loop = run.Loop(wl, wl.prepare(wl.params(SMALL_SEED)))
    loop.run(0.0, wl.round, started=0.0)
    assert run.report_ops(loop.ops) == (2, 2, True)
    assert loop.completed == [False, False]
    for op in loop.ops:
        assert op.error.startswith("assembly: ValidationError: zero set is not rotation invariant")
        assert op.accuracy is not None  # the schedule's certificates still count


def _claim_every_angle_avoids(z_a, z_b, angle_grid):
    return np.asarray(angle_grid, dtype=float)


def _claim_no_angle_avoids(z_a, z_b, angle_grid):
    return np.zeros(0)


def _shifted_conjugate(original):
    def conjugate(f, g, **kwargs):
        res = original(f, g, **kwargs)
        return dataclasses.replace(res, values=res.values + 2.0 * res.error_bound)

    return conjugate


@pytest.mark.parametrize(
    "name, target, make",
    [
        ("cantor_sweep", "rotations_avoiding_zero_sets", lambda orig: _claim_every_angle_avoids),
        ("construct", "rotations_avoiding_zero_sets", lambda orig: _claim_no_angle_avoids),
        ("infconv", "infconv_conjugate", _shifted_conjugate),
    ],
)
def test_checks_refute_wrong_outputs(name, target, make, monkeypatch, capsys):
    module = workloads.infconv if target.startswith("infconv") else workloads.curve
    monkeypatch.setattr(module, target, make(getattr(module, target)))
    wl = SMALL[name]()
    loop = run.Loop(wl, wl.prepare(wl.params(SMALL_SEED)))
    loop.run(0.0, wl.round, started=0.0)
    assert any(op.wrong for op in loop.ops)
    assert run.report_ops(loop.ops)[2] is False


# -- the runner in a checkout without sources ----------------------------------


def test_runner_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "infconv", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [m[0] for m in tracing.LAYER_METRICS]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
