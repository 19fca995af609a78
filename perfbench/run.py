"""Benchmark runner for minklab.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload construct --seed 1 --seconds 10 --trace 0

The runner drives minklab's public API from outside, in one process on
one thread, as a closed loop: each pass starts when the previous one has
ended.  Passes run until ``--seconds`` have gone by and at least one full
round of the workload's inputs is done (two bodies for ``construct``, one
pass for the others).  Each pass's outputs are checked by an independent
route after its timer has stopped.

With ``--trace 0`` it prints the end-to-end metrics:

* ``setup_s``: process start until the inputs are ready (interpreter,
  imports, input generation), the median of five fresh child processes;
* ``solve_s``: median wall time of the completed passes (passes that
  raised are counted in ``failed`` and left out; if none completed, the
  median of all passes);
* ``peak_rss_mb``: peak resident memory of this process.

``fail_frac`` and ``accuracy_ratio`` are printed in the report above the
result line.  With ``--trace 1`` it runs each pass untraced and then
traced, for at least one full round, and prints the per-layer metrics of
:mod:`tracing`, averaged over the traced passes that completed; the spans
are written to ``perfbench/out/``.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import os

# one thread for every numeric library, before any of them is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 5
# a run stops starting passes once another could push it past this
WALL_LIMIT_S = 150.0


def import_package():
    """Import minklab from this checkout's ``src``; exit 2 when it is missing."""
    if not (SRC / "minklab" / "__init__.py").is_file():
        print(f"perfbench: no minklab sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import minklab

    if Path(minklab.__file__).resolve().parent != SRC / "minklab":
        print(f"perfbench: imported minklab from {minklab.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["construct", "infconv", "cantor_sweep"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Start-to-ready times of fresh processes that only set the inputs up."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()  # CLOCK_MONOTONIC: comparable across processes
        done = subprocess.run(cmd, capture_output=True, text=True, check=False, cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        samples.append(float(done.stdout.strip().splitlines()[-1]) - start)
    return samples


class Loop:
    """Closed-loop pass runner: time each pass, then check it untimed."""

    def __init__(self, workload, state, tracer=None):
        self.workload = workload
        self.state = state
        self.tracer = tracer
        self.times: list[float] = []
        self.completed: list[bool] = []
        self.ops = []

    def one(self, index: int) -> float:
        # a tracer records the pass only, not the output checks
        with self.tracer.recording(index + 1) if self.tracer else contextlib.nullcontext():
            start = time.perf_counter()
            out = self.workload.run_pass(self.state, index)
            elapsed = time.perf_counter() - start
        self.times.append(elapsed)
        self.completed.append(out.completed)
        self.ops += self.workload.check(self.state, out)
        return elapsed

    def run(self, seconds: float, min_passes: int, *, started: float) -> None:
        run_passes(self.one, seconds, min_passes, started)


def run_passes(step, seconds: float, min_passes: int, started: float) -> None:
    """Call ``step(index)`` until ``seconds`` have gone by and ``min_passes`` are done.

    ``step`` returns how long it took; no step starts once another could
    push the run past ``WALL_LIMIT_S``.
    """
    index, begin, longest = 0, time.perf_counter(), 0.0
    while True:
        if index >= min_passes:
            now = time.perf_counter()
            if now - begin >= seconds or now - started + longest > WALL_LIMIT_S:
                return
        longest = max(longest, step(index))
        index += 1


def solve_time(times, completed) -> float:
    done = [t for t, ok in zip(times, completed) if ok]
    return statistics.median(done or times)


def report_ops(ops) -> tuple[int, int, bool]:
    failed = [op for op in ops if op.error]
    for op in failed:
        print(f"failed  {op.label}: {op.error}")
    return len(ops), len(failed), not any(op.wrong for op in ops)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    import_package()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, digest

    workload = WORKLOADS[args.workload]()
    if args.setup_probe:
        workload.prepare(workload.params(args.seed))
        print(repr(time.perf_counter()))
        return 0

    if args.trace:
        return traced_run(args, workload, started)

    setup = measure_setup(args.workload, args.seed)
    loop = Loop(workload, workload.prepare(workload.params(args.seed)))
    loop.run(args.seconds, workload.round, started=started)

    solve_s = solve_time(loop.times, loop.completed)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, correct = report_ops(loop.ops)
    accuracies = [op for op in loop.ops if op.accuracy is not None]
    n_done = sum(loop.completed)
    inputs = digest(workload.params(args.seed))[:16]
    print(f"workload {args.workload}  seed {args.seed}  inputs {inputs}  passes {len(loop.times)} (completed {n_done})")
    print(f"setup_s         {statistics.median(setup):.4f} s      median of {len(setup)} fresh processes")
    print(f"solve_s         {solve_s:.4f} s      median of {n_done or len(loop.times)} passes")
    print(f"peak_rss_mb     {rss_mb:.1f} MB")
    print("pass_s          " + " ".join(f"{t:.3f}{'' if ok else '(failed)'}" for t, ok in zip(loop.times, loop.completed)))
    print(f"fail_frac       {failed / attempted:.4f} ratio  {failed} of {attempted} operations")
    if accuracies:
        worst = max(accuracies, key=lambda op: op.accuracy)
        print(f"accuracy_ratio  {worst.accuracy:.4f} ratio  {worst.accuracy_name} ({worst.label})")
    else:
        print("accuracy_ratio  not reported: exact arithmetic")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "solve_s": {"value": solve_s, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        },
    }
    print(json.dumps(result))
    return 0


def traced_run(args, workload, started) -> int:
    """Each pass untraced, then the same pass traced; prints per-layer metrics.

    Alternating the two keeps slow drift of the host out of
    ``trace.overhead_frac``.  At least one full round is traced, so every
    body of ``construct`` is; the layer metrics are the mean over the
    traced passes that completed (over all of them if none did), so a pass
    cut short by a failure does not dilute them.
    """
    import tracing

    params = workload.params(args.seed)
    plain = Loop(workload, workload.prepare(params))
    tracer = tracing.Tracer()
    with tracer.recording(0):  # set-up spans
        traced = Loop(workload, workload.prepare(params), tracer)
    run_passes(lambda i: plain.one(i) + traced.one(i), args.seconds, workload.round, started)
    passes = len(traced.times)

    runs = [i + 1 for i, ok in enumerate(traced.completed) if ok] or list(range(1, passes + 1))
    values = tracing.layer_metrics(tracer.spans, runs)
    values["trace.overhead_frac"] = sum(traced.times) / sum(plain.times) - 1.0
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"trace-{args.workload}-{args.seed}.jsonl.gz"
    tracer.write(spans_path)

    attempted, failed, correct = report_ops(plain.ops + traced.ops)
    print(f"workload {args.workload}  seed {args.seed}  traced passes {passes} (averaged {len(runs)})  spans {len(tracer.spans)} -> {spans_path.relative_to(ROOT)}")
    metrics = {}
    for name, unit, _better in tracing.LAYER_METRICS:
        metrics[name] = {"value": float(values.get(name, 0.0)), "unit": unit}
        print(f"{name:45s} {metrics[name]['value']:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
