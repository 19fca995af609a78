"""The benchmark's tracer around the root finder: same results, counted work, clean exit.

``perfbench/tracing.py`` wraps the ``fn`` of every ``invert_monotone`` call
in a one-argument counter, so a traced run breaks if the root finder ever
passes ``fn`` more than the points.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from minklab import fn_core
from minklab.infconv import minimizer_map
from minklab.rotated_graph import rotate_graph

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


def _bindings(tracing):
    """Every attribute of the loaded minklab modules and of the traced classes."""
    from minklab import cantor, curve

    owners = [*tracing._minklab_modules(), fn_core.SmoothFn, fn_core.GridIntegratedFn]
    owners += [curve.SupportFn, cantor.IntervalSet]
    return {(id(owner), attr): value for owner in owners for attr, value in vars(owner).items()}


def test_traced_inversions_match_untraced_and_restore_every_binding(tracing, hinge_profile):
    rf = rotate_graph(hinge_profile.f, 0.3)
    us = np.linspace(*rf.domain, 101)
    f = fn_core.SmoothFn.polynomial([0.0, 0.1, 1.0, 0.0, 0.5], (-1.0, 1.0), name="f")
    g = fn_core.SmoothFn.polynomial([0.0, -0.2, 0.8, 0.0, 1.0], (-0.5, 0.5), name="g")
    xs = np.linspace(-0.6, 0.6, 49)

    def run():
        return rf.jet(us, 2), minimizer_map(f, g, xs)

    plain = run()
    before = _bindings(tracing)
    tracer = tracing.Tracer()
    with tracer.recording(1):
        assert fn_core.invert_monotone.__wrapped_by_tracer__
        traced = run()
    after = _bindings(tracing)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    for a, b in zip(plain, traced):
        np.testing.assert_array_equal(a, b)
    spans = [s for s in tracer.spans if s[0] == "fn_core.invert_monotone"]
    assert len(spans) >= 2
    assert all(s[4] == 1 and s[5]["fn_evals"] > 0 for s in spans)


def test_traced_fn_evals_are_the_calls_of_fn(tracing):
    calls = []

    def cube(v):
        calls.append(np.size(v))
        return v**3

    tracer = tracing.Tracer()
    with tracer.recording(1):
        x = fn_core.invert_monotone(cube, None, np.array([8.0, 27.0]), 0.0, 4.0)
    np.testing.assert_allclose(x, [2.0, 3.0], rtol=1e-15)
    (span,) = [s for s in tracer.spans if s[0] == "fn_core.invert_monotone"]
    assert span[5]["targets"] == 2 and span[5]["fn_evals"] == len(calls)
