"""The shared export format: one-line JSON with an LF ending."""

from __future__ import annotations

import json

from minklab.export import write_json
from minklab.fn_core import SmoothFn
from minklab.hinge import build_smoothing


def test_smoothing_json_is_one_exact_line(tmp_path):
    quartic = SmoothFn.polynomial([0.0, 0.0, 0.0, 0.0, 0.25], (0.0, 1.0), max_order=8)
    sr = build_smoothing(quartic, 0.2, 1e-3)
    measured = [c.measured for c in sr.certificates] + [-0.0, 5e-324]
    path = tmp_path / "smoothing.json"
    write_json(path, {"certificates": [c.name for c in sr.certificates], "measured": measured})
    raw = path.read_bytes()
    assert raw.count(b"\n") == 1 and raw.endswith(b"\n")
    assert b"\r" not in raw
    got = json.loads(raw)["measured"]
    assert [float.hex(v) for v in got] == [float.hex(v) for v in measured]
