"""The shared export format: exact ``%.17g`` CSV with LF line ends, one-line JSON."""

from __future__ import annotations

import json

import numpy as np
import pytest

from minklab.curve import SupportFn, write_support_csv
from minklab.fn_core import SmoothFn, write_csv_table
from minklab.hinge import build_smoothing, write_smoothing_json
from minklab.infconv import infconv_direct, smoothness_diag, write_infconv_csv


def support_case():
    s = SupportFn.ellipse(2.0, 0.5, grid_n=4096)
    # flat-marked angles carry an infinite d2h, as on assembled curves
    s.d2h[::97] = np.inf
    s.flat[::97] = True
    cols = {"theta": s.theta, "h": s.h, "dh": s.dh, "d2h": s.d2h}
    return (lambda path: write_support_csv(path, s)), cols


def infconv_case():
    # g's short domain pins the minimizer to the window edge near both ends
    f = SmoothFn.polynomial([0.0, 0.3, 0.5, 0.0, 0.25], (-1.5, 1.5))
    g = SmoothFn.polynomial([0.0, 0.0, 2.0], (-0.25, 0.25))
    res = infconv_direct(f, g, grid_n=41)
    inner = ~res.boundary
    assert inner.any() and res.boundary.any()
    diag = smoothness_diag(f, g, res.x[inner], mu=res.mu[inner])
    dh, d2h, j_mu = np.full((3, res.x.size), np.nan)
    dh[inner] = f.jet(res.mu[inner], 1)[1]
    d2h[inner] = diag.hess_h
    j_mu[inner] = diag.j_mu
    cols = {
        "x": res.x,
        "h": res.values,
        "mu": res.mu,
        "dh": dh,
        "d2h": d2h,
        "j_mu": j_mu,
        "boundary": res.boundary,
    }
    return (lambda path: write_infconv_csv(path, res, f, g)), cols


def table_case():
    f = SmoothFn.polynomial([0.0, 0.0, 0.0, 0.0, 0.25], (-1.0, 1.0), max_order=8)
    xs = np.linspace(-1.0, 1.0, 1001)
    rows = f.jet(xs, 4)
    cols = {"x": xs, "d4": rows[4], "d0": rows[0], "d2": rows[2]}
    return (lambda path: write_csv_table(f, path, orders=(4, 0, 2))), cols


CSV_CASES = pytest.mark.parametrize(
    "case", [support_case, infconv_case, table_case], ids=["support", "infconv", "table"]
)


def written(case, tmp_path):
    write, cols = case()
    path = tmp_path / "out.csv"
    write(path)
    return path.read_bytes(), cols


@CSV_CASES
def test_csv_columns_parse_back_bit_identical(case, tmp_path):
    raw, cols = written(case, tmp_path)
    header, *lines = raw.decode("ascii").splitlines()
    assert header.split(",") == list(cols)
    parsed = [[float(v) for v in line.split(",")] for line in lines]
    assert len(parsed) == len(next(iter(cols.values())))
    for k, (name, want) in enumerate(cols.items()):
        got = [float.hex(row[k]) for row in parsed]
        assert got == [float.hex(float(v)) for v in want], name


@CSV_CASES
def test_csv_lines_end_in_bare_newlines(case, tmp_path):
    raw, _ = written(case, tmp_path)
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_smoothing_json_is_one_exact_line(tmp_path):
    quartic = SmoothFn.polynomial([0.0, 0.0, 0.0, 0.0, 0.25], (0.0, 1.0), max_order=8)
    sr = build_smoothing(quartic, 0.2, 1e-3)
    path = tmp_path / "smoothing.json"
    write_smoothing_json(path, sr)
    text = path.read_text()
    assert text.count("\n") == 1 and text.endswith("\n")
    got = [c["measured"] for c in json.loads(text)["certificates"]]
    assert [float.hex(v) for v in got] == [float.hex(c.measured) for c in sr.certificates]
