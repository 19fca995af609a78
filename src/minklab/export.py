"""The one file format of every minklab export.

CSV: a header line of comma-separated column names, then one line per row;
every value is written with ``%.17g`` (so every float64, including ``nan``,
``inf`` and ``-0``, parses back bit-identical; booleans read ``0``/``1``),
fields are separated by ``,`` and every line ends with ``\\n``.

JSON: one line, ``json.dumps(payload)`` (default separators, ``NaN`` and
``Infinity`` as Python writes them) followed by ``\\n``.
"""

from __future__ import annotations

import json
from typing import Mapping

import numpy as np

__all__ = ["write_csv", "write_json"]


def write_csv(path, columns: Mapping[str, np.ndarray]) -> None:
    """Write equal-length 1-D ``columns`` (name -> values) as one CSV table."""
    table = np.column_stack([np.asarray(c, dtype=float) for c in columns.values()])
    np.savetxt(
        path,
        table,
        fmt="%.17g",
        delimiter=",",
        newline="\n",
        header=",".join(columns),
        comments="",
    )


def write_json(path, payload) -> None:
    """Write ``payload`` as one line of JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload) + "\n")
