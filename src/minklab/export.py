"""The one file format of every minklab export: one line of JSON.

``json.dumps(payload)`` (default separators, ``NaN`` and ``Infinity`` as
Python writes them) followed by ``\\n``.
"""

from __future__ import annotations

import json

__all__ = ["write_json"]


def write_json(path, payload) -> None:
    """Write ``payload`` as one line of JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload) + "\n")
