"""Package-level checks: every declared export resolves and has a caller, and no module loads SciPy."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import minklab

MODULES = sorted(m.name for m in pkgutil.iter_modules(minklab.__path__))
REPO = Path(__file__).resolve().parents[1]
# Public names that no pipeline calls yet, each kept for the ROADMAP item
# that will call it.
KEPT_FOR_OPEN_ITEMS = {
    "fn_core.holder_seminorm": 15,
    "rotated_graph.cr_bound_check": 2,
    "patching.make_bump_system": 2,
    "curve.angular_resolution_arc": 11,
    "curve.refinement_intervals": 6,
    "export.write_json": 2,
}


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_export_exists(name):
    module = importlib.import_module(f"minklab.{name}")
    exported = getattr(module, "__all__", ())
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == [], f"minklab.{name}.__all__ lists undefined names {missing}"


def test_importing_every_module_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(minklab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, " + ", ".join(f"minklab.{m}" for m in MODULES) + (
        "; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"


def _references(path):
    """Names read in ``path``, leaving out each top-level definition's reads of its own name."""
    refs = set()
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        own = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name is not None and name != own and isinstance(node.ctx, ast.Load):
                refs.add(name)
    return refs


def test_every_public_name_has_a_caller():
    files = sorted((REPO / "src" / "minklab").glob("*.py")) + sorted((REPO / "perfbench").glob("*.py"))
    refs = set().union(*map(_references, files))
    uncalled = {
        f"{name}.{public}"
        for name in MODULES
        for public in getattr(importlib.import_module(f"minklab.{name}"), "__all__", ())
        if public not in refs
    }
    assert sorted(uncalled - KEPT_FOR_OPEN_ITEMS.keys()) == [], "public names that only tests call"
    assert sorted(KEPT_FOR_OPEN_ITEMS.keys() - uncalled) == [], "kept names that now have a caller"
