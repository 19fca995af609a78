"""Package-level checks: every declared export resolves and has a caller, no module loads SciPy, and no module imports a name it never reads."""

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


def _unread_imports(path):
    """Names that ``path`` imports and never reads; a statement marked ``# noqa: F401`` is a re-export."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    reads = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        and "# noqa: F401" not in lines[node.lineno - 1]
        for alias in node.names
        if (alias.asname or alias.name).split(".")[0] not in reads
    ]


def test_no_module_imports_a_name_it_never_reads():
    files = sorted((REPO / "src" / "minklab").glob("*.py")) + sorted((REPO / "tests").glob("*.py"))
    unread = {str(p.relative_to(REPO)): names for p in files if (names := _unread_imports(p))}
    assert unread == {}
