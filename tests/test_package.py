"""Package-level checks: every declared export resolves, every public name has a caller, no module loads SciPy, and no module imports a name it never reads."""

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
# Public names (module functions and classes, methods and properties of
# exported classes) that no pipeline calls yet, each kept for the ROADMAP
# item that will call it.
KEPT_FOR_OPEN_ITEMS = {
    "fn_core.holder_seminorm": 15,
    "rotated_graph.cr_bound_check": 2,
    "patching.make_bump_system": 2,
    "curve.angular_resolution_arc": 11,
    "curve.refinement_intervals": 6,
    "export.write_json": 2,
    # perfbench's tracer binds it by its name, as a string
    "cantor.IntervalSet.translate": 1,
    "curve.SupportFn.reconstruct": 2,
    "curve.ConvexCurve.total_turning": 2,
    "hinge.SmoothingResult.certificate": 2,
    "curve.SupportFn.from_polygon": 11,
    "curve.SupportFn.disk": 5,
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


def _references(text):
    """Names read in ``text``, leaving out each definition's reads of its own name.

    A top-level function or class may read its own name, and so may a
    method inside its own body: neither read is a caller.
    """
    refs = set()

    def add(node, own):
        for n in ast.walk(node):
            name = n.id if isinstance(n, ast.Name) else getattr(n, "attr", None)
            if name is not None and name not in own and isinstance(n.ctx, ast.Load):
                refs.add(name)

    for stmt in ast.parse(text).body:
        own = {getattr(stmt, "name", None)}
        if isinstance(stmt, ast.ClassDef):
            for part in stmt.decorator_list + stmt.bases + stmt.keywords:
                add(part, own)
            for member in stmt.body:
                add(member, own | {getattr(member, "name", None)})
        else:
            add(stmt, own)
    return refs


def _public_names(module, text):
    """Each public name that ``text`` defines, keyed ``module.name``, mapped to the name a caller reads.

    The public names are those of the literal ``__all__``, and the methods
    and properties of the exported classes whose names do not start with
    ``_``; dataclass fields are not among them.
    """
    tree = ast.parse(text)
    exported = [
        name
        for stmt in tree.body
        if isinstance(stmt, ast.Assign) and [getattr(t, "id", None) for t in stmt.targets] == ["__all__"]
        for name in ast.literal_eval(stmt.value)
    ]
    public = {f"{module}.{name}": name for name in exported}
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and cls.name in exported:
            for member in cls.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    public[f"{module}.{cls.name}.{member.name}"] = member.name
    return public


def _caller_guard(defining, reading, kept):
    """``(uncalled, kept_but_read)``: public names of ``defining`` that no text of ``reading`` reads and
    that ``kept`` does not list, and names that ``kept`` lists although a text reads them.

    ``defining`` maps a module name to its source text.  A name counts as read
    when any text of ``reading`` loads it as a name or an attribute.
    """
    refs = set().union(*map(_references, reading))
    public = {key: name for module, text in defining.items() for key, name in _public_names(module, text).items()}
    uncalled = {key for key, name in public.items() if name not in refs}
    return sorted(uncalled - kept.keys()), sorted(kept.keys() - uncalled)


def test_every_public_name_has_a_caller():
    src = REPO / "src" / "minklab"
    files = sorted(src.glob("*.py")) + sorted((REPO / "perfbench").glob("*.py"))
    defining = {name: (src / f"{name}.py").read_text(encoding="utf-8") for name in MODULES}
    reading = [p.read_text(encoding="utf-8") for p in files]
    uncalled, kept_but_read = _caller_guard(defining, reading, KEPT_FOR_OPEN_ITEMS)
    assert uncalled == [], "public names that only tests call"
    assert kept_but_read == [], "kept names that now have a caller"


def test_the_caller_guard_reports_an_uncalled_method_and_a_kept_name_with_a_reader():
    defining = {
        "shapes": (
            '__all__ = ["Square", "area"]\n'
            "class Square:\n"
            "    def side(self):\n"
            "        return self.side()\n"
            "    @property\n"
            "    def width(self):\n"
            "        return 1.0\n"
            "    def _scale(self):\n"
            "        return 2.0\n"
            "def area(s):\n"
            "    return s.width ** 2\n"
        )
    }
    reading = [defining["shapes"], "from shapes import Square, area\nprint(area(Square()))\n"]
    # side reads only itself, width is read by area, and area is read by
    # the second text although it is kept
    kept = {"shapes.area": 0}
    assert _caller_guard(defining, reading, kept) == (["shapes.Square.side"], ["shapes.area"])
    assert _caller_guard(defining, reading[:1], kept) == (["shapes.Square", "shapes.Square.side"], [])


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
