"""Package-level checks: every declared export resolves, every public name has a caller, every private function has a reader, no module loads SciPy, and no module imports a name it never reads."""

import ast
import collections
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
    # the run report checks the support data it writes
    "curve.SupportFn.validate": 2,
}
# Public names that two or more exported classes define.  A read of such a
# name does not say whose method it calls, so it counts for no class by
# itself: each class whose method has a caller is listed here with one
# definition (``module:function`` or ``module:Class.method``) that reads it.
SHARED_NAME_READERS = {
    "curve.ConvexCurve.validate": "curve:assemble_curve",
    "curve.GaussZeroSet.validate": "curve:assemble_curve",
    # the inputs of the minimizer map include polynomials
    "fn_core.SmoothFn.slope_rows": "infconv:_minimizer",
    # the smoothings' F
    "fn_core.GridIntegratedFn.slope_rows": "curve:CurveAtlas.support_data",
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


def _loads(node):
    """Names that ``node`` reads, as a name or as an attribute."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    }


def _references(text):
    """Names read in ``text``, leaving out each definition's reads of its own name.

    A top-level function or class may read its own name, and so may a
    method inside its own body: neither read is a caller.
    """
    refs = set()
    for stmt in ast.parse(text).body:
        own = {getattr(stmt, "name", None)}
        if isinstance(stmt, ast.ClassDef):
            for part in stmt.decorator_list + stmt.bases + stmt.keywords:
                refs |= _loads(part) - own
            for member in stmt.body:
                refs |= _loads(member) - own - {getattr(member, "name", None)}
        else:
            refs |= _loads(stmt) - own
    return refs


def _definition(texts, where):
    """The function, class or method ``module:name`` or ``module:Class.name`` of ``texts``, or None."""
    module, _, path = where.partition(":")
    node = None
    body = ast.parse(texts.get(module, "")).body
    for part in path.split("."):
        node = next((n for n in body if getattr(n, "name", None) == part), None)
        if node is None:
            return None
        body = getattr(node, "body", [])
    return node


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


def _caller_guard(defining, reading, kept, readers):
    """``(uncalled, kept_but_read, wrong_readers)`` of the public names of ``defining``.

    ``defining`` and ``reading`` map a module name to its source text.  A
    name that one public name alone has counts as read when any text of
    ``reading`` loads it as a name or an attribute.  A name that two or more
    public names share counts as read only for the keys that ``readers``
    lists, each with a definition in ``reading`` that loads it.
    ``uncalled`` are the unread names that ``kept`` does not list,
    ``kept_but_read`` the names ``kept`` lists although they are read, and
    ``wrong_readers`` the keys of ``readers`` that share no name or whose
    listed definition does not load it.
    """
    refs = set().union(*map(_references, reading.values()))
    public = {key: name for module, text in defining.items() for key, name in _public_names(module, text).items()}
    shared = {name for name, count in collections.Counter(public.values()).items() if count > 1}

    def read_by(key, where):
        node = _definition(reading, where)
        return public.get(key) in shared and node is not None and public[key] in _loads(node)

    wrong = {key for key, where in readers.items() if not read_by(key, where)}
    uncalled = {
        key
        for key, name in public.items()
        if ((key not in readers or key in wrong) if name in shared else name not in refs)
    }
    return sorted(uncalled - kept.keys()), sorted(kept.keys() - uncalled), sorted(wrong)


def test_every_public_name_has_a_caller():
    src = REPO / "src" / "minklab"
    files = sorted(src.glob("*.py")) + sorted((REPO / "perfbench").glob("*.py"))
    defining = {name: (src / f"{name}.py").read_text(encoding="utf-8") for name in MODULES}
    reading = {p.stem: p.read_text(encoding="utf-8") for p in files}
    assert len(reading) == len(files), "a perfbench module shares a package module's name"
    uncalled, kept_but_read, wrong = _caller_guard(defining, reading, KEPT_FOR_OPEN_ITEMS, SHARED_NAME_READERS)
    assert uncalled == [], "public names that only tests call"
    assert kept_but_read == [], "kept names that now have a caller"
    assert wrong == [], "shared names listed with a definition that does not read them"


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
    reading = {"shapes": defining["shapes"], "main": "from shapes import Square, area\nprint(area(Square()))\n"}
    # side reads only itself, width is read by area, and area is read by
    # the second text although it is kept
    kept = {"shapes.area": 0}
    assert _caller_guard(defining, reading, kept, {}) == (["shapes.Square.side"], ["shapes.area"], [])
    assert _caller_guard(defining, {"shapes": reading["shapes"]}, kept, {}) == (
        ["shapes.Square", "shapes.Square.side"],
        [],
        [],
    )


def test_the_caller_guard_counts_a_shared_name_only_for_the_listed_class():
    defining = {
        "shapes": (
            '__all__ = ["Square", "Disk", "Ring", "render"]\n'
            "class Square:\n"
            "    def draw(self):\n"
            "        return 1\n"
            "class Disk:\n"
            "    def draw(self):\n"
            "        return 2\n"
            "class Ring:\n"
            "    def draw(self):\n"
            "        return 3\n"
            "    def fill(self):\n"
            "        return 4\n"
            "def render(s):\n"
            "    return s.draw() + Square().draw() + Disk().draw() + Ring().fill()\n"
        ),
        "main": '__all__ = ["main"]\nfrom shapes import render\ndef main():\n    return render(None)\n',
    }
    reading = {**defining, "cli": "from main import main\nmain()\n"}
    # render reads draw, but only Square's is listed with it: Disk's and
    # Ring's draw are uncalled although a text reads the name
    listed = {"shapes.Square.draw": "shapes:render"}
    assert _caller_guard(defining, reading, {}, listed) == (["shapes.Disk.draw", "shapes.Ring.draw"], [], [])
    # a kept shared name is unread until it is listed
    kept = {"shapes.Disk.draw": 2, "shapes.Ring.draw": 2}
    assert _caller_guard(defining, reading, kept, listed) == ([], [], [])
    # listed with a definition that does not read it, with one that does not
    # exist, and a name that no second class defines
    wrong = {
        **listed,
        "shapes.Disk.draw": "main:main",
        "shapes.Ring.draw": "shapes:paint",
        "shapes.Ring.fill": "shapes:render",
    }
    assert _caller_guard(defining, reading, kept, wrong)[2] == ["shapes.Disk.draw", "shapes.Ring.draw", "shapes.Ring.fill"]


def _unread_private_functions(defining, reading):
    """Module-level ``_name`` functions of ``defining`` that no text of ``reading`` reads outside their own definition.

    Both map a module name to its source text; a function counts as read
    when any text loads its name as a name or an attribute.
    """
    refs = set().union(*map(_references, reading.values()))
    return sorted(
        f"{module}.{stmt.name}"
        for module, text in defining.items()
        for stmt in ast.parse(text).body
        if isinstance(stmt, ast.FunctionDef)
        and stmt.name.startswith("_")
        and not stmt.name.startswith("__")
        and stmt.name not in refs
    )


def test_every_private_function_has_a_reader():
    src = REPO / "src" / "minklab"
    files = sorted(src.glob("*.py")) + sorted((REPO / "perfbench").glob("*.py"))
    defining = {name: (src / f"{name}.py").read_text(encoding="utf-8") for name in MODULES}
    reading = {str(p.relative_to(REPO)): p.read_text(encoding="utf-8") for p in files}
    assert _unread_private_functions(defining, reading) == [], "private functions that only tests read"


def test_the_private_function_guard_reports_a_function_only_itself_or_nothing_reads():
    defining = {
        "shapes": (
            "def _area(s):\n"
            "    return _side(s) ** 2\n"
            "def _side(s):\n"
            "    return s\n"
            "def _halve(s):\n"
            "    return _halve(s / 2) if s > 1 else s\n"
            "def _unused():\n"
            "    return 0\n"
            "class Square:\n"
            "    def _scale(self):\n"
            "        return 2.0\n"
        )
    }
    # _side is read by _area, and _area by the second text; _halve reads
    # only itself; the method _scale is not module-level
    reading = {"shapes": defining["shapes"], "main": "import shapes\nprint(shapes._area(2))\n"}
    assert _unread_private_functions(defining, reading) == ["shapes._halve", "shapes._unused"]
    assert _unread_private_functions(defining, {"shapes": defining["shapes"]}) == [
        "shapes._area",
        "shapes._halve",
        "shapes._unused",
    ]


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
