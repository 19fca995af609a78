"""Package-level checks: every declared export resolves."""

import importlib
import pkgutil

import pytest

import minklab

MODULES = sorted(m.name for m in pkgutil.iter_modules(minklab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_export_exists(name):
    module = importlib.import_module(f"minklab.{name}")
    exported = getattr(module, "__all__", ())
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == [], f"minklab.{name}.__all__ lists undefined names {missing}"
