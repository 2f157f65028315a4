"""Packaging: the declared dependency floor covers the numpy API the package
calls, the package re-exports nothing, and every name a module exports
exists."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import cotangent_kahler

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
MODULES = sorted(info.name for info in pkgutil.iter_modules(cotangent_kahler.__path__))


def test_numpy_floor_has_vecdot_matvec_and_vecmat():
    """``np.vecdot`` needs numpy 2.0 and ``np.matvec``/``np.vecmat`` 2.2, so
    the floor in ``pyproject.toml`` is at least 2.2."""
    floor = re.search(r'"numpy>=(\d+)\.(\d+)', PYPROJECT.read_text(encoding="utf-8"))
    assert floor is not None
    assert tuple(int(part) for part in floor.groups()) >= (2, 2)


def test_package_imports_nothing():
    """Callers import each name from the module that defines it."""
    tree = ast.parse(Path(cotangent_kahler.__file__).read_text(encoding="utf-8"))
    assert not [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


@pytest.mark.parametrize("module", MODULES)
def test_every_all_entry_resolves(module):
    """``__all__`` is each module's only list of public names, so a removed
    function must not leave its entry behind."""
    namespace = importlib.import_module(f"cotangent_kahler.{module}")
    exported = getattr(namespace, "__all__", ())
    assert [name for name in exported if not hasattr(namespace, name)] == []
