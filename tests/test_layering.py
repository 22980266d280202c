"""Modules of ``fdsim`` use one another only through public names.

A leading underscore marks a name as private to its module.  This walks
every module of the package and fails on an import of such a name from
another ``fdsim`` module, relative (``from .i2s import _x``) or absolute
(``from fdsim.i2s import _x``).
"""

import ast
from pathlib import Path

import fdsim

PACKAGE = Path(fdsim.__file__).resolve().parent


def private_imports(source: str) -> list[str]:
    """``module.name`` of each underscore name imported from an fdsim module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "fdsim":
            continue
        found += [f"{module}.{alias.name}" for alias in node.names
                  if alias.name.startswith("_")]
    return found


def test_finds_private_imports():
    assert private_imports("from .i2s import Timeline, _sampled\n") == ["i2s._sampled"]
    assert private_imports("from fdsim.fft import _program\n") == ["fdsim.fft._program"]
    assert private_imports("from __future__ import annotations\n"
                           "from numpy import _core\n") == []


def test_no_module_imports_a_private_name():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = {path.name: private_imports(path.read_text()) for path in modules}
    assert {name: names for name, names in found.items() if names} == {}
