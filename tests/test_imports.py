"""Every module-level import in the package is used by its module, and the
CLI's import graph leaves out the scipy packages it does not need."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import duobath

MODULES = sorted(p for p in Path(duobath.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")   # __init__ only re-exports


def _unused_imports(tree: ast.Module):
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_checker_flags_an_unused_import():
    tree = ast.parse("import json\nimport math\nfrom x import (a, b as c)\n"
                     "y = math.pi + a\n")
    assert _unused_imports(tree) == [(1, "json"), (3, "c")]


def test_cli_import_loads_no_ode_solver_or_optimizer():
    code = ("import sys, duobath.cli; print(' '.join(m for m in "
            "('scipy.integrate', 'scipy.optimize') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(Path(duobath.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.split() == []
