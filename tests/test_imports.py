"""Every module-level import in the package is used by its module, and the
CLI loads scipy only where a command needs it: the import and the ensemble
commands load none, and each verify preset loads only its own subpackage,
first inside a table build."""

import ast
import json
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


# Runs cli.main(argv) and prints, as JSON, its exit code, the scipy modules
# loaded and the function names on the stack at the first scipy import.
_RUN_CLI = """
import contextlib, io, json, sys, traceback
first = []

class FirstScipyImport:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy" and not first:
            first.extend(f.name for f in traceback.extract_stack())
        return None

sys.meta_path.insert(0, FirstScipyImport())
from duobath import cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(sys.argv[1:])
print(json.dumps({"rc": rc, "first": first,
                  "scipy": [m for m in sys.modules if m.startswith("scipy")]}))
"""

# the calls perfbench times as set-up, and those it times as work
TABLE_BUILDS = {"build_orbit", "solve_poisson", "build_tables",
                "stationary_density"}
KERNELS = {"verify_sign", "step_ensemble", "simulate_reduced"}


def _python(args):
    env = dict(os.environ, PYTHONPATH=str(Path(duobath.__file__).parents[1]))
    return subprocess.run([sys.executable, *args], env=env, check=True,
                          capture_output=True, text=True, timeout=120).stdout


def _run_cli(tmp_path, argv, config):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    run = json.loads(_python(["-c", _RUN_CLI, *argv, "--config", str(cfg),
                              "--out", str(tmp_path / "out")]))
    assert run["rc"] == 0
    return run


def test_cli_import_loads_no_scipy():
    code = ("import sys, duobath.cli; print(' '.join(m for m in sys.modules "
            "if m.startswith('scipy')))")
    assert _python(["-c", code]).split() == []


@pytest.mark.parametrize("argv, config", [
    (["tails"], "integrator.t_end = 1.0\nensemble.n_paths = 64\n"
                "tails.burn_in = 0.2\ntails.thin_stride = 3\n"
                "tails.top_fraction = 0.5\n"),
    (["reduced"], "reduced.mode = simulate\nreduced.n_paths = 500\n"
                  "reduced.t_end = 5.0\n"),
], ids=["tails", "reduced-simulate"])
def test_ensemble_runs_load_no_scipy(tmp_path, argv, config):
    assert _run_cli(tmp_path, argv, config)["scipy"] == []


@pytest.mark.parametrize("argv, config, loads, leaves", [
    (["verify", "--preset", "positive-k2"], "verify.n = 1000\n",
     "scipy.special", "scipy.linalg"),
    (["verify", "--preset", "frac-k15"], "verify.n = 1000\n",
     "scipy.special", "scipy.linalg"),
    (["verify", "--preset", "smallk-k075"], "verify.n = 1000\n",
     "scipy.linalg", "scipy.special"),
    (["verify", "--preset", "smallk-k04"], "verify.n = 1000\n",
     "scipy.linalg", "scipy.special"),
    (["reduced"], "reduced.sigma = -0.5\nreduced.n_paths = 500\n"
                  "reduced.t_end = 5.0\nreduced.n_grid = 50\n",
     "scipy.special", "scipy.linalg"),
], ids=["positive-k2", "frac-k15", "smallk-k075", "smallk-k04", "reduced-all"])
def test_scipy_loads_first_in_a_table_build(tmp_path, argv, config, loads,
                                            leaves):
    """Each run loads only the subpackage it uses, and loads it inside a
    table build, so the import counts as set-up and never as kernel work."""
    run = _run_cli(tmp_path, argv, config)
    assert loads in run["scipy"] and leaves not in run["scipy"]
    assert TABLE_BUILDS & set(run["first"])
    assert not KERNELS & set(run["first"])
