"""scripts/tail_ladder.py, the stationary-tail gate's burn-in ladder, run
at a tiny size so that changes to the integrator it drives cannot break it
unseen."""

import argparse
import importlib.util
import math
from pathlib import Path

import pytest

SCRIPT = Path(__file__).parents[1] / "scripts" / "tail_ladder.py"


def _load():
    spec = importlib.util.spec_from_file_location("tail_ladder", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tiny_run_gives_a_finite_hill_index_and_shares():
    hill, halved, clipped = _load().run(
        0.05, 0.005, argparse.Namespace(paths=1024, snapshots=100, gap=0.005))
    assert math.isfinite(hill.index)
    assert 0.0 <= halved <= 1.0 and 0.0 <= clipped <= 1.0


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        _load().main(["--help"])
    assert exc.value.code == 0
    assert "--burn-ins" in capsys.readouterr().out
