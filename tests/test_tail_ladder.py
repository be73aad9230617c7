"""scripts/tail_ladder.py, the stationary-tail gate's burn-in ladder, run
at a tiny size so that changes to the integrator it drives cannot break it
unseen."""

import argparse
import importlib.util
import math
import tracemalloc
from pathlib import Path

import pytest

SCRIPT = Path(__file__).parents[1] / "scripts" / "tail_ladder.py"


def _load():
    spec = importlib.util.spec_from_file_location("tail_ladder", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tiny_run_gives_a_finite_hill_index_and_shares():
    module, args = _load(), argparse.Namespace(paths=1024, snapshots=100,
                                               gap=0.005)
    module.run(0.05, 0.005, args)    # imports and first-call allocations
    tracemalloc.start()
    try:
        hill, halved, clipped = module.run(0.05, 0.005, args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(hill.index)
    assert 0.0 <= halved <= 1.0 and 0.0 <= clipped <= 1.0
    # the energies are pooled once: 1024 paths x 100 snapshots x 8 bytes
    assert peak <= 1.5 * 1024 * 100 * 8


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        _load().main(["--help"])
    assert exc.value.code == 0
    assert "--burn-ins" in capsys.readouterr().out
