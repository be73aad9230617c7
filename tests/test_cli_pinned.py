"""Pinned outputs of the run layer.

The resolved defaults of every command and the bytes each command writes at
a tiny config and a fixed seed.  A deliberate change to a default, to a
config key or to an output format moves these, and that change replaces
them.
"""

import hashlib
import json

import pytest

from duobath.cli import COMMANDS, main
from duobath.config import manifest, parse_config_text

MODEL = {
    "model.alpha": 1.0, "model.gamma": 1.0, "model.t_cold": 1.0,
    "model.t_hot": 0.3, "model.k": 2.0, "model.smoothing": "pure-power",
}
CHAIN = {
    **MODEL,
    "integrator.dt": 0.005, "integrator.t_end": 10.0,
    "integrator.substep_cap": 100.0, "integrator.max_halvings": 10,
    "ensemble.n_paths": 512, "ensemble.x0": [1.0, -1.0, 0.5, 0.5],
}
DEFAULTS = {
    "constants": MODEL,
    "phase-diagram": {
        **MODEL,
        "grid.k_values": [0.4, 0.75, 1.0, 1.2, 1.5, 1.9999, 2.0, 2.0001,
                          3.0],
        "grid.t_hot_values": [],
    },
    "simulate": {**CHAIN, "integrator.record_stride": 10,
                 "observables.names": "H,p0_sq,p1_sq", "samples.dump": False},
    "tails": {**CHAIN, "tails.top_fraction": 0.01, "tails.burn_in": 0.5,
              "tails.thin_stride": 5},
    "convergence": {**CHAIN, "convergence.binning": 4,
                    "convergence.burn_in": 40.0, "convergence.n_times": 24,
                    "convergence.noise_floor_factor": 2.0},
    "verify": {"verify.preset": "positive-k2", "verify.n": 10000},
    "reduced": {
        "reduced.mode": "all", "reduced.eta": 3.0, "reduced.sigma": -1.0,
        "reduced.dt": 0.01, "reduced.t_end": 200.0,
        "reduced.n_paths": 100000, "reduced.x_max": 50.0,
        "reduced.n_grid": 400,
    },
}


def test_every_command_is_pinned():
    assert sorted(COMMANDS) == sorted(DEFAULTS)


@pytest.mark.parametrize("command", sorted(DEFAULTS))
def test_resolved_defaults_are_pinned(command):
    cfg = parse_config_text("", command)
    man = manifest(command, cfg, 0, "out")
    # as manifest.json writes it: keys sorted, tuples as lists, and an int
    # default (10) told apart from a float one (10.0)
    assert json.dumps(man["config"]) == json.dumps(DEFAULTS[command],
                                                   sort_keys=True)


TINY = {
    "constants": "",
    "phase-diagram": "grid.k_values = 0.75 1.5 2.0 3.0\n"
                     "grid.t_hot_values = 0.3 1.27\n",
    "simulate": "model.t_hot = 2.54\nintegrator.substep_cap = 10\n"
                "integrator.max_halvings = 3\nintegrator.t_end = 0.5\n"
                "integrator.record_stride = 7\nensemble.n_paths = 16\n"
                "observables.names = H,Hf1,Hf0,p0_sq,p1_sq\n"
                "samples.dump = true\n",
    "tails": "integrator.t_end = 1.0\nensemble.n_paths = 64\n"
             "tails.burn_in = 0.2\ntails.thin_stride = 3\n"
             "tails.top_fraction = 0.5\n",
    "convergence": "integrator.t_end = 0.2\nensemble.n_paths = 64\n"
                   "convergence.burn_in = 0.2\nconvergence.n_times = 4\n",
    "verify": "verify.preset = negative-k2\nverify.n = 1000\n",
    "reduced": "reduced.n_paths = 500\nreduced.t_end = 5.0\n"
               "reduced.n_grid = 50\n",
}

# SHA-256 of each file a command writes at its TINY config and seed 5;
# manifest.json is hashed without its "out" path and its library versions
PINNED = {
    "constants": {
        "manifest.json":
            "efb8d8cfc83bbab58bf1071b247bb6e2bdeb1e5c0c3dee560ee7c67601997545",
        "report.json":
            "3b7e7bd35f368bb50087b2d162d43c06bb042a2472bb913ce6c989557d1150b6",
    },
    "convergence": {
        "manifest.json":
            "2aa150c15848a8843641e44cd1da169450ffb77c1fe6d510b9a8bb2f43cee682",
        "report.json":
            "28e3445acc21f1d996ee6120f004ac1dc3591f0f2313eaf209dcaaf7e2993fb3",
        "tv_series.csv":
            "5c18cab1d9ab27af96b4a3495f1c61599bc4ea19a8fecafa640694ed5a130200",
    },
    "phase-diagram": {
        "manifest.json":
            "69a0d4c429cf0c63b95bb128dccaac497375ef1f128ede14ce3f64862991d2a8",
        "phase_diagram.csv":
            "40edd43671c7b0a8f402683345bbf4c386b21eb0043c9012d4bb0b966f91e156",
    },
    "reduced": {
        "density.csv":
            "c6060cf11df84d004e0a24f418431f7c7ce7d8549367e783fb584dcae5793932",
        "manifest.json":
            "aa1161d3c8f19ee35e9f7736d9b7f6fcd3d6e81a48d4994bca7413067bc9612d",
        "reduced_ccdf.csv":
            "34bfbbaa65025c411794c61b90e1c9d7526379d788cd7e92dc477a8bc2566213",
        "report.json":
            "cd42c7f539d94ffe7d46b98a07747e112a97d611479e57f0525d36807fbf11cd",
    },
    "simulate": {
        "manifest.json":
            "d2093d070dc07e6259d0c3e3222afd8d94187144aaf7b0364aae90aa16f7eeef",
        "samples.csv":
            "1931eb966bb7c9942c38ac555cc3b2922b2cf1d90e2ef442eb4c2833d2c5daa3",
        "stats.csv":
            "3319bab720b4b700d1ea3b6eaf2e7a5f7cd617e9604a9ee0756c379bf5136894",
    },
    "tails": {
        "ccdf.csv":
            "7e22670349735ff414344cc7467f2aac8d80ff461e48b8a0917c1a7238ab722a",
        "manifest.json":
            "55b7b564b22074dfe2363c3089062769368606bb2c57a6e77c9ef345d59ea745",
        "report.json":
            "3b738649822b5c827e99c507e960150b81d9197c446f72f0226ad3969e909545",
    },
    "verify": {
        "manifest.json":
            "1e49aa53a21b88fc0d289448ce6e38033d24a94f4f92970100782ad2da399e44",
        "report.json":
            "f6cb7d4bf4a0bf2fa836f4396da69f9eba946aa4203407e5bffb08479b37dc1e",
    },
}


# the commands that print their report.json (verify prints its verdicts)
PRINTS_REPORT = ("constants", "convergence", "reduced", "tails")


def _digest(path):
    data = path.read_bytes()
    if path.name == "manifest.json":
        man = json.loads(data)
        man["out"] = "OUT"
        del man["versions"]
        data = json.dumps(man, indent=2, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("command", sorted(TINY))
def test_outputs_are_pinned(command, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY[command])
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg), "--out", str(out),
                 "--seed", "5"])
    assert code == 0
    digests = {p.name: _digest(p) for p in sorted(out.iterdir())}
    assert digests == PINNED[command]
    report = out / "report.json"
    if command in PRINTS_REPORT:
        assert capsys.readouterr().out == report.read_text()


def test_verify_reports_the_level_set_size(tmp_path):
    # verify.n = 1000 is below the two-function floor of 2000 states
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY["verify"])
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out),
                 "--seed", "5"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["samples_per_level_set"] == 2000
