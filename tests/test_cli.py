import csv
import hashlib
import io
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from duobath import oscillator as osc
from duobath import reduced as rd
from duobath import simulate as sim
from duobath.cli import CCDF_POINTS, _ccdf_rows, main
from duobath.config import DOMAINS, SCHEMAS, ConfigError, parse_config_text


def run(tmp_path, command, cfg_text="", extra=()):
    out = tmp_path / "out"
    args = [command, "--out", str(out)]
    if cfg_text:
        tmp_path.mkdir(parents=True, exist_ok=True)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(cfg_text)
        args += ["--config", str(cfg)]
    args += list(extra)
    code = main(args)
    return code, out


class TestConfigParsing:
    def test_defaults_complete(self):
        cfg = parse_config_text("", "constants")
        assert cfg["model.alpha"] == 1.0

    def test_comments_and_blank_lines(self):
        cfg = parse_config_text("# c\n\nmodel.alpha = 2.5 # inline\n",
                                "constants")
        assert cfg["model.alpha"] == 2.5

    @pytest.mark.parametrize("bad", [
        "model.alpha 1.0",                 # no equals
        "bogus.key = 1",                   # unknown key
        "model.alpha = not_a_number",      # bad float
        "integrator.dt = 0.01",            # key from another command
        "model.alpha = ",                  # empty value
    ])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ConfigError):
            parse_config_text(bad, "constants")

    def test_bool_and_float_lists(self):
        cfg = parse_config_text(
            "samples.dump = true\nensemble.x0 = 1, 2, 3, 4\n", "simulate")
        assert cfg["samples.dump"] is True
        assert cfg["ensemble.x0"] == (1.0, 2.0, 3.0, 4.0)

    def test_a_key_takes_the_type_of_its_default(self):
        cfg = parse_config_text("integrator.t_end = 1\n"
                                "integrator.max_halvings = 3\n"
                                "samples.dump = 1\n", "simulate")
        assert type(cfg["integrator.t_end"]) is float
        assert type(cfg["integrator.max_halvings"]) is int
        assert cfg["samples.dump"] is True
        with pytest.raises(ConfigError, match="integrator.record_stride"):
            parse_config_text("integrator.record_stride = 2.5", "simulate")

    @pytest.mark.parametrize("command", ["tails", "convergence"])
    def test_record_stride_is_unknown_without_a_series(self, command):
        with pytest.raises(ConfigError, match="unknown key 'integrator.rec"):
            parse_config_text("integrator.record_stride = 7", command)

    def test_every_domain_bounds_a_schema_key_and_holds_its_default(self):
        # a misspelt key would never be checked, and a default outside its
        # domain would break "defaults are complete"
        defaults = {key: value for schema in SCHEMAS.values()
                    for key, value in schema.items()}
        for key, (test, _) in DOMAINS.items():
            assert key in defaults and test(defaults[key]), key


class TestExitCodes:
    def test_constants_ok(self, tmp_path, capsys):
        code, out = run(tmp_path, "constants")
        assert code == 0
        rep = json.loads((out / "report.json").read_text())
        assert abs(rep["c_hat"] - 0.6354699) < 1e-6
        assert abs(rep["zeta_star"] - 0.8386748) < 1e-6

    def test_threads_flag_is_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "constants", extra=["--threads", "2"])
        assert exc.value.code == 2

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_diverging_tails_run_is_exit_1_naming_time_and_path(
            self, tmp_path, capsys):
        code, out = run(tmp_path, "tails",
                        "model.k = 3\nmodel.t_hot = 20\n"
                        "integrator.dt = 0.2\nintegrator.max_halvings = 0\n"
                        "integrator.t_end = 4\nensemble.n_paths = 64\n"
                        "tails.burn_in = 0\ntails.thin_stride = 1\n"
                        # 1024 of the 1280 pooled energies: a valid tail
                        "tails.top_fraction = 0.8\n")
        err = capsys.readouterr().err
        assert code == 1
        assert "non-finite state in ensemble at t=" in err and "path " in err
        assert not (out / "report.json").exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_diverging_reduced_run_is_exit_1_naming_time_and_path(
            self, tmp_path, capsys):
        # a drift of -2 X^3 overshoots at dt = 0.1 and the reflection feeds
        # the overshoot back, so X leaves the floats within a few steps
        code, out = run(tmp_path, "reduced",
                        "reduced.eta = 2\nreduced.sigma = 3\n"
                        "reduced.dt = 0.1\nreduced.t_end = 20\n"
                        "reduced.n_paths = 1000\nreduced.mode = simulate\n")
        err = capsys.readouterr().err
        assert code == 1
        assert "non-finite state in ensemble at t=" in err and "path " in err
        assert not (out / "report.json").exists()

    def test_bad_config_is_exit_1(self, tmp_path):
        code, _ = run(tmp_path, "constants", "nope.key = 2\n")
        assert code == 1

    @pytest.mark.parametrize("command, cfg, prefix", [
        ("constants", "model.alpha = -1.0",
         "configuration error: alpha must be strictly positive"),
        ("constants", "model.k = nan", "configuration error: k must be finite"),
        ("constants", "model.k = inf", "configuration error: k must be finite"),
        ("phase-diagram", "grid.k_values = nan",
         "configuration error: grid.k_values = (nan,) is not finite"),
        ("phase-diagram", "grid.t_hot_values = -1",
         "configuration error: grid.t_hot_values = (-1.0,) is not finite"),
        ("phase-diagram", "grid.t_hot_values = nan",
         "configuration error: grid.t_hot_values = (nan,) is not finite"),
        # a two-function preset runs at least 2000 states a level set, so
        # a verify.n below the floor must not pass unnoticed there either
        ("verify", "verify.preset = negative-k2\nverify.n = 0",
         "configuration error: verify.n = 0 is not at least 1000"),
        ("verify", "verify.n = 999",
         "configuration error: verify.n = 999 is not at least 1000"),
        ("simulate", "model.k = nan", "configuration error: k must be finite"),
        ("simulate", "model.alpha = inf",
         "configuration error: alpha must be finite"),
    ])
    def test_invalid_model_is_exit_1(self, tmp_path, capsys, monkeypatch,
                                     command, cfg, prefix):
        def ran(*args, **kwargs):
            raise AssertionError("the ensemble was run")
        monkeypatch.setattr(sim, "run_paths", ran)
        code, out = run(tmp_path, command, cfg + "\n")
        assert code == 1
        assert capsys.readouterr().err.startswith(prefix)
        assert [p.name for p in out.iterdir()] == ["manifest.json"]

    def test_sabotaged_verify_is_exit_2(self, tmp_path, capsys):
        code, out = run(tmp_path, "verify", "verify.n = 2000\n",
                        extra=["--preset", "negative-k2-sabotaged"])
        assert code == 2
        rep = json.loads((out / "report.json").read_text())
        assert rep["passed"] is False

    def test_positive_preset_is_exit_0_with_margins_csv(self, tmp_path):
        code, out = run(tmp_path, "verify", "verify.n = 2000\n",
                        extra=["--preset", "positive-k2"])
        assert code == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["stabilized"] and rep["final_verdict"]
        lines = (out / "margins.csv").read_text().splitlines()
        assert lines[0].startswith("r_lo,r_hi,samples,violations,min")
        assert len(lines) == len(rep["shells"]) + 1

    @pytest.mark.parametrize("extra,cfg", [
        (["--preset", "bogus"], ""),
        ((), "verify.preset = bogus\n"),
    ])
    def test_unknown_preset_is_exit_1(self, tmp_path, capsys, extra, cfg):
        code, out = run(tmp_path, "verify", cfg, extra=extra)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("configuration error:") and "'bogus'" in err
        assert not (out / "report.json").exists()

    def test_preset_flag_is_echoed_in_the_manifest(self, tmp_path):
        code, out = run(tmp_path, "verify", "verify.n = 1000\n",
                        extra=["--preset", "smallk-k04"])
        man, rep = (json.loads((out / f).read_text())
                    for f in ("manifest.json", "report.json"))
        assert code == 0
        assert man["config"]["verify.preset"] == rep["preset"] == "smallk-k04"

    @pytest.mark.parametrize("command", ["constants", "tails", "reduced"])
    def test_preset_flag_of_another_command_is_exit_1(self, tmp_path, capsys,
                                                      command):
        code, out = run(tmp_path, command, extra=["--preset", "bogus"])
        assert (code, capsys.readouterr().err) == (1, "configuration error: "
            f"--preset is an option of verify, not of {command}\n")
        assert not out.exists()

    def test_unknown_reduced_mode_is_exit_1(self, tmp_path, capsys):
        code, out = run(tmp_path, "reduced", "reduced.mode = densty\n")
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("configuration error:") and "densty" in err
        assert not (out / "report.json").exists()

    def test_reduced_eta_0_is_a_configuration_error(self, tmp_path, capsys):
        code, out = run(tmp_path, "reduced", "reduced.eta = 0\n")
        assert code == 1
        assert capsys.readouterr().err \
            == "configuration error: eta must be nonzero\n"
        assert [p.name for p in out.iterdir()] == ["manifest.json"]

    @pytest.mark.parametrize("key, value", [
        ("eta", "nan"), ("eta", "-inf"), ("sigma", "inf"), ("sigma", "nan"),
    ])
    def test_non_finite_reduced_params_are_a_configuration_error(
            self, tmp_path, capsys, key, value):
        # a NaN eta or sigma would write a NaN density and normalization
        code, out = run(tmp_path, "reduced", f"reduced.{key} = {value}\n")
        assert code == 1
        assert capsys.readouterr().err \
            == f"configuration error: {key} must be finite\n"
        assert [p.name for p in out.iterdir()] == ["manifest.json"]

    @pytest.mark.parametrize("command, key, value", [
        # the density grid runs from 1 to reduced.x_max
        ("reduced", "reduced.x_max", 0.0),
        ("reduced", "reduced.x_max", 1.0),
        ("reduced", "reduced.x_max", math.nan),
        ("reduced", "reduced.x_max", math.inf),
        # no TV value compares above a NaN floor
        ("convergence", "convergence.noise_floor_factor", math.nan),
        ("convergence", "convergence.noise_floor_factor", math.inf),
        ("convergence", "convergence.noise_floor_factor", -1.0),
    ])
    def test_bound_outside_its_range_is_a_configuration_error(
            self, tmp_path, capsys, monkeypatch, command, key, value):
        def ran(*args, **kwargs):
            raise AssertionError("the ensemble was run")
        monkeypatch.setattr(sim, "run_paths", ran)
        monkeypatch.setattr(rd, "run_reduced", ran)
        code, out = run(tmp_path, command, f"{key} = {value}\n")
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"configuration error: {key} = {value} ")
        assert [p.name for p in out.iterdir()] == ["manifest.json"]

    def test_tails_runs_at_its_defaults(self, tmp_path):
        # "defaults are complete": the default ensemble keeps enough tail
        # samples for the Hill estimate
        code, out = run(tmp_path, "tails")
        assert code == 0
        assert (out / "report.json").exists()

    @pytest.mark.parametrize("command", ["simulate", "tails", "convergence"])
    @pytest.mark.parametrize("cfg, named", [
        ("ensemble.x0 = 1 2 3\n", "ensemble.x0 = (1.0, 2.0, 3.0) is not "),
        ("ensemble.n_paths = 0\n", "ensemble.n_paths = 0 "),
        ("ensemble.n_paths = -1\n", "ensemble.n_paths = -1 "),
    ])
    def test_bad_ensemble_is_a_configuration_error(self, tmp_path, capsys,
                                                   command, cfg, named):
        code, out = run(tmp_path, command, cfg)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("configuration error:") and named in err
        assert "Traceback" not in err
        assert [p.name for p in out.iterdir()] == ["manifest.json"]

    @pytest.mark.parametrize("command, key_value", [
        ("tails", "tails.thin_stride = 0"),
        ("tails", "tails.thin_stride = -2"),
        ("convergence", "convergence.binning = 0"),
        ("convergence", "convergence.binning = -3"),
        ("reduced", "reduced.n_paths = 0"),
        ("reduced", "reduced.n_grid = 0"),
    ])
    def test_size_below_1_is_a_configuration_error(
            self, tmp_path, capsys, monkeypatch, command, key_value):
        def ran(*args, **kwargs):
            raise AssertionError("the ensemble was run")
        monkeypatch.setattr(sim, "run_paths", ran)
        monkeypatch.setattr(rd, "run_reduced", ran)
        code, out = run(tmp_path, command, key_value + "\n")
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"configuration error: {key_value} ")
        assert [p.name for p in out.iterdir()] == ["manifest.json"]

    @pytest.mark.parametrize("burn_in",
                             [1.0, 0.9999, -0.1, math.inf, math.nan])
    def test_burn_in_leaving_no_step_is_a_configuration_error(
            self, tmp_path, capsys, burn_in):
        code, out = run(tmp_path, "tails", "integrator.t_end = 0.1\n"
                        f"ensemble.n_paths = 8\ntails.burn_in = {burn_in}\n")
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("configuration error:")
        assert f"tails.burn_in = {burn_in} " in err
        assert [p.name for p in out.iterdir()] == ["manifest.json"]

    @pytest.mark.parametrize("top", [0.001, 1.0, math.nan])
    def test_tail_size_is_checked_before_the_first_step(
            self, tmp_path, capsys, monkeypatch, top):
        # at the defaults 512 x 200 energies are pooled: 0.001 keeps 102 of
        # them, 1.0 all of them, NaN no fraction of them, and none of the
        # three leaves a Hill estimate
        def run_paths(*args, **kwargs):
            raise AssertionError("the ensemble was run")
        monkeypatch.setattr(sim, "run_paths", run_paths)
        code, out = run(tmp_path, "tails", f"tails.top_fraction = {top}\n")
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("configuration error:")
        assert f"tails.top_fraction = {top} " in err
        assert [p.name for p in out.iterdir()] == ["manifest.json"]

    @pytest.mark.parametrize("command, cfg, prefix", [
        ("simulate", "integrator.t_end = -1", "configuration error:"),
        ("simulate", "integrator.dt = inf", "configuration error:"),
        ("simulate", "integrator.t_end = inf", "configuration error:"),
        ("simulate", "integrator.dt = nan", "configuration error:"),
        ("simulate", "integrator.t_end = nan", "configuration error:"),
        # t_end / dt overflows to inf
        ("simulate", "integrator.dt = 1e-320", "configuration error:"),
        ("tails", "integrator.dt = 1e-320", "configuration error:"),
        ("convergence", "integrator.dt = 1e-320", "configuration error:"),
        ("convergence", "convergence.burn_in = -1",
         "configuration error: convergence.burn_in = -1.0:"),
        ("reduced", "reduced.t_end = -5", "configuration error: reduced."),
        ("reduced", "reduced.t_end = inf", "configuration error: reduced."),
        ("reduced", "reduced.dt = 1e-320", "configuration error: reduced."),
    ])
    def test_run_length_outside_its_range_is_exit_1(
            self, tmp_path, capsys, monkeypatch, command, cfg, prefix):
        # dt lies in (0, inf), a time span in [0, inf) and span / dt below
        # 2**56 steps, for the chain and for the surrogate, checked before
        # the first step
        def ran(*args, **kwargs):
            raise AssertionError("the ensemble was run")
        monkeypatch.setattr(sim, "run_paths", ran)
        monkeypatch.setattr(rd, "run_reduced", ran)
        code, out = run(tmp_path, command, cfg + "\n")
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(prefix) and "Traceback" not in err
        assert [p.name for p in out.iterdir()] == ["manifest.json"]

    def test_integrator_scheme_key_is_exit_1(self, tmp_path, capsys):
        # Strang splitting is the only scheme; even its old name is rejected
        code, out = run(tmp_path, "simulate",
                        "integrator.scheme = strang_split\n")
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("configuration error:")
        assert "'integrator.scheme'" in err
        assert not (out / "stats.csv").exists()


class TestArtifacts:
    def test_manifest_written_and_echoes_config(self, tmp_path):
        code, out = run(tmp_path, "constants", "model.t_hot = 0.4\n",
                        extra=["--seed", "7"])
        assert code == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man["command"] == "constants"
        assert man["config"]["model.t_hot"] == 0.4
        assert man["seed"] == 7
        assert "numpy" in man["versions"]
        assert "threads" not in man

    def test_phase_diagram_regimes_and_roundtrip(self, tmp_path, capsys):
        from duobath.oscillator import c_hat
        ch = c_hat()
        cfg = (f"grid.k_values = 0.4 0.75 1.0 1.2 1.5 2.0 3.0 -1\n"
               f"grid.t_hot_values = 0.3 {2 * ch} {ch}\n")
        code, out = run(tmp_path, "phase-diagram", cfg)
        assert code == 0
        lines = (out / "phase_diagram.csv").read_text().splitlines()
        assert lines[0] == "k,t_hot,regime,integrability,speed,prefactor"
        regimes = {ln.split(",")[2] for ln in lines[1:]}
        assert {"k<=0", "0<k<=1/2", "1/2<=k<1", "k=1", "1<k<=4/3",
                "4/3<=k<2", "k=2-sub", "k=2-super", "k=2-critical",
                "k>2"} <= regimes
        # csv floats round-trip
        k_back = float(lines[1].split(",")[0])
        assert k_back == 0.4
        # k = 0, the logarithmic potential, has no row
        code, out = run(tmp_path / "k0", "phase-diagram",
                        "grid.k_values = -1 0 2\n")
        assert code == 1
        assert capsys.readouterr().err \
            == ("configuration error: grid.k_values = (-1.0, 0.0, 2.0) is "
                "not finite and free of k = 0 (the logarithmic potential)\n")
        assert not (out / "phase_diagram.csv").exists()

    def test_config_from_stdin(self, tmp_path, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("grid.k_values = 2.0\n"))
        code, out = run(tmp_path, "phase-diagram", extra=["--config", "-"])
        assert code == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man["config"]["grid.k_values"] == [2.0]
        lines = (out / "phase_diagram.csv").read_text().splitlines()
        assert len(lines) == 2 and lines[1].startswith("2.0,")

    def test_simulate_outputs_bit_identical_rerun(self, tmp_path):
        cfg = "integrator.t_end = 1.0\nensemble.n_paths = 32\n"
        hashes = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            c = tmp_path / f"{sub}.cfg"
            c.write_text(cfg)
            code = main(["simulate", "--config", str(c), "--out", str(out),
                         "--seed", "5"])
            assert code == 0
            hashes.append(hashlib.sha256(
                (out / "stats.csv").read_bytes()).hexdigest())
        assert hashes[0] == hashes[1]

    def test_samples_dump_gated(self, tmp_path):
        cfg = ("integrator.t_end = 0.5\nensemble.n_paths = 16\n"
               "samples.dump = true\n")
        code, out = run(tmp_path, "simulate", cfg)
        assert code == 0
        assert (out / "samples.csv").exists()
        cfg2 = "integrator.t_end = 0.5\nensemble.n_paths = 16\n"
        code, out2 = run(tmp_path / "second", "simulate", cfg2)
        assert not (out2 / "samples.csv").exists()

    @pytest.mark.parametrize("k, smoothing", [(2.0, "pure-power"),
                                              (0.75, "regularized")])
    def test_hf0_is_corrected_by_phi_for_k_in_1_2(self, tmp_path, k,
                                                   smoothing):
        # the last Hf0 mean is the free energy of the damped oscillator over
        # the dumped final states, in p0 - alpha phi(p1, q1) at k = 2 and
        # in p0 at k = 0.75
        cfg = (f"model.k = {k}\nmodel.smoothing = {smoothing}\n"
               "integrator.t_end = 0.5\nensemble.n_paths = 64\n"
               "observables.names = Hf0\nsamples.dump = true\n")
        code, out = run(tmp_path, "simulate", cfg)
        assert code == 0
        with open(out / "stats.csv") as fh:
            last = list(csv.DictReader(fh))[-1]
        assert (last["observable"], float(last["t"])) == ("Hf0", 0.5)
        q0, q1, p0, p1 = np.loadtxt(out / "samples.csv", delimiter=",",
                                    skiprows=1).T
        if k == 2.0:
            phi = osc.build_phi(k)
            p0 = p0 - 1.0 * phi.value(phi.orbit.lookup(p1, q1))
        hf0 = p0 ** 2 / 2 + np.abs(q0) ** (2 * k) / (2 * k)
        assert float(last["mean"]) == pytest.approx(hf0.mean(), rel=1e-12)

    @pytest.mark.parametrize("k, noted", [(3.0, True), (2.0, False)])
    def test_uncorrected_hf0_is_noted_on_stderr(self, tmp_path, capsys, k,
                                                noted):
        cfg = (f"model.k = {k}\nintegrator.t_end = 0.05\n"
               "ensemble.n_paths = 8\nobservables.names = H,Hf0\n")
        code, _ = run(tmp_path, "simulate", cfg)
        assert code == 0
        err = capsys.readouterr().err
        note = (f"note: at k = {k:g} Hf0 is the uncorrected free energy "
                "p0^2/2 + |q0|^(2k)/(2k); the phi correction exists for "
                "1 < k <= 2 only\n")
        assert err == (note if noted else "")

    def test_ccdf_keeps_inf_and_drops_nan_and_non_positive_values(self):
        rng = np.random.default_rng(4)
        x = np.concatenate([rng.exponential(size=5000), [np.inf] * 3,
                            [np.nan] * 4, [0.0, -0.0, -np.inf, -2.0]])
        x = rng.permutation(x)
        s = np.sort(x)
        s = s[s > 0]
        idx = np.unique(np.geomspace(1, len(s), CCDF_POINTS).astype(int)) - 1
        want = [[s[i], 1.0 - (i + 1) / len(s)] for i in idx]
        got = _ccdf_rows(np.sort(x))
        assert got == want
        assert got[-1] == [np.inf, 0.0]

    def test_tails_holds_its_pool_once(self, tmp_path):
        cfg = ("integrator.t_end = 2.0\ntails.burn_in = 0.2\n"
               "tails.thin_stride = 1\n")
        assert run(tmp_path / "warm", "tails", cfg)[0] == 0   # imports
        pool_bytes = 512 * 320 * 8    # paths x kept snapshots of 400 steps
        tracemalloc.start()
        try:
            code, out = run(tmp_path / "traced", "tails", cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["n_samples"] * 8 == pool_bytes
        assert peak <= 1.5 * pool_bytes

    def test_reduced_reports(self, tmp_path):
        cfg = ("reduced.eta = 3.0\nreduced.sigma = -1.0\n"
               "reduced.n_paths = 500\nreduced.t_end = 5.0\n")
        code, out = run(tmp_path, "reduced", cfg, extra=["--seed", "1"])
        assert code == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["rate_row"]["regime_id"] == "sigma=-1,eta>1"
        assert (out / "density.csv").exists()
        assert (out / "reduced_ccdf.csv").exists()

    def test_reduced_no_measure_reported(self, tmp_path):
        cfg = ("reduced.eta = 1.0\nreduced.sigma = -1.0\n"
               "reduced.mode = density\n")
        code, out = run(tmp_path, "reduced", cfg)
        assert code == 0
        rep = json.loads((out / "report.json").read_text())
        assert "no invariant measure" in rep["density"]


class TestConvergence:
    def test_reference_runs_keep_max_halvings(self, tmp_path, monkeypatch):
        from duobath import simulate as sim
        seen = []
        real = sim.simulate_ensemble

        def spy(x0, cfg, *args, **kw):
            seen.append(cfg)
            return real(x0, cfg, *args, **kw)

        monkeypatch.setattr(sim, "simulate_ensemble", spy)
        code, _ = run(tmp_path, "convergence",
                      "integrator.max_halvings = 3\n"
                      "integrator.substep_cap = 20\n"
                      "integrator.t_end = 0.2\n"
                      "ensemble.n_paths = 64\n"
                      "convergence.burn_in = 0.2\n"
                      "convergence.n_times = 2\n")
        assert code == 0
        assert len(seen) == 2
        assert all(c.max_halvings == 3 and c.substep_cap == 20 for c in seen)

    def test_fewer_steps_than_points_is_exit_1(self, tmp_path, capsys):
        code, out = run(tmp_path, "convergence",
                        "integrator.dt = 0.01\nintegrator.t_end = 0.1\n"
                        "convergence.n_times = 24\n")
        assert code == 1
        assert "convergence.n_times" in capsys.readouterr().err
        assert not (out / "tv_series.csv").exists()

    @pytest.mark.parametrize("n_times", [3, 6])
    def test_last_point_is_at_t_end(self, tmp_path, n_times):
        code, out = run(tmp_path, "convergence",
                        "integrator.dt = 0.01\nintegrator.t_end = 1.0\n"
                        "ensemble.n_paths = 64\nconvergence.burn_in = 0.2\n"
                        f"convergence.n_times = {n_times}\n")
        assert code == 0
        rows = (out / "tv_series.csv").read_text().splitlines()[1:]
        ts = [float(r.split(",")[0]) for r in rows]
        assert len(ts) == n_times
        assert ts[-1] == 1.0
        assert all(b > a for a, b in zip(ts, ts[1:]))
