import hashlib
import io
import json
from pathlib import Path

import pytest

from duobath.cli import main
from duobath.config import ConfigError, parse_config_text


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
                        "tails.burn_in = 0\ntails.thin_stride = 1\n")
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

    def test_invalid_model_is_exit_1(self, tmp_path):
        code, _ = run(tmp_path, "constants", "model.alpha = -1.0\n")
        assert code == 1

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

    def test_unknown_reduced_mode_is_exit_1(self, tmp_path, capsys):
        code, out = run(tmp_path, "reduced", "reduced.mode = densty\n")
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("configuration error:") and "densty" in err
        assert not (out / "report.json").exists()

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

    def test_phase_diagram_regimes_and_roundtrip(self, tmp_path):
        from duobath.oscillator import c_hat
        ch = c_hat()
        cfg = (f"grid.k_values = 0.4 0.75 1.0 1.2 1.5 2.0 3.0\n"
               f"grid.t_hot_values = 0.3 {2 * ch} {ch}\n")
        code, out = run(tmp_path, "phase-diagram", cfg)
        assert code == 0
        lines = (out / "phase_diagram.csv").read_text().splitlines()
        assert lines[0] == "k,t_hot,regime,integrability,speed,prefactor"
        regimes = {ln.split(",")[2] for ln in lines[1:]}
        assert {"0<k<=1/2", "1/2<=k<1", "k=1", "1<k<=4/3", "4/3<=k<2",
                "k=2-sub", "k=2-super", "k=2-critical", "k>2"} <= regimes
        # csv floats round-trip
        k_back = float(lines[1].split(",")[0])
        assert k_back == 0.4

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
