"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 11 (stationary
tail exponent of the full chain) is marked slow and excluded from the default
suite; enable it with `-m slow`.
"""

import json
import time

import numpy as np
import pytest
from scipy.stats import kstest

from duobath import lyapunov as ly
from duobath import oscillator as osc
from duobath import reduced as rd
from duobath import simulate as sim
from duobath.cli import main
from duobath.model import ModelParams, State4, hamiltonian, \
    generator_of_jet, jet_hamiltonian
from duobath.presets import run_preset

CH_REF = 0.6354699


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


class TestAcceptance:
    def test_01_spectral_constant(self):
        for cached in (osc.reference_orbit, osc.build_phi, osc.build_psi,
                       osc.build_xi, osc.build_xi_tilde):
            cached.cache_clear()
        t0 = time.time()
        ch = osc.c_hat()
        elapsed = time.time() - t0
        ok = abs(ch - CH_REF) < 1e-6 and elapsed < 60.0
        _report(1, ok, f"c_hat = {ch:.9f} (|diff| = {abs(ch - CH_REF):.2e}, "
                       f"{elapsed:.2f} s)")

    def test_02_virial_constant(self):
        worst = 0.0
        for k in (1.0, 1.5, 2.0, 3.0):
            avg = np.mean(osc.reference_orbit(k).P ** 2)
            worst = max(worst, abs(avg - 2 * k / (1 + k)))
        cent = 0.0
        for E in (1.0, 16.0):
            orb = osc.build_orbit(E, 2.0)
            g = lambda P, Q: P ** 2 - (4 / 3) * (P ** 2 / 2 + Q ** 4 / 4)
            cent = max(cent, abs(np.mean(g(orb.P, orb.Q))))
        ok = worst < 1e-8 and cent < 1e-8
        _report(2, ok, f"virial dev {worst:.2e}; centred quartic combo "
                       f"{cent:.2e} (tol 1e-8)")

    def test_03_generator_exactness(self):
        p = ModelParams(alpha=1.0, gamma=1.0, t_cold=1.0, t_hot=0.3, k=2.0)
        rng = np.random.default_rng(123)
        x = State4(*(rng.normal(0, 2, 1000) for _ in range(4)))
        lh = generator_of_jet(jet_hamiltonian(x, p), x, p)
        expect = p.gamma * (p.t_cold + p.t_hot) - p.gamma * np.asarray(x.p0) ** 2
        dev = np.max(np.abs(lh - expect) / np.maximum(1.0, np.abs(expect)))
        ok = dev < 1e-12
        _report(3, ok, f"max |L H - (g(T+Ti) - g p0^2)| = {dev:.2e} "
                       f"at 1000 random states (tol 1e-12)")

    def test_04_reduced_model_stationarity(self):
        t0 = time.time()
        s = rd.sample_stationary(rd.ReducedParams(eta=3.0, sigma=-1.0),
                                 dt=0.02, burn_in=1000.0, n_paths=10_000,
                                 n_snapshots=10, snapshot_gap=100.0, seed=11)
        hill = sim.hill_estimator(s, 0.01)
        hill_ok = abs(hill.index - 2.0) <= 0.2 and s.size >= 100_000

        rp = rd.ReducedParams(eta=1.0, sigma=-0.5)
        samples = rd.simulate_reduced(rp, dt=0.01, t_end=200.0,
                                      n_paths=100_000, seed=12)
        ks = kstest(samples, rd.stationary_density(rp).cdf)
        ks_ok = ks.statistic < 0.05

        with pytest.raises(rd.NoInvariantMeasure):
            rd.stationary_density(rd.ReducedParams(eta=1.0, sigma=-1.0))
        elapsed = time.time() - t0
        ok = hill_ok and ks_ok and elapsed < 300.0
        _report(4, ok, f"Hill = {hill.index:.3f} (target 2.0 +- 0.2, "
                       f"n = {s.size}); KS = {ks.statistic:.4f} (< 0.05); "
                       f"(eta=1, sigma=-1) raises; {elapsed:.0f} s")

    def test_05_positive_verification_k2(self):
        t0 = time.time()
        rep = run_preset("positive-k2", n=10_000, seed=42)
        stable = [s for s in rep.shells if s.r_lo >= rep.stabilization_radius] \
            if rep.stabilized else []
        zero_viol = bool(stable) and all(s.violations == 0 for s in stable)
        elapsed = time.time() - t0
        ok = rep.stabilized and rep.final_verdict and zero_viol \
            and elapsed < 600.0
        _report(5, ok, f"L V < -0.01: stabilized at R = "
                       f"{rep.stabilization_radius:g}, zero violations on "
                       f"{len(stable)} stable shells x {rep.n_per_shell} "
                       f"samples; {elapsed:.0f} s")

    def test_06_wonham_negative_k2(self):
        t0 = time.time()
        rep = run_preset("negative-k2", n=8000, seed=42)
        bad = run_preset("negative-k2-sabotaged", n=8000, seed=42)
        elapsed = time.time() - t0
        ok = rep.passed and not bad.passed and elapsed < 600.0
        hyps = ", ".join("ok" if h.passed else "FAIL" for h in rep.hypotheses)
        _report(6, ok, f"four hypotheses [{hyps}]; sabotaged control fails: "
                       f"{not bad.passed}; {elapsed:.0f} s")

    def test_07_fractional_regime_k15(self):
        rep = run_preset("frac-k15", n=10_000, seed=42)
        stable = [s for s in rep.shells if s.r_lo >= rep.stabilization_radius] \
            if rep.stabilized else []
        ok = rep.stabilized and rep.final_verdict \
            and all(s.violations == 0 for s in stable)
        _report(7, ok, f"log-scale drift bound at k=1.5: stabilized at "
                       f"R = {rep.stabilization_radius:g}, zero violations")

    def test_08_small_k_machinery(self):
        from duobath import linear as ln
        rng = np.random.default_rng(99)
        det_dev, absc_max = 0.0, -np.inf
        for _ in range(100):
            a, g = rng.uniform(0.1, 5.0, 2)
            p = ModelParams(alpha=a, gamma=g, t_cold=1, t_hot=1, k=1.0)
            A = ln.build_matrices(p)
            det_dev = max(det_dev,
                          abs(np.linalg.det(A) + g * a) / max(1.0, g * a))
            absc_max = max(absc_max, ln.spectral_abscissa(A))
        p1 = ModelParams(alpha=1, gamma=1, t_cold=1, t_hot=1, k=1.0)
        A = ln.build_matrices(p1)
        gt = ln.default_gamma_tilde(A)
        gram = ln.build_gram(A, gt)
        res = np.max(np.abs(A.T @ gram.S + gram.S @ A + gt * gram.S
                            + np.eye(3)))
        import scipy.linalg as sla
        contraction_ok = True
        for t in (0.1, 1.0, 10.0):
            phi = sla.expm(A * t)
            for _ in range(100):
                y = rng.normal(size=3)
                z = phi @ y
                if z @ gram.S @ z > \
                        np.exp(-gt * t) * (y @ gram.S @ y) * (1 + 1e-10):
                    contraction_ok = False
        rep = run_preset("smallk-k075", n=10_000, seed=42)
        ok = (det_dev < 1e-12 and absc_max < 0.0 and res < 1e-10
              and contraction_ok and rep.stabilized and rep.final_verdict)
        _report(8, ok, f"det A dev {det_dev:.1e}, abscissa < 0, Gram residual "
                       f"{res:.1e}, contraction holds, k=0.75 drift verified "
                       f"(R = {rep.stabilization_radius:g})")

    def test_09_threshold_behavior(self):
        t0 = time.time()
        ch = osc.c_hat()
        cfg = sim.IntegratorConfig(dt=0.01, t_end=200.0, record_stride=100,
                                   substep_cap=50.0)
        x0 = State4(1.0, -1.0, 0.5, 0.5)
        slopes = {}
        meds = {}
        for tag, t_hot in (("sub", 0.3 * ch), ("sup", 2.0 * ch)):
            p = ModelParams(alpha=1, gamma=1, t_cold=1, t_hot=t_hot, k=2.0)
            r = sim.simulate_ensemble(x0, cfg, p, {"H": sim.obs_energy(p)},
                                      seed=2024, n_paths=512)
            med, ts = r.stats["H"]["q50"], r.times
            half = ts >= 100.0
            A = np.column_stack([np.ones(half.sum()), ts[half]])
            coef, *_ = np.linalg.lstsq(A, med[half], rcond=None)
            slopes[tag] = coef[1]
            meds[tag] = (med[half][0], med[-1])
        elapsed = time.time() - t0
        sub_ok = abs(slopes["sub"]) < 0.005
        sup_ok = slopes["sup"] > 0.03 and meds["sup"][1] > 1.2 * meds["sup"][0]
        ok = sub_ok and sup_ok and elapsed < 1800.0
        _report(9, ok, f"median-H last-half slopes: sub = {slopes['sub']:+.4f} "
                       f"(plateau), sup = {slopes['sup']:+.4f} (growth "
                       f"{meds['sup'][0]:.1f} -> {meds['sup'][1]:.1f}); "
                       f"{elapsed:.0f} s")

    def test_10_decay_family_recovery(self, tmp_path):
        t = np.linspace(0.5, 12, 40)
        f_exp = sim.fit_decay(t, np.exp(-0.7 * t))
        t2 = np.linspace(0.5, 30, 50)
        f_str = sim.fit_decay(t2, np.exp(-t2 ** 0.5))
        t3 = np.geomspace(0.5, 50, 40)
        f_pol = sim.fit_decay(t3, t3 ** -1.0)
        synth_ok = (f_exp.family == "exponential"
                    and abs(f_exp.params["rate"] - 0.7) < 0.05
                    and f_str.family == "stretched"
                    and abs(f_str.params["exponent"] - 0.5) < 0.1
                    and f_pol.family == "polynomial"
                    and abs(f_pol.params["exponent"] - 1.0) < 0.1)

        cfg = tmp_path / "conv.cfg"
        cfg.write_text(
            "model.k = 1.0\nmodel.t_hot = 0.5\nintegrator.dt = 0.01\n"
            "integrator.t_end = 18.0\nensemble.n_paths = 8192\n"
            "convergence.burn_in = 60.0\nconvergence.binning = 4\n"
            "convergence.n_times = 24\n")
        out = tmp_path / "out"
        code = main(["convergence", "--config", str(cfg), "--out", str(out),
                     "--seed", "5"])
        rep = json.loads((out / "report.json").read_text())
        model_ok = code == 0 and rep["family"] == "exponential"
        ok = synth_ok and model_ok
        _report(10, ok, f"synthetic families recovered "
                        f"(rate {f_exp.params['rate']:.3f}, "
                        f"s {f_str.params['exponent']:.3f}, "
                        f"r {f_pol.params['exponent']:.3f}); k=1 chain TV "
                        f"decay classified {rep['family']} "
                        f"(rate value not asserted)")

    @pytest.mark.slow
    def test_11_stationary_tail_exponent(self):
        # long gate (998 s measured on a 2-vCPU VM; currently FAILS with
        # Hill 1.380 against the band [0.587, 1.090], see ROADMAP item 1):
        # k = 2, t_hot = 0.3 so zeta_star ~ 0.839; Hill on pooled
        # stationary H samples within +-30%
        ch = osc.c_hat()
        p = ModelParams(alpha=1, gamma=1, t_cold=1, t_hot=0.3, k=2.0)
        zs = rd.zeta_star(p.alpha, ch, p.t_hot)
        cfg = sim.IntegratorConfig(dt=0.005, t_end=0.0,
                                   record_stride=10 ** 9, substep_cap=50.0)
        h_of = sim.obs_energy(p)
        burn, gap = sim.steps_in(1000.0, cfg.dt), sim.steps_in(25.0, cfg.dt)
        kept = range(burn + gap, burn + 80 * gap + 1, gap)
        chunks = []
        for i, s in sim.run_paths(State4(1.0, -1.0, 0.5, 0.5), 4096, 7,
                                  kept[-1], cfg, p):
            if i in kept:
                chunks.append(np.asarray(h_of(s)))
        samples = np.concatenate(chunks)
        hill = sim.hill_estimator(samples, 0.01)
        ok = abs(hill.index - zs) <= 0.3 * zs
        _report(11, ok, f"stationary H tail index {hill.index:.3f} vs "
                        f"zeta_star = {zs:.3f} (+-30%), n = {samples.size}, "
                        f"index by fraction {hill.index_by_fraction}, "
                        f"heavy_tail = {hill.heavy_tail}")
