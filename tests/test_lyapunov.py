import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from duobath import lyapunov as ly
from duobath import oscillator as osc
from duobath import simulate as sim
from duobath.model import (ModelParams, State4, hamiltonian, drift_and_noise,
                           apply_generator, jet_hamiltonian)
from duobath.presets import PRESET_NAMES, get_preset, run_preset

P2 = ModelParams(alpha=1.0, gamma=1.0, t_cold=1.0, t_hot=0.3, k=2.0)


class TestCutoff:
    def test_plateau_and_support(self):
        c = ly.CUTOFF
        s = np.linspace(-2, 4, 301)
        v = c.value(s)
        assert np.all(v[s <= 1.0] == 1.0)
        assert np.all(v[s >= 2.0] == 0.0)
        assert np.all((0.0 <= v) & (v <= 1.0))
        assert np.all(c.d1(s) <= 0.0)

    def test_c2_matching(self):
        c = ly.CUTOFF
        h = 1e-6
        for s0 in (1.0, 2.0):
            assert c.d1(s0 - h) == pytest.approx(c.d1(s0 + h), abs=1e-4)
            assert c.d2(s0 - h) == pytest.approx(c.d2(s0 + h), abs=1e-2)
        # derivative evaluators consistent with the profile
        s = np.linspace(0.5, 2.5, 101)
        fd = (c.value(s + h) - c.value(s - h)) / (2 * h)
        assert np.max(np.abs(fd - c.d1(s))) < 1e-8


def _fd_check_jets(form, params, states, rtol=1e-5):
    """Jets of the assembled field against central finite differences."""
    j = form.jet(states, params)
    q0, q1, p0, p1 = (np.asarray(getattr(states, n), dtype=float)
                      for n in ("q0", "q1", "p0", "p1"))

    def val(q0v, q1v, p0v, p1v):
        return form.values(State4(q0v, q1v, p0v, p1v), params)

    h = 1e-5
    scale = 1.0 + np.abs(j.value)
    checks = {
        "d_q0": (val(q0 + h, q1, p0, p1) - val(q0 - h, q1, p0, p1)) / (2 * h),
        "d_q1": (val(q0, q1 + h, p0, p1) - val(q0, q1 - h, p0, p1)) / (2 * h),
        "d_p0": (val(q0, q1, p0 + h, p1) - val(q0, q1, p0 - h, p1)) / (2 * h),
        "d_p1": (val(q0, q1, p0, p1 + h) - val(q0, q1, p0, p1 - h)) / (2 * h),
    }
    for name, fd in checks.items():
        an = np.asarray(getattr(j, name)) * np.ones_like(fd)
        err = np.max(np.abs(fd - an) / (1 + np.abs(an) + scale * 1e-2))
        assert err < rtol, (name, err)


def _moderate_states(n, seed, e1_range=(3.0, 40.0)):
    rng = np.random.default_rng(seed)
    th = rng.uniform(0, 2 * np.pi, n)
    e1 = rng.uniform(*e1_range, n)
    p1 = np.sqrt(2 * e1) * np.cos(th)
    q1 = np.sign(np.sin(th)) * np.abs(4 * e1 * np.sin(th) ** 2) ** 0.25
    return State4(q0=rng.normal(0, 2, n), q1=q1,
                  p0=rng.normal(0, 2, n), p1=p1)


class TestBuiltFields:
    def test_jets_vs_fd_all_k2_families(self):
        states = _moderate_states(100, 1)
        for fam, pars in (
                ("tildeH0", {"theta": 0.05}),
                ("H0_cutoff", {"theta": 0.05, "E": 20.0}),
                ("V_k2", {"theta": -0.08, "c": 0.9, "E": 20.0}),
                ("W1_nonexist", {"theta": 0.08, "delta": 0.15, "zeta": 0.05,
                                 "E": 20.0}),
        ):
            form = ly.build_test_function(ly.TestFunctionSpec(fam, pars), P2)
            _fd_check_jets(form, P2, states)

    def test_jets_vs_fd_w_tail(self):
        # W_tail involves fractional powers of V; keep V positive by placing
        # most of the energy in the undamped oscillator
        rng = np.random.default_rng(11)
        n = 80
        th = rng.uniform(0, 2 * np.pi, n)
        e1 = rng.uniform(20.0, 60.0, n)
        states = State4(
            q0=rng.normal(0, 0.5, n),
            q1=np.sign(np.sin(th)) * np.abs(4 * e1 * np.sin(th) ** 2) ** 0.25,
            p0=rng.normal(0, 0.5, n),
            p1=np.sqrt(2 * e1) * np.cos(th))
        form = ly.build_test_function(
            ly.TestFunctionSpec("W_tail", {"theta": -0.08, "c": 0.9,
                                           "E": 20.0, "zeta": 0.4}), P2)
        assert np.all(np.asarray(form.values(states, P2)) > 0)
        _fd_check_jets(form, P2, states)

    def test_jets_vs_fd_k15(self):
        p = ModelParams(alpha=1, gamma=1, t_cold=1, t_hot=1, k=1.5)
        states = _moderate_states(80, 2)
        form = ly.build_test_function(
            ly.TestFunctionSpec("V_klt2", {"theta": 0.1, "eta_cutoff": 1.0}), p)
        _fd_check_jets(form, p, states)

    def test_jets_vs_fd_smallk(self):
        p = ModelParams(alpha=1, gamma=1, t_cold=1, t_hot=1, k=0.75,
                        smoothing="regularized")
        rng = np.random.default_rng(3)
        states = State4(*(rng.normal(0, 3, 60) for _ in range(4)))
        form = ly.build_test_function(
            ly.TestFunctionSpec("hatH_smallk",
                                {"xi": 2.0, "eps": 0.005, "beta0": 1e-5,
                                 "delta": 1.0, "w": 0.05}), p)
        base = form.base
        _fd_check_jets(base, p, states)

    @staticmethod
    def _fd_generator(form, params, x, h=1e-4):
        drift, _ = drift_and_noise(x, params)

        def val(*a):
            return np.asarray(form.values(State4(*a), params), dtype=float)

        q0, q1, p0, p1 = (np.asarray(getattr(x, n), dtype=float)
                          for n in ("q0", "q1", "p0", "p1"))
        return (drift[0] * (val(q0 + h, q1, p0, p1) - val(q0 - h, q1, p0, p1)) / (2 * h)
                + drift[1] * (val(q0, q1 + h, p0, p1) - val(q0, q1 - h, p0, p1)) / (2 * h)
                + drift[2] * (val(q0, q1, p0 + h, p1) - val(q0, q1, p0 - h, p1)) / (2 * h)
                + drift[3] * (val(q0, q1, p0, p1 + h) - val(q0, q1, p0, p1 - h)) / (2 * h)
                + params.gamma * params.t_cold
                * (val(q0 + 0, q1, p0 + h, p1) - 2 * val(q0, q1, p0, p1)
                   + val(q0, q1, p0 - h, p1)) / h ** 2
                + params.gamma * params.t_hot
                * (val(q0, q1, p0, p1 + h) - 2 * val(q0, q1, p0, p1)
                   + val(q0, q1, p0, p1 - h)) / h ** 2)

    def test_generator_vs_fd_every_family(self):
        # jets reproduce a second-order FD evaluation of L for each built-in
        # family at 100 random moderate-energy states (relative 1e-4)
        p15 = ModelParams(alpha=1, gamma=1, t_cold=1, t_hot=1, k=1.5)
        p075 = ModelParams(alpha=1, gamma=1, t_cold=1, t_hot=1, k=0.75,
                           smoothing="regularized")
        p04 = ModelParams(alpha=2, gamma=2, t_cold=1, t_hot=1, k=0.4,
                          smoothing="regularized")
        rng = np.random.default_rng(12)
        smallk_states = State4(*(rng.normal(0, 3, 100) for _ in range(4)))
        cases = [
            ("tildeH0", {"theta": 0.05}, P2, _moderate_states(100, 4)),
            ("H0_cutoff", {"theta": 0.05, "E": 20.0}, P2,
             _moderate_states(100, 5)),
            ("V_k2", {"theta": -0.08, "c": 0.9, "E": 20.0}, P2,
             _moderate_states(100, 6)),
            ("W1_nonexist", {"theta": 0.08, "delta": 0.15, "zeta": 0.05,
                             "E": 20.0}, P2, _moderate_states(100, 7)),
            ("V_klt2", {"theta": 0.1, "eta_cutoff": 1.0}, p15,
             _moderate_states(100, 8)),
            ("W_exp_frac", {"theta": 0.1, "eta_cutoff": 1.0, "delta": 0.02},
             p15, _moderate_states(100, 9, e1_range=(5.0, 30.0))),
            ("expH", {"beta": 0.3}, P2, _moderate_states(100, 10,
                                                         e1_range=(1.0, 4.0))),
            ("hatH_smallk", {"xi": 2.0, "eps": 0.01, "beta0": 1e-3,
                             "delta": 1.0, "w": 0.05}, p075, smallk_states),
            ("W_smallk", {"beta0": 1e-3, "lambda": 1.0}, p04, smallk_states),
            ("S_form", {}, p075, smallk_states),
            ("S_form", {"variant": 4}, ModelParams(
                alpha=1, gamma=1, t_cold=1, t_hot=1, k=1.0), smallk_states),
        ]
        for fam, pars, pp, states in cases:
            form = ly.build_test_function(ly.TestFunctionSpec(fam, pars), pp)
            s = form.evaluate(states, pp)
            # Richardson-extrapolated second-order stencils keep the FD
            # truncation below the asserted tolerance for the exp families
            lf_fd = (4 * self._fd_generator(form, pp, states, h=1e-4)
                     - self._fd_generator(form, pp, states, h=2e-4)) / 3
            if getattr(form, "kind", "plain") == "exp":
                w = np.asarray(form.values(states, pp), dtype=float)
                got = s.drift * w    # L W from the ratio
            else:
                got = s.drift
            err = np.max(np.abs(got - lf_fd) / (1 + np.abs(got)))
            assert err < 1e-4, (fam, err)

    def test_tildeH0_harmonic_degeneration(self):
        # harmonic test mode (k = 1): theta = 0 and no oscillator correction
        # reduce the field to p0^2/2 + Veff(q0) exactly
        pk1 = ModelParams(alpha=1.0, gamma=1.0, t_cold=1.0, t_hot=0.3, k=1.0)
        spec = ly.TestFunctionSpec("tildeH0", {"theta": 0.0})
        form = ly.build_test_function(spec, pk1)
        x = State4(q0=1.5, q1=0.3, p0=-0.7, p1=2.0)
        got = float(form.values(x, pk1))
        veff = 1.5 ** 2 / 2 + 0.5 * pk1.alpha * 1.5 ** 2
        assert got == pytest.approx(0.5 * 0.7 ** 2 + veff, rel=1e-12)

    def test_v_k2_coercive_lower_bound(self):
        # V >= (1-c)/2 * H outside a ball, on shell samples
        spec = ly.TestFunctionSpec("V_k2", {"theta": -0.08, "c": 0.9,
                                            "E": 1e4})
        form = ly.build_test_function(spec, P2)
        rng = np.random.default_rng(7)
        st = ly.sample_shell(P2, 1e5, 2e5, 10_000, rng, phi=form._phi_hint)
        v = form.values(st, P2)
        h = hamiltonian(st, P2)
        assert np.all(v >= (1 - 0.9) / 2 * h)

    def test_family_validation(self):
        with pytest.raises(ValueError):
            ly.TestFunctionSpec("no_such_family", {})
        with pytest.raises(ValueError):
            ly.TestFunctionSpec("V_k2", {"c": 1.5})
        with pytest.raises(ValueError):
            ly.TestFunctionSpec("W1_nonexist", {"zeta": 2.0})
        with pytest.raises(ValueError):
            ly.TestFunctionSpec("hatH_smallk", {"delta": 1.5})
        with pytest.raises(ValueError):
            ly.TestFunctionSpec("V_klt2", {"eta_cutoff": 0.0})

    @pytest.mark.parametrize("family", ly.FAMILIES)
    def test_builder_defaults_are_valid(self, family):
        # the validator checks only the values a spec passes, so a spec that
        # passes none is valid for every family
        assert ly.TestFunctionSpec(family, {}).parameters == {}


class TestSolutionJets:
    def test_shared_lookup_equals_separate_lookups(self):
        k = 1.5
        tables = ly.SolutionTables(phi=osc.build_phi(k), psi=osc.build_psi(k),
                                   xi=osc.build_xi(k))
        rng = np.random.default_rng(3)
        p1, q1 = rng.uniform(-20, 20, 300), rng.uniform(-5, 5, 300)
        x = State4(q0=np.zeros(300), q1=q1, p0=np.zeros(300), p1=p1)
        jets = tables.jets(x)
        assert sorted(jets) == ["phi", "psi", "xi"]
        for name, jet in jets.items():
            sol = getattr(tables, name)
            val, dp, dq, d2p = sol.eval_all(sol.orbit.lookup(p1, q1))
            assert np.array_equal(jet.value, val)
            assert np.array_equal(jet.d_p1, dp)
            assert np.array_equal(jet.d_q1, dq)
            assert np.array_equal(jet.d2_p1, d2p)


class TestShellSampler:
    def test_energy_window_and_floors(self):
        phi = osc.build_phi(2.0)
        rng = np.random.default_rng(0)
        st = ly.sample_shell(P2, 1e4, 2e4, 5000, rng, phi=phi)
        h = hamiltonian(st, P2)
        assert np.all((h >= 1e4) & (h <= 2e4))
        e1 = np.asarray(st.p1) ** 2 / 2 + np.asarray(st.q1) ** 4 / 4
        assert np.min(e1) >= ly.E1_FLOOR

    def test_axes_are_covered(self):
        phi = osc.build_phi(2.0)
        rng = np.random.default_rng(1)
        st = ly.sample_shell(P2, 1e4, 2e4, 5000, rng, phi=phi)
        e1 = np.asarray(st.p1) ** 2 / 2 + np.asarray(st.q1) ** 4 / 4
        # some states nearly all-energy-in-oscillator-1, some the opposite
        assert np.mean(e1 > 0.9e4) > 0.2
        assert np.mean(e1 < 1e3) > 0.05

    def test_phi_at_sampled_angle_equals_lookup(self):
        # the sampler reads phi at the drawn angle; inverting the angle of
        # the drawn (p1, q1) must give the same correction
        for k in (1.5, 2.0):
            params = P2.with_(k=k)
            phi = osc.build_phi(k)
            rng = np.random.default_rng(4)
            e0, e1 = np.exp(rng.uniform(0.0, math.log(1e6), (2, 4000)))
            u0, u1 = rng.uniform(0, 1, (2, 4000))

            def draw(corrector):
                return ly._orbit_states(params, e0, e1, u0, u1, corrector,
                                        phi.orbit)

            x, plain = draw(phi), draw(None)
            got = (x.p0 - plain.p0) / params.alpha
            want = phi.eval_all(phi.orbit.lookup(x.p1, x.q1))[0]
            assert np.max(np.abs(got - want)) < 1e-10


def _unsqueezed_sample_shell(params, r_lo, r_hi, n, rng, phi=None):
    """The shell sampler without the squeeze: every candidate is built in
    full and meets the band test.  The reference the squeeze reproduces."""
    k = params.k
    orbit = phi.orbit if phi is not None else (
        osc.reference_orbit(k) if k > 1 else None)
    keep, kept, m = [], 0, 4 * n
    for _ in range(ly.MAX_BATCHES):
        e0 = np.exp(rng.uniform(math.log(ly.E0_FLOOR), math.log(r_hi), m))
        e1 = np.exp(rng.uniform(math.log(ly.E1_FLOOR), math.log(r_hi), m))
        u0, u1 = rng.uniform(0, 1, m), rng.uniform(0, 1, m)
        if orbit is not None:
            pt, q0 = orbit.at_angle(e0 / orbit.energy, u0).state()
            look1 = orbit.at_angle(e1 / orbit.energy, u1)
            p1, q1 = look1.state()
        else:
            pt, q0 = ly._kinetic_split(e0, u0, k)
            p1, q1 = ly._kinetic_split(e1, u1, k)
        p0 = pt if phi is None else pt + params.alpha * (
            look1.ratio ** phi.scaling_exponent * look1.interp(phi.padded[0]))
        if k <= 1:
            h_pot = np.exp(rng.uniform(0.0, math.log(r_hi), m))
            Q = ly._v1_level(h_pot / 2.0, params) * rng.choice([-1.0, 1.0], m)
            spread = np.exp(rng.uniform(math.log(1e-2),
                                        math.log(math.sqrt(r_hi)), m))
            q = spread * rng.standard_normal(m) * 0.5
            half = m // 2
            q0[half:], q1[half:] = (Q + q)[half:], (Q - q)[half:]
            p0[half:] = (spread * rng.standard_normal(m))[half:]
            p1[half:] = (spread * rng.standard_normal(m))[half:]
        h = hamiltonian(State4(q0=q0, q1=q1, p0=p0, p1=p1), params)
        ok = (h >= r_lo) & (h <= r_hi)
        keep.append(np.stack([q0[ok], q1[ok], p0[ok], p1[ok]]))
        kept += int(ok.sum())
        if kept >= n:
            break
    cat = np.concatenate(keep, axis=1)[:, :n]
    return State4(q0=cat[0], q1=cat[1], p0=cat[2], p1=cat[3])


def _shell_case(preset, with_phi=True):
    """(params, phi, r0) of a verification preset."""
    p = get_preset(preset)
    phi = osc.build_phi(p.params.k) if with_phi else None
    return p.params, phi, p.shell.r0


SHELL_CASES = {"k2-phi": ("positive-k2", True),
               "k15-phi": ("frac-k15", True),
               "k2-no-phi": ("negative-k2-sabotaged", False),
               "smallk-k075": ("smallk-k075", False),
               "smallk-k04": ("smallk-k04", False)}


class TestShellSqueeze:
    @pytest.mark.parametrize("case", sorted(SHELL_CASES))
    def test_equals_unsqueezed_sampler(self, case):
        params, phi, r0 = _shell_case(*SHELL_CASES[case])
        for r_lo, r_hi in ((r0 / 64, r0 / 32), (r0, 2 * r0),
                           (8 * r0, 8.4 * r0)):
            for seed in (0, 1):
                rng_a = np.random.default_rng(seed)
                rng_b = np.random.default_rng(seed)
                got = ly.sample_shell(params, r_lo, r_hi, 1000, rng_a, phi=phi)
                want = _unsqueezed_sample_shell(params, r_lo, r_hi, 1000,
                                                rng_b, phi=phi)
                for name in ("q0", "q1", "p0", "p1"):
                    assert np.array_equal(getattr(got, name),
                                          getattr(want, name)), (r_lo, name)
                assert rng_a.random() == rng_b.random()

    @pytest.mark.parametrize("case", ["k2-phi", "k15-phi", "k2-no-phi"])
    def test_every_in_band_candidate_survives(self, case):
        params, phi, r0 = _shell_case(*SHELL_CASES[case])
        orbit = osc.reference_orbit(params.k)
        rng = np.random.default_rng(5)
        for r_lo, r_hi in ((r0, 2 * r0), (r0, 1.05 * r0)):
            m = 200_000
            e0 = np.exp(rng.uniform(math.log(ly.E0_FLOOR), math.log(r_hi), m))
            e1 = np.exp(rng.uniform(math.log(ly.E1_FLOOR), math.log(r_hi), m))
            u0, u1 = rng.uniform(0, 1, (2, m))
            h = hamiltonian(ly._orbit_states(params, e0, e1, u0, u1, phi,
                                             orbit), params)
            band = (h >= r_lo) & (h <= r_hi)
            keep = ly._squeeze(params, e0, e1, r_lo, r_hi, phi, orbit)
            assert band.sum() > 1000
            assert np.all(keep[band])
            assert keep.mean() < 0.5

    def test_bound_constants(self):
        # LEBESGUE bounds sum |w| of the stencil over a cell, and is reached
        _, w = osc._stencil(np.linspace(0.0, 1.0, 200_001), 1)
        lam = np.abs(w).sum(axis=0)
        assert lam.max() <= osc.LEBESGUE
        assert lam.max() > osc.LEBESGUE - 1e-12
        # orbit states keep their energy to ORBIT_ENERGY_TOL / 100
        frac = np.random.default_rng(2).uniform(0, 1, 200_000)
        for k in (1.06, 1.5, 2.0):
            P, Q = osc.reference_orbit(k).at_angle(1.0, frac).state()
            err = np.abs(P * P / 2 + np.abs(Q) ** (2 * k) / (2 * k) - 1.0)
            assert err.max() <= ly.ORBIT_ENERGY_TOL / 100

    @pytest.mark.parametrize("preset", ["positive-k2", "frac-k15"])
    def test_few_lookups_per_accepted_state(self, preset, monkeypatch):
        params, phi, r0 = _shell_case(preset)
        looked = []
        at_angle = osc.OrbitTable.at_angle

        def spy(self, ratio, frac):
            looked.append(np.size(frac))
            return at_angle(self, ratio, frac)

        monkeypatch.setattr(osc.OrbitTable, "at_angle", spy)
        n = 5000
        ly.sample_shell(params, r0, 2 * r0, n, np.random.default_rng(3),
                        phi=phi)
        assert 0 < sum(looked) <= 3 * n


class TestVerify:
    def test_constant_field_trivially_passes(self):
        form = ly.PlainForm(lambda x, p: ly.jet_const(1.0), name="one")
        rep = ly.verify_sign(form, ly.drift_below(1e-12), ly.ShellSpec(r0=100.0),
                             1000, 0, P2, phi=osc.build_phi(2.0))
        assert rep.stabilized and rep.final_verdict
        assert all(s.violations == 0 for s in rep.shells)

    def test_energy_field_drift_bound(self):
        # L H <= gamma (T + T_inf) at every shell
        form = ly.PlainForm(lambda x, p: ly.jet_const(0.0), name="H",
                            h_coeff=1.0)
        bound = P2.gamma * (P2.t_cold + P2.t_hot)
        rep = ly.verify_sign(form, ly.drift_below(bound + 1e-12),
                             ly.ShellSpec(r0=100.0), 1000, 1, P2,
                             phi=osc.build_phi(2.0))
        assert rep.final_verdict

    def test_exp_energy_positive_drift(self):
        # W = exp(H/T): L W >= 0 everywhere (not just outside a ball)
        form = ly.build_test_function(
            ly.TestFunctionSpec("expH", {"beta": 1.0 / P2.t_cold}), P2)
        rep = ly.verify_sign(form, ly.drift_above(0.0),
                             ly.ShellSpec(r0=50.0), 1000, 2, P2,
                             phi=osc.build_phi(2.0))
        assert rep.final_verdict and rep.stabilized

    def test_small_n_rejected(self):
        form = ly.PlainForm(lambda x, p: ly.jet_const(1.0), name="one")
        with pytest.raises(ValueError):
            ly.verify_sign(form, ly.drift_below(0.0), ly.ShellSpec(r0=10.0),
                           10, 0, P2)

    def test_report_serializes(self):
        form = ly.PlainForm(lambda x, p: ly.jet_const(1.0), name="one")
        rep = ly.verify_sign(form, ly.drift_below(1.0), ly.ShellSpec(r0=10.0),
                             1000, 0, P2, phi=osc.build_phi(2.0))
        parsed = json.loads(json.dumps(rep.to_dict()))
        assert parsed["n_per_shell"] == 1000
        assert len(parsed["shells"]) == len(rep.shells)


class TestWonham:
    def test_exp_pair_passes(self):
        # W1 = exp(H/T), W2 = exp(beta2 H) with 1/T < beta2 < beta
        beta2, beta = 1.5, 2.0
        w1 = ly.build_test_function(ly.TestFunctionSpec("expH", {"beta": 1.0}),
                                    P2)
        w2 = ly.build_test_function(ly.TestFunctionSpec("expH", {"beta": beta2}),
                                    P2)
        f_bound = lambda states, p: beta * hamiltonian(states, p)  # log scale
        rep = ly.wonham_report(w1, w2, f_bound, P2, ly.ShellSpec(r0=50.0),
                               n=2000, seed=3)
        assert rep.passed

    def test_sabotaged_pair_fails_drift_hypothesis(self):
        rep = run_preset("negative-k2-sabotaged", n=4000, seed=0)
        assert not rep.passed
        by_name = {h.name: h.passed for h in rep.hypotheses}
        assert not by_name["L W1 >= 0 and L W2 <= F on the outer shells"]


class TestPresets:
    # SHA-256 of json.dumps(run_preset(name, n=1000, seed=5).to_dict(),
    # sort_keys=True) for the frozen presets.  A deliberate change to a
    # preset or to the verification arithmetic moves these, and that change
    # replaces them.
    PINNED = {
        "positive-k2":
            "cb46b38c875db3f0d5e195e6cf33329f52f1202783b994680d74ef422cb5d70d",
        "negative-k2":
            "f0de6e7f5a62121b0faad816be13c42c4d8a786a5d516f19dc0ba307fb58c3a6",
        "negative-k2-sabotaged":
            "d61676ccd34feab0136b63f3ddd2001cf41f2d9eca10053cf4b45ed40d6fcafb",
        "frac-k15":
            "90e404830c52acea2a310d1b092b7b4503dd45f5b90f5b5e552e8225a8a4af80",
        "smallk-k075":
            "e1129fd52fb3b8f887efdedcc54c97404608b2eea06116f7da89fed8cb4096b1",
        "smallk-k04":
            "83bd4bb4cdc058b695c62ad12597e20743924bd8729a7995dc360c2a1717379e",
    }

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_report_is_pinned(self, name):
        rep = run_preset(name, n=1000, seed=5).to_dict()
        digest = hashlib.sha256(
            json.dumps(rep, sort_keys=True).encode()).hexdigest()
        assert digest == self.PINNED[name]

    def test_every_preset_is_pinned(self):
        assert sorted(PRESET_NAMES) == sorted(self.PINNED)

    def test_sabotaged_control_differs_only_in_kind(self):
        base = get_preset("negative-k2")
        control = get_preset("negative-k2-sabotaged")
        assert (base.kind, control.kind) == ("wonham", "wonham-sabotaged")
        # each build makes its own predicate closure, so compare its name
        assert replace(control, kind="wonham", predicate=base.predicate) \
            == base
        assert control.predicate.name == base.predicate.name

    def test_unknown_preset_raises_key_error(self):
        with pytest.raises(KeyError, match="unknown preset 'bogus'"):
            get_preset("bogus")

    def test_import_builds_no_orbit(self):
        code = ("import duobath.presets, duobath.oscillator as o; "
                "print(len(o._orbit_cache), len(o._solution_cache))")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(ly.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             check=True, capture_output=True, text=True,
                             timeout=120)
        assert out.stdout.split() == ["0", "0"]


class TestSmallKRegimes:
    def test_weak_pinning_two_exponential_drift(self):
        # k = 0.4 preset: zero violations of the scaled negative-drift bound
        rep = run_preset("smallk-k04", n=2000, seed=3)
        assert rep.stabilized and rep.final_verdict
        stable = [s for s in rep.shells
                  if s.r_lo >= rep.stabilization_radius]
        assert all(s.violations == 0 for s in stable)

    def test_k1_gram_form_spectral_gap_drift(self):
        # at k = 1 the 4-D Gram form satisfies L hatH <= -C1 hatH with
        # Gamma(hatH, hatH) <= C2 hatH outside a stabilized radius
        p = ModelParams(alpha=1.0, gamma=1.0, t_cold=1.0, t_hot=1.0, k=1.0)
        from duobath.linear import build_matrices, build_gram, \
            default_gamma_tilde
        from duobath.model import carre_of_jets
        A = build_matrices(p).A_tilde
        gt = default_gamma_tilde(A)
        spec = ly.TestFunctionSpec("S_form", {"variant": 4})
        form = ly.build_test_function(spec, p)
        form.aux_fns["gamma"] = lambda j, x, pr: carre_of_jets(j, j, pr)
        c1 = gt / 2
        gram4 = build_gram(A, gt)
        lam = np.linalg.eigvalsh(gram4.S)
        c2 = 10.0 * p.gamma * (p.t_cold + p.t_hot) * lam.max() / lam.min()

        def margins(drift, aux, states, params):
            m1 = -c1 * aux["value"] - drift
            m2 = c2 * aux["value"] - aux["gamma"]
            return np.minimum(m1, m2)

        pred = ly.Predicate("L hatH <= -C1 hatH and Gamma <= C2 hatH", margins)
        rep = ly.verify_sign(form, pred, ly.ShellSpec(r0=100.0), 2000, 4, p)
        assert rep.stabilized and rep.final_verdict


class TestLowerBound:
    def test_stretched_family_recovered(self):
        # with f(y) = 2 y^(-2/3) the root of y f(y) = 2 g is y = g^3, so the
        # TV lower bound f(y) / 2 is g^-2: stretched with exponent
        # kappa / (1 - kappa) = 1/2
        kap = 1.0 / 3.0
        g = lambda x0, t: math.exp(3 * x0 ** kap
                                   + 2.0 * (1 + t) ** (kap / (1 - kap)))
        ts = np.linspace(1, 40, 12)
        bounds = [g(5.0, t) ** -2.0 for t in ts]
        fit = sim.fit_decay(ts, np.array(bounds))
        assert fit.family == "stretched"
        assert 0.35 < fit.params["exponent"] < 0.7


class TestMomentEnvelope:
    # E H^a(X_t) <= (H(x0) + C_a t)^a with C_a = gamma (T + T_inf) max(1, 2a-1)

    def test_first_moment_exact_case(self):
        # C_1 = sup L H, attained on p0 = 0, so the first-moment envelope is
        # H(x0) + 1.3 t for P2 and cannot be lowered
        rng = np.random.default_rng(3)
        q0, q1, p1 = rng.normal(scale=2.0, size=(3, 200))
        for p0 in (np.zeros(200), rng.normal(scale=2.0, size=200)):
            lh = apply_generator(jet_hamiltonian, State4(q0, q1, p0, p1), P2)
            assert np.all(lh <= 1.3 + 1e-12)
        assert np.max(apply_generator(jet_hamiltonian,
                                      State4(q0, q1, np.zeros(200), p1),
                                      P2)) == pytest.approx(1.3)

    def test_zero_time_consistency(self):
        # the moment series starts at H(x0)^a exactly, where the envelope does
        cfg = sim.IntegratorConfig(dt=0.01, t_end=0.5, record_stride=10)
        x0 = State4(1.0, -1.0, 0.5, 0.5)
        h0 = float(hamiltonian(x0, P2))
        obs = {"H2": lambda s: np.asarray(hamiltonian(s, P2)) ** 2.0}
        r = sim.simulate_ensemble(x0, cfg, P2, obs, seed=5, n_paths=64)
        assert r.times[0] == 0.0
        assert r.stats["H2"]["mean"][0] == pytest.approx(h0 ** 2.0)
        assert r.stats["H2"]["sem"][0] == pytest.approx(0.0, abs=1e-12)

    def test_empirical_sqrt_moment_under_envelope(self):
        cfg = sim.IntegratorConfig(dt=0.01, t_end=4.0, record_stride=40)
        x0 = State4(1.0, -1.0, 0.5, 0.5)
        h0 = float(hamiltonian(x0, P2))
        obs = {"Hs": lambda s: np.asarray(hamiltonian(s, P2)) ** 0.5}
        r = sim.simulate_ensemble(x0, cfg, P2, obs, seed=5, n_paths=2048)
        rate = P2.gamma * (P2.t_cold + P2.t_hot)
        bound = (h0 + rate * r.times) ** 0.5
        assert np.all(r.stats["Hs"]["mean"] <= bound + 3 * r.stats["Hs"]["sem"])
