import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from duobath import simulate as sim
from duobath.model import ModelParams, State4, hamiltonian

P2 = ModelParams(alpha=1.0, gamma=1.0, t_cold=1.0, t_hot=0.3, k=2.0)
PK1 = ModelParams(alpha=1.0, gamma=1.0, t_cold=1.0, t_hot=0.5, k=1.0)
X0 = State4(1.0, -1.0, 0.5, 0.5)


class TestDeterminism:
    def test_identical_runs(self):
        cfg = sim.IntegratorConfig(dt=0.01, t_end=2.0, record_stride=20)
        a = sim.simulate_ensemble(X0, cfg, P2, {"H": sim.obs_energy(P2)},
                                  seed=7, n_paths=64)
        b = sim.simulate_ensemble(X0, cfg, P2, {"H": sim.obs_energy(P2)},
                                  seed=7, n_paths=64)
        assert np.array_equal(a.stats["H"]["mean"], b.stats["H"]["mean"])
        assert np.array_equal(a.final.p1, b.final.p1)

    def test_single_state_step(self):
        cfg = sim.IntegratorConfig(dt=0.01, t_end=1.0)
        x1 = list(sim.run_paths(X0, 1, 3, 1, cfg, P2))[-1][1]
        x2 = list(sim.run_paths(X0, 1, 3, 1, cfg, P2))[-1][1]
        assert x1.p0[0] == x2.p0[0] and np.isfinite(x1.q1[0])

    def test_nonfinite_raises(self):
        bad = ModelParams(alpha=1, gamma=1, t_cold=1, t_hot=1, k=3.0)
        cfg = sim.IntegratorConfig(scheme="euler_maruyama", dt=2.0,
                                   t_end=40.0, substep_cap=None)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(sim.IntegrationError) as exc:
                sim.simulate_ensemble(State4(4.0, -4.0, 0, 0), cfg, bad,
                                      {"H": sim.obs_energy(bad)}, seed=0,
                                      n_paths=4)
        err = exc.value
        assert err.time is not None and err.path is not None
        assert f"at t={err.time:g}, path {err.path}" in str(err)

    @pytest.mark.xfail(strict=True, reason="a path's noise depends on "
                       "n_paths until draws are keyed on path blocks "
                       "(ROADMAP open item 2)")
    def test_prefix_of_paths_is_independent_of_ensemble_size(self):
        cfg = sim.IntegratorConfig(dt=0.005, t_end=0.5)
        n_steps = 100

        def final(n):
            return list(sim.run_paths(X0, n, 3, n_steps, cfg, P2))[-1][1]

        assert np.array_equal(final(4).as_array(),
                              final(8).as_array()[:, :4])


class TestRunPaths:
    def test_run_paths_equals_hand_loop_of_step_ensemble(self):
        # a stiff start at t_hot = 2.54 spreads the paths over halving
        # levels 0-3, so each step draws several noise groups
        p = ModelParams(alpha=1, gamma=1, t_cold=1, t_hot=2.54, k=2.0)
        cfg = sim.IntegratorConfig(dt=0.05, t_end=2.0, substep_cap=10.0,
                                   max_halvings=3)
        x0, n, seed, n_steps = State4(2.0, -2.0, 0.0, 0.0), 64, 11, 40
        noise = sim.NoiseStream(seed)
        x = [np.full(n, v) for v in (x0.q0, x0.q1, x0.p0, x0.p1)]
        expected, levels = [np.stack(x)], set()
        for i in range(n_steps):
            levels |= set(np.unique(sim._halvings_needed(x[0], x[1], p,
                                                         cfg)).tolist())
            x = sim.step_ensemble(*x, i, cfg, p, noise)
            expected.append(np.stack(x))
        assert len(levels) >= 3
        got = list(sim.run_paths(x0, n, seed, n_steps, cfg, p))
        assert [i for i, _ in got] == list(range(n_steps + 1))
        for (_, s), e in zip(got, expected):
            assert np.array_equal(s.as_array(), e)


class TestSchemes:
    def test_noise_free_energy_conservation_order(self):
        # deterministic mode: strang conserves H to O(dt^2) per unit time
        pz = ModelParams(alpha=1, gamma=1e-12, t_cold=1e-12, t_hot=1e-12,
                         k=2.0)
        h0 = hamiltonian(X0, pz)
        errs = []
        for dt in (0.02, 0.01, 0.005):
            cfg = sim.IntegratorConfig(dt=dt, t_end=5.0,
                                       record_stride=10 ** 9,
                                       substep_cap=None)
            r = sim.simulate_ensemble(X0, cfg, pz, {"H": sim.obs_energy(pz)},
                                      seed=1, n_paths=1)
            errs.append(abs(r.stats["H"]["mean"][-1] - h0))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.3)

    def test_ou_substep_stationary_variance(self):
        # friction+noise half-steps alone leave p0 with variance t_cold
        z = sim.NoiseStream(3)
        c = math.exp(-1.0 * 0.05 / 2)
        s0 = math.sqrt(1.0 * (1 - c * c))
        p = np.zeros(100_000)
        for i in range(400):
            zz = z.normals(i, 0, 0, (4, p.size))
            p = c * p + s0 * zz[0]
            p = c * p + s0 * zz[2]
        assert p.var() == pytest.approx(1.0, abs=0.02)

    def _exact_second_moment(self, t):
        # harmonic chain: M' = A M + M A^T + B B^T, integrated tightly
        a, g, T, Ti = PK1.alpha, PK1.gamma, PK1.t_cold, PK1.t_hot
        A = np.array([[0, 0, 1, 0], [0, 0, 0, 1],
                      [-(1 + a), a, -g, 0], [a, -(1 + a), 0, 0]])
        BB = np.diag([0, 0, 2 * g * T, 2 * g * Ti])
        x0 = np.array([X0.q0, X0.q1, X0.p0, X0.p1])
        M0 = np.outer(x0, x0)

        def rhs(_, m):
            M = m.reshape(4, 4)
            return (A @ M + M @ A.T + BB).ravel()

        sol = solve_ivp(rhs, (0, t), M0.ravel(), rtol=1e-12, atol=1e-14,
                        method="DOP853")
        return sol.y[:, -1].reshape(4, 4)

    def _energy_of_moment(self, M):
        a = PK1.alpha
        return (0.5 * (M[2, 2] + M[3, 3]) + 0.5 * (M[0, 0] + M[1, 1])
                + 0.5 * a * (M[0, 0] - 2 * M[0, 1] + M[1, 1]))

    def _scheme_moment(self, scheme, dt, t):
        # the k=1 chain is linear, so one step is affine in (state, draws);
        # iterate the exact second-moment recursion of the scheme itself
        core = sim._strang_core if scheme == "strang_split" else sim._euler_core
        nd = 4 if scheme == "strang_split" else 2
        G = np.zeros((4, 4))
        zeros = np.zeros((nd, 1))
        for j in range(4):
            e = np.zeros(4)
            e[j] = 1.0
            out = core(e[0:1], e[1:2], e[2:3], e[3:4], dt, PK1, zeros)
            G[:, j] = np.array(out).ravel()
        cols = []
        for i in range(nd):
            z = np.zeros((nd, 1))
            z[i, 0] = 1.0
            out = core(np.zeros(1), np.zeros(1), np.zeros(1), np.zeros(1),
                       dt, PK1, z)
            cols.append(np.array(out).ravel())
        N = np.stack(cols, axis=1)
        x0 = np.array([X0.q0, X0.q1, X0.p0, X0.p1])
        M = np.outer(x0, x0)
        for _ in range(int(round(t / dt))):
            M = G @ M @ G.T + N @ N.T
        return M

    def test_weak_order_euler_and_strang(self):
        t = 2.0
        exact = self._energy_of_moment(self._exact_second_moment(t))
        for scheme, nominal in (("euler_maruyama", 1.0), ("strang_split", 2.0)):
            dts = np.array([0.2, 0.1, 0.05, 0.025])
            errs = [abs(self._energy_of_moment(
                self._scheme_moment(scheme, dt, t)) - exact) for dt in dts]
            slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
            assert abs(slope - nominal) < 0.3, (scheme, slope, errs)

    def test_energy_bound_supermartingale(self):
        # E H(t) <= H(0) + gamma (T + T_inf) t within 3 standard errors
        cfg = sim.IntegratorConfig(dt=0.01, t_end=5.0, record_stride=50)
        r = sim.simulate_ensemble(X0, cfg, P2, {"H": sim.obs_energy(P2)},
                                  seed=8, n_paths=2048)
        h0 = hamiltonian(X0, P2)
        bound = h0 + P2.gamma * (P2.t_cold + P2.t_hot) * r.times
        assert np.all(r.stats["H"]["mean"] <= bound + 3 * r.stats["H"]["sem"])

    def test_stiffness_guard_subdivides(self):
        # with a tiny cap, a large-force state still integrates stably
        cfg = sim.IntegratorConfig(dt=0.05, t_end=1.0, substep_cap=5.0,
                                   max_halvings=10)
        r = sim.simulate_ensemble(State4(3.0, -3.0, 0.0, 0.0), cfg, P2,
                                  {"H": sim.obs_energy(P2)}, seed=0,
                                  n_paths=8)
        assert np.all(np.isfinite(r.stats["H"]["mean"]))


class TestIntegratorConfig:
    @pytest.mark.parametrize("bad", [
        {"max_halvings": -1},
        {"max_halvings": 256},    # level 256 & 0xFF would reuse level 0's noise
        {"substep_cap": 0.0},     # would divide by zero
        {"substep_cap": -5.0},    # would silently turn halving off
    ])
    def test_rejected(self, bad):
        with pytest.raises(ValueError):
            sim.IntegratorConfig(**bad)

    def test_extremes_and_off_switch_accepted(self):
        for ok in ({"max_halvings": 0}, {"max_halvings": 255},
                   {"substep_cap": None}):
            sim.IntegratorConfig(**ok)


class TestHill:
    def test_pareto_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(size=100_000) ** (-1 / 2.0)  # CCDF y^-2
        h = sim.hill_estimator(x, 0.01)
        assert h.index == pytest.approx(2.0, abs=0.1)
        assert h.heavy_tail

    def test_light_tail_flagged(self):
        rng = np.random.default_rng(1)
        h = sim.hill_estimator(rng.exponential(size=100_000) + 1.0, 0.01)
        assert not h.heavy_tail
        lad = h.index_by_fraction
        assert lad[0] < lad[1] < lad[2]

    @given(st.floats(min_value=0.1, max_value=100.0))
    @settings(max_examples=10, deadline=None)
    def test_scale_invariance(self, c):
        rng = np.random.default_rng(5)
        x = rng.uniform(size=20_000) ** (-1 / 1.5)
        a = sim.hill_estimator(x, 0.05, n_boot=5)
        b = sim.hill_estimator(c * x, 0.05, n_boot=5)
        assert a.index == pytest.approx(b.index, rel=1e-12)

    def test_insufficient_tail_rejected(self):
        with pytest.raises(ValueError):
            sim.hill_estimator(np.ones(500) + np.arange(500), 0.01)


class TestTVProxy:
    def test_identical_and_disjoint(self):
        rng = np.random.default_rng(2)
        a = rng.normal(0, 1, (2000, 4))
        assert sim.tv_proxy(a, a, 4) == 0.0
        b = a + 50.0
        assert sim.tv_proxy(a, b, 4) == 1.0

    def test_gaussian_oracle(self):
        # TV(N(0,1), N(2,1)) = 2 Phi(1) - 1 ~ 0.6827
        rng = np.random.default_rng(3)
        a = rng.normal(0, 1, 100_000)
        b = rng.normal(2, 1, 100_000)
        tv = sim.tv_proxy(a, b, 64)
        assert tv == pytest.approx(0.6827, abs=0.02)

    def test_unequal_counts_rejected(self):
        with pytest.raises(ValueError):
            sim.tv_proxy(np.zeros((10, 2)), np.zeros((11, 2)))

    def test_refinement_monotone_lower_bound(self):
        rng = np.random.default_rng(4)
        a = rng.normal(0, 1, 200_000)
        b = rng.normal(0.5, 1, 200_000)
        vals = [sim.tv_proxy(a, b, nb) for nb in (2, 8, 32)]
        assert vals[0] <= vals[1] <= vals[2] + 1e-9


class TestFitDecay:
    def test_exponential(self):
        t = np.linspace(0.5, 12, 40)
        f = sim.fit_decay(t, np.exp(-0.7 * t))
        assert f.family == "exponential"
        assert f.params["rate"] == pytest.approx(0.7, abs=0.05)
        assert not f.inconclusive

    def test_stretched(self):
        t = np.linspace(0.5, 30, 50)
        f = sim.fit_decay(t, np.exp(-t ** 0.5))
        assert f.family == "stretched"
        assert f.params["exponent"] == pytest.approx(0.5, abs=0.1)

    def test_polynomial(self):
        t = np.geomspace(0.5, 50, 40)
        f = sim.fit_decay(t, t ** -1.0)
        assert f.family == "polynomial"
        assert f.params["exponent"] == pytest.approx(1.0, abs=0.1)

    def test_non_monotone_flagged(self):
        t = np.linspace(1, 10, 20)
        d = 1.0 + 0.5 * np.sin(3 * t)
        f = sim.fit_decay(t, d)
        assert f.inconclusive

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            sim.fit_decay([1, 2, 3], [1, 0.5, 0.2])
