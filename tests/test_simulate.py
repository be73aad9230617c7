import hashlib
import math
import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from duobath import simulate as sim
from duobath.model import (REGULARIZED, ModelParams, State4, forces,
                           hamiltonian)

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
        # velocity Verlet at dt = 0.5 without halving blows up on q^5 forces
        cfg = sim.IntegratorConfig(dt=0.5, t_end=40.0, max_halvings=0)
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


# The allocating kernel that step_ensemble replaced, kept as the reference its
# outputs must equal bit for bit: one fresh Philox per noise block, forces
# computed afresh at every half-kick, every level grouped and scattered.

def _ref_normals(key, step, group, sub, shape):
    bg = np.random.Philox(key=key,
                          counter=[0, sub, (step << 8) | (group & 0xFF), 0])
    return np.random.Generator(bg).standard_normal(shape)


def _ref_strang_core(q0, q1, p0, p1, h, params, z):
    g, T, Ti = params.gamma, params.t_cold, params.t_hot
    c = math.exp(-g * h / 2)
    s0 = math.sqrt(T * (1 - c * c))
    s1 = math.sqrt(2 * g * Ti * h / 2)
    p0 = c * p0 + s0 * z[0]
    p1 = p1 + s1 * z[1]
    f0, f1 = forces(q0, q1, params)
    p0 = p0 + 0.5 * h * f0
    p1 = p1 + 0.5 * h * f1
    q0 = q0 + h * p0
    q1 = q1 + h * p1
    f0, f1 = forces(q0, q1, params)
    p0 = p0 + 0.5 * h * f0
    p1 = p1 + 0.5 * h * f1
    p0 = c * p0 + s0 * z[2]
    p1 = p1 + s1 * z[3]
    return q0, q1, p0, p1


def _ref_halvings_needed(q0, q1, params, cfg):
    f0, f1 = forces(q0, q1, params)
    mag = np.maximum(np.abs(f0), np.abs(f1))
    with np.errstate(divide="ignore"):
        m = np.ceil(np.log2(np.maximum(mag / cfg.substep_cap, 1.0)))
    return np.clip(m.astype(int), 0, cfg.max_halvings)


def _ref_step_ensemble(q0, q1, p0, p1, step_index, cfg, params, key):
    m = _ref_halvings_needed(q0, q1, params, cfg)
    out = [np.array(v, dtype=float, copy=True) for v in (q0, q1, p0, p1)]
    for level in np.unique(m):
        sel = m == level
        sub = [v[sel] for v in out]
        h = cfg.dt / (1 << int(level))
        for j in range(1 << int(level)):
            z = _ref_normals(key, step_index, int(level), j,
                             (4, int(sel.sum())))
            sub = _ref_strang_core(*sub, h, params, z)
        for v, s in zip(out, sub):
            v[sel] = s
    return out


def _levels(x, params, cfg):
    return set(np.unique(sim._halving_levels(*forces(x[0], x[1], params),
                                             cfg)).tolist())


STIFF = ModelParams(alpha=1, gamma=1, t_cold=1, t_hot=2.54, k=2.0)
STIFF_CFG = sim.IntegratorConfig(dt=0.05, t_end=2.0, substep_cap=10.0,
                                 max_halvings=3)


GAPPED_CFG = sim.IntegratorConfig(dt=0.05, substep_cap=1.0, max_halvings=4)


def _at_levels(levels, params=P2, cfg=GAPPED_CFG):
    """Starting arrays with path i at halving level levels[i] on the first
    step: q0 solves q0^3 + q0 = 0.75 * 2**level * substep_cap at q1 = 0
    (|f0| = q0^3 + q0 and |f1| = q0 at k = 2), with random momenta."""
    q0 = []
    for lv in levels:
        roots = np.roots([1.0, 0.0, 1.0, -0.75 * 2.0 ** lv * cfg.substep_cap])
        q0.append(roots[np.argmin(np.abs(roots.imag))].real)
    p0, p1 = np.random.default_rng(len(levels)).standard_normal((2, len(q0)))
    x = [np.array(q0), np.zeros(len(q0)), p0, p1]
    assert sim._halving_levels(*forces(x[0], x[1], params),
                               cfg).tolist() == list(levels)
    return x


class _Spy(sim.NoiseStream):
    """A NoiseStream that records the (group, sub, shape) of each call."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = []

    def normals(self, step, group, sub, shape):
        self.calls.append((group, sub, shape))
        return super().normals(step, group, sub, shape)


class TestStepKernel:
    @pytest.mark.parametrize("params, cfg, x0, n, levels", [
        # halving off, and level 0 only with one path and with many
        (replace(P2, k=3.0), sim.IntegratorConfig(dt=0.002, max_halvings=0),
         State4(2.0, -2.0, 0.0, 0.0), 64, {0}),
        (P2, sim.IntegratorConfig(dt=0.005, substep_cap=50.0), X0, 64, {0}),
        (P2, sim.IntegratorConfig(dt=0.005, substep_cap=50.0), X0, 1, {0}),
        (PK1, sim.IntegratorConfig(dt=0.01), X0, 64, {0}),
        (replace(P2, k=0.75, smoothing=REGULARIZED),
         sim.IntegratorConfig(dt=0.01, substep_cap=2.0), X0, 64, {0, 1}),
        # stiff starts spread the paths over halving levels 0-3 and 0-4
        (STIFF, STIFF_CFG, State4(2.0, -2.0, 0.0, 0.0), 64, {0, 1, 2, 3}),
        (STIFF, STIFF_CFG, State4(2.0, -2.0, 0.0, 0.0), 1, {0, 1}),
        (replace(P2, k=3.0), sim.IntegratorConfig(dt=0.01, substep_cap=4.0,
                                                 max_halvings=4),
         State4(2.0, -2.0, 0.0, 0.0), 64, {0, 1, 2, 3, 4}),
        (replace(P2, k=3.0), sim.IntegratorConfig(dt=0.01, substep_cap=4.0,
                                                 max_halvings=4),
         State4(2.0, -2.0, 0.0, 0.0), 1, {0, 1, 2, 3, 4}),
        # per-path starts whose first step has one level above 0, a gap, or
        # gaps and no level 0
        (P2, GAPPED_CFG, _at_levels([2] * 16), 16, {0, 1, 2, 3, 4}),
        (P2, GAPPED_CFG, _at_levels([0, 3, 0, 0, 3, 0, 3, 3, 0, 0, 0, 3, 0]),
         13, {0, 1, 2, 3, 4}),
        (P2, GAPPED_CFG, _at_levels([4, 1, 2, 2, 1, 4, 1, 1, 2, 4, 1]), 11,
         {0, 1, 2, 3, 4}),
        (P2, GAPPED_CFG, _at_levels([1, 2, 4]), 3, {0, 1, 2, 3, 4}),
    ])
    def test_equals_allocating_kernel_bit_for_bit(self, params, cfg, x0, n,
                                                  levels, monkeypatch):
        # every step's states equal the reference bit for bit, the forces it
        # hands on equal the forces at its new positions, and the step draws
        # the reference's multiset of noise blocks
        seed, n_steps = 11, 40
        noise, want_calls, draw = _Spy(seed), [], _ref_normals

        def ref_normals(key, step, group, sub, shape):
            want_calls.append((group, sub, shape))
            return draw(key, step, group, sub, shape)

        monkeypatch.setitem(globals(), "_ref_normals", ref_normals)
        x = ([np.full(n, float(v)) for v in (x0.q0, x0.q1, x0.p0, x0.p1)]
             if isinstance(x0, State4) else x0)
        seen, f = set(), None
        for i in range(n_steps):
            seen |= _levels(x, params, cfg)
            before = [v.copy() for v in x]
            *got, f = sim.step_ensemble(*x, i, cfg, params, noise, f)
            want = _ref_step_ensemble(*x, i, cfg, params, noise.key)
            for b, v in zip(before, x):
                assert np.array_equal(b, v)     # inputs left unchanged
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
            for g, w in zip(f, forces(got[0], got[1], params)):
                assert np.array_equal(g, w)
            assert sorted(noise.calls) == sorted(want_calls)
            noise.calls.clear()
            want_calls.clear()
            x = got
        assert seen == levels

    def test_one_force_evaluation_per_tick(self, monkeypatch):
        # levels 0-3: one pass per finest substep, not one pass per (level,
        # substep), and the halving test reads the forces handed in
        counts = []

        def counting(q0, q1, params):
            counts.append(np.size(q0))
            return forces(q0, q1, params)

        x = _at_levels([0, 1, 2, 3, 3, 2, 1, 0])
        f = forces(x[0], x[1], P2)
        monkeypatch.setattr(sim, "forces", counting)
        sim.step_ensemble(*x, 0, GAPPED_CFG, P2, sim.NoiseStream(3), f)
        assert len(counts) == 2 ** 3
        # tick t moves the levels >= 3 - (trailing zeros of t)
        assert counts == [8, 2, 4, 2, 6, 2, 4, 2]


class TestRunPaths:
    def test_run_paths_equals_hand_loop_of_step_ensemble(self):
        # a stiff start at t_hot = 2.54 spreads the paths over halving
        # levels 0-3, so each step draws several noise groups
        x0, n, seed, n_steps = State4(2.0, -2.0, 0.0, 0.0), 64, 11, 40
        noise = sim.NoiseStream(seed)
        x = [np.full(n, v) for v in (x0.q0, x0.q1, x0.p0, x0.p1)]
        expected, levels = [np.stack(x)], set()
        for i in range(n_steps):
            levels |= _levels(x, STIFF, STIFF_CFG)
            *x, _ = sim.step_ensemble(*x, i, STIFF_CFG, STIFF, noise)
            expected.append(np.stack(x))
        assert len(levels) >= 3
        got = list(sim.run_paths(x0, n, seed, n_steps, STIFF_CFG, STIFF))
        assert [i for i, _ in got] == list(range(n_steps + 1))
        for (_, s), e in zip(got, expected):
            assert np.array_equal(s.as_array(), e)

    def test_level_zero_run_evaluates_forces_once_per_step(self,
                                                           monkeypatch):
        # each step's end-of-step forces start the next step: one evaluation
        # at the start and one per step, not two per step
        counts, n, n_steps = [], 64, 20

        def counting(q0, q1, params):
            counts.append(np.size(q0))
            return forces(q0, q1, params)

        cfg = sim.IntegratorConfig(dt=0.005, substep_cap=50.0)
        monkeypatch.setattr(sim, "forces", counting)
        got = list(sim.run_paths(X0, n, 7, n_steps, cfg, P2))
        assert len(got) == n_steps + 1
        assert counts == [n] * (1 + n_steps)

    @pytest.mark.parametrize("cfg", [STIFF_CFG,
                                     sim.IntegratorConfig(dt=0.002)])
    def test_yielded_states_are_not_written_to(self, cfg):
        held = [(s, s.as_array()) for _, s in sim.run_paths(
            State4(2.0, -2.0, 0.0, 0.0), 32, 5, 20, cfg, STIFF)]
        for s, a in held:
            assert np.array_equal(s.as_array(), a)


class TestHalvingLevels:
    CFG = sim.IntegratorConfig(substep_cap=50.0, max_halvings=10)

    def test_non_finite_force_takes_max_halvings(self):
        q0 = np.array([1.0, 1e200, np.nan, 20.0, -np.inf])
        q1 = np.zeros_like(q0)
        with np.errstate(over="ignore", invalid="ignore"):
            f0, f1 = forces(q0, q1, P2)
        with np.errstate(all="raise"):     # no cast of inf or NaN to int
            m = sim._halving_levels(f0, f1, self.CFG)
        assert m.tolist() == [0, 10, 10, 8, 10]

    def test_finite_levels_unchanged(self):
        rng = np.random.default_rng(0)
        q0, q1 = rng.standard_cauchy((2, 10_000))
        for cfg in (self.CFG, STIFF_CFG):
            m = sim._halving_levels(*forces(q0, q1, P2), cfg)
            assert np.array_equal(m, _ref_halvings_needed(q0, q1, P2, cfg))
            assert np.unique(m).tolist() == list(range(cfg.max_halvings + 1))

    def test_non_finite_force_raises_before_any_substep(self):
        # 2^18 + 1 noise blocks if the inf force were stepped at max_halvings
        cfg = sim.IntegratorConfig(dt=0.01, substep_cap=50.0, max_halvings=18)
        x = [np.array([1.0, 1e200]), np.zeros(2), np.zeros(2), np.zeros(2)]
        noise = _Spy(0)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(sim.IntegrationError) as exc:
            sim.step_ensemble(*x, 4, cfg, P2, noise)
        assert noise.calls == []
        assert (exc.value.time, exc.value.path) == (5 * 0.01, 1)
        assert str(exc.value) == ("non-finite state in ensemble at t=0.05, "
                                  "path 1")


class TestNoiseStream:
    def test_reseated_blocks_equal_fresh_philox(self):
        noise = sim.NoiseStream(42)
        calls = [(0, 0, 0, (4, 7)), (3, 2, 1, (4, 1)), (0, 0, 0, (4, 7)),
                 (3, 2, 3, (2, 5)), (1, 0, 0, (4, 4096)), (2 ** 40, 255, 7,
                 (4, 3)), (1, 1, 0, (13,)), (3, 2, 1, (4, 1))]
        for step, group, sub, shape in calls:
            got = noise.normals(step, group, sub, shape)
            want = _ref_normals(noise.key, step, group, sub, shape)
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    def test_block_is_a_fresh_philox_at_the_counter_words(self):
        noise = sim.NoiseStream(9)
        for w1, w2, shape in ((0, 0, 5), (0, 1, 20000), (0, 255, 3),
                              (0, 256, 3), (0, 70000, 7), (2, 3, (4, 2))):
            bg = np.random.Philox(key=noise.key, counter=[0, w1, w2, 0])
            want = np.random.Generator(bg).standard_normal(shape)
            assert np.array_equal(noise.block(w1, w2, shape), want)


class TestLookahead:
    """run_paths queues the level-0 blocks of the next PREFETCH_DEPTH steps
    on a helper thread while step i computes, and a caller that would wait
    draws a later one itself.  Its states must equal, bit for bit, a hand
    loop of step_ensemble on a stream that never prefetches, at ensemble
    sizes whose level-0 block (4 n_paths draws) is above
    PREFETCH_MIN_DRAWS, with no block drawn twice."""

    N = 4096

    @pytest.fixture
    def draws(self, monkeypatch):
        """Counter words of every block drawn, by the thread that drew it:
        {"caller": [...], "helper": [...]}."""
        caller, seen = threading.get_ident(), {"caller": [], "helper": []}
        draw = sim._Reseated.draw

        def spy(self, word1, word2, shape):
            here = threading.get_ident() == caller
            seen["caller" if here else "helper"].append((word1, word2))
            return draw(self, word1, word2, shape)

        monkeypatch.setattr(sim._Reseated, "draw", spy)
        return seen

    def _check(self, x0, seed, n_steps, cfg, params, draws):
        """Compare run_paths with the hand loop; return the halving levels
        of each step and the level-0 blocks read."""
        assert 4 * self.N >= sim.PREFETCH_MIN_DRAWS
        noise = sim.NoiseStream(seed)
        x = [np.full(self.N, float(v)) for v in (x0.q0, x0.q1, x0.p0, x0.p1)]
        expected, levels = [np.stack(x)], []
        for i in range(n_steps):
            levels.append(_levels(x, params, cfg))
            *x, _ = sim.step_ensemble(*x, i, cfg, params, noise)
            expected.append(np.stack(x))
        assert draws["helper"] == []    # the hand loop never prefetched
        draws["caller"].clear()
        got = list(sim.run_paths(x0, self.N, seed, n_steps, cfg, params))
        assert [i for i, _ in got] == list(range(n_steps + 1))
        for (_, s), e in zip(got, expected):
            assert np.array_equal(s.as_array(), e)
        # no counter words are drawn twice, on either thread; the helper
        # draws only level-0 blocks queued ahead, and every level-0 block
        # read is drawn by one of the two threads (a stale one may be
        # dropped before either starts on it)
        both = draws["caller"] + draws["helper"]
        assert len(set(both)) == len(both)
        ahead = {sim._level_zero(i) for i in range(1, n_steps)}
        assert set(draws["helper"]) <= ahead
        read = {sim._level_zero(i)
                for i in range(n_steps) if 0 in levels[i]}
        assert read <= set(both)
        return levels, read

    def test_level_zero_steps(self, draws):
        cfg = sim.IntegratorConfig(dt=0.005, substep_cap=50.0)
        levels, read = self._check(X0, 7, 30, cfg, P2, draws)
        assert all(lv == {0} for lv in levels)
        # every block is read, so each is drawn exactly once, the first here
        assert sorted(draws["caller"] + draws["helper"]) == sorted(read)
        assert draws["caller"][0] == sim._level_zero(0)

    def test_level_zero_group_reads_a_prefix_of_the_block(self, draws):
        levels, _ = self._check(State4(2.0, -2.0, 0.0, 0.0), 11, 30, STIFF_CFG,
                             STIFF, draws)
        assert any(0 in lv and len(lv) > 1 for lv in levels[1:])

    def test_stale_block_of_a_step_without_level_zero_is_dropped(
            self, draws):
        levels, _ = self._check(State4(3.0, -3.0, 0.0, 0.0), 11, 30,
                                STIFF_CFG, STIFF, draws)
        stale = [i for i, lv in enumerate(levels) if i and 0 not in lv]
        assert stale and any(0 in lv for lv in levels[stale[-1] + 1:])


class TestHelperThread:
    CFG = sim.IntegratorConfig(dt=0.005, substep_cap=50.0)
    N = 4096

    def test_ends_when_the_run_is_exhausted(self):
        base = threading.active_count()
        for _ in sim.run_paths(X0, self.N, 1, 5, self.CFG, P2):
            pass
        assert threading.active_count() == base

    def test_ends_when_the_run_is_closed_early(self):
        base = threading.active_count()
        run = sim.run_paths(X0, self.N, 1, 50, self.CFG, P2)
        for i, _ in run:
            if i == 3:
                break
        assert threading.active_count() == base + 1
        run.close()
        assert threading.active_count() == base

    def test_ends_when_the_run_raises(self):
        bad = ModelParams(alpha=1, gamma=1, t_cold=1, t_hot=1, k=3.0)
        cfg = sim.IntegratorConfig(dt=0.5, max_halvings=0)
        base = threading.active_count()
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(sim.IntegrationError):
            for _ in sim.run_paths(State4(4.0, -4.0, 0, 0), self.N, 0, 80,
                                   cfg, bad):
                pass
        assert threading.active_count() == base

    def test_helper_failure_reaches_the_caller(self, monkeypatch):
        draw = sim._Reseated.draw
        callers = set()

        def failing(self, word1, word2, shape):
            if threading.get_ident() not in callers:
                raise RuntimeError("helper draw failed")
            return draw(self, word1, word2, shape)

        def run():
            callers.add(threading.get_ident())
            with pytest.raises(RuntimeError) as exc:
                list(sim.run_paths(X0, self.N, 1, 5, self.CFG, P2))
            raised.append(str(exc.value))

        monkeypatch.setattr(sim._Reseated, "draw", failing)
        base, raised = threading.active_count(), []
        caller = threading.Thread(target=run)
        caller.start()
        caller.join(120)
        assert not caller.is_alive(), "the run hung"
        assert raised == ["helper draw failed"]
        assert threading.active_count() == base

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                        or len(os.sched_getaffinity(0)) < 2,
                        reason="needs a process on two or more cores")
    def test_helper_keeps_off_the_callers_core(self):
        def helper_cores(noise):
            noise.prefetch(sim._level_zero, range(1, 2),
                           sim.PREFETCH_MIN_DRAWS)
            noise.normals(1, 0, 0, 1)       # the helper has started
            (helper,) = [t for t in threading.enumerate()
                         if t.name.startswith("ThreadPoolExecutor")]
            return os.sched_getaffinity(helper.native_id)

        def on_one_core():
            os.sched_setaffinity(0, {min(allowed)})
            noise = sim.NoiseStream(2)
            try:
                found.append(helper_cores(noise))
            finally:
                noise.close()

        allowed, found = os.sched_getaffinity(0), []
        noise = sim.NoiseStream(2)
        try:
            cores = helper_cores(noise)
        finally:
            noise.close()
        assert len(cores) == len(allowed) - 1 and cores < allowed
        # a caller held to one core leaves the helper on that core
        caller = threading.Thread(target=on_one_core)
        caller.start()
        caller.join(60)
        assert found == [{min(allowed)}]
        assert os.sched_getaffinity(0) == allowed

    def test_cli_import_and_verify_start_no_thread(self, tmp_path):
        code = ("import threading\n"
                "started = []\n"
                "start = threading.Thread.start\n"
                "def spy(self):\n"
                "    started.append(self.name)\n"
                "    start(self)\n"
                "threading.Thread.start = spy\n"
                "import duobath.cli\n"
                "cfg = sys.argv[1] + '/run.cfg'\n"
                "open(cfg, 'w').write('verify.n = 1000\\n')\n"
                "code = duobath.cli.main(['verify', '--preset', 'smallk-k04',"
                " '--config', cfg, '--out', sys.argv[1] + '/out'])\n"
                "print(code, len(started), threading.active_count())\n")
        env = {"PYTHONPATH": str(Path(sim.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", "import sys\n" + code,
                              str(tmp_path)], env=env, check=True,
                             capture_output=True, text=True, timeout=300)
        assert out.stdout.splitlines()[-1].split() == ["0", "0", "1"]


class TestNoiseStreamLookahead:
    def _fresh(self, key, w1, w2, shape):
        bg = np.random.Philox(key=key, counter=[0, w1, w2, 0])
        return np.random.Generator(bg).standard_normal(shape)

    @staticmethod
    def _words(step):
        return 0, step

    def test_a_waiting_caller_draws_a_later_block(self, monkeypatch):
        # the helper holds its first block until the caller has drawn a
        # block, so asking for that first block always finds it running
        depth, size = sim.PREFETCH_DEPTH, sim.PREFETCH_MIN_DRAWS
        assert depth >= 2
        draw, caller = sim._Reseated.draw, threading.get_ident()
        started, taken = threading.Event(), threading.Event()
        drawn = {"caller": [], "helper": []}

        def gated(self, word1, word2, shape):
            here = threading.get_ident() == caller
            drawn["caller" if here else "helper"].append((word1, word2))
            if not here and (word1, word2) == (0, 1):
                started.set()
                if not taken.wait(10):
                    raise RuntimeError("the caller took no block over")
            out = draw(self, word1, word2, shape)
            if here:
                taken.set()
            return out

        monkeypatch.setattr(sim._Reseated, "draw", gated)
        noise = sim.NoiseStream(13)
        try:
            noise.prefetch(self._words, range(1, 1 + depth), size)
            assert started.wait(60)
            got = {s: noise.block(0, s, size) for s in range(1, 1 + depth)}
        finally:
            noise.close()
        # the latest queued block, not yet started, was drawn here instead
        # of idling, the others by the helper, each once
        assert drawn["caller"] == [(0, depth)]
        assert drawn["helper"] == [(0, s) for s in range(1, depth)]
        for s, z in got.items():
            assert np.array_equal(z, self._fresh(noise.key, 0, s, size))

    def test_prefix_of_a_prefetched_block_equals_fresh_philox(self):
        noise = sim.NoiseStream(13)
        n = 4096
        try:
            for m in (1, 2, 3, 7, 64, 511, 1000, 2047, 3001, 4095, 4096):
                noise.prefetch(sim._level_zero, range(5, 6), 4 * n)
                got = noise.normals(5, 0, 0, (4, m))
                assert np.array_equal(got, self._fresh(noise.key, 0, 5 << 8,
                                                       (4, m)))
        finally:
            noise.close()

    def test_requests_the_block_cannot_serve_draw_here(self):
        noise = sim.NoiseStream(13)
        size = sim.PREFETCH_MIN_DRAWS
        try:
            noise.prefetch(self._words, range(9, 10), size)
            # other words, then more draws than were prefetched
            for w1, w2, shape in ((0, 8, size), (1, 9, 3), (0, 9, size + 1),
                                  (0, 9, 5)):
                assert np.array_equal(noise.block(w1, w2, shape),
                                      self._fresh(noise.key, w1, w2, shape))
            # below the floor nothing is prefetched
            noise.prefetch(self._words, range(10, 11), size - 1)
            assert noise.block(0, 10, size - 1).shape == (size - 1,)
            assert noise._ahead == {}
        finally:
            noise.close()


    def test_blocks_under_thread_switching_stress(self, monkeypatch):
        # four streams at once, each with its own helper (eight threads on
        # fewer cores), switching threads every microsecond: every block
        # read equals a fresh Philox and no stream draws a block twice
        draw, drawn = sim._Reseated.draw, []

        def spy(self, word1, word2, shape):
            drawn.append((int(self._state["state"]["key"][0]), word1, word2))
            return draw(self, word1, word2, shape)

        monkeypatch.setattr(sim._Reseated, "draw", spy)
        size, n_steps, bad = sim.PREFETCH_MIN_DRAWS, 200, []

        def run(seed):
            noise = sim.NoiseStream(seed)
            try:
                for step in range(n_steps):
                    noise.prefetch(self._words, range(step + 1, n_steps),
                                   size)
                    z = noise.block(0, step, size)
                    if not np.array_equal(z, self._fresh(noise.key, 0, step,
                                                         size)):
                        bad.append((seed, step))
            finally:
                noise.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(seed,))
                       for seed in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads), "a run hung"
        assert bad == []
        assert len(set(drawn)) == len(drawn) == 4 * n_steps


class TestPinnedOutputs:
    """SHA-256 of run_paths' final state (float64, C order) as the allocating
    kernel above computed it, so the in-place kernel is held to every bit.
    Keying the noise on path blocks (ROADMAP open item 2) changes these
    digests on purpose; that change replaces them."""

    @staticmethod
    def _digest(*args):
        for _, s in sim.run_paths(*args):
            pass
        return hashlib.sha256(s.as_array().tobytes()).hexdigest()

    def test_level_zero_only(self):
        cfg = sim.IntegratorConfig(dt=0.005, substep_cap=50.0)
        assert self._digest(X0, 256, 7, 200, cfg, P2) == (
            "ac24b6fb43847b6d916f6763d64021f79717b18ac953df4742072912b2375bf7")

    def test_stiff_levels_zero_to_three(self):
        assert self._digest(State4(2.0, -2.0, 0.0, 0.0), 64, 11, 40,
                            STIFF_CFG, STIFF) == (
            "34c614b6da785f0ae3cf906b53049b47ae9beaf6c5d7941ce289bb42b08fae75")


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
                                       max_halvings=0)
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

    def _scheme_moment(self, dt, t):
        # the k=1 chain is linear, so one step is affine in (state, draws);
        # iterate the exact second-moment recursion of the scheme itself
        nd = 4

        def core(q0, q1, p0, p1, h, params, z):
            return sim._strang(q0, q1, p0, p1, *forces(q0, q1, params),
                               sim._coefficients(h, params), params, z)[:4]

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
        # the Strang split chain, the only scheme, has weak order 2
        t = 2.0
        exact = self._energy_of_moment(self._exact_second_moment(t))
        dts = np.array([0.2, 0.1, 0.05, 0.025])
        errs = [abs(self._energy_of_moment(self._scheme_moment(dt, t)) - exact)
                for dt in dts]
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert abs(slope - 2.0) < 0.3, (slope, errs)

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
        {"dt": 0.0},
        {"dt": math.inf},         # would run zero steps
        {"dt": math.nan},
        {"t_end": -1.0},          # would record only t = 0
        {"t_end": math.inf},      # would overflow the step count
        {"t_end": math.nan},
        {"dt": 1e-320},           # t_end / dt overflows to inf
        {"t_end": 1e3, "dt": 1e-15},   # 10**18 steps, above 2**56
    ])
    def test_rejected(self, bad):
        with pytest.raises(ValueError):
            sim.IntegratorConfig(**bad)

    def test_extremes_and_off_switch_accepted(self):
        for ok in ({"max_halvings": 0}, {"max_halvings": 255},
                   {"t_end": 0.0}):
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
        a = sim.hill_estimator(x, 0.05)
        b = sim.hill_estimator(c * x, 0.05)
        assert a.index == pytest.approx(b.index, rel=1e-12)

    def test_insufficient_tail_rejected(self):
        with pytest.raises(ValueError):
            sim.hill_estimator(np.ones(500) + np.arange(500), 0.01)

    def test_non_finite_and_non_positive_values_are_dropped(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(size=20_000) ** (-1 / 1.5)
        junk = [np.nan, np.inf, -np.inf, 0.0, -0.0, -1.0, -1e300, np.nan,
                np.inf, 0.0]
        mixed = rng.permutation(np.concatenate([x, junk, -x[:100]]))
        assert (sim.hill_estimator(mixed, 0.05)
                == sim.hill_estimator(x, 0.05))   # bit for bit, field by field

    @pytest.mark.parametrize("top_fraction", [1.0, 1.5])
    def test_no_threshold_sample_rejected(self, top_fraction):
        # the threshold is the largest sample below the tail; a tail of the
        # whole sample has none
        x = np.random.default_rng(0).uniform(size=5000) ** (-1 / 2.0)
        with pytest.raises(ValueError, match="leaves no threshold"):
            sim.hill_estimator(x, top_fraction)


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
            sim.tv_proxy(np.zeros((10, 2)), np.zeros((11, 2)), 4)

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

    def test_non_decaying_flag_is_a_plain_bool(self):
        # the convergence report writes the flag with json
        t = np.linspace(1, 10, 20)
        f = sim.fit_decay(t, 1.0 + 0.01 * t)
        assert f.inconclusive is True

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            sim.fit_decay([1, 2, 3], [1, 0.5, 0.2])
