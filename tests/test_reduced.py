import hashlib
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from duobath import reduced as rd
from duobath.model import ModelParams
from duobath.oscillator import c_hat, k_const
from duobath.simulate import PREFETCH_MIN_DRAWS, IntegrationError

CH = c_hat()


def params(k=2.0, t_hot=0.3, **kw):
    smoothing = "regularized" if k < 1 else "pure-power"
    return ModelParams(alpha=1.0, gamma=1.0, t_cold=1.0, t_hot=t_hot, k=k,
                       smoothing=smoothing, **kw)


class TestStationaryDensity:
    def test_power_law_closed_form(self):
        d = rd.stationary_density(rd.ReducedParams(eta=3.0, sigma=-1.0))
        xs = np.array([1.0, 2.0, 5.0])
        assert np.allclose(d.pdf(xs), 2.0 * xs ** -3.0)
        assert d.cdf(3.0) == pytest.approx(1 - 3.0 ** -2)

    def test_exponential_closed_form(self):
        d = rd.stationary_density(rd.ReducedParams(eta=1.0, sigma=0.0))
        xs = np.array([1.0, 2.0, 4.0])
        assert np.allclose(d.pdf(xs), np.exp(1 - xs))

    def test_normalization_by_quadrature(self):
        for (eta, sigma) in ((1.0, -0.5), (2.0, 0.5), (0.5, 1.0), (3.0, -1.0)):
            d = rd.stationary_density(rd.ReducedParams(eta=eta, sigma=sigma))
            total, err = quad(d.pdf, 1.0, np.inf, limit=200)
            assert abs(total - 1.0) < 1e-10 + 10 * err

    def test_no_invariant_measure_cases(self):
        with pytest.raises(rd.NoInvariantMeasure):
            rd.stationary_density(rd.ReducedParams(eta=1.0, sigma=-1.0))
        with pytest.raises(rd.NoInvariantMeasure):
            rd.stationary_density(rd.ReducedParams(eta=1.0, sigma=-2.0))
        with pytest.raises(rd.NoInvariantMeasure):
            rd.stationary_density(rd.ReducedParams(eta=-0.5, sigma=-1.0))


class TestSimulation:
    def test_deterministic_under_seed(self):
        rp = rd.ReducedParams(eta=1.0, sigma=0.0)
        a = rd.simulate_reduced(rp, 0.01, 5.0, 256, seed=9)
        b = rd.simulate_reduced(rp, 0.01, 5.0, 256, seed=9)
        assert np.array_equal(a, b)
        c = rd.simulate_reduced(rp, 0.01, 5.0, 256, seed=10)
        assert not np.array_equal(a, c)

    def test_strong_mean_reversion_concentrates(self):
        s = rd.simulate_reduced(rd.ReducedParams(eta=20.0, sigma=1.0),
                                0.002, 10.0, 4000, seed=1)
        assert s.mean() < 1.5
        assert np.all(s >= 1.0)

    def test_ccdf_slope_heavy_tail(self):
        s = rd.sample_stationary(rd.ReducedParams(eta=3.0, sigma=-1.0),
                                 dt=0.02, burn_in=800.0, n_paths=4000,
                                 n_snapshots=8, snapshot_gap=80.0, seed=4)
        xs = np.geomspace(3.0, 30.0, 12)
        ccdf = np.array([(s > x).mean() for x in xs])
        slope = np.polyfit(np.log(xs), np.log(ccdf), 1)[0]
        assert abs(slope + 2.0) < 0.35


def _ref_sign_abs_run(rp, dt, n_steps, n_paths, seed):
    """The surrogate step with the drift read as sign(X) |X|^sigma, valid
    for any X; the bitwise reference of run_reduced, whose X stays >= 1."""
    x = np.ones(n_paths)
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    sq = math.sqrt(2.0 * dt)
    out = [x.copy()]
    for step in range(n_steps):
        bg = np.random.Generator(np.random.Philox(key=key,
                                                  counter=[0, 0, step, 0]))
        xi = bg.standard_normal(n_paths)
        x = x - rp.eta * np.sign(x) * np.abs(x) ** rp.sigma * dt + sq * xi
        below = x < 1.0
        if np.any(below):
            x[below] = 2.0 - x[below]
        out.append(x.copy())
    return out


class TestRunReduced:
    @pytest.mark.parametrize("sigma", [-1.0, -0.5, 0.0, 1.0])
    def test_equals_sign_abs_step(self, sigma):
        rp = rd.ReducedParams(eta=1.5, sigma=sigma)
        want = _ref_sign_abs_run(rp, 0.05, 300, 500, 3)
        got = list(rd.run_reduced(rp, 0.05, 300, 500, 3))
        assert [i for i, _ in got] == list(range(301))
        for (_, x), y in zip(got, want):
            assert np.array_equal(x, y)

    def test_yielded_states_are_never_written_to(self):
        rp = rd.ReducedParams(eta=1.0, sigma=-0.5)
        kept = [(x, x.copy()) for _, x in rd.run_reduced(rp, 0.1, 50, 200, 1)]
        assert all(np.array_equal(x, c) for x, c in kept)
        assert len({id(x) for x, _ in kept}) == len(kept)

    def test_simulate_reduced_is_the_last_state(self):
        rp = rd.ReducedParams(eta=1.0, sigma=0.0)
        *_, (i, x) = rd.run_reduced(rp, 0.01, 500, 256, 9)
        assert i == 500
        assert np.array_equal(rd.simulate_reduced(rp, 0.01, 5.0, 256, 9), x)

    def test_sample_stationary_keeps_every_gap_after_burn_in(self):
        rp = rd.ReducedParams(eta=3.0, sigma=-1.0)
        states = [x for _, x in rd.run_reduced(rp, 0.02, 1000 + 4 * 150, 300,
                                               4)]
        want = np.concatenate(states[1150::150])
        got = rd.sample_stationary(rp, dt=0.02, burn_in=20.0, n_paths=300,
                                   n_snapshots=4, snapshot_gap=3.0, seed=4)
        assert np.array_equal(got, want)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_state_raises_with_time_and_path(self):
        rp = rd.ReducedParams(eta=2.0, sigma=3.0)
        with pytest.raises(IntegrationError) as exc:
            rd.simulate_reduced(rp, 0.1, 20.0, 1000, 0)
        assert exc.value.time > 0 and 0 <= exc.value.path < 1000
        err = exc.value
        assert str(err) == (f"non-finite state in ensemble at t={err.time:g}, "
                            f"path {err.path}")

    def test_zero_snapshots_rejected(self):
        rp = rd.ReducedParams(eta=1.0, sigma=0.0)
        with pytest.raises(ValueError, match="n_snapshots must be >= 1"):
            rd.sample_stationary(rp, 0.1, 1.0, 10, 0, 0.5, 0)

    def test_above_the_prefetch_floor_equals_fresh_philox_per_step(self):
        # each step's block is drawn a step ahead on a helper thread
        rp, n = rd.ReducedParams(eta=1.0, sigma=-0.5), 10_000
        assert n >= PREFETCH_MIN_DRAWS
        want = _ref_sign_abs_run(rp, 0.01, 60, n, 5)
        got = list(rd.run_reduced(rp, 0.01, 60, n, 5))
        assert len(got) == len(want)
        for (_, x), y in zip(got, want):
            assert np.array_equal(x, y)
        assert np.array_equal(rd.simulate_reduced(rp, 0.01, 0.6, n, 5),
                              want[-1])

    # SHA-256 of simulate_reduced's final X (float64) as the per-step fresh
    # Philox generator computed it; the reseated NoiseStream keeps every bit
    @pytest.mark.parametrize("eta,sigma,dt,t_end,n_paths,seed,digest", [
        (1.0, -0.5, 0.01, 20.0, 1000, 5,
         "989485f963d32c624a1a9ebb5a4a51c6e73eab5fc6fe200f931eb8d23330e3cd"),
        (3.0, -1.0, 0.02, 6.0, 300, 4,
         "5ab692714d1abb9da661b929536e9af5f437b2a29388300c7a64bf14d8c22f5a"),
    ])
    def test_final_state_is_pinned(self, eta, sigma, dt, t_end, n_paths,
                                   seed, digest):
        x = rd.simulate_reduced(rd.ReducedParams(eta=eta, sigma=sigma), dt,
                                t_end, n_paths, seed)
        assert hashlib.sha256(x.tobytes()).hexdigest() == digest

    def test_non_positive_dt_rejected(self):
        rp = rd.ReducedParams(eta=1.0, sigma=0.0)
        for dt in (0.0, -0.01):
            with pytest.raises(ValueError, match="dt must be positive"):
                rd.simulate_reduced(rp, dt, 1.0, 10, 0)
            with pytest.raises(ValueError, match="dt must be positive"):
                rd.sample_stationary(rp, dt, 1.0, 10, 2, 0.5, 0)


class TestHelperThread:
    """The helper that draws the next block ends with the run."""

    RP = rd.ReducedParams(eta=1.0, sigma=-0.5)
    N = 10_000

    def test_ends_when_the_run_is_exhausted(self):
        base = threading.active_count()
        rd.simulate_reduced(self.RP, 0.01, 0.1, self.N, 1)
        assert threading.active_count() == base

    def test_ends_when_the_run_is_closed_early(self):
        base = threading.active_count()
        run = rd.run_reduced(self.RP, 0.01, 50, self.N, 1)
        for i, _ in run:
            if i == 3:
                break
        assert threading.active_count() == base + 1
        run.close()
        assert threading.active_count() == base

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_ends_when_the_run_raises(self):
        base = threading.active_count()
        with pytest.raises(IntegrationError):
            rd.simulate_reduced(rd.ReducedParams(eta=2.0, sigma=3.0), 0.1,
                                20.0, self.N, 0)
        assert threading.active_count() == base


class TestClassifiers:
    def test_reduced_rows(self):
        r = rd.classify_reduced(rd.ReducedParams(eta=3.0, sigma=-1.0))
        assert r.regime_id == "sigma=-1,eta>1"
        assert r.integrability.params["exponent"] == pytest.approx(2.0)
        assert r.speed.params["exponent"] == pytest.approx(1.0)
        assert r.prefactor.params["exponent"] == pytest.approx(4.0)

        r = rd.classify_reduced(rd.ReducedParams(eta=1.0, sigma=-0.5))
        assert r.speed.kind == "stretched-decay"
        assert r.speed.params["exponent"] == pytest.approx(1.0 / 3.0)

        r = rd.classify_reduced(rd.ReducedParams(eta=1.0, sigma=-2.0))
        assert (r.integrability.kind, r.speed.kind, r.prefactor.kind) \
            == ("none", "none", "none")

    def test_constants(self):
        assert rd.zeta_star(1.0, 0.6354699, 0.3) == pytest.approx(0.8386748, abs=1e-7)
        assert rd.zeta_star(1.0, CH, CH) == pytest.approx(0.0)
        assert rd.kappa(2.0) == pytest.approx(0.0)
        assert rd.kappa(1.0) == pytest.approx(1.0)

    def test_heuristic_reduction_branches(self):
        rp = rd.heuristic_reduction(2.0, params(t_hot=CH), CH, k_const(2.0))
        assert rp.sigma == -1.0
        assert rp.eta == pytest.approx(1.0)  # critical coupling

        rp = rd.heuristic_reduction(1.5, params(k=1.5), 1.0, k_const(1.5))
        assert rp.sigma == pytest.approx(4.0 / 1.5 - 3.0)

        rp = rd.heuristic_reduction(0.25, params(k=0.25), 1.0, k_const(0.25))
        assert rp.sigma == pytest.approx(-0.5)

        rp = rd.heuristic_reduction(3.0, params(k=3.0), 1.0, k_const(3.0))
        assert rp.sigma == -1.0 and rp.eta < 1.0

        with pytest.raises(ValueError):
            rd.heuristic_reduction(1.0, params(k=1.0), 1.0, k_const(1.0))
        with pytest.raises(ValueError):
            rd.heuristic_reduction(-1.0, params(), 1.0, 1.0)

    def test_full_rows(self):
        assert rd.classify_full(3.0, params(k=3.0), CH).regime_id == "k>2"
        r = rd.classify_full(1.5, params(k=1.5), CH)
        assert r.integrability.kind == "exp-power"
        assert r.integrability.params["exponent"] == pytest.approx(1.0 / 3.0)
        assert r.speed.params["exponent"] == pytest.approx(0.5)
        r1 = rd.classify_full(1.0, params(k=1.0), CH)
        assert r1.speed.kind == "exp-decay"
        assert r1.prefactor.kind == "power"   # H^eps prefactor row

    def test_critical_cell_undetermined(self):
        r = rd.classify_full(2.0, params(t_hot=CH), CH)
        assert r.regime_id == "k=2-critical"
        assert r.speed.kind == "undetermined"

    def test_boundaries(self):
        # regime changes occur exactly at k in {0, 1/2, 1, 4/3, 2}
        ids = [rd.classify_full(k, params(k=max(k, 1e-3), t_hot=0.3), CH).regime_id
               if k > 0 else rd.classify_full(k, params(), CH).regime_id
               for k in (-1.0, 0.0, 0.3, 0.5, 0.8, 1.0, 1.2, 4.0 / 3.0,
                         1.7, 2.0, 2.3)]
        assert ids == ["k<=0", "k<=0", "0<k<=1/2", "1/2<=k<1", "1/2<=k<1",
                       "k=1", "1<k<=4/3", "1<k<=4/3", "4/3<=k<2",
                       "k=2-sub", "k>2"]

    @given(st.floats(min_value=-3.0, max_value=5.0,
                     allow_nan=False, allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    def test_total_on_reals(self, k):
        p = params(k=k if k >= 1 else max(k, 0.01), t_hot=0.3)
        row = rd.classify_full(k, p, CH)
        assert row.regime_id != "k=2-critical"
        assert row.speed.kind in ("none", "poly-decay", "stretched-decay",
                                  "exp-decay")

    def test_speed_family_correspondence(self):
        # reduction -> surrogate classifier agrees with the full table
        cases = [(0.25, 0.3), (0.75, 0.3), (1.5, 0.3), (2.0, 0.3),
                 (2.0, 2.0 * CH), (3.0, 0.3)]
        for k, th in cases:
            p = params(k=k, t_hot=th)
            rp = rd.heuristic_reduction(k, p, CH if k == 2.0 else 1.0,
                                        k_const(k))
            red = rd.classify_reduced(rp)
            full = rd.classify_full(k, p, CH)
            assert red.speed.kind == full.speed.kind, (k, th)
            if red.speed.kind == "stretched-decay":
                assert red.speed.params["exponent"] == pytest.approx(
                    full.speed.params["exponent"])
            if k == 2.0 and th < CH:
                # zeta = (eta - 1)/2 correspondence, exact
                assert (rp.eta - 1) / 2 == pytest.approx(
                    rd.zeta_star(1.0, CH, th))


class TestFamily:
    def test_describe_ignores_last_bit_moves(self):
        a = 0.8386747797947538
        got = [rd.Family("power", {"exponent": e, "pm": "eps"}).describe()
               for e in (a, a + 1e-13)]
        assert got == ["power(exponent=0.838674779795, pm=eps)"] * 2
        assert rd.Family("exp-power", {"exponent": 2.0}).describe() == \
            "exp-power(exponent=2.0)"
