import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from duobath.model import (ModelParams, State4, Jet2, jet_coord, jet_const,
                           jet_hamiltonian, v1_eval, v1_prime, v1_second,
                           hamiltonian, drift_and_noise, generator_of_jet,
                           carre_of_jets)


P2 = ModelParams(alpha=1.0, gamma=1.0, t_cold=1.0, t_hot=0.3, k=2.0)
P2R = replace(P2, smoothing="regularized")


def random_states(n, seed=0, scale=2.0):
    rng = np.random.default_rng(seed)
    return State4(*(rng.normal(0, scale, n) for _ in range(4)))


class TestParams:
    def test_positivity_enforced(self):
        for field in ("alpha", "gamma", "t_cold", "t_hot"):
            for bad in (0.0, math.inf, math.nan):
                with pytest.raises(ValueError):
                    ModelParams(**{**dict(alpha=1, gamma=1, t_cold=1, t_hot=1,
                                          k=2.0), field: bad})
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="k must be finite"):
                ModelParams(alpha=1, gamma=1, t_cold=1, t_hot=1, k=bad)
        # negative k stays legal: classify_full sorts it into "k<=0"
        ModelParams(alpha=1, gamma=1, t_cold=1, t_hot=1, k=-1.0,
                    smoothing="regularized")

    def test_pure_power_rejected_below_k1(self):
        with pytest.raises(ValueError):
            ModelParams(alpha=1, gamma=1, t_cold=1, t_hot=1, k=0.5)
        ModelParams(alpha=1, gamma=1, t_cold=1, t_hot=1, k=0.5,
                    smoothing="regularized")


class TestPotential:
    def test_minimum_at_origin(self):
        assert v1_eval(0.0, P2R) == 0.0
        assert v1_eval(0.0, replace(P2R, k=0.7)) == 0.0

    def test_pure_power_value(self):
        assert v1_eval(1.0, P2) == pytest.approx(0.25)

    def test_regularized_matches_power_at_infinity(self):
        # relative gap ~ k q^{-2} shrinking like q^-2
        g10 = abs(v1_eval(10.0, P2R) - 10.0 ** 4 / 4) / (10.0 ** 4 / 4)
        g20 = abs(v1_eval(20.0, P2R) - 20.0 ** 4 / 4) / (20.0 ** 4 / 4)
        assert g10 < 0.021
        assert g20 < 0.3 * g10  # ~ factor 4 shrink

    def test_derivatives_consistent(self):
        q = np.linspace(-3, 3, 41)
        h = 1e-6
        for p in (P2, P2R, replace(P2R, k=0.75)):
            fd = (v1_eval(q + h, p) - v1_eval(q - h, p)) / (2 * h)
            assert np.allclose(fd, v1_prime(q, p), atol=1e-7)
            fd2 = (v1_prime(q + h, p) - v1_prime(q - h, p)) / (2 * h)
            assert np.allclose(fd2, v1_second(q, p), atol=1e-6)

    def test_harmonic_pure_power_is_exact(self):
        # at k = 1 the general power formula gives V1' = q and V1'' = 1 to
        # the bit, signed zeros, subnormals, infinities and NaN included
        p1 = replace(P2, k=1.0)
        q = np.array([0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan,
                      *np.random.default_rng(0).normal(0, 1e3, 1000)])
        assert v1_prime(q, p1).tobytes() == q.tobytes()
        assert np.all(v1_second(q, p1) == 1.0)


class TestHamiltonian:
    def test_zero_state(self):
        assert hamiltonian(State4(0, 0, 0, 0), P2R) == 0.0

    def test_symmetric_positions_drop_coupling(self):
        x = State4(1.0, 1.0, 0.0, 0.0)
        assert hamiltonian(x, replace(P2, alpha=7.0)) == pytest.approx(0.5)

    def test_hand_value(self):
        assert hamiltonian(State4(1.0, -1.0, 2.0, 0.0), P2) == pytest.approx(4.5)


class TestDrift:
    def test_origin_is_fixed_point(self):
        d, _ = drift_and_noise(State4(0, 0, 0, 0), P2)
        assert np.allclose(d, 0.0)

    def test_no_friction_on_p1(self):
        # structural: p1-drift is independent of p1
        x1 = State4(0.3, -0.2, 0.7, 5.0)
        x2 = State4(0.3, -0.2, 0.7, -11.0)
        d1, _ = drift_and_noise(x1, P2)
        d2, _ = drift_and_noise(x2, P2)
        assert d1[3] == d2[3]

    def test_hand_value(self):
        d, (s0, s1) = drift_and_noise(State4(1.0, -1.0, 0.0, 0.0), P2)
        assert d[2] == pytest.approx(-3.0)
        assert s0 == pytest.approx(np.sqrt(2 * 1 * 1))
        assert s1 == pytest.approx(np.sqrt(2 * 1 * 0.3))

    def test_hamiltonian_structure_by_finite_differences(self):
        # q-drifts equal dH/dp; p-drifts equal -dH/dq after removing friction
        x = random_states(50, seed=3)
        d, _ = drift_and_noise(x, P2)
        h = 1e-5
        dq0 = (hamiltonian(State4(x.q0 + h, x.q1, x.p0, x.p1), P2)
               - hamiltonian(State4(x.q0 - h, x.q1, x.p0, x.p1), P2)) / (2 * h)
        dp0 = (hamiltonian(State4(x.q0, x.q1, x.p0 + h, x.p1), P2)
               - hamiltonian(State4(x.q0, x.q1, x.p0 - h, x.p1), P2)) / (2 * h)
        assert np.allclose(d[0], dp0, atol=1e-6)
        assert np.allclose(d[2] + P2.gamma * np.asarray(x.p0), -dq0, atol=1e-6)


class TestGenerator:
    def test_kills_constants(self):
        x = random_states(20, seed=1)
        assert np.allclose(generator_of_jet(jet_const(3.7), x, P2), 0.0)

    def test_energy_drift_identity(self):
        # L H = gamma (T + T_inf) - gamma p0^2, exactly
        x = random_states(1000, seed=2, scale=3.0)
        lh = generator_of_jet(jet_hamiltonian(x, P2), x, P2)
        expect = P2.gamma * (P2.t_cold + P2.t_hot) - P2.gamma * np.asarray(x.p0) ** 2
        assert np.max(np.abs(lh - expect)) < 1e-12 * (1 + np.max(np.abs(expect)))

    def test_p1_squared_hand_value(self):
        x = State4(1.0, -1.0, 0.0, 3.0)
        p1 = jet_coord("p1", x)
        got = generator_of_jet(0.5 * (p1 * p1), x, P2)
        assert got == pytest.approx(3.0 * (1.0 + 2.0) + P2.gamma * P2.t_hot)


class TestCarreDuChamp:
    def test_energy_form(self):
        x = random_states(100, seed=4)
        jh = jet_hamiltonian(x, P2)
        g = carre_of_jets(jh, jh, P2)
        expect = P2.gamma * (P2.t_cold * np.asarray(x.p0) ** 2
                             + P2.t_hot * np.asarray(x.p1) ** 2)
        assert np.allclose(g, expect, rtol=1e-14)

    def test_constant_kills(self):
        x = random_states(10, seed=5)
        g = carre_of_jets(jet_hamiltonian(x, P2), jet_const(2.0), P2)
        assert np.allclose(g, 0.0)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_symmetric_bilinear(self, seed):
        rng = np.random.default_rng(seed)
        x = State4(*(rng.normal(0, 2, 5) for _ in range(4)))
        a, b = rng.normal(), rng.normal()

        f = jet_coord("p0", x) * jet_coord("q1", x)
        g = jet_coord("p1", x) * jet_coord("p1", x)
        gfg = carre_of_jets(f, g, P2)
        ggf = carre_of_jets(g, f, P2)
        assert np.allclose(gfg, ggf)
        lhs = carre_of_jets(a * f + b * g, g, P2)
        rhs = a * gfg + b * carre_of_jets(g, g, P2)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


class TestChainRule:
    def test_square_of_p0(self):
        # L(phi o g) = phi'(g) Lg + phi''(g) Gamma(g, g) for phi(s) = s^2
        x = random_states(200, seed=6)
        g = jet_coord("p0", x)
        lhs = generator_of_jet(g * g, x, P2)
        lg = generator_of_jet(g, x, P2)
        gam = carre_of_jets(g, g, P2)
        rhs = 2 * np.asarray(x.p0) * lg + 2 * gam
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * (1 + np.max(np.abs(rhs)))

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_polynomial_jets(self, seed):
        # random quadratic field, phi(s) = s^3: identity to 1e-10 relative
        rng = np.random.default_rng(seed)
        c = rng.normal(size=5)
        x = State4(*(rng.normal(0, 1.5, 3) for _ in range(4)))

        jg = (c[0] * jet_coord("q0", x) + c[1] * jet_coord("p1", x)
              + c[2] * (jet_coord("p0", x) * jet_coord("q1", x))
              + c[3] * (jet_coord("p1", x) * jet_coord("p1", x))
              + c[4])
        lhs = generator_of_jet(
            jg.compose(lambda v: v ** 3, lambda v: 3 * v ** 2,
                       lambda v: 6 * v), x, P2)
        rhs = (3 * jg.value ** 2 * generator_of_jet(jg, x, P2)
               + 6 * jg.value * carre_of_jets(jg, jg, P2))
        scale = 1 + np.max(np.abs(rhs))
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * scale
