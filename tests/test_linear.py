import numpy as np
import pytest
import scipy.linalg as sla

from duobath import linear as ln
from duobath.lyapunov import _jet_qhat
from duobath.model import ModelParams, State4, quintic_bridge, v1_prime


def params(alpha=1.0, gamma=1.0, k=1.0, smoothing="pure-power"):
    return ModelParams(alpha=alpha, gamma=gamma, t_cold=1.0, t_hot=1.0,
                       k=k, smoothing=smoothing)


class TestDriftMatrices:
    def test_determinant_and_stability_100_draws(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a, g = rng.uniform(0.1, 5.0, 2)
            A = ln.build_matrices(params(alpha=a, gamma=g))
            assert abs(np.linalg.det(A) + g * a) < 1e-12 * max(1.0, g * a)
            assert ln.spectral_abscissa(A) < 0

    def test_eigenvalues_against_companion_oracle(self):
        # characteristic polynomial l^3 + g l^2 + 2a l + g a,
        # realized independently as a companion matrix
        a = g = 1.0
        A = ln.build_matrices(params(alpha=a, gamma=g))
        comp = np.array([[0, 1, 0], [0, 0, 1], [-g * a, -2 * a, -g]])
        got = np.sort_complex(np.linalg.eigvals(A))
        want = np.sort_complex(np.linalg.eigvals(comp))
        assert np.max(np.abs(got - want)) < 1e-10

    def test_reduced_coordinates_consistent_with_drift(self):
        # dy = A y + force terms: check the linear part against the model
        # drift at a state with V1' frozen out (q0 = q1 = 0)
        p = params(alpha=1.3, gamma=0.7)
        A = ln.build_matrices(p)
        from duobath.model import drift_and_noise
        st = State4(q0=0.2, q1=-0.2, p0=0.4, p1=-0.1)
        d, _ = drift_and_noise(st, p)
        y = np.array([0.5 * (st.q0 - st.q1), st.p0, st.p1])
        ay = A @ y
        # remove the pinning force (k=1 pure power: V1' = q)
        assert ay[0] == pytest.approx(0.5 * (d[0] - d[1]))
        assert ay[1] == pytest.approx(d[2] + st.q0)
        assert ay[2] == pytest.approx(d[3] + st.q1)


class TestGramForm:
    def test_identity_case(self):
        g = ln.build_gram(-np.eye(3), 1.0)
        assert np.allclose(g.S, np.eye(3))

    def test_residual_and_scipy_cross_check(self):
        A = ln.build_matrices(params())
        gt = ln.default_gamma_tilde(A)
        gram = ln.build_gram(A, gt)
        res = A.T @ gram.S + gram.S @ A + gt * gram.S + np.eye(3)
        assert np.max(np.abs(res)) < 1e-10
        s_ref = sla.solve_continuous_lyapunov(
            (A + gt / 2 * np.eye(3)).T, -np.eye(3))
        assert np.max(np.abs(s_ref - gram.S)) < 1e-9

    def test_contraction_inequality(self):
        A = ln.build_matrices(params())
        gt = ln.default_gamma_tilde(A)
        gram = ln.build_gram(A, gt)
        rng = np.random.default_rng(2)
        for t in (0.1, 1.0, 10.0):
            phi = sla.expm(A * t)
            for _ in range(100):
                y = rng.normal(size=3)
                z = phi @ y
                assert z @ gram.S @ z \
                    <= np.exp(-gt * t) * (y @ gram.S @ y) * (1 + 1e-10)

    def test_divergent_rate_rejected(self):
        A = ln.build_matrices(params())
        with pytest.raises(ValueError):
            ln.build_gram(A, 10.0)

    def test_deterministic_flow_decays_in_gram_norm(self):
        A = ln.build_matrices(params(alpha=2.0, gamma=1.5))
        gt = ln.default_gamma_tilde(A)
        gram = ln.build_gram(A, gt)
        rng = np.random.default_rng(3)
        ts = np.linspace(0.0, 5.0, 41)
        for _ in range(100):
            y0 = rng.normal(size=3)
            ys = [sla.expm(A * t) @ y0 for t in ts]
            vals = [y @ gram.S @ y for y in ys]
            assert np.all(np.diff(vals) < 0)


class TestCorrector:
    """The corrected center of mass Q_hat, read from the jet that the
    weak-pinning drift family W_smallk composes with V1."""

    def test_symmetric_state(self):
        j = _jet_qhat(State4(1.0, 1.0, 0.0, 0.0), params())
        assert j.value == pytest.approx(1.0)

    def test_hand_value(self):
        # Q = 1/2, y = (1/2, 2, 4): Q_hat = Q + y_q + (p0 + p1)/gamma = 4
        j = _jet_qhat(State4(1.0, 0.0, 2.0, 4.0), params(gamma=2.0))
        assert j.value == pytest.approx(4.0)
        assert (j.d_q0, j.d_q1, j.d_p0, j.d_p1) == (1.0, 0.0, 0.5, 0.5)
        assert j.d2_p0 == 0.0 and j.d2_p1 == 0.0

    def test_poisson_property_frozen_potential(self):
        # L_Q applied to -<a, y> equals <1, y>/2 - psi(Q), both sides exact
        p = params(alpha=1.7, gamma=2.3)
        A = ln.build_matrices(p)
        rng = np.random.default_rng(4)
        for _ in range(50):
            y = rng.normal(size=3)
            Q = rng.normal() * 3
            # weights of y = (q, p0, p1) in Q_hat: d/dq = d/dq0 - d/dq1
            j = _jet_qhat(State4(Q + y[0], Q - y[0], y[1], y[2]), p)
            a = np.array([j.d_q0 - j.d_q1, j.d_p0, j.d_p1])
            assert j.d_q0 + j.d_q1 == 1.0     # Q enters with unit weight
            v1p = v1_prime(Q, p)
            one = np.array([0.0, 1.0, 1.0])
            # L_Q phi = <A y + v1'(Q) * (-one... drift of y at frozen Q>, grad phi>
            drift_y = A @ y - v1p * one
            lhs = drift_y @ (-a)
            rhs = (y[1] + y[2]) / 2 - (-(2 / p.gamma) * v1p)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestForceSurrogate:
    def test_exact_negative_force_far_out(self):
        prof = ln.g_eps_profile(0.1, 0.75)
        q = np.array([2.5 * prof.r_eps, -3.0 * prof.r_eps])
        assert np.allclose(prof.g(q), -v1_prime(q, prof.params))

    def test_blend_is_the_quintic_bridge(self):
        prof = ln.g_eps_profile(0.1, 0.75)
        q = np.linspace(-2.5, 2.5, 201) * prof.r_eps
        w = quintic_bridge((np.abs(q) - prof.r_eps) / prof.r_eps)[0]
        inner = -q * prof.r_eps ** (2 * prof.k - 2)
        assert np.array_equal(prof.g(q), (1.0 - w) * inner
                              + w * -v1_prime(q, prof.params))

    def test_derivative_bound_on_grid(self):
        prof = ln.g_eps_profile(0.1, 0.75)
        q = np.linspace(-8 * prof.r_eps, 8 * prof.r_eps, 100_001)
        assert np.max(np.abs(prof.g_prime(q))) <= 0.1

    def test_defining_inequalities(self):
        prof = ln.g_eps_profile(0.1, 0.75)
        q = np.linspace(-4 * prof.r_eps, 4 * prof.r_eps, 100_001)
        vp = v1_prime(q, prof.params)
        assert np.max(prof.g(q) * vp + vp ** 2) <= prof.c_eps
        assert np.max(prof.g(q) ** 2 - vp ** 2) <= prof.c_eps

    def test_derivative_consistency(self):
        prof = ln.g_eps_profile(0.2, 0.6)
        q = np.linspace(-3 * prof.r_eps, 3 * prof.r_eps, 2001)
        h = prof.r_eps * 1e-7
        fd = (prof.g(q + h) - prof.g(q - h)) / (2 * h)
        assert np.max(np.abs(fd - prof.g_prime(q))) < 1e-5

    @pytest.mark.parametrize("eps,k", [(0.005, 0.75), (0.1, 0.75),
                                       (0.2, 0.6)])
    def test_surrogate_opposes_the_pinning_force(self, eps, k):
        # G V1' <= 0 through the linear core and the blend, not only far out
        prof = ln.g_eps_profile(eps, k)
        q = np.linspace(-10 * prof.r_eps, 10 * prof.r_eps, 200_001)
        assert np.max(prof.g(q) * v1_prime(q, prof.params)) <= 0.0

    @pytest.mark.parametrize("eps,k", [(0.005, 0.75), (0.1, 0.75),
                                       (0.2, 0.6), (0.01, 0.9)])
    def test_radius_search_equals_scan_from_one(self, eps, k):
        # reference: scan every power-of-two radius from 1, none skipped
        prof = ln.g_eps_profile(eps, k)
        r = 1.0
        for _ in range(40):
            ref = ln.ForceSurrogate(eps=eps, k=k, r_eps=r, c_eps=0.0,
                                    params=prof.params)
            q = np.linspace(-4 * r, 4 * r, 100_000)
            if float(np.max(np.abs(ref.g_prime(q)))) <= eps:
                break
            r *= 2.0
        qs = np.linspace(-2.5 * r, 2.5 * r, 100_000)
        v2 = v1_prime(qs, prof.params) ** 2
        c1 = float(np.max(ref.g(qs) * v1_prime(qs, prof.params) + v2))
        c2 = float(np.max(ref.g(qs) ** 2 - v2))
        c_eps = max(c1, c2, 0.0) * (1.0 + 1e-4) + 1e-12
        assert (prof.r_eps, prof.c_eps) == (r, c_eps)

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            ln.g_eps_profile(0.1, 0.4)
        with pytest.raises(ValueError):
            ln.g_eps_profile(-0.5, 0.75)
