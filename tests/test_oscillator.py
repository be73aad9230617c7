import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from duobath import oscillator as osc


def period_quadrature_oracle(E, k):
    """Independent oracle: 4 * int_0^Qmax dQ / P(Q), adaptive quadrature with
    the square-root endpoint singularity removed by the substitution
    u = sin(theta)^(1/k)."""
    qm = osc.q_max(E, k)

    def integrand(theta):
        return np.sin(theta) ** (1 / k - 1) / k

    val, err = quad(integrand, 1e-12, np.pi / 2, limit=200)
    return 4 * qm / np.sqrt(2 * E) * val, err


class TestPeriod:
    def test_harmonic(self):
        for E in (0.2, 1.0, 5.0):
            assert osc.orbit_period(E, 1.0) == pytest.approx(2 * np.pi)

    def test_scaling_law_quartic(self):
        assert osc.orbit_period(16.0, 2.0) / osc.orbit_period(1.0, 2.0) \
            == pytest.approx(0.5, abs=1e-12)

    def test_against_quadrature_oracle(self):
        for k in (1.3, 2.0, 3.0):
            oracle, err = period_quadrature_oracle(1.0, k)
            assert osc.orbit_period(1.0, k) == pytest.approx(oracle, abs=1e-8 + 10 * err)

    def test_scaling_exponent_by_fit(self):
        for k in (1.5, 2.0):
            es = np.array([1.0, 4.0, 16.0, 64.0])
            ps = np.array([osc.orbit_period(e, k) for e in es])
            slope = np.polyfit(np.log(es), np.log(ps), 1)[0]
            assert abs(slope - (1 - k) / (2 * k)) < 1e-6

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            osc.orbit_period(-1.0, 2.0)
        with pytest.raises(ValueError):
            osc.orbit_period(1.0, 0.0)


class TestOrbit:
    def test_harmonic_is_sine(self):
        orb = osc.build_orbit(0.5, 1.0, n=256)
        ts = np.arange(orb.n) * orb.period / orb.n
        assert np.allclose(orb.Q, np.sin(ts), atol=1e-9)
        assert np.allclose(orb.P, np.cos(ts), atol=1e-9)

    def test_energy_drift(self):
        for k in (1.5, 2.0, 3.0):
            orb = osc.build_orbit(1.0, k)
            e = orb.P ** 2 / 2 + np.abs(orb.Q) ** (2 * k) / (2 * k)
            assert np.max(np.abs(e - 1.0)) < 1e-14
            quarter = orb.n // 4
            assert orb.Q[0] == 0.0 and orb.P[0] == np.sqrt(2.0)
            assert orb.Q[quarter] == osc.q_max(1.0, k)
            assert orb.P[quarter] == 0.0

    def test_closed_form_matches_integrated_quarter_orbit(self):
        # independent reference: the quarter orbit integrated from Q = 0 by
        # DOP853 at tight tolerances
        for k in (1.0, 1.5, 2.0, 3.0):
            for E in (1.0, 16.0):
                orb = osc.build_orbit(E, k)
                nq = orb.n // 4
                sol = solve_ivp(
                    lambda _, y: [y[1], -y[0] * np.abs(y[0]) ** (2 * k - 2)],
                    (0.0, orb.period / 4), [0.0, np.sqrt(2 * E)],
                    t_eval=np.arange(nq + 1) * orb.period / orb.n,
                    rtol=1e-12, atol=1e-14,
                    method="DOP853")
                assert sol.success
                assert np.max(np.abs(orb.Q[:nq + 1] - sol.y[0])) < 1e-10
                assert np.max(np.abs(orb.P[:nq + 1] - sol.y[1])) < 1e-10

    def test_zero_means(self):
        orb = osc.build_orbit(2.0, 2.0)
        assert abs(np.mean(orb.P)) < 1e-14
        assert abs(np.mean(orb.Q)) < 1e-14

    def test_interpolation_order(self):
        # doubling the node count must shrink off-node residuals
        k = 2.0
        t_probe = np.linspace(0.05, 0.9, 37) * osc.orbit_period(1.0, k)
        fine = osc.build_orbit(1.0, k, n=8192)
        ref = osc.periodic_interp(fine.Q, t_probe / fine.period)
        errs = []
        for n in (128, 256):
            orb = osc.build_orbit(1.0, k, n=n)
            got = osc.periodic_interp(orb.Q, t_probe / orb.period)
            errs.append(np.max(np.abs(got - ref)))
        assert errs[1] < 0.5 * errs[0]

    def test_node_count_validation(self):
        with pytest.raises(ValueError):
            osc.build_orbit(1.0, 2.0, n=32)
        with pytest.raises(ValueError):
            osc.build_orbit(1.0, 2.0, n=130)

    def test_time_lookup_roundtrip(self):
        # off-node angles plus the four quadrant boundaries
        fr = np.concatenate([np.linspace(0.0, 0.999, 173),
                             [0.0, 0.25, 0.5, 0.75]])
        for k in (1.2, 1.5, 2.0, 3.0):
            orb = osc.build_orbit(1.0, k)
            P, Q = orb.at_angle(1.0, fr).state()
            t = orb.time_of(P, Q)
            err = np.abs(t / orb.period - fr)
            err = np.minimum(err, 1.0 - err)
            assert np.max(err) < 1e-9


class TestAverages:
    """Orbit averages are plain means over the uniform-time nodes."""

    def test_odd_symmetry(self):
        orb = osc.reference_orbit(2.0)
        assert abs(np.mean(orb.Q)) < 1e-14
        assert abs(np.mean(orb.P)) < 1e-14

    def test_virial_constant(self):
        for k in (1.0, 1.5, 2.0, 3.0):
            avg = np.mean(osc.reference_orbit(k).P ** 2)
            assert abs(avg - osc.k_const(k)) < 1e-8

    def test_virial_scales_with_energy(self):
        for (E, k) in ((4.0, 1.5), (16.0, 2.0)):
            avg = np.mean(osc.build_orbit(E, k).P ** 2)
            assert abs(avg - osc.k_const(k) * E) < 1e-8 * E

    def test_centred_combination_quartic(self):
        # P^2 - (4/3) H_f averages to zero at k=2, any energy
        for E in (1.0, 16.0):
            orb = osc.build_orbit(E, 2.0)
            g = lambda P, Q: P ** 2 - (4.0 / 3.0) * (P ** 2 / 2 + Q ** 4 / 4)
            assert abs(np.mean(g(orb.P, orb.Q))) < 1e-8


class TestPoisson:
    def test_rhs_p_gives_q(self):
        # du/dt = P has solution Q (centred already), with dP Q = d2P Q = 0
        orb = osc.reference_orbit(2.0)
        sol = osc.solve_poisson(orb, orb.P, np.ones_like(orb.P),
                                rhs_scaling=0.5)
        assert sol.orbit is orb
        assert np.allclose(sol.angle_profile, orb.Q, atol=1e-9)
        assert np.allclose(sol.dP_profile, 0.0, atol=1e-9)
        assert np.allclose(sol.d2P_profile, 0.0, atol=1e-9)

    def test_rejects_uncentred(self):
        orb = osc.reference_orbit(2.0)
        with pytest.raises(ValueError, match="not centred"):
            osc.solve_poisson(orb, orb.P ** 2, 2 * orb.P, rhs_scaling=1.0)

    def test_residual_highorder_fd(self):
        # d/dt of the returned profile reproduces the rhs
        for k in (1.5, 2.0):
            sol = osc.build_phi(k)
            orb = sol.orbit
            u, h = sol.angle_profile, orb.period / orb.n
            c = np.array([1 / 280, -4 / 105, 1 / 5, -4 / 5, 0,
                          4 / 5, -1 / 5, 4 / 105, -1 / 280])
            du = sum(ci * np.roll(u, -s) for ci, s in zip(c, range(-4, 5))) / h
            assert np.max(np.abs(du - orb.Q)) < 1e-8

    def test_zero_orbit_mean(self):
        for build in (osc.build_phi, osc.build_psi, osc.build_xi):
            sol = build(2.0)
            assert abs(np.mean(sol.angle_profile)) < 1e-10

    def test_scaling_exponents(self):
        k = 2.0
        assert osc.build_phi(k).scaling_exponent == pytest.approx(0.0)
        assert osc.build_psi(k).scaling_exponent == pytest.approx(-0.25)
        assert osc.build_xi(k).scaling_exponent == pytest.approx(-0.25)
        assert osc.build_xi_tilde(k).scaling_exponent == pytest.approx(0.75)
        k = 1.5
        assert osc.build_phi(k).scaling_exponent == pytest.approx(1 / k - 0.5)
        assert osc.build_psi(k).scaling_exponent == pytest.approx(3 / (2 * k) - 1)
        assert osc.build_xi(k).scaling_exponent == pytest.approx(5 / (2 * k) - 1.5)

    def test_k_range_guard(self):
        with pytest.raises(ValueError):
            osc.build_phi(2.5)
        with pytest.raises(ValueError):
            osc.build_psi(0.9)

    def test_scaling_law_across_energies(self):
        # values on a higher orbit equal (E2/E1)^a angle-matched reference
        k, E2 = 1.5, 9.0
        psi = osc.build_psi(k)
        ref = psi.orbit
        orb2 = osc.build_orbit(E2, k)
        fr = np.linspace(0.013, 0.987, 61)
        P2, Q2 = orb2.at_angle(1.0, fr).state()
        got = value(psi, P2, Q2)
        want = E2 ** psi.scaling_exponent \
            * value(psi, *ref.at_angle(1.0, fr).state())
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-6

    def test_derivative_profiles_vs_two_orbit_fd(self):
        # independent oracle: central differences of the scaled form across
        # neighbouring energies / P offsets
        phi = osc.build_phi(2.0)
        orb = phi.orbit
        fr = np.linspace(0.02, 0.98, 50)
        P0, Q0 = orb.at_angle(1.0, fr).state()
        _, dP, dQ, d2P = phi.eval_all(orb.lookup(P0, Q0))
        h = 1e-5
        fd_p = (value(phi, P0 + h, Q0) - value(phi, P0 - h, Q0)) / (2 * h)
        assert np.max(np.abs(fd_p - dP)) < 1e-5
        fd_q = (value(phi, P0, Q0 + h) - value(phi, P0, Q0 - h)) / (2 * h)
        assert np.max(np.abs(fd_q - dQ)) < 1e-5
        h2 = 1e-4
        fd_pp = (value(phi, P0 + h2, Q0) - 2 * value(phi, P0, Q0)
                 + value(phi, P0 - h2, Q0)) / h2 ** 2
        assert np.max(np.abs(fd_pp - d2P)) < 1e-4


def value(sol, P, Q):
    return sol.eval_all(sol.orbit.lookup(P, Q))[0]


def lagrange_reference(values, frac, order=8):
    """Periodic Lagrange interpolation with the O(order^2) weight loop."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    x = np.mod(np.asarray(frac, dtype=float), 1.0) * n
    base = np.floor(x).astype(int)
    u = x - base
    offsets = np.arange(-(order // 2 - 1), order // 2 + 1)
    idx = np.mod(base[..., None] + offsets, n)
    w = np.ones((*u.shape, order))
    for a in range(order):
        for b in range(order):
            if a != b:
                w[..., a] *= (u - offsets[b]) / (offsets[a] - offsets[b])
    return np.sum(w * values[idx], axis=-1)


class TestLookup:
    def test_stencil_matches_lagrange_reference(self):
        rng = np.random.default_rng(5)
        n = 64
        values = rng.standard_normal(n)
        frac = np.concatenate([
            rng.uniform(0.0, 1.0, 500),                # random
            np.arange(n) / n,                          # exact nodes
            1.0 - np.array([1e-16, 1e-12, 1e-8, 1e-4]),  # just below 1
            rng.uniform(-3.0, 0.0, 200),               # negative
        ])
        got = osc.periodic_interp(values, frac)
        assert np.max(np.abs(got - lagrange_reference(values, frac))) < 1e-14

    def test_lookup_on_another_orbit_rejected(self):
        phi = osc.build_phi(2.0)
        other = osc.build_orbit(1.0, 2.0, n=256)
        with pytest.raises(ValueError):
            phi.eval_all(other.lookup(np.ones(3), np.ones(3)))


class TestConstants:
    def test_c_hat_reference_value(self):
        assert abs(osc.c_hat() - 0.6354699) < 1e-6

    def test_c_hat_scale_invariance(self):
        # independent second pipeline at E=4; phi scales like H_f^0 at k=2
        orb4 = osc.build_orbit(4.0, 2.0)
        sol4 = osc.solve_poisson(orb4, orb4.Q, np.zeros_like(orb4.P),
                                 rhs_scaling=1 / 4)
        c4 = float(np.mean(sol4.angle_profile ** 2))
        assert abs(c4 - osc.c_hat()) < 1e-8

    def test_k_const_values(self):
        assert osc.k_const(1.0) == pytest.approx(1.0)
        assert osc.k_const(2.0) == pytest.approx(4.0 / 3.0)
