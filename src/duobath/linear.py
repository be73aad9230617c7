"""Small-stiffness (k <= 1) machinery: the 3x3 drift matrix in reduced
coordinates, the exponentially weighted Gram form S, and the bounded force
surrogate used when the pinning force itself is bounded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams, quintic_bridge, v1_prime, v1_second


def build_matrices(params: ModelParams) -> np.ndarray:
    """Linear drift A in y = (q, p0, p1) with q = (q0 - q1)/2."""
    a, g = params.alpha, params.gamma
    return np.array([[0.0, 0.5, -0.5],
                     [-2 * a, -g, 0.0],
                     [2 * a, 0.0, 0.0]])


def spectral_abscissa(M: np.ndarray) -> float:
    return float(np.max(np.real(np.linalg.eigvals(M))))


@dataclass(frozen=True)
class GramForm:
    S: np.ndarray
    gamma_tilde: float


def build_gram(A: np.ndarray, gamma_tilde: float) -> GramForm:
    """Gram form S of the exponentially weighted controllability-type
    integral, the solution of A^T S + S A + gamma_tilde S = -I.

    Requires the spectral abscissa of A to lie below -gamma_tilde/2 so the
    defining integral converges.
    """
    absc = spectral_abscissa(A)
    if not absc < -gamma_tilde / 2:
        raise ValueError(
            f"integral diverges: spectral abscissa {absc:.6g} is not below "
            f"-gamma_tilde/2 = {-gamma_tilde / 2:.6g}")
    from scipy.linalg import solve_continuous_lyapunov

    n = A.shape[0]
    S = solve_continuous_lyapunov((A + 0.5 * gamma_tilde * np.eye(n)).T,
                                  -np.eye(n))
    eig = np.linalg.eigvalsh(S)
    if eig.min() <= 0:
        raise ValueError("computed Gram form is not positive definite")
    return GramForm(S=S, gamma_tilde=gamma_tilde)


def default_gamma_tilde(A: np.ndarray) -> float:
    """0.9 of the largest admissible decay rate 2|spectral abscissa|."""
    return 0.9 * 2.0 * abs(spectral_abscissa(A))


# ---------------------------------------------------------------------------
# bounded force surrogate

@dataclass(frozen=True)
class ForceSurrogate:
    """G with G = -V1' for |q| >= 2 r_eps and G = -r_eps^(2k-2) q for
    |q| <= r_eps, joined by a quintic blend; both pieces oppose q, so
    G V1' <= 0 everywhere.  Satisfies G V1' <= C - |V1'|^2 and
    |G|^2 <= C + |V1'|^2 with sup|G'| <= eps."""

    eps: float
    k: float
    r_eps: float
    c_eps: float
    params: ModelParams

    # g and g_prime read the bridge before they allocate the force arrays,
    # so its temporaries add nothing to the peak memory of g_eps_profile's
    # 100000-point scans
    def g(self, q):
        q = np.asarray(q, dtype=float)
        w = quintic_bridge((np.abs(q) - self.r_eps) / self.r_eps)[0]
        inner = -q * self.r_eps ** (2 * self.k - 2)
        outer = -v1_prime(q, self.params)
        return (1.0 - w) * inner + w * outer

    def g_prime(self, q):
        q = np.asarray(q, dtype=float)
        w, dw = quintic_bridge((np.abs(q) - self.r_eps) / self.r_eps)[:2]
        dw = dw / self.r_eps * np.sign(q)
        inner = -q * self.r_eps ** (2 * self.k - 2)
        d_inner = -self.r_eps ** (2 * self.k - 2) * np.ones_like(q)
        outer = -v1_prime(q, self.params)
        d_outer = -v1_second(q, self.params)
        return (1.0 - w) * d_inner + w * d_outer + dw * (outer - inner)


def g_eps_profile(eps: float, k: float) -> ForceSurrogate:
    """Search the smallest power-of-two radius whose surrogate has measured
    sup |G'| <= eps, then report the realized constant C_eps from a scan."""
    if not (0.5 < k < 1):
        raise ValueError("force surrogate is defined for 1/2 < k < 1")
    if eps <= 0:
        raise ValueError("eps must be positive")
    params = ModelParams(alpha=1.0, gamma=1.0, t_cold=1.0, t_hot=1.0,
                         k=k, smoothing="regularized")
    r = 1.0
    for _ in range(40):
        # G' = -r^(2k-2) on |q| <= r, so such a radius fails the scan below
        if (sup_d := r ** (2 * k - 2)) > eps:
            r *= 2.0
            continue
        prof = ForceSurrogate(eps=eps, k=k, r_eps=r, c_eps=0.0, params=params)
        q = np.linspace(-4 * r, 4 * r, 100_000)
        sup_d = float(np.max(np.abs(prof.g_prime(q))))
        # outside 4 r the slope |V1''| only decays; the scan window suffices
        if sup_d <= eps:
            # both defining inequalities are equalities-at-zero for |q| >= 2r,
            # so their maxima live on [-2r, 2r]; scan slightly beyond
            qs = np.linspace(-2.5 * r, 2.5 * r, 100_000)
            gv = prof.g(qs) * v1_prime(qs, params)
            v2 = v1_prime(qs, params) ** 2
            c1 = float(np.max(gv + v2))
            c2 = float(np.max(prof.g(qs) ** 2 - v2))
            c_eps = max(c1, c2, 0.0) * (1.0 + 1e-4) + 1e-12
            return ForceSurrogate(eps=eps, k=k, r_eps=r, c_eps=c_eps,
                                  params=params)
        r *= 2.0
    raise ValueError(
        f"no radius up to 2^40 achieves sup|G'| <= {eps} "
        f"for k = {k} (last sup = {sup_d:.3g})")
