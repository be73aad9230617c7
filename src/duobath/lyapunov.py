"""Drift test functions as exact jet fields, numerical sign verification of
drift conditions on high-energy shells, and the two-function non-existence
report.

All sign checks are floating-point verifications on sampled shells, not
certificates; reports say so and carry the sampled evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .model import (REGULARIZED, ModelParams, State4, Jet2, jet_coord,
                    jet_const, jet_of_coord, jet_v1, jet_v1_prime,
                    jet_hamiltonian, jet_power, hamiltonian, generator_of_jet,
                    carre_of_jets, quintic_bridge, v1_eval, v1_prime,
                    v1_second)
from . import oscillator as osc
from . import reduced as rd
from .linear import GramForm, build_matrices, build_gram, \
    default_gamma_tilde, g_eps_profile


# ---------------------------------------------------------------------------
# cutoff: 1 on (-inf, 1], 0 on [2, inf), C^2 at both ends

def jet_cutoff(u: Jet2) -> Jet2:
    """Jet of 1 - S(v - 1) at the jet's value v, S the quintic bridge;
    0.0 - S' rather than -S' keeps the derivatives +0.0 outside the blend."""
    s, d1, d2 = quintic_bridge(u.value - 1.0)
    return u.chain(1.0 - s, 0.0 - d1, 0.0 - d2)


# ---------------------------------------------------------------------------
# jets of scaled orbit functions and of the oscillator energies

def jet_free_energy(P: Jet2, Q: Jet2, k: float) -> Jet2:
    """H_f(P, Q) = P^2/2 + |Q|^(2k)/(2k) of two jet fields."""
    pot = Q.compose(
        lambda v: np.abs(v) ** (2 * k) / (2 * k),
        lambda v: v * np.abs(v) ** (2 * k - 2),
        lambda v: (2 * k - 1) * np.abs(v) ** (2 * k - 2),
    )
    return 0.5 * (P * P) + pot


# ---------------------------------------------------------------------------
# drift forms: how L acts on a built test function

@dataclass
class DriftSample:
    drift: np.ndarray           # L W for plain forms, L W / W for exp forms
    aux: Dict[str, np.ndarray]


class PlainForm:
    """A field W evaluated through its jet; drift = L W.

    If `h_coeff` is nonzero, that multiple of the total energy is carried
    analytically (L H = gamma (T + T_inf) - gamma p0^2), which removes the
    dominant cancellation at very high shells.

    Every form carries `shell_phi`, the solution sample_shell corrects p0
    with on its shells (None: uncorrected), and `parameters`, what its
    report records.
    """

    kind = "plain"

    def __init__(self, jet_fn, name: str, h_coeff: float = 0.0, *,
                 shell_phi: Optional[osc.CenteredSolution] = None,
                 parameters: Optional[Dict[str, float]] = None):
        self.jet_fn = jet_fn         # (x, params) -> Jet2 of W minus h_coeff*H
        self.name = name
        self.h_coeff = h_coeff
        self.shell_phi = shell_phi
        self.parameters = parameters or {}

    def jet(self, x, params) -> Jet2:
        j = self.jet_fn(x, params)
        if self.h_coeff:
            j = j + self.h_coeff * jet_hamiltonian(x, params)
        return j

    def evaluate_full(self, x: State4, params: ModelParams):
        """(DriftSample, total jet); the H part's transport enters through
        the exact identity rather than through cancelling jet products."""
        j = self.jet_fn(x, params)
        drift = generator_of_jet(j, x, params)
        if self.h_coeff:
            g, T, Ti = params.gamma, params.t_cold, params.t_hot
            lh = g * (T + Ti) - g * np.asarray(x.p0, dtype=float) ** 2
            drift = drift + self.h_coeff * lh
            j = j + self.h_coeff * jet_hamiltonian(x, params)
        return DriftSample(drift=np.asarray(drift), aux={"value": j.value}), j

    def evaluate(self, x: State4, params: ModelParams) -> DriftSample:
        return self.evaluate_full(x, params)[0]

    def values(self, x, params):
        return self.jet(x, params).value


class ExpForm:
    """W = exp(phi(V)) checked on the log scale: drift = L W / W
    = phi'(V) L V + (phi''(V) + phi'(V)^2) Gamma(V, V)."""

    kind = "exp"

    def __init__(self, base: PlainForm, phi, dphi, d2phi, name: str, *,
                 shell_phi: Optional[osc.CenteredSolution] = None,
                 parameters: Optional[Dict[str, float]] = None):
        self.base = base
        self.phi, self.dphi, self.d2phi = phi, dphi, d2phi
        self.name = name
        self.shell_phi = shell_phi
        self.parameters = parameters or {}

    def evaluate(self, x: State4, params: ModelParams) -> DriftSample:
        s, j = self.base.evaluate_full(x, params)
        gamma2 = carre_of_jets(j, j, params)
        v = s.aux["value"]
        p1, p2 = self.dphi(v), self.d2phi(v)
        ratio = p1 * s.drift + (p2 + p1 * p1) * gamma2
        aux = dict(s.aux)
        aux["log_w"] = self.phi(v)
        return DriftSample(drift=np.asarray(ratio), aux=aux)

    def log_values(self, x, params):
        return self.phi(self.base.values(x, params))

    def values(self, x, params):
        return np.exp(self.log_values(x, params))


def _softmax(G):
    """exp(G - max G), its sum and log sum exp(G), all over axis 0."""
    m = G.max(axis=0)
    w = np.exp(G - m)
    tot = w.sum(axis=0)
    return w, tot, m + np.log(tot)


class SumExpForm:
    """W = sum_i exp(phi_i(V_i)); L W / W is the softmax-weighted mix of the
    component log-drifts, stable against overflow."""

    kind = "exp"
    shell_phi = None    # its components live on k <= 1, without orbits

    def __init__(self, components: Sequence[ExpForm], name: str, *,
                 parameters: Optional[Dict[str, float]] = None):
        self.components = list(components)
        self.name = name
        self.parameters = parameters or {}

    def evaluate(self, x: State4, params: ModelParams) -> DriftSample:
        samples = [c.evaluate(x, params) for c in self.components]
        w, tot, log_w = _softmax(np.stack([s.aux["log_w"] for s in samples]))
        ratio = (w * np.stack([s.drift for s in samples])).sum(axis=0) / tot
        return DriftSample(drift=ratio, aux={"log_w": log_w})

    def log_values(self, x, params):
        return _softmax(np.stack([c.log_values(x, params)
                                  for c in self.components]))[2]

    def values(self, x, params):
        return np.exp(self.log_values(x, params))


# ---------------------------------------------------------------------------
# the tables a family reads

def build_tables(params: ModelParams, names: Sequence[str], *,
                 eps: Optional[float] = None) -> dict:
    """The tables in `names`, by name: the orbit solutions "phi", "psi",
    "xi" and "xi_tilde" (each built by osc.build_<name>), the Gram form
    "gram" of the drift matrix and the force surrogate "g_eps" of slope
    bound eps."""
    tables = {}
    for name in names:
        if name == "gram":
            A = build_matrices(params)
            tables[name] = build_gram(A, default_gamma_tilde(A))
        elif name == "g_eps":
            tables[name] = g_eps_profile(eps, params.k)
        else:
            tables[name] = getattr(osc, "build_" + name)(params.k)
    return tables


def _orbit_jets(x: State4, tables: dict) -> Dict[str, Jet2]:
    """Jets at (p1, q1) of the orbit solutions in `tables`, all read from
    one angle lookup of the state batch (the solutions share phi's orbit)."""
    look = tables["phi"].orbit.lookup(x.p1, x.q1)
    out = {}
    for name, sol in tables.items():
        val, dp, dq, d2p = sol.eval_all(look)
        out[name] = Jet2(value=val, d_p1=dp, d_q1=dq, d2_p1=d2p)
    return out


# the corrections of the damped oscillator's energy
_CORRECTED = ("phi", "psi", "xi")


def _jet_ptilde(x, params, sj) -> Jet2:
    return jet_coord("p0", x) - params.alpha * sj["phi"]


def _jet_veff(x, params) -> Jet2:
    q0 = jet_coord("q0", x)
    return jet_v1("q0", x, params) + (0.5 * params.alpha) * (q0 * q0)


def _jet_veff_prime(x, params) -> Jet2:
    return jet_v1_prime("q0", x, params) + params.alpha * jet_coord("q0", x)


def _jet_ysy(x, gram: GramForm) -> Jet2:
    """<y, S y> with the fast coordinates y = ((q0 - q1)/2, p0, p1)."""
    y = [0.5 * (jet_coord("q0", x) - jet_coord("q1", x)),
         jet_coord("p0", x), jet_coord("p1", x)]
    out = jet_const(0.0)
    for i in range(3):
        for j in range(3):
            out = out + gram.S[i, j] * (y[i] * y[j])
    return out


def _jet_qhat(x, params) -> Jet2:
    """Corrected center of mass Q_hat = Q + <a, y> = q0 + (p0 + p1)/gamma,
    with Q = (q0 + q1)/2 and a = (1, 1/gamma, 1/gamma) solving the Poisson
    problem of the frozen-Q linear generator in y = ((q0 - q1)/2, p0, p1)."""
    return jet_coord("q0", x) \
        + (1.0 / params.gamma) * (jet_coord("p0", x) + jet_coord("p1", x))


def _jet_h0_cutoff(x, params, sj, theta, plateau) -> Jet2:
    a, g = params.alpha, params.gamma
    pt = _jet_ptilde(x, params, sj)
    q0 = jet_coord("q0", x)
    h0 = 0.5 * (pt * pt) + _jet_veff(x, params) + theta * (pt * q0)
    hf0 = jet_free_energy(pt, q0, params.k)
    psi_e = jet_cutoff((1.0 / plateau) * hf0)
    f_theta = a * (g - theta) * pt + a * _jet_veff_prime(x, params)
    corr = (a * a * (g - theta)) * sj["xi"] + f_theta * sj["psi"]
    return h0 - corr * psi_e


def _jet_v_klt2(x, params, sj, theta, eta_cutoff) -> Jet2:
    """The k < 2 coercive field, without its analytic H part."""
    a, g = params.alpha, params.gamma
    pt = _jet_ptilde(x, params, sj)
    q0 = jet_coord("q0", x)
    alpha_t = a * g * (a - g * theta / 4.0)
    c_t = a * theta - 2 * a * g + 0.5 * g * g * theta
    e0 = jet_free_energy(pt, q0, params.k) + 1.0
    e1 = jet_free_energy(jet_coord("p1", x), jet_coord("q1", x), params.k) + 1.0
    ratio = e0 * jet_power(e1, -eta_cutoff)
    cut = jet_cutoff(ratio)
    return (theta * (pt * q0)
            + alpha_t * sj["xi"]
            - c_t * (pt * sj["psi"] * cut))


def _linear(c):
    """(phi, phi', phi'') of the exponent phi(v) = c v."""
    return (lambda v: c * v, lambda v: c * np.ones_like(v),
            lambda v: np.zeros_like(v))


def _power(c, a):
    """(phi, phi', phi'') of the exponent phi(v) = c v^a."""
    return (lambda v: c * v ** a, lambda v: c * a * v ** (a - 1),
            lambda v: c * a * (a - 1) * v ** (a - 2))


# ---------------------------------------------------------------------------
# family builders: one per drift family, each taking the model and that
# family's parameters.  Plain (polynomial-scale) families return PlainForm;
# exponential families return ExpForm/SumExpForm and are meant to be checked
# on the log scale.

def v_k2(params: ModelParams, *, theta=-0.05, c=0.9, E=50.0) -> PlainForm:
    if not 0 < c < 1:
        raise ValueError("V_k2 requires 0 < c < 1")
    tables = build_tables(params, _CORRECTED)
    return PlainForm(
        lambda x, p: (-c) * _jet_h0_cutoff(x, p, _orbit_jets(x, tables),
                                           theta, E),
        name=f"V_k2(theta={theta}, c={c}, E={E})", h_coeff=1.0,
        shell_phi=tables["phi"], parameters={"theta": theta, "c": c, "E": E})


def v_klt2(params: ModelParams, *, theta=0.05, eta_cutoff=2.0) -> PlainForm:
    if eta_cutoff <= 0:
        raise ValueError("eta_cutoff must be positive")
    tables = build_tables(params, _CORRECTED)
    return PlainForm(
        lambda x, p: _jet_v_klt2(x, p, _orbit_jets(x, tables), theta,
                                 eta_cutoff),
        name=f"V_klt2(theta={theta}, eta={eta_cutoff})", h_coeff=1.0,
        shell_phi=tables["phi"],
        parameters={"theta": theta, "eta_cutoff": eta_cutoff})


def w_tail(params: ModelParams, *, theta=-0.05, c=0.9, E=50.0,
           zeta=0.4) -> PlainForm:
    tables = build_tables(params, _CORRECTED + ("xi_tilde",))

    def jet_fn(x, p):
        sj = _orbit_jets(x, tables)
        v = jet_hamiltonian(x, p) + (-c) * _jet_h0_cutoff(x, p, sj, theta, E)
        coef = p.gamma * zeta * (zeta + 1) * p.t_hot
        return (jet_power(v, zeta + 1)
                - coef * (jet_power(v, zeta) * sj["xi_tilde"]))

    return PlainForm(jet_fn, name=f"W_tail(zeta={zeta})",
                     shell_phi=tables["phi"],
                     parameters={"theta": theta, "c": c, "E": E, "zeta": zeta})


def w1_nonexist(params: ModelParams, *, theta=0.02, E=50.0, zeta=0.02,
                delta=0.1) -> PlainForm:
    if not 0 < zeta < 1:
        raise ValueError("W1_nonexist requires zeta in (0, 1)")
    tables = build_tables(params, _CORRECTED)

    def jet_fn(x, p):
        h = jet_hamiltonian(x, p)
        h0 = _jet_h0_cutoff(x, p, _orbit_jets(x, tables), theta, E)
        return jet_power(h, -zeta) * (h - (1.0 + delta) * h0)

    return PlainForm(jet_fn, name=f"W1_nonexist(zeta={zeta}, delta={delta})",
                     shell_phi=tables["phi"],
                     parameters={"theta": theta, "E": E, "zeta": zeta,
                                 "delta": delta})


def w_exp_frac(params: ModelParams, *, theta=0.05, eta_cutoff=2.0,
               kappa=None, delta=0.05) -> ExpForm:
    """exp(delta V^kappa) of the v_klt2 field V; kappa defaults to
    reduced.kappa(k) = 2/k - 1."""
    if kappa is None:
        kappa = rd.kappa(params.k)
    base = v_klt2(params, theta=theta, eta_cutoff=eta_cutoff)
    return ExpForm(base, *_power(delta, kappa),
                   name=f"exp({delta}*V^{kappa:.4g})", shell_phi=base.shell_phi,
                   parameters={"theta": theta, "eta_cutoff": eta_cutoff,
                               "kappa": kappa, "delta": delta})


def energy(params: ModelParams) -> PlainForm:
    """The total energy H, carried wholly through h_coeff."""
    return PlainForm(lambda x, p: jet_const(0.0), name="H", h_coeff=1.0)


def hat_h_smallk(params: ModelParams, *, xi=8.0, beta0=0.02, delta=1.0,
                 w=1.0, eps=0.05) -> ExpForm:
    """exp(beta0 hatH^delta) of the Gram energy (weight w rescales its unit
    norm) corrected by the force surrogate of slope bound eps."""
    if delta > 1.0:
        raise ValueError("hatH_smallk requires delta <= 1")
    tables = build_tables(params, ("gram", "g_eps"), eps=eps)
    prof = tables["g_eps"]

    def hat_jet(x, p):
        sy = _jet_ysy(x, tables["gram"])
        g0 = jet_of_coord("q0", x, prof.g, prof.g_prime)
        g1 = jet_of_coord("q1", x, prof.g, prof.g_prime)
        psum = jet_coord("p0", x) + jet_coord("p1", x)
        return w * sy - xi * (psum * (g0 + g1))

    base = PlainForm(hat_jet, name="hatH", h_coeff=1.0)
    return ExpForm(base, *_power(beta0, delta),
                   name=f"exp({beta0}*hatH^{delta})",
                   parameters={"xi": xi, "beta0": beta0, "delta": delta,
                               "w": w, "eps": eps})


def w_smallk(params: ModelParams, *, beta0=0.05, lam=1.0) -> SumExpForm:
    """exp(beta0 ySy) + exp(beta0 lam V1(Qhat)); lam is reported as
    "lambda"."""
    gram = build_tables(params, ("gram",))["gram"]

    def v1qhat_jet(x, p):
        return _jet_qhat(x, p).compose(lambda v: v1_eval(v, p),
                                       lambda v: v1_prime(v, p),
                                       lambda v: v1_second(v, p))

    ea = ExpForm(PlainForm(lambda x, p: _jet_ysy(x, gram), "ySy"),
                 *_linear(beta0), "exp(b0*ySy)")
    eb = ExpForm(PlainForm(v1qhat_jet, "V1(Qhat)"), *_linear(beta0 * lam),
                 "exp(b0*lam*V1(Qhat))")
    return SumExpForm([ea, eb], name=f"W_smallk(beta0={beta0}, lambda={lam})",
                      parameters={"beta0": beta0, "lambda": lam})


# ---------------------------------------------------------------------------
# shell sampling

HI_RATIO = 2.0   # each shell is the band H in [r, HI_RATIO * r]
# lower ends of the log-uniform oscillator energies; E1_FLOOR keeps the
# undamped oscillator out of the ball where orbit functions are untrusted
E0_FLOOR, E1_FLOOR = 1e-2, 2.0
# |H_f / E - 1| bound for orbit-table states: 1000x the worst measured error
ORBIT_ENERGY_TOL = 1e-5   # (7.4e-9 near k = 1.06, 4e-11 at k = 1.5)


@dataclass(frozen=True)
class ShellSpec:
    """Shell ladder of a verification: bands H in [r, HI_RATIO*r] from
    r = r0, which verify_sign doubles at most max_doublings times;
    wonham_report reads r0 only and uses N_SHELLS shells."""

    r0: float = 100.0
    max_doublings: int = 12

    def __post_init__(self):
        if self.r0 <= 0:
            raise ValueError("need r0 > 0")


def _kinetic_split(E, u, k):
    """(P, Q) at free energy E and angle fraction u without orbit tables
    (k <= 1): P = sqrt(2E) cos(2 pi u), |Q|^(2k)/(2k) takes the rest."""
    phi = 2 * np.pi * u
    P = np.sqrt(2 * E) * np.cos(phi)
    Q = np.sign(np.sin(phi)) * (2 * k * E * np.sin(phi) ** 2) ** (1 / (2 * k))
    return P, Q


def _v1_level(target, params):
    """|q| with V1(q) = target (regularized closed form / pure power)."""
    target = np.asarray(target, dtype=float)
    k = params.k
    if params.smoothing == REGULARIZED:
        return np.sqrt(np.maximum((2 * k * target + 1.0) ** (1 / k) - 1.0, 0.0))
    return (2 * k * target) ** (1 / (2 * k))


def _center_of_mass_batch(params, r_hi, m, half, rng):
    """States with both positions large and aligned and small fast variables:
    the dangerous direction of the weak-pinning regime; draws m, keeps [half:]."""
    h_pot = np.exp(rng.uniform(0.0, math.log(r_hi), m)[half:])
    Q = _v1_level(h_pot / 2.0, params) * rng.choice([-1.0, 1.0], m)[half:]
    spread = np.exp(rng.uniform(math.log(1e-2), math.log(math.sqrt(r_hi)),
                                m)[half:])
    q = spread * rng.standard_normal(m)[half:] * 0.5
    p0 = spread * rng.standard_normal(m)[half:]
    p1 = spread * rng.standard_normal(m)[half:]
    return Q + q, Q - q, p0, p1


def _orbit_states(params, e0, e1, u0, u1, phi, orbit) -> State4:
    """States on the free orbits at energies (e0, e1) and angle fractions
    (u0, u1), the damped momentum shifted by alpha * phi."""
    pt, q0 = orbit.at_angle(e0 / orbit.energy, u0).state()
    look1 = orbit.at_angle(e1 / orbit.energy, u1)
    p1, q1 = look1.state()
    if phi is not None:
        # phi read on the stencil that gave (p1, q1)
        pt = pt + params.alpha * phi.value(look1)
    return State4(q0=q0, q1=q1, p0=pt, p1=p1)


def _squeeze(params, e0, e1, r_lo, r_hi, phi, orbit) -> np.ndarray:
    """Which orbit candidates can have H in [r_lo, r_hi], from their
    oscillator energies alone (the bounds are in sample_shell)."""
    k, tol = params.k, ORBIT_ENERGY_TOL
    d = 0.0 if phi is None else (
        params.alpha * (e1 / orbit.energy) ** phi.scaling_exponent
        * osc.LEBESGUE * np.max(np.abs(phi.angle_profile)))
    cross = np.sqrt(2 * e0 * (1 + tol)) * d
    q0_max, q1_max = (2 * k * (1 + tol) * np.stack([e0, e1])) ** (1 / (2 * k))
    lo = (e0 + e1) * (1 - tol) - cross
    hi = (v1_eval(q0_max, params) + v1_eval(q1_max, params) + cross
          + d * d / 2 + params.alpha / 2 * (q0_max + q1_max) ** 2)
    return (lo <= r_hi) & (hi >= r_lo)


def _draw_batch(params: ModelParams, r_lo: float, r_hi: float, m: int,
                rng: np.random.Generator,
                phi: Optional[osc.CenteredSolution],
                orbit: Optional[osc.OrbitTable]) -> State4:
    """Of m candidates below r_hi, in draw order, those the band test must
    see: on orbits the ones the squeeze keeps, for k <= 1 all of them."""
    e0 = np.exp(rng.uniform(math.log(E0_FLOOR), math.log(r_hi), m))
    e1 = np.exp(rng.uniform(math.log(E1_FLOOR), math.log(r_hi), m))
    u0, u1 = rng.uniform(0, 1, m), rng.uniform(0, 1, m)
    if orbit is not None:
        keep = _squeeze(params, e0, e1, r_lo, r_hi, phi, orbit)
        return _orbit_states(params, e0[keep], e1[keep], u0[keep], u1[keep],
                             phi, orbit)
    half = m // 2    # the rest is the aligned center of mass
    pt, q0 = _kinetic_split(e0[:half], u0[:half], params.k)
    p1, q1 = _kinetic_split(e1[:half], u1[:half], params.k)
    qc0, qc1, pc0, pc1 = _center_of_mass_batch(params, r_hi, m, half, rng)
    return State4(q0=np.concatenate([q0, qc0]), q1=np.concatenate([q1, qc1]),
                  p0=np.concatenate([pt, pc0]), p1=np.concatenate([p1, pc1]))


MAX_BATCHES = 400      # candidate batches of 4n before the sampler gives up


def sample_shell(params: ModelParams, r_lo: float, r_hi: float, n: int,
                 rng: np.random.Generator,
                 phi: Optional[osc.CenteredSolution] = None) -> State4:
    """Draw n states with H in [r_lo, r_hi].

    Oscillator energies are drawn log-uniformly and independently, which
    exercises both single-oscillator axes.  For k <= 1 half the draws instead
    put the energy into the aligned center of mass with small fast variables.
    The damped momentum is corrected by phi at the undamped oscillator's
    drawn angle, so no angle is inverted.

    On orbits (k > 1) a squeeze rejects candidates from (e0, e1) before any
    lookup.  Orbit states hold e_i to 1 +- tol (ORBIT_ENERGY_TOL), |alpha phi|
    <= d = alpha (e1/E_orbit)^a LEBESGUE max|u0|, and V1 - |q|^(2k)/(2k) is >= 0
    and grows in |q|; so with m_i = (2k e_i (1 + tol))^(1/(2k)) and
    c = sqrt(2 e0 (1 + tol)) d, (e0 + e1)(1 - tol) - c <= H <= V1(m_0) +
    V1(m_1) + c + d^2/2 + alpha (m_0 + m_1)^2 / 2.  The accepted states and
    their order are those of the unfiltered loop.
    """
    orbit = osc.reference_orbit(params.k) if params.k > 1 else None
    keep: List[np.ndarray] = []
    kept = 0
    for _ in range(MAX_BATCHES):
        x = _draw_batch(params, r_lo, r_hi, 4 * n, rng, phi, orbit)
        h = hamiltonian(x, params)
        ok = (h >= r_lo) & (h <= r_hi)
        if np.any(ok):
            keep.append(np.stack([x.q0[ok], x.q1[ok], x.p0[ok], x.p1[ok]]))
            kept += int(ok.sum())
        if kept >= n:
            break
    if kept < n:
        raise RuntimeError(
            f"shell sampler could not reach {n} states in [{r_lo}, {r_hi}]")
    cat = np.concatenate(keep, axis=1)[:, :n]
    return State4(q0=cat[0], q1=cat[1], p0=cat[2], p1=cat[3])


# ---------------------------------------------------------------------------
# sign verification with radius doubling

VIOLATION_THRESHOLD = 1e-3   # largest violating fraction a passing shell has
STABLE_RUNS = 3              # equal verdicts in a row that end the doubling
MIN_SHELL_SAMPLES = 1000     # fewest states a shell is checked on (verify.n)
# name -> level of the margin quantiles each shell reports
MARGIN_QUANTILES = {"min": 0.0, "q01": 0.01, "q25": 0.25, "q50": 0.5,
                    "q75": 0.75, "max": 1.0}


@dataclass
class Predicate:
    """Margins >= 0 mean the drift condition holds at that state."""

    name: str
    margin_fn: Callable[[np.ndarray, Dict[str, np.ndarray], State4, ModelParams],
                        np.ndarray]

    def margins(self, drift, aux, states, params):
        return np.asarray(self.margin_fn(drift, aux, states, params))


def drift_below(bound: float, name: Optional[str] = None) -> Predicate:
    return Predicate(name or f"drift <= {bound}",
                     lambda d, a, s, p: bound - d)


def drift_below_scaled(coeff: float, aux_key: str, exponent: float,
                       name: Optional[str] = None) -> Predicate:
    """drift <= -coeff * aux[aux_key]^exponent (aux must be positive)."""

    def fn(d, a, s, p):
        return -coeff * a[aux_key] ** exponent - d

    return Predicate(name or f"drift <= -{coeff}*{aux_key}^{exponent:.4g}", fn)


@dataclass
class ShellResult:
    r_lo: float
    r_hi: float
    samples: int
    violations: int
    worst_margin: float
    margin_quantiles: Dict[str, float]
    verdict: bool


@dataclass
class VerificationReport:
    field: str
    predicate: str
    parameters: Dict[str, float]
    seed: int
    n_per_shell: int
    violation_threshold: float
    shells: List[ShellResult]
    stabilized: bool
    stabilization_radius: Optional[float]
    final_verdict: bool
    note: str = ("floating-point verification on sampled shells; "
                 "not an interval-arithmetic certificate")


def verify_sign(form, predicate: Predicate, shell: ShellSpec, n: int,
                seed: int, params: ModelParams) -> VerificationReport:
    """Evaluate the drift of `form` on energy shells, sampled with the form's
    shell_phi, and report sign violations, doubling the radius until the
    verdict repeats STABLE_RUNS times in a row."""
    if n < MIN_SHELL_SAMPLES:
        raise ValueError(
            f"need at least {MIN_SHELL_SAMPLES} samples per shell")
    shells: List[ShellResult] = []
    verdicts: List[bool] = []
    r = shell.r0
    stab_radius = None
    for d in range(shell.max_doublings + 1):
        rng = np.random.default_rng(np.random.SeedSequence((seed, d)))
        states = sample_shell(params, r, HI_RATIO * r, n, rng,
                              phi=form.shell_phi)
        s = form.evaluate(states, params)
        if not np.all(np.isfinite(s.drift)):
            raise RuntimeError(
                f"non-finite drift at shell [{r}, {HI_RATIO * r}]")
        margins = predicate.margins(s.drift, s.aux, states, params)
        viol = int(np.sum(margins < 0))
        qs = np.quantile(margins, list(MARGIN_QUANTILES.values()))
        res = ShellResult(
            r_lo=r, r_hi=HI_RATIO * r, samples=n, violations=viol,
            worst_margin=float(margins.min()),
            margin_quantiles=dict(zip(MARGIN_QUANTILES, map(float, qs))),
            verdict=(viol / n) < VIOLATION_THRESHOLD)
        shells.append(res)
        verdicts.append(res.verdict)
        if len(verdicts) >= STABLE_RUNS and \
                len(set(verdicts[-STABLE_RUNS:])) == 1:
            stab_radius = shells[-STABLE_RUNS].r_lo
            break
        r *= 2.0
    stabilized = stab_radius is not None
    final = verdicts[-1] if stabilized else False
    return VerificationReport(
        field=form.name, predicate=predicate.name,
        parameters=dict(form.parameters),
        seed=seed, n_per_shell=n,
        violation_threshold=VIOLATION_THRESHOLD, shells=shells,
        stabilized=stabilized, stabilization_radius=stab_radius,
        final_verdict=final)


# ---------------------------------------------------------------------------
# two-function non-existence report

N_SHELLS = 6     # doubling shells of the ladder; drifts use the last two


@dataclass
class HypothesisResult:
    name: str
    passed: bool
    evidence: Dict


@dataclass
class WonhamReport:
    hypotheses: List[HypothesisResult]
    passed: bool
    shells_checked: List[Tuple[float, float]]


def wonham_report(w1_form, params: ModelParams, shell: ShellSpec,
                  n: int = 4000, seed: int = 0) -> WonhamReport:
    """Check the four hypotheses of the two-function non-existence criterion
    on a ladder of N_SHELLS doubling shells from shell.r0.

    W1 is a plain form, W2 = H (energy) and F = gamma (T + T_inf) bounds
    L H = F - gamma p0^2.  Both are read and compared on the plain scale
    (every evidence entry's log_scale is False), on shells sampled with
    W1's shell_phi.
    """
    if w1_form.kind == "exp":
        raise ValueError("wonham_report checks plain forms only")
    w2 = energy(params)
    f = params.gamma * (params.t_cold + params.t_hot)
    phi = w1_form.shell_phi
    ladder = [shell.r0 * 2 ** i for i in range(N_SHELLS)]
    sup_w1, inf_w2, shells_checked = [], [], []
    viol_w1 = viol_w2 = 0
    samples_last = 0
    for i, r in enumerate(ladder):
        rng = np.random.default_rng(np.random.SeedSequence((seed, i, 77)))
        # sup/inf comparisons live on thin level sets H ~ R; the drift checks
        # use the full band
        level = sample_shell(params, r, 1.05 * r, n, rng, phi=phi)
        shells_checked.append((r, HI_RATIO * r))
        sup_w1.append(float(np.max(w1_form.values(level, params))))
        inf_w2.append(float(np.min(w2.values(level, params))))
        if i >= N_SHELLS - 2:
            states = sample_shell(params, r, HI_RATIO * r, n, rng, phi=phi)
            s1 = w1_form.evaluate(states, params)
            s2 = w2.evaluate(states, params)
            if not np.all(np.isfinite(s1.drift) & np.isfinite(s2.drift)):
                raise RuntimeError(
                    f"non-finite drift at shell [{r}, {HI_RATIO * r}]")
            viol_w1 += int(np.sum(s1.drift < 0))
            viol_w2 += int(np.sum(s2.drift > f))
            samples_last += n

    sup_w1 = np.array(sup_w1)
    inf_w2 = np.array(inf_w2)
    growth_ok = bool(np.all(np.diff(sup_w1) > 0) and sup_w1[-1] > 0
                     and sup_w1[-1] > 10 * sup_w1[0])
    h1 = HypothesisResult(
        "W1 grows along a probe direction", growth_ok,
        {"sup_w1_per_shell": sup_w1.tolist(), "log_scale": False})

    h2 = HypothesisResult("W2 positive on large shells",
                          bool(np.all(inf_w2 > 0)),
                          {"inf_w2_per_shell": inf_w2.tolist()})

    ratios = sup_w1 / inf_w2
    # require a monotone decline consistent with a negative power of R
    slope = float(np.polyfit(np.log(np.array(ladder)),
                             np.log(np.maximum(ratios, 1e-300)), 1)[0])
    dec_ok = bool(np.all(np.diff(ratios) < 0) and slope < -0.01)
    h3 = HypothesisResult("sup W1 / inf W2 decreases with the shell radius",
                          dec_ok, {"ratios": ratios.tolist(),
                                   "fit_slope": slope, "log_scale": False})

    frac1 = viol_w1 / samples_last
    frac2 = viol_w2 / samples_last
    h4 = HypothesisResult(
        "L W1 >= 0 and L W2 <= F on the outer shells",
        bool(frac1 < VIOLATION_THRESHOLD and frac2 < VIOLATION_THRESHOLD),
        {"w1_violation_fraction": frac1, "w2_violation_fraction": frac2})

    hyps = [h1, h2, h3, h4]
    return WonhamReport(hypotheses=hyps,
                        passed=all(h.passed for h in hyps),
                        shells_checked=shells_checked)
