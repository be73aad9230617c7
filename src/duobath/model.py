"""Two-oscillator Langevin chain with one cold bath and one undamped noise channel.

The phase space is (q0, q1, p0, p1).  Particle 0 feels friction gamma and noise
at temperature t_cold; particle 1 feels the same kind of noise (strength t_hot)
but no friction.  Both sit in a pinning potential V1 with stiffness exponent k
and are coupled harmonically with strength alpha.

The generator is applied through explicit second-order jets rather than
numerical differentiation, so drift-sign checks downstream are free of
truncation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

ArrayLike = Union[float, np.ndarray]

PURE_POWER = "pure-power"
REGULARIZED = "regularized"


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the chain.

    alpha   coupling strength (> 0)
    gamma   friction on p0 (> 0)
    t_cold  temperature of the damped bath (> 0)
    t_hot   noise strength on the undamped momentum (> 0)
    k       stiffness exponent of the pinning potential
    smoothing  'pure-power' uses |q|^(2k)/(2k); 'regularized' uses
               ((1+q^2)^k - 1)/(2k), which is C^inf and matches the pure
               power at infinity.  Regularized is mandatory for k < 1.
    """

    alpha: float
    gamma: float
    t_cold: float
    t_hot: float
    k: float
    smoothing: str = PURE_POWER

    def __post_init__(self):
        for name in ("alpha", "gamma", "t_cold", "t_hot", "k"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("alpha", "gamma", "t_cold", "t_hot"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.smoothing not in (PURE_POWER, REGULARIZED):
            raise ValueError(f"unknown smoothing {self.smoothing!r}")
        if self.k == 0:
            raise ValueError("k = 0 (logarithmic potential) is not supported")
        if self.smoothing == PURE_POWER and self.k < 1:
            raise ValueError("pure-power potential is not C^2 for k < 1; "
                             "use smoothing='regularized'")


@dataclass
class State4:
    """A phase-space point.  Fields may be scalars or equally shaped arrays."""

    q0: ArrayLike
    q1: ArrayLike
    p0: ArrayLike
    p1: ArrayLike

    def as_array(self) -> np.ndarray:
        return np.stack([np.asarray(self.q0, dtype=float),
                         np.asarray(self.q1, dtype=float),
                         np.asarray(self.p0, dtype=float),
                         np.asarray(self.p1, dtype=float)])


# ---------------------------------------------------------------------------
# potential

def v1_eval(q: ArrayLike, params: ModelParams) -> ArrayLike:
    """Pinning potential V1(q)."""
    q = np.asarray(q, dtype=float)
    k = params.k
    if params.smoothing == PURE_POWER:
        if k < 1:
            raise ValueError("pure-power mode rejected for k < 1 (not C^2)")
        return np.abs(q) ** (2 * k) / (2 * k)
    return ((1.0 + q * q) ** k - 1.0) / (2 * k)


def v1_prime(q: ArrayLike, params: ModelParams) -> ArrayLike:
    q = np.asarray(q, dtype=float)
    k = params.k
    if params.smoothing == PURE_POWER:
        return q * np.abs(q) ** (2 * k - 2)
    return q * (1.0 + q * q) ** (k - 1)


def v1_second(q: ArrayLike, params: ModelParams) -> ArrayLike:
    q = np.asarray(q, dtype=float)
    k = params.k
    if params.smoothing == PURE_POWER:
        return (2 * k - 1) * np.abs(q) ** (2 * k - 2)
    u = 1.0 + q * q
    return u ** (k - 2) * (1.0 + (2 * k - 1) * q * q)


def hamiltonian(x: State4, params: ModelParams) -> ArrayLike:
    """Total energy (p0^2 + p1^2)/2 + V1(q0) + V1(q1) + alpha (q0-q1)^2 / 2."""
    kin = 0.5 * (np.asarray(x.p0) ** 2 + np.asarray(x.p1) ** 2)
    dq = np.asarray(x.q0) - np.asarray(x.q1)
    return (kin + v1_eval(x.q0, params) + v1_eval(x.q1, params)
            + 0.5 * params.alpha * dq * dq)


def forces(q0: ArrayLike, q1: ArrayLike, params: ModelParams):
    """Forces (f0, f1) on the two particles: pinning plus coupling."""
    a = params.alpha
    q0, q1 = np.asarray(q0), np.asarray(q1)
    f0 = -v1_prime(q0, params) + a * (q1 - q0)
    f1 = -v1_prime(q1, params) + a * (q0 - q1)
    return f0, f1


def drift_and_noise(x: State4, params: ModelParams):
    """Drift vector (dq0, dq1, dp0, dp1) and the two noise amplitudes.

    There is no friction on p1; its only dissipation route is through the
    coupling.
    """
    g = params.gamma
    f0, f1 = forces(x.q0, x.q1, params)
    drift = np.stack([np.asarray(x.p0, dtype=float),
                      np.asarray(x.p1, dtype=float),
                      f0 - g * np.asarray(x.p0),
                      np.asarray(f1, dtype=float)])
    sig0 = math.sqrt(2 * g * params.t_cold)
    sig1 = math.sqrt(2 * g * params.t_hot)
    return drift, (sig0, sig1)


# ---------------------------------------------------------------------------
# jets
#
# The generator is second order in (p0, p1) only, so a 7-entry jet
# (value, four first partials, d^2/dp0^2, d^2/dp1^2) is closed under the
# algebra needed to evaluate L f and Gamma(f, g) exactly.

@dataclass
class Jet2:
    value: ArrayLike
    d_q0: ArrayLike = 0.0
    d_q1: ArrayLike = 0.0
    d_p0: ArrayLike = 0.0
    d_p1: ArrayLike = 0.0
    d2_p0: ArrayLike = 0.0
    d2_p1: ArrayLike = 0.0

    def __add__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.value + other.value,
                        self.d_q0 + other.d_q0, self.d_q1 + other.d_q1,
                        self.d_p0 + other.d_p0, self.d_p1 + other.d_p1,
                        self.d2_p0 + other.d2_p0, self.d2_p1 + other.d2_p1)
        return Jet2(self.value + other, self.d_q0, self.d_q1,
                    self.d_p0, self.d_p1, self.d2_p0, self.d2_p1)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.value, -self.d_q0, -self.d_q1,
                    -self.d_p0, -self.d_p1, -self.d2_p0, -self.d2_p1)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet2) else -np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet2):
            # product rule; cross q/p derivatives never enter L or Gamma
            return Jet2(
                self.value * other.value,
                self.d_q0 * other.value + self.value * other.d_q0,
                self.d_q1 * other.value + self.value * other.d_q1,
                self.d_p0 * other.value + self.value * other.d_p0,
                self.d_p1 * other.value + self.value * other.d_p1,
                self.d2_p0 * other.value + 2.0 * self.d_p0 * other.d_p0
                + self.value * other.d2_p0,
                self.d2_p1 * other.value + 2.0 * self.d_p1 * other.d_p1
                + self.value * other.d2_p1,
            )
        return Jet2(self.value * other, self.d_q0 * other, self.d_q1 * other,
                    self.d_p0 * other, self.d_p1 * other,
                    self.d2_p0 * other, self.d2_p1 * other)

    __rmul__ = __mul__

    def compose(self, f, df, d2f) -> "Jet2":
        """Jet of f(self) given f, f', f'' as callables of the value."""
        v = self.value
        return self.chain(f(v), df(v), d2f(v))

    def chain(self, fv, f1, f2) -> "Jet2":
        """Jet of f(self) given f, f', f'' at the value."""
        return Jet2(fv,
                    f1 * self.d_q0, f1 * self.d_q1,
                    f1 * self.d_p0, f1 * self.d_p1,
                    f2 * self.d_p0 ** 2 + f1 * self.d2_p0,
                    f2 * self.d_p1 ** 2 + f1 * self.d2_p1)


def jet_const(c) -> Jet2:
    return Jet2(value=np.asarray(c, dtype=float))


def jet_of_coord(name: str, x: State4, f, df, *args) -> Jet2:
    """Jet of f(q, *args), q = x.name; its one partial is df(q, *args)."""
    q = np.asarray(getattr(x, name), dtype=float)
    j = Jet2(value=f(q, *args))
    setattr(j, "d_" + name, df(q, *args))
    return j


def jet_coord(name: str, x: State4) -> Jet2:
    return jet_of_coord(name, x, lambda q: q, np.ones_like)


def jet_power(u: Jet2, a: float) -> Jet2:
    """u^a for a positive-valued jet."""
    return u.compose(lambda v: v ** a,
                     lambda v: a * v ** (a - 1),
                     lambda v: a * (a - 1) * v ** (a - 2))


def quintic_bridge(u):
    """S(u) = u^3 (10 - 15 u + 6 u^2) on [0, 1], 0 below and 1 above: the C^2
    step from 0 to 1, with S' and S'' (0.0 outside (0, 1))."""
    u = np.clip(u, 0.0, 1.0)
    inside = (u > 0) & (u < 1)
    return (u ** 3 * (10.0 - 15.0 * u + 6.0 * u * u),
            np.where(inside, 30.0 * u ** 2 * (1.0 - u) ** 2, 0.0),
            np.where(inside, 60.0 * u * (1 - u) * (1 - 2 * u), 0.0))


def jet_v1(name: str, x: State4, params: ModelParams) -> Jet2:
    """V1 of a position coordinate; only the matching q-derivative survives."""
    return jet_of_coord(name, x, v1_eval, v1_prime, params)


def jet_v1_prime(name: str, x: State4, params: ModelParams) -> Jet2:
    return jet_of_coord(name, x, v1_prime, v1_second, params)


def jet_hamiltonian(x: State4, params: ModelParams) -> Jet2:
    a = params.alpha
    q0, q1 = jet_coord("q0", x), jet_coord("q1", x)
    p0, p1 = jet_coord("p0", x), jet_coord("p1", x)
    dq = q0 - q1
    return (0.5 * (p0 * p0) + 0.5 * (p1 * p1)
            + jet_v1("q0", x, params) + jet_v1("q1", x, params)
            + (0.5 * a) * (dq * dq))


def generator_of_jet(j: Jet2, x: State4, params: ModelParams) -> ArrayLike:
    """L f at x from the jet j of f at x: transport, friction on p0 and
    diffusion on (p0, p1)."""
    drift, _ = drift_and_noise(x, params)
    g = params.gamma
    return (drift[0] * j.d_q0 + drift[1] * j.d_q1
            + drift[2] * j.d_p0 + drift[3] * j.d_p1
            + g * (params.t_cold * j.d2_p0 + params.t_hot * j.d2_p1))


def carre_of_jets(jf: Jet2, jg: Jet2, params: ModelParams) -> ArrayLike:
    """Gamma(f, g) from the jets of f and g at one state; twice the
    conventional normalization, so that
    L(phi o g) = phi'(g) Lg + phi''(g) Gamma(g, g)."""
    gm = params.gamma
    return gm * (params.t_cold * jf.d_p0 * jg.d_p0
                 + params.t_hot * jf.d_p1 * jg.d_p1)
