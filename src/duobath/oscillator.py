"""Action-angle toolkit for the free oscillator H_f = P^2/2 + |Q|^(2k)/(2k).

Everything downstream (spectral constants, drift-test corrections) is built
from two ingredients computed here on a single reference orbit at energy 1:
uniformly time-sampled orbits and centred solutions u of the transport
equation du/dt = g along the orbit.  Off-orbit values come from the
exact scaling of the homogeneous potential, so they are only trusted outside
a small ball around the origin (where the smooth constructions would differ).

The orbit is closed form: time from Q = 0 along a quarter orbit is
(T/4) I_x(1/(2k), 1/2) at the potential share x = |Q|^(2k)/(2kE) of the
energy, I the regularized incomplete beta function (DLMF 8.17).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_NODES = 4096
CLOSURE_TOL = 1e-10
ENERGY_FLOOR = 1e-12
CENTRED_TOL = 1e-8   # |orbit mean| / rms above which a rhs is not centred


class OrbitError(RuntimeError):
    pass


def q_max(E: float, k: float) -> float:
    return (2 * k * E) ** (1 / (2 * k))


def orbit_period(E: float, k: float) -> float:
    """Period of the level set H_f = E.

    Closed form 4 * Qmax / sqrt(2E) * B(1/(2k), 1/2) / (2k); scales like
    E^((1-k)/(2k)).
    """
    if E <= 0:
        raise ValueError("energy must be positive")
    if k <= 0:
        raise ValueError("exponent must be positive")
    from scipy.special import beta as beta_fn
    return 4 * q_max(E, k) / math.sqrt(2 * E) * beta_fn(1 / (2 * k), 0.5) / (2 * k)


ORDER = 8   # nodes in the Lagrange stencil of every orbit interpolation
_OFFSETS = np.arange(-(ORDER // 2 - 1), ORDER // 2 + 1)   # -3 .. 4
# 1 / prod_{b != a} (o_a - o_b): the Lagrange denominators of the stencil
_INV_DENOM = 1.0 / np.array([np.prod([oa - ob for ob in _OFFSETS if ob != oa])
                             for oa in _OFFSETS], dtype=float)
# |interpolant| <= LEBESGUE max|profile|: sup of sum |weights|, at mid-cell
LEBESGUE = 1.48828125


def _wrap_pad(values: np.ndarray) -> np.ndarray:
    """Periodic node profiles (..., n) extended to (..., n + ORDER), entry i
    holding node (i + _OFFSETS[0]) mod n: every stencil is a contiguous
    window."""
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    return values[..., (np.arange(n + ORDER) + _OFFSETS[0]) % n]


def _stencil(frac, n: int):
    """First padded index (m,) and Lagrange weights (ORDER, m) at fractions
    of the period of a uniform grid of n nodes.  Node a weighs the products
    of (u - o_b) over b < a and over b > a times 1 / prod_{b != a}(o_a - o_b):
    O(ORDER) work per point and no (ORDER, m) temporaries."""
    x = np.mod(np.asarray(frac, dtype=float).ravel(), 1.0) * n
    base = np.floor(x)
    u = x - base
    w = np.empty((ORDER, len(u)))
    w[0] = 1.0
    for a in range(1, ORDER):
        np.multiply(w[a - 1], u - _OFFSETS[a - 1], out=w[a])
    acc = u - _OFFSETS[ORDER - 1]
    for a in range(ORDER - 2, -1, -1):
        w[a] *= acc
        if a:
            acc *= u - _OFFSETS[a]
    w *= _INV_DENOM[:, None]
    return base.astype(np.intp), w


def _gather(padded: np.ndarray, base: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Sum of weights times the stencil window of a wrap-padded profile."""
    out = w[0] * np.take(padded, base)
    for j in range(1, ORDER):
        out += w[j] * np.take(padded[j:], base)
    return out


def periodic_interp(values: np.ndarray, frac: np.ndarray) -> np.ndarray:
    """Lagrange interpolation on a uniform periodic grid, stencil size ORDER."""
    values = np.asarray(values, dtype=float)
    base, w = _stencil(frac, len(values))
    return _gather(_wrap_pad(values), base, w).reshape(np.shape(frac))


@dataclass(frozen=True)
class AngleLookup:
    """Where a batch of states sits on an orbit: the energy ratio
    H_f / E_orbit and the interpolation stencil of each state's angle.  One
    lookup serves every profile tabulated on that orbit."""

    orbit: "OrbitTable"
    ratio: np.ndarray      # shaped like the states
    base: np.ndarray       # (m,) first stencil index into wrap-padded profiles
    weights: np.ndarray    # (ORDER, m)

    def interp(self, padded: np.ndarray) -> np.ndarray:
        """A wrap-padded profile of the orbit at the states' angles."""
        return _gather(padded, self.base, self.weights).reshape(np.shape(self.ratio))

    def state(self) -> tuple[np.ndarray, np.ndarray]:
        """(P, Q) of the states, from the orbit by the exact energy scaling."""
        P, Q = (self.interp(v) for v in self.orbit.padded_pq)
        return np.sqrt(self.ratio) * P, self.ratio ** (1 / (2 * self.orbit.k)) * Q


@dataclass
class OrbitTable:
    """One closed orbit sampled at the times j * period / n (n divisible by
    4): uniform-time nodes make the plain mean of node values the orbit's
    time average, spectrally accurate for smooth functions."""

    k: float
    energy: float
    period: float
    Q: np.ndarray
    P: np.ndarray
    padded_pq: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.padded_pq = _wrap_pad(np.stack([self.P, self.Q]))

    @property
    def n(self) -> int:
        return len(self.P)

    def time_of(self, P, Q) -> np.ndarray:
        """Invert the orbit parametrization: time in [0, period) of (P, Q).

        (P, Q) must lie on this orbit (callers rescale first).  The quarter
        time is (T/4) I_x(a, 1/2), a = 1/(2k), at the potential share
        x = |Q|^(2k)/(2kE) where x <= y, else (T/4)(1 - I_y(1/2, a)) at the
        kinetic share y = P^2/(2E): the argument is the smaller share, where
        I is well conditioned.  The signs of P and Q give the quadrant.
        """
        from scipy.special import betainc

        P = np.asarray(P, dtype=float)
        Q = np.asarray(Q, dtype=float)
        k, E = self.k, self.energy
        a = 1 / (2 * k)
        x = np.abs(Q) ** (2 * k) / (2 * k * E)
        y = P * P / (2 * E)
        use_x = x <= y
        ib = betainc(np.where(use_x, a, 0.5), np.where(use_x, 0.5, a),
                     np.minimum(x, y))
        t = np.where(use_x, ib, 1.0 - ib) * (self.period / 4)

        # fold the quarter time back to the full period by quadrant
        pos_q, pos_p = Q >= 0, P >= 0
        out = np.where(pos_q & pos_p, t,
                       np.where(pos_q & ~pos_p, self.period / 2 - t,
                                np.where(~pos_q & ~pos_p, self.period / 2 + t,
                                         self.period - t)))
        return np.mod(out, self.period)

    def at_angle(self, ratio, frac) -> AngleLookup:
        """Lookup of states with energy ratio H_f / E_orbit and angle
        `frac` (fraction of the period) known already."""
        base, w = _stencil(frac, self.n)
        ratio = np.broadcast_to(np.asarray(ratio, dtype=float), np.shape(frac))
        return AngleLookup(self, ratio, base, w)

    def lookup(self, P, Q) -> AngleLookup:
        """Lookup of arbitrary states (P, Q): rescale each onto this orbit by
        its energy, then invert its angle."""
        P = np.asarray(P, dtype=float)
        Q = np.asarray(Q, dtype=float)
        E = P * P / 2 + np.abs(Q) ** (2 * self.k) / (2 * self.k)
        s = np.maximum(E, ENERGY_FLOOR) / self.energy
        t = self.time_of(P * s ** (-0.5), Q * s ** (-1 / (2 * self.k)))
        return self.at_angle(s, t / self.period)


def build_orbit(E: float, k: float, n: int = DEFAULT_NODES) -> OrbitTable:
    """The orbit at energy E on n nodes uniform in time, in closed form.

    Quarter-orbit node j, s = j/(n/4), has Q = q_max I^-1_s(a, 1/2)^a and
    P = sqrt(2E I^-1_(1-s)(1/2, a)), a = 1/(2k), exact at both turning
    points; unfolding by symmetry closes the orbit with zero-mean P and Q.
    """
    if n < 64:
        raise ValueError("need at least 64 nodes")
    if n % 4:
        raise ValueError("node count must be divisible by 4")
    from scipy.special import betaincinv

    period = orbit_period(E, k)
    nq = n // 4
    a = 1 / (2 * k)
    s = np.arange(nq + 1) / nq
    Qq = q_max(E, k) * betaincinv(a, 0.5, s) ** a
    Pq = np.sqrt(2 * E * betaincinv(0.5, a, 1.0 - s))

    energies = Pq ** 2 / 2 + np.abs(Qq) ** (2 * k) / (2 * k)
    drift = np.max(np.abs(energies - E)) / E
    if not drift <= CLOSURE_TOL:
        raise OrbitError(f"energy drift {drift:.2e} exceeds {CLOSURE_TOL:.0e}")

    Q = np.concatenate([Qq[:-1], Qq[::-1][:-1], -Qq[:-1], -Qq[::-1][:-1]])
    P = np.concatenate([Pq[:-1], -Pq[::-1][:-1], -Pq[:-1], Pq[::-1][:-1]])
    return OrbitTable(k=k, energy=E, period=period, Q=Q, P=P)


@functools.cache
def reference_orbit(k: float) -> OrbitTable:
    """The orbit at energy 1, built once per k."""
    return build_orbit(1.0, k)


def k_const(k: float) -> float:
    """Orbit average of P^2 at energy 1 (virial value 2k/(1+k))."""
    if k <= 0:
        raise ValueError("exponent must be positive")
    return 2 * k / (1 + k)


# ---------------------------------------------------------------------------
# centred solutions of du/dt = rhs along the orbit

@dataclass
class CenteredSolution:
    """A function u(P, Q) = H_f^a * u0(angle) solving du/dt = rhs on orbits.

    Profiles are tabulated on a reference orbit; evaluation anywhere takes an
    angle lookup on that orbit and the exact scaling of the homogeneous
    oscillator in the energy ratio.  The derivatives come from the two
    independent directional derivatives known on the orbit (transport along
    the flow and the Euler scaling relation), so they carry no
    finite-difference error.
    """

    scaling_exponent: float
    orbit: OrbitTable
    angle_profile: np.ndarray   # u0 at the orbit nodes
    dP_profile: np.ndarray
    dQ_profile: np.ndarray
    d2P_profile: np.ndarray

    padded: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.padded = _wrap_pad(np.stack([self.angle_profile, self.dP_profile,
                                          self.dQ_profile, self.d2P_profile]))

    def value(self, look: AngleLookup) -> np.ndarray:
        """u at the states of an angle lookup on this solution's orbit."""
        if look.orbit is not self.orbit:
            raise ValueError("angle lookup was made on another orbit")
        return (look.ratio ** self.scaling_exponent
                * look.interp(self.padded[0]))

    def eval_all(self, look: AngleLookup):
        """(value, dP, dQ, d2P) at the states of an angle lookup on this
        solution's orbit."""
        val = self.value(look)
        r, a = look.ratio, self.scaling_exponent
        dp = r ** (a - 0.5) * look.interp(self.padded[1])
        dq = r ** (a - 1 / (2 * self.orbit.k)) * look.interp(self.padded[2])
        d2p = r ** (a - 1.0) * look.interp(self.padded[3])
        return val, dp, dq, d2p


def _fft_antiderivative(values: np.ndarray, period: float) -> np.ndarray:
    """Zero-mean periodic antiderivative of zero-mean samples (spectral)."""
    n = len(values)
    vh = np.fft.rfft(values - values.mean())
    m = np.arange(len(vh))
    omega = 2 * np.pi * m / period
    uh = np.zeros_like(vh)
    uh[1:] = vh[1:] / (1j * omega[1:])
    if n % 2 == 0:
        uh[-1] = 0.0  # drop the unpaired Nyquist mode
    u = np.fft.irfft(uh, n)
    return u - u.mean()


def _orbit_derivatives(orbit: OrbitTable, u: np.ndarray, a: float,
                       rhs: np.ndarray):
    """Exact first derivatives of a scaled orbit function on its own orbit.

    Solves, at every node, the 2x2 system given by the transport identity
    F dP_u + P dQ_u = rhs and the Euler scaling relation
    (P/2) dP_u + (Q/(2k)) dQ_u = a u; the determinant is -H_f.
    """
    k, E = orbit.k, orbit.energy
    P, Q = orbit.P, orbit.Q
    du_dP = (P * a * u - rhs * Q / (2 * k)) / E
    du_dQ = ((P / 2) * rhs + Q * np.abs(Q) ** (2 * k - 2) * a * u) / E
    return du_dP, du_dQ


def solve_poisson(orbit: OrbitTable, rhs: np.ndarray, rhs_dP: np.ndarray, *,
                  rhs_scaling: float) -> CenteredSolution:
    """Centred u with du/dt = rhs along `orbit`.

    rhs and its P-derivative rhs_dP are node values on the orbit; rhs must
    be centred (orbit mean ~ 0) and homogeneous of degree `rhs_scaling` in
    H_f.
    """
    scale = max(float(np.sqrt(np.mean(rhs ** 2))), 1e-300)
    if abs(float(np.mean(rhs))) / scale > CENTRED_TOL:
        raise ValueError("rhs is not centred on the orbit")

    u = _fft_antiderivative(rhs, orbit.period)
    a = rhs_scaling + 1 / (2 * orbit.k) - 0.5
    du_dP, du_dQ = _orbit_derivatives(orbit, u, a, rhs)
    # v = dP_u satisfies dv/dt = dP_rhs - dQ_u with scaling a - 1/2
    d2u, _ = _orbit_derivatives(orbit, du_dP, a - 0.5, rhs_dP - du_dQ)
    return CenteredSolution(scaling_exponent=a, orbit=orbit, angle_profile=u,
                            dP_profile=du_dP, dQ_profile=du_dQ,
                            d2P_profile=d2u)


# ---------------------------------------------------------------------------
# the named solutions and constants, each built once per k

def _check_k_range(k: float):
    if not (1 < k <= 2):
        raise ValueError("orbit-function constructions support 1 < k <= 2 only")


@functools.cache
def build_phi(k: float) -> CenteredSolution:
    """Centred solution of du/dt = Q; scales like H_f^(1/k - 1/2)."""
    _check_k_range(k)
    orbit = reference_orbit(k)
    return solve_poisson(orbit, orbit.Q, np.zeros_like(orbit.P),
                         rhs_scaling=1 / (2 * k))


@functools.cache
def build_psi(k: float) -> CenteredSolution:
    """Centred solution of du/dt = phi; scales like H_f^(3/(2k) - 1)."""
    _check_k_range(k)
    phi = build_phi(k)
    return solve_poisson(phi.orbit, phi.angle_profile, phi.dP_profile,
                         rhs_scaling=phi.scaling_exponent)


@functools.cache
def build_xi(k: float) -> CenteredSolution:
    """Centred solution of du/dt = phi^2 - <phi^2> H_f^(2/k-1);
    scales like H_f^(5/(2k) - 3/2)."""
    _check_k_range(k)
    phi = build_phi(k)
    prof = phi.angle_profile
    c = phi_mean_square(k)
    # d/dP of (phi^2 - c H_f^(2/k-1)): the energy factor contributes
    # -c (2/k - 1) P on the reference orbit (vanishes only at k = 2)
    rhs_dp = 2 * prof * phi.dP_profile - c * (2 / k - 1) * phi.orbit.P
    return solve_poisson(phi.orbit, prof ** 2 - c, rhs_dp,
                         rhs_scaling=2 / k - 1)


@functools.cache
def build_xi_tilde(k: float) -> CenteredSolution:
    """Centred solution of du/dt = P^2 - K(k) H_f; scales like
    H_f^(1/2 + 1/(2k))."""
    _check_k_range(k)
    K = k_const(k)
    orbit = reference_orbit(k)
    P, Q = orbit.P, orbit.Q
    return solve_poisson(
        orbit, P * P - K * (P * P / 2 + np.abs(Q) ** (2 * k) / (2 * k)),
        (2 - K) * P, rhs_scaling=1.0)


def phi_mean_square(k: float) -> float:
    """Orbit average of phi^2 at energy 1 for general exponent in (1, 2]."""
    phi = build_phi(k)
    return float(np.mean(phi.angle_profile ** 2))


def c_hat() -> float:
    """The critical coupling constant at k = 2: orbit average of phi^2.

    Energy independent because phi scales like H_f^0 at k = 2.
    """
    return phi_mean_square(2.0)
