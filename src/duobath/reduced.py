"""The 1-D surrogate diffusion dX = -eta X^sigma dt + sqrt(2) dW on [1, inf)
with mirror reflection, stepped by run_reduced as the chain is by run_paths;
its exact stationary laws, the stiffness-exponent -> (sigma, eta) reduction,
and the regime classifiers for both the surrogate and the full chain.

Speed/integrability families carry computable exponents only; the rate
constants themselves depend on fine details of the model and are kept
symbolic ('gamma_pm', 'delta', 'eps').
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict
from typing import Iterator, Tuple

import numpy as np
from scipy.special import gamma as gamma_fn, gammaincc

from .model import ModelParams
from .simulate import NoiseStream, check_finite

ISCLOSE_TOL = 1e-12   # relative tolerance of the regime-boundary tests

class NoInvariantMeasure(Exception):
    """The requested regime admits no stationary probability measure."""


@dataclass(frozen=True)
class ReducedParams:
    """Drift coefficient and exponent of the surrogate dX = -eta X^sigma dt + sqrt(2) dW.

    eta is normally positive; the k > 2 reduction legitimately produces a
    negative eta on the sigma = -1 branch (outward drift, transient), so only
    eta != 0 is enforced here and positivity is checked by the operations
    that require it.
    """

    eta: float
    sigma: float

    def __post_init__(self):
        if self.eta == 0:
            raise ValueError("eta must be nonzero")


@dataclass(frozen=True)
class Family:
    """One column entry of a rate table: a functional family plus parameters.

    Exponents that are computable from the inputs are numeric; constants the
    theory leaves free are symbolic strings.
    """

    kind: str                       # none | power | poly-decay | exp-power |
                                    # stretched-decay | exp-decay | const
    params: dict = field(default_factory=dict)

    def describe(self) -> str:
        if self.kind == "none":
            return "---"
        # 12 significant digits: a last-bit move of an exponent is no change
        inner = ", ".join(
            f"{k}={float(f'{v:.12g}') if isinstance(v, float) else v}"
            for k, v in self.params.items())
        return f"{self.kind}({inner})"


@dataclass(frozen=True)
class RateRow:
    regime_id: str
    integrability: Family
    speed: Family
    prefactor: Family
    notes: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def _isclose(a, b):
    return abs(a - b) <= ISCLOSE_TOL * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# stationary law of the surrogate diffusion

@dataclass
class StationaryDensity:
    """Normalized stationary density of the reflected surrogate on [1, inf)."""

    rp: ReducedParams
    normalization: float

    def _raw(self, x):
        x = np.asarray(x, dtype=float)
        s, e = self.rp.sigma, self.rp.eta
        if _isclose(s, -1.0):
            return x ** (-e)
        return np.exp(-e * (x ** (s + 1) - 1.0) / (s + 1))

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x >= 1.0, self._raw(np.maximum(x, 1.0)), 0.0)
        return out / self.normalization

    def _upper(self, x):
        """Unnormalized integral from x to infinity."""
        x = np.asarray(x, dtype=float)
        s, e = self.rp.sigma, self.rp.eta
        if _isclose(s, -1.0):
            return x ** (1.0 - e) / (e - 1.0)
        c = s + 1.0
        b = e / c
        # int_x^inf exp(-b u^c) du = Gamma(1/c) * Q(1/c, b x^c) / (c b^(1/c))
        pref = gamma_fn(1 / c) / (c * b ** (1 / c)) * math.exp(e / c)
        return pref * gammaincc(1 / c, b * np.maximum(x, 1.0) ** c)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        val = 1.0 - self._upper(np.maximum(x, 1.0)) / self.normalization
        return np.where(x < 1.0, 0.0, val)

    def ccdf(self, x):
        return 1.0 - self.cdf(x)


def stationary_density(rp: ReducedParams) -> StationaryDensity:
    """Exact stationary law; raises NoInvariantMeasure outside the
    (sigma > -1) or (sigma = -1, eta > 1) region."""
    s, e = rp.sigma, rp.eta
    if (s < -1 - 1e-12 or (_isclose(s, -1.0) and e <= 1.0)
            or (s > -1 and e <= 0)):
        raise NoInvariantMeasure(
            f"no stationary law for sigma={s}, eta={e}")
    d = StationaryDensity(rp=rp, normalization=1.0)
    d.normalization = float(d._upper(1.0))
    return d


# ---------------------------------------------------------------------------
# simulation

def run_reduced(rp: ReducedParams, dt: float, n_steps: int, n_paths: int,
                seed: int) -> Iterator[Tuple[int, np.ndarray]]:
    """Euler-Maruyama from X = 1 with per-step mirror reflection at X = 1,
    so X >= 1 and the drift is eta X^sigma.

    Yields (steps_done, X) at the start and after every step, like
    simulate.run_paths; each X is a fresh array.  Noise comes from the
    chain's NoiseStream, one block per step at counter words (0, step), so a
    path's column is deterministic under the (seed, path index) contract.
    The next step's block is drawn on NoiseStream's helper thread while this
    one computes, with the same bits, unless it has fewer than
    simulate.PREFETCH_MIN_DRAWS draws; the helper ends with the run.
    Raises IntegrationError at the first step that leaves a path non-finite.
    """
    x = np.ones(n_paths)
    noise = NoiseStream(seed)
    sq = math.sqrt(2.0 * dt)
    try:
        yield 0, x
        for step in range(n_steps):
            if step + 1 < n_steps:
                noise.prefetch(0, step + 1, n_paths)
            xi = noise.block(0, step, n_paths)
            x = x - rp.eta * x ** rp.sigma * dt + sq * xi
            x = np.maximum(x, 2.0 - x)      # mirror at 1, NaN passes through
            check_finite((step + 1) * dt, x)
            yield step + 1, x
    finally:
        noise.close()


def _n_steps(span: float, dt: float) -> int:
    if dt <= 0:
        raise ValueError("dt must be positive")
    return int(round(span / dt))


def simulate_reduced(rp: ReducedParams, dt: float, t_end: float,
                     n_paths: int, seed: int) -> np.ndarray:
    """X of every path at t_end (run_reduced over round(t_end / dt) steps)."""
    for _, x in run_reduced(rp, dt, _n_steps(t_end, dt), n_paths, seed):
        pass
    return x


def sample_stationary(rp: ReducedParams, dt: float, burn_in: float,
                      n_paths: int, n_snapshots: int, snapshot_gap: float,
                      seed: int) -> np.ndarray:
    """Pooled stationary samples: burn in, then collect the ensemble every
    snapshot_gap time units.

    Heavy-tail regimes (sigma = -1) fill the tail diffusively, so the burn-in
    must cover the square of the largest X the estimate probes; a flat 200
    time units is not enough for tail work.
    """
    if n_snapshots < 1:
        raise ValueError(f"n_snapshots must be >= 1, got {n_snapshots}")
    burn = _n_steps(burn_in, dt)
    gap = max(1, _n_steps(snapshot_gap, dt))
    return np.concatenate([
        x for i, x in run_reduced(rp, dt, burn + n_snapshots * gap, n_paths,
                                  seed)
        if i > burn and (i - burn) % gap == 0])


# ---------------------------------------------------------------------------
# classifiers

_SYM_G = "gamma_pm"
_SYM_D = "delta"
_SYM_E = "eps"


def classify_reduced(rp: ReducedParams) -> RateRow:
    """Row of the surrogate-diffusion rate table for (sigma, eta)."""
    s, e = rp.sigma, rp.eta
    none = Family("none")
    if s < -1 - 1e-12:
        return RateRow("sigma<-1", none, none, none)
    if _isclose(s, -1.0):
        if e <= 1.0:
            return RateRow("sigma=-1,eta<=1", none, none, none)
        return RateRow(
            "sigma=-1,eta>1",
            Family("power", {"exponent": e - 1.0, "pm": _SYM_E}),
            Family("poly-decay", {"exponent": (e - 1.0) / 2.0, "pm": _SYM_E}),
            Family("power", {"exponent": e + 1.0, "plus": _SYM_E}),
        )
    if s < 0:
        return RateRow(
            "-1<sigma<0",
            Family("exp-power", {"exponent": s + 1.0, "rate": _SYM_G}),
            Family("stretched-decay", {"exponent": (1 + s) / (1 - s), "rate": _SYM_G}),
            Family("exp-power", {"exponent": s + 1.0, "rate": _SYM_D}),
        )
    if s < 1:
        return RateRow(
            "0<=sigma<1",
            Family("exp-power", {"exponent": s + 1.0, "rate": _SYM_G}),
            Family("exp-decay", {"rate": _SYM_G}),
            Family("exp-power", {"exponent": 1.0 - s, "rate": _SYM_D}),
        )
    if _isclose(s, 1.0):
        return RateRow(
            "sigma=1",
            Family("exp-power", {"exponent": 2.0, "rate": _SYM_G}),
            Family("exp-decay", {"rate": _SYM_G}),
            Family("power", {"exponent": 0.0, "plus": _SYM_E}),
        )
    return RateRow(
        "sigma>1",
        Family("exp-power", {"exponent": s + 1.0, "rate": _SYM_G}),
        Family("exp-decay", {"rate": _SYM_G}),
        Family("const", {}),
    )


def zeta_star(alpha: float, c_hat: float, t_hot: float) -> float:
    """Critical polynomial-tail exponent at k = 2."""
    if t_hot <= 0:
        raise ValueError("t_hot must be positive")
    return 0.75 * (alpha ** 2 * c_hat - t_hot) / t_hot


def kappa(k: float) -> float:
    if k <= 0:
        raise ValueError("k must be positive")
    return 2.0 / k - 1.0


def heuristic_reduction(k: float, params: ModelParams, c_hat: float,
                        k_const: float) -> ReducedParams:
    """Map the chain's stiffness exponent to the dominant 1-D surrogate.

    For k > 1 the slow variable is X ~ sqrt(H of the undamped oscillator);
    for k < 1 it is X ~ |center of mass| ~ H^(1/(2k)).  k = 1 sits between
    the two asymptotic derivations and is not covered.
    """
    if k <= 0:
        raise ValueError("k <= 0: no invariant-measure regime, not reduced")
    if _isclose(k, 1.0):
        raise ValueError("k = 1 is the crossover; neither reduction applies")
    a, g, t_inf = params.alpha, params.gamma, params.t_hot
    if k > 2.0 + 1e-12:
        # always < 0 here: the surrogate is transient (no invariant measure)
        return ReducedParams(eta=1.0 - 2.0 / k_const, sigma=-1.0)
    if _isclose(k, 2.0):
        return ReducedParams(eta=1.5 * (a ** 2 * c_hat / t_inf) - 0.5,
                             sigma=-1.0)
    if k > 1.0:
        sigma = 4.0 / k - 3.0
        scale = g * t_inf * k_const / 4.0
        eta = (math.sqrt(g) * a ** 2 * c_hat / math.sqrt(t_inf * k_const)
               * scale ** (2.0 / k - 1.5))
        return ReducedParams(eta=eta, sigma=sigma)
    # k < 1: center-of-mass reduction
    sigma = 2.0 * k - 1.0
    gam_hat = 2.0 / g
    t_hat = (params.t_cold + t_inf) / 2.0
    eta = gam_hat * (gam_hat * t_hat) ** (k - 1.0)
    return ReducedParams(eta=eta, sigma=sigma)


def classify_full(k: float, params: ModelParams, c_hat: float) -> RateRow:
    """Row of the full-chain table for stiffness exponent k.

    The single excluded point k = 2, t_hot = alpha^2 c_hat returns an
    'undetermined' row (conjectured non-existence, not encoded).
    """
    none = Family("none")
    if k <= 0:
        return RateRow("k<=0", none, none, none)
    if k > 2 + 1e-12:
        return RateRow("k>2", none, none, none)
    if _isclose(k, 2.0):
        thresh = params.alpha ** 2 * c_hat
        if _isclose(params.t_hot, thresh):
            und = Family("undetermined")
            return RateRow("k=2-critical", und, und, und,
                           notes="boundary case; existence conjectured to fail")
        if params.t_hot > thresh:
            return RateRow("k=2-super", none, none, none)
        zs = zeta_star(params.alpha, c_hat, params.t_hot)
        return RateRow(
            "k=2-sub",
            Family("power", {"exponent": zs, "pm": _SYM_E}),
            Family("poly-decay", {"exponent": zs, "pm": _SYM_E}),
            Family("power", {"exponent": zs + 1.0, "plus": _SYM_E}),
        )
    kp = kappa(k)
    if k > 4.0 / 3.0 + 1e-12:
        return RateRow(
            "4/3<=k<2",
            Family("exp-power", {"exponent": kp, "rate": _SYM_G}),
            Family("stretched-decay", {"exponent": kp / (1 - kp), "rate": _SYM_G}),
            Family("exp-power", {"exponent": kp, "rate": _SYM_D}),
        )
    if k > 1 + 1e-12:
        return RateRow(
            "1<k<=4/3",
            Family("exp-power", {"exponent": kp, "rate": _SYM_G}),
            Family("exp-decay", {"rate": _SYM_G}),
            Family("exp-power", {"exponent": 1 - kp, "rate": _SYM_D}),
        )
    if _isclose(k, 1.0):
        return RateRow(
            "k=1",
            Family("exp-power", {"exponent": 1.0, "rate": _SYM_G}),
            Family("exp-decay", {"rate": _SYM_G}),
            Family("power", {"exponent": 0.0, "plus": _SYM_E}),
        )
    if k >= 0.5 - 1e-12:
        return RateRow(
            "1/2<=k<1",
            Family("exp-power", {"exponent": 1.0, "rate": _SYM_G}),
            Family("exp-decay", {"rate": _SYM_G}),
            Family("exp-power", {"exponent": 1.0 / k - 1.0, "rate": _SYM_D}),
        )
    return RateRow(
        "0<k<=1/2",
        Family("exp-power", {"exponent": 1.0, "rate": _SYM_G}),
        Family("stretched-decay", {"exponent": k / (1 - k), "rate": _SYM_G}),
        Family("exp-power", {"exponent": 1.0, "rate": _SYM_D}),
    )


# Metadata only: below this fraction of the critical coupling the mean kinetic
# energy of the undamped oscillator stays finite (k = 2); the complementary
# claim is recorded, not verified.
KINETIC_FINITENESS_FRACTION = 3.0 / 7.0
