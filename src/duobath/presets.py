"""Frozen verification presets.

Every preset pins model parameters, the drift family (one of the builders
in duobath.lyapunov) with its keyword parameters, the shell ladder and, for
a sign check, the drift predicate with its constant.  The free constants
were fixed by grid search against the stabilization criterion and are part
of the contract: tests run them as-is.  PRESETS maps each name to the
function that makes the preset, and run_preset builds its form, so a
preset's tables (and any orbit they need) are built only when the preset
is run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional

from .model import ModelParams
from .oscillator import c_hat
from . import lyapunov as ly
from . import reduced as rd


@dataclass(frozen=True)
class VerifyPreset:
    params: ModelParams
    family: Callable          # a drift-family builder of duobath.lyapunov
    parameters: Dict[str, float]
    shell: ly.ShellSpec
    kind: str = "sign"           # sign | wonham
    predicate: Optional[ly.Predicate] = None   # read by kind sign only


def _k2_params(t_hot: float) -> ModelParams:
    return ModelParams(alpha=1.0, gamma=1.0, t_cold=1.0, t_hot=t_hot, k=2.0)


_FRAC_KAPPA = rd.kappa(1.5)

PRESETS = {
    # k=2 existence (t_hot < critical): coercive drift of the corrected energy
    "positive-k2": lambda: VerifyPreset(
        params=_k2_params(0.3),
        family=ly.v_k2, parameters={"theta": -0.08, "c": 0.9, "E": 1e4},
        predicate=ly.drift_below(-0.01, "L V <= -0.01"),
        shell=ly.ShellSpec(r0=4e5, max_doublings=8)),
    # k=2 non-existence (t_hot twice critical): two-function criterion
    "negative-k2": lambda: VerifyPreset(
        params=_k2_params(2.0 * c_hat()),
        family=ly.w1_nonexist,
        parameters={"theta": 0.08, "delta": 0.15, "zeta": 0.05, "E": 1e4},
        shell=ly.ShellSpec(r0=4e5, max_doublings=8),
        kind="wonham"),
    # control with W1 = H: must fail the drift hypothesis (L H flips with p0)
    "negative-k2-sabotaged": lambda: replace(
        PRESETS["negative-k2"](), family=ly.energy, parameters={}),
    # k=1.5 fractional exponential: log-scale drift of exp(delta V^kappa)
    "frac-k15": lambda: VerifyPreset(
        params=ModelParams(alpha=1.0, gamma=1.0, t_cold=1.0, t_hot=1.0,
                           k=1.5),
        family=ly.w_exp_frac,
        parameters={"theta": 0.1, "eta_cutoff": 1.0, "delta": 0.02,
                    "kappa": _FRAC_KAPPA},
        predicate=ly.drift_below_scaled(
            5e-4, "value", 2 * _FRAC_KAPPA - 1,
            name="L W / W <= -5e-4 * V^(2/k-2) ... (=V^(2 kappa - 1))"),
        shell=ly.ShellSpec(r0=8e6, max_doublings=6)),
    # k=0.75 spectral gap: corrected energy with bounded force surrogate
    "smallk-k075": lambda: VerifyPreset(
        params=ModelParams(alpha=1.0, gamma=1.0, t_cold=1.0, t_hot=1.0,
                           k=0.75, smoothing="regularized"),
        family=ly.hat_h_smallk,
        parameters={"xi": 2.0, "eps": 0.005, "beta0": 1e-5, "delta": 1.0,
                    "w": 0.05},
        predicate=ly.drift_below(-1.0, "L W / W <= -1"),
        shell=ly.ShellSpec(r0=4.8e9, max_doublings=6)),
    # k=0.4 weak pinning: exp(Gram form) + exp(corrected center of mass)
    "smallk-k04": lambda: VerifyPreset(
        params=ModelParams(alpha=2.0, gamma=2.0, t_cold=1.0, t_hot=1.0,
                           k=0.4, smoothing="regularized"),
        family=ly.w_smallk, parameters={"beta0": 1e-4, "lam": 1.0},
        predicate=ly.drift_below_scaled(
            5e-7, "log_w", 2.0 - 1.0 / 0.4,
            name="L W / W <= -5e-7 * (log W)^(2-1/k)"),
        shell=ly.ShellSpec(r0=6.4e5, max_doublings=8)),
}

PRESET_NAMES = tuple(PRESETS)


def get_preset(name: str) -> VerifyPreset:
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {PRESET_NAMES}")
    return PRESETS[name]()


def wonham_samples(n: int) -> int:
    """States a level set of a kind 'wonham' preset is checked on, for the
    n states a shell of a sign preset gets."""
    return max(2000, n // 2)


def run_preset(name: str, n: int = 10_000, seed: int = 0):
    """Execute a preset; returns a VerificationReport for kind 'sign' and a
    WonhamReport (at wonham_samples(n) states a level set) for kind
    'wonham'."""
    p = get_preset(name)
    form = p.family(p.params, **p.parameters)
    if p.kind == "sign":
        return ly.verify_sign(form, p.predicate, p.shell, n, seed, p.params)
    return ly.wonham_report(form, p.params, p.shell, n=wonham_samples(n),
                            seed=seed)
