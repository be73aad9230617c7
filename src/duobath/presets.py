"""Frozen verification presets.

Every preset pins model parameters, test-function parameters, the drift
predicate with its constant, and the shell ladder.  The free constants were
fixed by grid search against the stabilization criterion and are part of the
contract: tests run them as-is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams
from .oscillator import c_hat
from . import lyapunov as ly


@dataclass
class VerifyPreset:
    name: str
    params: ModelParams
    spec: ly.TestFunctionSpec
    predicate: ly.Predicate
    shell: ly.ShellSpec
    kind: str = "sign"           # sign | wonham | wonham-sabotaged
    description: str = ""


def _k2_params(t_hot: float) -> ModelParams:
    return ModelParams(alpha=1.0, gamma=1.0, t_cold=1.0, t_hot=t_hot, k=2.0)


def get_preset(name: str) -> VerifyPreset:
    ch = c_hat()
    if name == "positive-k2":
        return VerifyPreset(
            name=name,
            params=_k2_params(0.3),
            spec=ly.TestFunctionSpec(
                "V_k2", {"theta": -0.08, "c": 0.9, "E": 1e4}),
            predicate=ly.drift_below(-0.01, "L V <= -0.01"),
            shell=ly.ShellSpec(r0=4e5, max_doublings=8),
            description=("existence regime at k=2 (t_hot below the critical "
                         "coupling): coercive drift of the corrected energy"))
    if name == "negative-k2":
        return VerifyPreset(
            name=name,
            params=_k2_params(2.0 * ch),
            spec=ly.TestFunctionSpec(
                "W1_nonexist",
                {"theta": 0.08, "delta": 0.15, "zeta": 0.05, "E": 1e4}),
            predicate=ly.drift_above(0.0, "L W1 >= 0"),
            shell=ly.ShellSpec(r0=4e5, max_doublings=8),
            kind="wonham",
            description=("non-existence regime at k=2 (t_hot twice the "
                         "critical coupling): two-function criterion"))
    if name == "negative-k2-sabotaged":
        p = get_preset("negative-k2")
        p.name = name
        p.kind = "wonham-sabotaged"
        p.description = ("control pair with W1 = H; must fail the drift "
                         "hypothesis (L H changes sign with p0)")
        return p
    if name == "frac-k15":
        kap = 2.0 / 1.5 - 1.0
        return VerifyPreset(
            name=name,
            params=ModelParams(alpha=1.0, gamma=1.0, t_cold=1.0, t_hot=1.0,
                               k=1.5),
            spec=ly.TestFunctionSpec(
                "W_exp_frac", {"theta": 0.1, "eta_cutoff": 1.0,
                               "delta": 0.02, "kappa": kap}),
            predicate=ly.drift_below_scaled(
                5e-4, "value", 2 * kap - 1,
                name="L W / W <= -5e-4 * V^(2/k-2) ... (=V^(2 kappa - 1))"),
            shell=ly.ShellSpec(r0=8e6, max_doublings=6),
            description=("fractional-exponential regime at k=1.5: log-scale "
                         "drift of exp(delta V^kappa)"))
    if name == "smallk-k075":
        return VerifyPreset(
            name=name,
            params=ModelParams(alpha=1.0, gamma=1.0, t_cold=1.0, t_hot=1.0,
                               k=0.75, smoothing="regularized"),
            spec=ly.TestFunctionSpec(
                "hatH_smallk", {"xi": 2.0, "eps": 0.005, "beta0": 1e-5,
                                "delta": 1.0, "w": 0.05}),
            predicate=ly.drift_below(-1.0, "L W / W <= -1"),
            shell=ly.ShellSpec(r0=4.8e9, max_doublings=6),
            description=("exponential-weight spectral-gap regime at k=0.75: "
                         "corrected energy with bounded force surrogate"))
    if name == "smallk-k04":
        return VerifyPreset(
            name=name,
            params=ModelParams(alpha=2.0, gamma=2.0, t_cold=1.0, t_hot=1.0,
                               k=0.4, smoothing="regularized"),
            spec=ly.TestFunctionSpec(
                "W_smallk", {"beta0": 1e-4, "lambda": 1.0}),
            predicate=ly.drift_below_scaled(
                5e-7, "log_w", 2.0 - 1.0 / 0.4,
                name="L W / W <= -5e-7 * (log W)^(2-1/k)"),
            shell=ly.ShellSpec(r0=6.4e5, max_doublings=8),
            description=("weak-pinning regime at k=0.4: sum of exponentials "
                         "of the Gram form and the corrected center of mass"))
    raise KeyError(f"unknown preset {name!r}; available: {PRESET_NAMES}")


PRESET_NAMES = ("positive-k2", "negative-k2", "negative-k2-sabotaged",
                "frac-k15", "smallk-k075", "smallk-k04")


def run_preset(name: str, n: int = 10_000, seed: int = 0):
    """Execute a preset; returns a VerificationReport or WonhamReport."""
    p = get_preset(name)
    if p.kind == "sign":
        form = ly.build_test_function(p.spec, p.params)
        return ly.verify_sign(form, p.predicate, p.shell, n, seed, p.params)
    # two-function criteria with W2 = H and the constant weight F
    w2 = ly.PlainForm(lambda x, pr: ly.jet_const(0.0), name="H", h_coeff=1.0)
    f_const = p.params.gamma * (p.params.t_cold + p.params.t_hot)
    f_bound = lambda states, pr: np.full_like(np.asarray(states.p0), f_const)
    if p.kind == "wonham-sabotaged":
        w1 = ly.PlainForm(lambda x, pr: ly.jet_const(0.0), name="H(sabotage)",
                          h_coeff=1.0)
    else:
        w1 = ly.build_test_function(p.spec, p.params)
    return ly.wonham_report(w1, w2, f_bound, p.params, p.shell,
                            n=max(2000, n // 2), seed=seed)
