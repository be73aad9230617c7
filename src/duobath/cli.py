"""Experiment runner.

Every subcommand consumes a flat key-value config (optional; defaults are
complete), writes a manifest echoing the resolved configuration, and emits
CSV/JSON artifacts into --out.  Exit codes: 0 success, 1 configuration or
runtime error, 2 a verification predicate was numerically falsified.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import oscillator as osc
from . import reduced as rd
from . import simulate as sim
from . import presets as pre
from . import lyapunov as ly
from .config import (ConfigError, parse_config_text, check_domains,
                     from_section, chain_from_config, manifest, write_json)
from .model import ModelParams

CCDF_POINTS = 200   # log-spaced order statistics written to ccdf.csv


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([c if isinstance(c, str) else repr(float(c))
                        for c in row])


def _prepare(args, command):
    text = ""
    if args.config == "-":
        text = sys.stdin.read()
    elif args.config:
        text = Path(args.config).read_text()
    cfg = parse_config_text(text, command)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seed = args.seed if args.seed is not None else 0
    write_json(out / "manifest.json", manifest(command, cfg, seed, str(out)))
    check_domains(cfg)
    return cfg, out, seed


def _report(out, report) -> None:
    """Write report.json into out and print the same JSON."""
    write_json(out / "report.json", report)
    print(json.dumps(report, indent=2, sort_keys=True))


def cmd_constants(args) -> int:
    cfg, out, seed = _prepare(args, "constants")
    p = from_section(ModelParams, "model", cfg)
    ch = osc.c_hat()
    report = {
        "c_hat": ch,
        "k_const": osc.k_const(p.k),
        "kappa": rd.kappa(p.k),
        "zeta_star": rd.zeta_star(p.alpha, ch, p.t_hot),
        "critical_t_hot": p.alpha ** 2 * ch,
        "kinetic_finiteness_fraction": rd.KINETIC_FINITENESS_FRACTION,
    }
    _report(out, report)
    return 0


def cmd_phase_diagram(args) -> int:
    cfg, out, seed = _prepare(args, "phase-diagram")
    base = from_section(ModelParams, "model", cfg)
    ch = osc.c_hat()
    t_hots = cfg["grid.t_hot_values"] or (base.t_hot,)
    rows = []
    for k in cfg["grid.k_values"]:
        for th in t_hots:
            row = rd.classify_full(k, replace(base, t_hot=th), ch)
            rows.append([k, th, row.regime_id,
                         row.integrability.describe(),
                         row.speed.describe(), row.prefactor.describe()])
    _write_csv(out / "phase_diagram.csv",
               ["k", "t_hot", "regime", "integrability", "speed",
                "prefactor"], rows)
    for r in rows:
        print(f"k={r[0]:<8} t_hot={r[1]:<22} {r[2]:<16} speed={r[4]}")
    return 0


_OBSERVABLES = {
    "H": sim.obs_energy,
    "Hf1": sim.obs_free_energy_1,
    "Hf0": sim.obs_free_energy_0,
    "p0_sq": sim.obs_p0_sq,
    "p1_sq": sim.obs_p1_sq,
}


def _observables(names, p):
    obs = {}
    for name in names.replace(",", " ").split():
        if name not in _OBSERVABLES:
            raise ConfigError(f"unknown observable {name!r}; "
                              f"available: {sorted(_OBSERVABLES)}")
        if name == "Hf0" and 1 < p.k <= 2:   # where orbit functions exist
            obs[name] = sim.obs_free_energy_0(p, osc.build_phi(p.k))
        else:
            if name == "Hf0":
                print(f"note: at k = {p.k:g} Hf0 is the uncorrected free "
                      "energy p0^2/2 + |q0|^(2k)/(2k); the phi correction "
                      "exists for 1 < k <= 2 only", file=sys.stderr)
            obs[name] = _OBSERVABLES[name](p)
    return obs


def cmd_simulate(args) -> int:
    cfg, out, seed = _prepare(args, "simulate")
    p, icfg, x0, n = chain_from_config(cfg)
    obs = _observables(cfg["observables.names"], p)
    series = sim.simulate_ensemble(x0, icfg, p, obs, seed=seed, n_paths=n)
    _write_csv(out / "stats.csv", ["t", "observable", "mean", *sim.QUANTILES],
               [[t, name, st["mean"][i], *(st[q][i] for q in sim.QUANTILES)]
                for name, st in series.stats.items()
                for i, t in enumerate(series.times)])
    if cfg["samples.dump"]:
        _write_csv(out / "samples.csv", ["q0", "q1", "p0", "p1"],
                   series.final.as_array().T.tolist())
    print(f"simulated {n} paths to t={icfg.t_end}; stats in {out/'stats.csv'}")
    return 0


def cmd_tails(args) -> int:
    cfg, out, seed = _prepare(args, "tails")
    p, icfg, x0, n = chain_from_config(cfg)
    n_steps = sim.steps_in(icfg.t_end, icfg.dt)
    burn_in = cfg["tails.burn_in"]
    burn_steps = int(round(burn_in * n_steps))
    if burn_steps >= n_steps:
        raise ConfigError(f"tails.burn_in = {burn_in} leaves none of the "
                          f"{n_steps} integrator steps to sample")
    kept = range(burn_steps + 1, n_steps + 1, cfg["tails.thin_stride"])
    count = n * len(kept)   # energies pooled below
    top = cfg["tails.top_fraction"]
    n_tail = int(count * top)
    if not sim.HILL_MIN_TAIL <= n_tail < count:
        raise ConfigError(f"tails.top_fraction = {top} keeps {n_tail} of the "
                          f"{count} pooled energies; the Hill estimate needs "
                          f"at least {sim.HILL_MIN_TAIL} and fewer than all")
    h_of = sim.obs_energy(p)

    # burn in, then pool H over paths x thinned snapshots, one row each
    pool = np.empty(count)
    rows = pool.reshape(len(kept), n)
    for i, s in sim.run_paths(x0, n, seed, n_steps, icfg, p):
        if i in kept:
            rows[kept.index(i)] = h_of(s)
    pool.sort()     # the one copy of the pool, read by Hill and the CCDF
    hill = sim.hill_sorted(pool, top)
    report = {"hill_index": hill.index, "stderr": hill.stderr,
              "n_tail": hill.n_tail, "threshold": hill.threshold,
              "heavy_tail": hill.heavy_tail,
              "index_by_fraction": hill.index_by_fraction,
              "n_samples": int(pool.size)}
    _write_csv(out / "ccdf.csv", ["x", "value"], _ccdf_rows(pool))
    _report(out, report)
    return 0


def _ccdf_rows(ascending):
    """CCDF_POINTS log-spaced order statistics of an ascending array's
    values > 0, +inf included (the window ends at the first NaN)."""
    s = ascending[np.searchsorted(ascending, 0.0, "right"):
                  np.searchsorted(ascending, np.nan)]
    idx = np.unique(np.geomspace(1, len(s), CCDF_POINTS).astype(int)) - 1
    return [[s[i], 1.0 - (i + 1) / len(s)] for i in idx]


def cmd_convergence(args) -> int:
    cfg, out, seed = _prepare(args, "convergence")
    p, icfg, x0, n = chain_from_config(cfg)
    burn = cfg["convergence.burn_in"]
    try:    # the stationary reference's run
        ref_cfg = replace(icfg, t_end=burn)
    except ValueError as e:
        raise ConfigError(f"convergence.burn_in = {burn}: {e}")
    binning = cfg["convergence.binning"]
    n_times = cfg["convergence.n_times"]
    n_steps = sim.steps_in(icfg.t_end, icfg.dt)
    if not 1 <= n_times <= n_steps:
        raise ConfigError(f"convergence.n_times = {n_times} is not between 1 "
                          f"and the {n_steps} steps of integrator.dt = "
                          f"{icfg.dt} up to integrator.t_end = {icfg.t_end}")
    # point j of n_times sits at the step nearest to j * t_end / n_times
    marks = {int(round(j * n_steps / n_times)) for j in range(1, n_times + 1)}

    # stationary reference: long burn-in from a moderate-energy start
    ref = sim.simulate_ensemble(x0, ref_cfg, p, {}, seed=seed + 1,
                                n_paths=n).final.as_array().T
    ref2 = sim.simulate_ensemble(x0, ref_cfg, p, {}, seed=seed + 2,
                                 n_paths=n).final.as_array().T
    floor = sim.tv_proxy(ref, ref2, binning)

    # point-started ensemble, TV against the reference at a ladder of times
    ts, tvs = [], []
    for i, s in sim.run_paths(x0, n, seed, n_steps, icfg, p):
        if i in marks:
            ts.append(i * icfg.dt)
            tvs.append(sim.tv_proxy(s.as_array().T, ref, binning))
    _write_csv(out / "tv_series.csv", ["t", "tv_proxy"],
               list(zip(ts, tvs)))
    ts, tvs = np.asarray(ts), np.asarray(tvs)
    usable = tvs > cfg["convergence.noise_floor_factor"] * floor
    report = {"noise_floor": floor, "n_usable": int(usable.sum())}
    if usable.sum() >= 10:
        fit = sim.fit_decay(ts[usable], tvs[usable])
        report.update(asdict(fit))
    else:
        report["family"] = "inconclusive"
    _report(out, report)
    return 0


def cmd_verify(args) -> int:
    cfg, out, seed = _prepare(args, "verify")
    name = args.preset or cfg["verify.preset"]
    if name not in pre.PRESET_NAMES:
        raise ConfigError(f"unknown preset {name!r}; available: "
                          f"{', '.join(pre.PRESET_NAMES)}")
    n = cfg["verify.n"]
    rep = pre.run_preset(name, n=n, seed=seed)
    report = {**asdict(rep), "preset": name}
    if isinstance(rep, ly.WonhamReport):    # what verify.n became
        report["samples_per_level_set"] = pre.wonham_samples(n)
    write_json(out / "report.json", report)
    if isinstance(rep, ly.WonhamReport):
        for h in rep.hypotheses:
            print(("PASS" if h.passed else "FAIL"), "-", h.name)
        if not rep.passed:
            print("two-function criterion not satisfied", file=sys.stderr)
            return 2
        return 0
    _write_csv(out / "margins.csv",
               ["r_lo", "r_hi", "samples", "violations", *ly.MARGIN_QUANTILES],
               [[s.r_lo, s.r_hi, s.samples, s.violations,
                 *s.margin_quantiles.values()] for s in rep.shells])
    print(f"field: {rep.field}")
    print(f"predicate: {rep.predicate}")
    for sh in rep.shells:
        print(f"  shell [{sh.r_lo:g}, {sh.r_hi:g}]: violations "
              f"{sh.violations}/{sh.samples}, worst margin "
              f"{sh.worst_margin:.3g}")
    if not (rep.stabilized and rep.final_verdict):
        worst = min(rep.shells, key=lambda s: s.worst_margin)
        print(f"verification FAILED; worst margin {worst.worst_margin:.3g} "
              f"in shell [{worst.r_lo:g}, {worst.r_hi:g}]", file=sys.stderr)
        return 2
    print(f"stabilized at radius {rep.stabilization_radius:g}: PASS")
    return 0


def cmd_reduced(args) -> int:
    cfg, out, seed = _prepare(args, "reduced")
    rp = from_section(rd.ReducedParams, "reduced", cfg)
    mode = cfg["reduced.mode"]
    dt, t_end = cfg["reduced.dt"], cfg["reduced.t_end"]
    try:    # the run length, checked before any mode's work
        sim.steps_in(t_end, dt)
    except ValueError as e:
        raise ConfigError(f"reduced.dt = {dt}, reduced.t_end = {t_end}: {e}")
    report = {"eta": rp.eta, "sigma": rp.sigma}
    if mode in ("classify", "all"):
        report["rate_row"] = asdict(rd.classify_reduced(rp))
    if mode in ("density", "all"):
        try:
            dens = rd.stationary_density(rp)
            xs = np.geomspace(1.0, cfg["reduced.x_max"],
                              cfg["reduced.n_grid"])
            _write_csv(out / "density.csv", ["x", "value"],
                       list(zip(xs, dens.pdf(xs))))
            report["normalization"] = dens.normalization
        except rd.NoInvariantMeasure as e:
            report["density"] = f"no invariant measure: {e}"
    if mode in ("simulate", "all"):
        samples = rd.simulate_reduced(rp, dt, t_end, cfg["reduced.n_paths"],
                                      seed)
        _write_csv(out / "reduced_ccdf.csv", ["x", "value"],
                   _ccdf_rows(np.sort(samples)))
        report["sample_mean"] = float(samples.mean())
        report["sample_q95"] = float(np.quantile(samples, 0.95))
    _report(out, report)
    return 0


COMMANDS = {
    "constants": cmd_constants,
    "phase-diagram": cmd_phase_diagram,
    "simulate": cmd_simulate,
    "tails": cmd_tails,
    "convergence": cmd_convergence,
    "verify": cmd_verify,
    "reduced": cmd_reduced,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="duobath",
        description="numerical laboratory for the two-oscillator chain with "
                    "one undamped noise channel")
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("--config", help="flat key-value config file "
                                     "('-' reads standard input)")
    ap.add_argument("--seed", type=int, default=None,
                    help="master seed (default 0)")
    ap.add_argument("--out", default="runs/out", help="output directory")
    ap.add_argument("--preset", help="verification preset name "
                                     f"(one of {', '.join(pre.PRESET_NAMES)})")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
