"""Flat key-value experiment configuration with dotted section names.

One `section.key = value` pair per line; `#` starts a comment.  Every command
declares its schema up front as key -> default, and a key's type is its
default's type.  Unknown keys, malformed values and values outside `DOMAINS`
are rejected before any computation starts, and the fully resolved
configuration is echoed into the run manifest.
"""

from __future__ import annotations

import importlib.metadata
import json
import platform
from dataclasses import fields
from math import inf, isfinite

from .lyapunov import MIN_SHELL_SAMPLES
from .model import ModelParams, State4
from .simulate import IntegratorConfig


class ConfigError(ValueError):
    pass


def _parse_bool(s: str) -> bool:
    if s.lower() in ("true", "1", "yes", "on"):
        return True
    if s.lower() in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {s!r}")


def _parse_floats(s: str):
    return tuple(float(tok) for tok in s.replace(",", " ").split())


# caster by the exact type of a key's default (bool is a subclass of int)
_CASTERS = {float: float, int: int, str: str, bool: _parse_bool,
            tuple: _parse_floats}

MODEL_SCHEMA = {
    "model.alpha": 1.0,
    "model.gamma": 1.0,
    "model.t_cold": 1.0,
    "model.t_hot": 0.3,
    "model.k": 2.0,
    "model.smoothing": ModelParams.smoothing,
}

# record_stride is read by simulate only, the one command recording a series
INTEGRATOR_SCHEMA = {f"integrator.{f.name}": f.default
                     for f in fields(IntegratorConfig)
                     if f.name != "record_stride"}

ENSEMBLE_SCHEMA = {
    "ensemble.n_paths": 512,
    "ensemble.x0": (1.0, -1.0, 0.5, 0.5),
}

SCHEMAS: dict[str, dict[str, object]] = {
    "constants": {**MODEL_SCHEMA},
    "phase-diagram": {
        **MODEL_SCHEMA,
        "grid.k_values": (0.4, 0.75, 1.0, 1.2, 1.5, 1.9999, 2.0, 2.0001, 3.0),
        "grid.t_hot_values": (),   # empty -> model.t_hot only
    },
    "simulate": {
        **MODEL_SCHEMA, **INTEGRATOR_SCHEMA, **ENSEMBLE_SCHEMA,
        "integrator.record_stride": IntegratorConfig.record_stride,
        "observables.names": "H,p0_sq,p1_sq",
        "samples.dump": False,
    },
    "tails": {
        **MODEL_SCHEMA, **INTEGRATOR_SCHEMA, **ENSEMBLE_SCHEMA,
        "tails.top_fraction": 0.01,
        "tails.burn_in": 0.5,      # fraction of t_end discarded
        "tails.thin_stride": 5,
    },
    "convergence": {
        **MODEL_SCHEMA, **INTEGRATOR_SCHEMA, **ENSEMBLE_SCHEMA,
        "convergence.binning": 4,
        "convergence.burn_in": 40.0,
        "convergence.n_times": 24,
        "convergence.noise_floor_factor": 2.0,
    },
    "verify": {
        "verify.preset": "positive-k2",
        "verify.n": 10000,
    },
    "reduced": {
        "reduced.mode": "all",
        "reduced.eta": 3.0,
        "reduced.sigma": -1.0,
        "reduced.dt": 0.01,
        "reduced.t_end": 200.0,
        "reduced.n_paths": 100000,
        "reduced.x_max": 50.0,
        "reduced.n_grid": 400,
    },
}


# key -> (test, text) for each key whose type admits values no run can use
DOMAINS = {
    "ensemble.n_paths": (lambda v: v >= 1, "a positive number of paths"),
    "ensemble.x0": (lambda v: len(v) == 4, "the 4 numbers q0 q1 p0 p1"),
    "grid.k_values": (lambda v: all(isfinite(k) and k != 0 for k in v),
                      "finite and free of k = 0 (the logarithmic potential)"),
    "grid.t_hot_values": (lambda v: all(0 < t < inf for t in v),
                          "finite and positive"),
    "tails.thin_stride": (lambda v: v >= 1, "a positive stride"),
    "tails.burn_in": (lambda v: 0 <= v <= 1, "in [0, 1]"),
    "tails.top_fraction": (lambda v: 0 < v < 1, "in (0, 1)"),
    "convergence.binning": (lambda v: v >= 1, "a positive number of bins"),
    "convergence.noise_floor_factor": (lambda v: 0 <= v < inf, "in [0, inf)"),
    "verify.n": (lambda v: v >= MIN_SHELL_SAMPLES,
                 f"at least {MIN_SHELL_SAMPLES} samples per shell"),
    "reduced.mode": (lambda v: v in ("density", "simulate", "classify", "all"),
                     "one of density, simulate, classify, all"),
    "reduced.n_paths": (lambda v: v >= 1, "a positive number of paths"),
    "reduced.n_grid": (lambda v: v >= 1, "a positive number of points"),
    "reduced.x_max": (lambda v: 1 < v < inf, "in (1, inf)"),  # grid from 1
}


def parse_config_text(text: str, command: str) -> dict:
    if command not in SCHEMAS:
        raise ConfigError(f"unknown command {command!r}")
    schema = SCHEMAS[command]
    resolved = dict(schema)
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in schema:
            raise ConfigError(f"line {lineno}: unknown key {key!r} "
                              f"for command {command!r}")
        try:
            resolved[key] = _CASTERS[type(schema[key])](val)
        except (ValueError, ConfigError) as e:
            raise ConfigError(f"line {lineno}: bad value for {key}: {e}")
    return resolved


def check_domains(cfg: dict) -> None:
    """Raise ConfigError at the first key of cfg outside its DOMAINS entry."""
    for key, (test, text) in DOMAINS.items():
        if key in cfg and not test(cfg[key]):
            raise ConfigError(f"{key} = {cfg[key]} is not {text}")


def from_section(cls, section: str, cfg: dict):
    """The dataclass cls built from the keys `section.<field>` of cfg; a
    field with no key keeps its default."""
    try:
        return cls(**{f.name: cfg[key] for f in fields(cls)
                      if (key := f"{section}.{f.name}") in cfg})
    except ValueError as e:
        raise ConfigError(str(e))


def chain_from_config(cfg: dict):
    """The chain's sections of cfg: (params, integrator, x0, n_paths)."""
    params = from_section(ModelParams, "model", cfg)
    icfg = from_section(IntegratorConfig, "integrator", cfg)
    return params, icfg, State4(*cfg["ensemble.x0"]), cfg["ensemble.n_paths"]


def manifest(command: str, cfg: dict, seed: int, out: str) -> dict:
    import numpy

    from . import __version__

    return {
        "command": command,
        "config": {k: (list(v) if isinstance(v, tuple) else v)
                   for k, v in sorted(cfg.items())},
        "seed": seed,
        "out": out,
        "versions": {
            "duobath": __version__,
            "numpy": numpy.__version__,
            "scipy": importlib.metadata.version("scipy"),
            "python": platform.python_version(),
        },
    }


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
