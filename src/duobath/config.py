"""Flat key-value experiment configuration with dotted section names.

One `section.key = value` pair per line; `#` starts a comment.  Every command
declares its schema up front; unknown keys or malformed values are rejected
before any computation starts, and the fully resolved configuration is echoed
into the run manifest.
"""

from __future__ import annotations

import json
import platform
from typing import Dict, Tuple

from .model import ModelParams
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


_CASTERS = {
    "float": float,
    "int": int,
    "str": str,
    "bool": _parse_bool,
    "floats": _parse_floats,
}

MODEL_SCHEMA = {
    "model.alpha": ("float", 1.0),
    "model.gamma": ("float", 1.0),
    "model.t_cold": ("float", 1.0),
    "model.t_hot": ("float", 0.3),
    "model.k": ("float", 2.0),
    "model.smoothing": ("str", "pure-power"),
}

INTEGRATOR_SCHEMA = {
    "integrator.dt": ("float", 0.005),
    "integrator.t_end": ("float", 10.0),
    "integrator.record_stride": ("int", 10),
    "integrator.substep_cap": ("float", 100.0),
    "integrator.max_halvings": ("int", 10),
}

ENSEMBLE_SCHEMA = {
    "ensemble.n_paths": ("int", 512),
    "ensemble.x0": ("floats", (1.0, -1.0, 0.5, 0.5)),
}

SCHEMAS: Dict[str, Dict[str, Tuple[str, object]]] = {
    "constants": {**MODEL_SCHEMA},
    "phase-diagram": {
        **MODEL_SCHEMA,
        "grid.k_values": ("floats", (0.4, 0.75, 1.0, 1.2, 1.5,
                                     1.9999, 2.0, 2.0001, 3.0)),
        "grid.t_hot_values": ("floats", ()),   # empty -> model.t_hot only
    },
    "simulate": {
        **MODEL_SCHEMA, **INTEGRATOR_SCHEMA, **ENSEMBLE_SCHEMA,
        "observables.names": ("str", "H,p0_sq,p1_sq"),
        "samples.dump": ("bool", False),
    },
    "tails": {
        **MODEL_SCHEMA, **INTEGRATOR_SCHEMA, **ENSEMBLE_SCHEMA,
        "tails.top_fraction": ("float", 0.01),
        "tails.burn_in": ("float", 0.5),      # fraction of t_end discarded
        "tails.thin_stride": ("int", 10),
    },
    "convergence": {
        **MODEL_SCHEMA, **INTEGRATOR_SCHEMA, **ENSEMBLE_SCHEMA,
        "convergence.binning": ("int", 4),
        "convergence.burn_in": ("float", 40.0),
        "convergence.n_times": ("int", 24),
        "convergence.noise_floor_factor": ("float", 2.0),
    },
    "verify": {
        "verify.preset": ("str", "positive-k2"),
        "verify.n": ("int", 10000),
    },
    "reduced": {
        "reduced.mode": ("str", "all"),        # density | simulate | classify | all
        "reduced.eta": ("float", 3.0),
        "reduced.sigma": ("float", -1.0),
        "reduced.dt": ("float", 0.01),
        "reduced.t_end": ("float", 200.0),
        "reduced.n_paths": ("int", 100000),
        "reduced.x_max": ("float", 50.0),
        "reduced.n_grid": ("int", 400),
    },
}


def parse_config_text(text: str, command: str) -> dict:
    if command not in SCHEMAS:
        raise ConfigError(f"unknown command {command!r}")
    schema = SCHEMAS[command]
    resolved = {key: default for key, (_, default) in schema.items()}
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
        kind = schema[key][0]
        try:
            resolved[key] = _CASTERS[kind](val)
        except (ValueError, ConfigError) as e:
            raise ConfigError(f"line {lineno}: bad value for {key}: {e}")
    return resolved


def model_from_config(cfg: dict) -> ModelParams:
    try:
        return ModelParams(alpha=cfg["model.alpha"], gamma=cfg["model.gamma"],
                           t_cold=cfg["model.t_cold"],
                           t_hot=cfg["model.t_hot"], k=cfg["model.k"],
                           smoothing=cfg["model.smoothing"])
    except ValueError as e:
        raise ConfigError(str(e))


def integrator_from_config(cfg: dict) -> IntegratorConfig:
    try:
        return IntegratorConfig(
            dt=cfg["integrator.dt"], t_end=cfg["integrator.t_end"],
            record_stride=cfg["integrator.record_stride"],
            substep_cap=cfg["integrator.substep_cap"],
            max_halvings=cfg["integrator.max_halvings"])
    except ValueError as e:
        raise ConfigError(str(e))


def manifest(command: str, cfg: dict, seed: int, out: str) -> dict:
    import numpy
    import scipy

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
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
    }


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
