"""Spans around the public functions of each duobath layer, kept in memory.

A traced run patches each function where its callers look it up, records one
span per call (layer name, parent span, start, end, counts), and restores every
original afterwards.  Self time is a span's duration minus the part of it that
its child spans cover.  Counting hooks run after the call, inside a
`trace.hook` span of their own, so their cost shows as tracing overhead and
not as the parent layer's self time.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from typing import Callable, Dict, List, Optional

HOOK = "trace.hook"
ROOT = "cli.main"
MARK = "_perfbench_layer"


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []    # [name, parent index, start, end, counts]
        self._open: List[int] = []
        self._patched: List[tuple] = []

    def call(self, name: str, fn, args=(), kwargs=None, count=None):
        kwargs = kwargs or {}
        span = [name, self._open[-1] if self._open else -1, 0.0, 0.0, {}]
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        span[2] = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[3] = self.clock()
            self._open.pop()
        if count is not None:
            self.call(HOOK, count, (span[4], args, kwargs, result))
        return result

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return tracer.call(name, original, args, kwargs, count)

        setattr(wrapper, MARK, name)
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


# counting hooks: (counts, args, kwargs, result) -> None -----------------------

def _size(v) -> int:
    # numpy is imported lazily throughout: child.py loads this module before
    # it starts timing the import of duobath (and with it numpy)
    import numpy as np
    return int(np.size(v))


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _count_step(counts, args, kwargs, result):
    """Paths stepped, and paths whose force needed more halvings than the
    integrator allows (their step is silently clipped)."""
    import numpy as np
    from duobath.model import v1_prime
    q0, q1 = np.asarray(args[0]), np.asarray(args[1])
    cfg, params = _arg(args, kwargs, 5, "cfg"), _arg(args, kwargs, 6, "params")
    counts["paths"] = q0.size
    counts["clipped"] = 0
    if cfg.substep_cap is not None:
        a = params.alpha
        mag = np.maximum(np.abs(-v1_prime(q0, params) + a * (q1 - q0)),
                         np.abs(-v1_prime(q1, params) + a * (q0 - q1)))
        with np.errstate(divide="ignore"):
            need = np.ceil(np.log2(np.maximum(mag / cfg.substep_cap, 1.0)))
        counts["clipped"] = int(np.sum(need > cfg.max_halvings))


def _count_noise(counts, args, kwargs, result):
    shape = _arg(args, kwargs, 4, "shape")
    counts["draws"] = math.prod(shape)
    counts["group"] = shape[-1]


def _count_reduced(counts, args, kwargs, result):
    dt, t_end = _arg(args, kwargs, 1, "dt"), _arg(args, kwargs, 2, "t_end")
    counts["path_steps"] = _arg(args, kwargs, 3, "n_paths") \
        * int(round(t_end / dt))


def _count_points(counts, args, kwargs, result):
    counts["points"] = _size(_arg(args, kwargs, 1, "frac"))


def _count_result(counts, args, kwargs, result):
    counts["states"] = _size(result)


def _count_states_in(counts, args, kwargs, result):
    """States passed as the State4 argument after self."""
    counts["states"] = _size(_arg(args, kwargs, 1, "x").p0)


def _count_shell(counts, args, kwargs, result):
    counts["states"] = _size(result.p0)


def _count_time_of(counts, args, kwargs, result):
    counts["states"] = _size(_arg(args, kwargs, 1, "P"))


# layer table: (module, owner attribute or None, function, layer, hook) -------

TARGETS = [
    ("duobath.cli", None, "write_json", "cli.io", None),
    ("duobath.cli", None, "_write_csv", "cli.io", None),
    ("duobath.simulate", None, "step_ensemble", "simulate.step_ensemble",
     _count_step),
    ("duobath.simulate", "NoiseStream", "normals", "simulate.noise",
     _count_noise),
    ("duobath.simulate", None, "simulate_ensemble", "simulate.observables",
     None),
    ("duobath.simulate", None, "hamiltonian", "model.hamiltonian",
     _count_result),
    ("duobath.reduced", None, "simulate_reduced", "reduced.simulate_reduced",
     _count_reduced),
    ("duobath.reduced", None, "stationary_density",
     "reduced.stationary_density", None),
    ("duobath.oscillator", None, "periodic_interp",
     "oscillator.periodic_interp", _count_points),
    ("duobath.oscillator", "OrbitTable", "time_of", "oscillator.time_of",
     _count_time_of),
    ("duobath.oscillator", None, "build_orbit", "oscillator.build", None),
    ("duobath.oscillator", None, "solve_poisson", "oscillator.build", None),
    ("duobath.lyapunov", None, "sample_shell", "lyapunov.sample_shell",
     _count_shell),
    ("duobath.lyapunov", None, "hamiltonian", "model.hamiltonian",
     _count_result),
    ("duobath.lyapunov", None, "generator_of_jet", "model.generator", None),
    ("duobath.lyapunov", None, "carre_of_jets", "model.generator", None),
    ("duobath.lyapunov", None, "build_matrices", "linear.build", None),
    ("duobath.lyapunov", None, "build_gram", "linear.build", None),
    ("duobath.lyapunov", None, "g_eps_profile", "linear.build", None),
] + [("duobath.lyapunov", cls, meth, "lyapunov.evaluate", _count_states_in)
     for cls, meths in (("PlainForm", ("evaluate", "values")),
                        ("ExpForm", ("evaluate", "values", "log_values")),
                        ("SumExpForm", ("evaluate", "values", "log_values")))
     for meth in meths]


def _owner(module: str, cls: Optional[str]):
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


def install(tracer: Tracer) -> None:
    for module, cls, attr, layer, hook in TARGETS:
        tracer.patch(_owner(module, cls), attr, layer, hook)


def leftover_wrappers() -> List[str]:
    """Targets that still hold a tracing wrapper."""
    return [f"{module}.{cls + '.' if cls else ''}{attr}"
            for module, cls, attr, _, _ in TARGETS
            if hasattr(_owner(module, cls).__dict__[attr], MARK)]


# aggregation ------------------------------------------------------------------

def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the union of its direct children's
    intervals, clipped to the span."""
    children: List[List[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[1] >= 0:
            children[s[1]].append(i)
    out = []
    for i, (_, _, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted((spans[c][2], spans[c][3])
                                     for c in children[i]):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def _has_ancestor(spans, i, name) -> bool:
    p = spans[i][1]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][1]
    return False


def aggregate(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Per layer: calls, self_s, total_s and summed counts.  total_s and the
    counts skip spans nested in a span of the same layer, so a layer whose
    functions call each other counts its work once."""
    selfs = self_times(spans)
    layers: Dict[str, Dict[str, float]] = {}
    for i, (name, _, start, end, counts) in enumerate(spans):
        a = layers.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        a["calls"] += 1
        a["self_s"] += selfs[i]
        if _has_ancestor(spans, i, name):
            continue
        a["total_s"] += end - start
        for k, v in counts.items():
            a[k] = a.get(k, 0) + v
        if name == "model.hamiltonian" and \
                _has_ancestor(spans, i, "lyapunov.sample_shell"):
            shell = layers.setdefault("lyapunov.sample_shell",
                                      {"calls": 0, "self_s": 0.0,
                                       "total_s": 0.0})
            shell["batches"] = shell.get("batches", 0) + 1
            shell["candidates"] = shell.get("candidates", 0) \
                + counts.get("states", 0)
    return layers
