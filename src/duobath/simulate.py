"""Time integration of the full 4-D chain, ensemble statistics, tail-index
estimation and decay-family fits.

Reproducibility contract: all noise comes from counter-based streams keyed on
(master seed, step, substep, halving level), so a run is bitwise reproducible
for a fixed seed, n_paths and integrator configuration.  Each halving level
draws one block for all of its paths, so the noise a path sees depends on
n_paths and on which other paths share its level: the same path in a larger
ensemble follows a different trajectory.

Step kernel: one Strang step per path and (sub)step, with the forces at the
end of a substep reused for the first half-kick of the next one, and the
momentum and position updates done in place on fresh output arrays.  When no
path needs halving the whole ensemble is stepped at once, with no grouping
by level; otherwise a non-finite force is an IntegrationError before any
substep.  NoiseStream reseats a single Philox generator per noise block, and
the surrogate (reduced.run_reduced) draws from it too.

Lookahead: a block is keyed on its counter words alone, so it can be drawn
before it is needed, with the same bits.  run_paths and run_reduced hand the
next step's level-0 block to one helper thread while the current step
computes; blocks of fewer than PREFETCH_MIN_DRAWS draws are drawn on the
caller's thread, and the thread ends with the run.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Tuple

import numpy as np

from .model import ModelParams, State4, forces, hamiltonian


class IntegrationError(RuntimeError):
    def __init__(self, message, time=None, path=None):
        super().__init__(message)
        self.time = time
        self.path = path


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float = 0.005
    t_end: float = 10.0
    record_stride: int = 10
    substep_cap: Optional[float] = 100.0  # force magnitude that triggers halving
    max_halvings: int = 10

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")
        if self.substep_cap is not None and not self.substep_cap > 0:
            raise ValueError("substep_cap must be positive (None turns "
                             "halving off)")
        # the halving level is packed into 8 bits of the noise counter
        if not 0 <= self.max_halvings <= 255:
            raise ValueError("max_halvings must lie in [0, 255]")


# Fewest draws of a block that is drawn ahead on the helper thread.  Measured
# in-process on a 2-vCPU Xeon VM (numpy 2.4), drawing ahead against drawing
# here, medians of 5 alternating runs while the helper had a core of its
# own: at 8192 draws a chain path-step (2048 paths) was 1.20-1.35x and a
# surrogate path-step 1.11-1.16x as fast; at 16384 (chain, 4096 paths) and
# 20000 (surrogate) 1.43-1.46x and 1.27-1.29x.  Blocks of 2048 draws (the
# 512 paths of a stiff chain run) are left on the caller's thread.
PREFETCH_MIN_DRAWS = 8192


class _Reseated:
    """One Philox generator reseated for each block: its counter is set to
    [0, word1, word2, 0] with an empty buffer, so every block equals the
    first draws of a fresh Philox(key, counter=[0, word1, word2, 0])."""

    def __init__(self, key):
        self._bg = np.random.Philox(key=key)
        self._gen = np.random.Generator(self._bg)
        self._state = self._bg.state    # counter 0, buffer empty
        self._counter = self._state["state"]["counter"]

    def draw(self, word1: int, word2: int, shape) -> np.ndarray:
        self._counter[1] = word1
        self._counter[2] = word2
        self._bg.state = self._state
        return self._gen.standard_normal(shape)


def _other_cores():
    """The cores this process may run on other than the calling thread's
    current one, or None where there are none or they cannot be read."""
    try:
        with open("/proc/thread-self/stat") as fh:
            here = int(fh.read().rsplit(")", 1)[1].split()[36])
        return os.sched_getaffinity(0) - {here} or None
    except (AttributeError, OSError, ValueError, IndexError):
        return None


def _bind(cores) -> None:
    """Keep the calling thread off the core its caller ran on.  A kernel
    that does not spread one process's runnable threads over idle cores
    (seen on a 2-vCPU VM: both threads on one vCPU while the other idled,
    for minutes at a time) would otherwise run the helper by turns with the
    caller, and the lookahead would gain in some runs and lose in others."""
    if cores is not None:
        try:
            os.sched_setaffinity(0, cores)
        except OSError:
            pass


class NoiseStream:
    """Counter-based standard-normal blocks of one seed, for the chain and
    the surrogate alike.

    Every block equals the first draws of a fresh
    Philox(key, counter=[0, word1, word2, 0]), wherever it is drawn.
    prefetch hands a block of at least PREFETCH_MIN_DRAWS draws to one
    helper thread with its own generator, so it is drawn while the caller
    computes; block returns its first draws, waiting for it if need be, when
    asked for the same counter words and no more draws.  Every other request
    is drawn on the caller's thread.  The thread starts at the first
    prefetch, bound to the cores other than the one the caller is on, and
    is joined by close.  The lookahead pays only while the helper gets a
    core of its own; where the two threads take turns on one core (a
    one-core process, or the caller's core shared with other work), the
    hand-off adds to each step."""

    def __init__(self, seed: int):
        self.key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
        self._here = _Reseated(self.key)
        self._pool = None               # the helper thread, once started
        self._there = None              # and the generator only it draws from
        self._ahead = {}                # (word1, word2) -> (size, future)

    def prefetch(self, word1: int, word2: int, size: int) -> None:
        """Start drawing the block of size draws at (word1, word2) on the
        helper thread; a no-op below PREFETCH_MIN_DRAWS.  Of the blocks
        prefetched before and not yet asked for, the newest is kept (it is
        the one the step about to run reads) and older ones are dropped."""
        if size < PREFETCH_MIN_DRAWS:
            return
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=1, initializer=_bind, initargs=(_other_cores(),))
            self._there = _Reseated(self.key)
        while len(self._ahead) > 1:
            self._ahead.pop(next(iter(self._ahead)))[1].cancel()
        self._ahead[word1, word2] = size, self._pool.submit(
            self._there.draw, word1, word2, size)

    def close(self) -> None:
        """Drop the prefetched blocks and join the helper thread."""
        self._ahead.clear()
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)
            self._pool = None

    def block(self, word1: int, word2: int, shape) -> np.ndarray:
        """Standard normals of the block at counter words (word1, word2)."""
        ahead = self._ahead.pop((word1, word2), None)
        if ahead is not None:
            size = math.prod(np.atleast_1d(shape))
            if size <= ahead[0]:
                return ahead[1].result()[:size].reshape(shape)
        return self._here.draw(word1, word2, shape)

    def normals(self, step: int, group: int, sub: int, shape) -> np.ndarray:
        """The chain's block of (step, halving level, substep)."""
        return self.block(sub, (step << 8) | (group & 0xFF), shape)


def _strang(q0, q1, p0, p1, f0, f1, h, params, z):
    """One step: OU(h/2) on the momenta, velocity Verlet(h), OU(h/2).

    The friction+noise update on p0 is the exact Ornstein-Uhlenbeck kernel;
    p1 gets an exact Gaussian increment (no friction).  (f0, f1) are the
    forces at (q0, q1).  Returns the new (q0, q1, p0, p1) in fresh arrays and
    the forces at the new positions; the inputs are not written to."""
    g, T, Ti = params.gamma, params.t_cold, params.t_hot
    c = math.exp(-g * h / 2)
    s0 = math.sqrt(T * (1 - c * c))
    s1 = math.sqrt(2 * g * Ti * h / 2)
    hh = 0.5 * h
    a = np.empty_like(p0)
    P0 = np.multiply(c, p0)                 # p0 = c * p0 + s0 * z[0]
    P0 += np.multiply(s0, z[0], out=a)
    P1 = np.multiply(s1, z[1])              # p1 = p1 + s1 * z[1]
    P1 += p1
    P0 += np.multiply(hh, f0, out=a)        # p += 0.5 * h * f
    P1 += np.multiply(hh, f1, out=a)
    Q0 = np.multiply(h, P0)                 # q = q + h * p
    Q0 += q0
    Q1 = np.multiply(h, P1)
    Q1 += q1
    f0, f1 = forces(Q0, Q1, params)
    P0 += np.multiply(hh, f0, out=a)
    P1 += np.multiply(hh, f1, out=a)
    P0 *= c                                 # p0 = c * p0 + s0 * z[2]
    P0 += np.multiply(s0, z[2], out=a)
    P1 += np.multiply(s1, z[3], out=a)      # p1 = p1 + s1 * z[3]
    return Q0, Q1, P0, P1, f0, f1


def _halving_levels(f0, f1, cfg):
    """Halvings of cfg.dt each path needs: ceil(log2(|f| / substep_cap)) for
    the larger force, between 0 and max_halvings; a non-finite force gets
    max_halvings (step_ensemble raises on one before any substep)."""
    mag = np.maximum(np.abs(f0), np.abs(f1))
    m = np.ceil(np.log2(np.maximum(mag / cfg.substep_cap, 1.0)))
    return np.fmin(m, cfg.max_halvings).astype(int)


def step_ensemble(q0, q1, p0, p1, step_index: int, cfg: IntegratorConfig,
                  params: ModelParams, noise: NoiseStream):
    """Advance every path by cfg.dt, locally halving dt where forces are stiff.

    When no force exceeds cfg.substep_cap (or halving is off) every path is
    at level 0 and the whole ensemble takes one step on one noise block.
    Otherwise paths are grouped by their halving level; each group consumes
    its own noise blocks, so the draws a path sees depend on (seed, step,
    level) and on its position among the paths at that level.  The forces
    of the halving test feed the first half-kick.  A non-finite force there
    raises check_finite's IntegrationError at t = (step_index + 1) dt, naming
    the first such path, before any substep.  Returns fresh arrays; the inputs are not
    written to."""
    q0, q1, p0, p1 = (np.asarray(v, dtype=float) for v in (q0, q1, p0, p1))
    f0, f1 = forces(q0, q1, params)
    cap = cfg.substep_cap
    if cap is None or (top := np.max(np.maximum(np.abs(f0), np.abs(f1)),
                                     initial=0.0)) / cap <= 1.0:
        z = noise.normals(step_index, 0, 0, (4, q0.size))
        return list(_strang(q0, q1, p0, p1, f0, f1, cfg.dt, params, z)[:4])
    if not np.isfinite(top):
        check_finite((step_index + 1) * cfg.dt, f0, f1)
    m = _halving_levels(f0, f1, cfg)
    out = [np.array(v) for v in (q0, q1, p0, p1)]
    for level in np.unique(m).tolist():
        sel = m == level
        x = [v[sel] for v in (*out, f0, f1)]
        h = cfg.dt / (1 << level)
        for j in range(1 << level):
            z = noise.normals(step_index, level, j, (4, x[0].size))
            x = _strang(*x, h, params, z)
        for v, s in zip(out, x[:4]):
            v[sel] = s
    return out


def run_paths(x0: State4, n_paths: int, seed: int, n_steps: int,
              cfg: IntegratorConfig, params: ModelParams
              ) -> Iterator[Tuple[int, State4]]:
    """Step n_paths copies of x0 through n_steps steps of cfg.dt.

    Yields (steps_done, state) at the start and after every step; the yielded
    arrays are never written to afterwards.  Raises IntegrationError at the
    first step that leaves any path non-finite.

    While step i computes, step i + 1's level-0 block (all n_paths paths) is
    drawn on NoiseStream's helper thread, with the same bits; below
    PREFETCH_MIN_DRAWS it is drawn on this thread when asked for.  The
    helper ends with the run: exhausted, closed or raising."""
    noise = NoiseStream(seed)
    q0, q1, p0, p1 = (np.full(n_paths, float(v))
                      for v in (x0.q0, x0.q1, x0.p0, x0.p1))
    try:
        yield 0, State4(q0, q1, p0, p1)
        for i in range(n_steps):
            if i + 1 < n_steps:
                noise.prefetch(0, (i + 1) << 8, 4 * n_paths)
            q0, q1, p0, p1 = step_ensemble(q0, q1, p0, p1, i, cfg, params,
                                           noise)
            check_finite((i + 1) * cfg.dt, q0, q1, p0, p1)
            yield i + 1, State4(q0, q1, p0, p1)
    finally:
        noise.close()


def check_finite(t: float, *coords: np.ndarray) -> None:
    """Raise IntegrationError naming t and the first non-finite path."""
    ok = np.isfinite(coords[0])
    for c in coords[1:]:
        ok &= np.isfinite(c)
    if not ok.all():
        path = int(np.flatnonzero(~ok)[0])
        raise IntegrationError(f"non-finite state in ensemble at t={t:g}, "
                               f"path {path}", time=t, path=path)


# observables -----------------------------------------------------------------

def obs_energy(params):
    return lambda s: hamiltonian(s, params)


def obs_free_energy_1(params):
    k = params.k
    return lambda s: np.asarray(s.p1) ** 2 / 2 + np.abs(s.q1) ** (2 * k) / (2 * k)


def obs_free_energy_0(params, phi=None):
    """Free energy of the damped oscillator in the corrected momentum; with
    phi=None the correction is dropped (harmonic test mode)."""
    k, a = params.k, params.alpha

    def f(s):
        p = np.asarray(s.p0, dtype=float)
        if phi is not None:
            p = p - a * phi.value(phi.orbit.lookup(s.p1, s.q1))
        return p ** 2 / 2 + np.abs(s.q0) ** (2 * k) / (2 * k)

    return f


def obs_p0_sq(params):
    return lambda s: np.asarray(s.p0) ** 2


def obs_p1_sq(params):
    return lambda s: np.asarray(s.p1) ** 2


DEFAULT_QUANTILES = (0.05, 0.5, 0.95)


@dataclass
class EnsembleSeries:
    times: np.ndarray
    stats: Dict[str, Dict[str, np.ndarray]]   # name -> {mean, q05, q50, q95, sem}
    final: State4


def simulate_ensemble(x0: State4, cfg: IntegratorConfig, params: ModelParams,
                      observables: Dict[str, Callable], *, seed: int,
                      n_paths: int) -> EnsembleSeries:
    """Evolve n_paths copies of x0 and record observable statistics every
    record_stride steps and at the end."""
    n_steps = int(round(cfg.t_end / cfg.dt))
    rec_t = []
    rec = {name: [] for name in observables}
    for i, s in run_paths(x0, n_paths, seed, n_steps, cfg, params):
        if i % cfg.record_stride == 0 or i == n_steps:
            rec_t.append(i * cfg.dt)
            for name, f in observables.items():
                rec[name].append(np.asarray(f(s), dtype=float))

    stats = {}
    for name, rows in rec.items():
        arr = np.stack(rows)  # (n_times, n_paths)
        qs = np.quantile(arr, DEFAULT_QUANTILES, axis=1)
        npaths = arr.shape[1]
        sem = (arr.std(axis=1, ddof=1) / math.sqrt(npaths) if npaths > 1
               else np.zeros(arr.shape[0]))
        stats[name] = {
            "mean": arr.mean(axis=1),
            "q05": qs[0], "q50": qs[1], "q95": qs[2],
            "sem": sem,
        }
    return EnsembleSeries(times=np.asarray(rec_t), stats=stats, final=s)


# tail index ------------------------------------------------------------------

@dataclass
class HillResult:
    index: float
    stderr: float
    n_tail: int
    threshold: float
    heavy_tail: bool
    index_by_fraction: list


HILL_MIN_TAIL = 1000   # fewest tail samples an estimate is made from
HILL_BOOT_SEED = 0     # seed of the bootstrap that gives the stderr


def hill_estimator(samples, top_fraction: float = 0.01, *,
                   n_boot: int = 100) -> HillResult:
    """Hill estimate of the CCDF exponent over the top fraction of the sample.

    Also reports the estimate at top_fraction, /2 and /4; a systematic rise
    towards smaller fractions is the signature of a light tail and flips
    heavy_tail to False.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    x = x[np.isfinite(x) & (x > 0)]
    n = len(x)
    kt = int(n * top_fraction)
    if kt < HILL_MIN_TAIL:
        raise ValueError(f"only {kt} tail samples above the cut; "
                         f"need >= {HILL_MIN_TAIL}")

    def hill_at(kk):
        tail = x[n - kk:]
        u = x[n - kk - 1]
        return 1.0 / np.mean(np.log(tail / u)), u

    idx, thr = hill_at(kt)
    rng = np.random.default_rng(HILL_BOOT_SEED)
    logr = np.log(x[n - kt:] / thr)
    boots = 1.0 / np.array([np.mean(rng.choice(logr, size=kt, replace=True))
                            for _ in range(n_boot)])
    ladder = []
    for div in (1, 2, 4):
        kk = max(kt // div, 10)
        ladder.append(float(hill_at(kk)[0]))
    # a light tail shows a systematic rise of the estimate as the threshold
    # moves out; a true power law stays flat up to O(1/sqrt(k)) noise
    rises = (ladder[1] > 1.015 * ladder[0] and ladder[2] > 1.015 * ladder[1]
             and ladder[2] > 1.10 * ladder[0])
    return HillResult(index=float(idx), stderr=float(boots.std(ddof=1)),
                      n_tail=kt, threshold=float(thr),
                      heavy_tail=not rises, index_by_fraction=ladder)


# histogram TV proxy ----------------------------------------------------------

def tv_proxy(a, b, binning: int = 6) -> float:
    """Half L1 distance between normalized histograms of two equally sized
    samples on a common per-dimension quantile grid.  Lower-bounds the true
    total variation distance, consistently as the grid refines."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
        b = b[:, None] if b.ndim == 1 else b
    if a.shape != b.shape:
        raise ValueError("ensembles must have equal sample counts and dims")
    n, d = a.shape
    pooled = np.concatenate([a, b], axis=0)
    edges = []
    for j in range(d):
        qs = np.quantile(pooled[:, j], np.linspace(0, 1, binning + 1))
        qs[0], qs[-1] = -np.inf, np.inf
        edges.append(np.unique(qs))
    ha, _ = np.histogramdd(a, bins=edges)
    hb, _ = np.histogramdd(b, bins=edges)
    return float(0.5 * np.abs(ha / n - hb / n).sum())


# decay-family fits -----------------------------------------------------------

@dataclass
class DecayFit:
    family: str              # exponential | stretched | polynomial
    params: dict
    residual: float
    inconclusive: bool
    all_residuals: dict


def fit_decay(ts, ds) -> DecayFit:
    """Least squares on log d against the three decay families.

    exponential: log d = c - g t; polynomial: log d = c - r log t;
    stretched:   log d = c - g t^s.  Stretched with s within 5% of 1
    collapses to exponential.
    """
    ts = np.asarray(ts, dtype=float)
    ds = np.asarray(ds, dtype=float)
    keep = np.isfinite(ds) & (ds > 0) & (ts > 0)
    ts, ds = ts[keep], ds[keep]
    if len(ts) < 10:
        raise ValueError("need at least 10 positive points")
    y = np.log(ds)

    diffs = np.diff(y)
    frac_up = float(np.mean(diffs > 0))
    net = float(y[0] - y[-1])
    inconclusive = (net < math.log(2.0)) or (frac_up > 0.45)

    def lsq(design):
        A = np.column_stack([np.ones_like(ts), design])
        coef, res, *_ = np.linalg.lstsq(A, y, rcond=None)
        fitv = A @ coef
        return coef, float(np.mean((y - fitv) ** 2))

    (c_e, me), r_exp = lsq(-ts)
    (c_p, mp), r_poly = lsq(-np.log(ts))

    from scipy.optimize import minimize_scalar

    def stretched_res(s):
        (_, g), r = lsq(-ts ** s)
        return r

    opt = minimize_scalar(stretched_res, bounds=(0.05, 1.5), method="bounded",
                          options={"xatol": 1e-4})
    s_best = float(opt.x)
    (c_s, g_s), r_str = lsq(-ts ** s_best)

    residuals = {"exponential": r_exp, "polynomial": r_poly,
                 "stretched": r_str}
    family = min(residuals, key=residuals.get)
    if family == "stretched" and abs(s_best - 1.0) < 0.05:
        family = "exponential"
    if family == "exponential":
        params = {"rate": float(me), "log_prefactor": float(c_e)}
    elif family == "polynomial":
        params = {"exponent": float(mp), "log_prefactor": float(c_p)}
    else:
        params = {"rate": float(g_s), "exponent": s_best,
                  "log_prefactor": float(c_s)}
    return DecayFit(family=family, params=params,
                    residual=residuals[family],
                    inconclusive=inconclusive, all_residuals=residuals)
