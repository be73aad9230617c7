"""Time integration of the full 4-D chain, ensemble statistics, tail-index
estimation and decay-family fits.

Reproducibility contract: all noise comes from counter-based streams keyed on
(master seed, step, substep, halving level), so a run is bitwise reproducible
for a fixed seed, n_paths and integrator configuration.  Each halving level
draws one block for all of its paths, so the noise a path sees depends on
n_paths and on which other paths share its level: the same path in a larger
ensemble follows a different trajectory.

Step kernel: one Strang step per path and (sub)step, with the forces at the
end of a substep reused for the first half-kick of the next one (run_paths
hands each step's end-of-step forces to the next step), and the momentum
and position updates done in place on fresh output arrays.  When
no path needs halving the whole ensemble is stepped at once.  Otherwise a
non-finite force is an IntegrationError before any substep, and the step
runs as 2**top ticks of the finest substep, top being the deepest halving
level in use: the paths are sorted by level, deepest first, so the paths
that move at a tick (those at level l move every 2**(top - l) ticks) are a
prefix of the sorted arrays, stepped in one pass with per-path
coefficients.  The noise keying is the same either way: one block per
(step, level, substep) for all the paths at that level.  NoiseStream
reseats a single Philox generator per noise block, and the surrogate
(reduced.run_reduced) draws from it too.

Lookahead: a block is keyed on its counter words alone, so it can be drawn
before it is needed, with the same bits, by either of two threads.  run_paths
and run_reduced keep the level-0 blocks of the next PREFETCH_DEPTH steps
queued on one helper thread while the current step computes.  When a step
asks for a block the helper is still drawing, the caller draws a later
queued block the helper has not started, then takes its own, so the draws
share out between the two threads by themselves.  Every block is drawn
once, by one thread or the other; blocks of fewer than PREFETCH_MIN_DRAWS
draws are drawn on the caller's thread, and the helper ends with the run.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Tuple

import numpy as np

from .model import ModelParams, State4, forces, hamiltonian


class IntegrationError(RuntimeError):
    def __init__(self, message, time=None, path=None):
        super().__init__(message)
        self.time = time
        self.path = path


MAX_STEPS = 2 ** 56   # _chain_words packs the step above 8 bits of 64


def steps_in(span: float, dt: float) -> int:
    """The steps of dt in the time span, round(span / dt): dt in (0, inf),
    span in [0, inf) and span / dt below MAX_STEPS, else ValueError."""
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not 0 <= span < math.inf:
        raise ValueError(f"a time span must be finite and >= 0, got {span}")
    if not span / dt < MAX_STEPS:
        raise ValueError(f"span {span} / dt {dt} is not below 2**56 steps")
    return int(round(span / dt))


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float = 0.005
    t_end: float = 10.0
    record_stride: int = 10
    substep_cap: float = 100.0   # force magnitude that triggers halving
    max_halvings: int = 10       # 0 turns halving off

    def __post_init__(self):
        steps_in(self.t_end, self.dt)
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")
        if not self.substep_cap > 0:
            raise ValueError("substep_cap must be positive")
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

# Steps whose level-0 blocks are queued on the helper thread ahead of the
# caller.  Measured in-process on the 2-vCPU VM above, with the caller taking
# blocks over, 5 alternating rounds of 2000 steps, medians at depths 1, 2,
# 3, 4 and 6: run_paths at 4096 paths (dt
# 0.005, substep_cap 50) 0.99, 1.09, 1.25, 1.13 and 1.14e7 path-steps/s;
# run_reduced at 20000 paths 4.1, 4.9, 5.0, 4.8 and 4.9e7.  At depth 3 the
# caller drew 20-40% of the blocks itself.  Each queued block holds
# 8 * size bytes (128 KB for 4096 chain paths).
PREFETCH_DEPTH = 3


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
    Philox(key, counter=[0, word1, word2, 0]), whichever thread draws it.
    prefetch queues the blocks of the next PREFETCH_DEPTH steps, of at least
    PREFETCH_MIN_DRAWS draws each, on one helper thread with its own
    generator, so they are drawn while the caller computes.  block returns
    the first draws of a queued block when asked for the same counter words
    and no more draws; if the helper is still drawing it, the caller first
    draws the latest queued block the helper has not started (its future
    cancelled, its draws kept for when it is asked for), so neither thread
    idles while the other has blocks left.  Every other request is drawn on
    the caller's thread.  The thread starts at the first block queued, bound
    to the cores other than the one the caller is on, and is joined by
    close.  The lookahead pays only while the helper gets a core of its own;
    where the two threads take turns on one core (a one-core process, or the
    caller's core shared with other work), the hand-off adds to each step."""

    def __init__(self, seed: int):
        self.key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
        self._here = _Reseated(self.key)
        self._pool = None               # the helper thread, once started
        self._there = None              # and the generator only it draws from
        self._ahead = {}                # (word1, word2) -> (size, future)

    def prefetch(self, words: Callable[[int], Tuple[int, int]],
                 steps: range, size: int) -> None:
        """Queue on the helper thread the blocks of size draws at counter
        words words(s) of the first PREFETCH_DEPTH steps s in steps, those
        not queued already; a no-op below PREFETCH_MIN_DRAWS.  steps start
        after the step about to run: of the queued blocks not among them,
        the newest (that step's own) is kept and older ones, never asked
        for, are dropped."""
        if size < PREFETCH_MIN_DRAWS:
            return
        wanted = [words(s) for s in steps[:PREFETCH_DEPTH]]
        for w in [w for w in self._ahead if w not in wanted][:-1]:
            self._ahead.pop(w)[1].cancel()
        for w in wanted:
            if w not in self._ahead:
                if self._pool is None:
                    self._pool = ThreadPoolExecutor(
                        max_workers=1, initializer=_bind,
                        initargs=(_other_cores(),))
                    self._there = _Reseated(self.key)
                self._ahead[w] = size, self._pool.submit(self._there.draw,
                                                         *w, size)

    def close(self) -> None:
        """Drop the queued blocks and join the helper thread."""
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
                if not ahead[1].done():
                    self._take_over()
                return ahead[1].result()[:size].reshape(shape)
        return self._here.draw(word1, word2, shape)

    def _take_over(self) -> None:
        """Draw here the latest queued block the helper has not started."""
        for w, (size, later) in reversed(self._ahead.items()):
            if later.cancel():
                drawn = Future()
                drawn.set_result(self._here.draw(*w, size))
                self._ahead[w] = size, drawn
                return

    def normals(self, step: int, group: int, sub: int, shape) -> np.ndarray:
        """The chain's block of (step, halving level, substep)."""
        return self.block(*_chain_words(step, group, sub), shape)


def _chain_words(step: int, level: int, sub: int) -> Tuple[int, int]:
    """Counter words of the chain's block of (step, halving level, sub)."""
    return sub, (step << 8) | (level & 0xFF)


def _level_zero(step: int) -> Tuple[int, int]:
    """Counter words of the chain's level-0 block of step (substep 0)."""
    return _chain_words(step, 0, 0)


def _coefficients(h, params):
    """The factors of one Strang step of length h: the OU decay c of h/2,
    the noise scales s0 (damped momentum, exact OU) and s1 (undamped
    momentum) of h/2, the half step h/2 and h itself."""
    g, T, Ti = params.gamma, params.t_cold, params.t_hot
    c = math.exp(-g * h / 2)
    return (c, math.sqrt(T * (1 - c * c)), math.sqrt(2 * g * Ti * h / 2),
            0.5 * h, h)


def _strang(q0, q1, p0, p1, f0, f1, coef, params, z):
    """One step: OU(h/2) on the momenta, velocity Verlet(h), OU(h/2).

    The friction+noise update on p0 is the exact Ornstein-Uhlenbeck kernel;
    p1 gets an exact Gaussian increment (no friction).  (f0, f1) are the
    forces at (q0, q1); coef is _coefficients(h, params), either as five
    scalars or as five arrays with one entry per path, which give the same
    bits path by path.  Returns the new (q0, q1, p0, p1) in fresh arrays and
    the forces at the new positions; the inputs are not written to."""
    c, s0, s1, hh, h = coef
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
                  params: ModelParams, noise: NoiseStream, f=None):
    """Advance every path by cfg.dt, locally halving dt where forces are stiff.

    f is the forces (f0, f1) at (q0, q1), computed here when None; the step
    returns fresh arrays (q0, q1, p0, p1, (f0, f1)), the forces at the new
    positions last, so a caller that hands them to the next step evaluates
    the forces once per substep.

    When no force exceeds cfg.substep_cap, or max_halvings is 0, every path is
    at level 0 and the whole ensemble takes one step on one noise block.
    Otherwise a path at halving level l takes 2**l substeps of cfg.dt / 2**l.
    With top the deepest level in use, the step runs as 2**top ticks of the
    finest substep; a path at level l moves at tick t when t is a multiple
    of 2**(top - l).  The paths are stable-sorted by level, deepest first,
    so the paths that move at a tick are a prefix of the sorted arrays and
    take one Strang pass together, each with its own level's coefficients;
    the forces at the end of a substep feed the next one's first half-kick,
    and f, the forces of the halving test, the first.  Noise keeps its keying:
    one block per (level, substep) for all the paths at that level, so the
    draws a path sees depend on (seed, step, level) and on its position
    among the paths at that level; a tick joins its levels' blocks along
    the path axis.  With halving on, a non-finite force in the halving
    test raises check_finite's IntegrationError at t = (step_index + 1) dt,
    naming the first such path, before any substep.  The inputs are not
    written to."""
    q0, q1, p0, p1 = (np.asarray(v, dtype=float) for v in (q0, q1, p0, p1))
    f0, f1 = forces(q0, q1, params) if f is None else f
    if cfg.max_halvings == 0 or (fmax := np.max(np.maximum(
            np.abs(f0), np.abs(f1)), initial=0.0)) / cfg.substep_cap <= 1.0:
        z = noise.normals(step_index, 0, 0, (4, q0.size))
        *x, f0, f1 = _strang(q0, q1, p0, p1, f0, f1,
                             _coefficients(cfg.dt, params), params, z)
        return (*x, (f0, f1))
    if not np.isfinite(fmax):
        check_finite((step_index + 1) * cfg.dt, f0, f1)
    m = _halving_levels(f0, f1, cfg)
    order = np.argsort(-m, kind="stable")       # deepest level first
    sizes = np.bincount(m).tolist()[::-1]       # paths per level, same order
    top = len(sizes) - 1
    # (level, its paths, the paths at it or deeper) of each level in use
    groups = [(top - i, size, sum(sizes[:i + 1]))
              for i, size in enumerate(sizes) if size]
    x = [v[order] for v in (q0, q1, p0, p1, f0, f1)]
    table = [_coefficients(cfg.dt / (1 << lv), params)
             for lv in range(top, -1, -1)]
    coef = np.repeat(np.array(table).T, sizes, axis=1)
    for t in range(1 << top):
        # the levels >= top - (trailing zeros of t) move: all at t = 0
        low = top + 1 - (t & -t).bit_length() if t else 0
        moving = [g for g in groups if g[0] >= low]
        n = moving[-1][2]
        z = [noise.normals(step_index, lv, t >> (top - lv), (4, size))
             for lv, size, _ in moving]
        z = z[0] if len(z) == 1 else np.concatenate(z, axis=1)
        new = _strang(*(v[:n] for v in x), coef[:, :n], params, z)
        for v, w in zip(x, new):
            v[:n] = w
    out = [np.empty_like(q0) for _ in range(6)]
    for v, w in zip(out, x):
        v[order] = w
    return (*out[:4], tuple(out[4:]))


def run_paths(x0: State4, n_paths: int, seed: int, n_steps: int,
              cfg: IntegratorConfig, params: ModelParams
              ) -> Iterator[Tuple[int, State4]]:
    """Step n_paths copies of x0 through n_steps steps of cfg.dt.

    Yields (steps_done, state) at the start and after every step; the yielded
    arrays are never written to afterwards.  Raises IntegrationError at the
    first step that leaves any path non-finite.

    Each step hands its end-of-step forces to the next, so the forces are
    evaluated once at the start and once per substep.  While step i
    computes, the level-0 blocks (all n_paths paths) of the next
    PREFETCH_DEPTH steps are queued on NoiseStream's helper thread, and
    drawn there or, when this thread would otherwise wait, here, with the
    same bits; below PREFETCH_MIN_DRAWS each is drawn on this thread when
    asked for.  The helper ends with the run: exhausted, closed or
    raising."""
    noise = NoiseStream(seed)
    q0, q1, p0, p1 = (np.full(n_paths, float(v))
                      for v in (x0.q0, x0.q1, x0.p0, x0.p1))
    f = None
    try:
        yield 0, State4(q0, q1, p0, p1)
        for i in range(n_steps):
            noise.prefetch(_level_zero, range(i + 1, n_steps), 4 * n_paths)
            q0, q1, p0, p1, f = step_ensemble(q0, q1, p0, p1, i, cfg, params,
                                              noise, f)
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


def pool_snapshots(run, kept, f):
    """(pool, last): f of a run's states at the steps in kept, in one array.

    run yields (steps_done, state), as run_paths and run_reduced do, and is
    run to its end; last is the last state it yielded.  kept is a non-empty
    ascending range or list of steps.  pool, a float array allocated at the
    first kept state, has pool[j] = f(state at step kept[j]): with f giving
    one value per path, row j is snapshot j and column c path c, so
    pool.ravel()[j * n_paths + c] is path c at step kept[j].  Raises
    ValueError when the run ends before the last kept step."""
    pool, j = None, 0
    for i, s in run:
        if j < len(kept) and i == kept[j]:
            row = f(s)
            if pool is None:
                pool = np.empty((len(kept), *np.shape(row)))
            pool[j] = row
            j += 1
    if j < len(kept) or pool is None:
        raise ValueError(f"the run yielded {j} of its {len(kept)} kept steps")
    return pool, s


# observables -----------------------------------------------------------------

def obs_energy(params):
    return lambda s: hamiltonian(s, params)


def obs_free_energy_1(params):
    k = params.k
    return lambda s: np.asarray(s.p1) ** 2 / 2 + np.abs(s.q1) ** (2 * k) / (2 * k)


def obs_free_energy_0(params, phi=None):
    """Free energy of the damped oscillator in the corrected momentum
    p0 - alpha phi; with phi=None the correction is dropped.  The CLI's Hf0
    passes phi for 1 < k <= 2 only, so outside (1, 2] Hf0 is uncorrected."""
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


# quantiles recorded for each observable: stats key -> level
QUANTILES = {"q05": 0.05, "q50": 0.5, "q95": 0.95}


@dataclass
class EnsembleSeries:
    times: np.ndarray
    stats: Dict[str, Dict[str, np.ndarray]]   # name -> {mean, *QUANTILES, sem}
    final: State4


def simulate_ensemble(x0: State4, cfg: IntegratorConfig, params: ModelParams,
                      observables: Dict[str, Callable], *, seed: int,
                      n_paths: int) -> EnsembleSeries:
    """Evolve n_paths copies of x0 and record observable statistics every
    record_stride steps and at the end."""
    n_steps = steps_in(cfg.t_end, cfg.dt)
    kept = [*range(0, n_steps, cfg.record_stride), n_steps]
    pool, final = pool_snapshots(
        run_paths(x0, n_paths, seed, n_steps, cfg, params), kept,
        lambda s: [f(s) for f in observables.values()])
    stats = {}
    for name, arr in zip(observables, pool.swapaxes(0, 1)):
        # arr is (n_times, n_paths)
        qs = np.quantile(arr, list(QUANTILES.values()), axis=1)
        npaths = arr.shape[1]
        sem = (arr.std(axis=1, ddof=1) / math.sqrt(npaths) if npaths > 1
               else np.zeros(arr.shape[0]))
        stats[name] = {
            "mean": arr.mean(axis=1),
            **dict(zip(QUANTILES, qs)),
            "sem": sem,
        }
    return EnsembleSeries(times=np.asarray(kept) * cfg.dt, stats=stats,
                          final=final)


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
HILL_N_BOOT = 100      # bootstrap resamples behind the stderr


def hill_estimator(samples, top_fraction: float = 0.01) -> HillResult:
    """Hill estimate of the CCDF exponent over the top fraction of the
    sample's positive finite values: hill_sorted on a sorted copy."""
    return hill_sorted(np.sort(np.asarray(samples, dtype=float)),
                       top_fraction)


def hill_sorted(s: np.ndarray, top_fraction: float) -> HillResult:
    """hill_estimator of an ascending float array, read off it in place.

    Uses the positive finite values, the window between the last value
    <= 0 and the first +inf (NaN sorts last).  Also reports the estimate at
    top_fraction, /2 and /4; a systematic rise towards smaller fractions is
    the signature of a light tail and flips heavy_tail to False.
    """
    x = s[np.searchsorted(s, 0.0, "right"):np.searchsorted(s, np.inf)]
    n = len(x)
    kt = int(n * top_fraction)
    if kt < HILL_MIN_TAIL:
        raise ValueError(f"only {kt} tail samples above the cut; "
                         f"need >= {HILL_MIN_TAIL}")
    if kt >= n:
        raise ValueError(f"top_fraction = {top_fraction} leaves no threshold "
                         f"below the top {kt} of {n} samples")

    def hill_at(kk):
        tail = x[n - kk:]
        u = x[n - kk - 1]
        return 1.0 / np.mean(np.log(tail / u)), u

    idx, thr = hill_at(kt)
    rng = np.random.default_rng(HILL_BOOT_SEED)
    logr = np.log(x[n - kt:] / thr)
    boots = 1.0 / np.array([np.mean(rng.choice(logr, size=kt, replace=True))
                            for _ in range(HILL_N_BOOT)])
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

def tv_proxy(a, b, binning: int) -> float:
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
