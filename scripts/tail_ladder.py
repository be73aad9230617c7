"""Burn-in ladder of the stationary-tail gate (tests/test_acceptance.py,
test_11), for diagnosing why its Hill estimate misses zeta_star.

Reruns the gate's sampling (k = 2, t_hot = 0.3, substep_cap = 50, 4096 paths
from (1, -1, 0.5, 0.5), seed 7, 80 snapshots of H every 25 time units) at
each burn-in of the ladder, then once more at the first burn-in with dt
halved.  For each run it prints the Hill estimate with its ladder over the
top fraction, /2 and /4, heavy_tail, and the share of path-steps that the
integrator halves and that it clips at max_halvings, both read from the
forces of every state it steps.

Usage (from the repository root):

    PYTHONPATH=src python scripts/tail_ladder.py
    PYTHONPATH=src python scripts/tail_ladder.py --paths 2048 --snapshots 50 \
        --gap 0.5 --burn-ins 5 10

At the gate's size the run at burn-in 1000 steps 2.46e9 path-steps, as the
gate does, and the default ladder with its dt/2 run about 6.3 times that;
expect hours.  tests/test_tail_ladder.py runs it at a tiny size.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from duobath import oscillator as osc
from duobath import reduced as rd
from duobath import simulate as sim
from duobath.model import ModelParams, State4, forces

PARAMS = ModelParams(alpha=1.0, gamma=1.0, t_cold=1.0, t_hot=0.3, k=2.0)
X0 = State4(1.0, -1.0, 0.5, 0.5)
# the gate's step, seed and Hill top fraction; only the run sizes are options
DT = 0.005
SEED = 7
TOP_FRACTION = 0.01


def run(burn_in, dt, args):
    """Hill result and (halved, clipped) path-step shares of one run."""
    cfg = sim.IntegratorConfig(dt=dt, t_end=0.0, substep_cap=50.0)
    burn, gap = sim.steps_in(burn_in, dt), sim.steps_in(args.gap, dt)
    kept = range(burn + gap, burn + args.snapshots * gap + 1, gap)
    total = kept[-1]
    clip_at = cfg.substep_cap * 2.0 ** cfg.max_halvings
    halved = clipped = 0

    def counted(run):
        nonlocal halved, clipped
        for i, s in run:
            if i < total:    # the state the next step starts from
                f0, f1 = forces(s.q0, s.q1, PARAMS)
                mag = np.maximum(np.abs(f0), np.abs(f1))
                halved += int(np.count_nonzero(mag > cfg.substep_cap))
                clipped += int(np.count_nonzero(mag > clip_at))
            yield i, s

    pool = sim.pool_snapshots(
        counted(sim.run_paths(X0, args.paths, SEED, total, cfg, PARAMS)),
        kept, sim.obs_energy(PARAMS))[0].ravel()
    pool.sort()
    hill = sim.hill_sorted(pool, TOP_FRACTION)
    steps = args.paths * total
    return hill, halved / steps, clipped / steps


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--burn-ins", type=float, nargs="+",
                    default=[1000.0, 2000.0, 4000.0])
    ap.add_argument("--paths", type=int, default=4096)
    ap.add_argument("--snapshots", type=int, default=80)
    ap.add_argument("--gap", type=float, default=25.0)
    args = ap.parse_args(argv)

    zs = rd.zeta_star(PARAMS.alpha, osc.c_hat(), PARAMS.t_hot)
    print(f"zeta_star = {zs:.3f}, gate band [{0.7 * zs:.3f}, {1.3 * zs:.3f}]")
    runs = [(b, DT) for b in args.burn_ins]
    runs.append((args.burn_ins[0], DT / 2))
    for burn_in, dt in runs:
        t0 = time.perf_counter()
        hill, halved, clipped = run(burn_in, dt, args)
        ladder = " / ".join(f"{v:.3f}" for v in hill.index_by_fraction)
        print(f"burn-in {burn_in:g}, dt {dt:g}: Hill {hill.index:.3f} "
              f"+- {hill.stderr:.3f} (n_tail {hill.n_tail}), ladder {ladder}, "
              f"heavy_tail {hill.heavy_tail}, halved {halved:.3e}, "
              f"clipped {clipped:.3e} of path-steps, "
              f"{time.perf_counter() - t0:.0f} s", flush=True)


if __name__ == "__main__":
    main()
