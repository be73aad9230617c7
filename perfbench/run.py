"""duobath benchmark: runs the duobath CLI as a user would and reports what it
costs.

    python3 perfbench/run.py --workload chain-tails --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 30

A timed run (--trace 0) repeats the workload's CLI sequence, one fresh process
at a time, until --seconds is spent, and reports the end-to-end metrics.  A
traced run (--trace 1) runs each invocation twice, untraced and traced, checks
that both write the same bytes, and reports per-layer metrics from the spans
and the tracing overhead.  --all does both for every workload and prints a
table.  Workload inputs, here the CLI seeds, come from --seed.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The lines before it record the machine and each timing's
median, quartiles and sample count.  The run exits 2 without a result when the
duobath sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

import hostspeed as hs
import tracer as tr
import workloads as wls

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 150.0

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# layers whose self time is reported as a share of the traced wall time
SHARE_LAYERS = sorted({t[3] for t in tr.TARGETS} | {tr.ROOT, tr.HOOK})


# machine record ---------------------------------------------------------------

def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _read(path: Path, default=None):
    try:
        return path.read_text().strip()
    except OSError:
        return default


def _cpu_model():
    for line in (_read(Path("/proc/cpuinfo"), "") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return None


def _caches():
    out = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(idx / "level"), _read(idx / "type")
        if level and kind:
            out[f"L{level}{kind[0].lower()}"] = _read(idx / "size")
    return out


def _cpu_ticks():
    """(busy, steal) clock ticks of the whole machine since boot."""
    fields = (_read(Path("/proc/stat"), "") or "").split("\n", 1)[0].split()
    if len(fields) < 9:
        return None
    ticks = [int(f) for f in fields[1:9]]
    return sum(ticks) - ticks[3] - ticks[4] - ticks[7], ticks[7]


def _own_cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _git_sha():
    head = _read(ROOT / ".git" / "HEAD")
    if head and head.startswith("ref: "):
        return _read(ROOT / ".git" / head[5:])
    return head


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def machine() -> dict:
    return {"cpu": _cpu_model(), "nproc": _nproc(), "caches": _caches(),
            "git_sha": _git_sha(), "src_sha256": _source_digest()}


def summary(values: List[float]) -> dict:
    v = sorted(values)
    q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else v * 3
    return {"median": statistics.median(v), "q1": q1, "q3": q3,
            "min": v[0], "max": v[-1], "n": len(v)}


# child processes --------------------------------------------------------------

@dataclass
class Child:
    rc: int
    wall_s: float
    maxrss_mb: float
    result: dict
    out: Path


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(_nproc())
    # THREADS is the default of the CLI's --threads; the workloads run the
    # CLI's own default, whatever the caller's environment holds
    env.pop("THREADS", None)
    return env


def spawn(mode: str, workload: str, argv: List[str], cwd: Path) -> Child:
    """Run child.py in a fresh interpreter in `cwd`, free to use every core
    this process may use; wall time runs from the spawn until the process is reaped."""
    cwd.mkdir(parents=True, exist_ok=True)
    result_path = cwd / "result.json"
    cmd = [sys.executable, str(HERE / "child.py"), mode, str(result_path),
           workload, *argv]
    with open(cwd / "stdout.txt", "wb") as out, \
            open(cwd / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=_env(), stdout=out,
                                stderr=err, stdin=subprocess.DEVNULL)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        result = json.loads(result_path.read_text())
    except (OSError, ValueError):
        result = {}
    return Child(rc=proc.returncode, wall_s=wall,
                 maxrss_mb=usage.ru_maxrss / 1024.0, result=result,
                 out=cwd / "out")


@dataclass
class Tally:
    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    def record(self, what: str, child: Child, extra: List[str] = ()) -> None:
        self.attempted += 1
        problems = list(extra)
        if child.rc != 0 or child.result.get("rc") != 0:
            problems.insert(0, f"{what}: exit code {child.rc}")
        if problems:
            self.failures.append("; ".join(problems))
            for p in problems:
                print(f"FAILED {p}", file=sys.stderr)


def _invocations(wl: wls.Workload, seed: int, work: Path) -> List[List[str]]:
    """CLI argv of each call of the sequence; writes their config files."""
    calls = []
    for j, (argv, config) in enumerate(wl.commands()):
        path = work / f"call{j}.cfg"
        path.write_text(config)
        calls.append([*argv, "--config", str(path), "--seed", str(seed),
                      "--out", "out"])
    return calls


def _run_cli(wl, argv, cwd, tally):
    child = spawn("cli", wl.name, argv, cwd)
    outcome = wl.check(argv, child.out) if child.rc == 0 \
        else wls.Outcome([])
    tally.record(f"cli {' '.join(argv[:3])}", child, outcome.failures)
    return child, outcome


# timed run --------------------------------------------------------------------

def timed_run(wl: wls.Workload, seed: int, seconds: float, work: Path):
    """Repeat the workload's CLI sequence, each time with a new CLI seed
    drawn from `seed`, until `seconds` would be exceeded.  Returns each
    metric's per-repetition samples, scaled to a host of reference speed,
    their medians (the reported values), the raw samples and the probe times.

    Each child's times are multiplied by hostspeed.NOMINAL_PROBE_S over the
    mean probe time measured while it ran, its wall time after the probe's
    own time is taken out.  Over ten 30-second runs of each workload on the
    2-vCPU host, this cut the spread (quartile distance over median) of the
    reported times from 0.08-0.27 to 0.01-0.08."""
    rng = random.Random(seed)
    tally = Tally()
    reps, versions = [], {}
    start = time.perf_counter()
    while True:
        cli_seed = rng.randrange(1, 2 ** 31)
        calls = []
        for j, argv in enumerate(_invocations(wl, cli_seed, work)):
            child, outcome = _run_cli(wl, argv,
                                      work / f"rep{len(reps)}" / str(j),
                                      tally)
            r = child.result
            probe = r.get("probe_mean_s", 0.0)
            calls.append({"wall_s": child.wall_s - r.get("probe_s", 0.0),
                          "work_s": r.get("work_s", 0.0),
                          "setup_s": r.get("import_s", 0.0)
                          + r.get("tables_s", 0.0),
                          "rss_mb": child.maxrss_mb, "items": outcome.work,
                          "probe_mean_s": probe,
                          "scale": hs.NOMINAL_PROBE_S / probe if probe
                          else 1.0})
            versions = r.get("versions", versions)
        shutil.rmtree(work / f"rep{len(reps)}", ignore_errors=True)
        reps.append(calls)
        wall = sum(c["wall_s"] for c in calls)
        if time.perf_counter() - start + wall > seconds:
            break
    total = lambda key, scaled=False: [
        sum(c[key] * (c["scale"] if scaled else 1.0) for c in calls)
        for calls in reps]
    items = total("items")
    rate = lambda work_s: [n / w for n, w in zip(items, work_s) if n and w]
    samples = {
        "wall_s": total("wall_s", True), "setup_s": total("setup_s", True),
        "work_items_per_s": rate(total("work_s", True)),
        "peak_rss_mb": [max(c["rss_mb"] for c in calls) for calls in reps]}
    raw = {"wall_s": total("wall_s"), "setup_s": total("setup_s"),
           "work_items_per_s": rate(total("work_s"))}
    probes = [c["probe_mean_s"] for calls in reps for c in calls]
    # The median repetition: it moved less between runs than the fastest
    # repetition, or the fastest repetition of each kernel call.
    values = {k: statistics.median(v) for k, v in samples.items() if v}
    return tally, samples, values, raw, probes, items, versions


# traced run -------------------------------------------------------------------

def _same_bytes(a: Path, b: Path) -> List[str]:
    names = sorted(p.name for p in a.iterdir()) if a.is_dir() else []
    other = sorted(p.name for p in b.iterdir()) if b.is_dir() else []
    if names != other:
        return [f"traced run wrote files {other}, untraced {names}"]
    return [f"traced and untraced {n} differ" for n in names
            if (a / n).read_bytes() != (b / n).read_bytes()]


def _merge(into: Dict[str, dict], layers: Dict[str, dict]) -> None:
    for name, agg in layers.items():
        dst = into.setdefault(name, {})
        for k, v in agg.items():
            dst[k] = dst.get(k, 0) + v


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(layers: Dict[str, dict], plain_s: Dict[str, float],
                  traced_s: float, plain_total_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced sequence.  `plain_s` maps each
    invocation label to its untraced cli.main time."""
    g = lambda layer, key: layers.get(layer, {}).get(key, 0)
    step_paths = g("simulate.step_ensemble", "paths")
    shell_states = g("lyapunov.sample_shell", "states")
    evaluated = g("lyapunov.evaluate", "states")
    m = {
        "simulate.step_ensemble.calls": g("simulate.step_ensemble", "calls"),
        "simulate.step_ensemble.ns_per_path_step": 1e9 * _ratio(
            g("simulate.step_ensemble", "self_s"), step_paths),
        "simulate.noise.ns_per_draw": 1e9 * _ratio(
            g("simulate.noise", "self_s"), g("simulate.noise", "draws")),
        "simulate.noise.share": _ratio(g("simulate.noise", "total_s"),
                                       g("simulate.step_ensemble", "total_s")),
        "simulate.noise.calls_per_step": _ratio(
            g("simulate.noise", "calls"), g("simulate.step_ensemble", "calls")),
        "simulate.substeps_per_path_step": _ratio(
            g("simulate.noise", "group"), step_paths),
        "simulate.clipped_path_steps": g("simulate.step_ensemble", "clipped"),
        "simulate.observables.self_s": g("simulate.observables", "self_s"),
        "reduced.simulate_reduced.ns_per_path_step": 1e9 * _ratio(
            g("reduced.simulate_reduced", "self_s"),
            g("reduced.simulate_reduced", "path_steps")),
        "reduced.stationary_density.self_s":
            g("reduced.stationary_density", "self_s"),
        "oscillator.periodic_interp.calls":
            g("oscillator.periodic_interp", "calls"),
        "oscillator.periodic_interp.points":
            g("oscillator.periodic_interp", "points"),
        "oscillator.periodic_interp.ns_per_point": 1e9 * _ratio(
            g("oscillator.periodic_interp", "self_s"),
            g("oscillator.periodic_interp", "points")),
        "oscillator.periodic_interp.self_s":
            g("oscillator.periodic_interp", "self_s"),
        "oscillator.time_of.states": g("oscillator.time_of", "states"),
        "oscillator.time_of.self_s": g("oscillator.time_of", "self_s"),
        "oscillator.lookups_per_state": _ratio(
            g("oscillator.time_of", "states"),
            g("lyapunov.sample_shell", "candidates") + evaluated),
        "oscillator.build.self_s": g("oscillator.build", "self_s"),
        "oscillator.calls": sum(a["calls"] for n, a in layers.items()
                                if n.startswith("oscillator.")),
        "lyapunov.calls": sum(a["calls"] for n, a in layers.items()
                              if n.startswith("lyapunov.")),
        "lyapunov.sample_shell.self_s": g("lyapunov.sample_shell", "self_s"),
        "lyapunov.sample_shell.batches": g("lyapunov.sample_shell", "batches"),
        "lyapunov.sample_shell.acceptance": _ratio(
            shell_states, g("lyapunov.sample_shell", "candidates")),
        "lyapunov.sample_shell.states": shell_states,
        "lyapunov.evaluate.ns_per_state": 1e9 * _ratio(
            g("lyapunov.evaluate", "total_s"), evaluated),
        "model.generator.self_s": g("model.generator", "self_s"),
        "model.hamiltonian.self_s": g("model.hamiltonian", "self_s"),
        "linear.build.self_s": g("linear.build", "self_s"),
        "cli.io_s": g("cli.io", "self_s"),
        "trace.wall_s": traced_s,
        "trace.overhead_s": traced_s - plain_total_s,
    }
    for preset in wls.PRESETS:
        m[f"presets.{preset}.wall_s"] = plain_s.get(preset, 0.0)
    for layer in SHARE_LAYERS:
        m[f"{layer}.wall_share"] = _ratio(g(layer, "self_s"), traced_s)
    return m


def traced_run(wl: wls.Workload, seed: int, seconds: float, work: Path):
    rng = random.Random(seed)
    tally = Tally()
    start = time.perf_counter()
    per_rep, props, versions = [], {}, {}
    rep = 0
    while True:
        cli_seed = rng.randrange(1, 2 ** 31)
        layers, plain_s, plain_total, traced_total, items = {}, {}, 0.0, 0.0, 0
        t_rep = time.perf_counter()
        for j, argv in enumerate(_invocations(wl, cli_seed, work)):
            label = argv[argv.index("--preset") + 1] if "--preset" in argv \
                else argv[0]
            base = work / f"rep{rep}" / str(j)
            plain, outcome = _run_cli(wl, argv, base / "plain", tally)
            traced = spawn("trace", wl.name, argv, base / "traced")
            extra = _same_bytes(plain.out, traced.out)
            if traced.result.get("leftover_wrappers"):
                extra.append(f"wrappers left in place: "
                             f"{traced.result['leftover_wrappers']}")
            tally.record(f"trace {' '.join(argv[:3])}", traced, extra)
            versions = traced.result.get("versions", versions)
            plain_s[label] = plain.result.get("main_s", 0.0)
            plain_total += plain_s[label]
            traced_total += traced.result.get("main_s", 0.0)
            items += outcome.work
            _merge(layers, traced.result.get("layers", {}))
        shutil.rmtree(work / f"rep{rep}", ignore_errors=True)
        m = layer_metrics(layers, plain_s, traced_total, plain_total)
        per_rep.append(m)
        props["sample_shell_share"] = _ratio(layers.get(
            "lyapunov.sample_shell", {}).get("total_s", 0.0), traced_total)
        layer, key = wl.traced_work
        props["work_items_match_trace"] = \
            props.get("work_items_match_trace", True) \
            and layers.get(layer, {}).get(key, 0) == items
        rep += 1
        if time.perf_counter() - start + (time.perf_counter() - t_rep) \
                > seconds:
            break
    metrics = {k: statistics.median(r[k] for r in per_rep) for k in per_rep[0]}
    props.update(bypass_properties(wl.name, metrics, props))
    return tally, metrics, props, len(per_rep), versions


def bypass_properties(name: str, m: Dict[str, float], props: dict) -> dict:
    """The property each workload was chosen for, as the trace shows it."""
    if name.startswith("chain-"):
        return {"no_oscillator_or_lyapunov_calls":
                m["oscillator.calls"] == 0 and m["lyapunov.calls"] == 0}
    out = {"no_step_ensemble_calls": m["simulate.step_ensemble.calls"] == 0}
    if name == "verify":
        out["sample_shell_most_of_verify"] = props["sample_shell_share"] > 0.5
    return out


# entry points -----------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool):
    wl = wls.WORKLOADS[workload]
    work = HERE / "_runs" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    load_before, ticks_before = os.getloadavg(), _cpu_ticks()
    own_before, t_before = _own_cpu_s(), time.perf_counter()
    try:
        if trace:
            tally, values, props, reps, versions = traced_run(
                wl, seed, seconds, work)
            metrics = {k: {"value": values[k], "unit": unit}
                       for k, unit in PER_LAYER.items()}
            detail = {"properties": props, "reps": reps,
                      "versions": versions}
        else:
            tally, samples, values, raw, probes, items, versions = \
                timed_run(wl, seed, seconds, work)
            stats = {k: dict(summary(v), reported=values[k])
                     for k, v in samples.items() if v and k in values}
            metrics = {k: {"value": values[k], "unit": unit}
                       for k, unit in END_TO_END.items() if k in values}
            detail = {"timings": stats,
                      "raw_timings": {k: summary(v) for k, v in raw.items()},
                      "probe_mean_s": dict(summary(probes),
                                           nominal=hs.NOMINAL_PROBE_S),
                      "work_unit": wl.work_unit,
                      "work_items_per_rep": items, "versions": versions}
            if workload == "chain-tails" and "work_items_per_s" in values:
                detail["slow_gate_extrapolated_s (extrapolation)"] = \
                    wls.SLOW_GATE_PATH_STEPS / values["work_items_per_s"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:          # another run still uses it
            pass
    load_after, ticks_after = os.getloadavg(), _cpu_ticks()
    elapsed = time.perf_counter() - t_before
    detail.update({
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "machine": machine(),
        "loadavg_before": load_before, "loadavg_after": load_after})
    if ticks_before and ticks_after:
        hz = os.sysconf("SC_CLK_TCK")
        other = (ticks_after[0] - ticks_before[0]) / hz \
            - (_own_cpu_s() - own_before)
        detail["other_cpu_share"] = other / elapsed
        detail["steal_share"] = (ticks_after[1] - ticks_before[1]) / hz / elapsed
        # quiet: other processes used less than a tenth of one core
        detail["quiet"] = detail["other_cpu_share"] < 0.1
    detail.update({
        "failed_frac": len(tally.failures) / max(tally.attempted, 1),
        "failures": tally.failures,
    })
    return detail, {"correct": not tally.failures,
                    "attempted": max(tally.attempted, 1),
                    "failed": len(tally.failures), "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(wls.WORKLOADS))
    ap.add_argument("--all", action="store_true",
                    help="timed and traced runs of every workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "duobath" / "cli.py").is_file():
        print(f"duobath sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))     # output checks use duobath
    if args.all:
        return run_all(args.seed, args.seconds)
    if not args.workload:
        ap.error("--workload or --all is required")
    detail, result = run(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float) -> int:
    rows, layer_rows, failed = [], {}, 0
    for name in wls.WORKLOADS:
        detail, result = run(name, seed, seconds, False)
        failed += result["failed"]
        rows.append((name, detail, result))
        tdetail, tresult = run(name, seed, seconds, True)
        failed += tresult["failed"]
        layer_rows[name] = (tdetail, tresult)
    print(f"{'workload':<12} {'metric':<18} {'value':>12} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'n':>3} unit")
    for name, detail, result in rows:
        for metric, unit in END_TO_END.items():
            s = detail["timings"].get(metric)
            if metric == "work_items_per_s":
                unit += f" ({detail['work_unit']}s)"
            if s:
                print(f"{name:<12} {metric:<18} {s['reported']:>12.5g} "
                      f"{s['median']:>12.5g} {s['q1']:>12.5g} "
                      f"{s['q3']:>12.5g} {s['n']:>3} {unit}")
        print(f"{name:<12} {'failed_frac':<18} {detail['failed_frac']:>12.5g}"
              f" {'':>12} {'':>12} {'':>12} {result['attempted']:>3} ratio")
        if "slow_gate_extrapolated_s (extrapolation)" in detail:
            print(f"{name:<12} slow_gate_extrapolated_s (extrapolation) "
                  f"{detail['slow_gate_extrapolated_s (extrapolation)']:.4g} s")
    for name, (tdetail, tresult) in layer_rows.items():
        print(f"\n[{name}] traced per-layer metrics "
              f"(properties: {tdetail['properties']})")
        for metric, v in sorted(tresult["metrics"].items()):
            if v["value"]:
                print(f"  {metric:<48} {v['value']:>14.6g} {v['unit']}")
    stiff = layer_rows["chain-stiff"][1]["metrics"]
    tails = layer_rows["chain-tails"][1]["metrics"]
    ratio = _ratio(stiff["simulate.noise.calls_per_step"]["value"],
                   tails["simulate.noise.calls_per_step"]["value"])
    print(f"\nchain-stiff makes {ratio:.3g}x the noise calls per step of "
          f"chain-tails (at least 3x: {ratio >= 3})")
    print(json.dumps({"failed": failed}))
    return 1 if failed or ratio < 3 else 0


if __name__ == "__main__":
    sys.exit(main())
