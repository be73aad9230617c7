"""One fresh interpreter of a benchmark run.

    python3 child.py cli   RESULT WORKLOAD ARGV...
    python3 child.py trace RESULT WORKLOAD ARGV...

`cli` runs `duobath.cli.main(ARGV)` as `python -m duobath.cli ARGV` would,
timing the import of duobath, the calls that build tables (orbits, centred
solutions, Gram forms, force surrogate, stationary law) and the calls to the
workload's kernel functions, and sampling the host's speed meanwhile
(hostspeed.py).  `trace` runs the same call with every layer
traced.  Each writes its timings as JSON to RESULT and exits with the CLI's
exit code.  Only the standard library and the benchmark's own modules are
loaded before the clock starts.
"""

from __future__ import annotations

import json
import sys
import time

import tracer as tr
import workloads


def _time_layers(layers, clock):
    """Patch each (module, attribute) of each layer with one tracer.  A span
    costs about 2 us (2-core x86 VM), and the busiest timed target,
    chain-stiff's step_ensemble, makes one call per step of about 1.5
    milliseconds, so the timing adds well under 1% to a call."""
    tracer = tr.Tracer(clock)
    for layer, targets in layers.items():
        for module, attr in targets:
            tracer.patch(tr._owner(module, None), attr, layer)
    return tracer


def main(argv) -> int:
    mode, result_path, name, cli_argv = argv[0], argv[1], argv[2], argv[3:]
    wl = workloads.WORKLOADS[name]
    t0 = time.perf_counter()
    from duobath import cli
    result = {"import_s": time.perf_counter() - t0}
    rc = 0
    if mode == "cli":
        import hostspeed
        probe = hostspeed.Probe()
        tracer = _time_layers({"tables": workloads.TABLE_BUILDERS,
                               "work": wl.kernels}, probe.clock)
        probe.start()
        t = probe.clock()
        try:
            rc = cli.main(cli_argv)
        finally:
            result["main_s"] = probe.clock() - t
            probe.stop()
            tracer.restore()
        result["probe_s"] = probe.total_s
        result["probe_mean_s"] = probe.mean_s()
        layers = tr.aggregate(tracer.spans)
        result["tables_s"] = layers.get("tables", {}).get("total_s", 0.0)
        result["work_s"] = layers.get("work", {}).get("total_s", 0.0)
    elif mode == "trace":
        tracer = tr.Tracer()
        tr.install(tracer)
        try:
            rc = tracer.call(tr.ROOT, cli.main, (cli_argv,))
        finally:
            tracer.restore()
        result["main_s"] = tracer.spans[0][3] - tracer.spans[0][2]
        result["leftover_wrappers"] = tr.leftover_wrappers()
        result["layers"] = tr.aggregate(tracer.spans)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    import numpy
    import platform
    import scipy
    result["versions"] = {"python": platform.python_version(),
                          "numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    result["rc"] = rc
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
