"""Tests of the benchmark itself: span arithmetic, wrapper removal, and a
tiny-size run of every workload, timed and traced.

    python -m pytest perfbench/test_perfbench.py
"""

import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run as bench  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wls  # noqa: E402


def test_self_time_of_synthetic_span_tree():
    # root [0, 10] with children [1, 3] and [2, 6] (overlapping, union 5)
    # and [8, 9]; the [2, 6] child holds a grandchild [3, 4] of its own layer
    spans = [
        ["root", -1, 0.0, 10.0, {}],
        ["a", 0, 1.0, 3.0, {"n": 1}],
        ["b", 0, 2.0, 6.0, {"n": 2}],
        ["b", 2, 3.0, 4.0, {"n": 5}],
        ["a", 0, 8.0, 9.0, {"n": 3}],
    ]
    assert tr.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 1.0])
    agg = tr.aggregate(spans)
    assert agg["root"]["self_s"] == pytest.approx(4.0)
    assert agg["a"] == pytest.approx({"calls": 2, "self_s": 3.0,
                                      "total_s": 3.0, "n": 4})
    # the nested "b" span adds self time but not total time or counts
    assert agg["b"] == pytest.approx({"calls": 2, "self_s": 4.0,
                                      "total_s": 4.0, "n": 2})


def test_tracer_spans_nest_and_hooks_are_their_own_spans():
    ticks = iter(range(100))
    t = tr.Tracer(clock=lambda: float(next(ticks)))

    def inner():
        return 7

    def outer():
        return t.call("inner", inner)

    def hook(counts, args, kwargs, result):
        counts["result"] = result

    assert t.call("outer", outer, count=hook) == 7
    names = [s[0] for s in t.spans]
    assert names == ["outer", "inner", tr.HOOK]
    assert t.spans[1][1] == 0 and t.spans[2][1] == -1
    assert t.spans[0][4] == {"result": 7}


def test_every_wrapper_is_removed_after_a_traced_run(tmp_path):
    from duobath import cli
    originals = {(m, c, a): tr._owner(m, c).__dict__[a]
                 for m, c, a, _, _ in tr.TARGETS}
    t = tr.Tracer()
    tr.install(t)
    try:
        assert len(tr.leftover_wrappers()) == len(tr.TARGETS)
        rc = t.call(tr.ROOT, cli.main,
                    (["verify", "--preset", "smallk-k04", "--seed", "1",
                      "--out", str(tmp_path)],))
    finally:
        t.restore()
    assert rc == 0
    assert tr.leftover_wrappers() == []
    for (m, c, a), fn in originals.items():
        assert tr._owner(m, c).__dict__[a] is fn
    layers = tr.aggregate(t.spans)
    assert layers["lyapunov.sample_shell"]["states"] == 3 * 10000
    assert layers["linear.build"]["calls"] > 0


def test_probe_time_is_left_out_of_its_clock_and_the_timer_is_stopped():
    import signal
    import time
    import hostspeed
    probe = hostspeed.Probe()
    probe.start()
    t0, c0 = time.perf_counter(), probe.clock()
    while time.perf_counter() - t0 < 0.3:
        pass
    probe.stop()
    wall, clock = time.perf_counter() - t0, probe.clock() - c0
    assert len(probe.times) >= 5          # start, stop and the 50 ms ticks
    assert wall - clock == pytest.approx(sum(probe.times[1:]), abs=1e-3)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


TINY = {
    "TAILS": {"n_paths": 1024, "t_end": 2.0, "thin": 2},
    "STIFF": {"n_paths": 128, "t_end": 10.0},
    "SURROGATE": {"n_paths": 5000, "t_end": 20.0},
}


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to about a second of CLI time."""
    for table, sizes in TINY.items():
        for key, value in sizes.items():
            monkeypatch.setitem(getattr(wls, table), key, value)
    # the calibrated Hill band belongs to the full-size run
    monkeypatch.setattr(wls, "HILL_BAND", (0.0, math.inf))
    monkeypatch.setattr(wls, "VERIFY", {
        "frac-k15": (2000, 8e6), "smallk-k04": (2000, 6.4e5)})


@pytest.mark.parametrize("name", sorted(wls.WORKLOADS))
def test_tiny_run_of_each_workload_passes_its_checks(tiny, name):
    detail, result = bench.run(name, seed=3, seconds=0.1, trace=False)
    assert result["correct"], detail["failures"]
    assert result["attempted"] == len(wls.WORKLOADS[name].commands())
    assert set(result["metrics"]) == set(bench.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())

    # the traced run also checks that traced and untraced outputs are
    # byte-identical and that no wrapper stays in place
    detail, result = bench.run(name, seed=3, seconds=0.1, trace=True)
    assert result["correct"], detail["failures"]
    assert detail["properties"]["work_items_match_trace"]
    assert all(v for k, v in detail["properties"].items()
               if k.startswith("no_"))


def test_traced_metrics_are_the_per_layer_metrics_of_the_spec():
    assert set(bench.layer_metrics({}, {}, 1.0, 1.0)) == set(bench.PER_LAYER)
    assert set(bench.END_TO_END) == {
        "wall_s", "work_items_per_s", "setup_s", "peak_rss_mb"}


def test_byte_comparison_reports_a_difference(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    (a / "x.csv").write_text("1\n")
    (b / "x.csv").write_text("2\n")
    assert bench._same_bytes(a, b) == ["traced and untraced x.csv differ"]


def test_without_sources_the_benchmark_exits_nonzero_and_prints_no_result(
        tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_runs"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify",
         "--seed", "1", "--seconds", "5", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "duobath sources not found" in proc.stderr
    assert "correct" not in proc.stdout
