"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_gives_identical_configs_for_a_seed(name):
    a, b = workloads.make(name, 7), workloads.make(name, 7)
    assert a == b
    assert json.dumps(a.config) == json.dumps(b.config)
    assert run.command_args(a) == run.command_args(b)
    other = workloads.make(name, 8)
    assert other != a
    if a.config is not None:
        assert {**other.config, "seed": 7} == a.config


def test_generator_rejects_unknown_names_and_negative_seeds():
    with pytest.raises(ValueError):
        workloads.make("no-such-workload", 0)
    with pytest.raises(ValueError):
        workloads.make("gradcheck-scalar", -1)


def test_expected_counts_follow_from_the_configs():
    grid = workloads.make("grid-continual-dem", 0)
    assert grid.expected == {
        "model.source_steps": 79 * 300,
        "em_losses.dem_rows.calls": 350 * 36 + 2 * 180,
        "model.adapt_steps": 350 * 36 + 2 * 180,
    }
    sweep = workloads.make("lrsweep-adadem-long", 0)
    assert sweep.expected == {
        "model.source_steps": 79 * 300,
        "adadem.adadem_rows.calls": 11 * 600,
        "model.adapt_steps": 11 * 600,
    }
    check = workloads.make("gradcheck-scalar", 0)
    assert check.expected == {"numkit.finite_diff_grad.calls": 5 * workloads.GRADCHECK_TRIALS}


def test_valid_grid_points_agree_with_demkit():
    from demkit.search import GridSpec, grid_points

    demkit_count = sum(1 for _, _, ok in grid_points(GridSpec(**workloads.GRID)) if ok)
    assert workloads.valid_grid_points(workloads.GRID) == demkit_count == 350


def test_self_time_is_inclusive_time_minus_child_spans():
    now = [0.0]
    tracer = tracing.Tracer(clock=lambda: now[0], watch=[("outer", "inner")])

    def inner():
        now[0] += 2.0

    def outer():
        now[0] += 1.0
        traced_inner()
        now[0] += 3.0
        traced_inner()

    traced_inner = tracer.wrap("inner", inner)
    traced_outer = tracer.wrap("outer", outer)
    traced_outer()
    traced_inner()
    assert tracer.stats["outer"] == [1, 8.0, 4.0]
    assert tracer.stats["inner"] == [3, 6.0, 6.0]
    assert tracer.nested == {("outer", "inner"): 2}


def test_install_rebinds_names_imported_by_name():
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    exec("def f(x):\n    return x + 1\n\ndef _private(x):\n    return x\n", a.__dict__)
    b = types.ModuleType("fakepkg.b")
    b.f = a.f
    exec("def g(x):\n    return f(x) * 2\n", b.__dict__)
    modules = {"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b}
    sys.modules.update(modules)
    try:
        tracer = tracing.Tracer()
        tracing.install(tracer, {"a": a, "b": b}, package="fakepkg")
        assert b.g(1) == 4
        a.f(0)
        assert tracer.stats["a.f"][0] == 2
        assert tracer.stats["b.g"][0] == 1
        assert "a._private" not in tracer.stats
    finally:
        for name in modules:
            del sys.modules[name]


def test_per_layer_names_are_demkit_functions():
    import importlib

    for name, _, _ in run.PER_LAYER:
        module, _, rest = name.partition(".")
        path, _, stat = rest.rpartition(".")
        if stat not in run._STAT_FIELDS:
            continue
        obj = importlib.import_module(f"demkit.{module}")
        for attr in path.split("."):
            obj = getattr(obj, attr)
        assert callable(obj), name


def _child(outputs: dict, exit_code: int = 0) -> run.ChildRun:
    return run.ChildRun({"exit_code": exit_code, "wall_s": 1.0}, dict(outputs))


GOOD = {"stdout": b"gradcheck em: max rel err 1e-11 [ok]\n"}


def test_a_corrupted_output_digest_counts_as_a_failure(monkeypatch):
    w = workloads.make("gradcheck-scalar", 0)
    reference = run.digests(GOOD)
    assert run.command_problems(w, _child(GOOD), reference, None) == []

    corrupted = {"stdout": GOOD["stdout"].replace(b"1e-11", b"2e-11")}
    assert run.command_problems(w, _child(corrupted), reference, None)

    replies = iter([_child(GOOD), _child(corrupted)])
    monkeypatch.setattr(run, "run_child", lambda *args, **kwargs: next(replies))
    bench_run = run.Run(w, Path("."), 0.0)
    bench_run.reference = reference
    bench_run.command()
    bench_run.command()
    assert (bench_run.attempted, bench_run.failed) == (2, 1)


def test_nonzero_exit_and_bad_outputs_without_reference_fail():
    w = workloads.make("gradcheck-scalar", 0)
    assert run.command_problems(w, _child(GOOD, exit_code=3), None, None)
    failing = {"stdout": b"gradcheck em: max rel err 1 [FAIL]\n"}
    assert run.command_problems(w, _child(failing), None, None)
    assert run.command_problems(w, _child(GOOD), None, None) == []

    grid = workloads.make("grid-continual-dem", 0)
    nan = {"summary.json": b'{"best": {"full_accuracy": NaN, "subset_accuracy": 0.5}}'}
    assert run.command_problems(grid, _child(nan), None, None)
    ok = {"summary.json": b'{"best": {"full_accuracy": 0.4, "subset_accuracy": 0.5}}'}
    assert run.command_problems(grid, _child(ok), None, None) == []


def _timed_child(now: list, wall: float, probe_s: float = run.PROBE_S):
    """A ``run_child`` whose every command succeeds and takes ``wall`` s,
    with its probe loop taking ``probe_s`` s."""

    def run_child(mode, *args, **kwargs):
        now[0] += wall
        windows = {"main": [wall, 10 * probe_s, 10], "import": [0.2, 2 * probe_s, 2]}
        result = {"exit_code": 0, "windows": windows, "peak_rss_mb": 30.0}
        return run.ChildRun(result, dict(GOOD))

    return run_child


@pytest.mark.parametrize("wall", [0.1, 4.0])
def test_command_count_does_not_depend_on_the_programs_speed(monkeypatch, wall):
    now = [0.0]
    monkeypatch.setattr(run, "time", types.SimpleNamespace(perf_counter=lambda: now[0]))
    monkeypatch.setattr(run, "run_child", _timed_child(now, wall))
    w = workloads.make("gradcheck-scalar", 0)
    bench_run = run.Run(w, Path("."), 0.0)
    bench_run.reference = run.digests(GOOD)
    metrics, samples = run.measure(bench_run, 24)
    assert len(samples["wall_s"]) == bench_run.attempted == run.rounds(w, 24) == 16
    assert metrics["wall_s"]["value"] == pytest.approx(wall)


def test_timings_are_scaled_by_the_speed_probe(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(run, "time", types.SimpleNamespace(perf_counter=lambda: now[0]))
    monkeypatch.setattr(run, "run_child", _timed_child(now, 4.0, 2 * run.PROBE_S))
    bench_run = run.Run(workloads.make("gradcheck-scalar", 0), Path("."), 0.0)
    bench_run.reference = run.digests(GOOD)
    metrics, samples = run.measure(bench_run, 4)
    assert samples["unscaled wall_s"] == [4.0] * 4
    assert metrics["wall_s"]["value"] == pytest.approx(2.0)
    assert metrics["setup_s"]["value"] == pytest.approx(0.1)


def test_a_window_without_probes_takes_the_commands_speed():
    windows = {"main": [4.0, 20 * run.PROBE_S, 10], "setup": [0.01, 0.0, 0]}
    assert run.scaled(windows, "setup") == pytest.approx(0.005)


def test_speed_probe_takes_its_own_time_out_of_the_window():
    import child

    probe = child.SpeedProbe()
    probe.start()
    try:
        mark = probe.mark()
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
        seconds, probe_s, probes = probe.since(mark)
    finally:
        probe.stop()
    assert probes >= 5 and probe_s > 0.0
    assert seconds == pytest.approx(0.3 - (probe.wall_s), abs=0.01)


def test_a_failed_run_still_prints_fail_frac_and_the_result(monkeypatch, capsys):
    def run_child(mode, *args, **kwargs):
        if mode == "warmup":
            return run.ChildRun({"environment": {}})
        return run.ChildRun({"exit_code": 1, "wall_s": 1.0}, dict(GOOD))

    monkeypatch.setattr(run, "run_child", run_child)
    code = run.main(["--workload", "gradcheck-scalar", "--seed", "0", "--seconds", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert any("fail_frac: 1" in line for line in lines)
    assert json.loads(lines[-1]) == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def test_outputs_must_agree_within_a_run():
    w = workloads.make("gradcheck-scalar", 0)
    first = run.digests(GOOD)
    other = {"stdout": GOOD["stdout"] + b"\n"}
    assert run.command_problems(w, _child(other), None, first)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_traced_run_reports_every_per_layer_metric():
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", "gradcheck-scalar",
         "--seed", "3", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, _, _ in run.PER_LAYER]
    assert result["metrics"]["numkit.finite_diff_grad.calls"]["value"] == 2500
