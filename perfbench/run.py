"""Benchmark for the demkit CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a demkit checkout; demkit is imported from its
``src`` directory.  Each workload is one CLI command generated from the
seed (see ``workloads.py``):

* ``grid-continual-dem``   ``grid-search``: 352 short DEM protocols, where
  the search loop and the fixed cost of each protocol dominate;
* ``lrsweep-adadem-long``  ``lr-sweep``: 11 long AdaDEM protocols, where
  the AdaDEM kernel and the per-step cost of ``adapt_stream`` dominate;
* ``gradcheck-scalar``     ``gradcheck``: the scalar loss API and the
  finite-difference oracle, with no training and no adaptation.

Every timed call runs in a fresh process with a fresh output directory
under ``.perfbench_work/`` in the checkout, and with ``DEMKIT_THREADS``
and the BLAS thread variables removed from its environment.

``--trace 0`` runs the command a fixed number of times: as many as
``--seconds`` holds at the workload's fixed estimate of one command's
time (``Workload.command_s``), and at least four, so the number of
commands never depends on how fast the measured code is.  It reports the
median over the run's commands of

* ``wall_s``       seconds inside ``demkit.cli.main`` (after import),
* ``setup_s``      seconds of the command's own ``prepared_experiment`` call
  (source training and stream generation); for ``gradcheck-scalar``,
  which has neither, the seconds to import ``demkit.cli``,
* ``peak_rss_mb``  peak resident memory of the command's process.

``wall_s`` and ``setup_s`` are scaled to a fixed machine speed.  On a
small shared machine other tenants slow every process down, by as much
as a factor of two and changing within a second, which no number of
repeats within one run averages away.  So the child samples the machine's
speed all through the command with a fixed pure-Python loop (see
``child.SpeedProbe``), and each timing is multiplied by ``PROBE_S`` (the
loop's seconds when nothing slows the machine) over the loop's mean
seconds within the timed window.  The probes' own time is not counted.
The unscaled times are printed with the samples.

``--trace 1`` runs the command once untraced and once traced, and reports
per-function counts and times (``PER_LAYER``); the tracing overhead
compares the two walls scaled to one machine speed.  Per-function times
are not scaled, and they include the probes that fall inside them (about
2% of the time).  It fails if a count
that the config implies differs from the traced count.

A command fails when it exits non-zero or when an output (each file it
writes, and its standard output) differs from the SHA-256 digest recorded
in ``reference.json`` for that workload and seed, or from the other
commands of the same run.  Seeds without a reference are checked for exit
code 0 and finite accuracies.  Failed commands are reported as ``failed``
out of ``attempted`` and as ``fail_frac``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CHILD = BENCH_DIR / "child.py"
REFERENCE = BENCH_DIR / "reference.json"

MIN_ROUNDS = 4
# Mean seconds of ``child.probe_loop`` on a 2-core Xeon at 2.1 GHz while
# no other tenant slows it; the unit the scaled timings are given in.
PROBE_S = 0.00037
# No round starts after this many seconds, and no process outlives the
# deadline, so a run always ends within the 180 s it is allowed.  Only
# commands about five times slower than their ``command_s`` reach it.
LAST_ROUND_START_S = 120.0
DEADLINE_S = 170.0

STRAY_ENV = ("DEMKIT_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (name, unit, better).  ``<module>.<function>.{calls,s,self_s}`` come from
# the tracer; the others are derived in ``per_layer_metrics``.
PER_LAYER = (
    ("cli.prepared_experiment.s", "s", "lower"),
    ("model.train_source.s", "s", "lower"),
    ("model.train_source.self_s", "s", "lower"),
    ("model.source_steps", "count", "lower"),
    ("numkit.Rng.permutation.calls", "count", "lower"),
    ("numkit.Rng.permutation.s", "s", "lower"),
    ("bench.make_stream.s", "s", "lower"),
    ("bench.sample_batch.calls", "count", "lower"),
    ("bench.sample_batch.s", "s", "lower"),
    ("search.grid_search.s", "s", "lower"),
    ("search.grid_search.self_s", "s", "lower"),
    ("search.lr_sweep.s", "s", "lower"),
    ("search.lr_sweep.self_s", "s", "lower"),
    ("bench.run_protocol.calls", "count", "lower"),
    ("bench.run_protocol.s", "s", "lower"),
    ("bench.run_protocol.self_s", "s", "lower"),
    ("bench.metrics.calls", "count", "lower"),
    ("bench.metrics.s", "s", "lower"),
    ("em_losses.dem_rows.calls", "count", "lower"),
    ("em_losses.dem_rows.s", "s", "lower"),
    ("bench.forward_useful_ratio", "ratio", "higher"),
    ("adadem.adadem_rows.calls", "count", "lower"),
    ("adadem.adadem_rows.s", "s", "lower"),
    ("adadem.adadem_rows.self_s", "s", "lower"),
    ("adadem.mec_update.calls", "count", "lower"),
    ("adadem.mec_update.s", "s", "lower"),
    ("model.adapt_stream.calls", "count", "lower"),
    ("model.adapt_stream.s", "s", "lower"),
    ("model.adapt_stream.self_s", "s", "lower"),
    ("model.param_distance.calls", "count", "lower"),
    ("model.param_distance.s", "s", "lower"),
    ("model.forward.calls", "count", "lower"),
    ("model.forward.s", "s", "lower"),
    ("model.backward.calls", "count", "lower"),
    ("model.backward.s", "s", "lower"),
    ("model.sgd_step.calls", "count", "lower"),
    ("model.sgd_step.s", "s", "lower"),
    ("model.adapt_steps", "count", "lower"),
    ("em_losses.em_eval.calls", "count", "lower"),
    ("em_losses.em_eval.s", "s", "lower"),
    ("em_losses.dem_eval.calls", "count", "lower"),
    ("em_losses.dem_eval.s", "s", "lower"),
    ("em_losses.cadf_tempered_eval.calls", "count", "lower"),
    ("em_losses.cadf_tempered_eval.s", "s", "lower"),
    ("em_losses.conditional_entropy.calls", "count", "lower"),
    ("em_losses.conditional_entropy.s", "s", "lower"),
    ("adadem.delta.calls", "count", "lower"),
    ("adadem.delta.s", "s", "lower"),
    ("numkit.finite_diff_grad.calls", "count", "lower"),
    ("numkit.finite_diff_grad.s", "s", "lower"),
    ("numkit.as_vector.calls", "count", "lower"),
    ("numkit.as_matrix.calls", "count", "lower"),
    ("numkit.softmax.calls", "count", "lower"),
    ("numkit.validations_per_eval", "ratio", "lower"),
    ("cli.main.cpu_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

_STAT_FIELDS = {"calls": 0, "s": 1, "self_s": 2}


@dataclass
class ChildRun:
    """One child process: its timings and the outputs it produced."""

    result: dict | None
    outputs: dict = field(default_factory=dict)
    error: str = ""


def digests(outputs: dict) -> dict:
    """SHA-256 hex digest of each output, by name."""
    return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(outputs.items())}


@contextlib.contextmanager
def scratch_dir(prefix: str):
    """A fresh directory under ``WORK``, removed with everything in it."""
    WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=WORK))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def child_env() -> dict:
    env = dict(os.environ)
    for name in STRAY_ENV:
        env.pop(name, None)
    return env


def run_child(mode: str, args: list, work: Path, timeout: float, config: dict | None = None) -> ChildRun:
    """Start ``child.py`` in a fresh directory under ``work`` and wait for it.

    ``config``, if given, is written to ``config.json`` with ``output_dir``
    pointing into the fresh directory, and ``{config}`` in ``args`` is
    replaced by its path.  On success the outputs are the command's
    standard output and every file it wrote.
    """
    cwd = Path(tempfile.mkdtemp(prefix=f"{mode}-", dir=work))
    out_dir = cwd / "out"
    if config is not None:
        cfg_path = cwd / "config.json"
        cfg_path.write_text(json.dumps({**config, "output_dir": str(out_dir)}))
        args = [str(cfg_path) if a == "{config}" else a for a in args]
    result_path = cwd / "result.json"
    cmd = [sys.executable, "-I", str(CHILD), mode, str(SRC), str(result_path), *args]
    try:
        proc = subprocess.run(
            cmd, cwd=cwd, env=child_env(), capture_output=True, timeout=max(timeout, 1.0)
        )
    except subprocess.TimeoutExpired:
        return ChildRun(None, error=f"{mode}: no result within {timeout:.0f} s")
    if proc.returncode != 0 or not result_path.is_file():
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
        return ChildRun(None, error=f"{mode}: exit {proc.returncode}: {' | '.join(tail)}")
    result = json.loads(result_path.read_text())
    outputs = {"stdout": proc.stdout}
    if out_dir.is_dir():
        for path in sorted(out_dir.iterdir()):
            outputs[path.name] = path.read_bytes()
    return ChildRun(result, outputs)


def command_args(w: workloads.Workload) -> list:
    if w.config is not None:
        return [w.command, "--config", "{config}"]
    return [w.command, *w.args]


def _accuracies(summary: dict) -> list:
    found = []
    for key, value in summary.items():
        if isinstance(value, dict):
            found += _accuracies(value)
        elif key.endswith(("accuracy", "accuracies")):
            found += value if isinstance(value, list) else [value]
    return found


def plausibility_problems(w: workloads.Workload, outputs: dict) -> list:
    """Checks for a seed without reference digests."""
    if w.command == "gradcheck":
        lines = outputs.get("stdout", b"").decode(errors="replace").splitlines()
        if not lines or not all(line.endswith("[ok]") for line in lines):
            return ["gradcheck output has a line that is not [ok]"]
        return []
    if "summary.json" not in outputs:
        return ["summary.json was not written"]
    accs = _accuracies(json.loads(outputs["summary.json"]))
    if not accs or not all(isinstance(a, (int, float)) and math.isfinite(a) for a in accs):
        return ["summary.json has a missing or non-finite accuracy"]
    return []


def command_problems(
    w: workloads.Workload, child: ChildRun, reference: dict | None, first: dict | None
) -> list:
    """Why a command counts as failed; empty when it succeeded.

    ``reference`` holds the recorded digests for this workload and seed
    (``None`` if there are none); ``first`` holds the digests of an earlier
    successful command of the same run.
    """
    if child.result is None:
        return [child.error]
    if child.result["exit_code"] != 0:
        return [f"exit code {child.result['exit_code']}"]
    got = digests(child.outputs)
    problems = []
    if reference is not None:
        for name in sorted(set(got) | set(reference)):
            if got.get(name) != reference.get(name):
                problems.append(f"{name} differs from the reference digest")
    else:
        problems += plausibility_problems(w, child.outputs)
    if first is not None and got != first:
        problems.append("outputs differ from an earlier command of this run")
    return problems


def load_reference(w: workloads.Workload) -> dict | None:
    if not REFERENCE.is_file():
        return None
    recorded = json.loads(REFERENCE.read_text())["digests"]
    return recorded.get(w.name, {}).get(str(w.seed))


class Run:
    """Counts attempted and failed child processes of one benchmark run."""

    def __init__(self, w: workloads.Workload, work: Path, start: float):
        self.w = w
        self.work = work
        self.start = start
        self.reference = load_reference(w)
        self.first = None
        self.attempted = 0
        self.failed = 0

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.start)

    def command(self, mode: str = "command") -> ChildRun:
        """Run the command once; a failed command keeps no result."""
        child = run_child(mode, command_args(self.w), self.work, self.remaining(), self.w.config)
        problems = command_problems(self.w, child, self.reference, self.first)
        self.attempted += 1
        if problems:
            self.failed += 1
            child.result = None
            for problem in problems:
                print(f"FAILED {self.w.name} seed {self.w.seed}: {problem}", file=sys.stderr)
        elif self.first is None:
            self.first = digests(child.outputs)
        return child


def rounds(w: workloads.Workload, seconds: float) -> int:
    """Commands in a timed run of ``seconds``: a count fixed by the workload."""
    return max(MIN_ROUNDS, round(seconds / w.command_s))


def scaled(windows: dict, key: str) -> float:
    """The seconds of a child's timed window at the machine speed ``PROBE_S``.

    A window too short to hold a probe takes the speed of the whole command.
    """
    seconds, probe_s, probes = windows[key]
    if not probes:
        _, probe_s, probes = windows["main"]
    return seconds * PROBE_S * probes / probe_s


def measure(run: Run, seconds: float) -> tuple[dict | None, dict]:
    """Run the command ``rounds(run.w, seconds)`` times.

    Returns the metrics (``None`` if a command failed) and the samples
    they summarize.
    """
    done = []
    planned = rounds(run.w, seconds)
    for _ in range(planned):
        if time.perf_counter() - run.start > LAST_ROUND_START_S:
            print(
                f"perfbench: deadline reached after {len(done)} of {planned} commands",
                file=sys.stderr,
            )
            break
        child = run.command()
        if child.result is None:
            return None, {}
        done.append(child.result)
    setup_key = "setup" if run.w.config is not None else "import"
    samples = {
        "wall_s": [scaled(r["windows"], "main") for r in done],
        "setup_s": [scaled(r["windows"], setup_key) for r in done],
        "peak_rss_mb": [r["peak_rss_mb"] for r in done],
        "unscaled wall_s": [r["windows"]["main"][0] for r in done],
        "unscaled setup_s": [r["windows"][setup_key][0] for r in done],
        "probe_s": [r["windows"]["main"][1] / r["windows"]["main"][2] for r in done],
    }
    metrics = {
        name: {"value": statistics.median(samples[name]), "unit": unit}
        for name, unit in END_TO_END
    }
    return metrics, samples


def per_layer_metrics(traced: dict, untraced: dict) -> dict:
    """The ``PER_LAYER`` values from a traced and an untraced command."""
    stats = traced["stats"]
    nested = {(a, n): c for a, n, c in traced["nested"]}
    calls = lambda name: stats.get(name, [0])[0]
    scalar_evals = sum(
        calls(f"em_losses.{f}") for f in ("em_eval", "dem_eval", "cadf_tempered_eval")
    )
    protocol_forwards = nested[("bench.run_protocol", "model.forward")]
    derived = {
        "model.source_steps": nested[("model.train_source", "model.sgd_step")],
        "model.adapt_steps": nested[("model.adapt_stream", "model.sgd_step")],
        # Adaptation steps per forward pass made inside run_protocol; 0 when
        # the command runs no protocol.
        "bench.forward_useful_ratio": (
            nested[("bench.run_protocol", "model.sgd_step")] / protocol_forwards
            if protocol_forwards
            else 0.0
        ),
        # Input validations per scalar loss evaluation; 0 when the command
        # makes no scalar evaluation.
        "numkit.validations_per_eval": (
            (calls("numkit.as_vector") + calls("numkit.as_matrix")) / scalar_evals
            if scalar_evals
            else 0.0
        ),
        "cli.main.cpu_s": untraced["cpu_s"],
        "trace.overhead_frac": (
            scaled(traced["windows"], "main") / scaled(untraced["windows"], "main") - 1.0
        ),
    }
    metrics = {}
    for name, unit, _ in PER_LAYER:
        if name in derived:
            value = derived[name]
        else:
            function, stat = name.rsplit(".", 1)
            value = stats.get(function, [0, 0.0, 0.0])[_STAT_FIELDS[stat]]
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def count_mismatches(w: workloads.Workload, metrics: dict) -> list:
    return [
        f"{name} is {metrics[name]['value']}, the config implies {expected}"
        for name, expected in w.expected.items()
        if metrics[name]["value"] != expected
    ]


def trace_run(run: Run) -> dict | None:
    """One untraced and one traced command; ``None`` if either failed or the
    traced counts disagree with the config, which counts the traced command
    as failed."""
    untraced = run.command()
    traced = run.command("traced")
    if untraced.result is None or traced.result is None:
        return None
    metrics = per_layer_metrics(traced.result, untraced.result)
    mismatches = count_mismatches(run.w, metrics)
    for problem in mismatches:
        print(f"trace count mismatch on {run.w.name}: {problem}", file=sys.stderr)
    if mismatches:
        run.failed += 1
        return None
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "demkit" / "cli.py").is_file():
        print(f"perfbench: no demkit sources under {SRC}", file=sys.stderr)
        return 2
    try:
        w = workloads.make(args.workload, args.seed)
    except ValueError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    with scratch_dir("run-") as work:
        start = time.perf_counter()
        warm = run_child("warmup", [], work, DEADLINE_S)
        if warm.result is None:
            print(f"perfbench: {warm.error}", file=sys.stderr)
            return 2
        run = Run(w, work, start)
        if args.trace:
            metrics, samples = trace_run(run), {}
        else:
            metrics, samples = measure(run, args.seconds)

    print(f"workload {w.name} seed {w.seed} trace {args.trace}")
    print(f"environment {json.dumps(warm.result['environment'], sort_keys=True)}")
    for name, m in (metrics or {}).items():
        print(f"  {name}: {m['value']:.6g} {m['unit']}")
    for name, values in samples.items():
        print(f"  {name} samples: {' '.join(f'{v:.6g}' for v in values)}")
    print(f"  fail_frac: {run.failed / run.attempted:.6g} ({run.failed} of {run.attempted} commands)")
    correct = run.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics if correct else {},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
