"""One timed demkit call in a fresh process; the benchmark runner starts it.

    python3 -I child.py MODE SRC_DIR RESULT_JSON [ARGS...]

MODE is one of:

* ``warmup``     import demkit only (fills the bytecode cache) and report
  the machine and numeric stack,
* ``command``    time ``demkit.cli.main(ARGS)``, and separately the
  command's own call to ``demkit.cli.prepared_experiment`` (``setup_s``),
* ``traced``     time ``demkit.cli.main(ARGS)`` with the tracer installed.

demkit is imported from SRC_DIR.  The command's own standard output passes
through untouched; the timings go to RESULT_JSON.

While demkit is imported and runs, a ``SpeedProbe`` interrupts it every
``PROBE_INTERVAL_S`` to time a fixed pure-Python loop.  Each timed window
(the import, the command, its set-up) is reported as its seconds with the
probes' own time taken out, together with the mean seconds of the probe
loop inside the window, which the runner uses to scale the window to a
fixed machine speed.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import sys
import time

# (ancestor, name) pairs whose nested calls the tracer counts; the runner
# derives the step counts and the forward-pass ratio from them.
WATCH = (
    ("model.train_source", "model.sgd_step"),
    ("model.adapt_stream", "model.sgd_step"),
    ("bench.run_protocol", "model.sgd_step"),
    ("bench.run_protocol", "model.forward"),
)

MODULES = ("numkit", "em_losses", "adadem", "model", "bench", "search", "cli")

PROBE_INTERVAL_S = 0.02
PROBE_ITERATIONS = 3000


def probe_loop() -> None:
    """A fixed pure-Python loop of dict stores and float arithmetic."""
    acc, table = 0.0, {}
    for i in range(PROBE_ITERATIONS):
        acc += (i * 7 % 13) * 0.5
        table[i & 255] = acc


class SpeedProbe:
    """Samples how fast the machine runs while the measured code runs.

    On a small shared machine other tenants slow every process, by as much
    as a factor of two, and the slowdown changes within a second.  So every
    ``PROBE_INTERVAL_S`` of wall time a timer signal runs ``probe_loop`` in
    the main thread, between two bytecodes of the measured code.  Its time
    is thread CPU time, which a slowed machine inflates and which excludes
    any other thread or process of this machine.  The loop is benchmark
    code: a change to demkit changes the windows' seconds, not the probe.
    """

    def __init__(self):
        self.wall_s = 0.0  # wall seconds spent in probes
        self.cpu_s = 0.0  # thread CPU seconds of the probe loops
        self.count = 0

    def _sample(self, signum, frame) -> None:
        t0, c0 = time.perf_counter(), time.thread_time()
        probe_loop()
        self.cpu_s += time.thread_time() - c0
        self.count += 1
        self.wall_s += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple:
        return time.perf_counter(), self.wall_s, self.cpu_s, self.count

    def since(self, mark: tuple) -> list:
        """``[seconds, probe CPU seconds, probes]`` from ``mark`` to now,
        without the probes' own wall time."""
        t, wall, cpu, count = self.mark()
        return [t - mark[0] - (wall - mark[1]), cpu - mark[2], count - mark[3]]


def add_window(windows: dict, key: str, window: list) -> None:
    windows[key] = [a + b for a, b in zip(windows.get(key, [0.0, 0.0, 0]), window)]


def environment() -> dict:
    """The machine and numeric stack the measured program runs on."""
    import platform

    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
    }


def _timed(fn, probe: SpeedProbe, windows: dict, key: str):
    """``fn`` that adds the window of each call to ``windows[key]``."""

    def timed(*args, **kwargs):
        mark = probe.mark()
        try:
            return fn(*args, **kwargs)
        finally:
            add_window(windows, key, probe.since(mark))

    return timed


def main(argv: list[str]) -> int:
    mode, src, result_path, args = argv[0], argv[1], argv[2], argv[3:]
    if mode not in ("warmup", "command", "traced"):
        print(f"child: unknown mode {mode!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, src)
    probe, windows = SpeedProbe(), {}
    probe.start()
    mark = probe.mark()
    import demkit.cli as cli

    add_window(windows, "import", probe.since(mark))
    where = os.path.realpath(cli.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        probe.stop()
        print(f"child: demkit was imported from {where}, not from {src}", file=sys.stderr)
        return 2

    result = {"windows": windows}
    tracer = None
    if mode == "traced":
        import importlib

        from tracing import Tracer, install

        tracer = Tracer(watch=WATCH)
        install(tracer, {m: importlib.import_module(f"demkit.{m}") for m in MODULES})
    elif mode == "command":
        cli.prepared_experiment = _timed(cli.prepared_experiment, probe, windows, "setup")
    else:
        result["environment"] = environment()
    c0, mark = time.process_time(), probe.mark()
    exit_code = cli.main(args) if mode != "warmup" else 0
    add_window(windows, "main", probe.since(mark))
    probe.stop()
    result["wall_s"] = windows["main"][0]
    result["cpu_s"] = time.process_time() - c0 - windows["main"][1]
    result["exit_code"] = exit_code
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["stats"] = tracer.stats
        result["nested"] = [[a, n, c] for (a, n), c in tracer.nested.items()]
    sys.stdout.flush()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
