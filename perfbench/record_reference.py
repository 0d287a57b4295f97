"""Record the reference output digests that the benchmark checks against.

    python3 perfbench/record_reference.py

Runs each workload's command once for every seed 0..SEEDS-1, each in a fresh
process, and writes the SHA-256 digest of every output to
``reference.json``.  Record only on a commit whose outputs are known to be
right: the benchmark counts every later difference as a failed command.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

SEEDS = 32


def main() -> int:
    with run.scratch_dir("record-") as work:
        warm = run.run_child("warmup", [], work, run.DEADLINE_S)
        if warm.result is None:
            print(warm.error, file=sys.stderr)
            return 1
        recorded = {}
        for name in workloads.WORKLOADS:
            recorded[name] = {}
            for seed in range(SEEDS):
                w = workloads.make(name, seed)
                child = run.run_child(
                    "command", run.command_args(w), work, run.DEADLINE_S, w.config
                )
                problems = run.command_problems(w, child, None, None)
                if problems:
                    print(f"{name} seed {seed}: {'; '.join(problems)}", file=sys.stderr)
                    return 1
                recorded[name][str(seed)] = run.digests(child.outputs)
                print(f"{name} seed {seed}: {child.result['wall_s']:.2f} s", flush=True)
    reference = {"recorded_on": warm.result["environment"], "digests": recorded}
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
