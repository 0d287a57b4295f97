"""Learning-rate robustness of EM versus AdaDEM on the rotation task.

Sweeps the learning-rate grid of ``configs/single_domain_em.json`` (three
repeats of a 0.5 rad rotation) for both losses and counts, per seed, how
many rates keep online accuracy at or above the no-adapt baseline.  A
wider tolerated band means less tuning risk.  Per seed the script builds
the config's source model and stream once and runs ``lr-sweep``'s
recipe, ``search.lr_sweep``, on them for each loss, swapping only the
config's loss name, so each count is ``lr-sweep``'s ``tolerance_count``
for that config and seed, and a rate whose run diverges scores NaN.

Run:
    python3 scripts/lr_robustness.py --seeds 3 --out lr_robustness.csv
"""

import argparse
import csv
import statistics
from pathlib import Path

from demkit.cli import load_config, plugin_factory_from, prepared_experiment, sgd_config
from demkit.search import lr_sweep

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "single_domain_em.json"
LOSSES = ("em", "adadem")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=3)
    ap.add_argument("--out", default=None, help="optional CSV path")
    args = ap.parse_args()

    rows = []
    counts = {name: [] for name in LOSSES}
    print(f"{'seed':>4} {'loss':>7} {'baseline':>9} {'best acc':>9} {'tolerated':>10}")
    for seed in range(args.seeds):
        cfg = load_config(str(CONFIG))
        cfg["seed"] = seed
        model, data = prepared_experiment(cfg)
        for name in LOSSES:
            cfg["loss"]["name"] = name
            res = lr_sweep(model, data, plugin_factory_from(cfg), sgd_config(cfg), cfg["lrs"])
            counts[name].append(res.tolerance_count)
            print(
                f"{seed:>4} {name:>7} {res.baseline:>9.4f} "
                f"{res.best[1]:>9.4f} {res.tolerance_count:>10}"
            )
            for lr, acc in res.rows:
                rows.append([seed, name, f"{lr:g}", f"{acc:.6f}"])

    for name in LOSSES:
        print(f"median tolerated rates, {name}: {statistics.median(counts[name])}")

    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["seed", "loss", "lr", "accuracy"])
            w.writerows(rows)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
