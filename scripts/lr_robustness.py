"""Learning-rate robustness of EM versus AdaDEM on the rotation task.

Sweeps a log-spaced learning-rate grid for both losses on the stream and
source model of ``configs/single_domain_em.json`` (three repeats of a
0.5 rad rotation) and counts, per seed, how many rates keep online
accuracy at or above the no-adapt baseline.  A wider tolerated band
means less tuning risk.  A rate whose run diverges scores NaN, as in the
CLI's ``lr-sweep``.

Run:
    python3 scripts/lr_robustness.py --seeds 3 --out lr_robustness.csv
"""

import argparse
import csv
import statistics
from pathlib import Path

from demkit.bench import run_protocol
from demkit.cli import load_config, prepared_experiment
from demkit.model import AdaDemPlugin, EmPlugin, SgdConfig
from demkit.search import DEFAULT_LR_GRID, lr_sweep

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "single_domain_em.json"
MOMENTUM = 0.9


def prepared(seed: int):
    """Source model plus stream data of the shipped config at ``seed``."""
    cfg = load_config(str(CONFIG))
    cfg["seed"] = seed
    _, model, data = prepared_experiment(cfg)
    return model, data


def sweep(model, data, factory):
    def protocol(lr: float) -> float:
        cfg = SgdConfig(lr=lr, momentum=MOMENTUM)
        return run_protocol(model, data, "single_domain", factory, cfg).accuracy

    return lr_sweep(protocol, DEFAULT_LR_GRID)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=3)
    ap.add_argument("--out", default=None, help="optional CSV path")
    args = ap.parse_args()

    factories = {"em": lambda: EmPlugin(), "adadem": lambda: AdaDemPlugin()}
    rows = []
    counts = {name: [] for name in factories}
    print(f"{'seed':>4} {'loss':>7} {'baseline':>9} {'best acc':>9} {'tolerated':>10}")
    for seed in range(args.seeds):
        model, data = prepared(seed)
        for name, factory in factories.items():
            res = sweep(model, data, factory)
            counts[name].append(res.tolerance_count)
            finite = [acc for _, acc in res.rows if acc == acc]
            best = max(finite) if finite else float("nan")
            print(
                f"{seed:>4} {name:>7} {res.baseline:>9.4f} "
                f"{best:>9.4f} {res.tolerance_count:>10}"
            )
            for lr, acc in res.rows:
                rows.append([seed, name, f"{lr:g}", f"{acc:.6f}"])

    for name in factories:
        print(f"median tolerated rates, {name}: {statistics.median(counts[name])}")

    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["seed", "loss", "lr", "accuracy"])
            w.writerows(rows)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
