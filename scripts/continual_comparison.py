"""EM, tuned DEM, and AdaDEM on the continual rotation ladder.

The continual task of ``configs/continual_adadem.json`` chains three
rotations of growing angle with no reset between them, so early mistakes
compound.  Per seed this script builds that config's source model and
stream, reports the best learning rate and accuracy for EM and AdaDEM,
and for DEM first grid-searches (tau, alpha) on a leading subset of each
shift's batches at a fixed rate, then scores the winner on the full
stream next to the classical point tau = alpha = 1.  A rate whose run
diverges scores NaN, as in the CLI's ``lr-sweep``, and is never the best;
when every rate diverges, the best rate and accuracy are NaN.

Run:
    python3 scripts/continual_comparison.py --seeds 3
"""

import argparse
import math
import statistics
from pathlib import Path

from demkit.bench import run_protocol
from demkit.cli import load_config, prepared_experiment
from demkit.em_losses import DemConfig
from demkit.model import AdaDemPlugin, DemPlugin, EmPlugin, SgdConfig
from demkit.search import DEFAULT_LR_GRID, GridSpec, grid_search, lr_sweep

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "continual_adadem.json"
MOMENTUM = 0.9
GRID_LR = 1e-3
SUBSET_FRACTION = 0.2


def prepared(seed: int):
    """Source model plus stream data of the shipped config at ``seed``."""
    cfg = load_config(str(CONFIG))
    cfg["seed"] = seed
    _, model, data = prepared_experiment(cfg)
    return model, data


def best_lr(model, data, factory):
    def protocol(lr: float) -> float:
        cfg = SgdConfig(lr=lr, momentum=MOMENTUM)
        return run_protocol(model, data, "continual", factory, cfg).accuracy

    res = lr_sweep(protocol, DEFAULT_LR_GRID)
    finite = [row for row in res.rows if not math.isnan(row[1])]
    return max(finite, key=lambda row: row[1], default=(math.nan, math.nan))


def dem_accuracy(model, data, tau: float, alpha: float) -> float:
    cfg = SgdConfig(lr=GRID_LR, momentum=MOMENTUM)
    factory = lambda: DemPlugin(DemConfig(tau, alpha))
    return run_protocol(model, data, "continual", factory, cfg).accuracy


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=3)
    args = ap.parse_args()

    em_accs, ada_accs, dem_accs = [], [], []
    for seed in range(args.seeds):
        model, data = prepared(seed)
        k = max(1, round(len(data[0]) * SUBSET_FRACTION))
        subset = [batches[:k] for batches in data]

        lr_em, acc_em = best_lr(model, data, lambda: EmPlugin())
        lr_ada, acc_ada = best_lr(model, data, lambda: AdaDemPlugin())
        best, _ = grid_search(
            lambda t, a: dem_accuracy(model, subset, t, a), GridSpec()
        )
        acc_dem = dem_accuracy(model, data, best.tau, best.alpha)
        acc_classical = dem_accuracy(model, data, 1.0, 1.0)

        em_accs.append(acc_em)
        ada_accs.append(acc_ada)
        dem_accs.append(acc_dem)
        print(
            f"seed {seed}: em {acc_em:.4f} (lr {lr_em:g}), "
            f"adadem {acc_ada:.4f} (lr {lr_ada:g}), "
            f"dem* {acc_dem:.4f} (tau {best.tau:g}, alpha {best.alpha:g}, "
            f"lr {GRID_LR:g}), classical {acc_classical:.4f}"
        )

    print(
        f"medians: em {statistics.median(em_accs):.4f}, "
        f"adadem {statistics.median(ada_accs):.4f}, "
        f"dem* {statistics.median(dem_accs):.4f}"
    )


if __name__ == "__main__":
    main()
