"""EM, tuned DEM, and AdaDEM on the continual rotation ladder.

The continual task of ``configs/continual_adadem.json`` chains three
rotations of growing angle with no reset between them, so early mistakes
compound.  Per seed this script builds that config's source model and
stream once and runs the CLI's recipes on them.  For EM and AdaDEM it
runs ``lr-sweep``'s recipe, ``search.lr_sweep`` (the config's loss with
only its name swapped), and reports the best rate and accuracy; a rate
whose run diverges scores NaN and is never the best, and when every
rate diverges the best rate and accuracy are NaN.  For DEM it runs
``grid-search``'s recipe, ``search.grid_search``, which tunes
(tau, alpha) on a leading subset of each shift's batches at the config's
optimizer and scores the winner (DEM*) on the full stream next to the
classical point tau = alpha = 1 (``n/a`` when the grid lacks that
point); DEM* is then ``grid-search``'s ``full_accuracy`` for the same
config and seed.

Run:
    python3 scripts/continual_comparison.py --seeds 3
"""

import argparse
import statistics
from pathlib import Path

from demkit.cli import load_config, plugin_factory_from, prepared_experiment
from demkit.search import grid_search, lr_sweep

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "continual_adadem.json"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=3)
    args = ap.parse_args()

    em_accs, ada_accs, dem_accs = [], [], []
    for seed in range(args.seeds):
        cfg = load_config(str(CONFIG))
        cfg["seed"] = seed
        model, plan = prepared_experiment(cfg)
        data, sgd = plan.data, plan.sgd
        cfg["loss"]["name"] = "em"
        lr_em, acc_em = lr_sweep(model, data, plugin_factory_from(cfg), sgd, cfg["lrs"]).best
        cfg["loss"]["name"] = "adadem"
        lr_ada, acc_ada = lr_sweep(model, data, plugin_factory_from(cfg), sgd, cfg["lrs"]).best
        dem = grid_search(model, data, plan.grid, sgd)

        em_accs.append(acc_em)
        ada_accs.append(acc_ada)
        dem_accs.append(dem.best_full)
        # (1, 1) is not a point of every grid; grid-search then reports no classical score
        classical = "n/a" if dem.classical_full is None else f"{dem.classical_full:.4f}"
        print(
            f"seed {seed}: em {acc_em:.4f} (lr {lr_em:g}), "
            f"adadem {acc_ada:.4f} (lr {lr_ada:g}), "
            f"dem* {dem.best_full:.4f} (tau {dem.best.tau:g}, alpha {dem.best.alpha:g}, "
            f"lr {cfg['optimizer']['lr']:g}), classical {classical}"
        )

    print(
        f"medians: em {statistics.median(em_accs):.4f}, "
        f"adadem {statistics.median(ada_accs):.4f}, "
        f"dem* {statistics.median(dem_accs):.4f}"
    )


if __name__ == "__main__":
    main()
