"""Reward profiles of the tempered loss along the confidence axis.

For logits ``z = (m, 0, ..., 0)`` the reward on the top class is the
negative loss gradient there.  Classical entropy minimization rewards
confident predictions less and less as the margin grows; raising the
temperature keeps the reward alive further out.  This script tabulates
that family of curves and reports, per temperature, where the reward
peaks and where it drops below a collapse threshold.

Run:
    python3 scripts/reward_curves.py --out reward_curves.csv
"""

import argparse
import csv

import numpy as np

from demkit.em_losses import DemConfig, reward_curve
from demkit.search import grid_axis

COLLAPSE_THRESHOLD = 1e-8


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--classes", type=int, default=10)
    ap.add_argument("--alpha", type=float, default=1.0)
    ap.add_argument(
        "--taus", type=float, nargs="+", default=[0.5, 1.0, 1.5, 2.0]
    )
    ap.add_argument("--m-max", type=float, default=30.0)
    ap.add_argument("--m-step", type=float, default=0.1)
    ap.add_argument("--out", default=None, help="optional CSV path")
    args = ap.parse_args()

    m_grid = grid_axis(0.0, args.m_max, args.m_step)
    curves = {}
    for tau in args.taus:
        cfg = DemConfig(tau=tau, alpha=args.alpha)
        curves[tau] = reward_curve(args.classes, cfg, m_grid)

    print(f"C={args.classes} alpha={args.alpha}")
    print(f"{'tau':>6} {'peak m':>8} {'peak reward':>12} {'collapse m':>11}")
    for tau, rows in curves.items():
        rewards = np.array([r for _, _, r in rows])
        peak = int(np.argmax(rewards))
        collapsed = np.where(
            (m_grid > m_grid[peak]) & (rewards < COLLAPSE_THRESHOLD)
        )[0]
        collapse_m = f"{m_grid[collapsed[0]]:.2f}" if collapsed.size else "never"
        print(
            f"{tau:>6.2f} {m_grid[peak]:>8.2f} {rewards[peak]:>12.5f} "
            f"{collapse_m:>11}"
        )

    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["m", "p_max"] + [f"reward_tau_{t:g}" for t in args.taus])
            first = curves[args.taus[0]]
            for i, m in enumerate(m_grid):
                row = [f"{m:.12g}", f"{first[i][1]:.12g}"]
                row += [f"{curves[t][i][2]:.12g}" for t in args.taus]
                w.writerow(row)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
