"""Survey the split ascent: eigen-steps and time per solve, by shape and ensemble.

For each ensemble (Hilbert-Schmidt and pure Haar) and each shape -- the two
(2,3) marginals that thm1i solves on a (2,2,3) state, and whole (2,4) and
(3,4) states -- it solves the split monotone of every drawn state and
prints one table row: solves, median / p90 / maximum sweeps and mean ms
per solve.  The split memo is cleared before every solve, so every timing
is a full ascent.

    python scripts/split_survey.py --states 20 --restarts 8 --seed 11
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from bloch_lab import EnsembleSpec, OptimizerConfig, correlation_monotone, random_state
from bloch_lab.monotone import _solve_split

# (label, drawn dims, partitions solved on each drawn state)
SHAPES = (
    ("(2,3) of (2,2,3)", (2, 2, 3), (((0,), (2,)), ((1,), (2,)))),
    ("(2,4)", (2, 4), (((0,), (1,)),)),
    ("(3,4)", (3, 4), (((0,), (1,)),)),
)
ENSEMBLES = ("hilbert-schmidt", "pure-haar")


def survey(dims, partitions, kind: str, states: int, config: OptimizerConfig, seed: int):
    """(sweeps of every solve, seconds of every solve)."""
    sweeps, seconds = [], []
    for i in range(states):
        state = random_state(dims, EnsembleSpec(kind=kind, seed=seed), i)
        for partition in partitions:
            _solve_split.cache_clear()
            t0 = time.perf_counter()
            result = correlation_monotone(state, partition, config=config)
            seconds.append(time.perf_counter() - t0)
            sweeps.append(result.sweeps)
    return np.array(sweeps), np.array(seconds)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--states", type=int, default=60, help="states drawn per shape and ensemble")
    ap.add_argument("--restarts", type=int, default=8, help="optimizer restarts per solve")
    ap.add_argument("--seed", type=int, default=11, help="ensemble seed of the drawn states")
    args = ap.parse_args()
    if args.states < 1:
        ap.error(f"invalid --states {args.states}: need at least 1")
    try:
        config = OptimizerConfig(restarts=args.restarts, seed=0)
    except ValueError as exc:
        ap.error(str(exc))

    print(f"restarts={args.restarts}, seed={args.seed}, {args.states} states per row")
    print("| ensemble | shape | solves | median sweeps | p90 | max | mean ms/solve |")
    print("|---|---|---|---|---|---|---|")
    for kind in ENSEMBLES:
        for label, dims, partitions in SHAPES:
            sweeps, seconds = survey(dims, partitions, kind, args.states, config, args.seed)
            print(f"| {kind} | {label} | {sweeps.size} | {np.median(sweeps):g} "
                  f"| {np.percentile(sweeps, 90):g} | {sweeps.max()} | {1e3 * seconds.mean():.2f} |")


if __name__ == "__main__":
    main()
