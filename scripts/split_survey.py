"""Survey the split ascent: eigen-steps and time per solve, by shape and ensemble.

For each ensemble (Hilbert-Schmidt and pure Haar) and each shape -- the two
(2,3) marginals that thm1i solves on a (2,2,3) state, each alone and then
both as the one stack that thm1i ascends, and whole (2,4) and (3,4) states
-- it solves the split monotone of every drawn state and prints one table
row: solves, median / p90 / maximum sweeps and mean ms per solve.  A
stacked solve counts once, with the sweeps of its slowest objective.  The
split memo is cleared before every solve, so every timing is a full ascent.
Each row makes PASSES = 3 passes over its states and reports the smallest of
their mean times, since one pass on a shared host can read nearly 2x slow;
the sweeps are the same in every pass.

    python scripts/split_survey.py --states 20 --restarts 8 --seed 11
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from bloch_lab import EnsembleSpec, OptimizerConfig, random_state
from bloch_lab.monotone import _solve_split, _split_results

# thm1i's split pairs (omega, sigma, their sorted union) on a (2,2,3) state
_THM1I_PAIRS = (((0,), (2,), (0, 2)), ((1,), (2,), (1, 2)))
_A_B = ((0,), (1,), (0, 1))
# (label, drawn dims, split pairs solved on each drawn state, whether they are solved as one stack)
SHAPES = (
    ("(2,3) of (2,2,3)", (2, 2, 3), _THM1I_PAIRS, False),
    ("(2,3) pair of (2,2,3), one stack", (2, 2, 3), _THM1I_PAIRS, True),
    ("(2,4)", (2, 4), (_A_B,), False),
    ("(3,4)", (3, 4), (_A_B,), False),
)
ENSEMBLES = ("hilbert-schmidt", "pure-haar")
# passes over each row's states; the row's time is the fastest pass
PASSES = 3


def survey(dims, pairs, stacked: bool, kind: str, states: int, config: OptimizerConfig, seed: int):
    """(sweeps of every solve, seconds of every solve)."""
    stacks = (pairs,) if stacked else tuple((pair,) for pair in pairs)
    sweeps, seconds = [], []
    for i in range(states):
        state = random_state(dims, EnsembleSpec(kind=kind, seed=seed), i)
        for stack in stacks:
            _solve_split.cache_clear()
            t0 = time.perf_counter()
            results = _split_results(state, stack, 1.0, config)
            seconds.append(time.perf_counter() - t0)
            sweeps.append(max(r.sweeps for r in results))
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

    print(f"restarts={args.restarts}, seed={args.seed}, {args.states} states per row, "
          f"time: the fastest of {PASSES} passes")
    print(f"| ensemble | shape | solves | median sweeps | p90 | max | mean ms/solve, best of {PASSES} |")
    print("|---|---|---|---|---|---|---|")
    for kind in ENSEMBLES:
        for label, dims, pairs, stacked in SHAPES:
            passes = [survey(dims, pairs, stacked, kind, args.states, config, args.seed)
                      for _ in range(PASSES)]
            sweeps = passes[0][0]
            ms = 1e3 * min(seconds.mean() for _, seconds in passes)
            print(f"| {kind} | {label} | {sweeps.size} | {np.median(sweeps):g} "
                  f"| {np.percentile(sweeps, 90):g} | {sweeps.max()} | {ms:.2f} |")


if __name__ == "__main__":
    main()
