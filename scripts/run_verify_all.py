"""Run the inequality verification campaigns over the standard site shapes.

For each shape we sample random mixed states, evaluate every applicable
inequality, and record violation counts and the worst slack seen.  A clean
run prints one table row per (shape, check) pair and exits 0.  Any violation
leaves a counterexample JSON next to the reports and flips the exit code.

With --negate-control each campaign is also re-run with the slack signs
flipped; that run must trip on essentially every sample, otherwise the
detection path itself is broken and we exit nonzero.

Each shape's campaign cost, wall clock over samples in microseconds per
sample, goes to stderr, so the stdout table and the --deterministic JSONs
stay the same from run to run.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from bloch_lab import (
    Campaign,
    EnsembleSpec,
    applicable_inequalities,
    negation_control,
    run_campaign,
)

# one entry per site shape; every applicable check runs on each
SHAPES = [(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 2, 3), (2, 2, 4)]
# samples of the untimed warm-up campaign
WARM_UP_SAMPLES = 20


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--ensemble", default="hilbert-schmidt")
    ap.add_argument("--out-dir", default="data/verify")
    ap.add_argument("--negate-control", action="store_true",
                    help="also re-run each campaign sign-flipped as a self-test")
    ap.add_argument("--deterministic", action="store_true",
                    help="omit wall-clock timings from the report JSONs")
    args = ap.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    total_violations = 0
    control_failures = 0

    header = f"{'shape':<12} {'check':<20} {'samples':>8} {'viol':>6} {'min slack':>14}"
    print(header)
    print("-" * len(header))

    campaigns = [Campaign(dims=tuple(dims), ensemble=EnsembleSpec(kind=args.ensemble, seed=args.seed),
                          inequalities=("all",), samples=args.samples, out_dir=str(out_dir))
                 for dims in SHAPES]
    # the first campaign in a process pays a one-time warm-up (about 10 ms); an
    # untimed run of a few of the first shape's samples keeps it out of that
    # shape's us/sample, and writes nothing the timed run does not write too
    run_campaign(replace(campaigns[0], samples=min(args.samples, WARM_UP_SAMPLES)))

    for dims, campaign in zip(SHAPES, campaigns):
        report = run_campaign(campaign)
        total_violations += report.total_violations

        tag = "x".join(str(d) for d in dims)
        print(f"{tag:<12} campaign {1e6 * report.wall_clock / report.samples:.1f} us/sample",
              file=sys.stderr)
        for name in applicable_inequalities(dims):
            st = report.stats[name]
            print(f"{tag:<12} {name:<20} {st.samples:>8} {st.violations:>6} "
                  f"{st.min_slack:>14.3e}")

        path = out_dir / f"verify_{tag}.json"
        path.write_text(json.dumps(report.to_jsonable(deterministic=args.deterministic),
                                   indent=2, sort_keys=True) + "\n")

        # --------------------------------------------------------------
        # optional sign-flip self-test: the harness must catch planted
        # violations on essentially every sample
        if args.negate_control:
            control = negation_control(campaign)
            expected = control.samples * len(control.stats)
            tripped = control.total_violations
            ok = control.control_tripped()
            print(f"{tag:<12} {'[negate-control]':<20} {tripped:>8} / {expected} "
                  f"{'ok' if ok else 'FAILED'}")
            if not ok:
                control_failures += 1

    print("-" * len(header))
    if total_violations or control_failures:
        print(f"FAIL: {total_violations} violations, "
              f"{control_failures} control failures (reports in {out_dir})")
        sys.exit(1)
    print(f"all checks clean (reports in {out_dir})")


if __name__ == "__main__":
    main()
