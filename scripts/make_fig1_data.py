"""Regenerate the environment-bound excess curves.

Writes one CSV per case (worst/best local mass) with a column per local
dimension.  The worst-case d=2 curve starts at 4/3 and every curve hits
exactly 0 at t=1.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from bloch_lab import sweep_fig1
from bloch_lab.io import write_fig1_csv


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="data", help="output directory")
    ap.add_argument("--points", type=int, default=101)
    ap.add_argument("--d-values", default="2,3,4,100")
    ap.add_argument("--deterministic", action="store_true",
                    help="omit the timestamp header")
    args = ap.parse_args()

    d_values = tuple(int(x) for x in args.d_values.split(","))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # both envelope cases on the same t grid
    for case in ("worst", "best"):
        data = sweep_fig1(d_values=d_values, case=case, points=args.points)
        path = out_dir / f"fig1_{case}.csv"
        write_fig1_csv(data, path, deterministic=args.deterministic)
        print(f"wrote {path} [{args.points} points x {len(d_values)} dims]")


if __name__ == "__main__":
    main()
