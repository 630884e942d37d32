"""Regenerate the figure data: each file is one ``bloch-lab sweep`` call.

Writes the Fig. 1 excess curves (worst and best local mass), the Fig. A
attainability surfaces (CSV, and JSON with the crossing contour, which has
no CSV column) and the Fig. B admissible-triple masks on three qubits and
with a tall third site.  Other settings go through ``bloch-lab sweep``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from bloch_lab.cli import main as bloch_lab

# file -> the sweep arguments that write it
FILES = {
    "fig1_worst.csv": ("--figure", "fig1", "--case", "worst"),
    "fig1_best.csv": ("--figure", "fig1", "--case", "best"),
    "figA_surfaces.csv": ("--figure", "figA"),
    "figA_surfaces.json": ("--figure", "figA", "--format", "json"),
    "figB_triples_2x2x2.csv": ("--figure", "figB", "--dims", "2,2,2"),
    "figB_triples_2x2x100.csv": ("--figure", "figB", "--dims", "2,2,100"),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="data", help="output directory")
    ap.add_argument("--deterministic", action="store_true", help="omit the timestamp header")
    args = ap.parse_args(argv)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    flags = ["--deterministic"] if args.deterministic else []
    for name, sweep in FILES.items():
        code = bloch_lab(["sweep", *sweep, *flags, "--out", str(out_dir / name)])
        if code:
            return code
        print(f"wrote {out_dir / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
