"""Regenerate reference.json: seed-commit monotone values of the mixed oneshot pool.

    python3 bench/make_reference.py

run from the repository root, on the commit whose values the benchmark
should hold later commits to.  Every pool state of every mixed oneshot
shape gets ``correlation_monotone(state, ((0,), (1,)), config=OptimizerConfig())``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bloch_lab as bl  # noqa: E402

import workloads  # noqa: E402
from run import source_digest  # noqa: E402


def main() -> int:
    shapes = sorted({dims for kind, dims in workloads.OneshotWorkload.CYCLE if kind == "mixed"})
    values = {}
    for dims in shapes:
        vals = []
        for k in range(workloads.POOL_SIZE):
            state = workloads.OneshotWorkload.pool_state("mixed", dims, k)
            vals.append(bl.correlation_monotone(state, ((0,), (1,)),
                                                config=bl.OptimizerConfig()).value)
        values[workloads.reference_key(dims)] = vals
        print(f"{dims}: {len(vals)} values", file=sys.stderr)
    payload = {
        "command": "python3 bench/make_reference.py",
        "src_sha256": source_digest(ROOT),
        "pool_seed": workloads.POOL_SEED,
        "pool_size": workloads.POOL_SIZE,
        "values": values,
    }
    workloads.REFERENCE_FILE.write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
