"""Run the benchmark over several seeds and summarize it as one trajectory point.

    python3 bench/collect.py --seeds 1-10 --out bench/baselines/BENCH_1.json

run from the repository root.  For each workload it makes one untraced run
per seed and reports, for every end-to-end metric, the median, the
quartiles (``statistics.quantiles(values, n=4)``) and their distance as a
share of the median, next to the metric's bound in BENCHMARK.json; the
spread of the same timings on the wall clock, before scaling to the
reference host speed, is shown beside it.  With
``--trace-seed`` it adds one traced run per workload for the per-layer
numbers.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 180


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["seed"] = seed
    if not trace:
        result = HERE / "out" / f"result-{workload}-seed{seed}-trace0.json"
        out["wall_metrics"] = json.loads(result.read_text())["info"]["wall_metrics"]
    return out


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, quartiles, and the quartiles' distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def summarize(runs: list[dict], bounds: dict[str, float]) -> dict:
    summary = {}
    for name in runs[0]["metrics"]:
        med, q1, q3, sp = spread([r["metrics"][name]["value"] for r in runs])
        summary[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med, "q1": q1,
                         "q3": q3, "spread": sp, "bound": bounds.get(name)}
        if name in runs[0].get("wall_metrics", {}):
            wall = spread([r["wall_metrics"][name]["value"] for r in runs])
            summary[name]["wall_median"], summary[name]["wall_spread"] = wall[0], wall[3]
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace-seed", type=int, default=None)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    result = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, args.seconds, 0) for s in parse_seeds(args.seeds)]
        entry = {"runs": runs, "summary": summarize(runs, bounds)}
        print(f"== {workload}: {len(runs)} runs, all correct: {all(r['correct'] for r in runs)}")
        for name, s in entry["summary"].items():
            flag = "" if s["bound"] is None or s["spread"] <= s["bound"] / 3 else "  <- above bound/3"
            wall = f"  wall median {s['wall_median']:.6g} spread {s['wall_spread']:.4f}" \
                if "wall_spread" in s else ""
            print(f"   {name:<16} median {s['median']:>12.6g} {s['unit']:<4} "
                  f"spread {s['spread']:.4f} (bound {s['bound']}){flag}{wall}")
        if args.trace_seed is not None:
            entry["trace"] = run_once(workload, args.trace_seed, args.seconds, 1)
        result["workloads"][workload] = entry
        sys.stdout.flush()

    # every run records its environment; the last run's stands for the point
    env_file = HERE / "out" / f"result-{workload}-seed{runs[-1]['seed']}-trace0.json"
    result["env"] = json.loads(env_file.read_text())["env"]
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
