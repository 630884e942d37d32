"""Outside-in benchmark of bloch_lab: one workload, one closed-loop client.

    python3 bench/run.py --workload campaign-closed --seed 1 --seconds 55 --trace 0

run from the repository root.  Workloads are defined in workloads.py.

--trace 0 reports the end-to-end metrics: set-up time (median of fresh
interpreters that import bloch_lab and finish one warm-up request, some
started before the measured loop and some after it),
states per busy second, request latency p50/p90 and peak RSS.  Timings are
scaled to a reference host speed measured between requests (hostspeed.py);
the wall-clock values are printed and kept beside them.  --trace 1
sends every request twice, untraced then traced, and reports
per-layer costs averaged per traced request plus the tracing overhead.

Every request's output is checked.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics; the full
result, with the environment it was measured in, goes to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
# Set-up probes run before and after the measured loop, so that their median
# does not rest on one moment of a shared host's load.
SETUP_PROBES_BEFORE, SETUP_PROBES_AFTER = 3, 2
SETUP_SEED = 0  # the warm-up request is the same in every run, whatever --seed is
PROBE_TIMEOUT_S = 60


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "bloch_lab").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _blas_info() -> dict:
    import ctypes
    import glob

    import numpy as np

    info = {"threads_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"] = blas.get("name")
        info["version"] = blas.get("version")
    except (KeyError, TypeError, ValueError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*"))
    for lib in libs:
        try:
            get = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        info["threads"] = int(get())
    return info


def environment() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "git_commit": _git_commit(ROOT),
        "src_sha256": source_digest(ROOT),
    }


def measure_setup(workload: str, repeats: int, host) -> list[tuple[float, float]]:
    """(wall, scaled) seconds for fresh interpreters to import bloch_lab and finish a warm-up request."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(SETUP_SEED), "--probe-setup"]
    times = []
    for _ in range(repeats):
        proc, wall, scaled = host.around(lambda: subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S))
        times.append((wall, scaled))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return times


class Loop:
    """Closed loop with one client; times each request and checks its output.

    With ``host`` set, the host's speed is sampled between requests.
    """

    def __init__(self, wl, seed: int, host=None):
        self.wl = wl
        self.seed = seed
        self.host = host
        self.spans: list[tuple[float, float]] = []
        self.latencies: list[float] = []
        self.states = 0
        self.failed = 0

    def one(self, r: int, tracer=None) -> None:
        inp = self.wl.make_input(self.seed, r)
        ok = False
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.begin_request(r, t0)
        try:
            out = self.wl.request(inp)
        except Exception as exc:  # a failing request is counted, not fatal
            print(f"request {r} raised {exc!r}", file=sys.stderr)
            out = None
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end_request(t1)
        self.spans.append((t0, t1))
        self.latencies.append(t1 - t0)
        if out is not None:
            try:
                ok = bool(self.wl.check(inp, out))
            except Exception as exc:
                print(f"check of request {r} raised {exc!r}", file=sys.stderr)
        if ok:
            self.states += self.wl.states(inp)
        else:
            self.failed += 1
            print(f"request {r} failed its output check", file=sys.stderr)
        if self.host is not None:
            self.host.maybe_sample()

    def send(self, requests) -> None:
        for r in requests:
            self.one(r)


def run_rounds(seconds: float, round_size: int, send_round) -> None:
    """Send whole rounds of requests while the next round should end within ``seconds``.

    At least one round runs; the next round is expected to last as long as
    the last one.
    """
    start = time.perf_counter()
    r = 0
    while True:
        t0 = time.perf_counter()
        send_round(range(r, r + round_size))
        r += round_size
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return


def timing_metrics(latencies_s: list[float], states: int, setup_s: list[float]) -> dict:
    lat_ms = [1e3 * x for x in latencies_s]
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "states_per_s": (states / sum(latencies_s), "1/s"),
        "latency_ms.p50": (statistics.median(lat_ms), "ms"),
        "latency_ms.p90": (statistics.quantiles(lat_ms, n=10, method="inclusive")[8], "ms"),
    }


def end_to_end(loop: Loop, setup_times: list[tuple[float, float]], host) -> tuple[dict, dict, dict]:
    """Metrics scaled to the reference host speed, the same on wall time, and run details."""
    scaled = [host.scaled(t0, t1) for t0, t1 in loop.spans]
    metrics = timing_metrics(scaled, loop.states, [s for _, s in setup_times])
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    wall = timing_metrics(loop.latencies, loop.states, [w for w, _ in setup_times])
    p90 = metrics["latency_ms.p90"][0]
    info = {
        "requests": len(scaled),
        "failed": loop.failed,
        "beyond_p90": sum(1 for x in scaled if 1e3 * x > p90),
        "busy_s": sum(loop.latencies),
        "wall_metrics": {k: {"value": v, "unit": u} for k, (v, u) in wall.items()},
        "host_speed": host.summary(),
        "setup_times_s": setup_times,
        "latencies_ms": [1e3 * x for x in loop.latencies],
        "scaled_latencies_ms": [1e3 * x for x in scaled],
    }
    return metrics, info, wall


def traced(wl, seed: int, seconds: float, spans_path: Path) -> tuple[dict, dict, list[str]]:
    """Send each request untraced, then again with the wrappers installed.

    Alternating request by request keeps both sides of the overhead ratio
    under the same machine conditions.
    """
    import tracing

    plain, replay = Loop(wl, seed), Loop(wl, seed)
    tracer = tracing.Tracer()

    def send_round(requests):
        for r in requests:
            plain.one(r)
            tracer.install()
            try:
                replay.one(r, tracer)
            finally:
                tracer.uninstall()

    run_rounds(seconds, wl.round_size, send_round)
    metrics = tracing.layer_metrics(tracer)
    metrics["trace.overhead_frac"] = (sum(replay.latencies) / sum(plain.latencies) - 1.0, "frac")
    tracer.write(spans_path)
    info = {"requests": len(plain.latencies) + len(replay.latencies),
            "failed": plain.failed + replay.failed, "spans": len(tracer.start),
            "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, info, tracing.share_table(tracer)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "bloch_lab" / "__init__.py").is_file():
        print(f"bloch_lab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bloch_lab

    if Path(bloch_lab.__file__).resolve().parent != (SRC / "bloch_lab").resolve():
        print(f"imported bloch_lab from {bloch_lab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()

    if args.probe_setup:
        inp = wl.make_input(args.seed, 0)
        return 0 if wl.check(inp, wl.request(inp)) else 1

    import hostspeed

    env = environment()
    host = None if args.trace else hostspeed.HostSpeed()
    setup_times = None if args.trace else measure_setup(args.workload, SETUP_PROBES_BEFORE, host)
    Loop(wl, SETUP_SEED).one(0)  # warm-up: lazy imports and first-call costs stay out of timing

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, info, table = traced(wl, args.seed, args.seconds,
                                      OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        wall = {}
    else:
        loop = Loop(wl, args.seed, host)
        run_rounds(args.seconds, wl.round_size, loop.send)
        setup_times += measure_setup(args.workload, SETUP_PROBES_AFTER, host)
        metrics, info, wall = end_to_end(loop, setup_times, host)
        table = [f"# host kernel median {1e3 * info['host_speed']['median_s']:.4g} ms over "
                 f"{info['host_speed']['runs']} runs; timings below are scaled to "
                 f"{1e3 * hostspeed.REF_KERNEL_S:g} ms, wall-clock values follow them"]

    info["failed_frac"] = info["failed"] / info["requests"]
    result = {
        "correct": info["failed"] == 0,
        "attempted": info["requests"],
        "failed": info["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "loop": "closed", "clients": 1, "env": env, "info": info,
         **result}, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"git={env['git_commit']} src={env['src_sha256'][:12]} nproc={env['nproc']} "
          f"python={env['python']} numpy={env['numpy']} blas={env['blas'].get('name')} "
          f"blas_threads={env['blas'].get('threads')}")
    for line in table:
        print(line)
    for name, (value, unit) in metrics.items():
        wall_value = f"{wall[name][0]:>14.6g}" if name in wall else ""
        print(f"{name:<42} {value:>14.6g} {unit:<5} {wall_value}")
    print(f"{'failed_frac':<42} {info['failed_frac']:>14.6g} frac")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
