"""Host speed, measured with a fixed numpy kernel that never calls bloch_lab.

On a shared host the same deterministic code runs at different speeds from
one minute to the next: on a 2-core host one monotone call took 120 ms in one
20-second stretch and 260 ms in the next, and whole 55-second runs of
campaign-closed read 960 or 1370 states/s with no other benchmark process running.
No run length that fits the benchmark's time budget averages that out.

So the benchmark times a fixed kernel between requests and reports every
timing scaled to a reference host speed:

    scaled = wall * REF_KERNEL_S / (median kernel time within WINDOW_S of the timing)

that is, the time the host would have taken had the kernel run in exactly
REF_KERNEL_S.  The kernel does the kind of work bloch_lab does (small complex
matrix products, Hermitian eigendecompositions, tensor contractions and the
Python around them) on fixed inputs, so a change to bloch_lab leaves it
alone; the raw wall times stay in the result file next to the scaled ones.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter as clock

import numpy as np

REF_KERNEL_S = 2e-3  # about the kernel's time on a quiet 2-core x86-64 host, so scaled ~ wall there
INTERVAL_S = 0.1  # at most one kernel run per this many seconds of requests
WINDOW_S = 1.0
WARMUP_RUNS = 20
AROUND_PROBE = 5  # kernel runs right before and right after an out-of-loop timing

_rng = np.random.default_rng(1710)
_MATS = [_rng.standard_normal((d, d)) + 1j * _rng.standard_normal((d, d)) for d in (4, 6, 8)]


def kernel() -> float:
    s = 0.0
    for _ in range(6):
        for a in _MATS:
            h = a @ a.conj().T
            _, v = np.linalg.eigh(h)
            s += float(np.einsum("ij,ji->", v, h).real) + float(np.kron(a, a[:2, :2]).real.sum())
    for i in range(40):
        a = _MATS[i % 3]
        head = a.reshape(-1)[:8].copy()
        s += sum(abs(x) for x in {j: head[j] for j in range(8)}.values())
        s += float(np.trace(a @ a).real)
        s += float(np.abs(np.tensordot(a, a.conj(), axes=([1], [1]))).sum())
    return s


class HostSpeed:
    """Kernel timings taken through a run, and timings scaled by them."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.kernel_s: list[float] = []
        for _ in range(WARMUP_RUNS):
            kernel()
        self._last = -float("inf")

    def sample(self) -> None:
        t0 = clock()
        kernel()
        t1 = clock()
        self.at.append(0.5 * (t0 + t1))
        self.kernel_s.append(t1 - t0)
        self._last = t1

    def maybe_sample(self) -> None:
        if clock() - self._last >= INTERVAL_S:
            self.sample()

    def around(self, fn):
        """Run ``fn()`` between kernel runs; return its result, wall time and scaled time."""
        for _ in range(AROUND_PROBE):
            self.sample()
        t0 = clock()
        out = fn()
        t1 = clock()
        for _ in range(AROUND_PROBE):
            self.sample()
        return out, t1 - t0, self.scaled(t0, t1)

    def scaled(self, t0: float, t1: float) -> float:
        """Wall time t1 - t0 scaled to the reference speed, by the kernel runs near it."""
        lo = bisect.bisect_left(self.at, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + WINDOW_S)
        if lo == hi:  # nothing within the window: take the nearest runs
            lo, hi = max(0, lo - 1), min(len(self.at), hi + 1)
        return (t1 - t0) * REF_KERNEL_S / statistics.median(self.kernel_s[lo:hi])

    def summary(self) -> dict:
        return {"ref_kernel_s": REF_KERNEL_S, "runs": len(self.kernel_s),
                "median_s": statistics.median(self.kernel_s),
                "min_s": min(self.kernel_s), "max_s": max(self.kernel_s)}
