"""Span tracing of the bloch_lab layers, installed from outside the library.

``Tracer.install()`` replaces every public function of the layer modules
with a timing wrapper and ``Tracer.uninstall()`` puts the originals back.
The library imports with ``from .x import y``, so each function is bound in
several module namespaces (``partial_trace`` is called through ``entropy``,
``monotone`` and ``verify``); the wrapper is installed in every
``bloch_lab`` namespace that binds the original.

A span is (name, start, end, parent span, request id).  Spans live in
typed arrays in memory and are written out once, as an ``.npz`` with the
columns ``name`` (index into ``names``), ``start``, ``end``, ``parent``
(-1 for a request's root span) and ``request``.  Wrappers only record
while a request is open, so output checks run between requests stay
untraced.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from pathlib import Path
from time import perf_counter as clock

import numpy as np

LAYERS = ("states", "basis", "correlation", "entropy", "monotone", "verify")
ROOT = "request"
BASIS_BUILDS = ("basis.gellmann_basis", "basis.split_basis")
NORMS = ("correlation.cross_norm_sum", "correlation.tensor_norm_sq",
         "correlation.split_sector_norms")
MONOTONE_CLOSED = "monotone.correlation_monotone[closed]"
MONOTONE_SPLIT = "monotone.correlation_monotone[split]"


class Tracer:
    """Spans and per-request counters of the traced requests, kept in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.request = array("q")
        self._stack: list[int] = []
        self._current = -1
        self.requests = 0
        self.split_restarts = 0
        self._builds: set = set()
        self.distinct_builds = 0
        self._wrappers: dict[int, tuple] = {}
        self._installed: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, t: float) -> int:
        idx = len(self.start)
        self.name.append(-1)
        self.start.append(t)
        self.end.append(t)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self._current)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, t: float) -> None:
        self._stack.pop()
        self.name[idx] = self._name_id(name)
        self.end[idx] = t

    def begin_request(self, request_id: int, t: float) -> None:
        self._current = request_id
        self._builds = set()
        self._open(t)

    def end_request(self, t: float) -> None:
        self._close(self._stack[-1], ROOT, t)
        self._current = -1
        self.requests += 1
        self.distinct_builds += len(self._builds)

    def _wrap(self, name: str, fn):
        tracer = self
        if name == "monotone.correlation_monotone":
            def label(result):
                if result.restarts == 0:
                    return MONOTONE_CLOSED
                tracer.split_restarts += result.restarts
                return MONOTONE_SPLIT
        elif name in BASIS_BUILDS:
            def label(result):
                tracer._builds.add((result.dim, result.cut))
                return name
        else:
            def label(result):
                return name

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._current < 0:
                return fn(*args, **kwargs)
            idx = tracer._open(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(idx, name, clock())
                raise
            tracer._close(idx, label(result), clock())
            return result

        return traced

    def install(self) -> None:
        """Wrap the layers' public functions in every bloch_lab namespace."""
        if not self._wrappers:
            for layer in LAYERS:
                mod = sys.modules[f"bloch_lab.{layer}"]
                for attr, obj in vars(mod).items():
                    if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                            and not attr.startswith("_")):
                        self._wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "bloch_lab" or modname.startswith("bloch_lab.")):
                continue
            for attr, obj in list(vars(mod).items()):
                pair = self._wrappers.get(id(obj))
                if pair is not None and pair[0] is obj:
                    setattr(mod, attr, pair[1])
                    self._installed.append((mod, attr, obj))

    def uninstall(self) -> None:
        """Put back every original function that install() replaced."""
        for mod, attr, obj in self._installed:
            setattr(mod, attr, obj)
        self._installed = []

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "request": np.frombuffer(self.request, dtype=np.int64),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.columns())

    def self_times(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, total self seconds); self = duration minus child spans."""
        cols = self.columns()
        dur = cols["end"] - cols["start"]
        parent = cols["parent"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        calls = np.bincount(cols["name"], minlength=len(self.names))
        total = np.bincount(cols["name"], weights=own, minlength=len(self.names))
        return {n: (int(calls[i]), float(total[i])) for i, n in enumerate(self.names)}

    def request_seconds(self) -> float:
        cols = self.columns()
        roots = cols["parent"] < 0
        return float((cols["end"][roots] - cols["start"][roots]).sum())


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics averaged per traced request: name -> (value, unit)."""
    st = tracer.self_times()
    n = max(tracer.requests, 1)

    def calls(*names):
        return sum(st.get(x, (0, 0.0))[0] for x in names) / n

    def self_ms(*names):
        return 1e3 * sum(st.get(x, (0, 0.0))[1] for x in names) / n

    def layer_names(layer, exclude=()):
        return [x for x in st if x.startswith(layer + ".") and x not in exclude]

    builds = sum(st.get(x, (0, 0.0))[0] for x in BASIS_BUILDS)
    split_ms = self_ms(MONOTONE_SPLIT)
    restarts = tracer.split_restarts / n
    return {
        "request.traced_ms": (1e3 * tracer.request_seconds() / n, "ms"),
        "states.random_state.calls": (calls("states.random_state"), "count"),
        "states.random_state.self_ms": (self_ms("states.random_state"), "ms"),
        "states.from_matrix.self_ms": (self_ms("states.from_matrix"), "ms"),
        "states.partial_trace.calls": (calls("states.partial_trace"), "count"),
        "states.partial_trace.self_ms": (self_ms("states.partial_trace"), "ms"),
        "basis.build.calls": (calls(*BASIS_BUILDS), "count"),
        "basis.build.self_ms": (self_ms(*BASIS_BUILDS), "ms"),
        "basis.build.distinct_frac": (tracer.distinct_builds / builds if builds else 0.0, "frac"),
        "correlation.bloch_coefficients.calls": (calls("correlation.bloch_coefficients"), "count"),
        "correlation.bloch_coefficients.self_ms": (self_ms("correlation.bloch_coefficients"), "ms"),
        "correlation.norms.self_ms": (self_ms(*NORMS), "ms"),
        "entropy.checks.self_ms": (self_ms(*layer_names("entropy")), "ms"),
        "monotone.closed.calls": (calls(MONOTONE_CLOSED), "count"),
        "monotone.closed.self_ms": (self_ms(MONOTONE_CLOSED), "ms"),
        "monotone.split.calls": (calls(MONOTONE_SPLIT), "count"),
        "monotone.split.self_ms": (split_ms, "ms"),
        "monotone.split.restarts": (restarts, "count"),
        "monotone.split.ms_per_restart": (split_ms / restarts if restarts else 0.0, "ms"),
        "monotone.checks.self_ms": (self_ms(*layer_names(
            "monotone", exclude=(MONOTONE_CLOSED, MONOTONE_SPLIT))), "ms"),
        "verify.run_campaign.self_ms": (self_ms("verify.run_campaign"), "ms"),
        "verify.precise_slack.calls": (calls("verify.precise_slack"), "count"),
        "verify.precise_slack.self_ms": (self_ms("verify.precise_slack"), "ms"),
    }


def share_table(tracer: Tracer) -> list[str]:
    """Lines of a table of self time per span name, largest share first."""
    st = tracer.self_times()
    n = max(tracer.requests, 1)
    total = tracer.request_seconds() or 1.0
    lines = [f"{'span':<44} {'calls/req':>10} {'self ms/req':>12} {'share':>7}"]
    for name, (c, s) in sorted(st.items(), key=lambda kv: -kv[1][1]):
        lines.append(f"{name:<44} {c / n:>10.2f} {1e3 * s / n:>12.3f} {s / total:>7.1%}")
    return lines
