"""Wire formats: state/basis/tensor JSON, figure CSV/JSON, config files.

States travel as {"dims": [...], "matrix": [[re, im], ...]} with the matrix
flattened row-major; bases as {"dim", "cut", "elements": [{"sector", "k",
"l", "matrix"}]}.  CSV files open with a ``# generated <timestamp>`` line
unless deterministic output is requested.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from datetime import datetime, timezone
from itertools import product
from math import prod
from pathlib import Path

import numpy as np

from .basis import OperatorBasis
from .correlation import (BlochCoefficients, all_subset_norms, purity_from_tensor,
                          split_purity, split_sector_norms)
from .states import DensityMatrix, _check_dims, from_matrix


def _matrix_to_pairs(m: np.ndarray) -> list[list[float]]:
    flat = np.asarray(m, dtype=complex).ravel()
    return [[float(z.real), float(z.imag)] for z in flat]


def _pairs_to_matrix(pairs, d: int, what: str) -> np.ndarray:
    if not isinstance(pairs, list) or len(pairs) != d * d:
        raise ValueError(f"malformed {what}: matrix needs {d * d} [re, im] pairs, "
                         f"got {len(pairs) if isinstance(pairs, list) else type(pairs).__name__}")
    out = np.empty(d * d, dtype=complex)
    for i, p in enumerate(pairs):
        if not (isinstance(p, list) and len(p) == 2
                and all(type(x) in (int, float) for x in p)):  # a JSON true/false is no number
            raise ValueError(f"malformed {what}: matrix entry {i} is not a [re, im] pair")
        out[i] = complex(p[0], p[1])
    return out.reshape(d, d)


def state_to_jsonable(state: DensityMatrix) -> dict:
    return {"dims": list(state.dims), "matrix": _matrix_to_pairs(state.matrix)}


def state_from_jsonable(obj) -> DensityMatrix:
    if not isinstance(obj, dict):
        raise ValueError(f"malformed state: expected an object, got {type(obj).__name__}")
    if "dims" not in obj or "matrix" not in obj:
        missing = [k for k in ("dims", "matrix") if k not in obj]
        raise ValueError(f"malformed state: missing field(s) {', '.join(missing)}")
    try:
        dims = _check_dims(obj["dims"])
    except ValueError as exc:
        raise ValueError(f"malformed state: {exc}") from None
    return from_matrix(_pairs_to_matrix(obj["matrix"], prod(dims), "state"), dims)


def load_state(path: str | Path) -> DensityMatrix:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValueError(f"cannot read state file {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed state file {path}: invalid JSON at line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}") from exc
    return state_from_jsonable(obj)


def save_state(state: DensityMatrix, path: str | Path) -> None:
    Path(path).write_text(json.dumps(state_to_jsonable(state)))


def basis_to_jsonable(basis: OperatorBasis) -> dict:
    return {
        "dim": basis.dim,
        "cut": basis.cut,
        "elements": [
            {"sector": e.sector, "k": e.k, "l": e.l, "matrix": _matrix_to_pairs(e.matrix)}
            for e in basis.elements
        ],
    }


def tensor_to_jsonable(coeffs: BlochCoefficients) -> dict:
    """Subset norms plus purity; sector scalars only when a split site is present."""
    if any(b.is_split for b in coeffs.bases):
        sec = split_sector_norms(coeffs)
        split_site = next(j for j, b in enumerate(coeffs.bases) if b.is_split)
        roles = {"canonical": [1 - split_site], "split": [split_site], "joint": [0, 1]}
        subsets = [{"v": list(v), "sector": sector, "norm_sq": getattr(sec, f"{sector}_{role}")}
                   for sector in ("low", "high") for role, v in roles.items()]
        return {"dims": [b.dim for b in coeffs.bases], "subsets": subsets,
                "c0": sec.c0, "c0p": sec.c0p, "purity": split_purity(coeffs)}
    subsets = [{"v": list(v), "norm_sq": n} for v, n in sorted(all_subset_norms(coeffs).items())]
    return {"dims": [b.dim for b in coeffs.bases], "subsets": subsets,
            "c0": None, "c0p": None, "purity": purity_from_tensor(coeffs)}


def report_to_jsonable(report) -> dict:
    out = asdict(report)
    if not report.extras:
        del out["extras"]
    return out


def monotone_to_jsonable(result) -> dict:
    return {
        "value": result.value,
        "g": result.g,
        "converged": result.converged,
        "restarts": result.restarts,
        "delta": result.delta,
        "heuristic_max": result.heuristic_max,
        "sweeps": result.sweeps,
        "restart_values": list(result.restart_values),
    }


# ---------------------------------------------------------------------------
# figure files


def _header_lines(deterministic: bool) -> list[str]:
    if deterministic:
        return []
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return [f"# generated {stamp}"]


def _cells(values) -> list[str]:
    """CSV cells of an array in row-major order: booleans as 0/1, floats as repr."""
    values = np.asarray(values)
    if values.dtype == bool:
        return [str(int(x)) for x in values.ravel()]
    return [repr(float(x)) for x in values.ravel()]


def _write_grid_csv(path: str | Path, axes: dict, columns: dict, deterministic: bool) -> None:
    """One row per point of the product grid of ``axes`` (the first axis varying
    slowest): the axis values, then each column's value at that point."""
    lines = _header_lines(deterministic)
    lines.append(",".join([*axes, *columns]))
    points = product(*(_cells(axis) for axis in axes.values()))
    for point, *values in zip(points, *(_cells(col) for col in columns.values()),
                              strict=True):
        lines.append(",".join((*point, *values)))
    Path(path).write_text("\n".join(lines) + "\n")


def write_fig1_csv(data, path: str | Path, deterministic: bool = False) -> None:
    _write_grid_csv(path, {"t": data.t},
                    {f"excess_d{d}": data.excess[d] for d in data.d_values}, deterministic)


def fig1_to_jsonable(data) -> dict:
    return {
        "case": data.case,
        "t": [float(x) for x in data.t],
        "excess": {str(d): [float(x) for x in data.excess[d]] for d in data.d_values},
    }


def write_figA_csv(data, path: str | Path, deterministic: bool = False) -> None:
    _write_grid_csv(path, {"s_a": data.s_a, "s_b": data.s_b},
                    {"max_sab_subadd": data.subadd, "max_sab_genpseudo": data.gen_pseudo},
                    deterministic)


def figA_to_jsonable(data) -> dict:
    return {
        "dims": list(data.dims),
        "s_a": [float(x) for x in data.s_a],
        "s_b": [float(x) for x in data.s_b],
        "subadd": [[float(x) for x in row] for row in data.subadd],
        "gen_pseudo": [[float(x) for x in row] for row in data.gen_pseudo],
        "contour": [[a, b] for a, b in data.contour],
        "validation": {"subadd": data.subadd_validation, "gen_pseudo": data.gen_pseudo_validation},
    }


def write_figB_csv(data, path: str | Path, deterministic: bool = False) -> None:
    _write_grid_csv(path, {"s_a": data.s_a, "s_b": data.s_b, "s_c": data.s_c},
                    {"subadd_ok": data.subadd_ok, "genpseudo_ok": data.gen_pseudo_ok},
                    deterministic)


def figB_to_jsonable(data) -> dict:
    return {
        "dims": list(data.dims),
        "s_a": [float(x) for x in data.s_a],
        "s_b": [float(x) for x in data.s_b],
        "s_c": [float(x) for x in data.s_c],
        "subadd_ok": data.subadd_ok.astype(int).tolist(),
        "gen_pseudo_ok": data.gen_pseudo_ok.astype(int).tolist(),
        "counts": {"subadd": data.n_subadd, "both": data.n_both, "removed": data.n_removed},
    }


# ---------------------------------------------------------------------------
# config files


def load_config(path: str | Path) -> dict[str, str]:
    """key=value lines; '#' starts a comment; later keys win."""
    out: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed config {path}: line {lineno} has no '='")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ValueError(f"malformed config {path}: line {lineno} has an empty key")
        out[key] = value.strip()
    return out
