"""Figure data generators: bound sweeps and attainable-region grids.

Everything here emits plain data (arrays, CSV, JSON); plotting is out of
scope.  All sweeps are deterministic closed-form evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .entropy import (_bisection_residual, _marginal_axes, _site_dims, classify_grid,
                      max_sab_genpseudo, max_sab_subadd)
from .errors import NumericError
from .monotone import _UNIT_RANGE
from .states import _check_count, _check_dims

FIG1_CASES = ("worst", "best")
SURFACE_VALIDATION_TOL = 1e-8


@dataclass
class Fig1Data:
    """Excess of the marginal-based bound over the separable ceiling vs t.

    For each local dimension d the environment is taken as d_E = d^2 and
    the local Bloch mass at its worst (0) or best (largest allowed by t)
    value; ``excess[d]`` is d (bound - 1), which is never negative.
    """

    case: str
    d_values: tuple[int, ...]
    t: np.ndarray
    excess: dict[int, np.ndarray]


def sweep_fig1(d_values=(2, 3, 4, 100), case: str = "worst", points: int = 101) -> Fig1Data:
    if case not in FIG1_CASES:
        raise ValueError(f"invalid case {case!r}: choose from {FIG1_CASES}")
    d_values = _check_dims(d_values, 2)
    t = np.linspace(0.0, 1.0, _check_count("points", points, 2))
    excess: dict[int, np.ndarray] = {}
    for d in d_values:
        g = _UNIT_RANGE.resolve(d, d)
        room = g * (1.0 - t)
        local = np.zeros_like(t) if case == "worst" else np.minimum(2.0 * d - 2.0, room)
        # bound = (d^4 - 1 - 2 local - 2 g t) / (g (d_E - 1)) with d_E - 1 = g, so
        # d (bound - 1) = 2 d (g (1 - t) - local) / g^2, and local <= g (1 - t)
        excess[d] = 2.0 * d * (room - local) / (g * g)
    return Fig1Data(case=case, d_values=d_values, t=t, excess=excess)


@dataclass
class FigAData:
    """Attainable joint linear entropy over the marginal-entropy square.

    Two surfaces of max S(AB) over (S(A), S(B)): the subadditivity cap and
    the correlated (gen-pseudo) cap, plus their strict-crossing contour and
    the root-finding validation residual of each closed form.
    """

    dims: tuple[int, int]
    s_a: np.ndarray
    s_b: np.ndarray
    subadd: np.ndarray
    gen_pseudo: np.ndarray
    contour: list[tuple[float, float]]
    subadd_validation: float
    gen_pseudo_validation: float


def sweep_figA(dims=(2, 2), resolution: int = 101) -> FigAData:
    dims = _site_dims(dims, 2)
    s_a, s_b = _marginal_axes(dims, resolution)
    SA, SB = np.meshgrid(s_a, s_b, indexing="ij")
    subadd = max_sab_subadd(SA, SB, dims)
    gen_pseudo = max_sab_genpseudo(SA, SB, dims)

    m = dims[0] * dims[1]
    dev_sub = _bisection_residual("subadd", SA, SB, subadd, m)
    dev_gen = _bisection_residual("gen-pseudo", SA, SB, gen_pseudo, m)
    if max(dev_sub, dev_gen) > SURFACE_VALIDATION_TOL:
        raise NumericError(f"surface closed forms deviate from root finding by "
                           f"{max(dev_sub, dev_gen):.3e}")

    diff = subadd - gen_pseudo
    contour: list[tuple[float, float]] = []
    for i in range(resolution):
        for j in range(resolution - 1):
            f0, f1 = diff[i, j], diff[i, j + 1]
            if f0 * f1 < 0.0:
                w = f0 / (f0 - f1)
                contour.append((float(s_a[i]), float(s_b[j] + w * (s_b[j + 1] - s_b[j]))))
    for j in range(resolution):
        for i in range(resolution - 1):
            f0, f1 = diff[i, j], diff[i + 1, j]
            if f0 * f1 < 0.0:
                w = f0 / (f0 - f1)
                contour.append((float(s_a[i] + w * (s_a[i + 1] - s_a[i])), float(s_b[j])))
    return FigAData(dims=dims, s_a=s_a, s_b=s_b, subadd=subadd, gen_pseudo=gen_pseudo,
                    contour=contour, subadd_validation=dev_sub, gen_pseudo_validation=dev_gen)


@dataclass
class FigBData:
    """Admissibility of marginal entropy triples under the pure-global convention.

    ``subadd_ok``/``gen_pseudo_ok`` are boolean grids over the (sA, sB, sC)
    product grid; ``removed`` counts points that pass subadditivity but
    fail the correlated bounds.
    """

    dims: tuple[int, int, int]
    s_a: np.ndarray
    s_b: np.ndarray
    s_c: np.ndarray
    subadd_ok: np.ndarray
    gen_pseudo_ok: np.ndarray
    n_subadd: int = field(default=0)
    n_both: int = field(default=0)
    n_removed: int = field(default=0)


def sweep_figB(dims=(2, 2, 2), resolution: int = 21) -> FigBData:
    dims = _site_dims(dims, 3)
    s_a, s_b, s_c = _marginal_axes(dims, resolution)
    SA, SB, SC = np.meshgrid(s_a, s_b, s_c, indexing="ij")
    subadd_ok, genp_ok = classify_grid(SA, SB, SC, dims)
    n_subadd = int(subadd_ok.sum())
    n_both = int((subadd_ok & genp_ok).sum())
    return FigBData(dims=dims, s_a=s_a, s_b=s_b, s_c=s_c,
                    subadd_ok=subadd_ok, gen_pseudo_ok=genp_ok,
                    n_subadd=n_subadd, n_both=n_both, n_removed=n_subadd - n_both)
