"""Linear, Tsallis and Renyi entropies with dimension-weighted inequalities.

Conventions: tsallis(rho, q) = (1 - Tr rho^q)/(q - 1), whose q -> 1 limit
is the von Neumann entropy in nats; renyi(rho, alpha) =
log2(Tr rho^alpha)/(1 - alpha), so Tr rho^2 = 2^(-S_2) and the alpha -> 1
limit is the von Neumann entropy in bits.  linear_entropy = tsallis at
q = 2 = 1 - Tr rho^2.

Multi-site checks group sites: check_dim_ssa uses A = site 1, B = site 2,
C = everything else; the bipartite checks use A = site 1 versus the rest.
Linear entropies of marginals come from the memoized marginal-purity
table in correlation.py, so every check at q = 2 is a formula over
marginal purities.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .reports import InequalityReport, report_from_sides
from .states import DensityMatrix, _marginal_purity, partial_trace

EIG_CLIP_TOL = 1e-9
RANGE_TOL = 1e-12


def _eigvals_clipped(state: DensityMatrix) -> np.ndarray:
    w = np.linalg.eigvalsh(state.matrix)
    if float(w.min()) < -EIG_CLIP_TOL:
        raise ValueError(f"invalid state: eigenvalue {w.min():.3e} below -{EIG_CLIP_TOL:g}")
    return np.clip(w, 0.0, None)


def _von_neumann_nats(state: DensityMatrix) -> float:
    w = _eigvals_clipped(state)
    w = w[w > 0.0]
    return float(-(w * np.log(w)).sum())


def _trace_power(state: DensityMatrix, q: float) -> float:
    if q == 2.0:
        return state.purity()
    if float(q).is_integer() and q >= 1:
        return float(np.trace(np.linalg.matrix_power(state.matrix, int(q))).real)
    w = _eigvals_clipped(state)
    w = w[w > 0.0]
    return float((w ** q).sum())


def linear_entropy(state: DensityMatrix) -> float:
    """1 - Tr(rho^2)."""
    return 1.0 - state.purity()


def tsallis(state: DensityMatrix, q: float) -> float:
    """(1 - Tr rho^q)/(q - 1); q = 1 returns the von Neumann entropy in nats."""
    q = float(q)
    if not q > 0.0:
        raise ValueError(f"invalid parameter q={q!r}: need q > 0")
    if q == 1.0:
        return _von_neumann_nats(state)
    return (1.0 - _trace_power(state, q)) / (q - 1.0)


def renyi(state: DensityMatrix, alpha: float) -> float:
    """log2(Tr rho^alpha)/(1 - alpha); alpha = 1 returns von Neumann in bits."""
    alpha = float(alpha)
    if not alpha > 0.0:
        raise ValueError(f"invalid parameter alpha={alpha!r}: need alpha > 0")
    if alpha == 1.0:
        return _von_neumann_nats(state) / np.log(2.0)
    return float(np.log2(_trace_power(state, alpha)) / (1.0 - alpha))


@dataclass
class EntropyVector:
    """Linear entropies of every non-empty marginal, keyed by site subset."""

    dims: tuple[int, ...]
    values: dict[tuple[int, ...], float]


def entropy_vector(state: DensityMatrix) -> EntropyVector:
    n = state.n_sites
    values: dict[tuple[int, ...], float] = {}
    for r in range(1, n + 1):
        for v in combinations(range(n), r):
            values[v] = _sl(state, v)
    return EntropyVector(dims=state.dims, values=values)


def _sl(state: DensityMatrix, keep=None) -> float:
    """Linear entropy of the marginal on ``keep`` (default: the whole state)."""
    return 1.0 - _marginal_purity(state, range(state.n_sites) if keep is None else keep)


def check_dim_ssa(state: DensityMatrix) -> InequalityReport:
    """Dimension-weighted strong-subadditivity form of the linear entropy.

    S(ABC) + S(C)/(dA dB) <= S(AC)/dB + S(BC)/dA + (dA dB + 1 - dA - dB)/(dA dB)
    with A = site 1, B = site 2, C = the rest.  Tight at maximal mixedness.
    """
    if state.n_sites < 3:
        raise ValueError(f"unsupported shape: need at least 3 sites, got {state.n_sites}")
    da, db = state.dims[0], state.dims[1]
    c_sites = tuple(range(2, state.n_sites))
    const = (da * db + 1 - da - db) / (da * db)
    lhs = _sl(state) + _sl(state, c_sites) / (da * db)
    rhs = _sl(state, (0,) + c_sites) / db + _sl(state, (1,) + c_sites) / da + const
    return report_from_sides("dim-ssa", lhs, rhs, extras={"constant": const})


def dim_ssa_vs_subadd(state: DensityMatrix) -> InequalityReport:
    """Is the dimension-weighted bound on S(ABC) sharper than padded subadditivity?

    Sharper exactly when (1 - 1/dB) S(AC) + S(B) - S(BC)/dA + S(C)/(dA dB)
    exceeds the constant (dA dB + 1 - dA - dB)/(dA dB); the report's slack
    is that margin (negative means padded subadditivity wins there).
    """
    if state.n_sites < 3:
        raise ValueError(f"unsupported shape: need at least 3 sites, got {state.n_sites}")
    da, db = state.dims[0], state.dims[1]
    c_sites = tuple(range(2, state.n_sites))
    const = (da * db + 1 - da - db) / (da * db)
    comparison = ((1.0 - 1.0 / db) * _sl(state, (0,) + c_sites) + _sl(state, (1,))
                  - _sl(state, (1,) + c_sites) / da + _sl(state, c_sites) / (da * db))
    return report_from_sides("dim-ssa-vs-subadd", const, comparison,
                             extras={"comparison": comparison, "constant": const})


def check_subadditivity(state: DensityMatrix, q: float = 2.0) -> InequalityReport:
    """S_q(A) + S_q(B) >= S_q(AB) for q >= 1, with A = site 1, B = the rest."""
    if state.n_sites < 2:
        raise ValueError(f"unsupported shape: need at least 2 sites, got {state.n_sites}")
    q = float(q)
    if q < 1.0:
        raise ValueError(f"invalid parameter q={q!r}: subadditivity needs q >= 1")

    def s_q(keep):
        return _sl(state, keep) if q == 2.0 else tsallis(partial_trace(state, keep), q)

    lhs = s_q(range(state.n_sites))
    rhs = s_q((0,)) + s_q(range(1, state.n_sites))
    return report_from_sides("subadd", lhs, rhs, extras={"q": q})


def _genpseudo_floor(s_ab, m: int):
    """1 - (m/4)(1 - S(AB) + 1/m)^2, the bound on the gen-pseudo side; m = dA dB."""
    return 1.0 - (m / 4.0) * (1.0 - s_ab + 1.0 / m) ** 2


def _genpseudo_side(s_a, s_b):
    """S(A) + S(B) - S(A) S(B), the side of gen-pseudo additivity bounded below."""
    return s_a + s_b - s_a * s_b


def check_gen_pseudo_additivity(state: DensityMatrix) -> InequalityReport:
    """Correlated lower bound on S(A) + S(B) - S(A) S(B) from S(AB).

    1 - (dA dB / 4)(1 - S(AB) + 1/(dA dB))^2 <= S(A) + S(B) - S(A) S(B),
    tight at maximal mixedness; A = site 1, B = the rest.
    """
    if state.n_sites < 2:
        raise ValueError(f"unsupported shape: need at least 2 sites, got {state.n_sites}")
    s_ab = _sl(state)
    s_a = _sl(state, (0,))
    s_b = _sl(state, range(1, state.n_sites))
    return report_from_sides("gen-pseudo", _genpseudo_floor(s_ab, state.dim),
                             _genpseudo_side(s_a, s_b),
                             extras={"s_ab": s_ab, "s_a": s_a, "s_b": s_b})


def pseudo_additivity_residual(state_a: DensityMatrix, state_b: DensityMatrix, q: float) -> float:
    """S_q(A x B) - S_q(A) - S_q(B) - (1-q) S_q(A) S_q(B); identically 0 up to float."""
    from .states import tensor

    q = float(q)
    if not q > 0.0 or q == 1.0:
        raise ValueError(f"invalid parameter q={q!r}: need q > 0, q != 1")
    sa = tsallis(state_a, q)
    sb = tsallis(state_b, q)
    joint = tsallis(tensor(state_a, state_b), q)
    return float(joint - sa - sb - (1.0 - q) * sa * sb)


# ---------------------------------------------------------------------------
# attainable-region surfaces over marginal entropies


def _check_marginal_range(s, d: int, name: str) -> None:
    if not np.all((-RANGE_TOL <= s) & (s <= 1.0 - 1.0 / d + RANGE_TOL)):
        raise ValueError(f"out-of-range marginal {name}={s!r}: need 0 <= {name} <= 1 - 1/{d}")


def _cap_result(value):
    return float(value) if np.ndim(value) == 0 else value


def max_sab_subadd(s_a, s_b, dims):
    """Largest S(AB) allowed by q = 2 subadditivity: min(sA + sB, physical cap).

    Takes scalars (returns a float) or broadcastable arrays (returns an array).
    """
    da, db = (int(d) for d in dims)
    _check_marginal_range(s_a, da, "s_a")
    _check_marginal_range(s_b, db, "s_b")
    m = da * db
    return _cap_result(np.minimum(s_a + s_b, 1.0 - 1.0 / m))


def max_sab_genpseudo(s_a, s_b, dims):
    """Largest S(AB) allowed by the correlated lower bound.

    1 + 1/m - 2 sqrt((1-sA)(1-sB)/m) capped at the physical maximum
    1 - 1/m, with m = dA dB.  Takes scalars (returns a float) or
    broadcastable arrays (returns an array).
    """
    da, db = (int(d) for d in dims)
    _check_marginal_range(s_a, da, "s_a")
    _check_marginal_range(s_b, db, "s_b")
    m = da * db
    root = 1.0 + 1.0 / m - 2.0 * np.sqrt((1.0 - s_a) * (1.0 - s_b) / m)
    return _cap_result(np.minimum(root, 1.0 - 1.0 / m))


_SURFACES = {"subadd": max_sab_subadd, "gen-pseudo": max_sab_genpseudo}


def validate_surface(kind: str, dims, resolution: int = 101) -> float:
    """Max |closed form - bisection root| of the surface over a marginal grid.

    The closed forms above are only trusted once this agrees to tolerance;
    the acceptance suite runs it at resolution 101.
    """
    da, db = (int(d) for d in dims)
    if resolution < 2:
        raise ValueError(f"invalid resolution {resolution}: need >= 2")
    if kind not in _SURFACES:
        raise ValueError(f"unknown surface kind {kind!r}")
    sa = np.linspace(0.0, 1.0 - 1.0 / da, resolution)
    sb = np.linspace(0.0, 1.0 - 1.0 / db, resolution)
    SA, SB = np.meshgrid(sa, sb, indexing="ij")
    return _bisection_residual(kind, SA, SB, _SURFACES[kind](SA, SB, (da, db)), da * db)


def _bisection_residual(kind: str, SA: np.ndarray, SB: np.ndarray, closed: np.ndarray,
                        m: int) -> float:
    """Max |closed - root| with the root of the ``kind`` slack found by bisection.

    ``closed`` is the closed-form surface on the marginal grid (SA, SB) of a
    pair with d_A d_B = m.
    """
    if kind == "subadd":
        def slack(S):
            return SA + SB - S
    else:
        def slack(S):
            return _genpseudo_side(SA, SB) - _genpseudo_floor(S, m)

    # slack is decreasing in S on [0, cap]; bisect for its root, capping
    # where the inequality still holds at the physical maximum
    cap = 1.0 - 1.0 / m
    lo = np.zeros_like(SA)
    hi = np.full_like(SA, cap)
    hold_at_cap = slack(hi) >= 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        ok = slack(mid) >= 0.0
        lo = np.where(ok, mid, lo)
        hi = np.where(ok, hi, mid)
    root = np.where(hold_at_cap, cap, 0.5 * (lo + hi))
    return float(np.abs(root - closed).max())


@dataclass(frozen=True)
class TripleVerdict:
    """Which constraint families admit a marginal entropy triple."""

    subadd: bool
    gen_pseudo: bool


def classify_grid(s_a, s_b, s_c, dims):
    """Vectorized classification of triples under the globally-pure convention.

    The joint entropy of each pair is identified with the entropy of the
    complementary site (S(AB) = S(C) and cyclic); returns boolean arrays
    (subadd_ok, gen_pseudo_ok) broadcast over the inputs.
    """
    da, db, dc = (int(d) for d in dims)
    s_a, s_b, s_c = np.asarray(s_a, float), np.asarray(s_b, float), np.asarray(s_c, float)
    tol = RANGE_TOL
    subadd = ((s_c <= s_a + s_b + tol)
              & (s_a <= s_b + s_c + tol)
              & (s_b <= s_a + s_c + tol))

    def pair_ok(dx, dy, sx, sy, sz):
        return _genpseudo_floor(sz, dx * dy) <= _genpseudo_side(sx, sy) + tol

    genp = (pair_ok(da, db, s_a, s_b, s_c)
            & pair_ok(db, dc, s_b, s_c, s_a)
            & pair_ok(da, dc, s_a, s_c, s_b))
    return subadd, genp


def classify_triple(s_a: float, s_b: float, s_c: float, dims) -> TripleVerdict:
    """Scalar wrapper over classify_grid with marginal-range validation."""
    da, db, dc = (int(d) for d in dims)
    _check_marginal_range(s_a, da, "s_a")
    _check_marginal_range(s_b, db, "s_b")
    _check_marginal_range(s_c, dc, "s_c")
    subadd, genp = classify_grid(s_a, s_b, s_c, dims)
    return TripleVerdict(subadd=bool(subadd), gen_pseudo=bool(genp))
