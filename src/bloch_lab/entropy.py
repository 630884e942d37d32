"""Linear, Tsallis and Renyi entropies with dimension-weighted inequalities.

Conventions: tsallis(rho, q) = (1 - Tr rho^q)/(q - 1), whose q -> 1 limit
is the von Neumann entropy in nats; renyi(rho, alpha) =
log2(Tr rho^alpha)/(1 - alpha), so Tr rho^2 = 2^(-S_2) and the alpha -> 1
limit is the von Neumann entropy in bits.  linear_entropy = tsallis at
q = 2 = 1 - Tr rho^2.

Multi-site checks group sites: check_dim_ssa uses A = site 1, B = site 2,
C = everything else; the bipartite checks use A = site 1 versus the rest.
Every entropy of the state or a marginal comes from ``_entropy``: at q = 2
from the memoized marginal-purity table in states.py, and otherwise from its
spectrum.  dim-ssa and gen-pseudo are linear entropies only, so they read
that table (``state._marginal_purities``) as formulas over marginal purities.
Each campaign check is a private formula (``_dim_ssa``, ``_subadd``,
``_gen_pseudo``) that returns (slack, lhs, rhs, *named values) and runs no
input rule; its public check applies the rules and reports that tuple, and
so does dim_ssa_vs_subadd with ``_dim_ssa_vs_subadd``.  Like the monotone's
formulas they keep small integers as ints and take every other constant from
the table (``P.ratio``), so they return the table's numbers: floats on a
state's table, Fractions on an exact one, arrays on a stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import prod

import numpy as np

from .reports import InequalityReport, _report, _require_applicable
from .states import (DensityMatrix, _check_count, _check_dims, _check_real, _marginal_spectrum, _PurityTable,
                     tensor)

RANGE_TOL = 1e-12


def _entropy(state: DensityMatrix, q: float, keep: tuple[int, ...] | None = None,
             renyi: bool = False) -> float:
    """S_q of the marginal on the sorted sites ``keep`` (default: the whole state): Tsallis in
    nats, or Renyi in bits.

    q = 2 reads the purity table, so its Tsallis value, 1 - P, is a number of the table's type
    (a float on a state's table); any other q, the spectrum w through t = Tr rho^q - 1 =
    sum w expm1((q-1) ln w), exact near q = 1.  Renyi's ln Tr rho^q is log1p(t) while
    Tr rho^q > 1/2, else the log-sum shifted by lambda_max, which cannot underflow.
    An entropy of exactly 0 is returned as +0.0 on every branch."""
    keep = tuple(range(state.n_sites)) if keep is None else keep
    # "+ 0.0" turns the -0.0 that negating or dividing an exact 0 can give into 0.0,
    # and leaves every other value as it is
    if q == 2.0:
        p = state._marginal_purities[keep]
        return float(np.log2(p) / (1.0 - q)) + 0.0 if renyi else 1 - p
    w = _marginal_spectrum(state, keep)
    if q == 1.0:
        h = float(-(w * np.log(w)).sum()) + 0.0
        return float(h / np.log(2.0)) if renyi else h
    t = float((w * np.expm1((q - 1.0) * np.log(w))).sum())
    if not renyi:
        return -t / (q - 1.0) + 0.0
    ln_tr = np.log1p(t) if t > -0.5 else q * np.log(w[-1]) + np.log(((w / w[-1]) ** q).sum())
    return float(ln_tr / ((1.0 - q) * np.log(2.0))) + 0.0


def linear_entropy(state: DensityMatrix) -> float:
    """1 - Tr(rho^2)."""
    return _entropy(state, 2.0)


def tsallis(state: DensityMatrix, q: float) -> float:
    """(1 - Tr rho^q)/(q - 1); q = 1 returns the von Neumann entropy in nats."""
    return _entropy(state, _check_real("q", q, above=0.0))


def renyi(state: DensityMatrix, alpha: float) -> float:
    """log2(Tr rho^alpha)/(1 - alpha); alpha = 1 returns von Neumann in bits."""
    return _entropy(state, _check_real("alpha", alpha, above=0.0), renyi=True)


@dataclass
class EntropyVector:
    """Linear entropies of every non-empty marginal, keyed by site subset."""

    dims: tuple[int, ...]
    values: dict[tuple[int, ...], float]


def entropy_vector(state: DensityMatrix) -> EntropyVector:
    n = state.n_sites
    subsets = (v for r in range(1, n + 1) for v in combinations(range(n), r))
    return EntropyVector(dims=state.dims, values={v: _entropy(state, 2.0, v) for v in subsets})


def _abc(state: DensityMatrix):
    """(the purity table P, dA, dB, C's sites, (dA dB + 1 - dA - dB)/(dA dB) in P's numbers) of
    dim-ssa's A|B|C grouping."""
    P, da, db = state._marginal_purities, state.dims[0], state.dims[1]
    return P, da, db, tuple(range(2, state.n_sites)), P.ratio(da * db + 1 - da - db, da * db)


def _dim_ssa(state: DensityMatrix) -> tuple:
    """(slack, lhs, rhs, constant) of dim-ssa on a state of three or more sites."""
    P, da, db, c_sites, const = _abc(state)
    lhs = (1 - P[(0, 1) + c_sites]) + (1 - P[c_sites]) / (da * db)
    rhs = (1 - P[(0,) + c_sites]) / db + (1 - P[(1,) + c_sites]) / da + const
    return rhs - lhs, lhs, rhs, const


def check_dim_ssa(state: DensityMatrix) -> InequalityReport:
    """Dimension-weighted strong-subadditivity form of the linear entropy.

    S(ABC) + S(C)/(dA dB) <= S(AC)/dB + S(BC)/dA + (dA dB + 1 - dA - dB)/(dA dB)
    with A = site 1, B = site 2, C = the rest.  Tight at maximal mixedness.
    """
    _require_applicable("dim-ssa", state.dims)
    return _report("dim-ssa", _dim_ssa(state), "constant")


def dim_ssa_vs_subadd(state: DensityMatrix) -> InequalityReport:
    """Is the dimension-weighted bound on S(ABC) sharper than padded subadditivity?

    Sharper exactly when (1 - 1/dB) S(AC) + S(B) - S(BC)/dA + S(C)/(dA dB)
    exceeds the constant (dA dB + 1 - dA - dB)/(dA dB); the report's slack
    is that margin (negative means padded subadditivity wins there).
    """
    _require_applicable("dim-ssa-vs-subadd", state.dims, rule="dim-ssa")
    return _report("dim-ssa-vs-subadd", _dim_ssa_vs_subadd(state), "comparison", "constant")


def _dim_ssa_vs_subadd(state: DensityMatrix) -> tuple:
    """(slack, lhs, rhs, comparison, constant) of dim_ssa_vs_subadd: lhs is the constant, rhs the
    comparison, on a state of three or more sites."""
    P, da, db, c_sites, const = _abc(state)
    comparison = ((1 - P.ratio(1, db)) * (1 - P[(0,) + c_sites]) + (1 - P[(1,)])
                  - (1 - P[(1,) + c_sites]) / da + (1 - P[c_sites]) / (da * db))
    return comparison - const, const, comparison, comparison, const


def _subadd(state: DensityMatrix, q: float = 2.0) -> tuple:
    """(slack, lhs, rhs, q) of subadd at a checked q on a state of two or more sites."""
    rest = tuple(range(1, state.n_sites))
    lhs, rhs = _entropy(state, q), _entropy(state, q, (0,)) + _entropy(state, q, rest)
    return rhs - lhs, lhs, rhs, q


def check_subadditivity(state: DensityMatrix, q: float = 2.0) -> InequalityReport:
    """S_q(A) + S_q(B) >= S_q(AB) for q >= 1, with A = site 1, B = the rest."""
    _require_applicable("subadd", state.dims)
    return _report("subadd", _subadd(state, _check_real("q", q, least=1.0)), "q")


def _genpseudo_floor(P, s_ab, m: int):
    """1 - (m/4)(1 - S(AB) + 1/m)^2, the bound on the gen-pseudo side; m = dA dB, constants in the
    numbers of the table P."""
    return 1 - P.ratio(m, 4) * (1 - s_ab + P.ratio(1, m)) ** 2


def _genpseudo_side(s_a, s_b):
    """S(A) + S(B) - S(A) S(B), the side of gen-pseudo additivity bounded below."""
    return s_a + s_b - s_a * s_b


def _gen_pseudo(state: DensityMatrix) -> tuple:
    """(slack, lhs, rhs, s_ab, s_a, s_b) of gen-pseudo on a state of two or more sites."""
    P = state._marginal_purities
    n = state.n_sites
    s_ab, s_a, s_b = 1 - P[tuple(range(n))], 1 - P[(0,)], 1 - P[tuple(range(1, n))]
    lhs, rhs = _genpseudo_floor(P, s_ab, state.dim), _genpseudo_side(s_a, s_b)
    return rhs - lhs, lhs, rhs, s_ab, s_a, s_b


def check_gen_pseudo_additivity(state: DensityMatrix) -> InequalityReport:
    """Correlated lower bound on S(A) + S(B) - S(A) S(B) from S(AB).

    1 - (dA dB / 4)(1 - S(AB) + 1/(dA dB))^2 <= S(A) + S(B) - S(A) S(B),
    tight at maximal mixedness; A = site 1, B = the rest.
    """
    _require_applicable("gen-pseudo", state.dims)
    return _report("gen-pseudo", _gen_pseudo(state), "s_ab", "s_a", "s_b")


def pseudo_additivity_residual(state_a: DensityMatrix, state_b: DensityMatrix, q: float) -> float:
    """S_q(A x B) - S_q(A) - S_q(B) - (1-q) S_q(A) S_q(B); identically 0 up to float."""
    q = _check_real("q", q, above=0.0)
    if q == 1.0:
        raise ValueError("invalid q 1.0: pseudo-additivity needs q != 1")
    sa, sb, joint = (_entropy(s, q) for s in (state_a, state_b, tensor(state_a, state_b)))
    return float(joint - sa - sb - (1.0 - q) * sa * sb)


# ---------------------------------------------------------------------------
# attainable-region surfaces over marginal entropies


def _site_dims(dims, n: int) -> tuple[int, ...]:
    """``dims`` as a tuple of exactly n site dimensions, each >= 2."""
    sites = _check_dims(dims, 2)
    if len(sites) != n:
        raise ValueError(f"invalid dims {sites}: need {n} site dimensions, each >= 2")
    return sites


def _marginal_dims(dims, **marginals) -> tuple[int, ...]:
    """The site dimensions of the named marginals: each a real or an int or float array, in [0, 1 - 1/d]."""
    sites = _site_dims(dims, len(marginals))
    for (name, s), d in zip(marginals.items(), sites):
        if not isinstance(s, np.ndarray):
            _check_real(f"marginal {name}", s)
        elif s.dtype.kind not in "iuf":
            raise ValueError(f"invalid marginal {name} of dtype {s.dtype}: need an array of reals")
        if not np.all((-RANGE_TOL <= s) & (s <= 1.0 - 1.0 / d + RANGE_TOL)):
            raise ValueError(f"invalid marginal {name}={s!r}: need 0 <= {name} <= 1 - 1/{d}")
    return sites


def _marginal_axes(dims, resolution: int) -> tuple[np.ndarray, ...]:
    """Each site's marginal-entropy axis, 0 ... 1 - 1/d at ``resolution`` points."""
    resolution = _check_count("resolution", resolution, 2)
    return tuple(np.linspace(0.0, 1.0 - 1.0 / d, resolution) for d in dims)


def _cap_result(value):
    return float(value) if np.ndim(value) == 0 else value


def max_sab_subadd(s_a, s_b, dims):
    """Largest S(AB) allowed by q = 2 subadditivity: min(sA + sB, physical cap).

    Takes scalars (returns a float) or broadcastable arrays (returns an array).
    """
    m = prod(_marginal_dims(dims, s_a=s_a, s_b=s_b))
    return _cap_result(np.minimum(s_a + s_b, 1.0 - 1.0 / m))


def max_sab_genpseudo(s_a, s_b, dims):
    """Largest S(AB) allowed by the correlated lower bound.

    1 + 1/m - 2 sqrt((1-sA)(1-sB)/m) capped at the physical maximum
    1 - 1/m, with m = dA dB.  Takes scalars (returns a float) or
    broadcastable arrays (returns an array).
    """
    m = prod(_marginal_dims(dims, s_a=s_a, s_b=s_b))
    root = 1.0 + 1.0 / m - 2.0 * np.sqrt((1.0 - s_a) * (1.0 - s_b) / m)
    return _cap_result(np.minimum(root, 1.0 - 1.0 / m))


_SURFACES = {"subadd": max_sab_subadd, "gen-pseudo": max_sab_genpseudo}


def validate_surface(kind: str, dims, resolution: int = 101) -> float:
    """Max |closed form - bisection root| of the surface over a marginal grid.

    The closed forms above are only trusted once this agrees to tolerance;
    the acceptance suite runs it at resolution 101.
    """
    if kind not in _SURFACES:
        raise ValueError(f"unknown surface kind {kind!r}")
    dims = _site_dims(dims, 2)
    SA, SB = np.meshgrid(*_marginal_axes(dims, resolution), indexing="ij")
    return _bisection_residual(kind, SA, SB, _SURFACES[kind](SA, SB, dims), prod(dims))


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
            return _genpseudo_side(SA, SB) - _genpseudo_floor(_PurityTable, S, m)

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
    da, db, dc = _marginal_dims(dims, s_a=s_a, s_b=s_b, s_c=s_c)
    s_a, s_b, s_c = np.asarray(s_a, float), np.asarray(s_b, float), np.asarray(s_c, float)
    subadd = ((s_c <= s_a + s_b + RANGE_TOL)
              & (s_a <= s_b + s_c + RANGE_TOL)
              & (s_b <= s_a + s_c + RANGE_TOL))

    def pair_ok(dx, dy, sx, sy, sz):
        return _genpseudo_floor(_PurityTable, sz, dx * dy) <= _genpseudo_side(sx, sy) + RANGE_TOL

    genp = (pair_ok(da, db, s_a, s_b, s_c)
            & pair_ok(db, dc, s_b, s_c, s_a)
            & pair_ok(da, dc, s_a, s_c, s_b))
    return subadd, genp


def classify_triple(s_a: float, s_b: float, s_c: float, dims) -> TripleVerdict:
    """Scalar wrapper over classify_grid."""
    subadd, genp = classify_grid(s_a, s_b, s_c, dims)
    return TripleVerdict(subadd=bool(subadd), gen_pseudo=bool(genp))
