"""Expansion coefficients of multipartite states in product operator bases.

A state on sites with bases {E^(j)_i} (each satisfying Tr(E_i E_j) =
n_i delta_ij per site) has the expansion

    rho = sum_idx C[idx] (E_i1 (x) ... (x) E_in) / (n_i1 * ... * n_in),
    C[idx] = <E_i1 (x) ... (x) E_in> = Tr(rho E_i1 (x) ... (x) E_in),

which gives the weighted Parseval identity
Tr(rho^2) = sum_idx C[idx]^2 / (n_i1 * ... * n_in).  For canonical bases
every weight is 1/(d_1 ... d_n) and the identity becomes
Tr(rho^2) = (1 + sum_v ||T^v||^2) / d_total with ||T^v||^2 the squared
coefficient mass of the subset-v slices.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import prod

import numpy as np

from .basis import OperatorBasis, gellmann_basis, split_basis
from .errors import NumericError
from .states import DensityMatrix, _check_count, _check_partition, _check_sites

IMAG_TOL = 1e-8


@dataclass
class BlochCoefficients:
    """Real coefficient array C[i_1, ..., i_n] with the bases that define it."""

    bases: tuple[OperatorBasis, ...]
    array: np.ndarray

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(b.dim for b in self.bases)

    @property
    def n_sites(self) -> int:
        return len(self.bases)


@dataclass
class SplitSectorNorms:
    """Sector-resolved squared coefficient mass for one split site.

    ``c0``/``c0p`` are the squared coefficients of (identity x low/high
    sub-identity); the six norms split the remaining mass by which side
    carries a traceless element (the canonical site, the split site, or
    both), separately for the low and high sectors of the split site.
    ``split_purity`` weighs the low sector by 1/(d_canonical * cut) and the
    high sector by 1/(d_canonical * (d_split - cut)).
    """

    c0: float
    c0p: float
    low_canonical: float
    low_split: float
    low_joint: float
    high_canonical: float
    high_split: float
    high_joint: float


def default_bases(dims) -> tuple[OperatorBasis, ...]:
    """Canonical basis on every site."""
    return tuple(gellmann_basis(d) for d in dims)


def bases_with_split(dims, site: int, cut: int) -> tuple[OperatorBasis, ...]:
    """Canonical bases except for a split basis (given cut) on one site."""
    dims = tuple(dims)
    site = _check_count("site", site, 0)
    if site >= len(dims):
        raise ValueError(f"invalid site {site} for {len(dims)} sites")
    return tuple(split_basis(d, cut) if j == site else gellmann_basis(d)
                 for j, d in enumerate(dims))


def _coefficient_array(matrix: np.ndarray, bases: tuple[OperatorBasis, ...]) -> np.ndarray:
    dims = tuple(b.dim for b in bases)
    n = len(dims)
    X = matrix.reshape(dims + dims)
    # peel sites from the last to the first so the result axes come out in site order
    for j in range(n - 1, -1, -1):
        done = n - 1 - j
        r_pos = done + j
        c_pos = done + 2 * j + 1
        # C = sum_{r,c} E[i, c, r] rho[..r.., ..c..]
        X = np.tensordot(bases[j].stack(), X, axes=([1, 2], [c_pos, r_pos]))
    return X


def bloch_coefficients(state: DensityMatrix, bases=None) -> BlochCoefficients:
    """Expansion coefficients <E_i1 (x) ... (x) E_in> of a state.

    Coefficients of a hermitian state in hermitian bases are real; an
    imaginary residue above 1e-8 raises NumericError, smaller residues are
    discarded.
    """
    if bases is None:
        bases = default_bases(state.dims)
    bases = tuple(bases)
    if tuple(b.dim for b in bases) != state.dims:
        raise ValueError(f"basis dims {tuple(b.dim for b in bases)} do not match state dims {state.dims}")
    arr = _coefficient_array(state.matrix, bases)
    residue = float(np.abs(arr.imag).max())
    if residue > IMAG_TOL:
        raise NumericError(f"imaginary residue {residue:.3e} in coefficients exceeds {IMAG_TOL:g}")
    return BlochCoefficients(bases=bases, array=np.ascontiguousarray(arr.real))


def _mass(array: np.ndarray, index) -> float:
    """Squared mass of ``array[index]``."""
    block = array[index]
    return float((block * block).sum())


def tensor_norm_sq(coeffs: BlochCoefficients, subset) -> float:
    """||T^v||^2: squared mass of the slice with indices >= 1 exactly on v.

    Sites outside v sit at index 0 (for a split site that is the low
    sub-identity).
    """
    v = _check_sites(subset, coeffs.n_sites, "subset")
    return _mass(coeffs.array, tuple(slice(1, None) if j in v else 0
                                     for j in range(coeffs.n_sites)))


def all_subset_norms(coeffs: BlochCoefficients) -> dict[tuple[int, ...], float]:
    """||T^v||^2 for every non-empty subset of sites."""
    n = coeffs.n_sites
    out: dict[tuple[int, ...], float] = {}
    for r in range(1, n + 1):
        for v in combinations(range(n), r):
            out[v] = tensor_norm_sq(coeffs, v)
    return out


def cross_norm_sum(coeffs: BlochCoefficients, omega, sigma) -> float:
    """sum of ||T^v||^2 over subsets v meeting both omega and sigma.

    Requires omega and sigma to be disjoint and to cover every site of the
    coefficient array.  Computed by inclusion-exclusion on slice masses.
    """
    omega, sigma = _check_partition((omega, sigma), coeffs.n_sites)
    if set(omega) | set(sigma) != set(range(coeffs.n_sites)):
        raise ValueError("invalid partition: groups must cover all sites of the coefficient array")
    n = coeffs.n_sites

    def within(group) -> float:  # mass of the entries supported within group
        return _mass(coeffs.array, tuple(slice(None) if j in group else 0 for j in range(n)))

    return _mass(coeffs.array, ()) - within(omega) - within(sigma) + _mass(coeffs.array, (0,) * n)


def purity_from_tensor(coeffs: BlochCoefficients) -> float:
    """(1 + sum_v ||T^v||^2) / d_total; canonical bases on every site only."""
    if any(b.is_split for b in coeffs.bases):
        raise ValueError("split site present: use split_purity")
    return (1.0 + sum(all_subset_norms(coeffs).values())) / prod(coeffs.dims)


def _inverse_norm_weights(coeffs: BlochCoefficients) -> np.ndarray:
    """Per-entry weight 1/(n_i1 * ... * n_in) of the coefficient array."""
    w = np.ones((), dtype=float)
    for j, b in enumerate(coeffs.bases):
        shape = [1] * coeffs.n_sites
        shape[j] = len(b)
        w = w * (1.0 / b.norms()).reshape(shape)
    return w


def split_purity(coeffs: BlochCoefficients) -> float:
    """Weighted Parseval purity for a two-site system with one split site."""
    _require_one_split(coeffs)
    return float((coeffs.array * coeffs.array * _inverse_norm_weights(coeffs)).sum())


def _require_one_split(coeffs: BlochCoefficients) -> tuple[int, int]:
    """Return (canonical site, split site) for a two-site, one-split layout."""
    if coeffs.n_sites != 2:
        raise ValueError(f"need exactly 2 sites, got {coeffs.n_sites}")
    split_sites = [j for j, b in enumerate(coeffs.bases) if b.is_split]
    if len(split_sites) != 1:
        raise ValueError(f"need exactly one split site, got {len(split_sites)}")
    s = split_sites[0]
    return 1 - s, s


def split_sector_norms(coeffs: BlochCoefficients) -> SplitSectorNorms:
    """Sector-resolved coefficient masses for a two-site, one-split system."""
    _, s = _require_one_split(coeffs)
    nlow = coeffs.bases[s].low_count
    arr = coeffs.array if s == 1 else coeffs.array.T
    # arr axes: (canonical site, split site)
    return SplitSectorNorms(
        c0=_mass(arr, (0, 0)),
        c0p=_mass(arr, (0, nlow)),
        low_canonical=_mass(arr, (slice(1, None), slice(0, 1))),
        low_split=_mass(arr, (slice(0, 1), slice(1, nlow))),
        low_joint=_mass(arr, (slice(1, None), slice(1, nlow))),
        high_canonical=_mass(arr, (slice(1, None), slice(nlow, nlow + 1))),
        high_split=_mass(arr, (slice(0, 1), slice(nlow + 1, None))),
        high_joint=_mass(arr, (slice(1, None), slice(nlow + 1, None))),
    )


def reconstruct(coeffs: BlochCoefficients) -> DensityMatrix:
    """Rebuild the state from its coefficients (round-trips to 1e-12)."""
    n = coeffs.n_sites
    X = (coeffs.array * _inverse_norm_weights(coeffs)).astype(complex)
    for j in range(n):
        X = np.tensordot(X, coeffs.bases[j].stack(), axes=([0], [0]))
    # axes now (r_0, c_0, ..., r_{n-1}, c_{n-1}) -> rows first, then columns
    perm = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    X = X.transpose(perm)
    d = prod(coeffs.dims)
    return DensityMatrix(coeffs.dims, X.reshape(d, d))
