"""Orthogonal hermitian operator bases with block (sector) structure.

Two constructions on a d-dimensional site:

* ``gellmann_basis(d)``: identity plus the generalized Gell-Mann matrices
  rescaled by sqrt(d/2) so that every element obeys Tr(E_i E_j) = d delta_ij.
  For d = 2 this is exactly {I, sigma_x, sigma_y, sigma_z}.

* ``split_basis(d, cut)``: the same kind of construction carried out
  separately on the first ``cut`` levels (low block), the remaining
  ``d - cut`` levels (high block), and the off-diagonal cross block that
  couples the two.  Low-block elements satisfy Tr(E^2) = cut, high- and
  cross-block elements Tr(E^2) = d - cut.  Element counts are cut^2,
  (d-cut)^2 and 2*cut*(d-cut).

Element ordering is deterministic: within each block the sub-identity (or
identity) comes first, then diagonal elements with ascending label, then
symmetric off-diagonal pairs in lexicographic order, then the matching
antisymmetric pairs.  Blocks are emitted low, high, cross.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import _check_count

MAX_DIM = 64

IDENTITY = "identity"
SUB_LOW = "sub-identity-low"
SUB_HIGH = "sub-identity-high"
DIAG = "diag"
DIAG_LOW = "diag-low"
DIAG_HIGH = "diag-high"
SYM = "sym"
ANTISYM = "antisym"


@dataclass(eq=False)
class BasisElement:
    """One basis matrix with its sector tag, index labels and declared norm.

    ``k`` and ``l`` are absolute row indices for off-diagonal elements and
    block-local labels for diagonal ones, mirroring the defining formulas.
    ``norm`` is the declared value of Tr(E^2).
    """

    sector: str
    k: int
    l: int
    matrix: np.ndarray
    norm: float

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix, dtype=complex)
        self.matrix.setflags(write=False)


@dataclass(eq=False)
class OperatorBasis:
    """Ordered hermitian operator basis for one site.

    ``cut`` is None for the canonical basis and the low-block size for a
    split basis.  The elements satisfy Tr(E_i E_j) = norm_i delta_ij.  The
    read-only stack and norms are built from ``elements`` at construction,
    so a basis made by ``dataclasses.replace`` reads its own matrices.
    """

    dim: int
    cut: int | None
    elements: tuple[BasisElement, ...]

    def __post_init__(self) -> None:
        self._stack = np.stack([e.matrix for e in self.elements])
        self._norms = np.array([e.norm for e in self.elements])
        self._stack.setflags(write=False)
        self._norms.setflags(write=False)

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def is_split(self) -> bool:
        return self.cut is not None

    @property
    def low_count(self) -> int:
        """Number of low-block elements; the high/cross blocks start here."""
        if self.cut is None:
            raise ValueError("canonical basis has no low block")
        return self.cut * self.cut

    def stack(self) -> np.ndarray:
        """All matrices as one read-only (n, dim, dim) array."""
        return self._stack

    def norms(self) -> np.ndarray:
        """Declared Tr(E^2) per element, aligned with ``elements``."""
        return self._norms


@dataclass
class GramReport:
    """Gram matrix of a basis against its declared normalization."""

    gram: np.ndarray
    declared: np.ndarray
    max_offdiag: float
    max_diag_deviation: float


def _diag_element(dim: int, offset: int, k: int, scale: float) -> np.ndarray:
    # sqrt(scale/(k+k^2)) (sum_{l<k} |off+l><off+l|  -  k |off+k><off+k|)
    m = np.zeros((dim, dim), dtype=complex)
    for l in range(k):
        m[offset + l, offset + l] = 1.0
    m[offset + k, offset + k] = -k
    return np.sqrt(scale / (k + k * k)) * m


def _sym_element(dim: int, k: int, l: int, scale: float) -> np.ndarray:
    m = np.zeros((dim, dim), dtype=complex)
    m[k, l] = m[l, k] = np.sqrt(scale / 2.0)
    return m


def _antisym_element(dim: int, k: int, l: int, scale: float) -> np.ndarray:
    m = np.zeros((dim, dim), dtype=complex)
    r = np.sqrt(scale / 2.0)
    m[k, l] = -1j * r
    m[l, k] = 1j * r
    return m


def _sub_identity(dim: int, lo: int, hi: int) -> np.ndarray:
    m = np.zeros((dim, dim), dtype=complex)
    for l in range(lo, hi):
        m[l, l] = 1.0
    return m


def _offdiag(d: int, pairs, scale: float) -> list[BasisElement]:
    """Symmetric elements of the level pairs (k, l), then the matching antisymmetric ones."""
    return ([BasisElement(SYM, k, l, _sym_element(d, k, l, scale), scale) for k, l in pairs]
            + [BasisElement(ANTISYM, k, l, _antisym_element(d, k, l, scale), scale)
               for k, l in pairs])


def _block(d: int, lo: int, hi: int, identity_sector: str, diag_sector: str) -> list[BasisElement]:
    """The canonical construction on levels [lo, hi), every element with Tr(E^2) = hi - lo."""
    scale = float(hi - lo)
    els = [BasisElement(identity_sector, 0, 0, _sub_identity(d, lo, hi), scale)]
    for k in range(1, hi - lo):
        els.append(BasisElement(diag_sector, k, k, _diag_element(d, lo, k, scale), scale))
    return els + _offdiag(d, [(k, l) for k in range(lo, hi) for l in range(k + 1, hi)], scale)


def gellmann_basis(d: int) -> OperatorBasis:
    """Canonical basis: identity plus rescaled generalized Gell-Mann matrices.

    Every element satisfies Tr(E_i E_j) = d delta_ij; element 0 is the
    identity.
    """
    d = _check_count("dimension", d, 2)
    if d > MAX_DIM:
        raise ValueError(f"invalid dimension {d}: need d <= {MAX_DIM}")
    return OperatorBasis(dim=d, cut=None, elements=tuple(_block(d, 0, d, IDENTITY, DIAG)))


def split_basis(d: int, cut: int) -> OperatorBasis:
    """Basis split into low ([0, cut)), high ([cut, d)) and cross blocks.

    Low-block elements are supported on the first ``cut`` levels and carry
    Tr(E^2) = cut; high and cross blocks carry Tr(E^2) = d - cut.  Index 0
    is the low sub-identity, index cut^2 the high sub-identity.
    """
    d, c = _check_count("dimension", d, 2), _check_count("cut", cut)
    if d > MAX_DIM or c > d - 1:
        raise ValueError(f"invalid cut {c} for dimension {d}: need 1 <= cut <= d - 1 and d <= {MAX_DIM}")
    # cross block: one index below the cut, one above
    cross = _offdiag(d, [(k, l) for k in range(c) for l in range(c, d)], float(d - c))
    els = _block(d, 0, c, SUB_LOW, DIAG_LOW) + _block(d, c, d, SUB_HIGH, DIAG_HIGH) + cross
    assert len(els) == d * d
    return OperatorBasis(dim=d, cut=c, elements=tuple(els))


def verify_orthogonality(basis: OperatorBasis) -> GramReport:
    """Compute the full Gram matrix Tr(E_i E_j) and compare with the declared norms."""
    n = len(basis)
    flat = basis.stack().reshape(n, -1)
    # elements are hermitian, so Tr(E_i E_j) = sum_ab E_i[a,b] conj(E_j[a,b])
    gram = (flat @ flat.conj().T).real
    declared = basis.norms()
    off = gram - np.diag(np.diag(gram))
    max_offdiag = float(np.abs(off).max()) if n > 1 else 0.0
    max_diag_dev = float(np.abs(np.diag(gram) - declared).max())
    return GramReport(gram=gram, declared=declared,
                      max_offdiag=max_offdiag, max_diag_deviation=max_diag_dev)
