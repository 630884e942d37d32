"""Multipartite density matrices and reproducible random ensembles.

Site 1 is the most significant tensor factor: ``tensor(a, b)`` is the
Kronecker product a (x) b, and the flat index of a product basis state
(i_1, ..., i_n) is i_1 * d_2 * ... * d_n + ... + i_n.

Random sampling is deterministic per (seed, index): each sample index gets
its own PCG64 stream derived by splitmix64-style mixing, so a batch can be
generated in any order without changing the draws.  Draws are valid by
construction (G G^H / Tr or |v><v|) and are wrapped directly; ``from_matrix``
validates matrices that come from outside.

This module owns the purity table: every marginal purity Tr(rho_v^2) is
read through ``_marginal_purity`` and memoized on the state, and the site
subsets that index it are checked by ``_check_sites``.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import reduce
from math import fsum, prod

import numpy as np

from .errors import InvalidStateError

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
EIG_TOL = 1e-9
PURITY_TOL = 1e-10

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


@dataclass
class DensityMatrix:
    """A density matrix with its site dimensions (valid by construction or via from_matrix)."""

    dims: tuple[int, ...]
    matrix: np.ndarray
    # Tr(rho_v^2) per sorted site subset v, filled by _marginal_purity
    _marginal_purities: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.dims = tuple(int(d) for d in self.dims)
        m = np.asarray(self.matrix, dtype=complex)
        m.setflags(write=False)
        self.matrix = m

    @property
    def dim(self) -> int:
        return prod(self.dims)

    @property
    def n_sites(self) -> int:
        return len(self.dims)

    def purity(self) -> float:
        """Tr(rho^2): the all-sites entry of the purity table."""
        return _marginal_purity(self, range(self.n_sites))

    def is_pure(self, tol: float = PURITY_TOL) -> bool:
        return self.purity() >= 1.0 - tol


def _check_dims(dims) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise ValueError(f"invalid dimensions {dims!r}: need positive integers")
    return dims


def from_matrix(matrix, dims) -> DensityMatrix:
    """Validate a matrix as a density operator and wrap it.

    Checks finite entries, hermiticity (1e-10), unit trace (1e-10) and
    positivity (smallest eigenvalue >= -1e-9); raises InvalidStateError
    naming the violated invariant.  Eigenvalues are never repaired.
    """
    dims = _check_dims(dims)
    d = prod(dims)
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (d, d):
        raise InvalidStateError(f"invalid state: shape {m.shape} does not match dims {dims} (need {(d, d)})")
    if not np.isfinite(m).all():
        raise InvalidStateError("invalid state: entries must be finite (found NaN or inf)")
    herm = float(np.abs(m - m.conj().T).max())
    if herm > HERMITIAN_TOL:
        raise InvalidStateError(f"invalid state: not hermitian (max |rho - rho^H| = {herm:.3e})")
    tr = complex(np.trace(m))
    if abs(tr - 1.0) > TRACE_TOL:
        raise InvalidStateError(f"invalid state: trace {tr!r} is not 1 within {TRACE_TOL:g}")
    lo = float(np.linalg.eigvalsh(m).min())
    if lo < -EIG_TOL:
        raise InvalidStateError(f"invalid state: negative eigenvalue {lo:.3e} below -{EIG_TOL:g}")
    return DensityMatrix(dims, m)


def maximally_mixed(dims) -> DensityMatrix:
    dims = _check_dims(dims)
    d = prod(dims)
    return DensityMatrix(dims, np.eye(d, dtype=complex) / d)


def pure(vector, dims) -> DensityMatrix:
    """|v><v| for a (nonzero) state vector, normalized exactly."""
    dims = _check_dims(dims)
    v = np.asarray(vector, dtype=complex).reshape(-1)
    if v.shape != (prod(dims),):
        raise ValueError(f"vector length {v.size} does not match dims {dims}")
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    v = v / n
    return DensityMatrix(dims, np.outer(v, v.conj()))


def max_entangled(d: int) -> DensityMatrix:
    """(1/sqrt(d)) sum_i |ii> on a d x d pair."""
    if d < 2:
        raise ValueError(f"invalid dimension {d}: need d >= 2")
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0 / np.sqrt(d)
    return DensityMatrix((d, d), np.outer(v, v.conj()))


def tensor(*states: DensityMatrix) -> DensityMatrix:
    """Tensor product; the first argument is the most significant factor."""
    if not states:
        raise ValueError("tensor needs at least one state")
    m = states[0].matrix
    dims = states[0].dims
    for s in states[1:]:
        m = np.kron(m, s.matrix)
        dims = dims + s.dims
    return DensityMatrix(dims, m)


def _check_sites(sites, n: int, what: str) -> tuple[int, ...]:
    """The sorted site indices; ValueError unless non-empty, distinct and in [0, n)."""
    sites = tuple(int(s) for s in sites)
    v = tuple(sorted(sites))
    if not v:
        raise ValueError(f"invalid {what}: no sites")
    if len(set(v)) != len(v) or v[0] < 0 or v[-1] >= n:
        raise ValueError(f"invalid {what} {sites}: need distinct sites in 0..{n - 1}")
    return v


def partial_trace(state: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every site not in ``keep``; kept sites keep their order."""
    n = state.n_sites
    keep = _check_sites(keep, n, "kept sites")
    if keep == tuple(range(n)):
        return state
    dims = state.dims
    row = list(range(n))
    col = [n + i for i in range(n)]
    for i in range(n):
        if i not in keep:
            col[i] = row[i]
    out = [row[i] for i in keep] + [col[i] for i in keep]
    red = np.einsum(state.matrix.reshape(dims + dims), row + col, out)
    kept_dims = tuple(dims[i] for i in keep)
    d = prod(kept_dims)
    return DensityMatrix(kept_dims, red.reshape(d, d))


_FSUM = ContextVar("fsum_purities", default=False)


@contextmanager
def _fsum_purities():
    """Reduce every marginal purity read inside the block with math.fsum."""
    token = _FSUM.set(True)
    try:
        yield
    finally:
        _FSUM.reset(token)


def _marginal_purity(state: DensityMatrix, keep) -> float:
    """Tr(rho_v^2) of the marginal on the sites ``keep`` (all sites: the state).

    Every closed-form check is a formula over these purities.  The standard
    value is one numpy reduction, memoized on the state so that the checks
    of one sample share their partial traces.  Inside ``_fsum_purities``
    the same squares are reduced with math.fsum and nothing is cached; this
    is the only place where the standard and precise evaluations differ.
    """
    keep = tuple(sorted(keep))
    cache = state._marginal_purities
    if keep in cache and not _FSUM.get():
        return cache[keep]
    m = state.matrix if keep == tuple(range(state.n_sites)) else partial_trace(state, keep).matrix
    if _FSUM.get():
        return fsum((np.abs(m.ravel()) ** 2).tolist())
    cache[keep] = float(np.vdot(m, m).real)
    return cache[keep]


def purify(state: DensityMatrix) -> DensityMatrix:
    """Standard purification on a [D, D] pair, D = state.dim.

    The first site carries the original system (eigenvectors), the second
    the ancilla; tracing out site 2 returns the input to float accuracy.
    """
    D = state.dim
    p, V = np.linalg.eigh(state.matrix)
    p = np.clip(p, 0.0, None)
    psi = (V * np.sqrt(p)[None, :]).reshape(-1)
    return DensityMatrix((D, D), np.outer(psi, psi.conj()))


# ---------------------------------------------------------------------------
# random ensembles


def _mix64(x: int) -> int:
    x &= _M64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _M64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _M64
    x ^= x >> 31
    return x


def derive_seed(master: int, index: int) -> int:
    """Stable 64-bit stream seed for sample ``index`` under ``master``."""
    return _mix64((int(master) + _GOLDEN * (int(index) + 1)) & _M64)


def _rng(master: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_mix64(derive_seed(master, index))))


_KIND_ALIASES = {"hs": "hilbert-schmidt"}
KINDS = ("pure-haar", "hilbert-schmidt", "induced", "product-of")


@dataclass(frozen=True)
class EnsembleSpec:
    """What to sample: ensemble kind, master seed, optional rank cap.

    ``induced`` traces a Haar-random pure state over a rank_cap-dimensional
    ancilla (rank_cap = D reproduces Hilbert-Schmidt).  ``product-of``
    draws each site independently with the kinds in ``factors``, passing
    rank_cap to each.  ``pure-haar`` and ``hilbert-schmidt`` take no rank_cap.
    """

    kind: str = "hilbert-schmidt"
    seed: int = 0
    rank_cap: int | None = None
    factors: tuple[str, ...] | None = None

    def canonical_kind(self) -> str:
        kind = _KIND_ALIASES.get(self.kind, self.kind)
        if kind not in KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}; choose from {KINDS}")
        return kind


def _draw_matrix(rng: np.random.Generator, d: int, kind: str, rank: int | None) -> np.ndarray:
    if kind == "pure-haar":
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v /= np.linalg.norm(v)
        return np.outer(v, v.conj())
    k = d if rank is None else int(rank)
    if k < 1:
        raise ValueError(f"invalid rank cap {rank!r}")
    g = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_state(dims, spec: EnsembleSpec, index: int = 0) -> DensityMatrix:
    """Sample ``index`` of the ensemble; same (dims, spec, index) -> same state.

    Every draw is a density matrix by construction (G G^H / Tr G G^H, or
    |v><v| for a unit v), so it is wrapped without re-validation.
    """
    dims = _check_dims(dims)
    kind = spec.canonical_kind()
    if kind == "induced" and spec.rank_cap is None:
        raise ValueError("induced ensemble needs rank_cap (the ancilla dimension)")
    if kind in ("pure-haar", "hilbert-schmidt") and spec.rank_cap is not None:
        raise ValueError(f"rank_cap applies only to the induced and product-of ensembles, "
                         f"not {kind}")
    if kind != "product-of":
        if spec.factors is not None:
            raise ValueError(f"factors apply only to the product-of ensemble, not {kind}")
        return DensityMatrix(dims, _draw_matrix(_rng(spec.seed, index), prod(dims), kind,
                                                spec.rank_cap))
    if not spec.factors or len(spec.factors) != len(dims):
        raise ValueError(f"product-of needs one factor kind per site ({len(dims)} sites)")
    kinds = tuple(_KIND_ALIASES.get(f, f) for f in spec.factors)
    for f, fk in zip(spec.factors, kinds):
        if fk not in KINDS or fk == "product-of":
            raise ValueError(f"invalid product factor kind {f!r}")
    rng = _rng(spec.seed, index)
    return DensityMatrix(dims, reduce(np.kron, [_draw_matrix(rng, d, fk, spec.rank_cap)
                                                for d, fk in zip(dims, kinds)]))
