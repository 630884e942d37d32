"""Multipartite density matrices and reproducible random ensembles.

Site 1 is the most significant tensor factor: ``tensor(a, b)`` is the
Kronecker product a (x) b, and the flat index of a product basis state
(i_1, ..., i_n) is i_1 * d_2 * ... * d_n + ... + i_n.

Random sampling is deterministic per (seed, index): each sample index gets
its own PCG64 stream derived by splitmix64-style mixing, so a batch can be
generated in any order without changing the draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

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
    """A validated density matrix together with its site dimensions."""

    dims: tuple[int, ...]
    matrix: np.ndarray
    _purity: float | None = field(default=None, repr=False, compare=False)
    # Tr(rho_v^2) per sorted site subset v, filled by correlation._marginal_purity
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
        """Tr(rho^2), computed as the squared Frobenius norm."""
        if self._purity is None:
            self._purity = float(np.vdot(self.matrix, self.matrix).real)
        return self._purity

    def is_pure(self, tol: float = PURITY_TOL) -> bool:
        return self.purity() >= 1.0 - tol


def _check_dims(dims) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise ValueError(f"invalid dimensions {dims!r}: need positive integers")
    return dims


def from_matrix(matrix, dims) -> DensityMatrix:
    """Validate a matrix as a density operator and wrap it.

    Checks hermiticity (1e-10), unit trace (1e-10) and positivity
    (smallest eigenvalue >= -1e-9); raises InvalidStateError naming the
    violated invariant.  Eigenvalues are never repaired.
    """
    dims = _check_dims(dims)
    d = prod(dims)
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (d, d):
        raise InvalidStateError(f"invalid state: shape {m.shape} does not match dims {dims} (need {(d, d)})")
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


def partial_trace(state: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every site not in ``keep``; kept sites keep their order."""
    n = state.n_sites
    keep = tuple(int(k) for k in keep)
    if not keep:
        raise ValueError("invalid partition: keep is empty")
    if len(set(keep)) != len(keep) or any(not 0 <= k < n for k in keep):
        raise ValueError(f"invalid partition: keep={keep} for {n} sites")
    keep = tuple(sorted(keep))
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


def _rng(master: int, index: int, attempt: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_mix64(derive_seed(master, index) + attempt)))


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

    Candidates failing validation are rejected and redrawn from a fresh
    substream (this essentially never triggers for these ensembles).
    """
    dims = _check_dims(dims)
    kind = spec.canonical_kind()
    if kind == "induced" and spec.rank_cap is None:
        raise ValueError("induced ensemble needs rank_cap (the ancilla dimension)")
    if kind in ("pure-haar", "hilbert-schmidt") and spec.rank_cap is not None:
        raise ValueError(f"rank_cap applies only to the induced and product-of ensembles, "
                         f"not {kind}")
    if kind == "product-of":
        if not spec.factors or len(spec.factors) != len(dims):
            raise ValueError(f"product-of needs one factor kind per site ({len(dims)} sites)")
        for f in spec.factors:
            fk = _KIND_ALIASES.get(f, f)
            if fk not in KINDS or fk == "product-of":
                raise ValueError(f"invalid product factor kind {f!r}")
    for attempt in range(8):
        rng = _rng(spec.seed, index, attempt)
        if kind == "product-of":
            mats = []
            for site, f in enumerate(spec.factors):
                fk = _KIND_ALIASES.get(f, f)
                mats.append(_draw_matrix(rng, dims[site], fk, spec.rank_cap))
            m = mats[0]
            for x in mats[1:]:
                m = np.kron(m, x)
        else:
            m = _draw_matrix(rng, prod(dims), kind, spec.rank_cap)
        try:
            return from_matrix(m, dims)
        except InvalidStateError:
            continue
    raise InvalidStateError(f"could not draw a valid state for dims={dims} after 8 attempts")
