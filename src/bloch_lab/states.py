"""Multipartite density matrices and reproducible random ensembles.

Site 1 is the most significant tensor factor: ``tensor(a, b)`` is the
Kronecker product a (x) b, and the flat index of a product basis state
(i_1, ..., i_n) is i_1 * d_2 * ... * d_n + ... + i_n.

Random sampling is deterministic per (seed, index): each sample index gets
its own PCG64 stream derived by splitmix64-style mixing, so a batch can be
generated in any order without changing the draws.  Draws are valid by
construction (G G^H / Tr or |v><v|) and are wrapped directly; ``from_matrix``
validates matrices that come from outside.

This module owns the input rules: every dimension, site, count, sample index
and seed is checked where it enters by ``_check_count`` (a tuple by
``_check_dims``), every q, alpha, g, t and marginal entropy by
``_check_real``, a site subset by ``_check_sites`` and a bipartition by
``_check_partition``; nothing is truncated or parsed.  It owns the trace rule:
``_marginal`` traces through a cached plan (``_trace_plan``, which checks its
subset once), and ``partial_trace``, the purity table, the split monotone and
the entropies' one eigenvalue rule, ``_marginal_spectrum``, all read it.  It
owns the purity table: every Tr(rho_v^2) is read from the state's one
``_PurityTable``, ``state._marginal_purities``, and memoized there.  The
precise re-check runs the same formulas on ``_precise(state)``, a twin that
shares the state's dims and matrix and whose own table reduces with
math.fsum.  The table also sets the number type of every formula that reads
it: a formula takes each non-integer constant from ``P.ratio(n, m)`` and each
elementwise min and max from ``P.min`` and ``P.max``, and keeps small integers
as ints.  So one formula runs on the float and fsum tables here, and on a
table of exact Fractions or of (N,) arrays (one entry per state of a stack)
that overrides those three.  Draws and twins are built by ``_wrap``, which
runs no check.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from math import fsum, inf, nan, prod
from numbers import Integral, Real
from sys import float_info

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
    # Tr(rho_v^2) per sorted site subset v, the one table formulas read;
    # numpy-reduced, or fsum-reduced on a twin from _precise
    _marginal_purities: _PurityTable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.dims = _check_dims(self.dims)
        m = np.asarray(self.matrix, dtype=complex)
        m.setflags(write=False)
        self.matrix = m
        self._marginal_purities = _PurityTable(self.dims, m, False)

    @property
    def dim(self) -> int:
        return prod(self.dims)

    @property
    def n_sites(self) -> int:
        return len(self.dims)

    def purity(self) -> float:
        """Tr(rho^2): the all-sites entry of the purity table."""
        return self._marginal_purities[tuple(range(self.n_sites))]

    def is_pure(self) -> bool:
        return _is_pure(self.purity())


def _is_pure(purity: float) -> bool:
    return purity >= 1.0 - PURITY_TOL


def _shown(x) -> str:
    """repr(x) for an error message, or a stand-in where repr fails (an int of over 4,300 digits)."""
    try:
        return repr(x)
    except ValueError:
        return f"<{type(x).__name__} too long to print>"


def _check_count(what: str, n, least: int | None = 1) -> int:
    """n as a plain int; ValueError unless it is an integer >= least (any integer
    when least is None).  A bool or a float is no integer; a numpy integer is."""
    if type(n) is int or (isinstance(n, Integral) and not isinstance(n, bool)):
        if least is None or n >= least:
            return int(n)
    raise ValueError(f"invalid {what} {_shown(n)}: need an integer"
                     + ("" if least is None else f" >= {least}"))


def _check_real(what: str, x, above=-inf, least=-inf, most=float_info.max) -> float:
    """x as a plain float; ValueError unless a finite real (no bool) > above, >= least and <= most."""
    try:
        v = x if type(x) is float else float(x) if isinstance(x, Real) and not isinstance(x, bool) else nan
    except OverflowError:  # an int too large for a float
        v = nan
    if above < v and least <= v <= most:  # false for NaN and for either infinity
        return v
    raise ValueError(f"invalid {what} {_shown(x)}: need a finite real" + " and".join(
        f" {op} {b:g}" for op, b in ((">", above), (">=", least), ("<=", most)) if abs(b) < float_info.max))


def _check_dims(dims, least: int = 1, what: str = "site dimension") -> tuple[int, ...]:
    """dims as a non-empty tuple of integers >= least, each passing _check_count."""
    try:
        checked = tuple([d if type(d) is int and d >= least else _check_count(what, d, least)
                         for d in dims])
    except TypeError:  # not a sequence
        checked = ()
    if not checked:
        raise ValueError(f"invalid {what} list {_shown(dims)}: need a non-empty sequence of integers")
    return checked


def from_matrix(matrix, dims) -> DensityMatrix:
    """Validate a matrix as a density operator and wrap it.

    Checks finite entries, hermiticity (1e-10), unit trace (1e-10) and
    positivity (smallest eigenvalue >= -1e-9); raises InvalidStateError
    naming the violated invariant.  Eigenvalues are never repaired.
    """
    state = DensityMatrix(dims, matrix)
    m, d, dims = state.matrix, state.dim, state.dims
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
    return state


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
    d = _check_count("dimension", d, 2)
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0 / np.sqrt(d)
    return DensityMatrix((d, d), np.outer(v, v.conj()))


def tensor(*states: DensityMatrix) -> DensityMatrix:
    """Tensor product; the first argument is the most significant factor."""
    if not states:
        raise ValueError("tensor needs at least one state")
    return DensityMatrix(sum((s.dims for s in states), ()), reduce(np.kron, [s.matrix for s in states]))


def _check_sites(sites, n: int, what: str) -> tuple[int, ...]:
    """The sorted site indices; ValueError unless non-empty, distinct and in [0, n)."""
    sites = _check_dims(sites, 0, what)
    v = tuple(sorted(sites))
    if len(set(v)) != len(v) or v[-1] >= n:
        raise ValueError(f"invalid {what} {_shown(sites)}: need distinct sites in 0..{n - 1}")
    return v


def _check_partition(partition, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(omega, sigma) as sorted site tuples; ValueError unless two disjoint site groups of n sites."""
    try:
        omega, sigma = partition
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid partition {_shown(partition)}: need (omega, sigma)") from exc
    omega = _check_sites(omega, n, "partition group")
    sigma = _check_sites(sigma, n, "partition group")
    if set(omega) & set(sigma):
        raise ValueError(f"invalid partition: groups {omega} and {sigma} overlap")
    return omega, sigma


@lru_cache(maxsize=256)
def _trace_plan(dims: tuple[int, ...], keep: tuple[int, ...]) -> tuple | None:
    """How to trace a state on ``dims`` down to the sites ``keep``; None when keep holds every site.

    The plan is (tensor shape, einsum input labels, output labels, the
    marginal's square shape).  Site i's row index is label i and its column
    index label n + i; a traced site's column takes its row label.  The sites
    are checked once, when the plan is built.
    """
    n = len(dims)
    keep = _check_sites(keep, n, "kept sites")
    if keep == tuple(range(n)):
        return None
    labels = tuple(range(n)) + tuple(n + i if i in keep else i for i in range(n))
    d = prod(dims[i] for i in keep)
    return dims + dims, labels, keep + tuple(n + i for i in keep), (d, d)


def _marginal(state: DensityMatrix, keep) -> np.ndarray:
    """The marginal's matrix on the sites ``keep`` (all sites: the state's own matrix)."""
    plan = _trace_plan(state.dims, keep)
    if plan is None:
        return state.matrix
    shape, labels, out, square = plan
    return np.einsum(state.matrix.reshape(shape), labels, out).reshape(square)


def partial_trace(state: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every site not in ``keep``; kept sites keep their order."""
    # checked on every call: plans are keyed by value, and True or 1.0 equals site 1
    keep = _check_sites(keep, state.n_sites, "kept sites")
    m = _marginal(state, keep)
    return state if m is state.matrix else DensityMatrix(tuple(state.dims[i] for i in keep), m)


class _PurityTable(dict):
    """Tr(rho_v^2) of one state's marginals, keyed by sorted site tuple v.

    Formulas index it with literal keys, ``P[(0, 2)]``; a miss traces the
    marginal with the cached ``_trace_plan`` that ``partial_trace`` uses, so
    it is the same bit for bit, and tables its purity.  The table holds the
    state's ``dims`` and ``matrix``, which is all ``_marginal`` reads of a
    state, and not the state itself, so a state and its table form no
    reference cycle.  A state's table reduces each marginal's squares with
    one numpy reduction, its ``_precise`` twin's with math.fsum: the
    reduction is the only place where the standard and precise evaluations
    differ.

    Formulas take from the table what depends on the number type of its
    entries: ``ratio`` for each non-integer constant, ``min`` and ``max``
    for each elementwise bound.  Here these are int/int division and the
    builtins, so a formula on a float table returns plain floats; a table of
    Fractions or of arrays overrides them.  The class itself is the float
    arithmetic where no table is at hand (the public bounds, the figure grids).
    """

    __slots__ = ("dims", "matrix", "precise")
    min, max = staticmethod(min), staticmethod(max)

    @staticmethod
    def ratio(n: int, m: int = 1) -> float:
        """n / m as a number of this table: a float, correctly rounded."""
        return n / m

    def __init__(self, dims: tuple[int, ...], matrix: np.ndarray, precise: bool):
        self.dims, self.matrix, self.precise = dims, matrix, precise

    def __missing__(self, keep: tuple[int, ...]) -> float:
        return self.fill(keep, _marginal(self, keep))

    def fill(self, keep: tuple[int, ...], m: np.ndarray) -> float:
        """Table the purity of ``m``, the marginal on the sorted sites ``keep``, and return it."""
        value = self[keep] = (fsum((np.abs(m.ravel()) ** 2).tolist()) if self.precise
                              else float(np.vdot(m, m).real))
        return value


def _wrap(dims: tuple[int, ...], matrix: np.ndarray, precise: bool = False) -> DensityMatrix:
    """A state on dims that ``_check_dims`` returned and a complex matrix, made read-only, with a
    fresh purity table (fsum-reduced when ``precise``).

    It skips ``__post_init__``, whose checks the draws and twins it builds
    have passed: a draw is a density matrix by construction on dims its
    caller checked, and a twin shares a built state's dims and matrix.
    """
    matrix.setflags(write=False)
    state = object.__new__(DensityMatrix)
    state.dims, state.matrix, state._marginal_purities = dims, matrix, _PurityTable(dims, matrix, precise)
    return state


def _precise(state: DensityMatrix) -> DensityMatrix:
    """A twin of ``state`` whose purity table reduces with math.fsum: any formula run on it is
    the precise re-check.

    The twin shares the state's ``dims`` and read-only ``matrix`` (the same
    objects), so its marginals, split-memo keys and spectra are the state's;
    only its table, empty when built, is its own.  No read through the twin
    writes the state's table.
    """
    return _wrap(state.dims, state.matrix, True)


def _marginal_spectrum(state: DensityMatrix, keep) -> np.ndarray:
    """The marginal's eigenvalues above d eps lambda_max (numpy's matrix_rank tolerance), ascending.
    Smaller ones are rounding noise, which an entropy at q < 1 would count as support, but
    EIG_TOL would drop real weight too.  ValueError on an eigenvalue below -EIG_TOL."""
    w = np.linalg.eigvalsh(_marginal(state, keep))
    if w[0] < -EIG_TOL:
        raise ValueError(f"invalid state: eigenvalue {w[0]:.3e} below -{EIG_TOL:g}")
    return w[w > w.size * np.finfo(float).eps * w[-1]]


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
    """Stable 64-bit stream seed for sample ``index`` (>= 0) under ``master`` (any integer)."""
    index = _check_count("sample index", index, 0)
    return _mix64((_check_count("seed", master, None) + _GOLDEN * (index + 1)) & _M64)


def _rng(master: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_mix64(derive_seed(master, index))))


_KIND_ALIASES = {"hs": "hilbert-schmidt"}
KINDS = ("pure-haar", "hilbert-schmidt", "induced", "product-of")


@dataclass(frozen=True)
class EnsembleSpec:
    """What to sample: ensemble kind, master seed, optional rank cap.

    ``induced`` traces a Haar-random pure state over a rank_cap-dimensional
    ancilla (rank_cap = D reproduces Hilbert-Schmidt).  ``product-of``
    draws each site independently with the kinds in ``factors`` (stored as a
    tuple), passing rank_cap to each.  ``pure-haar`` and ``hilbert-schmidt``
    take no rank_cap.  A spec checks itself when built; the factor count
    waits for a draw's dims.
    """

    kind: str = "hilbert-schmidt"
    seed: int = 0
    rank_cap: int | None = None
    factors: tuple[str, ...] | None = None

    def __post_init__(self):
        kind = self.canonical_kind() if isinstance(self.kind, str) else None
        if kind not in KINDS:
            raise ValueError(f"unknown ensemble kind {_shown(self.kind)}; choose from {KINDS}")
        object.__setattr__(self, "seed", _check_count("seed", self.seed, None))
        if kind == "induced" and self.rank_cap is None:
            raise ValueError("induced ensemble needs rank_cap (the ancilla dimension)")
        if kind in ("pure-haar", "hilbert-schmidt") and self.rank_cap is not None:
            raise ValueError(f"rank_cap applies only to the induced and product-of ensembles, not {kind}")
        if self.rank_cap is not None:
            object.__setattr__(self, "rank_cap", _check_count("rank cap", self.rank_cap))
        if kind != "product-of" and self.factors is not None:
            raise ValueError(f"factors apply only to the product-of ensemble, not {kind}")
        if kind == "product-of" and not (isinstance(self.factors, Sequence) and self.factors):
            raise ValueError(f"invalid factors {_shown(self.factors)}: "
                             "product-of needs a sequence of one factor kind per site")
        for f in self.factors or ():
            if not isinstance(f, str) or _KIND_ALIASES.get(f, f) not in KINDS or f == "product-of":
                raise ValueError(f"invalid product factor kind {_shown(f)}")
        if self.factors is not None:
            # kept as a tuple, so that a spec built from a list hashes
            object.__setattr__(self, "factors", tuple(self.factors))

    def canonical_kind(self) -> str:
        return _KIND_ALIASES.get(self.kind, self.kind)


def _draw_matrix(rng: np.random.Generator, d: int, pure: bool, rank: int | None) -> np.ndarray:
    if pure:
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v /= np.linalg.norm(v)
        return np.outer(v, v.conj())
    k = d if rank is None else rank
    g = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_state(dims, spec: EnsembleSpec, index: int = 0) -> DensityMatrix:
    """Sample ``index`` of the ensemble; same (dims, spec, index) -> same state.

    Every draw is a density matrix by construction (G G^H / Tr G G^H, or
    |v><v| for a unit v), so it is wrapped without re-validation.
    """
    return _draw(_check_dims(dims), spec, index)


def _draw(dims: tuple[int, ...], spec: EnsembleSpec, index: int) -> DensityMatrix:
    """random_state on dims that ``_check_dims`` already returned (a campaign checks them once)."""
    kind = spec.canonical_kind()
    if kind != "product-of":
        return _wrap(dims, _draw_matrix(_rng(spec.seed, index), prod(dims),
                                        kind == "pure-haar", spec.rank_cap))
    if len(spec.factors) != len(dims):
        raise ValueError(f"product-of needs one factor kind per site ({len(dims)} sites)")
    rng = _rng(spec.seed, index)
    return _wrap(dims, reduce(np.kron, [_draw_matrix(rng, d, f == "pure-haar", spec.rank_cap)
                                        for d, f in zip(dims, spec.factors)]))
