"""Correlation monotone over bipartitions, with monogamy-style checks.

For a bipartition Omega | Sigma of (a marginal of) a state, the raw
correlation mass is

* equal group dimensions, or a composite group on either side: the sum of
  ||T^v||^2 over all subsets v that meet both groups (unitarily invariant,
  so no maximization is needed).  By the purity identity this equals
  D Tr(rho^2) - d_Omega Tr(rho_Omega^2) - d_Sigma Tr(rho_Sigma^2) + 1, and
  it is evaluated from marginal purities, never from a coefficient tensor;
* two single sites of unequal dimension: the maximum over basis changes on
  the larger site of the doubly-traceless block of coefficients against a
  split basis with cut equal to the smaller dimension c.  That block's mass
  is a homogeneous quadratic form Q(P) = vec(P)^T K vec(P) in the rank-c
  projector P onto the selected subspace, with one d^2 x d^2 matrix K built
  from the state once per call.  The optimizer and the reported raw mass
  read K, the discarded mass delta reads Q's first term, and no
  coefficient tensor is built.
  The maximum is searched from random restarts by eigen-steps: each step
  moves P to the top-c eigenvectors of the gradient plus a fixed shift
  that makes the step an ascent, with all restarts ascending in lock-step
  as one stacked batch (``_optimize_split``).  The last few solves are
  memoized on the reduced matrix and the optimizer settings
  (``_solve_split``), so re-checking a state repeats no ascent.

The reported value divides the raw mass by a normalization g chosen by a
``NormalizationPolicy``; by default g = d_min^2 - 1 between single sites
(unit range) and g = (d_Omega - 1)(d_Sigma - 1) when a group is composite
(separable bound).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isfinite, prod
from numbers import Integral

import numpy as np

from .errors import NotPureError
from .reports import SLACK_TOL, InequalityReport, report_from_sides
from .states import DensityMatrix, _check_sites, _marginal_purity, derive_seed, partial_trace

PURE_TOL = 1e-10
# split solves kept by _solve_split: the most that one check makes on one
# sample (thm1i on (2,2,3)), so a re-check of that sample right after it
# repeats no ascent, while any other repeat misses
SPLIT_MEMO_SIZE = 2


@dataclass(frozen=True)
class NormalizationPolicy:
    """How to pick the denominator g.

    rule "unit-range" gives d_min^2 - 1, "separable-bound" gives
    (d_Omega - 1)(d_Sigma - 1), "explicit" uses ``value`` directly.
    """

    rule: str = "unit-range"
    value: float | None = None

    def resolve(self, d_omega: int, d_sigma: int) -> float:
        """g for groups of these dimensions; raises unless g > 0 (a group of dimension 1 gives 0)."""
        if self.rule == "unit-range":
            g = min(d_omega, d_sigma) ** 2 - 1
        elif self.rule == "separable-bound":
            g = (d_omega - 1) * (d_sigma - 1)
        elif self.rule == "explicit":
            g = self.value
        else:
            raise ValueError(f"unknown normalization rule {self.rule!r}")
        if g is None or not g > 0:
            raise ValueError(f"{self.rule} normalization needs a positive g, got {g!r} "
                             f"for group dimensions ({d_omega}, {d_sigma})")
        return float(g)


def default_policy(omega, sigma) -> NormalizationPolicy:
    """Unit range between single sites, separable bound for composite groups."""
    if len(omega) == 1 and len(sigma) == 1:
        return NormalizationPolicy("unit-range")
    return NormalizationPolicy("separable-bound")


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings for the split-basis maximization.

    ``max_sweeps`` caps the eigen-steps per restart; a restart whose step
    gains less than ``tol`` freezes.
    """

    restarts: int = 32
    max_sweeps: int = 500
    tol: float = 1e-12
    seed: int = 0

    def __post_init__(self):
        for name in ("restarts", "max_sweeps"):
            n = getattr(self, name)
            if not isinstance(n, Integral) or n < 1:
                raise ValueError(f"invalid {name} {n!r}: need an integer >= 1")
        if not (isfinite(self.tol) and self.tol >= 0.0):
            raise ValueError(f"invalid tol {self.tol!r}: need a finite number >= 0")


@dataclass
class MonotoneResult:
    """Monotone value plus how it was obtained.

    ``unitary`` is the basis change on the larger site whose first ``cut``
    columns span the selected subspace (None when no optimization ran).
    ``delta`` is the weighted coefficient mass discarded outside that
    subspace; it vanishes at the optimum for pure states.  ``heuristic_max``
    marks optimized values on mixed states, where the ascent only
    certifies a lower bound on the true maximum.  ``sweeps`` counts the
    lock-step eigen-steps the optimizer ran and ``restart_values`` holds
    each restart's final objective value, in restart order; they stay 0
    and () when no optimization ran.

    ``value`` is fixed to rounding level, but ``unitary`` and ``delta`` only
    to about sqrt(machine epsilon): the maximum is flat to second order, so
    the optimizer pins the subspace only to about 1e-8.  A rounding-level
    change in the ascent once moved ``delta`` by 5.4e-9 while ``value`` moved
    by 7.8e-16, so ``delta`` must not be compared across versions below
    about 1e-7.
    """

    value: float
    g: float
    raw: float
    converged: bool
    restarts: int
    delta: float
    heuristic_max: bool
    unitary: np.ndarray | None
    partition: tuple[tuple[int, ...], tuple[int, ...]]
    sweeps: int = 0
    restart_values: tuple[float, ...] = ()


def _check_partition(state: DensityMatrix, partition):
    try:
        omega, sigma = partition
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid partition {partition!r}: need (omega, sigma)") from exc
    omega = _check_sites(omega, state.n_sites, "partition group")
    sigma = _check_sites(sigma, state.n_sites, "partition group")
    if set(omega) & set(sigma):
        raise ValueError(f"invalid partition: groups {omega} and {sigma} overlap")
    return omega, sigma


# ---------------------------------------------------------------------------
# split-basis objective and optimizer
#
# With P the rank-c projector onto the selected subspace of the larger site
# B (c = d_A, the smaller dimension), the doubly-traceless coefficient mass
# equals
#
#   Q(P) = c^2 Tr(rho (1xP) rho (1xP)) - c Tr(N^2) - c Tr(rho_B P rho_B P)
#          + Tr(rho_B P)^2,          N = Tr_B(rho (1xP)),
#
# a homogeneous quadratic form Q(P) = vec(P)^T K vec(P) with one symmetric
# d_B^2 x d_B^2 matrix K, built once per call.  The gradient, the step's
# shift and the reported raw mass all read K.  Every step below acts on a
# stack of restarts at once (U is an (R, d_B, d_B) array), and every
# product with K is taken per restart, so no restart's arithmetic depends
# on the others.


class _SplitObjective:
    def __init__(self, matrix: np.ndarray, d_small: int, d_large: int, small_first: bool):
        c, dB = d_small, d_large
        shaped = (matrix.reshape(c, dB, c, dB).transpose(0, 2, 1, 3) if small_first
                  else matrix.reshape(dB, c, dB, c).transpose(1, 3, 0, 2))
        # R4[a, a', b, b'] = rho[(a b), (a' b')] with a on the small site
        self.R4 = R4 = np.ascontiguousarray(shaped)
        self.rho_B = rho_B = np.einsum("aabc->bc", R4)
        self.c = c
        self.dB = dB
        # K[(m, n), (p, q)] pairs P[m, n] with P[p, q], one einsum per term of Q
        K = (c * c * np.einsum("abmn,bapq->npqm", R4, R4)
             - c * np.einsum("abmn,bapq->nmqp", R4, R4)
             - c * np.einsum("ij,kl->jkli", rho_B, rho_B)
             + np.einsum("ij,kl->jilk", rho_B, rho_B)).reshape(dB * dB, dB * dB)
        self.K = (K + K.T) / 2.0

    def compressed_purity(self, P: np.ndarray) -> float:
        """Tr(((1xP) rho (1xP))^2), the first term of Q(P)."""
        return float(np.einsum("abmn,np,bapq,qm->", self.R4, P, self.R4, P).real)

    def value(self, P: np.ndarray) -> float:
        """Q(P) for one projector, straight from its definition (the tests' reference)."""
        R4, rho_B, c = self.R4, self.rho_B, self.c
        N = np.einsum("abmn,nm->ab", R4, P)
        t2 = np.einsum("ab,ba->", N, N).real
        BP = rho_B @ P
        t3 = np.trace(BP @ BP).real
        t4 = np.trace(BP).real ** 2
        return float(c * c * self.compressed_purity(P) - c * t2 - c * t3 + t4)

    def gradient(self, U: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(Phi, Q(P), P) with dQ = Tr(Phi dP) at each P = V V^dag, V = U[:, :, :c].

        Phi = 2 reshape(K vec P)^T and Q(P) = vec(P)^T K vec(P); P is
        returned for the eigen-step, which needs it next to Phi.
        """
        R, dB = U.shape[0], self.dB
        V = U[:, :, :self.c]
        P = V @ V.conj().swapaxes(1, 2)
        p = P.reshape(R, 1, dB * dB)
        Kp = p @ self.K
        return 2.0 * Kp.reshape(R, dB, dB).swapaxes(1, 2), (Kp * p).sum(axis=(1, 2)).real, P


def _haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    ph = np.diag(r)
    return q * (ph / np.abs(ph))[None, :]


def _optimize_split(obj: _SplitObjective, config: OptimizerConfig) -> tuple[np.ndarray, np.ndarray, bool, int]:
    """Ascend all restarts in lock-step; returns (values, best U, converged, sweeps).

    Restart 0 starts from the eigenvectors of rho_B in descending order,
    exact for pure states, where the top-c eigenvectors span the Schmidt
    subspace; restart r >= 1 starts from a Haar unitary seeded by
    derive_seed(config.seed, r).  A sweep is one eigen-step of every live
    restart: U becomes the eigenvectors, in descending order, of
    Phi(P) + 2 sigma P at P = V V^dag, V = U[:, :, :c] (the generalized
    power method).  For Hermitian P, Q(P) = vec(P)^dag S K vec(P) with S
    the vec-transpose swap, so with sigma = max(0, -lambda_min(S K)) the
    function Q(P) + sigma ||P||^2 is convex, and on projectors it differs
    from Q by the constant sigma c.  Its linearization at P is maximized by
    the top-c eigenspace of Phi + 2 sigma P (Ky Fan), so no step lowers Q.
    A restart whose step gained less than ``tol`` freezes and leaves the
    batch with the Q of its last U, which is what a run of that restart
    alone gives.  Q after a step is read from the gradient that also serves the next step.
    ``values`` holds every restart's final Q in restart order; the winner
    is the first restart with the largest one.
    """
    dB, R = obj.dB, config.restarts
    w, vecs = np.linalg.eigh(obj.rho_B)
    U = np.empty((R, dB, dB), dtype=complex)
    U[0] = vecs[:, np.argsort(-w)]
    for r in range(1, R):
        U[r] = _haar_unitary(dB, np.random.Generator(np.random.PCG64(derive_seed(config.seed, r))))
    values, final_U = np.empty(R), np.empty_like(U)
    converged = np.zeros(R, dtype=bool)
    live = np.arange(R)
    # S K is K with its rows permuted by the swap (m, n) -> (n, m)
    swap = np.arange(dB * dB).reshape(dB, dB).T.ravel()
    sigma = max(0.0, -float(np.linalg.eigvalsh(obj.K[swap])[0]))
    phi, prev, P = obj.gradient(U)
    sweeps = 0
    while live.size and sweeps < config.max_sweeps:
        sweeps += 1
        U = np.linalg.eigh(phi + 2.0 * sigma * P)[1][:, :, ::-1]
        phi, cur, P = obj.gradient(U)
        done = cur - prev < config.tol
        if done.any():
            values[live[done]] = cur[done]
            final_U[live[done]] = U[done]
            converged[live[done]] = True
            keep = ~done
            live, U, phi, P, cur = live[keep], U[keep], phi[keep], P[keep], cur[keep]
        prev = cur
    # restarts still live ran out of sweeps
    values[live] = prev
    final_U[live] = U
    best = int(np.argmax(values))
    return values, final_U[best], bool(converged[best]), sweeps


# ---------------------------------------------------------------------------
# the monotone itself


def correlation_monotone(state: DensityMatrix, partition, policy: NormalizationPolicy | None = None,
                         config: OptimizerConfig | None = None) -> MonotoneResult:
    """Normalized correlation mass across a bipartition of (some) sites.

    Sites outside the partition are traced out first.  See the module
    docstring for when the split-basis maximization runs.
    """
    omega, sigma = _check_partition(state, partition)
    d_om = prod(state.dims[s] for s in omega)
    d_sg = prod(state.dims[s] for s in sigma)
    if policy is None:
        policy = default_policy(omega, sigma)
    g = policy.resolve(d_om, d_sg)
    considered = tuple(sorted(omega + sigma))
    remap = {site: i for i, site in enumerate(considered)}
    omega_r, sigma_r = tuple(remap[s] for s in omega), tuple(remap[s] for s in sigma)

    if len(omega) > 1 or len(sigma) > 1 or d_om == d_sg:
        raw = (d_om * d_sg * _marginal_purity(state, considered)
               - d_om * _marginal_purity(state, omega) - d_sg * _marginal_purity(state, sigma) + 1.0)
        return MonotoneResult(value=raw / g, g=g, raw=raw, converged=True, restarts=0,
                              delta=0.0, heuristic_max=False, unitary=None,
                              partition=(omega_r, sigma_r))

    # single site vs single site, unequal dimensions: optimize the split
    state = partial_trace(state, considered)
    omega, sigma = omega_r, sigma_r
    small_site, large_site = (omega[0], sigma[0]) if d_om < d_sg else (sigma[0], omega[0])
    config = config or OptimizerConfig()
    values, U, converged, sweeps, compressed = _solve_split(
        state.matrix.tobytes(), state.dims[small_site], state.dims[large_site],
        small_site < large_site, config)
    raw = max(values)
    # (c/(d_B - c)) times the split-basis mass outside the low joint block,
    # which equals c^2 (Tr rho^2 - Tr(((1xP) rho (1xP))^2))
    c = state.dims[small_site]
    delta = c * c * (state.purity() - compressed)
    return MonotoneResult(value=raw / g, g=g, raw=raw, converged=converged,
                          restarts=config.restarts, delta=delta,
                          heuristic_max=not state.is_pure(), unitary=U, partition=(omega, sigma),
                          sweeps=sweeps, restart_values=values)


@lru_cache(maxsize=SPLIT_MEMO_SIZE)
def _solve_split(matrix: bytes, d_small: int, d_large: int, small_first: bool,
                 config: OptimizerConfig) -> tuple[tuple[float, ...], np.ndarray, bool, int, float]:
    """(restart values, best U, converged, sweeps, Tr(((1xP) rho (1xP))^2)) of one split solve.

    The solve is deterministic in its arguments: the bytes of the reduced
    two-site complex matrix, the two dimensions, the site order and the
    frozen config.  It reads no marginal purities, so the fsum re-check
    gets the same answer, and a campaign's precise re-check of a sample
    hits the memo instead of re-running the optimizer.  The cached U is
    read-only.
    """
    n = d_small * d_large
    obj = _SplitObjective(np.frombuffer(matrix, dtype=complex).reshape(n, n),
                          d_small, d_large, small_first)
    values, U, converged, sweeps = _optimize_split(obj, config)
    V = U[:, :d_small]
    U.setflags(write=False)
    return tuple(values.tolist()), U, converged, sweeps, obj.compressed_purity(V @ V.conj().T)


def monotone_pure_exact(state: DensityMatrix, policy: NormalizationPolicy | None = None) -> float:
    """Closed-form monotone for a pure two-site state via its Schmidt spectrum.

    raw = m^2 + 1 - 2 m Tr(rho_A^2) with m the smaller dimension; the
    optimizer reproduces this and never exceeds it.
    """
    if state.n_sites != 2:
        raise ValueError(f"unsupported shape: need 2 sites, got {state.n_sites}")
    if not state.is_pure(PURE_TOL):
        raise NotPureError(f"state purity {state.purity():.12f} is below 1 - {PURE_TOL:g}")
    vec = np.linalg.eigh(state.matrix)[1][:, -1]
    sv = np.linalg.svd(vec.reshape(state.dims), compute_uv=False)
    p_red = float((sv ** 4).sum())
    m = min(state.dims)
    raw = m * m + 1.0 - 2.0 * m * p_red
    if policy is None:
        policy = default_policy((0,), (1,))
    g = policy.resolve(state.dims[0], state.dims[1])
    return raw / g


# ---------------------------------------------------------------------------
# inequality checks


def _require_three_sites(state: DensityMatrix, name: str, equal_first_pair: bool) -> None:
    if state.n_sites != 3:
        raise ValueError(f"unsupported shape for {name}: need 3 sites, got {state.n_sites}")
    if equal_first_pair and state.dims[0] != state.dims[1]:
        raise ValueError(f"unsupported shape for {name}: need equal first-pair dimensions, got {state.dims}")


def check_thm1_i(state: DensityMatrix, config: OptimizerConfig | None = None) -> InequalityReport:
    """Monogamy of the monotone: T(A|E) + T(B|E) <= (g_ABE/min(g_AE, g_BE)) T(AB|E)."""
    _require_three_sites(state, "monogamy check", equal_first_pair=True)
    t_ae = correlation_monotone(state, ((0,), (2,)), config=config)
    t_be = correlation_monotone(state, ((1,), (2,)), config=config)
    t_abe = correlation_monotone(state, ((0, 1), (2,)))
    coeff = t_abe.g / min(t_ae.g, t_be.g)
    lhs = t_ae.value + t_be.value
    rhs = coeff * t_abe.value
    return report_from_sides("thm1i", lhs, rhs,
                             extras={"t_ae": t_ae.value, "t_be": t_be.value,
                                     "t_abe": t_abe.value, "coefficient": coeff})


def _eve_bound(d: int, d_e: int, p_ab: float) -> float:
    """(d^4 + 1 - 2 d^2 P_AB) / g_ABE from the AB purity P_AB = Tr(rho_AB^2)."""
    if d_e < 2:
        raise ValueError(f"invalid environment dimension {d_e}: need d_E >= 2")
    g_abe = (d * d - 1) * (d_e - 1)
    return float((d ** 4 + 1 - 2.0 * d * d * p_ab) / g_abe)


def eve_bound(state_ab: DensityMatrix, d_e: int) -> float:
    """Upper bound on T(AB|E) from the AB marginal alone (d_A = d_B = d).

    (d^4 - 1 - 2||T^A||^2 - 2||T^B||^2 - 2||T^AB||^2) / ((d^2-1)(d_E-1)),
    which the purity identity turns into (d^4 + 1 - 2 d^2 Tr(rho_AB^2)) / g_ABE.
    """
    if state_ab.n_sites != 2 or state_ab.dims[0] != state_ab.dims[1]:
        raise ValueError(f"unsupported shape for eve bound: need two equal sites, got {state_ab.dims}")
    return _eve_bound(state_ab.dims[0], d_e, _marginal_purity(state_ab, (0, 1)))


def check_thm1_ii(state: DensityMatrix) -> InequalityReport:
    """T(AB|E) cannot exceed the bound computed from the AB marginal."""
    _require_three_sites(state, "marginal bound check", equal_first_pair=True)
    t_abe = correlation_monotone(state, ((0, 1), (2,)))
    # P_AB comes from the state's own purity table, which T(AB|E) just filled
    bound = _eve_bound(state.dims[0], state.dims[2], _marginal_purity(state, (0, 1)))
    return report_from_sides("thm1ii", t_abe.value, bound,
                             extras={"t_abe": t_abe.value, "g": t_abe.g})


def excess(value: float, d: int) -> float:
    """Scaled exceedance d (value - 1) of the separable ceiling."""
    return float(d) * (float(value) - 1.0)


def check_lemma5(state: DensityMatrix, config: OptimizerConfig | None = None) -> InequalityReport:
    """Growth under extension: (g_AB/g_ABE) T(A|B) <= T(A|BE)."""
    if state.n_sites != 3:
        raise ValueError(f"unsupported shape: need 3 sites, got {state.n_sites}")
    t_ab = correlation_monotone(state, ((0,), (1,)), config=config)
    t_abe = correlation_monotone(state, ((0,), (1, 2)))
    lhs = (t_ab.g / t_abe.g) * t_ab.value
    return report_from_sides("lemma5", lhs, t_abe.value,
                             extras={"t_ab": t_ab.value, "t_a_be": t_abe.value})


def lemma6_bounds(d: int, d_e: int, t: float) -> tuple[float, float]:
    """Bounds on the local Bloch mass ||T^A||^2 + ||T^B||^2 given t = T(A|B).

    Returns (lower, upper) = (max(0, d^2/d_E - 1 - (d^2-1) t),
    min(2d - 2, (d^2-1)(1 - t))) for a d x d pair with a d_E-dimensional
    purifying environment.
    """
    if d < 2:
        raise ValueError(f"invalid dimension {d}: need d >= 2")
    if d_e < 1:
        raise ValueError(f"invalid environment dimension {d_e}: need d_E >= 1")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"monotone value {t!r} outside [0, 1]")
    g = d * d - 1
    upper = min(2.0 * d - 2.0, g * (1.0 - t))
    lower = max(0.0, d * d / d_e - 1.0 - g * t)
    return float(lower), float(upper)


def check_lemma6(state_ab: DensityMatrix, d_e: int | None = None) -> InequalityReport:
    """Sandwich ||T^A||^2 + ||T^B||^2 between the bounds set by T(A|B)."""
    if state_ab.n_sites != 2 or state_ab.dims[0] != state_ab.dims[1]:
        raise ValueError(f"unsupported shape for sandwich check: need two equal sites, got {state_ab.dims}")
    d = state_ab.dims[0]
    if d_e is None:
        d_e = d * d
    # ||T^A||^2 + ||T^B||^2 by the purity identity on each site
    local = d * (_marginal_purity(state_ab, (0,)) + _marginal_purity(state_ab, (1,))) - 2.0
    t = correlation_monotone(state_ab, ((0,), (1,))).value
    lower, upper = lemma6_bounds(d, d_e, min(max(t, 0.0), 1.0))
    slack = min(local - lower, upper - local)
    return InequalityReport(
        inequality="lemma6",
        lhs=lower,
        rhs=upper,
        slack=float(slack),
        holds=bool(slack >= -SLACK_TOL),
        extras={"local_mass": float(local), "t": float(t), "d_e": int(d_e)},
    )
