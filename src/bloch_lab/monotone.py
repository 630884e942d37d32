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
  The maximum is searched by random-restart coordinate ascent over complex
  Givens rotations of the larger site's unitary, each move solved exactly
  (``_best_moves``), with all restarts ascending in lock-step as one
  stacked batch (``_optimize_split``).

The reported value divides the raw mass by a normalization g chosen by a
``NormalizationPolicy``; by default g = d_min^2 - 1 between single sites
(unit range) and g = (d_Omega - 1)(d_Sigma - 1) when a group is composite
(separable bound).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, prod
from numbers import Integral

import numpy as np

from .correlation import _marginal_purity
from .errors import NotPureError
from .reports import SLACK_TOL, InequalityReport, report_from_sides
from .states import DensityMatrix, derive_seed, partial_trace

PURE_TOL = 1e-10


@dataclass(frozen=True)
class NormalizationPolicy:
    """How to pick the denominator g.

    rule "unit-range" gives d_min^2 - 1, "separable-bound" gives
    (d_Omega - 1)(d_Sigma - 1), "explicit" uses ``value`` directly.
    """

    rule: str = "unit-range"
    value: float | None = None

    def resolve(self, d_omega: int, d_sigma: int) -> float:
        if self.rule == "unit-range":
            m = min(d_omega, d_sigma)
            return float(m * m - 1)
        if self.rule == "separable-bound":
            return float((d_omega - 1) * (d_sigma - 1))
        if self.rule == "explicit":
            if self.value is None or self.value <= 0:
                raise ValueError(f"explicit normalization needs a positive value, got {self.value!r}")
            return float(self.value)
        raise ValueError(f"unknown normalization rule {self.rule!r}")


def default_policy(omega, sigma) -> NormalizationPolicy:
    """Unit range between single sites, separable bound for composite groups."""
    if len(omega) == 1 and len(sigma) == 1:
        return NormalizationPolicy("unit-range")
    return NormalizationPolicy("separable-bound")


@dataclass(frozen=True)
class OptimizerConfig:
    """Coordinate-ascent settings for the split-basis maximization."""

    restarts: int = 32
    max_sweeps: int = 500
    tol: float = 1e-10
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
    marks optimized values on mixed states, where coordinate ascent only
    certifies a lower bound on the true maximum.  ``sweeps`` counts the
    lock-step sweeps the optimizer ran and ``restart_values`` holds each
    restart's final objective value, in restart order; they stay 0 and ()
    when no optimization ran.

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
    omega = tuple(sorted(int(s) for s in omega))
    sigma = tuple(sorted(int(s) for s in sigma))
    n = state.n_sites
    if not omega or not sigma:
        raise ValueError("invalid partition: both groups must be non-empty")
    allsites = omega + sigma
    if len(set(allsites)) != len(allsites):
        raise ValueError(f"invalid partition: groups {omega} and {sigma} overlap")
    if any(not 0 <= s < n for s in allsites):
        raise ValueError(f"invalid partition: site out of range for {n} sites")
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
# d_B^2 x d_B^2 matrix K, built once per call.  The gradient, the move forms
# and the reported raw mass all read K.  Every step below acts on a stack of
# restarts at once (U is an (R, d_B, d_B) array), and every product with K
# is taken per restart, so no restart's arithmetic depends on the others.

# generators G_k of a Givens move in the two-column frame
_GENS = np.array([[[-1.0, 0.0], [0.0, 1.0]],
                  [[0.0, 1.0], [1.0, 0.0]],
                  [[0.0, -1.0j], [1.0j, 0.0]]], dtype=complex)


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

    def gradient(self, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Phi with dQ = Tr(Phi dP) at each P = V V^dag, V = U[:, :, :c].

        Phi = 2 reshape(K vec P)^T, and Q(P) = vec(P)^T K vec(P) is
        returned with it.
        """
        R, dB = U.shape[0], self.dB
        V = U[:, :, :self.c]
        p = (V @ V.conj().swapaxes(1, 2)).reshape(R, 1, dB * dB)
        Kp = p @ self.K
        return 2.0 * Kp.reshape(R, dB, dB).swapaxes(1, 2), (Kp * p).sum(axis=(1, 2)).real

    def move_forms(self, phi: np.ndarray, U: np.ndarray, p: int, q: int):
        """Linear and quadratic coefficients of a Givens move on columns (p, q).

        The move changes P by sum_k x_k T_k, T_k = W G_k W^dag with
        W = U[:, :, (p, q)], so its gain is a.x + x^T b x with
        a_k = Tr(Phi T_k) and b = T K T^T, T the rows vec(T_k).  Returns
        (a, b) stacked over restarts.
        """
        R, n = U.shape[0], self.dB * self.dB
        W = U[:, :, (p, q)]
        T = (W[:, None] @ _GENS @ W.conj().swapaxes(1, 2)[:, None]).reshape(R, 3, n)
        a = (T @ phi.swapaxes(1, 2).reshape(R, n, 1))[:, :, 0].real
        return a, (T @ self.K @ T.swapaxes(1, 2)).real


_J = np.array([-1.0, 1.0, 1.0])
_JJ = np.outer(_J, _J)


def _best_moves(lin, quad) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximize a stack of move polynomials exactly; returns (gain, theta, phi).

    Each gain is a.x + x^T b x with x = (sin^2 t, sin t cos t cos f,
    sin t cos t sin f).  Substituting x = (e_0 + J n)/2, J = diag(-1, 1, 1),
    with the unit vector n = (cos 2t, sin 2t cos f, sin 2t sin f) turns it
    into const + g.n + n^T M n over the sphere S^2, M = J b J / 4,
    g = J (a + b e_0) / 2.  With M = V diag(mu) V^T the global maximizer is
    n = V y, y_i = gamma_i / (lam - mu_i), gamma = V^T g / 2, where
    lam >= mu_max solves the secular equation ||y(lam)|| = 1; Newton on
    1/||y|| - 1, which is concave and increasing in lam, is safeguarded by
    bisection.  In the hard case gamma has no component along the top
    eigenvector and ||y(mu_max)|| <= 1: then lam = mu_max and the rest of
    the unit length goes along the top eigenvector.  A non-positive gain
    gives (0, 0, 0), the identity move.  Every row is solved on its own:
    no result depends on the other rows of the stack.
    """
    a = np.asarray(lin, dtype=float)
    b = np.asarray(quad, dtype=float)
    mu, V = np.linalg.eigh(b * _JJ / 4.0)
    top = V[:, :, 2]
    # a fixed sign makes the hard case reproducible
    top[top[np.arange(len(top)), np.argmax(np.abs(top), axis=1)] < 0.0] *= -1.0
    gamma = (V.swapaxes(1, 2) @ (_J * (a + b[:, :, 0]))[:, :, None])[:, :, 0] / 4.0
    d = mu[:, 2:] - mu  # distance below mu_max, exactly 0 for the top one

    def solve(t, gamma, d):
        # y(t) = gamma / (t + d), where a zero denominator only meets a zero numerator
        den = t[:, None] + d
        pos = den > 0.0
        den = np.where(pos, den, 1.0)
        y = np.where(pos, gamma / den, 0.0)
        return y, np.sqrt((y * y).sum(axis=1)), den

    # the root t = lam - mu_max lies in [max(0, |gamma_i| - d_i), ||gamma||]
    lo = np.maximum(0.0, (np.abs(gamma) - d).max(axis=1))
    y, norm, _ = solve(lo, gamma, d)
    hard = (lo == 0.0) & (norm <= 1.0)
    # hard case: the rest of the unit length goes along the top eigenvector
    y[hard, 2] = np.sqrt(np.maximum(0.0, 1.0 - norm[hard] ** 2))
    sel = np.flatnonzero(~hard)
    if sel.size:
        gamma, d, lo = gamma[sel], d[sel], lo[sel]
        t, hi = lo, np.maximum(lo, np.sqrt((gamma * gamma).sum(axis=1)))
        ys, norm, den = solve(t, gamma, d)
        active = np.ones(sel.size, dtype=bool)
        for _ in range(100):
            f = 1.0 / norm - 1.0
            hi = np.where(f >= 0.0, t, hi)
            lo = np.where(f < 0.0, t, lo)
            slope = (ys * ys / den).sum(axis=1) / norm ** 3
            step = t - f / slope
            step = np.where((lo < step) & (step < hi), step, 0.5 * (lo + hi))
            active &= (np.abs(f) > 1e-15) & (step != t)
            if not active.any():
                break
            # a finished row keeps its t, so solving it again reproduces its y
            t = np.where(active, step, t)
            ys, norm, den = solve(t, gamma, d)
        y[sel] = ys
    n = (V @ y[:, :, None])[:, :, 0]
    theta = 0.5 * np.arctan2(np.hypot(n[:, 1], n[:, 2]), n[:, 0])
    ph = np.arctan2(n[:, 2], n[:, 1])
    st, ct = np.sin(theta), np.cos(theta)
    x = np.stack((st * st, st * ct * np.cos(ph), st * ct * np.sin(ph)), axis=1)
    gain = (x * (a + (b @ x[:, :, None])[:, :, 0])).sum(axis=1)
    move = gain > 0.0
    return np.where(move, gain, 0.0), np.where(move, theta, 0.0), np.where(move, ph, 0.0)


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
    derive_seed(config.seed, r).  A sweep makes one Givens move on every
    column pair (p, q), p < c <= q, for all live restarts at once.  A
    restart whose sweep gained less than ``tol`` freezes and leaves the
    batch; its value and U are what a run of that restart alone gives.  Q
    at the end of a sweep is read from the gradient that also serves the
    next sweep's first move.  ``values`` holds every restart's final Q in
    restart order; the winner is the first restart with the largest one.
    """
    c, dB, R = obj.c, obj.dB, config.restarts
    w, vecs = np.linalg.eigh(obj.rho_B)
    U = np.empty((R, dB, dB), dtype=complex)
    U[0] = vecs[:, np.argsort(-w)]
    for r in range(1, R):
        U[r] = _haar_unitary(dB, np.random.Generator(np.random.PCG64(derive_seed(config.seed, r))))
    values, final_U = np.empty(R), np.empty_like(U)
    converged = np.zeros(R, dtype=bool)
    live = np.arange(R)
    pairs = [(p, q) for p in range(c) for q in range(c, dB)]
    phi, prev = obj.gradient(U)
    sweeps = 0
    while live.size and sweeps < config.max_sweeps:
        sweeps += 1
        for k, (p, q) in enumerate(pairs):
            if k:
                phi, _ = obj.gradient(U)
            _, theta, ph = _best_moves(*obj.move_forms(phi, U, p, q))
            # a declined move has theta = ph = 0 and leaves the columns exactly as they are
            ct, st = np.cos(theta)[:, None], np.sin(theta)[:, None]
            e = np.exp(1j * ph)[:, None]
            u, v = U[:, :, p], U[:, :, q]
            U[:, :, p], U[:, :, q] = ct * u + e * st * v, -np.conj(e) * st * u + ct * v
        phi, cur = obj.gradient(U)
        done = cur - prev < config.tol
        values[live[done]] = np.maximum(cur, prev)[done]
        final_U[live[done]] = U[done]
        converged[live[done]] = True
        keep = ~done
        live, U, phi, prev = live[keep], U[keep], phi[keep], cur[keep]
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
    dims = state.dims
    omega, sigma = omega_r, sigma_r
    small_site, large_site = (omega[0], sigma[0]) if d_om < d_sg else (sigma[0], omega[0])
    small_first = small_site < large_site
    d_small = dims[small_site]
    d_large = dims[large_site]
    obj = _SplitObjective(state.matrix, d_small, d_large, small_first)
    config = config or OptimizerConfig()
    values, U, converged, sweeps = _optimize_split(obj, config)
    raw = float(values.max())
    # (c/(d_B - c)) times the split-basis mass outside the low joint block,
    # which equals c^2 (Tr rho^2 - Tr(((1xP) rho (1xP))^2))
    V = U[:, :d_small]
    delta = d_small * d_small * (state.purity() - obj.compressed_purity(V @ V.conj().T))
    return MonotoneResult(value=raw / g, g=g, raw=raw, converged=converged,
                          restarts=config.restarts, delta=float(delta),
                          heuristic_max=not state.is_pure(), unitary=U, partition=(omega, sigma),
                          sweeps=sweeps, restart_values=tuple(values.tolist()))


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
