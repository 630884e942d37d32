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
  split basis with cut equal to the smaller dimension.  The maximum is
  searched by random-restart coordinate ascent over complex Givens
  rotations of the larger site's unitary.  Each Givens move is solved
  exactly: its gain a.x + x^T b x, x = (sin^2 t, sin t cos t cos f,
  sin t cos t sin f), becomes a quadratic over the unit sphere under
  x = (e_0 + J n)/2 with J = diag(-1, 1, 1), maximized by one 3x3
  eigendecomposition and a secular-equation solve (with the trust-region
  "hard case" when the linear term misses the top eigenvector).

The reported value divides the raw mass by a normalization g chosen by a
``NormalizationPolicy``; by default g = d_min^2 - 1 between single sites
(unit range) and g = (d_Omega - 1)(d_Sigma - 1) when a group is composite
(separable bound).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import atan2, cos, hypot, prod, sin, sqrt

import numpy as np

from .correlation import (_marginal_purity, bases_with_split, bloch_coefficients,
                          split_sector_norms)
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


@dataclass
class MonotoneResult:
    """Monotone value plus how it was obtained.

    ``unitary`` is the basis change on the larger site whose first ``cut``
    columns span the selected subspace (None when no optimization ran).
    ``delta`` is the weighted coefficient mass discarded outside that
    subspace; it vanishes at the optimum for pure states.  ``heuristic_max``
    marks optimized values on mixed states, where coordinate ascent only
    certifies a lower bound on the true maximum.
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
# B, the doubly-traceless coefficient mass equals
#
#   Q(P) = c d_A Tr(rho (1xP) rho (1xP)) - d_A Tr(N^2) - c Tr(rho_B P rho_B P)
#          + Tr(rho_B P)^2,          N = Tr_B(rho (1xP)),
#
# which is quadratic in P, so a Givens move on two columns of U changes Q
# by a closed-form trigonometric polynomial in the move angles.

# generators (K, E1, E2) of a Givens move in the two-column frame
_GENS = np.array([[[-1.0, 0.0], [0.0, 1.0]],
                  [[0.0, 1.0], [1.0, 0.0]],
                  [[0.0, -1.0j], [1.0j, 0.0]]], dtype=complex)
# Tr(X G_k) = vec(X) . _TRACE_GEN[:, k]
_TRACE_GEN = _GENS.transpose(2, 1, 0).reshape(4, 3)
# for a 2x2-block pair A (x) B flattened to 16 entries, the 3x3 arrays
# Tr(A G_k B G_l) and Tr(A G_k) Tr(B G_l)
_CROSS_GEN = np.einsum("kbc,lda->abcdkl", _GENS, _GENS).reshape(16, 9)
_PRODUCT_GEN = np.einsum("kba,ldc->abcdkl", _GENS, _GENS).reshape(16, 9)


class _SplitObjective:
    def __init__(self, matrix: np.ndarray, d_small: int, d_large: int, small_first: bool):
        dA, dB = d_small, d_large
        shaped = (matrix.reshape(dA, dB, dA, dB).transpose(0, 2, 1, 3) if small_first
                  else matrix.reshape(dB, dA, dB, dA).transpose(1, 3, 0, 2))
        # R4[a, a', b, b'] = rho[(a b), (a' b')] with a on the small site
        self.R4 = np.ascontiguousarray(shaped)
        self.rho_B = np.einsum("aabc->bc", self.R4)
        self.dA = dA
        self.dB = dB
        self.c = dA

    def value(self, P: np.ndarray) -> float:
        R4, rho_B, c, dA = self.R4, self.rho_B, self.c, self.dA
        t1 = np.einsum("abmn,np,bapq,qm->", R4, P, R4, P).real
        N = np.einsum("abmn,nm->ab", R4, P)
        t2 = np.einsum("ab,ba->", N, N).real
        BP = rho_B @ P
        t3 = np.trace(BP @ BP).real
        t4 = np.trace(BP).real ** 2
        return float(c * dA * t1 - dA * t2 - c * t3 + t4)

    def gradient(self, P: np.ndarray) -> tuple[np.ndarray, float]:
        """Hermitian Phi with dQ = Tr(Phi dP); also returns Q(P) = Tr(Phi P)/2."""
        R4, rho_B, c, dA = self.R4, self.rho_B, self.c, self.dA
        phi1 = np.einsum("yxmp,pq,xyqn->mn", R4, P, R4)
        NP = np.einsum("abmn,nm->ab", R4, P)
        phi2 = np.einsum("yx,xymp->mp", NP, R4)
        phi3 = rho_B @ P @ rho_B
        phi4 = np.trace(rho_B @ P).real * rho_B
        phi = 2.0 * (c * dA * phi1 - dA * phi2 - c * phi3 + phi4)
        q0 = 0.5 * np.trace(phi @ P).real
        return phi, float(q0)

    def move_forms(self, phi: np.ndarray, u: np.ndarray, v: np.ndarray):
        """Linear and quadratic coefficients of a Givens move on columns (u, v).

        The move changes P by W (x_0 K + x_1 E1 + x_2 E2) W^dag with W = [u v],
        so its gain is a.x + x^T b x with a_k = Tr(Phi~ G_k) and b_kl the
        objective's bilinear form on (G_k, G_l), all in the W frame (~).
        Each term of that form is a cross contraction Tr(A G_k B G_l) or a
        product Tr(A G_k) Tr(B G_l) of a block pair: t1 and t2 of
        sum_xy R~[x,y] (x) R~[y,x], t3 and t4 of rho_B~ (x) rho_B~.
        """
        W = np.array((u, v)).T
        Wh = W.conj().T
        a = ((Wh @ phi @ W).reshape(4) @ _TRACE_GEN).real
        Rt = Wh @ self.R4 @ W
        pair_r = Rt.reshape(-1, 4).T @ Rt.transpose(1, 0, 2, 3).reshape(-1, 4)
        rho_t = (Wh @ self.rho_B @ W).reshape(4)
        pair_rho = np.outer(rho_t, rho_t)
        c, dA = self.c, self.dA
        b = ((c * dA * pair_r - c * pair_rho).reshape(16) @ _CROSS_GEN
             + (pair_rho - dA * pair_r).reshape(16) @ _PRODUCT_GEN)
        return a, b.real.reshape(3, 3)


_J = np.array([-1.0, 1.0, 1.0])
_JJ = np.outer(_J, _J)


def _best_move(lin, quad) -> tuple[float, float, float]:
    """Maximize the move polynomial exactly; returns (gain, theta, phi).

    The gain is a.x + x^T b x with x = (sin^2 t, sin t cos t cos f,
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
    returns (0, 0, 0), the identity move.
    """
    a = np.asarray(lin, dtype=float)
    b = np.asarray(quad, dtype=float)
    mu, V = np.linalg.eigh(b * _JJ / 4.0)
    if V[np.argmax(np.abs(V[:, 2])), 2] < 0.0:
        V[:, 2] = -V[:, 2]  # a fixed sign makes the hard case reproducible
    # the 3-vector algebra below runs on Python floats, which beats numpy
    # calls at this size
    gamma = (V.T @ (_J * (a + b[:, 0])) / 4.0).tolist()  # V^T g / 2
    d = (float(mu[2] - mu[0]), float(mu[2] - mu[1]), 0.0)  # distance below mu_max

    def solve(t: float) -> tuple[list[float], float]:
        # y(t) = gamma / (t + d), where a zero denominator only meets a zero numerator
        y = [gi / (t + di) if t + di > 0.0 else 0.0 for gi, di in zip(gamma, d)]
        return y, sqrt(sum(yi * yi for yi in y))

    # the root t = lam - mu_max lies in [max(0, |gamma_i| - d_i), ||gamma||]
    lo = max(0.0, *(abs(gi) - di for gi, di in zip(gamma, d)))
    hi = max(lo, sqrt(sum(gi * gi for gi in gamma)))
    y, norm = solve(lo)
    if lo == 0.0 and norm <= 1.0:
        # hard case: the rest of the unit length goes along the top eigenvector
        y[2] = sqrt(max(0.0, 1.0 - norm * norm))
    else:
        t = lo
        for _ in range(100):
            f = 1.0 / norm - 1.0
            if f >= 0.0:
                hi = t
            else:
                lo = t
            if abs(f) <= 1e-15:
                break
            slope = sum(yi * yi / (t + di) for yi, di in zip(y, d) if yi) / norm ** 3
            step = t - f / slope
            if not lo < step < hi:
                step = 0.5 * (lo + hi)
            if step == t:
                break
            t = step
            y, norm = solve(t)
    n0, n1, n2 = (sum(vi * yi for vi, yi in zip(row, y)) for row in V.tolist())
    theta = 0.5 * atan2(hypot(n1, n2), n0)
    ph = atan2(n2, n1)
    st, ct = sin(theta), cos(theta)
    x = (st * st, st * ct * cos(ph), st * ct * sin(ph))
    gain = sum(xi * (ai + sum(bij * xj for bij, xj in zip(row, x)))
               for xi, ai, row in zip(x, a.tolist(), b.tolist()))
    if not gain > 0.0:
        return 0.0, 0.0, 0.0
    return gain, theta, ph


def _ascend(obj: _SplitObjective, U0: np.ndarray, config: OptimizerConfig) -> tuple[float, np.ndarray, bool]:
    c, dB = obj.c, obj.dB
    U = U0.copy()
    P = U[:, :c] @ U[:, :c].conj().T
    prev = obj.value(P)
    converged = False
    for _ in range(config.max_sweeps):
        for p in range(c):
            for q in range(c, dB):
                phi, _ = obj.gradient(P)
                u, v = U[:, p], U[:, q]
                lin, quad = obj.move_forms(phi, u, v)
                gain, theta, ph = _best_move(lin, quad)
                if gain <= 0.0:
                    continue
                ct, st = np.cos(theta), np.sin(theta)
                e = np.exp(1j * ph)
                new_u = ct * u + e * st * v
                new_v = -np.conj(e) * st * u + ct * v
                U[:, p], U[:, q] = new_u, new_v
                P = U[:, :c] @ U[:, :c].conj().T
        cur = obj.value(P)
        if cur - prev < config.tol:
            converged = True
            prev = max(cur, prev)
            break
        prev = cur
    return float(prev), U, converged


def _haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    ph = np.diag(r)
    return q * (ph / np.abs(ph))[None, :]


def _optimize_split(obj: _SplitObjective, config: OptimizerConfig) -> tuple[float, np.ndarray, bool, int]:
    w, vecs = np.linalg.eigh(obj.rho_B)
    # restart 0: columns ordered by descending eigenvalue of rho_B;
    # exact for pure states, where the top-c eigenvectors span the Schmidt subspace
    inits = [vecs[:, np.argsort(-w)]]
    best_q, best_u, best_conv = -np.inf, None, False
    restarts = max(1, int(config.restarts))
    for r in range(restarts):
        if r < len(inits):
            U0 = inits[r]
        else:
            rng = np.random.Generator(np.random.PCG64(derive_seed(config.seed, r)))
            U0 = _haar_unitary(obj.dB, rng)
        q, U, conv = _ascend(obj, U0, config)
        if q > best_q:
            best_q, best_u, best_conv = q, U, conv
    return best_q, best_u, best_conv, restarts


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
    _, U, converged, restarts = _optimize_split(obj, config)

    # evaluate the reported value from actual split coefficients at U
    rot = np.kron(U, np.eye(d_small)) if not small_first else np.kron(np.eye(d_small), U)
    rotated = DensityMatrix(dims, rot.conj().T @ state.matrix @ rot)
    bases = bases_with_split(dims, large_site, d_small)
    norms = split_sector_norms(bloch_coefficients(rotated, bases))
    raw = norms.low_joint
    high_mass = norms.c0p + norms.high_canonical + norms.high_split + norms.high_joint
    delta = (d_small / (d_large - d_small)) * high_mass
    return MonotoneResult(value=raw / g, g=g, raw=raw, converged=converged, restarts=restarts,
                          delta=float(delta), heuristic_max=not state.is_pure(),
                          unitary=U, partition=(omega, sigma))


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


def check_thm1_i(state: DensityMatrix, config: OptimizerConfig | None = None,
                 state_ref: str | None = None) -> InequalityReport:
    """Monogamy of the monotone: T(A|E) + T(B|E) <= (g_ABE/min(g_AE, g_BE)) T(AB|E)."""
    _require_three_sites(state, "monogamy check", equal_first_pair=True)
    t_ae = correlation_monotone(state, ((0,), (2,)), config=config)
    t_be = correlation_monotone(state, ((1,), (2,)), config=config)
    t_abe = correlation_monotone(state, ((0, 1), (2,)))
    coeff = t_abe.g / min(t_ae.g, t_be.g)
    lhs = t_ae.value + t_be.value
    rhs = coeff * t_abe.value
    return report_from_sides("thm1i", lhs, rhs, state_ref=state_ref,
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


def check_thm1_ii(state: DensityMatrix, state_ref: str | None = None) -> InequalityReport:
    """T(AB|E) cannot exceed the bound computed from the AB marginal."""
    _require_three_sites(state, "marginal bound check", equal_first_pair=True)
    t_abe = correlation_monotone(state, ((0, 1), (2,)))
    # P_AB comes from the state's own purity table, which T(AB|E) just filled
    bound = _eve_bound(state.dims[0], state.dims[2], _marginal_purity(state, (0, 1)))
    return report_from_sides("thm1ii", t_abe.value, bound, state_ref=state_ref,
                             extras={"t_abe": t_abe.value, "g": t_abe.g})


def excess(value: float, d: int) -> float:
    """Scaled exceedance d (value - 1) of the separable ceiling."""
    return float(d) * (float(value) - 1.0)


def check_lemma5(state: DensityMatrix, config: OptimizerConfig | None = None,
                 state_ref: str | None = None) -> InequalityReport:
    """Growth under extension: (g_AB/g_ABE) T(A|B) <= T(A|BE)."""
    if state.n_sites != 3:
        raise ValueError(f"unsupported shape: need 3 sites, got {state.n_sites}")
    t_ab = correlation_monotone(state, ((0,), (1,)), config=config)
    t_abe = correlation_monotone(state, ((0,), (1, 2)))
    lhs = (t_ab.g / t_abe.g) * t_ab.value
    return report_from_sides("lemma5", lhs, t_abe.value, state_ref=state_ref,
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


def check_lemma6(state_ab: DensityMatrix, d_e: int | None = None,
                 state_ref: str | None = None) -> InequalityReport:
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
        state_ref=state_ref,
        extras={"local_mass": float(local), "t": float(t), "d_e": int(d_e)},
    )
