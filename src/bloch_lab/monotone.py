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
  The maximum is searched by eigen-steps from restarts (rho_B's
  eigenvectors, then Haar unitaries drawn once per size and seed): each
  step moves P to the top-c eigenvectors of the gradient plus a shift
  times P, with all restarts ascending in lock-step as one stacked batch
  (``_optimize_split``).  The batch may hold the restarts of several
  objectives with the same dimensions and site order -- thm1i's A|E and
  B|E ascend together -- and each objective's result is bit for bit the
  one it gets alone; a single pair is a stack of one.  A restart's shift
  starts at a quarter of the worst-case shift that makes every step an
  ascent, and doubles, up to it, in place of a step that would lower Q.
  The last stacked solve is memoized on the tuple of traced marginals'
  bytes and the optimizer settings (``_solve_split``), so re-checking a
  state right after its check repeats no ascent.

The reported value divides the raw mass by a normalization g chosen by a
``NormalizationPolicy``; by default g = d_min^2 - 1 between single sites
(unit range) and g = (d_Omega - 1)(d_Sigma - 1) when a group is composite
(separable bound).  Both defaults are written once, in ``_g``, which gives g
as an int: the public ``resolve`` returns it as a float, and the check
formulas read it directly.

The check formulas at the end of this module are generic over the numbers
their purity table holds.  Each keeps small integers as ints and takes every
other constant (``P.ratio``) and every elementwise min and max (``P.min``,
``P.max``) from the table, so on a float table it returns plain floats, bit
for bit those of the float-only formulas it replaced, and on a table of
Fractions or of (N,) arrays it returns Fractions or arrays.  A split pair's
value comes from the optimizer and stays a float.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod

import numpy as np

from .errors import NotPureError
from .reports import InequalityReport, _report, _require_applicable
from .states import (PURITY_TOL, DensityMatrix, _check_count, _check_partition, _check_real, _is_pure,
                     _marginal, _PurityTable, derive_seed)

# stacked split solves kept by _solve_split: the most that one check makes
# on one sample (thm1i solves A|E and B|E as one stack, lemma5 solves A|B),
# so a re-check of that sample right after it repeats no ascent, while any
# other repeat misses
SPLIT_MEMO_SIZE = 1
# each restart's first shift as a fraction of sigma (0.25 took the fewest
# sweeps in a survey; at 0.15 or less the slowest solves grew)
SHIFT_START = 0.25
# a restart whose taken step gains less than this freezes
STEP_TOL = 1e-12


@dataclass(frozen=True)
class NormalizationPolicy:
    """How to pick the denominator g.

    rule "unit-range" gives d_min^2 - 1, "separable-bound" gives (d_Omega - 1)(d_Sigma - 1),
    "explicit" uses ``value``, a finite real > 0 that only this rule takes (checked when built).
    """

    rule: str = "unit-range"
    value: float | None = None

    def __post_init__(self):
        if self.rule not in ("unit-range", "separable-bound", "explicit"):
            raise ValueError(f"unknown normalization rule {self.rule!r}")
        if self.rule == "explicit":
            object.__setattr__(self, "value", _check_real("normalization g", self.value, above=0.0))
        elif self.value is not None:
            raise ValueError(f"{self.rule} normalization takes no value, got {self.value!r}")

    def resolve(self, d_omega: int, d_sigma: int) -> float:
        """g for groups of these dimensions; raises unless g > 0 (a group of dimension 1 gives 0)."""
        return self.value if self.rule == "explicit" else float(_g(self.rule, d_omega, d_sigma))


def _g(rule: str, d_omega: int, d_sigma: int) -> int:
    """The int g of the rule "unit-range" or "separable-bound" for groups of these dimensions;
    ValueError unless g > 0.  Formulas call it directly, so their g keeps the table's number type."""
    g = min(d_omega, d_sigma) ** 2 - 1 if rule == "unit-range" else (d_omega - 1) * (d_sigma - 1)
    if g <= 0:
        raise ValueError(f"{rule} normalization needs a positive g, got {g!r} "
                         f"for group dimensions ({d_omega}, {d_sigma})")
    return g


_UNIT_RANGE, _SEPARABLE_BOUND = NormalizationPolicy("unit-range"), NormalizationPolicy("separable-bound")


def default_policy(omega, sigma) -> NormalizationPolicy:
    """Unit range between single sites, separable bound for composite groups."""
    return _UNIT_RANGE if len(omega) == 1 and len(sigma) == 1 else _SEPARABLE_BOUND


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings for the split-basis maximization.

    ``max_sweeps`` caps the eigen-steps per restart; a restart whose step
    gains less than ``STEP_TOL`` freezes.  Each field is stored as an int.
    """

    restarts: int = 32
    max_sweeps: int = 500
    seed: int = 0

    def __post_init__(self):
        for name, least in (("restarts", 1), ("max_sweeps", 1), ("seed", None)):
            object.__setattr__(self, name, _check_count(name, getattr(self, name), least))


@dataclass
class MonotoneResult:
    """Monotone value plus how it was obtained.

    ``unitary`` is the basis change on the larger site whose first ``cut``
    columns span the selected subspace (None when no optimization ran).
    ``delta`` is the weighted coefficient mass discarded outside that
    subspace; it vanishes at the optimum for pure states.  ``heuristic_max``
    marks optimized values on mixed states, where the ascent only
    certifies a lower bound on the true maximum.  ``sweeps`` counts the
    lock-step eigen-steps the optimizer ran until this pair's last restart
    froze (in a stack of pairs solved together, this pair's own count, not
    the stack's) and ``restart_values`` holds each restart's final
    objective value, in restart order; they stay 0 and () when no
    optimization ran.

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
    sweeps: int = 0
    restart_values: tuple[float, ...] = ()


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
# d_B^2 x d_B^2 matrix K, built once per traced marginal.  The gradient,
# the step's shift and the reported raw mass all read K.  Every step below
# acts on a stack of restarts at once (U is an (R, d_B, d_B) array, over
# one or more objectives), and every product with K is taken per restart,
# so no restart's arithmetic depends on the others.


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


def _gradient(K: np.ndarray, c: int, U: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Phi, Q(P), P) with dQ = Tr(Phi dP) at each P = V V^dag, V = U[:, :, :c].

    K is one objective's matrix, or one per restart stacked along axis 0.
    Phi = 2 reshape(K vec P)^T and Q(P) = vec(P)^T K vec(P); P is returned
    for the eigen-step, which needs it next to Phi.
    """
    R, dB = U.shape[0], U.shape[1]
    V = U[:, :, :c]
    P = V @ V.conj().swapaxes(1, 2)
    p = P.reshape(R, 1, dB * dB)
    Kp = p @ K
    return 2.0 * Kp.reshape(R, dB, dB).swapaxes(1, 2), (Kp * p).sum(axis=(1, 2)).real, P


def _haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    ph = np.diag(r)
    return q * (ph / np.abs(ph))[None, :]


@lru_cache(maxsize=8)
def _haar_starts(d: int, restarts: int, seed: int) -> np.ndarray:
    """Read-only (restarts - 1, d, d) stack: restart r's Haar start, seeded by derive_seed(seed, r)."""
    starts = np.empty((restarts - 1, d, d), dtype=complex)
    for r in range(1, restarts):
        starts[r - 1] = _haar_unitary(d, np.random.Generator(np.random.PCG64(derive_seed(seed, r))))
    starts.setflags(write=False)
    return starts


def _optimize_split(objs: tuple[_SplitObjective, ...], config: OptimizerConfig
                    ) -> list[tuple[np.ndarray, np.ndarray, bool, int]]:
    """Ascend all restarts of a stack of objectives in lock-step; (values, best U, converged, sweeps) of each.

    The objectives share c and d_B.  Restart 0 of each starts from the
    eigenvectors of its rho_B in descending order, exact for pure states,
    where the top-c eigenvectors span the Schmidt subspace; restart r >= 1
    starts from a Haar unitary seeded by derive_seed(config.seed, r)
    (``_haar_starts``), the same for every objective.  A sweep is one
    eigen-step of every live restart: U becomes the eigenvectors, in
    descending order, of Phi(P) + 2 sigma_r P at P = V V^dag, V = U[:, :, :c]
    (the generalized power method).  For Hermitian P, Q(P) = vec(P)^dag S K
    vec(P) with S the vec-transpose swap, so with sigma = max(0,
    -lambda_min(S K)) the function Q(P) + sigma ||P||^2 is convex, and on
    projectors it differs from Q by the constant sigma c.
    Its linearization at P is maximized by the top-c eigenspace of
    Phi + 2 sigma P (Ky Fan), so a step at the full shift never lowers Q.
    A smaller shift steps further: sigma_r starts at SHIFT_START sigma, and
    a step at sigma_r < sigma that would lower Q is not taken; the restart
    keeps its U for that sweep and doubles sigma_r, capped at sigma.  A
    taken step that gained less than STEP_TOL freezes its restart with the Q
    of its last U, what a run of that restart alone gives.  Q after a step
    is read from the gradient that also serves the next step.

    Each restart carries its own objective's K, sigma and shift, and every
    product with K is taken per restart, so no restart's arithmetic depends
    on the others: each objective's result is bit for bit that of a stack
    of one.  Its ``sweeps`` counts the sweeps until its last restart froze
    (or the budget ran out), its ``values`` every restart's final Q in
    restart order; the winner is the first restart with the largest one.
    """
    c, dB, R, N = objs[0].c, objs[0].dB, config.restarts, len(objs)
    U = np.empty((N, R, dB, dB), dtype=complex)
    for i, obj in enumerate(objs):
        w, vecs = np.linalg.eigh(obj.rho_B)
        U[i, 0] = vecs[:, np.argsort(-w)]
    U[:, 1:] = _haar_starts(dB, R, config.seed)
    U = U.reshape(N * R, dB, dB)
    # restart j of the stack belongs to objective j // R
    K = np.stack([obj.K for obj in objs])
    # S K is K with its rows permuted by the swap (m, n) -> (n, m)
    swap = np.arange(dB * dB).reshape(dB, dB).T.ravel()
    sigma = np.repeat(np.maximum(0.0, -np.linalg.eigvalsh(K[:, swap])[:, 0]), R)
    K = np.repeat(K, R, axis=0)
    values, final_U = np.empty(N * R), np.empty_like(U)
    converged = np.zeros(N * R, dtype=bool)
    frozen_at = np.zeros(N * R, dtype=int)
    live = np.arange(N * R)
    shift = SHIFT_START * sigma
    phi, prev, P = _gradient(K, c, U)
    sweeps = 0
    while live.size and sweeps < config.max_sweeps:
        sweeps += 1
        U_new = np.linalg.eigh(phi + (2.0 * shift)[:, None, None] * P)[1][:, :, ::-1]
        phi_new, cur, P_new = _gradient(K, c, U_new)
        gain = cur - prev
        # a short-shift step that lowers Q is not taken; its restart backs off
        back = (gain < 0.0) & (shift < sigma)
        if back.any():
            U_new[back], phi_new[back], P_new[back], cur[back] = U[back], phi[back], P[back], prev[back]
            shift[back] = np.minimum(2.0 * shift[back], sigma[back])
        U, phi, P = U_new, phi_new, P_new
        done = (gain < STEP_TOL) & ~back
        if done.any():
            frozen = live[done]
            values[frozen], final_U[frozen], frozen_at[frozen] = cur[done], U[done], sweeps
            converged[frozen] = True
            keep = ~done
            live, U, phi, P, cur = live[keep], U[keep], phi[keep], P[keep], cur[keep]
            K, sigma, shift = K[keep], sigma[keep], shift[keep]
        prev = cur
    # restarts still live ran out of sweeps
    values[live], final_U[live], frozen_at[live] = prev, U, sweeps
    values, final_U = values.reshape(N, R), final_U.reshape(N, R, dB, dB)
    converged, frozen_at, best = converged.reshape(N, R), frozen_at.reshape(N, R), values.argmax(axis=1)
    return [(values[i], final_U[i, best[i]], bool(converged[i, best[i]]), int(frozen_at[i].max()))
            for i in range(N)]


# ---------------------------------------------------------------------------
# the monotone itself


def _is_closed(omega: tuple[int, ...], sigma: tuple[int, ...], d_om: int, d_sg: int) -> bool:
    """Whether the raw mass across omega|sigma is the purity formula (``_closed_raw``), not a maximization."""
    return len(omega) > 1 or len(sigma) > 1 or d_om == d_sg


def _closed_raw(d_om: int, d_sg: int, p_joint, p_om, p_sg):
    """d_Omega d_Sigma P_OmegaSigma - d_Omega P_Omega - d_Sigma P_Sigma + 1 from the three purities."""
    return d_om * d_sg * p_joint - d_om * p_om - d_sg * p_sg + 1


def correlation_monotone(state: DensityMatrix, partition, policy: NormalizationPolicy | None = None,
                         config: OptimizerConfig | None = None) -> MonotoneResult:
    """Normalized correlation mass across a bipartition of (some) sites.

    Sites outside the partition are traced out first.  See the module
    docstring for when the split-basis maximization runs.
    """
    omega, sigma = _check_partition(partition, state.n_sites)
    d_om = prod(state.dims[s] for s in omega)
    d_sg = prod(state.dims[s] for s in sigma)
    g = (policy or default_policy(omega, sigma)).resolve(d_om, d_sg)
    considered = tuple(sorted(omega + sigma))

    if _is_closed(omega, sigma, d_om, d_sg):
        P = state._marginal_purities
        raw = _closed_raw(d_om, d_sg, P[considered], P[omega], P[sigma])
        return MonotoneResult(value=raw / g, g=g, raw=raw, converged=True, restarts=0,
                              delta=0.0, heuristic_max=False, unitary=None)
    return _split_results(state, ((omega, sigma, considered),), g, config)[0]


def _split_results(state: DensityMatrix, pairs, g: float,
                   config: OptimizerConfig | None = None) -> list[MonotoneResult]:
    """correlation_monotone of each split pair (omega, sigma, sorted union), from one stacked solve.

    Every pair is two single sites of the same two unequal dimensions, the
    smaller one on the same side of the larger in site order, and every
    pair's normalization is g.  Each pair's split is optimized on its
    two-site marginal, whose sites keep their order.
    """
    (omega, sigma, _), dims = pairs[0], state.dims
    small_site, large_site = ((omega[0], sigma[0]) if dims[omega[0]] < dims[sigma[0]]
                              else (sigma[0], omega[0]))
    c, d_large = dims[small_site], dims[large_site]
    config = config or OptimizerConfig()
    marginals = [_marginal(state, joint) for _, _, joint in pairs]
    solves = _solve_split(tuple(m.tobytes() for m in marginals), c, d_large,
                          small_site < large_site, config)
    P = state._marginal_purities
    results = []
    for (_, _, joint), m, (values, U, converged, sweeps, compressed) in zip(pairs, marginals, solves):
        raw = max(values)
        # the memo key's marginal fills the table entry, so the pair is traced once
        purity = P[joint] if joint in P else P.fill(joint, m)
        # (c/(d_B - c)) times the split-basis mass outside the low joint block,
        # which equals c^2 (Tr rho^2 - Tr(((1xP) rho (1xP))^2))
        delta = c * c * (purity - compressed)
        results.append(MonotoneResult(value=raw / g, g=g, raw=raw, converged=converged,
                                      restarts=config.restarts, delta=delta,
                                      heuristic_max=not _is_pure(purity), unitary=U,
                                      sweeps=sweeps, restart_values=values))
    return results


@lru_cache(maxsize=SPLIT_MEMO_SIZE)
def _solve_split(matrices: tuple[bytes, ...], d_small: int, d_large: int, small_first: bool,
                 config: OptimizerConfig) -> tuple[tuple[tuple[float, ...], np.ndarray, bool, int, float], ...]:
    """(restart values, best U, converged, sweeps, Tr(((1xP) rho (1xP))^2)) of each marginal, in one stack.

    ``matrices`` holds the bytes of each traced two-site marginal; all share
    the two dimensions and the site order.  The solve is deterministic in
    its arguments, and each marginal's result is the one it gets solved
    alone (``_optimize_split``), so the memo is keyed on the tuple of
    marginals, the dimensions, the order and the frozen config.  It reads
    no marginal purities, and a precise twin (``states._precise``) shares
    its state's matrix, so the twin's traced marginals have the same bytes:
    a campaign's precise re-check of a sample hits the memo instead of
    re-running the optimizer.  The cached U's are read-only.
    """
    n = d_small * d_large
    objs = tuple(_SplitObjective(np.frombuffer(m, dtype=complex).reshape(n, n), d_small, d_large, small_first)
                 for m in matrices)
    solves = []
    for obj, (values, U, converged, sweeps) in zip(objs, _optimize_split(objs, config)):
        V = U[:, :d_small]
        U.setflags(write=False)
        solves.append((tuple(values.tolist()), U, converged, sweeps, obj.compressed_purity(V @ V.conj().T)))
    return tuple(solves)


def monotone_pure_exact(state: DensityMatrix, policy: NormalizationPolicy | None = None) -> float:
    """Closed-form monotone for a pure two-site state via its Schmidt spectrum.

    raw = m^2 + 1 - 2 m Tr(rho_A^2) with m the smaller dimension; the
    optimizer reproduces this and never exceeds it.
    """
    if state.n_sites != 2:
        raise ValueError(f"unsupported shape: need 2 sites, got {state.n_sites}")
    if not state.is_pure():
        raise NotPureError(f"state purity {state.purity():.12f} is below 1 - {PURITY_TOL:g}")
    vec = np.linalg.eigh(state.matrix)[1][:, -1]
    sv = np.linalg.svd(vec.reshape(state.dims), compute_uv=False)
    p_red = float((sv ** 4).sum())
    m = min(state.dims)
    raw = m * m + 1.0 - 2.0 * m * p_red
    g = (policy or _UNIT_RANGE).resolve(state.dims[0], state.dims[1])
    return raw / g


# ---------------------------------------------------------------------------
# inequality checks
#
# Each check is a private formula over the state's purity table, which
# returns (slack, lhs, rhs, *named values) and runs no input rule: it takes
# an int g for its module-constant pairs from ``_g``, and reads each closed
# pair's raw mass from the table (``_pair_values``).  Only split pairs go
# through the optimizer, as one stack (``_split_results``).  Integers stay
# ints, and every other constant, min and max comes from the table
# (``states._PurityTable``), so the formula returns the table's numbers:
# floats on a state's table or its precise twin, Fractions on an exact table,
# (N,) arrays on a stack.  A split pair's value is a float whatever the table.
# Campaigns call the formula and read its slack; the public check applies the
# input rules and builds its report from the same tuple (``reports._report``).

# (omega, sigma, their sorted union) of each pair a check reads
_A_B, _A_E, _B_E = ((0,), (1,), (0, 1)), ((0,), (2,), (0, 2)), ((1,), (2,), (1, 2))
_AB_E, _A_BE = ((0, 1), (2,), (0, 1, 2)), ((0,), (1, 2), (0, 1, 2))


def _pair_values(state: DensityMatrix, P, pairs, d_om: int, d_sg: int, g: int,
                 config: OptimizerConfig | None = None) -> list:
    """correlation_monotone(state, pair).value of each pair, all of group dimensions d_om, d_sg and g.

    Closed pairs are the purity formula over the table P, so no partition is
    re-checked and no MonotoneResult is built; split pairs, which share their
    site order, ascend as one stack (``_split_results``).
    """
    omega, sigma, _ = pairs[0]
    if not _is_closed(omega, sigma, d_om, d_sg):
        return [r.value for r in _split_results(state, pairs, g, config)]
    # a loop, not a comprehension: on Python 3.11 that costs 0.5 us more per call
    values = []
    for om, sg, joint in pairs:
        values.append(_closed_raw(d_om, d_sg, P[joint], P[om], P[sg]) / g)
    return values


def _thm1i(state: DensityMatrix, config: OptimizerConfig | None = None) -> tuple:
    """(slack, lhs, rhs, t_ae, t_be, t_abe, coefficient) of thm1i on a (d, d, d_E) state."""
    d, _, d_e = state.dims
    # A|E and B|E have the same dimensions, so g_AE = g_BE
    g_e, g_abe = _g("unit-range", d, d_e), _g("separable-bound", d * d, d_e)
    P = state._marginal_purities
    t_ae, t_be = _pair_values(state, P, (_A_E, _B_E), d, d_e, g_e, config)
    (t_abe,) = _pair_values(state, P, (_AB_E,), d * d, d_e, g_abe)
    coeff = P.ratio(g_abe, g_e)
    lhs, rhs = t_ae + t_be, coeff * t_abe
    return rhs - lhs, lhs, rhs, t_ae, t_be, t_abe, coeff


def check_thm1_i(state: DensityMatrix, config: OptimizerConfig | None = None) -> InequalityReport:
    """Monogamy of the monotone: T(A|E) + T(B|E) <= (g_ABE/min(g_AE, g_BE)) T(AB|E)."""
    _require_applicable("thm1i", state.dims)
    return _report("thm1i", _thm1i(state, config), "t_ae", "t_be", "t_abe", "coefficient")


def _eve_bound(d: int, d_e: int, p_ab):
    """(d^4 + 1 - 2 d^2 P_AB) / g_ABE from the AB purity P_AB = Tr(rho_AB^2)."""
    return (d ** 4 + 1 - 2 * d * d * p_ab) / _g("separable-bound", d * d, d_e)


def eve_bound(state_ab: DensityMatrix, d_e: int) -> float:
    """Upper bound on T(AB|E) from the AB marginal alone (d_A = d_B = d).

    (d^4 - 1 - 2||T^A||^2 - 2||T^B||^2 - 2||T^AB||^2) / ((d^2-1)(d_E-1)),
    which the purity identity turns into (d^4 + 1 - 2 d^2 Tr(rho_AB^2)) / g_ABE.
    """
    if state_ab.n_sites != 2 or state_ab.dims[0] != state_ab.dims[1]:
        raise ValueError(f"unsupported shape for eve bound: need two equal sites, got {state_ab.dims}")
    d_e = _check_count("environment dimension", d_e, 2)
    return _eve_bound(state_ab.dims[0], d_e, state_ab._marginal_purities[(0, 1)])


def _thm1ii(state: DensityMatrix) -> tuple:
    """(slack, lhs, rhs, t_abe, g) of thm1ii on a (d, d, d_E) state."""
    d, _, d_e = state.dims
    g = _g("separable-bound", d * d, d_e)
    P = state._marginal_purities
    (t_abe,) = _pair_values(state, P, (_AB_E,), d * d, d_e, g)
    bound = _eve_bound(d, d_e, P[(0, 1)])
    return bound - t_abe, t_abe, bound, t_abe, P.ratio(g)


def check_thm1_ii(state: DensityMatrix) -> InequalityReport:
    """T(AB|E) cannot exceed the bound computed from the AB marginal."""
    _require_applicable("thm1ii", state.dims)
    return _report("thm1ii", _thm1ii(state), "t_abe", "g")


def excess(value: float, d: int) -> float:
    """Scaled exceedance d (value - 1) of the separable ceiling."""
    return _check_count("dimension", d, 2) * (_check_real("value", value) - 1.0)


def _lemma5(state: DensityMatrix, config: OptimizerConfig | None = None) -> tuple:
    """(slack, lhs, rhs, t_ab, t_a_be) of lemma5 on a three-site state."""
    d_a, d_b, d_e = state.dims
    g_ab, g_abe = _g("unit-range", d_a, d_b), _g("separable-bound", d_a, d_b * d_e)
    P = state._marginal_purities
    (t_ab,) = _pair_values(state, P, (_A_B,), d_a, d_b, g_ab, config)
    (t_abe,) = _pair_values(state, P, (_A_BE,), d_a, d_b * d_e, g_abe)
    lhs = P.ratio(g_ab, g_abe) * t_ab
    return t_abe - lhs, lhs, t_abe, t_ab, t_abe


def check_lemma5(state: DensityMatrix, config: OptimizerConfig | None = None) -> InequalityReport:
    """Growth under extension: (g_AB/g_ABE) T(A|B) <= T(A|BE)."""
    _require_applicable("lemma5", state.dims)
    return _report("lemma5", _lemma5(state, config), "t_ab", "t_a_be")


def _lemma6_bounds(P, d: int, d_e: int, g: int, t) -> tuple:
    """lemma6_bounds in the numbers of the table P, with g = d^2 - 1 resolved, and no input rules."""
    return P.max(P.ratio(0), P.ratio(d * d, d_e) - 1 - g * t), P.min(P.ratio(2 * d - 2), g * (1 - t))


def lemma6_bounds(d: int, d_e: int, t: float) -> tuple[float, float]:
    """Bounds on the local Bloch mass ||T^A||^2 + ||T^B||^2 given t = T(A|B).

    Returns (lower, upper) = (max(0, d^2/d_E - 1 - (d^2-1) t),
    min(2d - 2, (d^2-1)(1 - t))) for a d x d pair with a d_E-dimensional
    purifying environment.
    """
    d = _check_count("dimension", d, 2)
    d_e = _check_count("environment dimension", d_e)
    t = _check_real("monotone value", t, least=0.0, most=1.0)
    return _lemma6_bounds(_PurityTable, d, d_e, _g("unit-range", d, d), t)


def _lemma6(state_ab: DensityMatrix, d_e: int | None = None) -> tuple:
    """(slack, lower, upper, local_mass, t, d_e) of lemma6 on a d x d state; d_e defaults to d^2."""
    d = state_ab.dims[0]
    d_e = d * d if d_e is None else d_e
    g = _g("unit-range", d, d)
    P = state_ab._marginal_purities
    # ||T^A||^2 + ||T^B||^2 by the purity identity on each site
    local = d * (P[(0,)] + P[(1,)]) - 2
    (t,) = _pair_values(state_ab, P, (_A_B,), d, d, g)
    lower, upper = _lemma6_bounds(P, d, d_e, g, P.min(P.max(t, P.ratio(0)), P.ratio(1)))
    return P.min(local - lower, upper - local), lower, upper, local, t, d_e


def check_lemma6(state_ab: DensityMatrix, d_e: int | None = None) -> InequalityReport:
    """Sandwich ||T^A||^2 + ||T^B||^2 between the bounds set by T(A|B)."""
    _require_applicable("lemma6", state_ab.dims)
    d_e = None if d_e is None else _check_count("environment dimension", d_e)
    return _report("lemma6", _lemma6(state_ab, d_e), "local_mass", "t", "d_e")
