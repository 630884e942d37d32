"""Correlation monotone: exact values, optimizer consistency, theorem checks."""

from __future__ import annotations

import dataclasses
import itertools
import re
from functools import partial

import numpy as np
import pytest

from bloch_lab import (DensityMatrix, EnsembleSpec, MonotoneResult, NormalizationPolicy, NotPureError,
                       OptimizerConfig, check_lemma5, check_lemma6, check_subadditivity, check_thm1_i,
                       check_thm1_ii, correlation_monotone, eve_bound, excess, from_matrix,
                       lemma6_bounds, max_entangled, maximally_mixed,
                       monotone_pure_exact, partial_trace, pure, random_state, tensor)
from bloch_lab.correlation import (bases_with_split, bloch_coefficients, cross_norm_sum,
                                   split_sector_norms, tensor_norm_sq)
from bloch_lab.monotone import (SHIFT_START, SPLIT_MEMO_SIZE, _gradient, _haar_starts, _haar_unitary,
                                _solve_split, _split_results, _SplitObjective, default_policy)
from bloch_lab.states import _marginal, _precise, derive_seed


def hs_state(dims, seed, index=0):
    return random_state(dims, EnsembleSpec(kind="hilbert-schmidt", seed=seed), index)


def haar_pure(dims, seed, index=0):
    return random_state(dims, EnsembleSpec(kind="pure-haar", seed=seed), index)


def schmidt_pair(dims, p):
    """Pure state on dims with Schmidt weights p (padded along the diagonal)."""
    v = np.zeros(dims, dtype=complex)
    for j, w in enumerate(p):
        v[j, j] = np.sqrt(w)
    return pure(v.reshape(-1), dims)


# ---------------------------------------------------------------------------
# exact values on the canonical route


def test_bell_state_saturates():
    r = correlation_monotone(max_entangled(2), ((0,), (1,)))
    assert r.value == pytest.approx(1.0)
    assert r.raw == pytest.approx(3.0)
    assert r.g == pytest.approx(3.0)
    assert not r.heuristic_max
    assert r.unitary is None


def test_maximally_mixed_vanishes():
    for dims in ((2, 2), (2, 3), (3, 3)):
        r = correlation_monotone(maximally_mixed(dims), ((0,), (1,)))
        assert r.value == pytest.approx(0.0, abs=1e-12)


def test_pure_product_floor():
    # a pure product pair retains the (m-1)^2 mass forced by local purity
    s = tensor(haar_pure((2,), 3), haar_pure((2,), 4))
    r = correlation_monotone(s, ((0,), (1,)))
    assert r.raw == pytest.approx(1.0, abs=1e-10)
    assert r.value == pytest.approx(1.0 / 3.0, abs=1e-10)
    assert monotone_pure_exact(s) == pytest.approx(r.value, abs=1e-10)


def test_pure_oracle_formula():
    s = schmidt_pair((3, 3), (0.5, 0.3, 0.2))
    m, p = 3, 0.5**2 + 0.3**2 + 0.2**2
    assert monotone_pure_exact(s) == pytest.approx((m * m + 1 - 2 * m * p) / (m * m - 1))
    r = correlation_monotone(s, ((0,), (1,)))
    assert r.value == pytest.approx(monotone_pure_exact(s), abs=1e-12)


def test_monotone_pure_exact_rejects_mixed():
    with pytest.raises(NotPureError):
        monotone_pure_exact(maximally_mixed((2, 2)))


# ---------------------------------------------------------------------------
# split objective against sector norms (internal consistency oracle)


def objective_value(obj: _SplitObjective, P: np.ndarray) -> float:
    """Q(P) for one projector, straight from its definition: the reference for the K form."""
    R4, rho_B, c = obj.R4, obj.rho_B, obj.c
    N = np.einsum("abmn,nm->ab", R4, P)
    t2 = np.einsum("ab,ba->", N, N).real
    BP = rho_B @ P
    t3 = np.trace(BP @ BP).real
    t4 = np.trace(BP).real ** 2
    return float(c * c * obj.compressed_purity(P) - c * t2 - c * t3 + t4)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_objective_equals_rotated_low_joint_mass(seed):
    st = hs_state((2, 4), seed=13, index=seed)
    obj = _SplitObjective(st.matrix, 2, 4, small_first=True)
    rng = np.random.default_rng(seed + 40)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    u, _ = np.linalg.qr(g)
    proj = u[:, :2] @ u[:, :2].conj().T

    rot = np.kron(np.eye(2), u.conj().T)
    rotated = from_matrix(rot @ st.matrix @ rot.conj().T, (2, 4))
    sn = split_sector_norms(
        bloch_coefficients(rotated, bases_with_split((2, 4), 1, 2)))
    assert objective_value(obj, proj) == pytest.approx(sn.low_joint, abs=1e-12)
    phi, q0, _ = _gradient(obj.K, obj.c, u[None])
    assert q0[0] == pytest.approx(objective_value(obj, proj), abs=1e-12)
    np.testing.assert_allclose(phi[0], phi[0].conj().T, atol=1e-12)


def test_objective_small_site_second():
    st = hs_state((4, 2), seed=19)
    obj = _SplitObjective(st.matrix, 2, 4, small_first=False)
    rng = np.random.default_rng(77)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    u, _ = np.linalg.qr(g)
    proj = u[:, :2] @ u[:, :2].conj().T
    rot = np.kron(u.conj().T, np.eye(2))
    rotated = from_matrix(rot @ st.matrix @ rot.conj().T, (4, 2))
    sn = split_sector_norms(
        bloch_coefficients(rotated, bases_with_split((4, 2), 0, 2)))
    assert objective_value(obj, proj) == pytest.approx(sn.low_joint, abs=1e-12)


@pytest.mark.parametrize("dims", [(2, 3), (2, 4), (3, 4), (3, 2), (4, 2)])
def test_reported_split_numbers_match_split_basis_sector_norms(dims):
    # raw and delta are read from the quadratic form; here they are pinned to
    # the coefficients of the state rotated by r.unitary in the split basis
    small, large = min(dims), max(dims)
    large_site = dims.index(large)
    cfg = OptimizerConfig(restarts=4, seed=0)
    for i in range(2):
        s = hs_state(dims, seed=37, index=i)
        r = correlation_monotone(s, ((0,), (1,)), config=cfg)
        rot = (np.kron(np.eye(small), r.unitary) if large_site == 1
               else np.kron(r.unitary, np.eye(small)))
        rotated = from_matrix(rot.conj().T @ s.matrix @ rot, dims)
        sn = split_sector_norms(
            bloch_coefficients(rotated, bases_with_split(dims, large_site, small)))
        high = sn.c0p + sn.high_canonical + sn.high_split + sn.high_joint
        assert r.raw == pytest.approx(sn.low_joint, abs=1e-12), (dims, i)
        assert r.delta == pytest.approx(small / (large - small) * high, abs=1e-12), (dims, i)


# ---------------------------------------------------------------------------
# optimizer against the pure-state oracle


@pytest.mark.parametrize("dims", [(2, 3), (2, 4), (3, 4)])
def test_optimizer_matches_schmidt_oracle(dims):
    cfg = OptimizerConfig(restarts=2, seed=0)
    for i in range(5):
        s = haar_pure(dims, seed=50, index=i)
        r = correlation_monotone(s, ((0,), (1,)), config=cfg)
        assert r.value == pytest.approx(monotone_pure_exact(s), abs=1e-9), (dims, i)
        assert r.converged
        assert r.delta <= 1e-8
        assert not r.heuristic_max
        assert r.unitary is not None


def test_embedding_invariance():
    small = schmidt_pair((2, 2), (0.9, 0.1))
    big = schmidt_pair((2, 5), (0.9, 0.1))
    r_small = correlation_monotone(small, ((0,), (1,)))
    r_big = correlation_monotone(big, ((0,), (1,)), config=OptimizerConfig(restarts=4, seed=0))
    assert r_small.raw == pytest.approx(5 - 4 * (0.81 + 0.01), abs=1e-12)
    assert r_big.value == pytest.approx(r_small.value, abs=1e-9)
    assert r_big.g == r_small.g  # unit-range keeps d_min^2 - 1


@pytest.mark.parametrize("dims", [(2, 3), (2, 4)])
def test_split_monotone_invariant_under_site_swap(dims):
    # the swapped state puts the larger site first, so the small_first=False
    # objective and the split basis on site 0 run end to end
    da, db = dims
    s = hs_state(dims, seed=23)
    swapped = from_matrix(s.matrix.reshape(da, db, da, db).transpose(1, 0, 3, 2)
                          .reshape(da * db, da * db), (db, da))
    cfg = OptimizerConfig(restarts=4, seed=0)
    direct = correlation_monotone(s, ((0,), (1,)), config=cfg)
    mirrored = correlation_monotone(swapped, ((0,), (1,)), config=cfg)
    assert mirrored.value == pytest.approx(direct.value, abs=1e-10)


# correlation_monotone(hs_state(dims, seed=71, index=i), ((0,), (1,))) at
# OptimizerConfig(restarts=8, seed=0) under the earlier grid-search move
FROZEN_GRID_VALUES = {
    (2, 3): (0.10518486009274967, 0.10408196443270316, 0.15920456899092744, 0.07295452721338515),
    (2, 4): (0.0479572124782299, 0.07855479088515664, 0.07246779528449329, 0.07428241693649092),
}


@pytest.mark.parametrize("dims", sorted(FROZEN_GRID_VALUES))
def test_mixed_split_values_not_below_grid_search(dims):
    cfg = OptimizerConfig(restarts=8, seed=0)
    for i, old in enumerate(FROZEN_GRID_VALUES[dims]):
        value = correlation_monotone(hs_state(dims, seed=71, index=i), ((0,), (1,)), config=cfg).value
        assert old - 1e-10 <= value <= 1.0, (dims, i)


def test_mixed_split_value_is_flagged_heuristic():
    r = correlation_monotone(hs_state((2, 3), seed=9), ((0,), (1,)),
                             config=OptimizerConfig(restarts=2, seed=0))
    assert r.heuristic_max
    assert r.converged
    assert r.value >= -1e-12


# correlation_monotone(hs_state(dims, seed=73, index=i), ((0,), (1,))).value at
# OptimizerConfig(restarts=8, seed=0) under the earlier one-restart-at-a-time ascent
FROZEN_SEQUENTIAL_VALUES = {
    (2, 3): (0.08267893754979369, 0.12861823456392207, 0.11565980798461313, 0.1047465336658634),
    (2, 4): (0.03976880176118472, 0.06142150708059573, 0.05443349491050451, 0.09576763851458049),
    (3, 4): (0.06247009869549041, 0.045879780838237745, 0.06266338588746256, 0.05095357949759147),
}


@pytest.mark.parametrize("dims", sorted(FROZEN_SEQUENTIAL_VALUES))
def test_lock_step_values_match_sequential_ascent(dims):
    cfg = OptimizerConfig(restarts=8, seed=0)
    for i, old in enumerate(FROZEN_SEQUENTIAL_VALUES[dims]):
        value = correlation_monotone(hs_state(dims, seed=73, index=i), ((0,), (1,)), config=cfg).value
        assert abs(value - old) <= 1e-10, (dims, i)


def test_converged_restart_freezes_as_if_run_alone():
    # restart 0 starts at the Schmidt subspace of a pure state and converges
    # in its first sweep, while the Haar restarts keep the batch going
    s = haar_pure((2, 3), seed=50)
    batch = correlation_monotone(s, ((0,), (1,)), config=OptimizerConfig(restarts=8, seed=0))
    alone = correlation_monotone(s, ((0,), (1,)), config=OptimizerConfig(restarts=1, seed=0))
    assert alone.sweeps == 1 and batch.sweeps > 1
    assert len(batch.restart_values) == 8 and len(alone.restart_values) == 1
    assert batch.restart_values[0] == alone.restart_values[0]


def test_sweep_budget_exhausted_reports_not_converged():
    s = hs_state((2, 4), seed=9)
    r = correlation_monotone(s, ((0,), (1,)), config=OptimizerConfig(restarts=4, seed=0, max_sweeps=1))
    assert r.sweeps == 1
    assert not r.converged


@pytest.mark.parametrize("dims", [(2, 3), (2, 4), (3, 4)])
def test_restart_values_never_drop_with_more_sweeps(dims):
    # each eigen-step maximizes a convex surrogate that differs from Q by a
    # constant on projectors; without the shift sigma, steps here lower
    # restart values by up to 3.7e-3
    for i in range(6):
        s = hs_state(dims, seed=11, index=i)
        prev = None
        for k in range(1, 25):
            cfg = OptimizerConfig(restarts=8, seed=0, max_sweeps=k)
            values = correlation_monotone(s, ((0,), (1,)), config=cfg).restart_values
            if prev is not None:
                assert all(v >= p - 1e-14 for v, p in zip(values, prev)), (dims, i, k)
            prev = values


def test_step_that_lowers_q_is_rejected_and_its_shift_doubles():
    # on this state, restart 1's first step at sigma/4 would lower Q, while
    # steps at sigma/2 and sigma raise it by different amounts
    s = hs_state((2, 3), seed=5, index=14)
    obj = _SplitObjective(s.matrix, 2, 3, small_first=True)
    swap = np.arange(9).reshape(3, 3).T.ravel()
    sigma = -np.linalg.eigvalsh(obj.K[swap])[0]
    phi, q0, P = _gradient(obj.K, obj.c, _haar_starts(3, 2, 0))

    def stepped(shift):
        return _gradient(obj.K, obj.c, np.linalg.eigh(phi + 2.0 * shift * P)[1][:, :, ::-1])[1][0]

    short, doubled = SHIFT_START * sigma, 2.0 * SHIFT_START * sigma
    assert stepped(short) < q0[0] - 1e-3
    assert q0[0] + 1e-3 < stepped(doubled) < stepped(sigma) - 1e-3
    values = [correlation_monotone(s, ((0,), (1,)), config=OptimizerConfig(
        restarts=2, seed=0, max_sweeps=k)).restart_values[1] for k in (1, 2)]
    assert values[0] == pytest.approx(q0[0], abs=1e-15)
    assert values[1] == pytest.approx(stepped(doubled), abs=1e-15)


# total sweeps over 20 HS states at seed 11; the ascent with every step at the
# full shift sigma took 660, 1152 and 1075
SWEEP_BUDGETS = {(2, 3): 450, (2, 4): 800, (3, 4): 650}


@pytest.mark.parametrize("dims", sorted(SWEEP_BUDGETS))
def test_split_ascent_sweeps_stay_within_budget(dims):
    cfg = OptimizerConfig(restarts=8, seed=0)
    results = [correlation_monotone(hs_state(dims, seed=11, index=i), ((0,), (1,)), config=cfg)
               for i in range(20)]
    assert all(r.converged for r in results)
    assert sum(r.sweeps for r in results) <= SWEEP_BUDGETS[dims]


def test_haar_starts_are_the_per_restart_draws():
    for d, restarts, seed in ((3, 8, 0), (4, 5, 7)):
        starts = _haar_starts(d, restarts, seed)
        assert starts.shape == (restarts - 1, d, d)
        for r in range(1, restarts):
            draw = _haar_unitary(d, np.random.Generator(np.random.PCG64(derive_seed(seed, r))))
            assert starts[r - 1].tobytes() == draw.tobytes(), (d, restarts, seed, r)
        with pytest.raises(ValueError):
            starts[0, 0, 0] = 0.0
    assert _haar_starts.cache_info().maxsize == 8
    for seed in range(10):
        _haar_starts(2, 2, seed)
    assert _haar_starts.cache_info().currsize == 8


@pytest.mark.parametrize("dims", [(2, 3), (2, 4), (3, 4), (4, 2)])
def test_returned_subspace_is_stationary(dims):
    # at a maximum over rank-c projectors the gradient Phi has no block
    # (1 - P) Phi P coupling the selected subspace to its complement
    c, d = min(dims), max(dims)
    cfg = OptimizerConfig(restarts=8, seed=0)
    for i in range(4):
        s = hs_state(dims, seed=43, index=i)
        r = correlation_monotone(s, ((0,), (1,)), config=cfg)
        obj = _SplitObjective(s.matrix, c, d, small_first=dims[0] < dims[1])
        phi, _, _ = _gradient(obj.K, obj.c, r.unitary[None])
        V = r.unitary[:, :c]
        P = V @ V.conj().T
        assert np.abs((np.eye(d) - P) @ phi[0] @ P).max() <= 1e-5, (dims, i)


@pytest.mark.parametrize("dims", [(2, 3), (2, 4)])
def test_best_restart_value_is_reported_raw(dims):
    cfg = OptimizerConfig(restarts=4, seed=0)
    for i in range(3):
        r = correlation_monotone(hs_state(dims, seed=31, index=i), ((0,), (1,)), config=cfg)
        assert len(r.restart_values) == 4
        assert r.sweeps >= 1
        assert max(r.restart_values) == pytest.approx(r.raw, abs=1e-12), (dims, i)


def test_closed_path_reports_no_sweeps():
    r = correlation_monotone(hs_state((2, 2), seed=9), ((0,), (1,)))
    assert (r.sweeps, r.restart_values) == (0, ())


# ---------------------------------------------------------------------------
# memoized split solves


def test_memo_hit_equals_fresh_solve():
    s = hs_state((2, 3), seed=61)
    cfg = OptimizerConfig(restarts=4, seed=0)
    fresh = correlation_monotone(s, ((0,), (1,)), config=cfg)
    assert _solve_split.cache_info().misses == 1
    copied = from_matrix(s.matrix.copy(), s.dims)
    hit = correlation_monotone(copied, ((0,), (1,)), config=cfg)
    assert _solve_split.cache_info().hits == 1
    for name in ("value", "raw", "delta", "sweeps", "restart_values", "converged"):
        assert getattr(hit, name) == getattr(fresh, name), name
    assert hit.unitary.tobytes() == fresh.unitary.tobytes()
    # a single pair is keyed as a stack of one marginal
    (cached,) = _solve_split((s.matrix.tobytes(),), 2, 3, True, cfg)
    assert _solve_split.cache_info().hits == 2 and cached[1] is hit.unitary
    # thm1i's stack of A|E and B|E hits the same way on a copied state
    s = hs_state((2, 2, 3), seed=61)
    fresh = check_thm1_i(s, cfg)
    hit = check_thm1_i(from_matrix(s.matrix.copy(), s.dims), cfg)
    assert (_solve_split.cache_info().hits, _solve_split.cache_info().misses) == (3, 2)
    assert repr(hit) == repr(fresh)


@pytest.mark.parametrize("dims", [(2, 3), (3, 2), (2, 4)])
def test_split_solve_on_traced_pair_equals_solve_on_its_partial_trace(dims):
    # the monotone traces site 0 out itself; the reference solves the marginal that
    # partial_trace returns, afresh: every field must agree bit for bit, and the
    # pure pair's marginal must be found pure, with the standard and precise purities
    for pair in (hs_state(dims, seed=43), haar_pure(dims, seed=43)):
        s = tensor(hs_state((2,), seed=44), pair)
        for precise in (False, True):
            view = _precise if precise else (lambda state: state)
            got = correlation_monotone(view(s), ((1,), (2,)))
            _solve_split.cache_clear()
            want = correlation_monotone(view(partial_trace(s, (1, 2))), ((0,), (1,)))
            for f in dataclasses.fields(MonotoneResult):
                if f.name == "unitary":
                    assert got.unitary.tobytes() == want.unitary.tobytes()
                else:
                    assert getattr(got, f.name) == getattr(want, f.name), (dims, precise, f.name)
            assert got.heuristic_max is not pair.is_pure()


def test_split_checks_build_no_marginal_state(monkeypatch):
    # the split-backed checks, and subadditivity at q != 2, read their marginals through the
    # trace plans, the purity table and the spectrum rule
    config = OptimizerConfig(restarts=4)
    cases = ((partial(check_thm1_i, config=config), hs_state((2, 2, 3), seed=45)),
             (partial(check_lemma5, config=config), hs_state((3, 2, 2), seed=45)),
             (partial(check_subadditivity, q=3.0), hs_state((2, 2, 3), seed=45)))
    built = []
    init = DensityMatrix.__post_init__
    monkeypatch.setattr(DensityMatrix, "__post_init__", lambda self: (built.append(self.dims), init(self)))
    for check, s in cases:
        check(s)
    assert built == []


# (drawn dims, ensemble): each row's A|E and B|E ascend as one stack in thm1i;
# (3, 3, 2) puts the small site second
STACK_ROWS = [(dims, spec) for dims in ((2, 2, 3), (3, 3, 2), (2, 2, 4), (3, 3, 4))
              for spec in (EnsembleSpec("hilbert-schmidt", seed=17), EnsembleSpec("pure-haar", seed=17),
                           EnsembleSpec("induced", seed=17, rank_cap=2))]


def _solve_fields(solve, result):
    values, U, converged, sweeps, compressed = solve
    return (np.array(values).tobytes(), U.tobytes(), converged, sweeps, compressed.hex(),
            result.delta.hex(), result.value.hex())


@pytest.mark.parametrize("dims,spec", STACK_ROWS, ids=lambda v: getattr(v, "kind", str(v)))
def test_stacked_solve_equals_each_objective_solved_alone(dims, spec):
    d, _, d_e = dims
    c, d_large = min(d, d_e), max(d, d_e)
    g = float(c * c - 1)
    pairs = (((0,), (2,), (0, 2)), ((1,), (2,), (1, 2)))
    split_budget_seen = False
    for i in range(3):
        state = random_state(dims, spec, i)
        keys = tuple(_marginal(state, joint).tobytes() for _, _, joint in pairs)

        def run(stack, config):
            _solve_split.cache_clear()
            solves = _solve_split(tuple(keys[k] for k in stack), c, d_large, d < d_e, config)
            results = _split_results(state, tuple(pairs[k] for k in stack), g, config)
            return [_solve_fields(solve, r) for solve, r in zip(solves, results)]

        for restarts in (1, 8):
            full = OptimizerConfig(restarts=restarts, seed=0)
            sweeps = sorted(f[3] for f in run((0, 1), full))
            # a budget between the two objectives' sweeps: one ends within it, the other exhausts it
            budgets = [500] + ([(sweeps[0] + sweeps[1]) // 2] if sweeps[1] - sweeps[0] >= 2 else [])
            for budget in budgets:
                config = OptimizerConfig(restarts=restarts, seed=0, max_sweeps=budget)
                stacked = run((0, 1), config)
                assert stacked == run((0,), config) + run((1,), config), (i, restarts, budget)
                if budget < 500:
                    assert sorted(f[3] for f in stacked) == [sweeps[0], budget]
                    split_budget_seen = True
    assert split_budget_seen


def test_cached_unitary_is_read_only():
    r = correlation_monotone(hs_state((2, 4), seed=61), ((0,), (1,)),
                             config=OptimizerConfig(restarts=2, seed=0))
    with pytest.raises(ValueError):
        r.unitary[0, 0] = 0.0


def test_other_restarts_or_seed_miss_the_memo():
    s = hs_state((2, 3), seed=62)
    for cfg in (OptimizerConfig(restarts=4, seed=0), OptimizerConfig(restarts=5, seed=0),
                OptimizerConfig(restarts=4, seed=1)):
        correlation_monotone(s, ((0,), (1,)), config=cfg)
    assert (_solve_split.cache_info().hits, _solve_split.cache_info().misses) == (0, 3)
    # the key is the whole tuple of marginals: a pair of thm1i's stack solved
    # alone, or the stack in the other order, is another solve
    s = hs_state((2, 2, 3), seed=62)
    cfg = OptimizerConfig(restarts=4, seed=0)
    stacked = check_thm1_i(s, cfg)
    alone = correlation_monotone(s, ((0,), (2,)), config=cfg)
    ae, be = (_marginal(s, joint).tobytes() for joint in ((0, 2), (1, 2)))
    swapped = _solve_split((be, ae), 2, 3, True, cfg)
    assert (_solve_split.cache_info().hits, _solve_split.cache_info().misses) == (0, 6)
    assert repr(alone.value) == repr(stacked.extras["t_ae"])
    assert repr(max(swapped[0][0]) / 3.0) == repr(stacked.extras["t_be"])


def test_memo_is_bounded():
    # the memo counts stacked solves: thm1i makes one per (2, 2, 3) sample
    cfg = OptimizerConfig(restarts=1, seed=0)
    assert _solve_split.cache_info().maxsize == SPLIT_MEMO_SIZE <= 16
    for i in range(SPLIT_MEMO_SIZE + 1):
        check_thm1_i(hs_state((2, 2, 3), seed=63, index=i), cfg)
    assert _solve_split.cache_info().currsize == SPLIT_MEMO_SIZE
    assert _solve_split.cache_info().misses == SPLIT_MEMO_SIZE + 1
    # the oldest stack was evicted, so solving it again runs the optimizer
    check_thm1_i(hs_state((2, 2, 3), seed=63, index=0), cfg)
    assert _solve_split.cache_info().misses == SPLIT_MEMO_SIZE + 2


@pytest.mark.parametrize("bad", [{"restarts": 0}, {"restarts": -5}, {"restarts": 2.5},
                                 {"max_sweeps": 0}])
def test_optimizer_config_rejects_bad_settings(bad):
    with pytest.raises(ValueError):
        OptimizerConfig(**bad)


# ---------------------------------------------------------------------------
# partitions, policies, site remapping


def test_partition_traces_out_unlisted_sites():
    s = tensor(max_entangled(2), maximally_mixed((3,)))
    s = from_matrix(s.matrix, (2, 2, 3))
    direct = correlation_monotone(s, ((0,), (1,)))
    pair = correlation_monotone(max_entangled(2), ((0,), (1,)))
    assert direct.value == pytest.approx(pair.value, abs=1e-12)


def _closed_partitions(dims):
    """Every (omega, sigma) of disjoint site groups the monotone evaluates in closed form."""
    n = len(dims)
    out = []
    for labels in itertools.product((0, 1, 2), repeat=n):
        omega = tuple(j for j in range(n) if labels[j] == 1)
        sigma = tuple(j for j in range(n) if labels[j] == 2)
        if omega and sigma and omega < sigma and (
                len(omega) > 1 or len(sigma) > 1 or dims[omega[0]] == dims[sigma[0]]):
            out.append((omega, sigma))
    return out


# (2, 3) has no closed-form partition and no equal pair, so it is left out
@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 2, 2), (2, 2, 3)])
def test_purity_formulas_match_tensor_references(dims):
    d_e = 3
    for i in range(3):
        s = hs_state(dims, seed=29, index=i)
        for omega, sigma in _closed_partitions(dims):
            considered = tuple(sorted(omega + sigma))
            remap = {site: k for k, site in enumerate(considered)}
            co = bloch_coefficients(partial_trace(s, considered))
            ref = cross_norm_sum(co, tuple(remap[j] for j in omega), tuple(remap[j] for j in sigma))
            assert correlation_monotone(s, (omega, sigma)).raw == pytest.approx(ref, abs=1e-12)
        if dims[0] == dims[1]:
            ab = partial_trace(s, (0, 1))
            co = bloch_coefficients(ab)
            na, nb, nab = (tensor_norm_sq(co, v) for v in ((0,), (1,), (0, 1)))
            d = dims[0]
            ref_bound = (d ** 4 - 1 - 2.0 * (na + nb + nab)) / ((d * d - 1) * (d_e - 1))
            assert eve_bound(ab, d_e) == pytest.approx(ref_bound, abs=1e-12)
            assert check_lemma6(ab).extras["local_mass"] == pytest.approx(na + nb, abs=1e-12)


def test_partition_validation():
    s = maximally_mixed((2, 2, 2))
    with pytest.raises(ValueError):
        correlation_monotone(s, ((0,), (0, 1)))
    with pytest.raises(ValueError):
        correlation_monotone(s, ((), (1,)))
    with pytest.raises(ValueError):
        correlation_monotone(s, ((0,), (3,)))


def test_policy_rules():
    bell = max_entangled(2)
    explicit = correlation_monotone(bell, ((0,), (1,)),
                                    policy=NormalizationPolicy("explicit", value=6.0))
    assert explicit.value == pytest.approx(0.5)
    sep = correlation_monotone(bell, ((0,), (1,)),
                               policy=NormalizationPolicy("separable-bound"))
    assert sep.g == pytest.approx(1.0)  # (d_A - 1)(d_B - 1)
    with pytest.raises(ValueError):
        NormalizationPolicy("explicit").resolve(2, 2)


@pytest.mark.parametrize("rule, value", [("bogus", None), ("unit-range", 5.0),
                                         ("separable-bound", 1.0), ("explicit", None)])
def test_policy_checks_itself_when_built(rule, value):
    # the rule must be a known one, and only the explicit rule takes a value
    with pytest.raises(ValueError):
        NormalizationPolicy(rule, value=value)


def test_default_policies_are_shared():
    assert default_policy((0,), (1,)) is default_policy((2,), (0,))
    assert default_policy((0, 1), (2,)) is default_policy((0,), (1, 2))
    assert default_policy((0,), (1,)) != default_policy((0, 1), (2,))


@pytest.mark.parametrize("g", [float("inf"), float("-inf"), float("nan")])
def test_explicit_g_must_be_finite(g):
    with pytest.raises(ValueError, match=re.escape(f"invalid normalization g {g!r}: need a finite real > 0")):
        NormalizationPolicy("explicit", value=g)


def test_group_of_dimension_one_is_rejected():
    # such a group carries no correlation, and both dimension rules give g = 0
    for rule, dims in (("unit-range", (1, 2)), ("unit-range", (3, 1)),
                       ("separable-bound", (1, 3)), ("separable-bound", (2, 1))):
        with pytest.raises(ValueError, match="positive g"):
            NormalizationPolicy(rule).resolve(*dims)
    s = haar_pure((1, 2), seed=3)
    with pytest.raises(ValueError, match="positive g"):
        correlation_monotone(s, ((0,), (1,)))
    with pytest.raises(ValueError, match="positive g"):
        monotone_pure_exact(s)
    s3 = hs_state((2, 2, 1), seed=3)
    for check in (check_thm1_i, check_thm1_ii):
        with pytest.raises(ValueError, match="positive g"):
            check(s3)


def test_composite_group_uses_separable_bound_default():
    ghz = pure(np.array([1, 0, 0, 0, 0, 0, 0, 1]) / np.sqrt(2), (2, 2, 2))
    r = correlation_monotone(ghz, ((0,), (1, 2)))
    assert r.g == pytest.approx(3.0)  # (2-1)(4-1)
    assert r.value == pytest.approx(2.0)
    assert r.unitary is None


# ---------------------------------------------------------------------------
# theorem checks with frozen values


def test_thm1_i_on_ghz():
    ghz = pure(np.array([1, 0, 0, 0, 0, 0, 0, 1]) / np.sqrt(2), (2, 2, 2))
    rep = check_thm1_i(ghz)
    assert rep.lhs == pytest.approx(2.0 / 3.0, abs=1e-10)
    assert rep.rhs == pytest.approx(2.0, abs=1e-10)
    assert rep.slack == pytest.approx(4.0 / 3.0, abs=1e-10)
    assert rep.holds


def test_thm1_ii_on_bell_with_idle_environment():
    s = tensor(max_entangled(2), maximally_mixed((2,)))
    s = from_matrix(s.matrix, (2, 2, 2))
    rep = check_thm1_ii(s)
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.rhs == pytest.approx(3.0, abs=1e-10)
    assert rep.holds


@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 3, 2)])
def test_thm1_ii_bound_equals_eve_bound_of_marginal(dims):
    # the bound reads P_AB from the state's table, in both evaluations
    for i in range(3):
        s = hs_state(dims, seed=97, index=i)
        assert check_thm1_ii(s).rhs == eve_bound(partial_trace(s, (0, 1)), dims[2])
        assert check_thm1_ii(_precise(s)).rhs == eve_bound(_precise(partial_trace(s, (0, 1))), dims[2])


def test_eve_bound_on_maximally_mixed_pair():
    assert eve_bound(maximally_mixed((2, 2)), 4) == pytest.approx(5.0 / 3.0)


def test_excess_scaling():
    assert excess(1.0, 5) == pytest.approx(0.0)
    assert excess(4.0 / 3.0, 3) == pytest.approx(1.0)


def test_lemma5_on_ghz():
    ghz = pure(np.array([1, 0, 0, 0, 0, 0, 0, 1]) / np.sqrt(2), (2, 2, 2))
    rep = check_lemma5(ghz)
    # growth: (g_AB / g_ABE) T(A|B) = (3/3)(1/3) against T(A|BE) = 6/3
    assert rep.lhs == pytest.approx(1.0 / 3.0, abs=1e-10)
    assert rep.rhs == pytest.approx(2.0, abs=1e-10)
    assert rep.holds


def test_lemma6_bounds_formula():
    lower, upper = lemma6_bounds(2, 4, 0.0)
    assert (lower, upper) == (0.0, 2.0)
    lower, upper = lemma6_bounds(2, 4, 1.0)
    assert (lower, upper) == (0.0, 0.0)
    lower, upper = lemma6_bounds(2, 1, 0.0)
    assert lower == pytest.approx(3.0)
    with pytest.raises(ValueError):
        lemma6_bounds(2, 4, 1.5)


def test_lemma6_tight_on_bell():
    rep = check_lemma6(max_entangled(2))
    assert rep.slack == pytest.approx(0.0, abs=1e-9)
    assert rep.holds


def test_lemma6_on_random_pairs():
    for i in range(10):
        rep = check_lemma6(hs_state((2, 2), seed=61, index=i), d_e=16)
        assert rep.holds, i
