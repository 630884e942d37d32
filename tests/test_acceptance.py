"""Acceptance gate: one test per pinned criterion.

Each test prints exactly one line of the form

    ACCEPTANCE <n> PASS: <detail>   (or FAIL)

to the real stdout (through capture being temporarily disabled, so the
lines survive any pytest capture mode) and then asserts.  Tolerances
and sample counts are fixed here on purpose; loosening them is a contract
change, not a tuning knob.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from bloch_lab import (Campaign, EnsembleSpec, OptimizerConfig,
                       bloch_coefficients, check_gen_pseudo_additivity, check_lemma6,
                       check_subadditivity, correlation_monotone, dim_ssa_vs_subadd,
                       maximally_mixed, monotone_pure_exact,
                       negation_control, pseudo_additivity_residual, pure,
                       purity_from_tensor, random_state, run_campaign, split_basis,
                       sweep_fig1, sweep_figB, validate_surface,
                       verify_orthogonality)
from bloch_lab.basis import ANTISYM, DIAG_HIGH, DIAG_LOW, SUB_HIGH, SUB_LOW, SYM


@pytest.fixture
def report(capfd):
    def _go(n: int, ok: bool, detail: str) -> None:
        line = f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {detail}"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line
    return _go


def _hs(seed: int) -> EnsembleSpec:
    return EnsembleSpec(kind="hilbert-schmidt", seed=seed)


def test_criterion_01_purity_identity_bulk(report):
    shapes = [(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 2, 4)]
    t0 = time.perf_counter()
    worst = 0.0
    for k, shape in enumerate(shapes):
        spec = _hs(1000 + k)
        for i in range(1000):
            s = random_state(shape, spec, index=i)
            err = abs(purity_from_tensor(bloch_coefficients(s)) - s.purity())
            worst = max(worst, err)
    dt = time.perf_counter() - t0
    ok = worst < 1e-10 and dt < 30.0
    report(1, ok, f"max purity-identity error {worst:.2e} over 5x1000 draws, {dt:.1f}s")


def test_criterion_02_split_gram_all_cuts(report):
    t0 = time.perf_counter()
    worst_off = 0.0
    worst_diag = 0.0
    counts_ok = True
    for d in range(2, 9):
        for c in range(1, d):
            b = split_basis(d, c)
            rep = verify_orthogonality(b)
            worst_off = max(worst_off, rep.max_offdiag)
            worst_diag = max(worst_diag, rep.max_diag_deviation)
            low = high = cross = 0
            for e in b.elements:
                if e.sector in (SUB_LOW, DIAG_LOW) or (
                        e.sector in (SYM, ANTISYM) and e.l < c):
                    low += 1
                elif e.sector in (SUB_HIGH, DIAG_HIGH) or (
                        e.sector in (SYM, ANTISYM) and e.k >= c):
                    high += 1
                else:
                    cross += 1
            counts_ok &= (low, high, cross) == (c * c, (d - c) ** 2, 2 * c * (d - c))
    dt = time.perf_counter() - t0
    ok = worst_off < 1e-12 and worst_diag < 1e-12 and counts_ok and dt < 5.0
    report(2, ok, f"28 split bases: max offdiag {worst_off:.2e}, "
                   f"max diag dev {worst_diag:.2e}, counts ok={counts_ok}, {dt:.1f}s")


def test_criterion_03_weighted_ssa_sharper_at_uniform(report):
    rep = dim_ssa_vs_subadd(maximally_mixed((2, 2, 2)))
    ok = (abs(rep.rhs - 0.625) < 1e-12 and abs(rep.lhs - 0.25) < 1e-12
          and abs(rep.slack - 0.375) < 1e-12)
    report(3, ok, f"uniform 3-qubit state: comparison {rep.rhs:.6f}, "
                   f"constant {rep.lhs:.6f}, margin {rep.slack:.6f}")


def test_criterion_04_pair_bounds_tight_at_uniform(report):
    mm = maximally_mixed((2, 2))
    gp = check_gen_pseudo_additivity(mm).slack
    sa = check_subadditivity(mm, q=2.0).slack
    ok = abs(gp) < 1e-12 and abs(sa - 0.25) < 1e-12
    report(4, ok, f"uniform pair: correlated-bound slack {gp:.2e}, "
                   f"subadditivity slack {sa:.6f}")


def test_criterion_05_monte_carlo_campaigns(report):
    plan = [
        ((2, 2, 2), ("thm1i", "thm1ii", "dim-ssa", "subadd", "gen-pseudo")),
        ((2, 2, 3), ("dim-ssa", "subadd", "gen-pseudo")),
        ((2, 2), ("subadd", "gen-pseudo")),
        ((2, 3), ("subadd", "gen-pseudo")),
        ((3, 3), ("subadd", "gen-pseudo")),
        ((2, 2, 4), ("subadd", "gen-pseudo")),
    ]
    t0 = time.perf_counter()
    total = 0
    violations = 0
    min_slack = np.inf
    for k, (dims, names) in enumerate(plan):
        rep = run_campaign(Campaign(dims=dims, ensemble=_hs(2000 + k),
                                    inequalities=names, samples=10000))
        for stat in rep.stats.values():
            total += stat.samples
            violations += stat.violations
            min_slack = min(min_slack, stat.min_slack)
    dt = time.perf_counter() - t0
    ok = violations == 0 and min_slack >= -1e-9 and dt < 600.0
    report(5, ok, f"{total} inequality evaluations, {violations} violations, "
                   f"min slack {min_slack:.3e}, {dt:.0f}s")


def test_criterion_06_pseudo_additivity_products(report):
    worst = 0.0
    spec_a, spec_b = _hs(3000), _hs(3001)
    for i in range(1000):
        a = random_state((2,), spec_a, index=i)
        b = random_state((3,), spec_b, index=i)
        for q in (1.5, 2.0, 3.0):
            worst = max(worst, abs(pseudo_additivity_residual(a, b, q)))
    ok = worst < 1e-10
    report(6, ok, f"max pseudo-additivity residual {worst:.2e} "
                   f"over 1000 pairs x 3 orders")


def test_criterion_07_optimizer_against_pure_oracle(report):
    cfg = OptimizerConfig(restarts=4, seed=0)
    t0 = time.perf_counter()
    worst_oracle = 0.0
    worst_embed = 0.0
    for k, dims in enumerate(((2, 3), (2, 4), (3, 4))):
        spec = EnsembleSpec(kind="pure-haar", seed=4000 + k)
        for i in range(200):
            s = random_state(dims, spec, index=i)
            r = correlation_monotone(s, ((0,), (1,)), config=cfg)
            worst_oracle = max(worst_oracle, abs(r.value - monotone_pure_exact(s)))
            # embed the second site in two extra dimensions; value must not move
            vec = np.linalg.eigh(s.matrix)[1][:, -1].reshape(dims)
            big = np.zeros((dims[0], dims[1] + 2), dtype=complex)
            big[:, :dims[1]] = vec
            s_big = pure(big.reshape(-1), (dims[0], dims[1] + 2))
            r_big = correlation_monotone(s_big, ((0,), (1,)), config=cfg)
            worst_embed = max(worst_embed, abs(r_big.value - r.value))
    dt = time.perf_counter() - t0
    ok = worst_oracle < 1e-8 and worst_embed < 1e-8
    report(7, ok, f"600 pure states: max |optimizer - oracle| {worst_oracle:.2e}, "
                   f"max embedding shift {worst_embed:.2e}, {dt:.0f}s")


def test_criterion_08_environment_bound_sweeps(report):
    worst = sweep_fig1(case="worst", points=101)
    best = sweep_fig1(case="best", points=101)
    checks = [
        abs(worst.excess[2][0] - 4.0 / 3.0) < 1e-12,
        abs(best.excess[2][0] - 4.0 / 9.0) < 1e-12,
        all(worst.excess[d][-1] == 0.0 for d in worst.d_values),
        all(best.excess[d][-1] == 0.0 for d in best.d_values),
        all(np.all(np.diff(worst.excess[d]) <= 1e-12) for d in worst.d_values),
        all(np.all(worst.excess[d] >= 0.0) for d in worst.d_values),
        all(np.all(best.excess[d] >= 0.0) for d in best.d_values),
    ]
    ok = all(checks)
    report(8, ok, f"endpoint and monotonicity checks {sum(checks)}/7 "
                   f"over d in {worst.d_values}")


def test_criterion_09_surfaces_and_admissible_triples(report):
    err_sub = validate_surface("subadd", (2, 2), resolution=101)
    err_gen = validate_surface("gen-pseudo", (2, 2), resolution=101)
    qubits = sweep_figB(dims=(2, 2, 2), resolution=21)
    tall = sweep_figB(dims=(2, 2, 100), resolution=21)
    ok = (err_sub < 1e-9 and err_gen < 1e-9
          and qubits.n_removed == 0 and tall.n_removed > 0)
    report(9, ok, f"surface residuals {err_sub:.2e}/{err_gen:.2e}; "
                   f"removed triples: qubits {qubits.n_removed}, "
                   f"tall third site {tall.n_removed}")


def test_criterion_10_local_mass_sandwich(report):
    spec = _hs(5000)
    worst = np.inf
    holds = True
    for i in range(1000):
        rep = check_lemma6(random_state((2, 2), spec, index=i), d_e=16)
        holds &= rep.holds
        worst = min(worst, rep.slack)
    ok = holds and worst >= -1e-9
    report(10, ok, f"1000 pairs vs d_E=16 bounds: min sandwich slack {worst:.3e}")


def test_criterion_11_negation_and_determinism(report, stats_match_reverse_order):
    base = Campaign(dims=(2, 2, 2), ensemble=_hs(6000), samples=200)
    neg = negation_control(base)
    tripped = all(s.violations == s.samples for s in neg.stats.values())

    reports = [run_campaign(base) for _ in range(2)]
    blobs = {json.dumps(r.to_jsonable(deterministic=True), sort_keys=True) for r in reports}
    identical = len(blobs) == 1
    order_free = stats_match_reverse_order(base, reports[0])
    ok = tripped and identical and order_free
    report(11, ok, f"negation control tripped={tripped}, "
                    f"reruns byte-identical={identical}, "
                    f"stats equal reverse-order evaluation={order_free}")
