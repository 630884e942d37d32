"""Checks as formulas over the purity table: frozen values, the formulas against their
public checks, pair values, what a campaign skips, and the same formulas on exact
Fraction tables and on stacks of states."""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from bloch_lab import (Campaign, DensityMatrix, EnsembleSpec, OptimizerConfig, applicable_inequalities,
                       check_lemma5, check_lemma6, check_thm1_i, check_thm1_ii, correlation_monotone,
                       precise_slack, random_state, run_campaign)
from bloch_lab import entropy, monotone, reports, states
from bloch_lab.reports import _APPLIES
from bloch_lab.states import _precise, _PurityTable
from bloch_lab.verify import CAMPAIGN_RESTARTS, _check_for, make_check_table

FROZEN_FILE = Path(__file__).with_name("frozen_check_reprs.json")
FROZEN_SHAPES = ((2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2))
# (ensemble kind, sample index) of the states each shape is checked on
FROZEN_STATES = (("hilbert-schmidt", 0), ("hilbert-schmidt", 1), ("pure-haar", 0))
FROZEN_SEED = 7


def public_checks(dims) -> dict:
    """name -> the public check of every campaign check applicable to dims, with the campaign's optimizer."""
    config = OptimizerConfig(restarts=CAMPAIGN_RESTARTS)
    return {name: _check_for(name, dims, config=config)[0] for name in applicable_inequalities(dims)}


def check_reprs() -> dict[str, dict[str, str]]:
    """'kind-index dims check mode' -> repr of lhs, rhs, slack and each extras value.

    Every public campaign check applicable to each frozen state, with the
    campaign's restarts, once on the state and once on its precise twin (``_precise``).
    """
    rows = {}
    for dims in FROZEN_SHAPES:
        table = public_checks(dims)
        for kind, index in FROZEN_STATES:
            state = random_state(dims, EnsembleSpec(kind, seed=FROZEN_SEED), index)
            for name, check in table.items():
                for mode, view in (("standard", state), ("precise", _precise(state))):
                    report = check(view)
                    values = {"lhs": report.lhs, "rhs": report.rhs, "slack": report.slack,
                              **report.extras}
                    rows[f"{kind}-{index} {dims} {name} {mode}"] = {k: repr(v) for k, v in values.items()}
    return rows


def test_check_values_equal_the_frozen_table():
    # recorded before the closed checks became formulas over the purity reader
    frozen = json.loads(FROZEN_FILE.read_text())
    assert check_reprs() == frozen


@pytest.mark.parametrize("precise", [False, True])
def test_campaign_formulas_equal_the_public_checks(precise):
    # the float a campaign reads, standard or in the precise re-check, is the
    # slack the public check reports, repr for repr
    for dims in FROZEN_SHAPES:
        formulas, checks = make_check_table(dims, restarts=CAMPAIGN_RESTARTS), public_checks(dims)
        assert tuple(formulas) == tuple(checks)
        for kind, index in FROZEN_STATES:
            state = random_state(dims, EnsembleSpec(kind, seed=FROZEN_SEED), index)
            for name, formula in formulas.items():
                view = _precise(state) if precise else state
                got, want = formula(view)[0], checks[name](view).slack
                assert type(got) is float and repr(got) == repr(want), (dims, kind, index, name)


def test_campaign_and_precise_recheck_build_no_report(monkeypatch):
    built = []
    report = reports.InequalityReport
    monkeypatch.setattr(reports, "InequalityReport",
                        lambda *args, **kwargs: built.append(1) or report(*args, **kwargs))
    # six checks apply to (2,2,2); the precise re-check of each reads its formula too
    campaign = Campaign(dims=(2, 2, 2), samples=4)
    stats = run_campaign(campaign).stats
    for name, st in stats.items():
        precise_slack(name, random_state(campaign.dims, campaign.ensemble, st.argmin_index))
    assert len(stats) == 6 and built == []
    # the spy does count a public check's report
    check_thm1_ii(random_state((2, 2, 2), EnsembleSpec()))
    assert built == [1]


def test_closed_campaign_checks_no_partition_and_builds_no_monotone_result(monkeypatch):
    counts = Counter()
    check_partition, result = monotone._check_partition, monotone.MonotoneResult

    def counted(name, f):
        return lambda *args, **kwargs: counts.update([name]) or f(*args, **kwargs)

    monkeypatch.setattr(monotone, "_check_partition", counted("partition", check_partition))
    monkeypatch.setattr(monotone, "MonotoneResult", counted("result", result))
    # thm1i, thm1ii and lemma5 on (2,2,2) read six closed pairs per sample
    report = run_campaign(Campaign(dims=(2, 2, 2), samples=4))
    assert report.total_violations == 0
    assert counts == Counter()
    # the spies do count a public call
    correlation_monotone(random_state((2, 2, 2), EnsembleSpec()), ((0,), (1,)))
    assert counts == Counter(partition=1, result=1)


def test_split_check_traces_each_subset_once(monkeypatch):
    traced = Counter()
    marginal = states._marginal

    def counted(state, keep):
        traced.update([tuple(keep)])
        return marginal(state, keep)

    monkeypatch.setattr(states, "_marginal", counted)
    monkeypatch.setattr(monotone, "_marginal", counted)
    state = random_state((2, 2, 3), EnsembleSpec("hilbert-schmidt", seed=5))
    check_thm1_i(state, OptimizerConfig(restarts=8))
    # A|E and B|E are split pairs: the memo key's marginal also fills the purity table
    assert traced == Counter({(0, 2): 1, (1, 2): 1, (0, 1, 2): 1, (0, 1): 1, (2,): 1})


# check name -> (check, {extras key: the pair whose monotone value it reports})
PAIRS = {
    "thm1i": (check_thm1_i, {"t_ae": ((0,), (2,)), "t_be": ((1,), (2,)), "t_abe": ((0, 1), (2,))}),
    "thm1ii": (check_thm1_ii, {"t_abe": ((0, 1), (2,))}),
    "lemma5": (check_lemma5, {"t_ab": ((0,), (1,)), "t_a_be": ((0,), (1, 2))}),
    "lemma6": (check_lemma6, {"t": ((0,), (1,))}),
}


@pytest.mark.parametrize("precise", [False, True])
@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 2, 2), (3, 3, 3), (2, 2, 3), (2, 3, 2), (3, 2, 2)])
def test_check_pair_values_equal_the_monotone_bit_for_bit(dims, precise):
    # (2,2,3), (2,3,2) and (3,2,2) have split pairs; every other pair is closed
    options = {"config": OptimizerConfig(restarts=8)}
    for kind in ("hilbert-schmidt", "pure-haar"):
        state = random_state(dims, EnsembleSpec(kind, seed=11))
        state = _precise(state) if precise else state
        for name in (name for name in PAIRS if _APPLIES[name](dims)):
            check, pairs = PAIRS[name]
            report = check(state, **options) if name in ("thm1i", "lemma5") else check(state)
            want = {key: correlation_monotone(state, pair, **options).value
                    for key, pair in pairs.items()}
            assert {key: repr(report.extras[key]) for key in pairs} == {
                key: repr(value) for key, value in want.items()}, (name, kind)


# ---------------------------------------------------------------------------
# one formula for every number type: exact Fractions and stacks of states

GENERIC_SHAPES = ((2, 2), (2, 3), (3, 3), (2, 2, 2), (3, 3, 3), (2, 2, 3))


def closed_formulas(dims) -> dict:
    """name -> formula of every check applicable to dims that reads only the purity table:
    the campaign formulas but a split thm1i, and dim-ssa-vs-subadd."""
    formulas = make_check_table(dims, restarts=CAMPAIGN_RESTARTS)
    if dims == (2, 2, 3):
        del formulas["thm1i"]  # A|E and B|E are split pairs, which run the optimizer
    if _APPLIES["dim-ssa"](dims):
        formulas["dim-ssa-vs-subadd"] = entropy._dim_ssa_vs_subadd
    return formulas


@pytest.mark.parametrize("dims", GENERIC_SHAPES)
def test_formulas_on_an_exact_table_return_fractions_near_the_float_slack(dims, exact_twin):
    # the float slacks carry their own rounding, up to 1.4e-15 on a gen-pseudo slack of 7.0
    # (3,3,3), so the bound is 1e-15 relative to slacks above 1
    for kind, index in FROZEN_STATES:
        state = random_state(dims, EnsembleSpec(kind, seed=FROZEN_SEED), index)
        exact = exact_twin(state)
        for name, formula in closed_formulas(dims).items():
            got = formula(exact)[0]
            assert type(got) is Fraction, (kind, index, name)
            for view in (state, _precise(state)):
                want = formula(view)[0]
                assert abs(got - Fraction(want)) <= 1e-15 * max(1.0, abs(want)), (kind, index, name)


# exact state (the exact_states fixture) -> the checks whose bound it meets with equality
EXACT_TIGHT = {
    "1/2 x Phi_2": ("thm1i", "lemma5", "dim-ssa", "subadd"),
    "maximally mixed (2,2,2)": ("thm1i", "lemma5", "dim-ssa", "gen-pseudo"),
    "maximally mixed (2,2)": ("lemma6", "gen-pseudo"),
}


@pytest.mark.parametrize("name", EXACT_TIGHT)
def test_tight_states_give_an_exact_zero_slack(name, exact_states, exact_twin):
    state = exact_twin(exact_states[name])
    formulas = make_check_table(state.dims)
    for check in EXACT_TIGHT[name]:
        slack = formulas[check](state)[0]
        assert type(slack) is Fraction and slack == 0, check


class StackTable(_PurityTable):
    """Purities of a stack of states of one shape: each entry is the (N,) array of the states'
    own float purities, and min and max are elementwise."""

    __slots__ = ("states",)
    min, max = staticmethod(np.minimum), staticmethod(np.maximum)

    def __init__(self, states):
        super().__init__(states[0].dims, None, False)
        self.states = states

    def __missing__(self, keep: tuple[int, ...]) -> np.ndarray:
        value = self[keep] = np.array([s._marginal_purities[keep] for s in self.states])
        return value


def stacked(states) -> DensityMatrix:
    """A stand-in state whose purity table is the StackTable of ``states``; it has no matrix."""
    stack = object.__new__(DensityMatrix)
    stack.dims, stack.matrix, stack._marginal_purities = states[0].dims, None, StackTable(states)
    return stack


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("dims", GENERIC_SHAPES)
def test_formulas_on_a_stack_table_equal_the_per_state_runs_bit_for_bit(dims, n):
    states = [random_state(dims, EnsembleSpec(kind, seed=FROZEN_SEED), index)
              for kind, index in FROZEN_STATES[:n]]
    for name, formula in closed_formulas(dims).items():
        want = [formula(state) for state in states]
        got = formula(stacked(states))
        assert len(got) == len(want[0]), name
        for k, value in enumerate(got):
            column = np.broadcast_to(value, (n,)).tolist()
            assert [repr(v) for v in column] == [repr(row[k]) for row in want], (name, k)
