"""Fixtures shared by several test modules."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from bloch_lab import DensityMatrix, OptimizerConfig, maximally_mixed, random_state
from bloch_lab.monotone import _solve_split
from bloch_lab.reports import CANDIDATE_TOL, SLACK_TOL
from bloch_lab.states import _PurityTable
from bloch_lab.verify import _check_for


def _stats_match_reverse_order(campaign, report) -> bool:
    """Whether every check's violations, candidates, min_slack (bit for bit)
    and argmin_index in ``report`` equal a reference computed from the public
    checks, with the campaign's optimizer, on freshly drawn states in reverse
    index order; so the campaign's formulas are checked against the reports."""
    if tuple(report.stats) != report.inequalities:
        return False
    config = OptimizerConfig(restarts=campaign.restarts)
    checks = {name: _check_for(name, campaign.dims, config=config)[0] for name in report.inequalities}
    # every reference split solve runs afresh, in reverse order
    _solve_split.cache_clear()
    slacks = {name: [0.0] * campaign.samples for name in report.inequalities}
    for i in reversed(range(campaign.samples)):
        state = random_state(campaign.dims, campaign.ensemble, index=i)
        for name, row in slacks.items():
            row[i] = checks[name](state).slack
    for name, s in slacks.items():
        min_i = min(range(len(s)), key=lambda i: (s[i], i))
        want = (sum(v < -SLACK_TOL for v in s), sum(v < -CANDIDATE_TOL for v in s),
                s[min_i].hex(), min_i)
        st = report.stats[name]
        if (st.violations, st.candidates, st.min_slack.hex(), st.argmin_index) != want:
            return False
    return True


@pytest.fixture(autouse=True)
def fresh_split_memo():
    """No test reads split solves memoized by an earlier test."""
    _solve_split.cache_clear()


@pytest.fixture
def stats_match_reverse_order():
    return _stats_match_reverse_order


class FractionTable(_PurityTable):
    """Exact purities of a state's matrix: every float is a dyadic rational, so each entry is read
    as a Fraction, and each marginal is traced and its squares summed in Fractions.  Its
    ``ratio`` is Fraction(n, m), so a formula on it keeps every constant exact."""

    __slots__ = ("parts",)
    ratio = staticmethod(Fraction)

    def __init__(self, dims: tuple[int, ...], matrix: np.ndarray):
        super().__init__(dims, matrix, False)
        # the real and the imaginary part, as object arrays of Fractions of shape dims + dims
        self.parts = [np.vectorize(Fraction, otypes=[object])(part).reshape(dims + dims)
                      for part in (matrix.real, matrix.imag)]

    def __missing__(self, keep: tuple[int, ...]) -> Fraction:
        total = Fraction(0)
        for t in self.parts:
            # trace out the sites not kept, the highest first, so no lower site's axes move
            for s in reversed(range(len(self.dims))):
                if s not in keep:
                    t = np.trace(t, axis1=s, axis2=s + t.ndim // 2)
            total += sum(x * x for x in t.ravel())
        self[keep] = total
        return total


def _exact_twin(state: DensityMatrix) -> DensityMatrix:
    """A twin of ``state`` (same dims and matrix) whose purity table is a FractionTable."""
    twin = DensityMatrix(state.dims, state.matrix)
    twin._marginal_purities = FractionTable(twin.dims, twin.matrix)
    return twin


@pytest.fixture
def exact_twin():
    return _exact_twin


@pytest.fixture
def exact_states() -> dict[str, DensityMatrix]:
    """States whose matrix entries are exact binary fractions, on which bounds of the paper are
    tight: name -> state.  "1/2 x Phi_2" is the maximally mixed site A times the Bell projector
    on B and E, built from entries of exactly 1/4; max_entangled(2) is not exact, since its
    (1/sqrt 2)^2 rounds to 0.5000000000000001."""
    bell = np.zeros((4, 4))
    bell[np.ix_([0, 3], [0, 3])] = 0.5
    return {"1/2 x Phi_2": DensityMatrix((2, 2, 2), np.kron(np.eye(2) / 2, bell)),
            "maximally mixed (2,2,2)": maximally_mixed((2, 2, 2)),
            "maximally mixed (2,2)": maximally_mixed((2, 2))}
