"""Fixtures shared by several test modules."""

from __future__ import annotations

import pytest

from bloch_lab import OptimizerConfig, random_state
from bloch_lab.monotone import _solve_split
from bloch_lab.reports import CANDIDATE_TOL, SLACK_TOL
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
