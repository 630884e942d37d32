"""Shared result record for inequality checks."""

from __future__ import annotations

from dataclasses import dataclass, field

SLACK_TOL = 1e-9
CANDIDATE_TOL = 1e-6


@dataclass
class InequalityReport:
    """Outcome of one inequality evaluation on one state.

    ``slack`` is rhs - lhs; the check holds when slack >= -1e-9.  ``extras``
    carries check-specific diagnostics (norms, margins, component values).
    """

    inequality: str
    lhs: float
    rhs: float
    slack: float
    holds: bool
    extras: dict = field(default_factory=dict)


def report_from_sides(name: str, lhs: float, rhs: float, *,
                      extras: dict | None = None) -> InequalityReport:
    slack = rhs - lhs
    return InequalityReport(
        inequality=name,
        lhs=float(lhs),
        rhs=float(rhs),
        slack=float(slack),
        holds=bool(slack >= -SLACK_TOL),
        extras=extras or {},
    )
