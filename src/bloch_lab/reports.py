"""Shared result record for inequality checks, and the shapes each check applies to."""

from __future__ import annotations

from dataclasses import dataclass, field

SLACK_TOL = 1e-9
CANDIDATE_TOL = 1e-6

# name -> whether the check applies to a tuple of site dimensions, in campaign order
_APPLIES = {
    "thm1i": lambda d: len(d) == 3 and d[0] == d[1],
    "thm1ii": lambda d: len(d) == 3 and d[0] == d[1],
    "lemma5": lambda d: len(d) == 3,
    "lemma6": lambda d: len(d) == 2 and d[0] == d[1],
    "dim-ssa": lambda d: len(d) >= 3,
    "subadd": lambda d: len(d) >= 2,
    "gen-pseudo": lambda d: len(d) >= 2,
}


def _require_applicable(name: str, dims, rule: str | None = None) -> None:
    """ValueError unless the shape rule ``rule`` (default: ``name``'s) admits dims."""
    if not _APPLIES[rule or name](dims):
        raise ValueError(f"inequality {name!r} is not applicable to dims {dims}")


@dataclass
class InequalityReport:
    """Outcome of one inequality evaluation on one state.

    ``slack`` is rhs - lhs unless the check defines it otherwise; the check
    holds when slack >= -1e-9.  ``extras`` carries check-specific
    diagnostics (norms, margins, component values).
    """

    inequality: str
    lhs: float
    rhs: float
    slack: float
    holds: bool
    extras: dict = field(default_factory=dict)


def _report(name: str, values: tuple, *names: str) -> InequalityReport:
    """The report of a check's formula values (slack, lhs, rhs, *named), its extras keyed by ``names``."""
    slack, lhs, rhs, *named = values
    return InequalityReport(inequality=name, lhs=float(lhs), rhs=float(rhs), slack=float(slack),
                            holds=bool(slack >= -SLACK_TOL), extras=dict(zip(names, named)))
