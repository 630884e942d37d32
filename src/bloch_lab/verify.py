"""Monte-Carlo verification campaigns over random state ensembles.

A campaign samples a deterministic ensemble, evaluates a set of inequality
checks on every sample, and aggregates slacks.  Slack below -1e-9 counts
as a violation; below -1e-6 the sample becomes a counterexample candidate,
is re-evaluated with extended-precision (fsum) reductions, and, if
confirmed, is dumped to ce_<hash>.json for inspection.

Samples are evaluated one after another in index order, and each draw
depends only on (seed, index), so a report depends only on (dims, ensemble,
checks, samples, restarts), not on the order the samples are evaluated in.
The negation control flips every slack sign before aggregation; on healthy
checks it must report violations nearly everywhere, which exercises the
detection path end to end.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .entropy import (check_dim_ssa, check_gen_pseudo_additivity, check_subadditivity)
from .monotone import (OptimizerConfig, check_lemma5, check_lemma6, check_thm1_i,
                       check_thm1_ii)
from .reports import CANDIDATE_TOL, SLACK_TOL
from .states import DensityMatrix, EnsembleSpec, _fsum_purities, random_state

# name -> (applies to these site dims?, check, keyword options it takes),
# in campaign order
_CHECKS = {
    "thm1i": (lambda d: len(d) == 3 and d[0] == d[1], check_thm1_i, ("config",)),
    "thm1ii": (lambda d: len(d) == 3 and d[0] == d[1], check_thm1_ii, ()),
    "lemma5": (lambda d: len(d) == 3, check_lemma5, ("config",)),
    "lemma6": (lambda d: len(d) == 2 and d[0] == d[1], check_lemma6, ("d_e",)),
    "dim-ssa": (lambda d: len(d) >= 3, check_dim_ssa, ()),
    "subadd": (lambda d: len(d) >= 2, check_subadditivity, ("q",)),
    "gen-pseudo": (lambda d: len(d) >= 2, check_gen_pseudo_additivity, ()),
}
CHECK_ORDER = tuple(_CHECKS)


def applicable_inequalities(dims) -> tuple[str, ...]:
    """The checks that make sense for a site-dimension tuple, canonical order."""
    dims = tuple(int(d) for d in dims)
    return tuple(name for name, (applies, _, _) in _CHECKS.items() if applies(dims))


def _check_for(name: str, dims, **options):
    """callable(state) -> InequalityReport of one check applicable to dims.

    Of ``options`` it binds only those the check takes and that are not None;
    a check that takes none is returned as the plain function.
    """
    if name not in _CHECKS:
        raise ValueError(f"unknown inequality {name!r}; choose from {CHECK_ORDER}")
    applies, check, takes = _CHECKS[name]
    if not applies(tuple(int(d) for d in dims)):
        raise ValueError(f"inequality {name!r} is not applicable to dims {tuple(dims)}")
    bound = {key: options[key] for key in takes if options.get(key) is not None}
    return partial(check, **bound) if bound else check


def make_check_table(dims, restarts: int = 8):
    """name -> callable(state) -> InequalityReport, for the checks applicable to dims."""
    config = OptimizerConfig(restarts=restarts)
    return {name: _check_for(name, dims, config=config) for name in applicable_inequalities(dims)}


@dataclass(frozen=True)
class Campaign:
    """One verification run: ensemble, sample count, and checks to apply.

    Campaigns run serially.  ``threads`` is kept only so that callers which
    pass ``threads=1`` keep working: it accepts None or 1, and nothing reads it.
    """

    dims: tuple[int, ...]
    ensemble: EnsembleSpec = EnsembleSpec()
    inequalities: tuple[str, ...] = ("all",)
    samples: int = 1000
    threads: int | None = None
    restarts: int = 8
    negate: bool = False
    out_dir: str | None = None

    def __post_init__(self):
        if self.threads not in (None, 1):
            raise ValueError(f"invalid threads {self.threads!r}: campaigns run serially, "
                             "so only None or 1 is accepted")


@dataclass
class CheckStats:
    """Aggregated slacks of one check over a campaign.

    ``seconds`` is the wall-clock time spent in the check over all samples,
    precise re-checks not included.
    """

    samples: int
    violations: int
    candidates: int
    min_slack: float
    argmin_index: int
    counterexample_files: list[str] = field(default_factory=list)
    seconds: float = 0.0


@dataclass
class CampaignReport:
    dims: tuple[int, ...]
    ensemble_kind: str
    seed: int
    samples: int
    inequalities: tuple[str, ...]
    negate: bool
    stats: dict[str, CheckStats]
    wall_clock: float

    @property
    def total_violations(self) -> int:
        return sum(s.violations for s in self.stats.values())

    def to_jsonable(self, deterministic: bool = False) -> dict:
        """The report as JSON; ``deterministic`` drops the wall-clock fields."""
        out = {
            "dims": list(self.dims),
            "ensemble": self.ensemble_kind,
            "seed": self.seed,
            "samples": self.samples,
            "inequalities": list(self.inequalities),
            "negate": self.negate,
            "checks": {
                name: {
                    "samples": st.samples,
                    "violations": st.violations,
                    "candidates": st.candidates,
                    "min_slack": st.min_slack,
                    "argmin_index": st.argmin_index,
                    "counterexample_files": st.counterexample_files,
                }
                for name, st in self.stats.items()
            },
        }
        if not deterministic:
            out["wall_clock_s"] = self.wall_clock
            for name, st in self.stats.items():
                out["checks"][name]["seconds"] = st.seconds
        return out


def _resolve_checks(campaign: Campaign) -> tuple[str, ...]:
    names = campaign.inequalities
    if names == ("all",) or names == "all":
        return applicable_inequalities(campaign.dims)
    for k, name in enumerate(names):
        _check_for(name, campaign.dims)  # raises on an unknown or inapplicable name
        if name in names[:k]:
            raise ValueError(f"inequality {name!r} is listed more than once")
    return tuple(names)


def run_campaign(campaign: Campaign) -> CampaignReport:
    if campaign.samples < 1:
        raise ValueError(f"invalid samples {campaign.samples}: need an integer >= 1")
    checks = _resolve_checks(campaign)
    table = make_check_table(campaign.dims, restarts=campaign.restarts)
    t0 = time.perf_counter()

    slacks_by_check: dict[str, list[float]] = {name: [] for name in checks}
    seconds = dict.fromkeys(checks, 0.0)
    ce_files: dict[str, list[str]] = {name: [] for name in checks}
    for i in range(campaign.samples):
        state = random_state(campaign.dims, campaign.ensemble, index=i)
        for name in checks:
            start = time.perf_counter()
            slack = table[name](state).slack
            seconds[name] += time.perf_counter() - start
            if campaign.negate:
                slack = -slack
            elif slack < -CANDIDATE_TOL:
                # re-checked at once, while this sample's split solves are memoized
                precise = precise_slack(name, state, restarts=campaign.restarts)
                if precise < -CANDIDATE_TOL:
                    ce_files[name].append(_dump_counterexample(campaign, name, i, state,
                                                               slack, precise))
            slacks_by_check[name].append(slack)

    stats: dict[str, CheckStats] = {}
    for name, slacks in slacks_by_check.items():
        min_i = min(range(len(slacks)), key=lambda i: (slacks[i], i))
        stats[name] = CheckStats(
            samples=campaign.samples,
            violations=sum(1 for s in slacks if s < -SLACK_TOL),
            candidates=sum(1 for s in slacks if s < -CANDIDATE_TOL),
            min_slack=float(slacks[min_i]),
            argmin_index=min_i,
            counterexample_files=ce_files[name],
            seconds=seconds[name],
        )
    return CampaignReport(
        dims=tuple(campaign.dims),
        ensemble_kind=campaign.ensemble.canonical_kind(),
        seed=campaign.ensemble.seed,
        samples=campaign.samples,
        inequalities=checks,
        negate=campaign.negate,
        stats=stats,
        wall_clock=time.perf_counter() - t0,
    )


def negation_control(campaign: Campaign) -> CampaignReport:
    """Re-run a campaign with every slack sign flipped (detection self-test)."""
    from dataclasses import replace

    return run_campaign(replace(campaign, negate=True))


# ---------------------------------------------------------------------------
# extended-precision re-evaluation
#
# Every closed-form check (and the equal-dimension or composite monotone) is
# a formula over marginal purities Tr(rho_v^2).  The re-check runs the very
# same checks with each purity's sum of squares reduced by math.fsum, so a
# candidate cannot be an artifact of naive accumulation order.  The split
# optimizer (thm1i and lemma5 between sites of unequal dimension) reads no
# purities; its re-check returns the memoized standard solve.


def precise_slack(name: str, state: DensityMatrix, restarts: int = 8) -> float:
    """Recompute a check's slack with fsum-reduced marginal purities."""
    check = _check_for(name, state.dims, config=OptimizerConfig(restarts=restarts))
    with _fsum_purities():
        return check(state).slack


def _dump_counterexample(campaign: Campaign, name: str, index: int,
                         state: DensityMatrix, slack: float, precise: float) -> str:
    from .io import state_to_jsonable

    digest = hashlib.sha256(state.matrix.tobytes() + name.encode()).hexdigest()[:12]
    out_dir = Path(campaign.out_dir or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"ce_{digest}.json"
    payload = {
        "inequality": name,
        "slack": slack,
        "precise_slack": precise,
        "sample_index": index,
        "ensemble": campaign.ensemble.canonical_kind(),
        "seed": campaign.ensemble.seed,
        "state": state_to_jsonable(state),
    }
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


# ---------------------------------------------------------------------------
# minimum refinement


@dataclass
class RefineResult:
    initial_slack: float
    final_slack: float
    accepted: int
    state: DensityMatrix


def refine_minimum(name: str, state: DensityMatrix, seed: int = 0,
                   max_steps: int = 200, restarts: int = 8) -> RefineResult:
    """Descend the slack landscape from a state by random convex perturbations.

    Proposals mix the current state with random ensemble draws (and the
    maximally mixed state), with the mixing weight halved whenever a round
    of proposals fails to decrease the slack.  Every reported value is a
    genuine evaluation of an explicit state, never an extrapolation.
    """
    check = _check_for(name, state.dims, config=OptimizerConfig(restarts=restarts))
    cur = state
    cur_slack = check(cur).slack
    initial = cur_slack
    accepted = 0
    eps = 0.25
    spec = EnsembleSpec(kind="hilbert-schmidt", seed=seed)
    draw = 0
    mixed = np.eye(cur.dim, dtype=complex) / cur.dim
    while eps > 1e-6 and draw < max_steps:
        improved = False
        for _ in range(8):
            if draw >= max_steps:
                break
            sigma = random_state(cur.dims, spec, index=draw).matrix
            draw += 1
            for direction in (sigma, mixed):
                cand = DensityMatrix(cur.dims, (1.0 - eps) * cur.matrix + eps * direction)
                s = check(cand).slack
                if s < cur_slack:
                    cur, cur_slack = cand, s
                    accepted += 1
                    improved = True
        if not improved:
            eps *= 0.5
    return RefineResult(initial_slack=float(initial), final_slack=float(cur_slack),
                        accepted=accepted, state=cur)
