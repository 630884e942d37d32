"""Monte-Carlo verification campaigns over random state ensembles.

A campaign samples a deterministic ensemble on sites of dimension >= 2 and
evaluates every check whose shape rule (``reports._APPLIES``) admits its dims.
Each check is one formula over the sample's purity table (``_CHECKS``), which
returns (slack, lhs, rhs, *named values); the campaign reads the slack and
builds no report.  The campaign's input rules, the shape rules and the
options a formula takes are applied once per campaign, not per sample, and
samples are drawn through the private ``states._draw`` on the checked dims.
The public checks apply the same rules and report the same formulas, so
``bloch-lab check`` prints, for any sample, the slack the campaign saw.
Slack below -1e-9 counts as a violation; below -1e-6 the sample becomes a
counterexample candidate, is re-evaluated by the same formula with fsum
reductions, and, if confirmed, is dumped to ce_<hash>.json for inspection.

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
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from .entropy import (_dim_ssa, _gen_pseudo, _subadd, check_dim_ssa, check_gen_pseudo_additivity,
                      check_subadditivity)
from .io import state_to_jsonable
from .monotone import (OptimizerConfig, _lemma5, _lemma6, _thm1i, _thm1ii, check_lemma5, check_lemma6,
                       check_thm1_i, check_thm1_ii)
from .reports import _APPLIES, CANDIDATE_TOL, SLACK_TOL, _require_applicable
from .states import (DensityMatrix, EnsembleSpec, _check_count, _check_dims, _draw, _precise, _shown,
                     random_state)

# name -> (public check, its formula, keyword options both take), in campaign
# order.  The formula, callable(state, **options) -> (slack, lhs, rhs, *named
# values), reads the purity table and runs no input rule: campaigns, precise
# re-checks and refinement call it and read the slack, and the public check
# applies the input rules and builds its report from the same tuple.  The
# shapes each check applies to are reports._APPLIES.
_CHECKS = {
    "thm1i": (check_thm1_i, _thm1i, ("config",)),
    "thm1ii": (check_thm1_ii, _thm1ii, ()),
    "lemma5": (check_lemma5, _lemma5, ("config",)),
    "lemma6": (check_lemma6, _lemma6, ("d_e",)),
    "dim-ssa": (check_dim_ssa, _dim_ssa, ()),
    "subadd": (check_subadditivity, _subadd, ("q",)),
    "gen-pseudo": (check_gen_pseudo_additivity, _gen_pseudo, ()),
}
CHECK_ORDER = tuple(_CHECKS)
CONTROL_TRIP_FRACTION = 0.9
# split-optimizer restarts of campaigns and of the re-checks of their samples
CAMPAIGN_RESTARTS = 8


def applicable_inequalities(dims) -> tuple[str, ...]:
    """The checks that make sense for a site-dimension tuple, canonical order."""
    dims = _check_dims(dims)
    return tuple(name for name in CHECK_ORDER if _APPLIES[name](dims))


def _check_for(name: str, dims, **options) -> tuple:
    """(public check, formula) of one check applicable to dims, each callable(state).

    The check returns an InequalityReport and the formula (slack, lhs, rhs,
    *named values).  Of ``options`` both bind only those the check takes and
    that are not None; one that binds none is returned as the plain function.
    """
    if not isinstance(name, str) or name not in _CHECKS:
        raise ValueError(f"unknown inequality {_shown(name)}; choose from {CHECK_ORDER}")
    _require_applicable(name, dims)
    *pair, takes = _CHECKS[name]
    bound = {key: options[key] for key in takes if options.get(key) is not None}
    return tuple(partial(f, **bound) if bound else f for f in pair)


def _campaign_check(name: str, dims, restarts: int):
    """The formula of ``name`` with the optimizer a campaign of ``restarts`` restarts uses."""
    return _check_for(name, dims, config=OptimizerConfig(restarts=restarts))[1]


def make_check_table(dims, restarts: int = CAMPAIGN_RESTARTS):
    """name -> formula callable(state) -> (slack, lhs, rhs, *named), for the checks applicable to dims."""
    return {name: _campaign_check(name, dims, restarts) for name in applicable_inequalities(dims)}


@dataclass(frozen=True)
class Campaign:
    """One verification run: ensemble, sample count, and checks to apply.

    ``dims`` (each >= 2: a site of dimension 1 gives no evidence), ``samples``
    and ``restarts`` are stored as ints; a bool or float is rejected.  ``negate``
    must be a bool: a string or a number is rejected, not read as true.
    ``ensemble`` must be an EnsembleSpec, and ``inequalities`` a sequence of
    distinct check names that apply to dims, or ("all",) (``_resolve_checks``),
    stored as a tuple; one bare name is one check.

    Campaigns run serially.  ``threads`` is kept only so that callers which
    pass ``threads=1`` keep working: it accepts None or 1, and nothing reads it.
    """

    dims: tuple[int, ...]
    ensemble: EnsembleSpec = EnsembleSpec()
    inequalities: tuple[str, ...] = ("all",)
    samples: int = 1000
    threads: int | None = None
    restarts: int = CAMPAIGN_RESTARTS
    negate: bool = False
    out_dir: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "dims", _check_dims(self.dims, 2))
        for name in ("samples", "restarts"):
            object.__setattr__(self, name, _check_count(name, getattr(self, name)))
        if not isinstance(self.negate, bool):
            raise ValueError(f"invalid negate {_shown(self.negate)}: need a bool")
        if not isinstance(self.ensemble, EnsembleSpec):
            raise ValueError(f"invalid ensemble {_shown(self.ensemble)}: need an EnsembleSpec")
        names = self.inequalities
        if isinstance(names, str):
            names = (names,)  # one bare name is one check
        elif not isinstance(names, Sequence):
            raise ValueError(f"invalid inequalities {_shown(names)}: need a sequence of check names")
        # kept as a tuple, so that a campaign built from a list hashes
        object.__setattr__(self, "inequalities", tuple(names))
        _resolve_checks(self.inequalities, self.dims)
        if self.threads is not None and _check_count("threads", self.threads) != 1:
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

    def control_tripped(self) -> bool:
        """Whether, as a negation control, this report tripped on enough pairs.

        Healthy checks must report a violation on at least
        CONTROL_TRIP_FRACTION of the (sample, check) pairs.
        """
        return self.total_violations >= CONTROL_TRIP_FRACTION * self.samples * len(self.stats)

    def to_jsonable(self, deterministic: bool = False) -> dict:
        """The report as JSON; ``deterministic`` drops the wall-clock fields."""
        out = {
            "dims": list(self.dims),
            "ensemble": self.ensemble_kind,
            "seed": self.seed,
            "samples": self.samples,
            "inequalities": list(self.inequalities),
            "negate": self.negate,
            "checks": {name: asdict(st) for name, st in self.stats.items()},
        }
        if deterministic:
            for st in out["checks"].values():
                del st["seconds"]
        else:
            out["wall_clock_s"] = self.wall_clock
        return out


def _resolve_checks(names: tuple[str, ...], dims: tuple[int, ...]) -> tuple[str, ...]:
    """The checks a campaign on dims runs, in order; ValueError on an unknown, inapplicable
    or repeated name, or no check at all."""
    if names == ("all",):
        names = applicable_inequalities(dims)
    else:
        for k, name in enumerate(names):
            _check_for(name, dims)  # raises on an unknown or inapplicable name
            if name in names[:k]:
                raise ValueError(f"inequality {name!r} is listed more than once")
    if not names:  # a campaign without checks would pass without evidence
        raise ValueError(f"no inequality selected that applies to dims {dims}")
    return names


def run_campaign(campaign: Campaign) -> CampaignReport:
    checks = _resolve_checks(campaign.inequalities, campaign.dims)
    table = make_check_table(campaign.dims, restarts=campaign.restarts)
    t0 = time.perf_counter()

    slacks_by_check: dict[str, list[float]] = {name: [] for name in checks}
    seconds = dict.fromkeys(checks, 0.0)
    ce_files: dict[str, list[str]] = {name: [] for name in checks}
    for i in range(campaign.samples):
        state = _draw(campaign.dims, campaign.ensemble, i)
        for name in checks:
            start = time.perf_counter()
            slack = table[name](state)[0]
            seconds[name] += time.perf_counter() - start
            if campaign.negate:
                slack = -slack
            elif slack < -CANDIDATE_TOL:
                # re-checked at once, while this sample's split solves are memoized
                precise = table[name](_precise(state))[0]
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
    return run_campaign(replace(campaign, negate=True))


# ---------------------------------------------------------------------------
# extended-precision re-evaluation
#
# Every closed-form check (and the equal-dimension or composite monotone) is
# a formula over marginal purities Tr(rho_v^2).  The re-check runs the very
# same formulas on the state's precise twin (states._precise), which shares
# the state's matrix and tables its own purities with each sum of squares
# reduced by math.fsum, so a candidate cannot be an artifact of naive
# accumulation order.  The twin traces the same marginals as partial_trace,
# from one cached trace plan.  The split optimizer (thm1i and lemma5 between
# sites of unequal dimension) reads no purities; the twin's marginals have
# the state's bytes, so its re-check returns the memoized standard solve --
# thm1i's stack of A|E and B|E, or lemma5's A|B -- and only its delta reads
# the precise purity.


def precise_slack(name: str, state: DensityMatrix, restarts: int = CAMPAIGN_RESTARTS) -> float:
    """Recompute a check's slack with fsum-reduced marginal purities."""
    return _campaign_check(name, state.dims, restarts)(_precise(state))[0]


def _dump_counterexample(campaign: Campaign, name: str, index: int,
                         state: DensityMatrix, slack: float, precise: float) -> str:
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
                   max_steps: int = 200, restarts: int = CAMPAIGN_RESTARTS) -> RefineResult:
    """Descend the slack landscape from a state by random convex perturbations.

    Proposals mix the current state with random ensemble draws (and the
    maximally mixed state), with the mixing weight halved whenever a round
    of proposals fails to decrease the slack.  Every reported value is a
    genuine evaluation of an explicit state, never an extrapolation.
    """
    formula = _campaign_check(name, state.dims, restarts)
    max_steps = _check_count("max_steps", max_steps, 0)
    cur = state
    cur_slack = formula(cur)[0]
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
                s = formula(cand)[0]
                if s < cur_slack:
                    cur, cur_slack = cand, s
                    accepted += 1
                    improved = True
        if not improved:
            eps *= 0.5
    return RefineResult(initial_slack=float(initial), final_slack=float(cur_slack),
                        accepted=accepted, state=cur)
