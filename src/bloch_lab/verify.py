"""Monte-Carlo verification campaigns over random state ensembles.

A campaign samples a deterministic ensemble, evaluates a set of inequality
checks on every sample, and aggregates slacks.  Slack below -1e-9 counts
as a violation; below -1e-6 the sample becomes a counterexample candidate,
is re-evaluated with extended-precision (fsum) reductions, and, if
confirmed, is dumped to ce_<hash>.json for inspection.

Per-sample results are reduced in sample order, so a report depends only
on (dims, ensemble, checks, samples), never on the worker-thread count.
The negation control flips every slack sign before aggregation; on healthy
checks it must report violations nearly everywhere, which exercises the
detection path end to end.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .correlation import _fsum_purities
from .entropy import (check_dim_ssa, check_gen_pseudo_additivity, check_subadditivity)
from .monotone import (OptimizerConfig, check_lemma5, check_lemma6, check_thm1_i,
                       check_thm1_ii)
from .reports import CANDIDATE_TOL, SLACK_TOL
from .states import DensityMatrix, EnsembleSpec, random_state

CHECK_ORDER = ("thm1i", "thm1ii", "lemma5", "lemma6", "dim-ssa", "subadd", "gen-pseudo")


def applicable_inequalities(dims) -> tuple[str, ...]:
    """The checks that make sense for a site-dimension tuple, canonical order."""
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    out = []
    for name in CHECK_ORDER:
        if name in ("thm1i", "thm1ii"):
            ok = n == 3 and dims[0] == dims[1]
        elif name == "lemma5":
            ok = n == 3
        elif name == "lemma6":
            ok = n == 2 and dims[0] == dims[1]
        elif name == "dim-ssa":
            ok = n >= 3
        else:
            ok = n >= 2
        if ok:
            out.append(name)
    return tuple(out)


def make_check_table(dims, restarts: int = 8, q: float = 2.0):
    """name -> callable(state, state_ref) -> InequalityReport for these dims."""
    cfg = OptimizerConfig(restarts=restarts)
    return {
        "thm1i": lambda s, ref=None: check_thm1_i(s, config=cfg, state_ref=ref),
        "thm1ii": lambda s, ref=None: check_thm1_ii(s, state_ref=ref),
        "lemma5": lambda s, ref=None: check_lemma5(s, config=cfg, state_ref=ref),
        "lemma6": lambda s, ref=None: check_lemma6(s, state_ref=ref),
        "dim-ssa": lambda s, ref=None: check_dim_ssa(s, state_ref=ref),
        "subadd": lambda s, ref=None: check_subadditivity(s, q=q, state_ref=ref),
        "gen-pseudo": lambda s, ref=None: check_gen_pseudo_additivity(s, state_ref=ref),
    }


def _check_for(name: str, dims, restarts: int):
    """The callable of one check from ``make_check_table``, by name."""
    table = make_check_table(dims, restarts=restarts)
    if name not in table:
        raise ValueError(f"unknown inequality {name!r}; choose from {CHECK_ORDER}")
    return table[name]


@dataclass(frozen=True)
class Campaign:
    """One verification run: ensemble, sample count, and checks to apply."""

    dims: tuple[int, ...]
    ensemble: EnsembleSpec = EnsembleSpec()
    inequalities: tuple[str, ...] = ("all",)
    samples: int = 1000
    threads: int | None = None
    restarts: int = 8
    negate: bool = False
    out_dir: str | None = None


@dataclass
class CheckStats:
    """Aggregated slacks of one check over a campaign."""

    samples: int
    violations: int
    candidates: int
    min_slack: float
    argmin_index: int
    counterexample_files: list[str] = field(default_factory=list)


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
        return out


def resolve_threads(explicit: int | None = None) -> int:
    """Worker count: ``explicit``, else BLOCH_LAB_THREADS, else 1; below 1 is an error."""
    if explicit is not None:
        n, source = int(explicit), "thread count"
    else:
        env = os.environ.get("BLOCH_LAB_THREADS")
        if not env:
            return 1
        try:
            n, source = int(env), "BLOCH_LAB_THREADS value"
        except ValueError:
            raise ValueError(f"invalid BLOCH_LAB_THREADS value {env!r}")
    if n < 1:
        raise ValueError(f"invalid {source} {n}: need an integer >= 1")
    return n


def _resolve_checks(campaign: Campaign) -> tuple[str, ...]:
    names = campaign.inequalities
    if names == ("all",) or names == "all":
        return applicable_inequalities(campaign.dims)
    applicable = set(applicable_inequalities(campaign.dims))
    for n in names:
        if n not in CHECK_ORDER:
            raise ValueError(f"unknown inequality {n!r}; choose from {CHECK_ORDER}")
        if n not in applicable:
            raise ValueError(f"inequality {n!r} is not applicable to dims {campaign.dims}")
    return tuple(names)


def run_campaign(campaign: Campaign) -> CampaignReport:
    if campaign.samples < 1:
        raise ValueError(f"invalid samples {campaign.samples}: need an integer >= 1")
    checks = _resolve_checks(campaign)
    table = make_check_table(campaign.dims, restarts=campaign.restarts)
    threads = resolve_threads(campaign.threads)
    t0 = time.perf_counter()

    def eval_index(i: int) -> dict[str, float]:
        state = random_state(campaign.dims, campaign.ensemble, index=i)
        row = {}
        for name in checks:
            rep = table[name](state)
            row[name] = -rep.slack if campaign.negate else rep.slack
        return row

    if threads == 1:
        rows = [eval_index(i) for i in range(campaign.samples)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(eval_index, range(campaign.samples), chunksize=16))

    stats: dict[str, CheckStats] = {}
    for name in checks:
        slacks = [rows[i][name] for i in range(campaign.samples)]
        violations = sum(1 for s in slacks if s < -SLACK_TOL)
        cand_idx = [i for i, s in enumerate(slacks) if s < -CANDIDATE_TOL]
        min_i = min(range(len(slacks)), key=lambda i: (slacks[i], i))
        ce_files: list[str] = []
        if not campaign.negate:
            for i in cand_idx:
                state = random_state(campaign.dims, campaign.ensemble, index=i)
                precise = precise_slack(name, state, restarts=campaign.restarts)
                if precise < -CANDIDATE_TOL:
                    ce_files.append(_dump_counterexample(campaign, name, i, state,
                                                        slacks[i], precise))
        stats[name] = CheckStats(
            samples=campaign.samples,
            violations=violations,
            candidates=len(cand_idx),
            min_slack=float(slacks[min_i]),
            argmin_index=min_i,
            counterexample_files=ce_files,
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
# purities and repeats its standard evaluation.


def precise_slack(name: str, state: DensityMatrix, restarts: int = 8) -> float:
    """Recompute a check's slack with fsum-reduced marginal purities."""
    check = _check_for(name, state.dims, restarts)
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
    check = _check_for(name, state.dims, restarts)
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
