"""Campaign machinery: check applicability, aggregation, determinism,
negation control, counterexample dumps and minimum refinement."""

from __future__ import annotations

import json
import re
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from bloch_lab import (Campaign, EnsembleSpec, OptimizerConfig, applicable_inequalities,
                       check_dim_ssa, check_gen_pseudo_additivity, check_lemma5, check_lemma6,
                       check_subadditivity, check_thm1_i, check_thm1_ii, dim_ssa_vs_subadd,
                       from_matrix, maximally_mixed, negation_control, precise_slack,
                       random_state, refine_minimum, run_campaign)
from bloch_lab.verify import CHECK_ORDER, _dump_counterexample, make_check_table


def hs(seed):
    return EnsembleSpec(kind="hilbert-schmidt", seed=seed)


# ---------------------------------------------------------------------------
# applicability


def test_applicable_by_shape():
    assert applicable_inequalities((2, 2)) == ("lemma6", "subadd", "gen-pseudo")
    assert applicable_inequalities((2, 3)) == ("subadd", "gen-pseudo")
    assert applicable_inequalities((2, 2, 2)) == (
        "thm1i", "thm1ii", "lemma5", "dim-ssa", "subadd", "gen-pseudo")
    assert applicable_inequalities((2, 2, 3)) == (
        "thm1i", "thm1ii", "lemma5", "dim-ssa", "subadd", "gen-pseudo")
    assert applicable_inequalities((3, 2, 2)) == ("lemma5", "dim-ssa", "subadd", "gen-pseudo")
    assert applicable_inequalities((2, 2, 2, 2)) == ("dim-ssa", "subadd", "gen-pseudo")


PUBLIC_CHECKS = {
    "thm1i": check_thm1_i, "thm1ii": check_thm1_ii, "lemma5": check_lemma5,
    "lemma6": check_lemma6, "dim-ssa": check_dim_ssa, "subadd": check_subadditivity,
    "gen-pseudo": check_gen_pseudo_additivity, "dim-ssa-vs-subadd": dim_ssa_vs_subadd,
}
SHAPE_GRID = tuple(dict.fromkeys([*(dims for n in range(1, 5) for dims in product((2, 3), repeat=n)),
                                  (2, 3, 2), (3, 2, 2), (2, 2, 4)]))


@pytest.mark.parametrize("dims", SHAPE_GRID, ids=lambda d: "x".join(map(str, d)))
@pytest.mark.parametrize("name", [*CHECK_ORDER, "dim-ssa-vs-subadd"])
def test_direct_call_follows_the_shape_rule(name, dims):
    # a check called directly applies to exactly the shapes a campaign runs
    # it on (the comparison reads dim-ssa's rule), and refuses the rest with
    # the message that check and verify give
    rule = "dim-ssa" if name == "dim-ssa-vs-subadd" else name
    state = random_state(dims, EnsembleSpec(kind="pure-haar", seed=2))
    if rule in applicable_inequalities(dims):
        assert PUBLIC_CHECKS[name](state).inequality == name
    else:
        message = f"inequality '{name}' is not applicable to dims {dims}"
        with pytest.raises(ValueError, match=re.escape(message)):
            PUBLIC_CHECKS[name](state)


@pytest.mark.parametrize("field, value, message", [
    ("dims", (2, 2.7), "site dimension 2.7"), ("dims", (2, True), "site dimension True"),
    ("dims", (1, 2), "site dimension 1"), ("dims", (2, 2, 1), "site dimension 1"),
    ("samples", True, "samples True"), ("samples", 3.0, "samples 3.0"),
    ("restarts", True, "restarts True"), ("restarts", 2.5, "restarts 2.5"),
    ("negate", "no", "negate 'no'"), ("negate", 0.0, "negate 0.0"), ("negate", 1, "negate 1"),
    ("inequalities", 5, "inequalities 5"), ("inequalities", None, "inequalities None"),
    ("ensemble", "hs", "ensemble 'hs'")])
def test_campaign_rejects_what_it_cannot_run(field, value, message):
    # a float would be truncated and a bool read as 1, each reported as given;
    # a site of dimension 1 gives no evidence (subadd holds with equality there);
    # a negate of "no" would run a negation control; a bad ensemble or check list
    # is refused when the campaign is built, not when it runs
    need = {"negate": "a bool", "inequalities": "a sequence of check names",
            "ensemble": "an EnsembleSpec"}.get(field, "an integer")
    with pytest.raises(ValueError, match=f"invalid {re.escape(message)}: need {need}"):
        Campaign(**{"dims": (2, 2), field: value})


def test_campaign_and_optimizer_share_one_count_rule():
    for value in (True, 2.0):
        with pytest.raises(ValueError, match="invalid restarts"):
            OptimizerConfig(restarts=value)
    # numpy integers are integers, and the campaign keeps plain ints, so its
    # report serializes
    c = Campaign(dims=np.array([2, 2]), ensemble=hs(0), samples=np.int64(3),
                 restarts=np.int32(2))
    assert (c.dims, c.samples, c.restarts) == ((2, 2), 3, 2)
    assert all(type(n) is int for n in (*c.dims, c.samples, c.restarts))
    report = json.loads(json.dumps(run_campaign(c).to_jsonable(deterministic=True)))
    assert report["dims"] == [2, 2] and report["samples"] == 3


def test_campaign_rejects_inapplicable_name():
    # the campaign checks its names when it is built, before any sample
    with pytest.raises(ValueError, match="not applicable"):
        Campaign(dims=(2, 3), ensemble=hs(0), inequalities=("thm1i",), samples=1)
    with pytest.raises(ValueError, match="unknown inequality 'nope'"):
        Campaign(dims=(2, 3), ensemble=hs(0), inequalities=("nope",), samples=1)


def test_campaign_and_spec_built_from_lists_hash_and_equal_the_tuple_built():
    spec, spec_t = (EnsembleSpec("product-of", factors=f) for f in (["hs", "hs"], ("hs", "hs")))
    c = Campaign(dims=(2, 2), ensemble=spec, inequalities=["subadd"], samples=2)
    c_t = Campaign(dims=(2, 2), ensemble=spec_t, inequalities=("subadd",), samples=2)
    assert (spec.factors, c.inequalities) == (("hs", "hs"), ("subadd",))
    assert spec == spec_t and c == c_t and len({spec, spec_t}) == len({c, c_t}) == 1
    assert Campaign(dims=(2, 2), inequalities="subadd") == Campaign(dims=(2, 2), inequalities=("subadd",))
    # the campaign reports as the one built from tuples
    got, want = (json.dumps(run_campaign(x).to_jsonable(deterministic=True)) for x in (c, c_t))
    assert got == want


@pytest.mark.parametrize("samples", [0, -4])
def test_campaign_rejects_empty_sample_count(samples):
    # a campaign with no samples has no evidence for a verdict either way
    for negate in (False, True):
        with pytest.raises(ValueError, match="samples"):
            run_campaign(Campaign(dims=(2, 2), ensemble=hs(0), samples=samples, negate=negate))


@pytest.mark.parametrize("dims, names", [((2, 2), ()), ((5,), ("all",))])
def test_campaign_without_checks_is_rejected(dims, names):
    # no selected check, or none that applies, would report clean without evidence
    for negate in (False, True):
        with pytest.raises(ValueError, match="no inequality"):
            run_campaign(Campaign(dims=dims, ensemble=hs(0), inequalities=names, samples=3,
                                  negate=negate))


# ---------------------------------------------------------------------------
# campaign runs


def test_small_campaign_is_clean():
    rep = run_campaign(Campaign(dims=(2, 2, 2), ensemble=hs(5), samples=25,
                                restarts=2))
    assert rep.total_violations == 0
    for name, s in rep.stats.items():
        assert s.samples == 25
        assert s.violations == 0
        assert s.candidates == 0
        assert s.min_slack > 0.0, name
        assert 0 <= s.argmin_index < 25
        assert s.counterexample_files == []


def test_report_does_not_depend_on_evaluation_order(stats_match_reverse_order):
    # (2, 2, 3) sends thm1i through the split optimizer
    campaign = Campaign(dims=(2, 2, 3), ensemble=hs(5), samples=6, restarts=2)
    reports = [run_campaign(campaign) for _ in range(2)]
    blobs = {json.dumps(r.to_jsonable(deterministic=True), sort_keys=True)
             for r in reports}
    assert len(blobs) == 1
    assert set(reports[0].stats) == set(applicable_inequalities(campaign.dims))
    assert stats_match_reverse_order(campaign, reports[0])


def test_wall_clock_only_in_live_reports():
    rep = run_campaign(Campaign(dims=(2, 2), ensemble=hs(1), samples=5))
    assert "wall_clock_s" in rep.to_jsonable(deterministic=False)
    assert "wall_clock_s" not in rep.to_jsonable(deterministic=True)
    # per-check time is a wall-clock field too
    live = rep.to_jsonable(deterministic=False)["checks"]
    assert all(live[name]["seconds"] == st.seconds > 0.0 for name, st in rep.stats.items())
    assert all("seconds" not in c for c in rep.to_jsonable(deterministic=True)["checks"].values())


def test_negation_control_trips_every_check():
    base = Campaign(dims=(2, 2, 2), ensemble=hs(5), samples=20, restarts=2)
    rep = negation_control(base)
    assert rep.negate
    for name, s in rep.stats.items():
        assert s.violations == 20, name
        assert s.counterexample_files == []  # dumps suppressed under negation


def test_campaign_threads_only_accepts_serial():
    Campaign(dims=(2, 2), threads=None)
    Campaign(dims=(2, 2), threads=1)
    with pytest.raises(ValueError, match="serially"):
        Campaign(dims=(2, 2), threads=2)


@pytest.mark.parametrize("names, checks", [("subadd", ("subadd",)),
                                           ("all", ("lemma6", "subadd", "gen-pseudo"))])
def test_bare_string_is_one_check_name(names, checks):
    rep = run_campaign(Campaign(dims=(2, 2), ensemble=hs(0), inequalities=names, samples=2))
    assert rep.inequalities == checks


def test_control_trips_on_ninety_percent_of_pairs():
    rep = negation_control(Campaign(dims=(2, 2), ensemble=hs(0), samples=5,
                                    inequalities=("subadd", "gen-pseudo")))
    assert rep.total_violations == 10 and rep.control_tripped()
    rep.stats["subadd"].violations = 3    # 8 of 10 pairs tripped
    assert not rep.control_tripped()
    rep.stats["subadd"].violations = 4    # 9 of 10
    assert rep.control_tripped()


def test_campaign_rejects_repeated_check_name():
    # a repeated name would share one stats entry while the report lists it
    # twice, so the negation control would expect twice the violations
    for negate in (False, True):
        with pytest.raises(ValueError, match="more than once"):
            Campaign(dims=(2, 2), ensemble=hs(0), inequalities=("subadd", "subadd"), samples=2,
                     negate=negate)


# ---------------------------------------------------------------------------
# precise re-evaluation and dumps


# every check on every shape where it applies; thm1i on (2, 2, 3) runs the
# split optimizer, which repeats its standard evaluation in the re-check
@pytest.mark.parametrize("name", ["dim-ssa", "subadd", "gen-pseudo", "thm1i", "thm1ii",
                                  "lemma5", "lemma6"])
def test_precise_slack_matches_standard(name):
    shapes = [d for d in ((2, 2), (3, 3), (2, 2, 2), (2, 2, 3))
              if name in applicable_inequalities(d)]
    assert shapes
    for dims in shapes:
        table = make_check_table(dims, restarts=2)
        for i in range(5):
            s = random_state(dims, hs(1), index=i)
            std = table[name](s)[0]
            assert precise_slack(name, s, restarts=2) == pytest.approx(std, abs=1e-10), (dims, i)


def test_precise_recheck_after_campaign_reuses_the_split_solves(monkeypatch):
    # (2, 2, 3) thm1i solves its two split pairs as one stack per sample;
    # re-checking a 1-sample campaign's argmin right after it finds the stack in the memo
    from bloch_lab import monotone

    campaign = Campaign(dims=(2, 2, 3), ensemble=hs(8), samples=1, restarts=8)
    st = run_campaign(campaign).stats["thm1i"]
    calls = []
    solve = monotone._optimize_split
    monkeypatch.setattr(monotone, "_optimize_split",
                        lambda objs, config: calls.append(len(objs)) or solve(objs, config))
    state = random_state(campaign.dims, campaign.ensemble, index=st.argmin_index)
    precise = precise_slack("thm1i", state, restarts=campaign.restarts)
    assert precise == pytest.approx(st.min_slack, abs=1e-10)
    assert calls == []
    # the spy does see a solve that is not memoized: one stack of A|E and B|E
    precise_slack("thm1i", state, restarts=3)
    assert calls == [2]


def test_precise_slack_unknown_name():
    with pytest.raises(ValueError, match="unknown inequality 'nope'; choose from"):
        precise_slack("nope", maximally_mixed((2, 2)))


def test_counterexample_dump_layout(tmp_path):
    c = Campaign(dims=(2, 2), ensemble=hs(3), samples=1, out_dir=str(tmp_path))
    state = random_state((2, 2), hs(3), index=0)
    path = _dump_counterexample(c, "subadd", 0, state, -1e-3, -1e-3)
    assert path.startswith(str(tmp_path))
    payload = json.loads(open(path).read())
    assert payload["inequality"] == "subadd"
    assert payload["sample_index"] == 0
    assert payload["slack"] == -1e-3
    rebuilt = payload["state"]
    assert rebuilt["dims"] == [2, 2]
    # the dumped matrix reconstructs to a valid state
    from bloch_lab.io import state_from_jsonable
    from_matrix(state_from_jsonable(payload["state"]).matrix, (2, 2))


def test_candidates_are_rechecked_and_dumped_in_index_order(tmp_path, monkeypatch, capsys):
    # a formula whose slack is -1e-3 on every state: each sample is a violation
    # and a candidate, the precise re-check confirms it, and it is dumped
    from bloch_lab import verify
    from bloch_lab.cli import main

    monkeypatch.setitem(verify._CHECKS, "subadd",
                        (check_subadditivity, lambda state: (-1e-3, 1e-3, 0.0), ()))
    c = Campaign(dims=(2, 2), ensemble=hs(3), inequalities=("subadd",), samples=4,
                 out_dir=str(tmp_path / "lib"))
    st = run_campaign(c).stats["subadd"]
    assert st.violations == st.candidates == c.samples
    assert st.min_slack == -1e-3
    assert len(st.counterexample_files) == c.samples
    assert sorted(str(p) for p in (tmp_path / "lib").iterdir()) == sorted(st.counterexample_files)
    for i, path in enumerate(st.counterexample_files):
        payload = json.loads(open(path).read())
        assert payload["sample_index"] == i
        assert payload["slack"] == payload["precise_slack"] == -1e-3
    # the CLI reports the same run with exit 1 and writes the same files
    code = main(["verify", "--dims", "2,2", "--samples", "4", "--seed", "3",
                 "--inequalities", "subadd", "--out-dir", str(tmp_path / "cli")])
    assert code == 1
    files = json.loads(capsys.readouterr().out)["checks"]["subadd"]["counterexample_files"]
    assert sorted(str(p) for p in (tmp_path / "cli").iterdir()) == sorted(files)
    assert [Path(p).name for p in files] == [Path(p).name for p in st.counterexample_files]


def test_candidates_are_rechecked_from_the_memo(tmp_path, monkeypatch):
    # with every slack a candidate, each sample is re-checked right after its
    # own checks and reuses their split solves: one stack of two objectives per
    # (2, 2, 3) sample, although the campaign makes more stacks than the memo holds
    from bloch_lab import monotone, verify

    monkeypatch.setattr(verify, "CANDIDATE_TOL", -10.0)
    calls = []
    solve = monotone._optimize_split
    monkeypatch.setattr(monotone, "_optimize_split",
                        lambda objs, config: calls.append(len(objs)) or solve(objs, config))
    c = Campaign(dims=(2, 2, 3), ensemble=hs(9), inequalities=("thm1i",),
                 samples=monotone.SPLIT_MEMO_SIZE + 1, out_dir=str(tmp_path))
    st = run_campaign(c).stats["thm1i"]
    assert st.candidates == len(st.counterexample_files) == c.samples
    assert calls == [2] * c.samples


# ---------------------------------------------------------------------------
# refinement


def test_refine_never_reports_worse_than_start():
    r = refine_minimum("subadd", maximally_mixed((2, 2)), seed=0, max_steps=30)
    assert r.final_slack <= r.initial_slack
    assert r.initial_slack == pytest.approx(0.25)
    from_matrix(r.state.matrix, (2, 2))  # refined state is a real state


def test_refine_counts_accepted_moves():
    r = refine_minimum("gen-pseudo", random_state((2, 2), hs(9), index=0),
                       seed=1, max_steps=40)
    assert r.accepted >= 0
    assert r.final_slack <= r.initial_slack


def test_refine_unknown_name():
    with pytest.raises(ValueError):
        refine_minimum("wat", maximally_mixed((2, 2)))
