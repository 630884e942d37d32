"""End-to-end CLI behavior through the argparse entry point."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from bloch_lab import (EnsembleSpec, OptimizerConfig, check_dim_ssa,
                       check_gen_pseudo_additivity, check_lemma5, check_lemma6,
                       check_subadditivity, check_thm1_i, check_thm1_ii,
                       dim_ssa_vs_subadd, random_state, save_state)
from bloch_lab.cli import main
from bloch_lab.io import report_to_jsonable
from bloch_lab.verify import CHECK_ORDER, applicable_inequalities


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# happy path pipeline


def test_state_tensor_monotone_pipeline(capsys, tmp_path):
    state_file = str(tmp_path / "state.json")
    code, _, _ = run(capsys, "state", "random", "--dims", "2,2", "--ensemble",
                     "hilbert-schmidt", "--seed", "9", "--out", state_file)
    assert code == 0

    code, out, _ = run(capsys, "tensor", "--state", state_file)
    assert code == 0
    tensor = json.loads(out)
    assert tensor["dims"] == [2, 2]

    code, out, _ = run(capsys, "tensor", "--state", state_file, "--split", "1:1")
    assert code == 0
    assert json.loads(out)["c0"] is not None

    code, out, _ = run(capsys, "monotone", "--state", state_file,
                       "--partition", "A|B")
    assert code == 0
    mono = json.loads(out)
    assert 0.0 <= mono["value"] <= 1.0 + 1e-9

    code, out, _ = run(capsys, "entropy", "--state", state_file, "--q", "2")
    assert code == 0
    ent = json.loads(out)
    assert ent["tsallis"] == pytest.approx(ent["linear_entropy"], abs=1e-12)

    code, out, _ = run(capsys, "check", "--state", state_file,
                       "--inequality", "gen-pseudo")
    assert code == 0
    rep = json.loads(out)
    assert rep["holds"] is True


def test_basis_command(capsys):
    code, out, _ = run(capsys, "basis", "--dim", "3", "--cut", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["cut"] == 2
    assert len(payload["elements"]) == 9


def test_three_site_partition_letters(capsys, tmp_path):
    state_file = str(tmp_path / "ghz.json")
    code, _, _ = run(capsys, "state", "random", "--dims", "2,2,2",
                     "--ensemble", "pure-haar", "--seed", "2", "--out", state_file)
    assert code == 0
    code, out, _ = run(capsys, "monotone", "--state", state_file,
                       "--partition", "A|BE")
    assert code == 0
    assert json.loads(out)["g"] == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# check: the campaign registry, with the CLI's options


_CHECK_FLAGS = {"subadd": ("--q", "3"), "lemma6": ("--d-e", "16"),
                "thm1i": ("--restarts", "2", "--seed", "1"),
                "lemma5": ("--restarts", "2", "--seed", "1")}


@pytest.mark.parametrize("name", [*CHECK_ORDER, "dim-ssa-vs-subadd"])
def test_check_command_matches_library_check(capsys, tmp_path, name):
    config = OptimizerConfig(restarts=2, seed=1)
    library = {
        "thm1i": lambda s: check_thm1_i(s, config=config),
        "thm1ii": check_thm1_ii,
        "lemma5": lambda s: check_lemma5(s, config=config),
        "lemma6": lambda s: check_lemma6(s, d_e=16),
        "dim-ssa": check_dim_ssa,
        "subadd": lambda s: check_subadditivity(s, q=3.0),
        "gen-pseudo": check_gen_pseudo_additivity,
        "dim-ssa-vs-subadd": dim_ssa_vs_subadd,
    }[name]
    for dims in [(2, 2), (2, 2, 2), (2, 2, 3), (3, 2, 2)]:
        state = random_state(dims, EnsembleSpec(kind="hilbert-schmidt", seed=5))
        state_file = tmp_path / f"{len(dims)}_{dims[0]}_{dims[-1]}.json"
        save_state(state, state_file)
        code, out, err = run(capsys, "check", "--state", str(state_file),
                             "--inequality", name, *_CHECK_FLAGS.get(name, ()))
        if name in CHECK_ORDER:
            applicable = name in applicable_inequalities(dims)
        else:
            applicable = len(dims) >= 3
        if applicable:
            assert code == 0, (dims, err)
            want = json.loads(json.dumps(report_to_jsonable(library(state))))
            assert json.loads(out) == want, dims
        else:
            assert code == 2 and "error:" in err and not out, dims


@pytest.mark.parametrize("name, flags", [("gen-pseudo", ("--q", "3")),
                                         ("subadd", ("--d-e", "16")),
                                         ("thm1ii", ("--restarts", "2")),
                                         ("dim-ssa-vs-subadd", ("--seed", "1"))])
def test_check_rejects_flags_the_check_does_not_read(capsys, tmp_path, name, flags):
    state_file = tmp_path / "s.json"
    save_state(random_state((2, 2, 2), EnsembleSpec(kind="hilbert-schmidt", seed=5)), state_file)
    code, out, err = run(capsys, "check", "--state", str(state_file), "--inequality", name, *flags)
    assert code == 2 and not out
    assert f"{flags[0]} does not apply to {name}" in err


# ---------------------------------------------------------------------------
# exit codes


def test_missing_state_file_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "--state", "/does/not/exist.json",
                       "--inequality", "subadd")
    assert code == 2
    assert "error:" in err


def test_malformed_state_file_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    code, _, err = run(capsys, "tensor", "--state", str(bad))
    assert code == 2
    assert "line" in err


def test_non_finite_state_file_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps({"dims": [2], "matrix": [[float("nan"), 0], [0, 0], [0, 0], [0.5, 0]]}))
    code, out, err = run(capsys, "entropy", "--state", str(bad))
    assert code == 2 and "finite" in err and not out


def test_bad_partition_is_usage_error(capsys, tmp_path):
    state_file = str(tmp_path / "s.json")
    run(capsys, "state", "random", "--dims", "2,2", "--seed", "1",
        "--out", state_file)
    for bad in ("AB", "A|Z", "A|", "A|B|E"):
        code, _, err = run(capsys, "monotone", "--state", state_file,
                           "--partition", bad)
        assert code == 2, bad
        assert "partition" in err


@pytest.mark.parametrize("restarts", ["0", "-5"])
def test_bad_restarts_is_usage_error(capsys, tmp_path, restarts):
    state_file = str(tmp_path / "s.json")
    run(capsys, "state", "random", "--dims", "2,3", "--seed", "1", "--out", state_file)
    for argv in (("monotone", "--state", state_file, "--partition", "A|B"),
                 ("check", "--state", state_file, "--inequality", "subadd"),
                 ("verify", "--dims", "2,3", "--samples", "2")):
        code, out, err = run(capsys, *argv, "--restarts", restarts)
        assert code == 2, argv
        assert "restarts" in err and not out, argv


def test_group_of_dimension_one_is_usage_error(capsys, tmp_path):
    # the monotone's normalization is 0 there; no traceback, no exit 1
    pair, triple = str(tmp_path / "pair.json"), str(tmp_path / "triple.json")
    run(capsys, "state", "random", "--dims", "1,2", "--seed", "1", "--out", pair)
    run(capsys, "state", "random", "--dims", "2,2,1", "--seed", "1", "--out", triple)
    for argv in (("monotone", "--state", pair, "--partition", "A|B"),
                 ("check", "--state", triple, "--inequality", "thm1ii"),
                 ("verify", "--dims", "2,2,1", "--samples", "2")):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert "positive g" in err and not out, argv


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_bad_thread_count_is_usage_error(capsys, tmp_path, monkeypatch, threads):
    # campaigns run serially: the flag and the config key are gone, so any
    # thread count is a usage error, and BLOCH_LAB_THREADS is not read
    verify = ("verify", "--dims", "2,2", "--samples", "2")
    with pytest.raises(SystemExit) as exc:
        main([*verify, "--threads", threads])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    cfg = tmp_path / "cfg"
    cfg.write_text(f"threads = {threads}\n")
    code, out, err = run(capsys, "--config", str(cfg), *verify)
    assert code == 2 and "unknown config key 'threads'" in err and not out
    monkeypatch.setenv("BLOCH_LAB_THREADS", threads)
    code, out, err = run(capsys, *verify)
    assert code == 0 and json.loads(out)["samples"] == 2 and not err


@pytest.mark.parametrize("samples", ["0", "-4"])
def test_empty_campaign_is_usage_error(capsys, samples):
    for extra in ((), ("--negate-control",)):
        code, out, err = run(capsys, "verify", "--dims", "2,2", "--samples", samples, *extra)
        assert code == 2, extra
        assert "samples" in err and not out, extra


def test_verify_clean_run_exits_zero(capsys, tmp_path):
    out_file = str(tmp_path / "report.json")
    code, _, _ = run(capsys, "verify", "--dims", "2,2", "--samples", "10",
                     "--seed", "3", "--deterministic", "--out", out_file)
    assert code == 0
    report = json.loads(open(out_file).read())
    assert report["samples"] == 10
    assert "wall_clock_s" not in report


def test_verify_negate_control_exits_zero_when_tripped(capsys):
    code, out, _ = run(capsys, "verify", "--dims", "2,2", "--samples", "10",
                      "--seed", "3", "--negate-control")
    assert code == 0
    report = json.loads(out)
    assert report["negate"] is True


def test_verify_repeated_check_name_is_usage_error(capsys):
    for extra in ((), ("--negate-control",)):
        code, out, err = run(capsys, "verify", "--dims", "2,2", "--samples", "5",
                             "--inequalities", "subadd,subadd", *extra)
        assert code == 2, extra
        assert "more than once" in err and not out, extra


def test_verify_exit_one_on_violations(capsys, monkeypatch):
    import bloch_lab.cli as cli
    from bloch_lab.verify import CampaignReport, CheckStats

    fake = CampaignReport(dims=(2, 2), ensemble_kind="hilbert-schmidt", seed=0,
                          samples=4, inequalities=("subadd",), negate=False,
                          stats={"subadd": CheckStats(samples=4, violations=1,
                                                      candidates=1, min_slack=-1e-3,
                                                      argmin_index=2)},
                          wall_clock=0.0)
    monkeypatch.setattr(cli, "run_campaign", lambda campaign: fake)
    code, _, _ = run(capsys, "verify", "--dims", "2,2", "--samples", "4")
    assert code == 1


# ---------------------------------------------------------------------------
# sweep and config


def test_sweep_csv_deterministic_bytes(capsys, tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    for path in (a, b):
        code, _, _ = run(capsys, "--deterministic", "sweep", "--figure", "fig1",
                         "--case", "worst", "--points", "11", "--format", "csv",
                         "--out", path)
        assert code == 0
    assert open(a, "rb").read() == open(b, "rb").read()
    assert open(a).readline().startswith("t,")


def test_sweep_json_to_stdout(capsys):
    code, out, _ = run(capsys, "sweep", "--figure", "figB", "--resolution", "5",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"]["removed"] == 0


def test_sweep_csv_requires_out(capsys):
    code, _, err = run(capsys, "sweep", "--figure", "fig1", "--format", "csv")
    assert code == 2
    assert "--out" in err


def test_config_defaults_and_flag_override(capsys, tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("seed=4\nsamples=10\n")
    out_file = str(tmp_path / "r.json")
    code, _, _ = run(capsys, "--config", str(cfg), "verify", "--dims", "2,2",
                     "--samples", "5", "--deterministic", "--out", out_file)
    assert code == 0
    report = json.loads(open(out_file).read())
    assert report["samples"] == 5  # flag wins
    assert report["seed"] == 4    # config fills the gap


def test_config_policy_applies_and_flag_wins(capsys, tmp_path):
    state_file = str(tmp_path / "s.json")
    run(capsys, "state", "random", "--dims", "2,2", "--seed", "1", "--out", state_file)
    cfg = tmp_path / "cfg"
    cfg.write_text("policy = explicit:100\n")
    monotone = ("monotone", "--state", state_file, "--partition", "A|B")
    code, out, _ = run(capsys, "--config", str(cfg), *monotone)
    assert code == 0 and json.loads(out)["g"] == 100.0
    code, out, _ = run(capsys, "--config", str(cfg), *monotone, "--policy", "explicit:50")
    assert code == 0 and json.loads(out)["g"] == 50.0
    # --partition is required, so a config value could never apply
    cfg.write_text("partition = A|B\n")
    code, out, err = run(capsys, "--config", str(cfg), *monotone)
    assert code == 2 and "unknown config key 'partition'" in err and not out


def test_rank_cap_needs_a_capped_ensemble(capsys, tmp_path):
    for kind in ("hilbert-schmidt", "pure-haar"):
        for argv in (("state", "random", "--dims", "2,2"),
                     ("verify", "--dims", "2,2", "--samples", "2")):
            code, out, err = run(capsys, *argv, "--ensemble", kind, "--rank-cap", "1")
            assert code == 2 and "rank_cap" in err and not out, (kind, argv)
    state_file = str(tmp_path / "s.json")
    code, _, _ = run(capsys, "state", "random", "--dims", "2,2", "--ensemble", "induced",
                     "--rank-cap", "1", "--out", state_file)
    assert code == 0
    code, out, _ = run(capsys, "entropy", "--state", state_file)
    assert code == 0 and json.loads(out)["linear_entropy"] == pytest.approx(0.0, abs=1e-12)


def test_factors_need_the_product_of_ensemble(capsys):
    for argv in (("state", "random", "--dims", "2,2"),
                 ("verify", "--dims", "2,2", "--samples", "3")):
        code, out, err = run(capsys, *argv, "--factors", "pure-haar,pure-haar")
        assert code == 2 and "factors" in err and not out, argv
        code, _, _ = run(capsys, *argv, "--ensemble", "product-of", "--factors", "pure-haar,hs")
        assert code == 0, argv


def test_unknown_config_key(capsys, tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("wat=1\n")
    code, _, err = run(capsys, "--config", str(cfg), "basis", "--dim", "2")
    assert code == 2
    assert "config" in err


def test_console_script_runs():
    proc = subprocess.run([sys.executable, "-m", "bloch_lab.cli", "basis",
                           "--dim", "2"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dim"] == 2
