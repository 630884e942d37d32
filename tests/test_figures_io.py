"""Figure data sweeps and file round trips."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest

from bloch_lab import (EnsembleSpec, classify_grid, classify_triple, max_entangled,
                       max_sab_genpseudo, max_sab_subadd, maximally_mixed, load_state,
                       random_state, save_state, sweep_fig1, sweep_figA, sweep_figB,
                       validate_surface)
from bloch_lab.basis import gellmann_basis, split_basis
from bloch_lab.correlation import bases_with_split, bloch_coefficients
from bloch_lab.io import (basis_to_jsonable, fig1_to_jsonable,
                          figA_to_jsonable, figB_to_jsonable, load_config,
                          monotone_to_jsonable, report_to_jsonable, state_from_jsonable,
                          state_to_jsonable, tensor_to_jsonable, write_fig1_csv,
                          write_figA_csv, write_figB_csv)
from bloch_lab.monotone import OptimizerConfig, correlation_monotone
from bloch_lab.entropy import check_subadditivity


# ---------------------------------------------------------------------------
# fig1: excess of the environment bound over the separable ceiling


def test_fig1_worst_case_endpoints():
    d1 = sweep_fig1(case="worst", points=101)
    assert d1.excess[2][0] == pytest.approx(4.0 / 3.0)
    for d in d1.d_values:
        assert d1.excess[d][-1] == 0.0  # exactly, not approximately
        assert np.all(np.diff(d1.excess[d]) <= 1e-12)


def test_fig1_best_case_endpoints():
    db = sweep_fig1(case="best", points=101)
    assert db.excess[2][0] == pytest.approx(4.0 / 9.0)
    assert db.excess[2][-1] == 0.0
    for d in db.d_values:
        g = d * d - 1
        assert np.all(db.excess[d] >= 0.0)
        # exactly 0 wherever the local mass fills the room g (1 - t) left by t
        assert np.all(db.excess[d][g * (1.0 - db.t) <= 2.0 * d - 2.0] == 0.0)


def test_fig1_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sweep_fig1(case="typical")
    with pytest.raises(ValueError):
        sweep_fig1(points=1)
    with pytest.raises(ValueError):
        sweep_fig1(d_values=(1, 2))


# ---------------------------------------------------------------------------
# figA / figB


def test_figA_surfaces_and_contour():
    da = sweep_figA(resolution=31)
    assert da.subadd_validation < 1e-8
    assert da.gen_pseudo_validation < 1e-8
    assert len(da.contour) > 0
    # both caps respect the global ceiling 1 - 1/4
    assert float(da.subadd.max()) <= 0.75 + 1e-12
    assert float(da.gen_pseudo.max()) <= 0.75 + 1e-12


def test_figB_counts():
    db = sweep_figB(dims=(2, 2, 2), resolution=9)
    assert db.n_removed == 0
    assert db.n_subadd == db.n_both > 0
    dc = sweep_figB(dims=(2, 2, 100), resolution=9)
    assert dc.n_removed > 0
    assert dc.n_both == dc.n_subadd - dc.n_removed


# function -> (number of sites, call with site dimensions dims)
_SITE_DIMS_CALLS = {
    "max_sab_subadd": (2, lambda dims: max_sab_subadd(0.1, 0.1, dims)),
    "max_sab_genpseudo": (2, lambda dims: max_sab_genpseudo(0.1, 0.1, dims)),
    "validate_surface": (2, lambda dims: validate_surface("subadd", dims, resolution=3)),
    "classify_grid": (3, lambda dims: classify_grid(0.1, 0.1, 0.1, dims)),
    "classify_triple": (3, lambda dims: classify_triple(0.1, 0.1, 0.1, dims)),
    "sweep_figA": (2, lambda dims: sweep_figA(dims, resolution=3)),
    "sweep_figB": (3, lambda dims: sweep_figB(dims, resolution=3)),
}


@pytest.mark.parametrize("name", list(_SITE_DIMS_CALLS))
@pytest.mark.parametrize("shape", ["too-few", "too-many", "dim-1"])
def test_surface_functions_share_one_site_dims_rule(name, shape):
    n, call = _SITE_DIMS_CALLS[name]
    dims = {"too-few": (2,) * (n - 1), "too-many": (2,) * (n + 1),
            "dim-1": (2,) * (n - 1) + (1,)}[shape]
    message = ("invalid site dimension 1: need an integer >= 2" if shape == "dim-1"
               else f"invalid dims {dims}: need {n} site dimensions, each >= 2")
    with pytest.raises(ValueError, match=re.escape(message)):
        call(dims)


# ---------------------------------------------------------------------------
# CSV output


# the deterministic bytes of each figure CSV are frozen: cell formatting and
# row order may not drift
@pytest.mark.parametrize("sweep, writer, digest", [
    (lambda: sweep_fig1(points=5), write_fig1_csv,
     "df088cba66ed7a91af32e5d598217801beb683c6092d078663329ce658413bd6"),
    (lambda: sweep_figA(resolution=5), write_figA_csv,
     "fe8d4734149a0879e3283ba04665d8c7b3e03d757de3c26db7689b5216a5d243"),
    (lambda: sweep_figB(dims=(2, 2, 100), resolution=5), write_figB_csv,
     "4352d40b6682db001f9c7a4bd127f64ca09083bc4d7a302157f04cd0c865d385"),
], ids=["fig1", "figA", "figB"])
def test_figure_csv_bytes_are_frozen(tmp_path, sweep, writer, digest):
    path = tmp_path / "fig.csv"
    writer(sweep(), path, deterministic=True)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# the deterministic bytes of the six standard figure files are frozen: the file
# set, cell formatting and row order may not drift
STANDARD_FIGURE_FILES = {
    "fig1_worst.csv": "200be7bcfc07db6bc7acabe401d39fd79444931408b0ebb69ce749442f77e91c",
    "fig1_best.csv": "8860ada511f93ab9ae62f007bf069ed81953cb62a4e22a4fea8c8a0fa6cb0353",
    "figA_surfaces.csv": "a1d85d49e0edce9c37ab23f60f049f2257aaee509ff37a8c26b185c1e132cb47",
    "figA_surfaces.json": "5fc263b2f5e7cd86e9c41e9ed2bc2edb770f739ec928c8eeb0c54c424ad2e6c8",
    "figB_triples_2x2x2.csv": "496b2eec1f67bc06544ac68707cc68c003b23f4b3f0cea299284b8f485e629fb",
    "figB_triples_2x2x100.csv": "2c7e7b71fd6d875e45a05940d9c9f0954bfc33b4adcbd4ad0c5edd84c6d3390c",
}


def test_figure_driver_writes_the_standard_files(tmp_path, capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "make_figure_data.py"
    spec = importlib.util.spec_from_file_location("make_figure_data", path)
    driver = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(driver)
    assert driver.main(["--deterministic", "--out-dir", str(tmp_path)]) == 0
    written = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.iterdir()}
    assert written == STANDARD_FIGURE_FILES


def test_fig1_csv_deterministic_and_schema(tmp_path):
    data = sweep_fig1(points=5)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_fig1_csv(data, p1, deterministic=True)
    write_fig1_csv(data, p2, deterministic=True)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == "t,excess_d2,excess_d3,excess_d4,excess_d100"
    assert len(lines) == 6
    # repr round trip: parsing a cell recovers the exact float
    cell = lines[1].split(",")[1]
    assert float(cell) == data.excess[2][0]


def test_fig1_best_csv_opens_with_column_header(tmp_path):
    path = tmp_path / "c.csv"
    write_fig1_csv(sweep_fig1(case="best", points=101), path, deterministic=True)
    assert path.read_text().splitlines()[0] == "t,excess_d2,excess_d3,excess_d4,excess_d100"


def test_fig1_csv_timestamps_by_default(tmp_path):
    path = tmp_path / "d.csv"
    write_fig1_csv(sweep_fig1(points=3), path)
    assert path.read_text().startswith("# generated ")


def test_figA_figB_csv_schema(tmp_path):
    pa = tmp_path / "a.csv"
    write_figA_csv(sweep_figA(resolution=5), pa, deterministic=True)
    lines = pa.read_text().splitlines()
    assert lines[0] == "s_a,s_b,max_sab_subadd,max_sab_genpseudo"
    assert len(lines) == 1 + 25

    pb = tmp_path / "b.csv"
    write_figB_csv(sweep_figB(resolution=5), pb, deterministic=True)
    lines = pb.read_text().splitlines()
    assert lines[0] == "s_a,s_b,s_c,subadd_ok,genpseudo_ok"
    assert len(lines) == 1 + 125
    assert set(lines[1].split(",")[3:]) <= {"0", "1"}


def test_figure_jsonables_are_serializable():
    for payload in (fig1_to_jsonable(sweep_fig1(points=3)),
                    figA_to_jsonable(sweep_figA(resolution=5)),
                    figB_to_jsonable(sweep_figB(resolution=5))):
        json.dumps(payload)


# ---------------------------------------------------------------------------
# state and basis files


def test_state_file_round_trip(tmp_path):
    s = random_state((2, 3), EnsembleSpec(kind="hilbert-schmidt", seed=3), index=1)
    path = tmp_path / "state.json"
    save_state(s, path)
    loaded = load_state(path)
    assert loaded.dims == (2, 3)
    np.testing.assert_allclose(loaded.matrix, s.matrix, atol=1e-15)


def test_load_state_reports_json_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\n  broken\n}")
    with pytest.raises(ValueError, match="line"):
        load_state(path)


def test_state_jsonable_field_errors():
    with pytest.raises(ValueError, match="dims"):
        state_from_jsonable({"matrix": []})
    with pytest.raises(ValueError, match="matrix"):
        state_from_jsonable({"dims": [2]})
    good = state_to_jsonable(maximally_mixed((2,)))
    bad = dict(good, matrix=[[[1.0, 0.0], [0.0]], good["matrix"][1]])
    with pytest.raises(ValueError):
        state_from_jsonable(bad)


def test_basis_json_matches_elements():
    for b in (gellmann_basis(3), split_basis(4, 2)):
        payload = json.loads(json.dumps(basis_to_jsonable(b)))
        assert (payload["dim"], payload["cut"]) == (b.dim, b.cut)
        assert len(payload["elements"]) == len(b)
        for e, rec in zip(b.elements, payload["elements"]):
            assert (rec["sector"], rec["k"], rec["l"]) == (e.sector, e.k, e.l)
            pairs = np.array(rec["matrix"])
            np.testing.assert_array_equal(pairs[:, 0] + 1j * pairs[:, 1], e.matrix.ravel())


def test_tensor_jsonable_shapes():
    co = bloch_coefficients(max_entangled(2))
    payload = tensor_to_jsonable(co)
    assert payload["c0"] is None
    norms = {tuple(s["v"]): s["norm_sq"] for s in payload["subsets"]}
    assert norms[(0, 1)] == pytest.approx(3.0)

    split_co = bloch_coefficients(max_entangled(2), bases_with_split((2, 2), 1, 1))
    sp = tensor_to_jsonable(split_co)
    assert sp["c0"] is not None
    assert "purity" in sp
    json.dumps(sp)


def test_report_and_monotone_jsonables():
    rep = report_to_jsonable(check_subadditivity(maximally_mixed((2, 2)), q=2.0))
    assert rep["inequality"] == "subadd"
    assert rep["holds"] is True
    mono = monotone_to_jsonable(correlation_monotone(max_entangled(2), ((0,), (1,))))
    assert mono["value"] == pytest.approx(1.0)
    assert (mono["sweeps"], mono["restart_values"]) == (0, [])
    json.dumps(mono)
    split = correlation_monotone(random_state((2, 3), EnsembleSpec(seed=4)), ((0,), (1,)),
                                 config=OptimizerConfig(restarts=3, seed=0))
    mono = json.loads(json.dumps(monotone_to_jsonable(split)))
    assert mono["sweeps"] == split.sweeps >= 1
    assert mono["restart_values"] == list(split.restart_values)
    assert len(mono["restart_values"]) == 3


# ---------------------------------------------------------------------------
# config files


def test_load_config(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("# comment\nseed=4\n\nsamples = 10\n")
    assert load_config(path) == {"seed": "4", "samples": "10"}


def test_load_config_reports_line(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("seed=4\nnot a pair\n")
    with pytest.raises(ValueError, match="line 2"):
        load_config(path)
