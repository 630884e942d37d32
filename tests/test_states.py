"""Density matrix construction, marginals and ensemble sampling."""

from __future__ import annotations

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bloch_lab import (Campaign, EnsembleSpec, InvalidStateError, NormalizationPolicy,
                       OptimizerConfig, applicable_inequalities, bases_with_split,
                       bloch_coefficients, check_lemma6, check_subadditivity, classify_grid,
                       classify_triple, correlation_monotone, cross_norm_sum, derive_seed, eve_bound,
                       excess, from_matrix, gellmann_basis, lemma6_bounds, max_entangled,
                       max_sab_genpseudo, max_sab_subadd, maximally_mixed, partial_trace, pure,
                       pseudo_additivity_residual, purify, random_state, refine_minimum, renyi,
                       save_state, split_basis, sweep_fig1, sweep_figA, sweep_figB, tensor,
                       tensor_norm_sq, tsallis, validate_surface)
from bloch_lab import states
from bloch_lab.cli import main
from bloch_lab.correlation import default_bases
from bloch_lab.io import state_from_jsonable, state_to_jsonable
from bloch_lab.states import _precise, _PurityTable
from bloch_lab.verify import make_check_table


def hs_state(dims, seed, index=0):
    return random_state(dims, EnsembleSpec(kind="hilbert-schmidt", seed=seed), index)


# ---------------------------------------------------------------------------
# validation


def test_from_matrix_rejects_wrong_shape():
    with pytest.raises(InvalidStateError, match="shape"):
        from_matrix(np.eye(3) / 3, (2, 2))


def test_from_matrix_rejects_non_hermitian():
    m = np.eye(2, dtype=complex) / 2
    m[0, 1] = 0.1
    with pytest.raises(InvalidStateError, match="hermitian"):
        from_matrix(m, (2,))


def test_from_matrix_rejects_bad_trace():
    with pytest.raises(InvalidStateError, match="trace"):
        from_matrix(np.eye(2, dtype=complex), (2,))


def test_from_matrix_rejects_negative_eigenvalue():
    m = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(InvalidStateError, match="eigenvalue"):
        from_matrix(m, (2,))


@pytest.mark.parametrize("entry,value", [((0, 0), np.nan), ((0, 1), np.nan), ((1, 1), np.inf)])
def test_from_matrix_rejects_non_finite(entry, value):
    m = np.eye(2, dtype=complex) / 2
    m[entry] = value
    with pytest.raises(InvalidStateError, match="finite"):
        from_matrix(m, (2,))


def test_pure_normalizes_and_rejects_zero():
    s = pure(np.array([2.0, 0.0]), (2,))
    assert s.matrix[0, 0] == pytest.approx(1.0)
    assert s.is_pure()
    with pytest.raises(ValueError, match="zero"):
        pure(np.zeros(2), (2,))


# ---------------------------------------------------------------------------
# constructors and marginals


def test_max_entangled_matrix():
    s = max_entangled(3)
    expected = np.zeros((9, 9), dtype=complex)
    for i in range(3):
        for j in range(3):
            expected[4 * i, 4 * j] = 1 / 3
    np.testing.assert_allclose(s.matrix, expected, atol=1e-15)
    assert s.purity() == pytest.approx(1.0)


def test_tensor_first_factor_most_significant():
    s = tensor(pure(np.array([0.0, 1.0]), (2,)), maximally_mixed((3,)))
    assert s.dims == (2, 3)
    expected = np.zeros((6, 6), dtype=complex)
    expected[3:, 3:] = np.eye(3) / 3
    np.testing.assert_allclose(s.matrix, expected, atol=1e-15)


def test_partial_trace_of_bell_is_mixed():
    for keep in ((0,), (1,)):
        red = partial_trace(max_entangled(2), keep)
        np.testing.assert_allclose(red.matrix, np.eye(2) / 2, atol=1e-15)


def test_partial_trace_keeps_site_order():
    a, b, c = hs_state((2,), 1), hs_state((3,), 2), hs_state((2,), 3)
    joint = tensor(a, b, c)
    red = partial_trace(joint, (0, 2))
    np.testing.assert_allclose(red.matrix, np.kron(a.matrix, c.matrix), atol=1e-13)
    assert red.dims == (2, 2)


def test_partial_trace_rejects_bad_keep():
    s = maximally_mixed((2, 2))
    with pytest.raises(ValueError):
        partial_trace(s, ())
    with pytest.raises(ValueError):
        partial_trace(s, (0, 0))
    with pytest.raises(ValueError):
        partial_trace(s, (2,))


@pytest.mark.parametrize("bad", [(0, 0), (), (3,), (1, 2)],
                         ids=["duplicate", "empty", "out-of-range", "overlap"])
def test_site_subsets_share_one_rule(bad):
    s = hs_state((2, 2, 2), seed=5)
    if bad != (1, 2):  # distinct sites in range: only a partition with (1,) rejects them
        with pytest.raises(ValueError, match="kept sites"):
            partial_trace(s, bad)
        with pytest.raises(ValueError, match="kept sites"):
            s._marginal_purities[bad]
        with pytest.raises(ValueError, match="subset"):
            tensor_norm_sq(bloch_coefficients(s), bad)
    # both partition callers reject (bad, (1,)) with the same message
    with pytest.raises(ValueError, match="partition") as monotone_error:
        correlation_monotone(s, (bad, (1,)))
    with pytest.raises(ValueError, match="partition") as cross_error:
        cross_norm_sum(bloch_coefficients(s), bad, (1,))
    assert str(cross_error.value) == str(monotone_error.value)


def test_rejections_name_an_int_too_long_to_print():
    # repr of an int of over 4,300 digits raises, so each rule's message names its type instead
    for call in (lambda: maximally_mixed(10**5000), lambda: partial_trace(MM22, (10**5000,)),
                 lambda: correlation_monotone(MM22, 10**5000)):
        with pytest.raises(ValueError, match="^invalid .* too long to print>"):
            call()


def test_purify_round_trip():
    rho = hs_state((2, 3), seed=11)
    psi = purify(rho)
    assert psi.dims == (6, 6)
    assert psi.is_pure()
    np.testing.assert_allclose(partial_trace(psi, (0,)).matrix, rho.matrix, atol=1e-12)


# ---------------------------------------------------------------------------
# ensembles


def test_sampling_is_reproducible():
    spec = EnsembleSpec(kind="hilbert-schmidt", seed=7)
    a = random_state((2, 3), spec, index=5)
    b = random_state((2, 3), spec, index=5)
    c = random_state((2, 3), spec, index=6)
    np.testing.assert_array_equal(a.matrix, b.matrix)
    assert np.abs(a.matrix - c.matrix).max() > 1e-3


def test_derive_seed_spreads_indices():
    seeds = {derive_seed(0, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert derive_seed(0, 3) != derive_seed(1, 3)


def test_hs_alias():
    assert EnsembleSpec(kind="hs", seed=0).canonical_kind() == "hilbert-schmidt"
    with pytest.raises(ValueError, match="kind"):
        EnsembleSpec(kind="wat", seed=0).canonical_kind()


def test_hs_mean_purity_qubit():
    # flat induced measure on d=2: E[Tr rho^2] = 2d/(d^2+1) = 0.8
    spec = EnsembleSpec(kind="hilbert-schmidt", seed=123)
    mean = np.mean([random_state((2,), spec, index=i).purity() for i in range(2000)])
    assert mean == pytest.approx(0.8, abs=0.01)


def test_pure_haar_is_pure():
    spec = EnsembleSpec(kind="pure-haar", seed=3)
    for i in range(10):
        assert random_state((2, 4), spec, index=i).purity() == pytest.approx(1.0)


def test_induced_respects_rank_cap():
    spec = EnsembleSpec(kind="induced", seed=9, rank_cap=2)
    for i in range(10):
        w = np.linalg.eigvalsh(random_state((2, 3), spec, index=i).matrix)
        assert np.sum(w > 1e-12) <= 2
    with pytest.raises(ValueError, match="rank"):
        random_state((2, 3), EnsembleSpec(kind="induced", seed=9), index=0)


@pytest.mark.parametrize("kind", ["pure-haar", "hilbert-schmidt", "hs"])
def test_rank_cap_rejected_for_uncapped_kinds(kind):
    with pytest.raises(ValueError, match="rank_cap"):
        random_state((2, 2), EnsembleSpec(kind=kind, seed=9, rank_cap=1), index=0)
    # product-of still passes the cap to each factor
    spec = EnsembleSpec(kind="product-of", seed=9, rank_cap=1, factors=(kind, kind))
    assert random_state((2, 2), spec, index=0).purity() == pytest.approx(1.0)


def test_product_of_factorizes():
    spec = EnsembleSpec(kind="product-of", seed=4,
                        factors=("pure-haar", "hilbert-schmidt"))
    s = random_state((2, 3), spec, index=1)
    a = partial_trace(s, (0,))
    b = partial_trace(s, (1,))
    np.testing.assert_allclose(s.matrix, np.kron(a.matrix, b.matrix), atol=1e-12)
    assert a.purity() == pytest.approx(1.0)
    with pytest.raises(ValueError, match="factor"):
        random_state((2, 3), EnsembleSpec(kind="product-of", seed=4), index=0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), index=st.integers(0, 50),
       factors=st.lists(st.sampled_from(["pure-haar", "hs", "hilbert-schmidt", "induced"]),
                        min_size=3, max_size=3),
       factor_cap=st.sampled_from([None, 1, 2, 3]))
def test_hs_samples_are_valid_states(seed, index, factors, factor_cap):
    # draws skip validation, so every ensemble must yield states from_matrix accepts
    for dims in ((2, 2), (2, 3), (2, 2, 3)):
        specs = [EnsembleSpec(kind="pure-haar", seed=seed),
                 EnsembleSpec(kind="hilbert-schmidt", seed=seed),
                 *(EnsembleSpec(kind="induced", seed=seed, rank_cap=k) for k in (1, 2, 3)),
                 EnsembleSpec(kind="product-of", seed=seed, rank_cap=factor_cap,
                              factors=tuple(factors[:len(dims)]))]
        for spec in specs:
            s = random_state(dims, spec, index)
            from_matrix(s.matrix, s.dims)  # re-validation must not raise
            assert 1.0 / s.dim - 1e-12 <= s.purity() <= 1.0 + 1e-12, spec


@pytest.mark.parametrize("spec, message", [
    ({"kind": ["hs"]}, "unknown ensemble kind ['hs']"),
    ({"kind": "product-of", "factors": 5}, "invalid factors 5"),
    ({"kind": "product-of", "factors": [["hs"]]}, "invalid product factor kind ['hs']")])
def test_ensemble_spec_rejects_what_it_cannot_draw(spec, message):
    # a kind or factor that is no string, or factors that are no sequence, is
    # refused as a value when the spec is built
    with pytest.raises(ValueError, match=re.escape(message)):
        EnsembleSpec(**spec)


@pytest.mark.parametrize("kind,rank_cap", [("pure-haar", None), ("hilbert-schmidt", None),
                                           ("induced", 1)])
def test_factors_need_product_of(kind, rank_cap):
    # a spec checks itself when it is built, before any draw
    with pytest.raises(ValueError, match="factors"):
        EnsembleSpec(kind=kind, seed=2, rank_cap=rank_cap, factors=("pure-haar", "pure-haar"))


def test_purity_reads_the_purity_table():
    s = hs_state((2, 3), seed=29)
    squares = (np.abs(s.matrix.ravel()) ** 2).tolist()
    assert _precise(s).purity() == math.fsum(squares)
    assert not s._marginal_purities  # the precise value is never cached
    assert s.purity() == float(np.vdot(s.matrix, s.matrix).real)
    assert s._marginal_purities == {(0, 1): s.purity()}


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 2, 3), (3, 2, 2)])
def test_purity_table_matches_partial_trace_bit_for_bit(dims):
    s = hs_state(dims, seed=31)
    for r in range(1, len(dims)):
        for keep in itertools.combinations(range(len(dims)), r):
            m = partial_trace(s, keep).matrix
            assert s._marginal_purities[keep] == float(np.vdot(m, m).real)
            assert _precise(s)._marginal_purities[keep] == math.fsum((np.abs(m.ravel()) ** 2).tolist())


def test_precise_purities_are_tabled(monkeypatch):
    s = hs_state((2, 2, 3), seed=33)
    plans = []
    plan = states._trace_plan
    monkeypatch.setattr(states, "_trace_plan", lambda *a: plans.append(a) or plan(*a))
    precise = _precise(s)
    first = precise._marginal_purities[(0, 2)]
    assert len(plans) == 1
    assert precise._marginal_purities[(0, 2)] == first
    assert len(plans) == 1  # the second read computes no marginal
    assert not s._marginal_purities  # precise reads never write the standard table


def test_precise_twin_shares_the_state_and_tables_fsum_values():
    s = hs_state((2, 2, 3), seed=33)
    twin = _precise(s)
    assert twin.matrix is s.matrix and twin.dims is s.dims
    # one table per state, and the twin's own starts empty
    for state in (s, twin):
        tables = [v for v in vars(state).values() if isinstance(v, _PurityTable)]
        assert len(tables) == 1 and tables[0] is state._marginal_purities
    assert twin._marginal_purities is not s._marginal_purities and not twin._marginal_purities
    subsets = [keep for r in range(1, 4) for keep in itertools.combinations(range(3), r)]
    differ = 0  # subsets whose numpy-reduced purity is not the fsum one (6 of 7 on this state)
    for keep in subsets:
        m = partial_trace(s, keep).matrix
        assert twin._marginal_purities[keep] == math.fsum((np.abs(m.ravel()) ** 2).tolist()), keep
        differ += twin._marginal_purities[keep] != float(np.vdot(m, m).real)
    assert sorted(twin._marginal_purities) == sorted(subsets) and differ
    # every campaign formula and the public reads run on the twin leave the state's table empty
    for formula in make_check_table(s.dims).values():
        formula(twin)
    assert twin.purity() == twin._marginal_purities[(0, 1, 2)] and not twin.is_pure()
    assert not s._marginal_purities


def test_purity_cache_matches_direct():
    s = hs_state((3, 3), seed=21)
    assert s.purity() == pytest.approx(np.trace(s.matrix @ s.matrix).real, abs=1e-13)
    assert not s.is_pure()


# ---------------------------------------------------------------------------
# the integer rule

MM22, MM222 = maximally_mixed((2, 2)), maximally_mixed((2, 2, 2))
MM4_PAIRS = state_to_jsonable(maximally_mixed((4,)))["matrix"]

# input -> (call with the input set to v, least value (None: any integer), a value
#           it takes, the input as the result keeps it (None: not kept), and argv
#           that gives the CLI a value below the least, with S22/S223 standing for
#           state files of those dims, or None where the CLI cannot reach it)
_INTEGER_INPUTS = {
    "random_state dims": (lambda v: random_state((2, v), EnsembleSpec()), 1, 3,
                          lambda r: r.dims[1], ("state", "random", "--dims", "2,0")),
    "maximally_mixed dims": (lambda v: maximally_mixed((v,)), 1, 2, lambda r: r.dims[0], None),
    "from_matrix dims": (lambda v: from_matrix(np.eye(4) / 4, (2, v, 2)), 1, 1,
                         lambda r: r.dims[1], None),
    "state file dims": (lambda v: state_from_jsonable({"dims": [v], "matrix": MM4_PAIRS}), 1, 4,
                        lambda r: r.dims[0], None),
    "partial_trace site": (lambda v: partial_trace(MM222, (v,)), 0, 2, None, None),
    "monotone site": (lambda v: correlation_monotone(MM222, ((0,), (v,))), 0, 2, None, None),
    "split site": (lambda v: bases_with_split((3, 3), v, 1), 0, 1, None,
                   ("tensor", "--state", "S22", "--split=-1:1")),
    "rank cap": (lambda v: EnsembleSpec("induced", rank_cap=v), 1, 2, lambda r: r.rank_cap,
                 ("state", "random", "--dims", "2,2", "--ensemble", "induced", "--rank-cap", "0")),
    "derive_seed index": (lambda v: derive_seed(0, v), 0, 2, None, None),
    "random_state index": (lambda v: random_state((2, 2), EnsembleSpec(), v), 0, 2, None,
                           ("state", "random", "--dims", "2,2", "--index", "-1")),
    "derive_seed seed": (lambda v: derive_seed(v, 0), None, 5, None, None),
    "ensemble seed": (lambda v: EnsembleSpec(seed=v), None, 5, lambda r: r.seed, None),
    "optimizer seed": (lambda v: OptimizerConfig(seed=v), None, 5, lambda r: r.seed, None),
    "optimizer restarts": (lambda v: OptimizerConfig(restarts=v), 1, 3, lambda r: r.restarts,
                           ("check", "--state", "S223", "--inequality", "thm1i", "--restarts", "0")),
    "optimizer max_sweeps": (lambda v: OptimizerConfig(max_sweeps=v), 1, 3,
                             lambda r: r.max_sweeps, None),
    "campaign dims": (lambda v: Campaign(dims=(2, v)), 2, 3, lambda r: r.dims[1],
                      ("verify", "--dims", "2,1", "--samples", "3")),
    "campaign samples": (lambda v: Campaign(dims=(2, 2), samples=v), 1, 3, lambda r: r.samples,
                         ("verify", "--dims", "2,2", "--samples", "0")),
    "campaign restarts": (lambda v: Campaign(dims=(2, 2), restarts=v), 1, 3, lambda r: r.restarts,
                          ("verify", "--dims", "2,2", "--samples", "2", "--restarts", "0")),
    "campaign threads": (lambda v: Campaign(dims=(2, 2), threads=v), 1, 1, None, None),
    "refine max_steps": (lambda v: refine_minimum("subadd", MM22, max_steps=v), 0, 1, None, None),
    "basis dim": (lambda v: gellmann_basis(v), 2, 3, lambda r: r.dim, ("basis", "--dim", "1")),
    "split basis dim": (lambda v: split_basis(v, 1), 2, 3, lambda r: r.dim,
                        ("basis", "--dim", "1", "--cut", "1")),
    "split basis cut": (lambda v: split_basis(4, v), 1, 2, lambda r: r.cut,
                        ("basis", "--dim", "4", "--cut", "0")),
    "default_bases dims": (lambda v: default_bases((2, v)), 2, 3, lambda r: r[1].dim, None),
    "surface dims": (lambda v: sweep_figA((v, 2), resolution=3), 2, 3, lambda r: r.dims[0],
                     ("sweep", "--figure", "figA", "--dims", "1,2", "--format", "json")),
    "surface resolution": (lambda v: validate_surface("subadd", (2, 2), v), 2, 3, None, None),
    "figB resolution": (lambda v: sweep_figB(resolution=v), 2, 3, None,
                        ("sweep", "--figure", "figB", "--resolution", "1", "--format", "json")),
    "fig1 d_values": (lambda v: sweep_fig1(d_values=(v,), points=3), 2, 3,
                      lambda r: r.d_values[0],
                      ("sweep", "--figure", "fig1", "--d-values", "1", "--format", "json")),
    "fig1 points": (lambda v: sweep_fig1(points=v), 2, 3, None,
                    ("sweep", "--figure", "fig1", "--points", "1", "--format", "json")),
    "max_entangled dim": (lambda v: max_entangled(v), 2, 3, lambda r: r.dims[0], None),
    "lemma6 dim": (lambda v: lemma6_bounds(v, 4, 0.3), 2, 2, None, None),
    "lemma6 environment": (lambda v: lemma6_bounds(2, v, 0.3), 1, 4, None, None),
    "check_lemma6 environment": (lambda v: check_lemma6(MM22, d_e=v), 1, 4,
                                 lambda r: r.extras["d_e"],
                                 ("check", "--state", "S22", "--inequality", "lemma6", "--d-e", "0")),
    "eve_bound environment": (lambda v: eve_bound(MM22, v), 2, 4, None, None),
    "excess dim": (lambda v: excess(1.5, v), 2, 3, None, None),
    "applicable dims": (lambda v: applicable_inequalities((2, v, 2)), 1, 2, None, None),
    "check table dims": (lambda v: make_check_table((2, v, 2)), 1, 2, None, None),
}


def _cli_exits_2(argv, tmp_path, capsys):
    """main(argv) exits 2 with an error line; S22/S223 in argv stand for state files."""
    files = {"S22": (2, 2), "S223": (2, 2, 3)}
    for key, dims in files.items():
        save_state(random_state(dims, EnsembleSpec()), tmp_path / key)
    assert main([str(tmp_path / a) if a in files else a for a in argv]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("name", list(_INTEGER_INPUTS))
def test_integer_inputs_share_one_rule(name, tmp_path, capsys):
    # every integer input is checked by states._check_count: a float or bool is
    # rejected (never truncated), and so is a value below the least; a numpy
    # integer is accepted and kept as a plain int
    call, least, good, kept, argv = _INTEGER_INPUTS[name]
    for bad in (2.7, True, np.float64(2.0), *(() if least is None else (least - 1, -10**5000))):
        with pytest.raises(ValueError, match="invalid"):
            call(bad)
    result = call(np.int64(good))
    if kept is not None:
        assert kept(result) == good and type(kept(result)) is int
    if argv is not None:
        _cli_exits_2(argv, tmp_path, capsys)


# ---------------------------------------------------------------------------
# the real rule

MM2 = maximally_mixed((2,))

# input -> (call with the input set to v, a value outside its range (None: every
#           finite real is in range), an int and a numpy float it takes, the plain
#           float the result holds (the input where the result keeps it, else the
#           value returned; None for a boolean verdict), and argv that gives the CLI
#           the out-of-range value, or None where the CLI cannot reach it)
_REAL_INPUTS = {
    "tsallis q": (lambda v: tsallis(MM22, v), 0, 1, 0.5, lambda r: r,
                  ("entropy", "--state", "S22", "--q", "0")),
    "renyi alpha": (lambda v: renyi(MM22, v), 0, 1, 0.5, lambda r: r,
                    ("entropy", "--state", "S22", "--alpha", "0")),
    "subadditivity q": (lambda v: check_subadditivity(MM22, v), 0.5, 1, 2.5, lambda r: r.extras["q"],
                        ("check", "--state", "S22", "--inequality", "subadd", "--q", "0.5")),
    "pseudo-additivity q": (lambda v: pseudo_additivity_residual(MM2, MM2, v), 0, 2, 0.5,
                            lambda r: r, None),
    "explicit g": (lambda v: NormalizationPolicy("explicit", value=v), 0, 1, 0.5, lambda r: r.value,
                   ("monotone", "--state", "S22", "--partition", "A|B", "--policy", "explicit:0")),
    "lemma6 t": (lambda v: lemma6_bounds(2, 4, v), 1.5, 1, 0.5, lambda r: r[1], None),
    "excess value": (lambda v: excess(v, 2), None, 1, 0.5, lambda r: r, None),
    "max_sab_subadd marginal": (lambda v: max_sab_subadd(v, 0.25, (2, 2)), 0.9, 0, 0.5,
                                lambda r: r, None),
    "max_sab_genpseudo marginal": (lambda v: max_sab_genpseudo(0.25, v, (2, 2)), 0.9, 0, 0.5,
                                   lambda r: r, None),
    "classify_triple marginal": (lambda v: classify_triple(0.25, 0.25, v, (2, 2, 2)), 0.9, 0, 0.5,
                                 None, None),
    "classify_grid marginal": (lambda v: classify_grid(v, 0.25, 0.25, (2, 2, 2)), 0.9, 0, 0.5,
                               None, None),
}


@pytest.mark.parametrize("name", list(_REAL_INPUTS))
def test_real_inputs_share_one_rule(name, tmp_path, capsys):
    # every real input is checked by states._check_real: a bool, a string, None, a
    # non-finite value or an int too large for a float raises ValueError (never
    # TypeError or OverflowError, never a result), and so does a value outside the
    # input's range; an int or a numpy float is taken as the float
    call, outside, good_int, good_float, plain, argv = _REAL_INPUTS[name]
    for bad in (True, np.True_, "0.5", None, math.nan, math.inf, 10**400, -10**400, 10**5000, -10**5000,
                *(() if outside is None else (outside,))):
        with pytest.raises(ValueError, match="invalid"):
            call(bad)
    for good in (good_int, np.float64(good_float)):
        result = call(good)
        assert result == call(float(good))
        if plain is not None:
            assert type(plain(result)) is float
    if argv is not None:
        _cli_exits_2(argv, tmp_path, capsys)


def test_marginal_arrays_follow_the_real_rule():
    # element-wise: an integer or float array in range is taken; an array of bools or
    # strings, or one with a non-finite or out-of-range element, raises ValueError
    axis = np.array([0.0, 0.25, 0.5])
    calls = (lambda a: max_sab_subadd(a, axis, (2, 2)), lambda a: max_sab_genpseudo(axis, a, (2, 2)),
             lambda a: classify_grid(axis, axis, a, (2, 2, 2)))
    for call in calls:
        call(np.zeros(3, dtype=int))
        for bad in (np.zeros(3, dtype=bool), np.array(["0", "0", "0"]), np.array([0.0, np.nan, 0.5]),
                    np.array([0.0, np.inf, 0.5]), np.array([0.0, 0.9, 0.5])):
            with pytest.raises(ValueError):
                call(bad)
