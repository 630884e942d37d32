"""Density matrix construction, marginals and ensemble sampling."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bloch_lab import (EnsembleSpec, InvalidStateError, bloch_coefficients,
                       correlation_monotone, derive_seed, from_matrix, max_entangled,
                       maximally_mixed, partial_trace, pure, purify, random_state, tensor,
                       tensor_norm_sq)
from bloch_lab.states import _fsum_purities


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


@pytest.mark.parametrize("bad", [(0, 0), (), (3,)], ids=["duplicate", "empty", "out-of-range"])
def test_site_subsets_share_one_rule(bad):
    s = hs_state((2, 2, 2), seed=5)
    with pytest.raises(ValueError, match="kept sites"):
        partial_trace(s, bad)
    with pytest.raises(ValueError, match="partition"):
        correlation_monotone(s, (bad, (1,)))
    with pytest.raises(ValueError, match="subset"):
        tensor_norm_sq(bloch_coefficients(s), bad)


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


@pytest.mark.parametrize("kind,rank_cap", [("pure-haar", None), ("hilbert-schmidt", None),
                                           ("induced", 1)])
def test_factors_need_product_of(kind, rank_cap):
    spec = EnsembleSpec(kind=kind, seed=2, rank_cap=rank_cap, factors=("pure-haar", "pure-haar"))
    with pytest.raises(ValueError, match="factors"):
        random_state((2, 2), spec, index=0)


def test_purity_reads_the_purity_table():
    s = hs_state((2, 3), seed=29)
    squares = (np.abs(s.matrix.ravel()) ** 2).tolist()
    with _fsum_purities():
        assert s.purity() == math.fsum(squares)
    assert not s._marginal_purities  # the precise value is never cached
    assert s.purity() == float(np.vdot(s.matrix, s.matrix).real)
    assert s._marginal_purities == {(0, 1): s.purity()}


def test_purity_cache_matches_direct():
    s = hs_state((3, 3), seed=21)
    assert s.purity() == pytest.approx(np.trace(s.matrix @ s.matrix).real, abs=1e-13)
    assert not s.is_pure()
