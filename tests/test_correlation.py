"""Coefficient tensors, subset norms and the two purity identities."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bloch_lab import (DensityMatrix, EnsembleSpec, NumericError, all_subset_norms,
                       bases_with_split, bloch_coefficients, cross_norm_sum,
                       max_entangled, maximally_mixed, partial_trace, pure, purity_from_tensor,
                       random_state, reconstruct, split_purity, split_sector_norms,
                       tensor, tensor_norm_sq)
from bloch_lab.states import _fsum_purities, _marginal_purity


def hs_state(dims, seed, index=0):
    return random_state(dims, EnsembleSpec(kind="hilbert-schmidt", seed=seed), index)


# ---------------------------------------------------------------------------
# hand-computed coefficients


def test_bell_coefficients():
    # element order per site: identity, z-diag, x-sym, y-antisym
    co = bloch_coefficients(max_entangled(2))
    arr = co.array
    assert arr.shape == (4, 4)
    assert arr[0, 0] == pytest.approx(1.0)
    assert arr[1, 1] == pytest.approx(1.0)   # <zz>
    assert arr[2, 2] == pytest.approx(1.0)   # <xx>
    assert arr[3, 3] == pytest.approx(-1.0)  # <yy>
    off = arr.copy()
    off[[0, 1, 2, 3], [0, 1, 2, 3]] = 0.0
    assert np.abs(off).max() < 1e-14
    assert tensor_norm_sq(co, (0, 1)) == pytest.approx(3.0)
    assert tensor_norm_sq(co, (0,)) == pytest.approx(0.0)


def test_plus_state_split_coefficients():
    # d=2 cut=1: elements are |0><0|, |1><1|, sym(0,1)/sqrt(2), antisym(0,1)/sqrt(2)
    plus = pure(np.array([1.0, 1.0]), (2,))
    co = bloch_coefficients(plus, [bases_with_split((2, 2), 1, 1)[1]])
    arr = co.array
    assert arr[0] == pytest.approx(0.5)
    assert arr[1] == pytest.approx(0.5)
    assert arr[2] == pytest.approx(1.0 / np.sqrt(2.0))
    assert arr[3] == pytest.approx(0.0, abs=1e-14)


# ---------------------------------------------------------------------------
# purity identities


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 2, 4)])
def test_canonical_purity_identity(dims):
    for i in range(5):
        s = hs_state(dims, seed=31, index=i)
        assert purity_from_tensor(bloch_coefficients(s)) == pytest.approx(
            s.purity(), abs=1e-12)


def test_marginal_purity_table_memoizes_and_switches_to_fsum():
    s = hs_state((2, 2, 3), seed=37)
    marginal = partial_trace(s, (0, 2)).matrix
    assert _marginal_purity(s, (2, 0)) == partial_trace(s, (0, 2)).purity()
    assert (0, 2) in s._marginal_purities
    with _fsum_purities():
        precise = _marginal_purity(s, (0, 2))
        assert _marginal_purity(s, (1,)) == pytest.approx(partial_trace(s, (1,)).purity(), abs=1e-14)
    assert precise == math.fsum((np.abs(marginal.ravel()) ** 2).tolist())
    assert (1,) not in s._marginal_purities  # the precise table is never cached


@pytest.mark.parametrize("site,cut", [(0, 1), (1, 1), (1, 2), (1, 3)])
def test_split_purity_identity(site, cut):
    dims = (4, 4)
    for i in range(5):
        s = hs_state(dims, seed=47, index=i)
        co = bloch_coefficients(s, bases_with_split(dims, site, cut))
        assert split_purity(co) == pytest.approx(s.purity(), abs=1e-12)
        sn = split_sector_norms(co)
        assert sn.purity() == pytest.approx(s.purity(), abs=1e-12)


def test_purity_from_tensor_rejects_split():
    co = bloch_coefficients(maximally_mixed((2, 3)), bases_with_split((2, 3), 1, 1))
    with pytest.raises(ValueError):
        purity_from_tensor(co)


# ---------------------------------------------------------------------------
# split sector norms on exactly solvable states


def test_sector_norms_maximally_mixed():
    # I/6 with the d=3 site split at c=2: only the two sub-identity
    # coefficients survive, 2/3 and 1/3
    co = bloch_coefficients(maximally_mixed((2, 3)), bases_with_split((2, 3), 1, 2))
    sn = split_sector_norms(co)
    assert sn.c0 == pytest.approx((2.0 / 3.0) ** 2)
    assert sn.c0p == pytest.approx((1.0 / 3.0) ** 2)
    for mass in (sn.low_canonical, sn.low_split, sn.low_joint,
                 sn.high_canonical, sn.high_split, sn.high_joint):
        assert mass == pytest.approx(0.0, abs=1e-14)
    assert sn.purity() == pytest.approx(1.0 / 6.0)


def test_sector_norms_pure_high_block_product():
    # |0><0| x |2><2| on [2, 3] with c=2 puts all mass in the high sector
    s = tensor(pure(np.array([1.0, 0.0]), (2,)), pure(np.array([0, 0, 1.0]), (3,)))
    sn = split_sector_norms(bloch_coefficients(s, bases_with_split((2, 3), 1, 2)))
    assert sn.c0 == pytest.approx(0.0, abs=1e-14)
    assert sn.c0p == pytest.approx(1.0)
    assert sn.high_canonical == pytest.approx(1.0)
    for mass in (sn.low_canonical, sn.low_split, sn.low_joint,
                 sn.high_split, sn.high_joint):
        assert mass == pytest.approx(0.0, abs=1e-14)
    assert sn.purity() == pytest.approx(1.0)


def test_sector_norms_accept_split_on_first_site():
    dims = (3, 2)
    s = hs_state(dims, seed=8)
    sn = split_sector_norms(bloch_coefficients(s, bases_with_split(dims, 0, 1)))
    assert sn.purity() == pytest.approx(s.purity(), abs=1e-12)


# ---------------------------------------------------------------------------
# subset norms and the crossing sum


def test_product_state_subset_norms_factorize():
    a, b = hs_state((2,), seed=5), hs_state((3,), seed=6)
    co = bloch_coefficients(tensor(a, b))
    na = tensor_norm_sq(bloch_coefficients(a), (0,))
    nb = tensor_norm_sq(bloch_coefficients(b), (0,))
    assert tensor_norm_sq(co, (0,)) == pytest.approx(na, abs=1e-12)
    assert tensor_norm_sq(co, (1,)) == pytest.approx(nb, abs=1e-12)
    assert tensor_norm_sq(co, (0, 1)) == pytest.approx(na * nb, abs=1e-12)
    assert cross_norm_sum(co, (0,), (1,)) == pytest.approx(na * nb, abs=1e-12)


def test_cross_norm_sum_three_sites():
    co = bloch_coefficients(hs_state((2, 2, 2), seed=17))
    norms = all_subset_norms(co)
    direct = sum(v for k, v in norms.items() if 0 in k and (1 in k or 2 in k))
    assert cross_norm_sum(co, (0,), (1, 2)) == pytest.approx(direct, abs=1e-12)


def test_cross_norm_sum_requires_disjoint_cover():
    co = bloch_coefficients(hs_state((2, 2, 2), seed=17))
    with pytest.raises(ValueError):
        cross_norm_sum(co, (0, 1), (1, 2))
    with pytest.raises(ValueError):
        cross_norm_sum(co, (0,), (1,))


# ---------------------------------------------------------------------------
# invariance and round trips


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_local_unitary_invariance_of_subset_norms(seed):
    s = hs_state((2, 3), seed=seed)
    rng = np.random.default_rng(seed + 1)

    def haar(d):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        q, r = np.linalg.qr(g)
        return q * (np.diagonal(r) / np.abs(np.diagonal(r)))

    u = np.kron(haar(2), haar(3))
    rotated = DensityMatrix((2, 3), u @ s.matrix @ u.conj().T)
    before = all_subset_norms(bloch_coefficients(s))
    after = all_subset_norms(bloch_coefficients(rotated))
    for k in before:
        assert after[k] == pytest.approx(before[k], abs=1e-10)


@pytest.mark.parametrize("dims,split", [((2, 3), None), ((2, 2, 2), None),
                                        ((2, 3), (1, 2)), ((3, 2), (0, 1))])
def test_reconstruct_round_trip(dims, split):
    s = hs_state(dims, seed=29)
    bases = bases_with_split(dims, *split) if split else None
    co = bloch_coefficients(s, bases)
    np.testing.assert_allclose(reconstruct(co).matrix, s.matrix, atol=1e-12)


def test_imaginary_residue_raises():
    m = np.eye(2, dtype=complex) / 2
    m[0, 1] = 1e-4
    bad = DensityMatrix((2,), m)  # direct construction skips validation
    with pytest.raises(NumericError, match="imag"):
        bloch_coefficients(bad)
