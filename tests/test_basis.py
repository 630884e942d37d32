"""Operator basis construction and orthonormality."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bloch_lab.basis import (ANTISYM, DIAG, DIAG_HIGH, DIAG_LOW, IDENTITY, MAX_DIM,
                             SUB_HIGH, SUB_LOW, SYM, gellmann_basis, split_basis,
                             verify_orthogonality)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def test_qubit_basis_is_pauli():
    b = gellmann_basis(2)
    assert [e.sector for e in b.elements] == [IDENTITY, DIAG, SYM, ANTISYM]
    np.testing.assert_array_equal(b.elements[0].matrix, np.eye(2))
    np.testing.assert_array_equal(b.elements[1].matrix, SZ)
    np.testing.assert_array_equal(b.elements[2].matrix, SX)
    np.testing.assert_array_equal(b.elements[3].matrix, SY)
    assert all(e.norm == pytest.approx(2.0) for e in b.elements)


def test_qutrit_basis_matches_rescaled_gellmann_matrices():
    # the eight standard traceless matrices carry norm sqrt(2); here every
    # element carries norm sqrt(d), so each is the standard one times sqrt(3/2)
    lam3 = np.diag([1.0, -1.0, 0.0]).astype(complex)
    lam8 = np.diag([1.0, 1.0, -2.0]).astype(complex) / np.sqrt(3)

    def sym(j, k):
        m = np.zeros((3, 3), dtype=complex)
        m[j, k] = m[k, j] = 1.0
        return m

    def anti(j, k):
        m = np.zeros((3, 3), dtype=complex)
        m[j, k] = -1j
        m[k, j] = 1j
        return m

    expected = [np.eye(3, dtype=complex)] + [
        np.sqrt(1.5) * m
        for m in (lam3, lam8, sym(0, 1), sym(0, 2), sym(1, 2),
                  anti(0, 1), anti(0, 2), anti(1, 2))
    ]
    b = gellmann_basis(3)
    assert len(b.elements) == 9
    for e, m in zip(b.elements, expected):
        np.testing.assert_allclose(e.matrix, m, atol=1e-14)


@pytest.mark.parametrize("d", range(2, 9))
def test_canonical_gram_is_orthonormal(d):
    rep = verify_orthogonality(gellmann_basis(d))
    assert rep.max_offdiag < 1e-12
    assert rep.max_diag_deviation < 1e-12


@pytest.mark.parametrize("d", range(2, 9))
def test_split_gram_and_sector_counts(d):
    for c in range(1, d):
        b = split_basis(d, c)
        rep = verify_orthogonality(b)
        assert rep.max_offdiag < 1e-12, (d, c)
        assert rep.max_diag_deviation < 1e-12, (d, c)
        sectors = [e.sector for e in b.elements]
        low = sum(1 for s in sectors if s in (SUB_LOW, DIAG_LOW)) + sum(
            1 for e in b.elements if e.sector in (SYM, ANTISYM) and e.l < c)
        high = sum(1 for s in sectors if s in (SUB_HIGH, DIAG_HIGH)) + sum(
            1 for e in b.elements if e.sector in (SYM, ANTISYM) and e.k >= c)
        cross = sum(1 for e in b.elements
                    if e.sector in (SYM, ANTISYM) and e.k < c <= e.l)
        assert low == c * c
        assert high == (d - c) * (d - c)
        assert cross == 2 * c * (d - c)
        assert b.low_count == c * c


def test_split_norms_by_block():
    d, c = 5, 2
    for e in split_basis(d, c).elements:
        if e.sector in (SUB_LOW, DIAG_LOW) or (
                e.sector in (SYM, ANTISYM) and e.l < c):
            assert e.norm == pytest.approx(c)
        else:
            assert e.norm == pytest.approx(d - c)
        assert np.trace(e.matrix @ e.matrix.conj().T).real == pytest.approx(e.norm)


def test_corrupted_element_is_detected():
    b = gellmann_basis(3)
    bad = b.elements[3].matrix + 0.1 * b.elements[5].matrix
    elements = list(b.elements)
    elements[3] = dataclasses.replace(b.elements[3], matrix=bad)
    rep = verify_orthogonality(dataclasses.replace(b, elements=tuple(elements)))
    assert rep.max_offdiag > 1e-3


def test_replaced_basis_checks_its_own_elements():
    # the stack is built from the basis's own elements, so reading it before
    # dataclasses.replace cannot hide a corrupted element afterwards
    b = gellmann_basis(3)
    b.stack()
    elements = list(b.elements)
    bad_matrix = elements[3].matrix + 0.1 * elements[5].matrix
    elements[3] = dataclasses.replace(elements[3], matrix=bad_matrix)
    bad = dataclasses.replace(b, elements=tuple(elements))
    assert verify_orthogonality(bad).max_offdiag > 1e-3
    assert not bad.stack().flags.writeable and not bad.norms().flags.writeable
    # equality is identity: it never compares arrays
    assert b == b and b != bad and b != gellmann_basis(3)
    assert b.elements[3] == b.elements[3] and b.elements[3] != bad.elements[3]


def test_dimension_guard():
    with pytest.raises(ValueError):
        gellmann_basis(MAX_DIM + 1)
    with pytest.raises(ValueError):
        gellmann_basis(1)
    with pytest.raises(ValueError):
        split_basis(4, 0)
    with pytest.raises(ValueError):
        split_basis(4, 4)


@settings(max_examples=30, deadline=None)
@given(d=st.integers(2, 10), data=st.data())
def test_split_is_complete(d, data):
    """Any hermitian matrix is reproduced from its split coefficients."""
    c = data.draw(st.integers(1, d - 1))
    rng = np.random.default_rng(d * 37 + c)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (g + g.conj().T) / 2
    b = split_basis(d, c)
    coeffs = np.einsum("kij,ji->k", b.stack(), h.astype(complex))
    rebuilt = np.einsum("k,kij->ij", coeffs / b.norms(), b.stack())
    np.testing.assert_allclose(rebuilt, h, atol=1e-12)
