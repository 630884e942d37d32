"""Tsallis and Renyi entropies, the dimension-weighted SSA, subadditivity
variants, attainability surfaces and triple classification."""

from __future__ import annotations

import math
import warnings
from decimal import Context, Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bloch_lab import (DensityMatrix, EnsembleSpec, check_dim_ssa, check_gen_pseudo_additivity,
                       check_subadditivity, classify_grid, classify_triple,
                       dim_ssa_vs_subadd, entropy_vector, linear_entropy,
                       max_sab_genpseudo, max_sab_subadd, maximally_mixed, partial_trace,
                       pseudo_additivity_residual, pure, random_state, renyi,
                       tsallis, validate_surface)
from bloch_lab.states import _marginal_spectrum

ORDERS = (0.1, 0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-15, 1.0 + 1e-12, 1.5, 2.0, 3.0, 7.0, 50.0)


def hs_state(dims, seed, index=0):
    return random_state(dims, EnsembleSpec(kind="hilbert-schmidt", seed=seed), index)


def decimal_entropies(w, q: float) -> tuple[float, float]:
    """(Tsallis in nats, Renyi in bits) of the spectrum w normalized to sum 1, to 60 digits."""
    with localcontext(Context(prec=60, Emin=-10**9, Emax=10**9)):  # room for lambda^(1e6)
        w = [Decimal(float(x)) for x in w]
        w = [x / sum(w) for x in w]
        ln2 = Decimal(2).ln()
        if q == 1.0:
            h = -sum(x * x.ln() for x in w)
            return float(h), float(h / ln2)
        qd = Decimal(q)
        power_sum = sum(x ** qd for x in w)
        return float((1 - power_sum) / (qd - 1)), float(power_sum.ln() / ((1 - qd) * ln2))


# ---------------------------------------------------------------------------
# entropy functionals


def test_linear_entropy_endpoints():
    assert linear_entropy(pure(np.array([1.0, 0.0]), (2,))) == pytest.approx(0.0)
    assert linear_entropy(maximally_mixed((3,))) == pytest.approx(2.0 / 3.0)


def test_tsallis_two_is_linear_entropy():
    for i in range(5):
        s = hs_state((2, 3), seed=71, index=i)
        assert tsallis(s, 2.0) == pytest.approx(linear_entropy(s), abs=1e-13)


def test_tsallis_integer_matches_eigenvalue_form():
    s = hs_state((4,), seed=73)
    w = np.linalg.eigvalsh(s.matrix)
    for q in (2, 3, 5):
        expected = (1.0 - np.sum(w**q)) / (q - 1.0)
        assert tsallis(s, float(q)) == pytest.approx(expected, abs=1e-12)


def test_tsallis_q_one_is_von_neumann_nats():
    s = hs_state((3,), seed=79)
    w = np.linalg.eigvalsh(s.matrix)
    w = w[w > 1e-15]
    assert tsallis(s, 1.0) == pytest.approx(float(-np.sum(w * np.log(w))), abs=1e-10)
    # continuity at the limit
    assert tsallis(s, 1.0 + 1e-7) == pytest.approx(tsallis(s, 1.0), abs=1e-5)


def test_renyi_two_inverts_purity():
    s = hs_state((2, 2), seed=83)
    assert 2.0 ** (-renyi(s, 2.0)) == pytest.approx(s.purity(), abs=1e-12)


def test_renyi_alpha_one_is_von_neumann_bits():
    s = hs_state((3,), seed=89)
    w = np.linalg.eigvalsh(s.matrix)
    w = w[w > 1e-15]
    assert renyi(s, 1.0) == pytest.approx(float(-np.sum(w * np.log2(w))), abs=1e-10)
    assert renyi(s, 1.0 + 1e-7) == pytest.approx(renyi(s, 1.0), abs=1e-5)


@pytest.mark.parametrize("q", [0.1, 0.5])
def test_pure_state_has_no_entropy_at_small_order(q):
    # four of its six eigenvalues are rounding noise, which is no support
    s = random_state((2, 3), EnsembleSpec(kind="pure-haar", seed=1))
    assert abs(tsallis(s, q)) <= 1e-14
    assert abs(renyi(s, q)) <= 1e-14


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0, 3.0])
def test_an_entropy_of_exactly_zero_is_positive_zero(q):
    # negating t = 0, or a q = 1 sum of 0, once gave -0.0, which JSON prints as "-0.0"
    basis = pure([1, 0, 0, 0], (2, 2))  # its one kept eigenvalue is exactly 1
    for value in (tsallis(basis, q), renyi(basis, q), check_subadditivity(basis, max(q, 1.0)).lhs):
        assert value == 0.0 and math.copysign(1.0, value) == 1.0, value


def test_subadd_of_a_pure_state_prints_positive_zero():
    s = random_state((2, 2, 3), EnsembleSpec(kind="pure-haar", seed=2))
    lhs = check_subadditivity(s, 3.0).lhs
    assert lhs == 0.0 and math.copysign(1.0, lhs) == 1.0


@pytest.mark.parametrize("q", [1.0 - 1e-12, 1.0 + 1e-12, 1.0 + 1e-15])
def test_entropies_are_continuous_at_order_one(q):
    # S_q itself moves by about 1.1e-12 at |q - 1| = 1e-12 here, so take the slope at q = 1 along:
    # dS_q/dq = -sum w ln^2 w / 2 (Tsallis), -(sum w ln^2 w - H^2) / (2 ln 2) (Renyi, bits)
    for i in range(10):
        s = hs_state((2, 3), seed=1, index=i)
        w = np.linalg.eigvalsh(s.matrix)
        m2, h = float((w * np.log(w) ** 2).sum()), tsallis(s, 1.0)
        assert abs(tsallis(s, q) - (h - (q - 1.0) * m2 / 2)) <= 1e-13, i
        assert abs(renyi(s, q) - (renyi(s, 1.0) - (q - 1.0) * (m2 - h * h) / (2 * np.log(2.0)))) <= 1e-13, i


def test_renyi_at_large_order_does_not_underflow():
    # Tr rho^2000 underflows to 0; the log-sum shifted by lambda_max does not
    s = hs_state((2, 3), seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert renyi(s, 2000.0) == pytest.approx(1.4072140281679, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10**6), kind=st.sampled_from(["hilbert-schmidt", "pure-haar", "induced"]),
       keep=st.sampled_from([(0, 1), (0,), (1,)]),
       q=st.sampled_from(ORDERS) | st.floats(0.05, 1e6))
def test_entropies_match_a_decimal_reference(seed, kind, keep, q):
    # on (2,3) states of every rank and their marginals; the reference normalizes the kept spectrum
    s = random_state((2, 3), EnsembleSpec(kind=kind, seed=seed, rank_cap=2 if kind == "induced" else None))
    marginal = partial_trace(s, keep)
    want_tsallis, want_renyi = decimal_entropies(_marginal_spectrum(s, keep), q)
    assert abs(tsallis(marginal, q) - want_tsallis) <= 1e-14
    assert abs(renyi(marginal, q) - want_renyi) <= 1e-14


@pytest.mark.parametrize("q", [0.5, 1.0, 2.5, 3.0, 4.0])
def test_tsallis_rejects_negative_eigenvalues_at_every_order(q):
    # and so does renyi: every order but 2 reads the spectrum rule
    bad = DensityMatrix((2,), np.diag([1.1, -0.1]))
    for entropy in (tsallis, renyi):
        with pytest.raises(ValueError, match="eigenvalue"):
            entropy(bad, q)


def test_entropy_order_guards():
    s = maximally_mixed((2,))
    with pytest.raises(ValueError):
        tsallis(s, 0.0)
    with pytest.raises(ValueError):
        renyi(s, -1.0)


@pytest.mark.parametrize("order", [float("inf"), float("-inf"), float("nan")])
def test_entropy_orders_must_be_finite(order):
    s = maximally_mixed((2,))
    with pytest.raises(ValueError, match="finite"):
        tsallis(s, order)
    with pytest.raises(ValueError, match="finite"):
        renyi(s, order)


def test_entropy_vector_covers_all_subsets():
    ev = entropy_vector(hs_state((2, 2, 2), seed=97))
    assert set(ev.values) == {(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)}


# ---------------------------------------------------------------------------
# dimension-weighted strong subadditivity


def test_dim_ssa_tight_at_maximally_mixed():
    rep = check_dim_ssa(maximally_mixed((2, 2, 2)))
    assert rep.slack == pytest.approx(0.0, abs=1e-14)
    assert rep.holds
    assert rep.extras["constant"] == pytest.approx(0.25)


def test_dim_ssa_comparison_margin():
    rep = dim_ssa_vs_subadd(maximally_mixed((2, 2, 2)))
    assert rep.lhs == pytest.approx(0.25)
    assert rep.rhs == pytest.approx(0.625)
    assert rep.slack == pytest.approx(0.375)


def test_dim_ssa_comparison_can_go_negative():
    z = pure(np.eye(8)[0], (2, 2, 2))
    assert dim_ssa_vs_subadd(z).slack == pytest.approx(-0.25)


def test_dim_ssa_holds_on_random_states():
    for dims in ((2, 2, 2), (2, 2, 3)):
        for i in range(20):
            assert check_dim_ssa(hs_state(dims, seed=101, index=i)).holds


def test_dim_ssa_groups_extra_sites():
    rep = check_dim_ssa(hs_state((2, 2, 2, 2), seed=103))
    assert rep.holds
    assert rep.extras["constant"] == pytest.approx(0.25)  # d_C never enters


# ---------------------------------------------------------------------------
# subadditivity and the correlated strengthening


def test_subadd_slack_at_maximally_mixed_pair():
    rep = check_subadditivity(maximally_mixed((2, 2)), q=2.0)
    assert rep.slack == pytest.approx(0.25, abs=1e-14)


def test_gen_pseudo_tight_at_maximally_mixed_pair():
    rep = check_gen_pseudo_additivity(maximally_mixed((2, 2)))
    assert rep.slack == pytest.approx(0.0, abs=1e-14)
    assert rep.holds


def test_gen_pseudo_product_pure_slack():
    rep = check_gen_pseudo_additivity(pure(np.array([1.0, 0, 0, 0]), (2, 2)))
    assert rep.slack == pytest.approx(9.0 / 16.0)


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0])
def test_subadd_on_random_states(q):
    for i in range(15):
        assert check_subadditivity(hs_state((2, 3), seed=107, index=i), q=q).holds


@pytest.mark.parametrize("q", [1.0, 1.5, 3.0])
@pytest.mark.parametrize("dims", [(2, 3), (2, 2, 3)])
def test_subadd_sides_are_the_entropies_of_partial_traces(dims, q):
    # the sides read the state's own marginals; the reference builds each marginal state
    for kind in ("hilbert-schmidt", "pure-haar"):
        for i in range(4):
            s = random_state(dims, EnsembleSpec(kind=kind, seed=7), i)
            rep = check_subadditivity(s, q)
            rest = tuple(range(1, s.n_sites))
            assert rep.lhs == tsallis(partial_trace(s, tuple(range(s.n_sites))), q)
            assert rep.rhs == tsallis(partial_trace(s, (0,)), q) + tsallis(partial_trace(s, rest), q)


def test_subadd_rejects_q_below_one():
    with pytest.raises(ValueError):
        check_subadditivity(maximally_mixed((2, 2)), q=0.5)


@pytest.mark.parametrize("q", [0.5, 1.5, 2.0, 3.0])
def test_pseudo_additivity_residual_vanishes(q):
    for i in range(5):
        a = hs_state((2,), seed=109, index=i)
        b = hs_state((3,), seed=113, index=i)
        assert abs(pseudo_additivity_residual(a, b, q)) < 1e-12


def test_pseudo_additivity_residual_rejects_degenerate_order():
    a, b = maximally_mixed((2,)), maximally_mixed((3,))
    with pytest.raises(ValueError):
        pseudo_additivity_residual(a, b, 1.0)


# ---------------------------------------------------------------------------
# attainability surfaces


def test_surface_caps_at_half_marginals():
    assert max_sab_subadd(0.5, 0.5, (2, 2)) == pytest.approx(0.75)
    assert max_sab_genpseudo(0.5, 0.5, (2, 2)) == pytest.approx(0.75)


def test_surface_corner_values():
    assert max_sab_subadd(0.0, 0.0, (2, 2)) == pytest.approx(0.0)
    # pure marginals still admit joint mixedness up to 1 + 1/m - 2/sqrt(m)
    assert max_sab_genpseudo(0.0, 0.0, (2, 2)) == pytest.approx(0.25)


def test_surface_monotone_in_marginals():
    grid = np.linspace(0.0, 0.5, 20)
    sub = [max_sab_subadd(x, 0.3, (2, 2)) for x in grid]
    gen = [max_sab_genpseudo(x, 0.3, (2, 2)) for x in grid]
    assert all(b - a >= -1e-12 for a, b in zip(sub, sub[1:]))
    assert all(b - a >= -1e-12 for a, b in zip(gen, gen[1:]))


@pytest.mark.parametrize("kind", ["subadd", "gen-pseudo"])
def test_closed_form_matches_bisection(kind):
    assert validate_surface(kind, (2, 2), resolution=41) < 1e-9


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_surface_caps_on_arrays_match_scalar_calls(dims):
    sa = np.linspace(0.0, 1.0 - 1.0 / dims[0], 17)
    sb = np.linspace(0.0, 1.0 - 1.0 / dims[1], 13)
    SA, SB = np.meshgrid(sa, sb, indexing="ij")
    for cap in (max_sab_subadd, max_sab_genpseudo):
        ref = np.array([[cap(float(a), float(b), dims) for b in sb] for a in sa])
        assert cap(SA, SB, dims).tobytes() == ref.tobytes(), cap.__name__
        assert type(cap(0.1, 0.1, dims)) is float


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
@pytest.mark.parametrize("kind", ["hilbert-schmidt", "pure-haar"])
def test_states_lie_under_both_figA_surfaces(dims, kind):
    spec = EnsembleSpec(kind=kind, seed=0)
    for i in range(200):
        report = check_gen_pseudo_additivity(random_state(dims, spec, i))
        assert report.holds, i
        s_ab, s_a, s_b = (report.extras[k] for k in ("s_ab", "s_a", "s_b"))
        assert s_ab <= max_sab_subadd(s_a, s_b, dims), i
        assert s_ab <= max_sab_genpseudo(s_a, s_b, dims), i


def test_marginal_range_is_enforced():
    with pytest.raises(ValueError):
        max_sab_subadd(0.6, 0.1, (2, 2))  # 0.6 > 1 - 1/2
    with pytest.raises(ValueError):
        max_sab_genpseudo(np.array([0.1, 0.6]), 0.1, (2, 2))
    with pytest.raises(ValueError):
        max_sab_subadd(float("nan"), 0.1, (2, 2))
    with pytest.raises(ValueError):
        classify_triple(0.1, 0.1, 0.8, (2, 2, 2))


# ---------------------------------------------------------------------------
# triple classification


def test_classify_triple_examples():
    v = classify_triple(0.5, 0.5, 0.5, (2, 2, 2))
    assert v.subadd and v.gen_pseudo
    v = classify_triple(0.5, 0.5, 0.99, (2, 2, 100))
    assert v.subadd and not v.gen_pseudo


def test_qubit_triples_never_removed():
    # on [2, 2, 2] the correlated bound never cuts anything subadditivity kept
    grid = np.linspace(0.0, 0.5, 21)
    a, b, c = np.meshgrid(grid, grid, grid, indexing="ij")
    sub, gen = classify_grid(a, b, c, (2, 2, 2))
    assert not np.any(sub & ~gen)
    assert int(sub.sum()) > 0


def test_classify_grid_matches_scalar():
    rng = np.random.default_rng(5)
    a = rng.uniform(0.0, 0.5, 30)
    b = rng.uniform(0.0, 0.5, 30)
    c = rng.uniform(0.0, 0.98, 30)
    sub, gen = classify_grid(a, b, c, (2, 2, 100))
    for j in range(30):
        v = classify_triple(float(a[j]), float(b[j]), float(c[j]), (2, 2, 100))
        assert v.subadd == bool(sub[j]) and v.gen_pseudo == bool(gen[j]), j


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), q=st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_subadd_property(seed, q):
    assert check_subadditivity(hs_state((2, 2), seed=seed), q=q).holds


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_dim_ssa_property(seed):
    assert check_dim_ssa(hs_state((2, 2, 2), seed=seed)).holds


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_gen_pseudo_property(seed):
    assert check_gen_pseudo_additivity(hs_state((2, 3), seed=seed)).holds
