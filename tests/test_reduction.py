"""Sector enumeration, integration-by-parts spans, exact reduction."""

import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlsenergy import energy as energy_module
from nlsenergy.algebra import Density, Monomial
from nlsenergy.rational import GaussianRational
from nlsenergy.reduction import (MonomialClass, SectorReducer,
                                 SignatureMismatchError, classify,
                                 enumerate_monomials, ibp_generators)
from nlsenergy.spectral import evaluate_density, random_state


def _brute_monomials(signature, max_order):
    n_u, n_c, total = signature
    out = set()
    for orders in itertools.product(range(min(total, max_order) + 1),
                                    repeat=n_u + n_c):
        if sum(orders) == total:
            out.add(Monomial(orders[:n_u], orders[n_u:]))
    return out


@pytest.mark.parametrize("signature,max_order", [
    ((2, 2, 4), 4), ((3, 3, 6), 6), ((1, 1, 2), 2), ((3, 2, 5), 2),
])
def test_enumeration_matches_brute_force(signature, max_order):
    got = list(enumerate_monomials(signature, max_order))
    assert len(got) == len(set(got)), "duplicates in enumeration"
    assert set(got) == _brute_monomials(signature, max_order)


def test_enumeration_is_deterministic():
    a = list(enumerate_monomials((3, 3, 6), 6))
    b = list(enumerate_monomials((3, 3, 6), 6))
    assert a == b


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n_u=st.integers(0, 5), n_c=st.integers(0, 5), total=st.integers(0, 12),
       max_order=st.integers(0, 12), cap=st.integers(0, 4))
def test_capped_walk_is_the_filtered_walk(n_u, n_c, total, max_order, cap):
    signature = (n_u, n_c, total)
    assert enumerate_monomials(signature, max_order, cap) == [
        b for b in enumerate_monomials(signature, max_order)
        if b.derivative_factor_count <= cap]


def test_capped_generators_are_the_filtered_generators():
    # from a base of positive total order, the least derivative factor count
    # among the Leibniz terms is the base's own, so the filter below keeps
    # exactly the generators of the bases within the cap
    for signature in ((3, 3, 8), (2, 4, 7), (1, 1, 5)):
        for cap in range(4):
            assert ibp_generators(signature, signature[2], max_derivative_factors=cap) == [
                g for g in ibp_generators(signature, signature[2])
                if min(m.derivative_factor_count for m in g.monomials()) <= cap]


@pytest.mark.parametrize("k,p,kept", [(12, 4, 376), (16, 5, 672), (20, 5, 1054)])
def test_dispersive_walk_keeps_the_bases_with_at_most_three_derivative_factors(k, p, kept):
    bases = enumerate_monomials((p + 1, p + 1, 2 * k - 1), 2 * k - 1, 3)
    assert len(bases) == kept


def test_generators_are_total_derivatives():
    """Each span element is the full Leibniz expansion of d/dx applied to
    a lower-order monomial; identical slots accumulate multiplicity."""
    gens = ibp_generators((2, 1, 3), 3)
    # d/dx of (du)(du)(conj u): the two plain slots canonicalize together
    expected = Density.from_terms([
        (Monomial((2, 1), (0,)), 2),
        (Monomial((1, 1), (1,)), 1),
    ])
    assert expected in gens
    for g in gens:
        assert all(m.signature == (2, 1, 3) for m in g.monomials())
    assert len(gens) == len(list(enumerate_monomials((2, 1, 2), 2)))


def test_classification_precedence():
    k, p = 3, 2
    quartic = Monomial((1, 1, 1), (1, 2, 0))        # four derivative factors
    assert classify(quartic, k, p) is MonomialClass.QUARTIC_REMAINDER
    power = Monomial((2, 1, 1, 0, 0), (0, 0, 0, 0, 0))
    assert classify(power, k, p) is MonomialClass.NONLINEAR_REMAINDER
    corr = Monomial((2, 2, 0), (0, 0, 0))
    assert classify(corr, k, p) is MonomialClass.CORRECTION
    # same shape but carrying an order >= k factor stays unclassified
    high = Monomial((3, 1, 0), (0, 0, 0))
    assert classify(high, k, p) is MonomialClass.UNCLASSIFIED


@functools.lru_cache(maxsize=None)
def _ibp_span(signature):
    """Echelon of the full, unpruned IBP span of a sector, nothing allowed."""
    return SectorReducer(ibp_generators(signature, signature[2]))


def _assert_integrates_by_parts_to_zero(expr, res):
    """expr - allowed_part - residual lies in the full IBP span of its
    sector, and so integrates to zero at any state, up to rounding."""
    rest = expr - res.allowed_part - res.residual
    for sig in rest.signatures():
        assert _ibp_span(sig).reduce(rest).residual.is_zero
    for seed in range(3):
        value = evaluate_density(random_state(16, seed), rest)
        assert abs(value) <= 1e-12 * value.term_scale


@pytest.mark.parametrize("allowed", [
    None, lambda m: m.derivative_factor_count >= 3, lambda m: m.max_order <= 2,
], ids=["nothing", "three_derivative_factors", "orders_at_most_two"])
def test_reduction_leaves_a_total_derivative(allowed):
    sig = (2, 2, 6)
    expr = Density.monomial((3, 2), (1, 0)) \
        + Density.monomial((2, 2), (2, 0)) * GaussianRational(0, 1) \
        - Density.monomial((4, 1), (1, 0)) * Fraction(5, 3) \
        + Density.monomial((2, 1), (2, 1)) * Fraction(2, 7)
    res = SectorReducer(ibp_generators(sig, 6), allowed).reduce(expr)
    assert res.residual != expr
    if allowed is not None:
        assert not res.allowed_part.is_zero
        assert all(allowed(m) for m in res.allowed_part.monomials())
        assert not any(allowed(m) for m in res.residual.monomials())
    _assert_integrates_by_parts_to_zero(expr, res)


def test_residual_is_independent_of_generator_order():
    sig = (3, 3, 4)
    gens = ibp_generators(sig, 4)
    expr = Density.monomial((2, 1, 0), (1, 0, 0)) \
        + Density.monomial((1, 1, 1), (1, 0, 0)) * Fraction(3, 7)
    base = SectorReducer(gens).reduce(expr).residual
    rng = random.Random(11)
    for _ in range(3):
        shuffled = list(gens)
        rng.shuffle(shuffled)
        assert SectorReducer(shuffled).reduce(expr).residual == base


def test_allowed_monomials_pass_through():
    sig = (2, 2, 4)
    allowed = [m for m in enumerate_monomials(sig, 4)
               if m.derivative_factor_count >= 4]
    red = SectorReducer(ibp_generators(sig, 4),
                        lambda m: m.derivative_factor_count >= 4)
    expr = Density({allowed[0]: GaussianRational(5)})
    res = red.reduce(expr)
    assert res.residual.is_zero
    assert res.allowed_part == expr


def test_mixed_signature_input_rejected():
    red = SectorReducer(ibp_generators((1, 1, 2), 2))
    bad = Density.monomial((1,), (1,)) + Density.monomial((2,), (2,))
    with pytest.raises(SignatureMismatchError):
        red.reduce(bad)


# -- the cached reducers build only the generators that survive projection ---

_CACHED = {
    # name: (cached reducer, sector, allowed class)
    "dispersive": (energy_module.dispersive_reducer,
                   lambda k, p: (p + 1, p + 1, 2 * k), MonomialClass.QUARTIC_REMAINDER),
}
_GRID = [(name, k, p) for name in _CACHED for k in range(2, 6) for p in (2, 3)]


def _allowed(name, k, p):
    cls = _CACHED[name][2]
    return lambda m: classify(m, k, p) is cls


@functools.lru_cache(maxsize=None)
def _full_span_reducer(name, k, p):
    sector = _CACHED[name][1](k, p)
    return SectorReducer(ibp_generators(sector, sector[2]), _allowed(name, k, p))


@functools.lru_cache(maxsize=None)
def _sector_monomials(name, k, p):
    sector = _CACHED[name][1](k, p)
    return enumerate_monomials(sector, sector[2])


@pytest.mark.parametrize("name,k,p", _GRID)
def test_cached_reducers_keep_exactly_the_generators_that_survive_projection(
        name, k, p, monkeypatch):
    built = []

    def recording_reducer(generators, allowed=None):
        built.append(list(generators))
        return SectorReducer(built[-1], allowed)

    monkeypatch.setattr(energy_module, "SectorReducer", recording_reducer)
    pruned = _CACHED[name][0].__wrapped__(k, p)
    allowed = _allowed(name, k, p)
    sector = _CACHED[name][1](k, p)
    surviving = [g for g in ibp_generators(sector, sector[2])
                 if not all(allowed(m) for m in g.monomials())]
    assert built == [surviving]
    assert pruned.rank == _full_span_reducer(name, k, p).rank


_gaussian = st.builds(GaussianRational,
                      st.fractions(min_value=-9, max_value=9, max_denominator=11),
                      st.fractions(min_value=-9, max_value=9, max_denominator=11).filter(bool))


@st.composite
def _sector_expressions(draw):
    name, k, p = draw(st.sampled_from(_GRID))
    monomials = _sector_monomials(name, k, p)
    picks = draw(st.lists(st.tuples(st.integers(0, len(monomials) - 1), _gaussian),
                          min_size=1, max_size=8))
    return name, k, p, Density.from_terms((monomials[i], c) for i, c in picks)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(case=_sector_expressions())
def test_pruned_reducers_match_the_full_span(case):
    name, k, p, expr = case
    pruned = _CACHED[name][0](k, p)
    full = _full_span_reducer(name, k, p)
    got, want = pruned.reduce(expr), full.reduce(expr)
    assert got.residual == want.residual
    assert got.allowed_part == want.allowed_part
    assert pruned.rank == full.rank
    _assert_integrates_by_parts_to_zero(expr, got)
