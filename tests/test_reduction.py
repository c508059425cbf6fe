"""Sector enumeration, integration-by-parts spans, exact reduction."""

import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echelon_oracle import (EagerReducer, echelon_mismatches, enumerate_monomials,
                            full_span_oracle, ibp_generators)
from euler_operator import is_total_derivative
from nlsenergy import energy as energy_module
from nlsenergy.algebra import Density, Monomial
from nlsenergy.rational import GaussianRational
from nlsenergy.reduction import (MonomialClass, SectorReducer,
                                 SignatureMismatchError, _eliminate, classify,
                                 reduce_by_sector)
from nlsenergy.spectral import DensityPlan, random_state


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
            assert ibp_generators(signature, max_derivative_factors=cap) == [
                g for g in ibp_generators(signature)
                if min(m.derivative_factor_count for m in g.monomials()) <= cap]


@pytest.mark.parametrize("k,p,kept", [(12, 4, 376), (16, 5, 672), (20, 5, 1054)])
def test_dispersive_walk_keeps_the_bases_with_at_most_three_derivative_factors(k, p, kept):
    bases = enumerate_monomials((p + 1, p + 1, 2 * k - 1), 2 * k - 1, 3)
    assert len(bases) == kept
    # one row per base, counted without walking them
    assert energy_module.dispersive_reducer(k, p).rank == kept


def test_generators_are_total_derivatives():
    """Each span element is the full Leibniz expansion of d/dx applied to
    a lower-order monomial; identical slots accumulate multiplicity."""
    gens = ibp_generators((2, 1, 3))
    # d/dx of (du)(du)(conj u): the two plain slots canonicalize together
    expected = Density.monomial((2, 1), (0,), 2) + Density.monomial((1, 1), (1,))
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
    """Echelon of the full IBP span of a sector, nothing allowed."""
    return SectorReducer(signature)


def _assert_integrates_by_parts_to_zero(expr, res):
    """expr - allowed_part - residual lies in the full IBP span of its
    sector, has zero Euler images, and so integrates to zero at any state,
    up to rounding."""
    rest = expr - res.allowed_part - res.residual
    assert is_total_derivative(rest)
    for sig in rest.signatures():
        assert _ibp_span(sig).reduce(rest).residual.is_zero
    for seed in range(3):
        (value,), (scale,) = DensityPlan((rest,), 16).evaluate(random_state(16, seed))
        assert abs(value) <= 1e-12 * scale


def _orders_at_most_two(m):
    return m.max_order <= 2


@pytest.mark.parametrize("reducer,allowed", [
    (lambda sig: SectorReducer(sig), None),
    (lambda sig: SectorReducer(sig, 2), lambda m: m.derivative_factor_count >= 3),
    # a class no derivative-factor cap states: the eager oracle takes any
    (lambda sig: EagerReducer(ibp_generators(sig), _orders_at_most_two),
     _orders_at_most_two),
], ids=["nothing", "three_derivative_factors", "orders_at_most_two"])
def test_reduction_leaves_a_total_derivative(reducer, allowed):
    sig = (2, 2, 6)
    expr = Density.monomial((3, 2), (1, 0)) \
        + Density.monomial((2, 2), (2, 0)) * GaussianRational(0, 1) \
        - Density.monomial((4, 1), (1, 0)) * Fraction(5, 3) \
        + Density.monomial((2, 1), (2, 1)) * Fraction(2, 7)
    res = reducer(sig).reduce(expr)
    assert res.residual != expr
    if allowed is not None:
        assert not res.allowed_part.is_zero
        assert all(allowed(m) for m in res.allowed_part.monomials())
        assert not any(allowed(m) for m in res.residual.monomials())
    _assert_integrates_by_parts_to_zero(expr, res)


def test_residual_is_independent_of_generator_order():
    # the eager echelon takes its generators in any order; the closed form
    # takes none, and its residual is the same
    sig = (3, 3, 4)
    gens = ibp_generators(sig)
    expr = Density.monomial((2, 1, 0), (1, 0, 0)) \
        + Density.monomial((1, 1, 1), (1, 0, 0)) * Fraction(3, 7)
    base = SectorReducer(sig).reduce(expr).residual
    assert not base.is_zero
    rng = random.Random(11)
    for _ in range(3):
        shuffled = list(gens)
        rng.shuffle(shuffled)
        assert EagerReducer(shuffled).reduce(expr).residual == base


def test_allowed_monomials_pass_through():
    sig = (2, 2, 4)
    allowed = [m for m in enumerate_monomials(sig, 4)
               if m.derivative_factor_count >= 4]
    red = SectorReducer(sig, 3)
    expr = Density({allowed[0]: GaussianRational(5)})
    res = red.reduce(expr)
    assert res.residual.is_zero
    assert res.allowed_part == expr


def test_mixed_signature_input_rejected():
    red = SectorReducer((1, 1, 2))
    bad = Density.monomial((1,), (1,)) + Density.monomial((2,), (2,))
    with pytest.raises(SignatureMismatchError):
        red.reduce(bad)


def test_a_row_that_does_not_clear_its_pivot_raises():
    # a row scaled by 2 at its pivot would leave the pivot in place for ever
    m = Monomial((1,), (0,))
    rows = {m: ({m: GaussianRational(2)}, {})}
    with pytest.raises(ArithmeticError, match="not normalized"):
        list(_eliminate(rows, None, {m: GaussianRational(1)}, {}))


def test_reduce_by_sector_reduces_each_sector_over_its_span():
    expr = Density.monomial((3, 2), (1, 0)) * Fraction(2, 7) \
        + Density.monomial((2, 2), (2, 0)) * GaussianRational(0, 1) \
        + Density.monomial((2,), (1,)) + Density.monomial((1,), (2,)) \
        + Density.monomial((3, 0, 0), (1, 1, 0))
    got = reduce_by_sector(expr)
    assert list(got) == sorted(expr.signatures())
    for sig, residual in got.items():
        part = Density({m: c for m, c in expr.terms() if m.signature == sig})
        assert not residual.is_zero or sig == (1, 1, 3)
        assert residual == full_span_oracle(sig).reduce(part).residual
    # d[d^1 u conj(u)] is a total derivative: its sector reduces to zero
    assert got[(1, 1, 3)].is_zero
    assert reduce_by_sector(Density.zero()) == {}


# -- the cached reducers' rows are the generators that survive projection ---

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
    """The eager echelon of every generator of the sector, projected."""
    sector = _CACHED[name][1](k, p)
    return EagerReducer(ibp_generators(sector), _allowed(name, k, p))


@functools.lru_cache(maxsize=None)
def _sector_monomials(name, k, p):
    sector = _CACHED[name][1](k, p)
    return enumerate_monomials(sector, sector[2])


@pytest.mark.parametrize("name,k,p", _GRID)
def test_cached_reducers_keep_exactly_the_generators_that_survive_projection(name, k, p):
    pruned = _CACHED[name][0].__wrapped__(k, p)
    assert pruned._rows == {}
    allowed = _allowed(name, k, p)
    sector = _CACHED[name][1](k, p)
    surviving = [g for g in ibp_generators(sector)
                 if not all(allowed(m) for m in g.monomials())]
    assert pruned.rank == len(surviving)
    # the eager echelon of every generator has the same pivots and rows,
    # and its elimination subtracted nothing
    assert echelon_mismatches(pruned, _full_span_reducer(name, k, p)) == []


_gaussian = st.builds(GaussianRational,
                      st.fractions(min_value=-9, max_value=9, max_denominator=11),
                      st.fractions(min_value=-9, max_value=9, max_denominator=11).filter(bool))


@st.composite
def _sector_expressions(draw):
    name, k, p = draw(st.sampled_from(_GRID))
    monomials = _sector_monomials(name, k, p)
    picks = draw(st.lists(st.tuples(st.integers(0, len(monomials) - 1), _gaussian),
                          min_size=1, max_size=8))
    return name, k, p, sum((Density({monomials[i]: c}) for i, c in picks), Density.zero())


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
