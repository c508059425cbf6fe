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


def test_reduction_certificate_recombines_exactly():
    sig = (2, 2, 6)
    gens = ibp_generators(sig, 6)
    expr = Density.monomial((3, 2), (1, 0)) \
        + Density.monomial((2, 2), (2, 0)) * GaussianRational(0, 1) \
        - Density.monomial((4, 1), (1, 0)) * Fraction(5, 3)
    red = SectorReducer(gens)
    res = red.reduce(expr)
    rebuilt = res.residual
    for idx, coeff in res.generator_coefficients.items():
        rebuilt = rebuilt + gens[idx] * coeff
    assert rebuilt == expr


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


# -- the cached reducers hold only the generators that survive projection ----

_CACHED = {
    # name: (cached reducer, sector, allowed class)
    "dispersive": (energy_module.dispersive_reducer,
                   lambda k, p: (p + 1, p + 1, 2 * k), MonomialClass.QUARTIC_REMAINDER),
    "nonlinear": (energy_module._nonlinear_reducer,
                  lambda k, p: (2 * p + 1, 2 * p + 1, 2 * k - 2),
                  MonomialClass.NONLINEAR_REMAINDER),
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
def test_cached_reducers_keep_exactly_the_generators_that_survive_projection(name, k, p):
    allowed = _allowed(name, k, p)
    surviving = [g for g in _full_span_reducer(name, k, p).generators
                 if not all(allowed(m) for m in g.monomials())]
    pruned = _CACHED[name][0](k, p)
    assert pruned.generators == surviving
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
    assert got.recombine(pruned.generators) == expr
