"""Density algebra: canonical monomials, formal time derivatives.

The derivative operators are cross-checked against sympy's chain rule on
abstract functions, which exercises the Leibniz combinatorics through an
independent implementation.
"""

import copy
import pickle
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from nlsenergy.algebra import (Density, Monomial, _monomial, _power_derivative,
                               density_from_text, density_to_text,
                               dt_evolution, dt_linear, dt_nonlinear)
from nlsenergy.rational import GaussianRational, I


def test_monomial_orders_are_canonically_sorted():
    m = Monomial((0, 3, 1), (2, 0))
    assert m.u_orders == (3, 1, 0)
    assert m.c_orders == (2, 0)
    assert m == Monomial((3, 1, 0), (0, 2))
    assert m.signature == (3, 2, 6)
    assert m.max_order == 3


def test_monomial_validation():
    with pytest.raises(ValueError):
        Monomial((-1,), (0,))
    with pytest.raises(ValueError):
        Monomial((1.5,), (0,))


def test_monomial_conjugate_swaps_blocks():
    m = Monomial((2, 0), (1,))
    assert m.conjugate() == Monomial((1,), (2, 0))
    assert m.conjugate().conjugate() == m


def test_density_linear_structure():
    a = Density.monomial((1,), (1,))
    b = Density.monomial((2,), (0,), coeff=Fraction(1, 2))
    s = a + b - a
    assert s == b
    assert (s * 2).coefficient(Monomial((2,), (0,))) == GaussianRational(1)
    assert (a - a).is_zero
    assert len(a + b) == 2


def test_real_imag_split_reassembles():
    d = Density.monomial((3, 1), (0,), coeff=GaussianRational(1, 2)) \
        + Density.monomial((2,), (2,), coeff=Fraction(-1, 3))
    re, im = d.re_part(), d.im_part()
    assert re.is_real_valued and im.is_real_valued
    assert re + im * GaussianRational(0, 1) == d
    assert d.conjugate().conjugate() == d


def test_text_roundtrip():
    d = Density.monomial((2, 0), (1,), coeff=GaussianRational(Fraction(1, 2), -3)) \
        + Density.monomial((0,), (0,), coeff=7)
    assert density_from_text(density_to_text(d)) == d
    assert density_from_text(density_to_text(Density.zero())).is_zero
    assert "d^2[u]" in density_to_text(d) and "conj(u)" in density_to_text(d)


def test_text_rejects_garbage():
    with pytest.raises(ValueError):
        density_from_text("3 * d^2[w]")


def _factor_text(m: Monomial) -> str:
    """Reference text of a monomial: one formatted string per factor."""
    us = " ".join(f"d^{o}[u]" for o in m.u_orders)
    cs = " ".join(f"d^{o}[conj(u)]" for o in m.c_orders)
    return " ".join(part for part in (us, cs) if part)


_text_orders = st.lists(st.integers(0, 12), max_size=4).map(tuple)
_text_terms = st.lists(
    st.tuples(st.builds(Monomial, _text_orders, _text_orders),
              st.builds(GaussianRational,
                        st.fractions(min_value=-9, max_value=9, max_denominator=11),
                        st.fractions(min_value=-9, max_value=9, max_denominator=11))),
    max_size=8)
_EDGE_MONOMIALS = [Monomial((), ()), Monomial((0,), ()), Monomial((), (0, 0)),
                 Monomial((12, 3), ()), Monomial((), (10, 1, 0)), Monomial((0, 0), (0,))]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(terms=_text_terms)
def test_text_matches_the_per_factor_formula(terms):
    for m, _ in terms:
        assert str(m) == _factor_text(m)
    d = Density.from_terms(terms)
    want = " + ".join(f"{c.to_text()} * {_factor_text(m)}" for m, c in d.terms())
    assert density_to_text(d) == (want or "0")
    # a monomial without factors prints as no text, which does not parse back
    d = Density.from_terms((m, c) for m, c in terms if m.u_orders or m.c_orders)
    assert density_from_text(density_to_text(d)) == d


def test_text_of_single_block_and_zero_order_monomials():
    for m in _EDGE_MONOMIALS:
        assert str(m) == _factor_text(m)
    assert str(Monomial((12, 3), ())) == "d^12[u] d^3[u]"
    assert str(Monomial((), (10, 1, 0))) == "d^10[conj(u)] d^1[conj(u)] d^0[conj(u)]"
    d = Density.from_terms((m, i + 1) for i, m in enumerate(_EDGE_MONOMIALS[1:]))
    assert density_from_text(density_to_text(d)) == d


def test_linear_substitution_by_hand():
    # each slot gains two orders; plain slots carry +i, conjugated ones -i
    d = Density.monomial((1,), (1,))
    expected = Density.monomial((3,), (1,), coeff=GaussianRational(0, 1)) \
        + Density.monomial((1,), (3,), coeff=GaussianRational(0, -1))
    assert dt_linear(d) == expected


def test_linear_substitution_keeps_real_functionals_real():
    d = Density.monomial((2, 1), (1, 0)).re_part()
    assert dt_linear(d).is_real_valued
    assert dt_nonlinear(d, 2).is_real_valued


def test_power_substitution_kills_mass_exactly():
    mass = Density.monomial((0,), (0,))
    assert dt_nonlinear(mass, 2).is_zero
    assert dt_nonlinear(mass, 5).is_zero


def test_power_substitution_validates_exponent():
    with pytest.raises(ValueError):
        dt_nonlinear(Density.monomial((1,), (1,)), 1)
    with pytest.raises(ValueError):
        dt_nonlinear(Density.monomial((1,), (1,)), 2.0)


# -- sympy oracle -----------------------------------------------------------

x, t = sympy.symbols("x t", real=True)
U = sympy.Function("U")
V = sympy.Function("V")


def _to_sympy(density: Density):
    total = sympy.Integer(0)
    for m, c in density.terms():
        coeff = sympy.Rational(c.re.numerator, c.re.denominator) \
            + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator)
        prod = sympy.Integer(1)
        for o in m.u_orders:
            prod *= U(x).diff(x, o)
        for o in m.c_orders:
            prod *= V(x).diff(x, o)
        total += coeff * prod
    return sympy.expand(total)


def _sympy_time_derivative(density: Density, p: int, rhs_u, rhs_v):
    """Chain rule applied by sympy: substitute the given time laws for U, V."""
    w = sympy.Function("w")
    out = sympy.Integer(0)
    for m, c in density.terms():
        coeff = sympy.Rational(c.re.numerator, c.re.denominator) \
            + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator)
        factors = [U(x).diff(x, o) for o in m.u_orders] \
            + [V(x).diff(x, o) for o in m.c_orders]
        slots = [sympy.Derivative(rhs_u, (x, o)).doit() for o in m.u_orders] \
            + [sympy.Derivative(rhs_v, (x, o)).doit() for o in m.c_orders]
        for i, replacement in enumerate(slots):
            prod = sympy.Integer(1)
            for j, f in enumerate(factors):
                prod *= replacement if i == j else f
            out += coeff * prod
    return sympy.expand(out)


@pytest.mark.parametrize("density", [
    Density.monomial((2,), (2,)),
    Density.monomial((3, 1), (2, 0), coeff=GaussianRational(1, 1)),
    Density.monomial((1, 1), (0, 0, 0)) + Density.monomial((2, 0), (1, 0, 0)),
])
def test_linear_substitution_matches_sympy(density):
    got = _to_sympy(dt_linear(density))
    want = _sympy_time_derivative(density, 2,
                                  sympy.I * U(x).diff(x, 2),
                                  -sympy.I * V(x).diff(x, 2))
    assert sympy.simplify(got - want) == 0


@pytest.mark.parametrize("density,p", [
    (Density.monomial((2,), (2,)), 2),
    (Density.monomial((1,), (1,)), 3),
    (Density.monomial((2, 1), (1,)), 2),
])
def test_power_substitution_matches_sympy(density, p):
    got = _to_sympy(dt_nonlinear(density, p))
    want = _sympy_time_derivative(density, p,
                                  -sympy.I * U(x) ** (p + 1) * V(x) ** p,
                                  sympy.I * V(x) ** (p + 1) * U(x) ** p)
    assert sympy.expand(got - want) == 0


def test_full_derivative_is_sum_of_parts():
    d = Density.monomial((4,), (4,)) + Density.monomial((0,), (0,))
    assert dt_evolution(d, 2) == dt_linear(d) + dt_nonlinear(d, 2)


# -- per-term reference formulas --------------------------------------------

def _naive_dt_linear(e: Density) -> Density:
    """Reference for dt_linear: one general complex product and one
    validated Monomial per term."""
    pairs = []
    for m, c in e.terms():
        for idx in range(len(m.u_orders)):
            orders = list(m.u_orders)
            orders[idx] += 2
            pairs.append((Monomial(tuple(orders), m.c_orders), c * I))
        for idx in range(len(m.c_orders)):
            orders = list(m.c_orders)
            orders[idx] += 2
            pairs.append((Monomial(m.u_orders, tuple(orders)), c * (-I)))
    return Density.from_terms(pairs)


def _naive_dt_nonlinear(e: Density, p: int) -> Density:
    """Reference for dt_nonlinear: every factor substituted in turn, equal
    factors included, with two general complex products and one validated
    Monomial per Leibniz term."""
    pairs = []
    for m, c in e.terms():
        for idx, a in enumerate(m.u_orders):
            rest = m.u_orders[:idx] + m.u_orders[idx + 1:]
            for uo, co, w in _power_derivative(p, a):
                pairs.append((Monomial(rest + uo, m.c_orders + co), c * (-I) * w))
        for idx, a in enumerate(m.c_orders):
            rest = m.c_orders[:idx] + m.c_orders[idx + 1:]
            for uo, co, w in _power_derivative(p, a):
                pairs.append((Monomial(m.u_orders + co, rest + uo), c * I * w))
    return Density.from_terms(pairs)


_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=7)
_orders = st.lists(st.integers(0, 5), max_size=4)
_coefficients = st.one_of(
    st.builds(GaussianRational, _fractions, _fractions.filter(bool)),
    st.builds(GaussianRational, st.just(0), _fractions.filter(bool)),
    st.builds(GaussianRational, _fractions))
# orders are drawn with repeats on purpose: equal factors are grouped by the
# kernel and substituted one at a time by the reference
_densities = st.lists(
    st.tuples(st.builds(lambda u, c: Monomial(tuple(u), tuple(c)), _orders, _orders),
              _coefficients),
    min_size=1, max_size=6).map(Density.from_terms)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(density=_densities, p=st.sampled_from([2, 3]))
def test_substitutions_match_the_per_term_formulas(density, p):
    assert dt_nonlinear(density, p) == _naive_dt_nonlinear(density, p)
    assert dt_linear(density) == _naive_dt_linear(density)


def test_substitutions_match_on_conjugated_and_plain_factors():
    c = GaussianRational(Fraction(2, 3), Fraction(-5, 7))
    for u, v in [((3, 0, 0), ()), ((), (2, 2, 1)), ((4, 1, 1), (2, 0)), ((0,), (0,))]:
        d = Density.monomial(u, v, coeff=c)
        for p in (2, 3, 4):
            assert dt_nonlinear(d, p) == _naive_dt_nonlinear(d, p)
        assert dt_linear(d) == _naive_dt_linear(d)


def test_substitution_over_coprime_denominators_cancels_exactly():
    # 1/3 * (-6) + 1 * 2 = 0 at the cancelled monomial; 2/7 and 5/11*i bring
    # further denominators coprime to 3
    cancelled = Monomial((1, 1, 0, 0), (0, 0, 0))
    first = Density.monomial((2, 0), (0,), coeff=Fraction(1, 3))
    d = first + Density.monomial((1, 0), (1,)) \
        + Density.monomial((2, 1), (1,), coeff=Fraction(2, 7)) \
        + Density.monomial((3,), (0,), coeff=GaussianRational(0, Fraction(5, 11)))
    assert cancelled in dt_nonlinear(first, 2).monomials()
    got = dt_nonlinear(d, 2)
    assert got == _naive_dt_nonlinear(d, 2)
    assert cancelled not in got.monomials()
    assert all(c for _, c in got.terms())
    assert all(type(c.re) is Fraction and type(c.im) is Fraction for _, c in got.terms())


@settings(max_examples=100, deadline=None, derandomize=True)
@given(u=_orders, c=_orders)
def test_internal_constructor_matches_monomial(u, c):
    trusted = _monomial(u, c)
    checked = Monomial(tuple(u), tuple(c))
    assert trusted == checked
    assert hash(trusted) == hash(checked)
    assert (trusted.u_orders, trusted.c_orders) == (checked.u_orders, checked.c_orders)
    assert {trusted: 1}[checked] == 1
    # the hash and sort key are fixed at construction, by either constructor
    assert trusted.sort_key() == checked.sort_key()
    assert hash(checked) == hash((checked.u_orders, checked.c_orders))
    uo, co = checked.u_orders, checked.c_orders
    assert checked.sort_key() == (len(uo), len(co), sum(uo) + sum(co), uo, co)
    assert not hasattr(checked, "__dict__") and not hasattr(trusted, "__dict__")
    assert copy.copy(trusted) == trusted and pickle.loads(pickle.dumps(checked)) == checked
