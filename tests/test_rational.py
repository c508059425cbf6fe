"""Exact complex-rational scalar arithmetic."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlsenergy.rational import GaussianRational, I, ONE, ZERO


def test_constructor_coerces_to_fractions():
    z = GaussianRational(1, Fraction(2, 4))
    assert z.re == 1 and z.im == Fraction(1, 2)
    assert GaussianRational.coerce(3) == GaussianRational(3)
    assert GaussianRational.coerce(Fraction(-1, 7)).re == Fraction(-1, 7)
    w = GaussianRational(0, 1)
    assert GaussianRational.coerce(w) is w


def test_field_operations():
    a = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    b = GaussianRational(2, 5)
    assert a + b == GaussianRational(Fraction(5, 2), Fraction(17, 4))
    assert a - b == GaussianRational(Fraction(-3, 2), Fraction(-23, 4))
    assert a * b == GaussianRational(Fraction(19, 4), 1)
    assert -a == GaussianRational(Fraction(-1, 2), Fraction(3, 4))
    assert (a / b) * b == a
    assert a * ONE == a and a + ZERO == a
    assert I * I == GaussianRational(-1)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_real_detection_and_fraction_view():
    assert GaussianRational(Fraction(3, 2)).is_real
    assert not (GaussianRational(1, 1)).is_real
    assert GaussianRational(Fraction(3, 2)).as_fraction() == Fraction(3, 2)
    with pytest.raises(ValueError):
        GaussianRational(0, 1).as_fraction()


def test_conjugation_and_modulus_identity():
    z = GaussianRational(Fraction(2, 3), Fraction(-5, 7))
    zz = z * z.conjugate()
    assert zz.is_real
    assert zz.as_fraction() == Fraction(2, 3) ** 2 + Fraction(5, 7) ** 2


def test_equality_with_plain_rationals_and_hash():
    assert GaussianRational(Fraction(5, 3)) == Fraction(5, 3)
    assert GaussianRational(2) == 2
    assert GaussianRational(2, 1) != 2
    assert hash(GaussianRational(7)) == hash(GaussianRational(7, 0))
    assert len({GaussianRational(1), GaussianRational(1, 0)}) == 1
    # equal values hash equally, so a plain rational finds its equal in a set
    for q in (0, 1, -3, Fraction(5, 3), Fraction(-2, 7)):
        assert hash(GaussianRational(q)) == hash(q)
        assert q in {GaussianRational(q)}


def test_truthiness():
    assert not ZERO
    assert ONE and I and GaussianRational(0, Fraction(1, 9))


def test_complex_conversion():
    assert complex(GaussianRational(Fraction(1, 2), -2)) == 0.5 - 2j


@pytest.mark.parametrize("z", [
    ZERO, ONE, -ONE, I, -I,
    GaussianRational(Fraction(3, 7)),
    GaussianRational(0, Fraction(-2, 9)),
    GaussianRational(Fraction(-1, 2), Fraction(5, 11)),
    GaussianRational(4, -6),
])
def test_text_roundtrip(z):
    assert GaussianRational.from_text(z.to_text()) == z


def test_text_forms():
    assert GaussianRational(Fraction(1, 2)).to_text() == "1/2"
    assert GaussianRational(0, -1).to_text() == "-1*i"
    text = GaussianRational(1, Fraction(1, 3)).to_text()
    assert "i" in text and GaussianRational.from_text(text) == GaussianRational(1, Fraction(1, 3))


_nonzero = st.fractions(max_denominator=12).filter(bool)


# each of the four parts is zero or not in every combination, so every
# skipped product is exercised
@pytest.mark.parametrize("zero", list(itertools.product([False, True], repeat=4)))
@settings(max_examples=20, deadline=None, derandomize=True)
@given(parts=st.tuples(_nonzero, _nonzero, _nonzero, _nonzero))
def test_arithmetic_matches_the_textbook_formulas(zero, parts):
    a, b, c, d = (Fraction(0) if is_zero else q for is_zero, q in zip(zero, parts))
    z, w = GaussianRational(a, b), GaussianRational(c, d)
    cases = [
        (z + w, (a + c, b + d)),
        (z - w, (a - c, b - d)),
        (z * w, (a * c - b * d, a * d + b * c)),
        (-z, (-a, -b)),
    ]
    for got, (re, im) in cases:
        assert (got.re, got.im) == (re, im)
        assert type(got.re) is Fraction and type(got.im) is Fraction
        with pytest.raises(AttributeError):
            got.re = re
    # the operands are unchanged
    assert (z.re, z.im, w.re, w.im) == (a, b, c, d)
