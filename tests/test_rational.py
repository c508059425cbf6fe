"""Exact complex-rational scalar arithmetic."""

import copy
import itertools
import math
import pickle
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
    assert GaussianRational(Fraction(3, 2)).im == 0
    assert GaussianRational(1, 1).im != 0
    assert GaussianRational(Fraction(3, 2)).re == Fraction(3, 2)
    assert type(GaussianRational(Fraction(3, 2)).re) is Fraction
    assert GaussianRational(0, 1).re == 0


def test_conjugation_and_modulus_identity():
    z = GaussianRational(Fraction(2, 3), Fraction(-5, 7))
    zz = z * z.conjugate()
    assert zz.im == 0
    assert zz.re == Fraction(2, 3) ** 2 + Fraction(5, 7) ** 2


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


# -- the integer representation against a Fraction-pair oracle ----------------

class _Oracle:
    """a + b*i as two Fractions, with the textbook formulas."""

    def __init__(self, a, b=0):
        self.a, self.b = Fraction(a), Fraction(b)

    def __add__(self, o):
        return _Oracle(self.a + o.a, self.b + o.b)

    def __sub__(self, o):
        return _Oracle(self.a - o.a, self.b - o.b)

    def __mul__(self, o):
        return _Oracle(self.a * o.a - self.b * o.b, self.a * o.b + self.b * o.a)

    def __truediv__(self, o):
        norm = o.a * o.a + o.b * o.b
        return self * _Oracle(o.a / norm, -o.b / norm)

    def conjugate(self):
        return _Oracle(self.a, -self.b)

    def text(self):
        if not self.b:
            return str(self.a)
        if not self.a:
            return f"{self.b}*i"
        sign = "+" if self.b > 0 else "-"
        return f"({self.a}{sign}{abs(self.b)}*i)"


def _assert_canonical(z):
    """den > 0, gcd(re, im, den) == 1, zero is (0, 0, 1)."""
    assert type(z._re) is int and type(z._im) is int and type(z._den) is int
    assert z._den > 0
    assert math.gcd(z._re, z._im, z._den) == 1
    if not z._re and not z._im:
        assert z._den == 1


def _agrees(z, o):
    _assert_canonical(z)
    assert (z.re, z.im) == (o.a, o.b)
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert bool(z) == bool(o.a or o.b)
    assert (z.im == 0) == (not o.b)
    text = z.to_text()
    assert text == o.text()
    back = GaussianRational.from_text(text)
    assert back == z
    _assert_canonical(back)
    assert complex(z) == complex(float(o.a), float(o.b))


# parts with zero and nonzero values, small and large denominators, and
# denominators that share factors, so gcds of every size occur
_parts = st.one_of(st.just(Fraction(0)),
                   st.fractions(max_denominator=12),
                   st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**9))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(a=_parts, b=_parts, c=_parts, d=_parts, q=st.one_of(st.integers(-5, 5), _parts))
def test_operations_agree_with_a_fraction_pair_oracle(a, b, c, d, q):
    z, w = GaussianRational(a, b), GaussianRational(c, d)
    oz, ow, oq = _Oracle(a, b), _Oracle(c, d), _Oracle(q)
    _agrees(z, oz)
    _agrees(w, ow)
    _agrees(z + w, oz + ow)
    _agrees(z - w, oz - ow)
    _agrees(z * w, oz * ow)
    _agrees(-z, _Oracle(-a, -b))
    _agrees(z.conjugate(), oz.conjugate())
    # mixed with plain rationals, on either side
    _agrees(z + q, oz + oq)
    _agrees(q + z, oq + oz)
    _agrees(z - q, oz - oq)
    _agrees(q - z, oq - oz)
    _agrees(z * q, oz * oq)
    _agrees(q * z, oq * oz)
    if c or d:
        _agrees(z / w, oz / ow)
    else:
        with pytest.raises(ZeroDivisionError):
            z / w
    if q:
        _agrees(z / q, oz / oq)
    if a or b:
        _agrees(q / z, oq / oz)
    # equality, with GaussianRational and plain rationals
    assert (z == w) == ((a, b) == (c, d))
    assert (z == GaussianRational(a, b)) and hash(z) == hash(GaussianRational(a, b))
    assert (z == q) == (b == 0 and a == q)
    assert (z != q) == (b != 0 or a != q)
    if not b:
        assert hash(z) == hash(a) and z.re == a
        assert z == a and a == z
    if (a, b) == (c, d):
        assert hash(z) == hash(w)
    # the operands are unchanged
    assert (z.re, z.im, w.re, w.im) == (a, b, c, d)


def test_canonical_form_of_results_that_cancel():
    half = GaussianRational(Fraction(1, 2), Fraction(1, 2))
    for z in (half - half, half + (-half), half * ZERO, ZERO / half,
              GaussianRational(0, 0), GaussianRational.coerce(Fraction(0, 5))):
        assert (z._re, z._im, z._den) == (0, 0, 1)
    # 1/6 + 1/3 = 1/2: the sum over the shared denominator is reduced
    s = GaussianRational(Fraction(1, 6)) + GaussianRational(Fraction(1, 3))
    assert (s._re, s._im, s._den) == (1, 0, 2)
    # the parts share one denominator, each part's text is in lowest terms
    z = GaussianRational(Fraction(1, 2), Fraction(1, 3))
    assert (z._re, z._im, z._den) == (3, 2, 6)
    assert z.to_text() == "(1/2+1/3*i)"
    assert GaussianRational(Fraction(3, 4), Fraction(-1, 4)).to_text() == "(3/4-1/4*i)"


def test_values_are_immutable():
    z = GaussianRational(Fraction(2, 3), -5)
    for name in ("re", "im", "_re", "_im", "_den", "other"):
        with pytest.raises(AttributeError):
            setattr(z, name, 1)
    assert (z._re, z._im, z._den) == (2, -15, 3)


def test_values_survive_copy_and_pickle():
    for z in (GaussianRational(Fraction(2, 3), -5), ZERO, I):
        for twin in (copy.copy(z), copy.deepcopy(z), pickle.loads(pickle.dumps(z))):
            assert (twin._re, twin._im, twin._den) == (z._re, z._im, z._den)
            assert twin == z and hash(twin) == hash(z)


def test_coercion_rejects_floats_and_accepts_every_rational():
    with pytest.raises(TypeError):
        GaussianRational(0.5)
    with pytest.raises(TypeError):
        ONE + 0.5
    assert GaussianRational.coerce(True) == ONE
    assert ONE.__eq__(0.5) is NotImplemented
