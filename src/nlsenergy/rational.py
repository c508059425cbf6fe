"""Exact complex scalars with rational real and imaginary parts.

All symbolic computations in this package are linear algebra over the
Gaussian rationals, so that every reduction and every solved coefficient
is exact.  Floats only appear at the numerical evaluation boundary.

A :class:`GaussianRational` (re + im*i) / den is held as three Python ints:
the real numerator, the imaginary numerator and one common denominator.
The form is canonical: den > 0, gcd(re, im, den) == 1, and zero is
(0, 0, 1).  Equal values therefore have equal triples, so equality is a
comparison of ints, and every operation works on the ints and normalises
its result with one three-argument gcd.  `.re` and `.im` are views that
build a `Fraction`; the arithmetic never does.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from numbers import Rational


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, Rational):
        return Fraction(value)
    raise TypeError(f"expected a rational value, got {value!r}")


def _part_text(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0, without building the Fraction."""
    g = gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    return str(n) if d == 1 else f"{n}/{d}"


class GaussianRational:
    """Immutable (re + im*i) / den over ints, in canonical form."""

    __slots__ = ("_re", "_im", "_den")

    def __init__(self, re=0, im=0):
        a, b = _as_fraction(re), _as_fraction(im)
        # over the lcm of two reduced denominators the triple is canonical
        den = lcm(a.denominator, b.denominator)
        _set_re(self, a.numerator * (den // a.denominator))
        _set_im(self, b.numerator * (den // b.denominator))
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self):
        # copy and pickle rebuild the triple; __setattr__ refuses slot restores
        return _make, (self._re, self._im, self._den)

    @classmethod
    def coerce(cls, value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        q = _as_fraction(value)
        return _make(q.numerator, 0, q.denominator)

    @property
    def re(self) -> Fraction:
        return Fraction(self._re, self._den)

    @property
    def im(self) -> Fraction:
        return Fraction(self._im, self._den)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not GaussianRational:
            other = GaussianRational.coerce(other)
        d, e = self._den, other._den
        if d == e:
            return _reduced(self._re + other._re, self._im + other._im, d)
        return _reduced(self._re * e + other._re * d, self._im * e + other._im * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not GaussianRational:
            other = GaussianRational.coerce(other)
        d, e = self._den, other._den
        if d == e:
            return _reduced(self._re - other._re, self._im - other._im, d)
        return _reduced(self._re * e - other._re * d, self._im * e - other._im * d, d * e)

    def __rsub__(self, other):
        return GaussianRational.coerce(other) - self

    def __neg__(self):
        return _make(-self._re, -self._im, self._den)

    def __mul__(self, other):
        if other.__class__ is not GaussianRational:
            other = GaussianRational.coerce(other)
        a, b, c, d = self._re, self._im, other._re, other._im
        return _reduced(a * c - b * d, a * d + b * c, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussianRational.coerce(other)
        a, b, c, d = self._re, self._im, other._re, other._im
        norm = c * c + d * d
        if not norm:
            raise ZeroDivisionError("division by zero GaussianRational")
        # (a + bi)/m / ((c + di)/n) = n (a + bi)(c - di) / (m (c^2 + d^2))
        n = other._den
        return _reduced((a * c + b * d) * n, (b * c - a * d) * n, self._den * norm)

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) / self

    def conjugate(self) -> "GaussianRational":
        return _make(self._re, -self._im, self._den)

    # -- predicates ---------------------------------------------------------

    def __bool__(self):
        return bool(self._re or self._im)

    def __eq__(self, other):
        if other.__class__ is not GaussianRational:
            if not isinstance(other, (GaussianRational, Rational)):
                return NotImplemented
            other = GaussianRational.coerce(other)
        return self._re == other._re and self._im == other._im and self._den == other._den

    def __hash__(self):
        # a real value equals its Fraction, so it hashes like one
        if not self._im:
            return hash(Fraction(self._re, self._den))
        return hash((self._re, self._im, self._den))

    # -- conversions --------------------------------------------------------

    def __complex__(self):
        # int / int rounds correctly, as float(Fraction) does
        return complex(self._re / self._den, self._im / self._den)

    def to_text(self) -> str:
        """Canonical text form: 'a/b', 'c/d*i' or '(a/b+c/d*i)', each part
        as `str` of its Fraction."""
        a, b, d = self._re, self._im, self._den
        # a part alone is already in lowest terms over den
        if not b:
            return str(a) if d == 1 else f"{a}/{d}"
        if not a:
            return f"{b}*i" if d == 1 else f"{b}/{d}*i"
        sign = "+" if b > 0 else "-"
        return f"({_part_text(a, d)}{sign}{_part_text(abs(b), d)}*i)"

    @classmethod
    def from_text(cls, text: str) -> "GaussianRational":
        s = text.strip()
        if s.startswith("(") and s.endswith(")"):
            s = s[1:-1].strip()
        if not s:
            raise ValueError("empty coefficient text")
        if s.endswith("*i"):
            body = s[:-2]
            # split real and imaginary parts at the last sign not at position 0
            # and not immediately after '/': fractions never contain signs inside
            split_at = max(body.rfind("+", 1), body.rfind("-", 1))
            if split_at <= 0:
                return cls(0, Fraction(body))
            return cls(Fraction(body[:split_at]), Fraction(body[split_at:]))
        return cls(Fraction(s))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return self.to_text()


_set_re = GaussianRational._re.__set__
_set_im = GaussianRational._im.__set__
_set_den = GaussianRational._den.__set__
_new = object.__new__


def _make(re: int, im: int, den: int) -> GaussianRational:
    """Internal constructor for a triple already in canonical form: skips
    the coercion of `GaussianRational(re, im)` and the gcd."""
    z = _new(GaussianRational)
    _set_re(z, re)
    _set_im(z, im)
    _set_den(z, den)
    return z


def _reduced(re: int, im: int, den: int) -> GaussianRational:
    """Internal constructor for any triple with den > 0: divides out
    gcd(re, im, den), which also maps every zero to (0, 0, 1)."""
    g = gcd(re, im, den)
    if g != 1:
        re //= g
        im //= g
        den //= g
    z = _new(GaussianRational)
    _set_re(z, re)
    _set_im(z, im)
    _set_den(z, den)
    return z


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)
