"""Exact complex scalars with rational real and imaginary parts.

All symbolic computations in this package are linear algebra over the
Gaussian rationals, so that every reduction and every solved coefficient
is exact.  Floats only appear at the numerical evaluation boundary.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, Rational):
        return Fraction(value)
    raise TypeError(f"expected a rational value, got {value!r}")


_ZERO = Fraction(0)


class GaussianRational:
    """Immutable a + b*i with a, b exact rationals."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @classmethod
    def coerce(cls, value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        return cls(_as_fraction(value))

    # -- arithmetic ---------------------------------------------------------
    # Parts are combined only where both are nonzero, so a real value times
    # an imaginary one costs one product, not four.

    def __add__(self, other):
        if other.__class__ is not GaussianRational:
            other = GaussianRational.coerce(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        return _gr(a + c if a and c else a or c, b + d if b and d else b or d)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not GaussianRational:
            other = GaussianRational.coerce(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        return _gr(a - c if a and c else a or -c, b - d if b and d else b or -d)

    def __rsub__(self, other):
        return GaussianRational.coerce(other) - self

    def __neg__(self):
        return _gr(-self.re, -self.im)

    def __mul__(self, other):
        if other.__class__ is not GaussianRational:
            other = GaussianRational.coerce(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        if a and b and c and d:
            return _gr(a * c - b * d, a * d + b * c)
        # with a zero part, each part of the product has at most one term
        return _gr(a * c if a and c else -(b * d) if b and d else _ZERO,
                   a * d if a and d else b * c if b and c else _ZERO)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussianRational.coerce(other)
        if not other.re and not other.im:
            raise ZeroDivisionError("division by zero GaussianRational")
        norm = other.re * other.re + other.im * other.im
        return self * _gr(other.re / norm, -other.im / norm)

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) / self

    def conjugate(self) -> "GaussianRational":
        return _gr(self.re, -self.im)

    # -- predicates ---------------------------------------------------------

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    @property
    def is_real(self) -> bool:
        return not self.im

    def __eq__(self, other):
        if other.__class__ is not GaussianRational:
            if not isinstance(other, (GaussianRational, Rational)):
                return NotImplemented
            other = GaussianRational.coerce(other)
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # a real value equals its Fraction, so it hashes like one
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    # -- conversions --------------------------------------------------------

    def as_fraction(self) -> Fraction:
        """Real part as a Fraction; raises if the value is not real."""
        if self.im:
            raise ValueError(f"{self} is not real")
        return self.re

    def __complex__(self):
        return complex(self.re, self.im)

    def to_text(self) -> str:
        """Canonical text form: 'a/b', 'c/d*i' or '(a/b+c/d*i)'."""
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}*i)"

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


def _gr(re: Fraction, im: Fraction) -> GaussianRational:
    """Internal constructor for parts that are already Fractions: skips the
    coercion and type checks of `GaussianRational(re, im)`."""
    z = object.__new__(GaussianRational)
    object.__setattr__(z, "re", re)
    object.__setattr__(z, "im", im)
    return z


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)
