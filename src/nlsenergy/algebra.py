"""Symbolic algebra of integrated densities of one complex periodic field.

A density monomial stands for the integral over the circle of a product of
spatial derivatives of a field u and of its conjugate,

    integral  d^{i1}[u] ... d^{iq}[u] * d^{j1}[conj(u)] ... d^{jr}[conj(u)] dx.

Because multiplication is commutative, only the two multisets of derivative
orders matter.  A monomial is stored in canonical form: both order tuples
sorted descending, the unconjugated block before the conjugated block.
A :class:`Density` is a finite linear combination of monomials with
:class:`~nlsenergy.rational.GaussianRational` coefficients; zero
coefficients are never stored.

The two substitution operators model the time derivative of a density
along the two halves of the defocusing evolution

    dt u = i d^2[u] - i u^{p+1} conj(u)^p :

:func:`dt_linear` substitutes only the dispersive half (dt u -> i d^2[u]),
:func:`dt_nonlinear` only the power half, expanded with the Leibniz rule.
Their sum is the full formal time derivative of the density.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple

from .rational import _ZERO, GaussianRational, _gr


class Factor(NamedTuple):
    order: int
    conjugated: bool


def _canonical(orders) -> tuple[int, ...]:
    out = tuple(sorted(orders, reverse=True))
    for o in out:
        if not isinstance(o, int) or o < 0:
            raise ValueError(f"derivative orders must be ints >= 0, got {orders!r}")
    return out


@dataclass(frozen=True)
class Monomial:
    """Canonical multiset of derivative orders, split by conjugation.

    Monomials are dictionary keys and sort keys in every density operation,
    so the hash and `sort_key()` are computed once, at construction.
    """

    __slots__ = ("u_orders", "c_orders", "_hash", "_key")

    u_orders: tuple[int, ...]
    c_orders: tuple[int, ...]

    def __post_init__(self):
        _set_orders(self, _canonical(self.u_orders), _canonical(self.c_orders))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return _monomial, (self.u_orders, self.c_orders)

    @property
    def signature(self) -> tuple[int, int, int]:
        """(#unconjugated factors, #conjugated factors, total derivative order)."""
        return self._key[:3]

    @property
    def total_order(self) -> int:
        return self._key[2]

    @property
    def max_order(self) -> int:
        return max(self.u_orders + self.c_orders, default=0)

    @property
    def derivative_factor_count(self) -> int:
        """Number of factors carrying at least one derivative."""
        return (len(self.u_orders) + len(self.c_orders)
                - self.u_orders.count(0) - self.c_orders.count(0))

    def factors(self) -> Iterator[Factor]:
        for o in self.u_orders:
            yield Factor(o, False)
        for o in self.c_orders:
            yield Factor(o, True)

    def conjugate(self) -> "Monomial":
        return Monomial(self.c_orders, self.u_orders)

    def sort_key(self):
        return self._key

    def __str__(self):
        us = " ".join(f"d^{o}[u]" for o in self.u_orders)
        cs = " ".join(f"d^{o}[conj(u)]" for o in self.c_orders)
        return " ".join(part for part in (us, cs) if part)


def _set_orders(m: Monomial, u: tuple[int, ...], c: tuple[int, ...]):
    """Store canonical orders together with the hash and sort key they fix."""
    object.__setattr__(m, "u_orders", u)
    object.__setattr__(m, "c_orders", c)
    object.__setattr__(m, "_hash", hash((u, c)))
    object.__setattr__(m, "_key", (len(u), len(c), sum(u) + sum(c), u, c))


def _monomial(u_orders: tuple[int, ...], c_orders: tuple[int, ...]) -> Monomial:
    """Internal constructor for orders derived from valid ones (a shift,
    a bump, a concatenation): sorts them into canonical form but skips the
    validation `Monomial` runs on every construction."""
    m = object.__new__(Monomial)
    _set_orders(m, tuple(sorted(u_orders, reverse=True)),
                tuple(sorted(c_orders, reverse=True)))
    return m


def _add_term(acc: dict, m: Monomial, c: GaussianRational):
    cur = acc.get(m)
    if cur is None:
        if c:
            acc[m] = c
    else:
        s = cur + c
        if s:
            acc[m] = s
        else:
            del acc[m]


class Density:
    """Linear combination of density monomials over the Gaussian rationals.

    A density never changes after construction, so derived data can be kept
    on it: `_plan` holds its numerical evaluation plan once
    :func:`nlsenergy.spectral.compile_density` has built it.
    """

    __slots__ = ("_terms", "_plan")

    def __init__(self, terms: dict[Monomial, GaussianRational] | None = None):
        self._terms = dict(terms) if terms else {}
        self._plan = None

    @classmethod
    def zero(cls) -> "Density":
        return cls()

    @classmethod
    def monomial(cls, u_orders, c_orders, coeff=1) -> "Density":
        c = GaussianRational.coerce(coeff)
        if not c:
            return cls()
        return cls({Monomial(tuple(u_orders), tuple(c_orders)): c})

    @classmethod
    def from_terms(cls, pairs) -> "Density":
        acc: dict[Monomial, GaussianRational] = {}
        for m, c in pairs:
            _add_term(acc, m, GaussianRational.coerce(c))
        return cls(acc)

    def terms(self) -> list[tuple[Monomial, GaussianRational]]:
        """Terms sorted by descending canonical monomial order."""
        return sorted(self._terms.items(), key=lambda t: t[0].sort_key(), reverse=True)

    def coefficient(self, m: Monomial) -> GaussianRational:
        return self._terms.get(m, GaussianRational(0))

    def monomials(self):
        return self._terms.keys()

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self):
        return len(self._terms)

    def __add__(self, other: "Density") -> "Density":
        acc = dict(self._terms)
        for m, c in other._terms.items():
            _add_term(acc, m, c)
        return Density(acc)

    def __sub__(self, other: "Density") -> "Density":
        acc = dict(self._terms)
        for m, c in other._terms.items():
            _add_term(acc, m, -c)
        return Density(acc)

    def __neg__(self) -> "Density":
        return Density({m: -c for m, c in self._terms.items()})

    def __mul__(self, scalar) -> "Density":
        s = GaussianRational.coerce(scalar)
        if not s:
            return Density()
        return Density({m: c * s for m, c in self._terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Density):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def conjugate(self) -> "Density":
        return Density({m.conjugate(): c.conjugate() for m, c in self._terms.items()})

    def re_part(self) -> "Density":
        return (self + self.conjugate()) * _HALF

    def im_part(self) -> "Density":
        # (self - conj(self)) / (2i)
        return (self - self.conjugate()) * _MINUS_HALF_I

    @property
    def is_real_valued(self) -> bool:
        """True if the functional takes real values for every field: conj-fixed."""
        return self.conjugate() == self

    def signatures(self) -> set[tuple[int, int, int]]:
        return {m.signature for m in self._terms}

    def __str__(self):
        return density_to_text(self)

    def __repr__(self):
        return f"Density({density_to_text(self)!r})"


_HALF = GaussianRational(1) / 2
_MINUS_HALF_I = GaussianRational(0, -1) / 2


def _bump(orders: tuple[int, ...], idx: int, amount: int) -> tuple[int, ...]:
    lst = list(orders)
    lst[idx] += amount
    return tuple(lst)


def dt_linear(e: Density) -> Density:
    """Formal time derivative along dt u = i d^2[u].

    Each factor in turn gains two derivative orders; the coefficient picks up
    +i for an unconjugated factor and -i for a conjugated one.  Raises the
    total derivative order of every term by exactly two.
    """
    acc: dict[Monomial, GaussianRational] = {}
    for m, c in e._terms.items():
        times_i = _gr(-c.im, c.re)
        times_minus_i = _gr(c.im, -c.re)
        for idx in range(len(m.u_orders)):
            _add_term(acc, _monomial(_bump(m.u_orders, idx, 2), m.c_orders), times_i)
        for idx in range(len(m.c_orders)):
            _add_term(acc, _monomial(m.u_orders, _bump(m.c_orders, idx, 2)), times_minus_i)
    return Density(acc)


@functools.lru_cache(maxsize=None)
def _power_derivative(p: int, order: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]:
    """d^order of u^{p+1} conj(u)^p as integer-weighted derivative multisets."""
    terms: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {
        ((0,) * (p + 1), (0,) * p): 1,
    }
    for _ in range(order):
        nxt: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
        for (uo, co), w in terms.items():
            for idx in range(len(uo)):
                key = (tuple(sorted(_bump(uo, idx, 1), reverse=True)), co)
                nxt[key] = nxt.get(key, 0) + w
            for idx in range(len(co)):
                key = (uo, tuple(sorted(_bump(co, idx, 1), reverse=True)))
                nxt[key] = nxt.get(key, 0) + w
        terms = nxt
    return tuple((uo, co, w) for (uo, co), w in terms.items())


def _nonlinear_weights(m: Monomial, p: int) -> dict[Monomial, int]:
    """Integer weights w_j with dt_nonlinear(m) = i * sum_j w_j * m_j.

    Substituting any one of several equal factors gives the same term, so
    each distinct order is substituted once, weighted by its multiplicity.
    """
    out: dict[Monomial, int] = {}
    u, c = m.u_orders, m.c_orders
    for idx, a in enumerate(u):
        if idx and u[idx - 1] == a:
            continue
        weight = u.count(a)
        rest = u[:idx] + u[idx + 1:]
        for uo, co, w in _power_derivative(p, a):
            key = _monomial(rest + uo, c + co)
            out[key] = out.get(key, 0) - weight * w
    for idx, a in enumerate(c):
        if idx and c[idx - 1] == a:
            continue
        weight = c.count(a)
        rest = c[:idx] + c[idx + 1:]
        for uo, co, w in _power_derivative(p, a):
            # conjugated substitution: +i d^a[conj(u)^{p+1} u^p]
            key = _monomial(u + co, rest + uo)
            out[key] = out.get(key, 0) + weight * w
    return out


def dt_nonlinear(e: Density, p: int) -> Density:
    """Formal time derivative along dt u = -i u^{p+1} conj(u)^p.

    The substituted factor d^a[u] becomes -i d^a[u^{p+1} conj(u)^p], expanded
    by the Leibniz rule (conjugated factors get +i and the mirrored power).
    Preserves the total derivative order; each term gains p unconjugated and
    p conjugated factors.
    """
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"nonlinearity exponent p must be an int >= 2, got {p!r}")
    # i w (x + iy) = -w y + i w x: over the common denominator of every
    # coefficient part, both parts are integer sums of w times a numerator
    denom = math.lcm(*(q.denominator for c in e._terms.values() for q in (c.re, c.im)))
    re_acc: dict[Monomial, int] = {}
    im_acc: dict[Monomial, int] = {}
    for m, c in e._terms.items():
        x = c.re.numerator * (denom // c.re.denominator)
        y = c.im.numerator * (denom // c.im.denominator)
        for key, w in _nonlinear_weights(m, p).items():
            if not w:
                continue
            if y:
                re_acc[key] = re_acc.get(key, 0) - w * y
            if x:
                im_acc[key] = im_acc.get(key, 0) + w * x
    acc: dict[Monomial, GaussianRational] = {}
    for key in re_acc.keys() | im_acc.keys():
        n_re, n_im = re_acc.get(key, 0), im_acc.get(key, 0)
        if n_re or n_im:
            acc[key] = _gr(Fraction(n_re, denom) if n_re else _ZERO,
                           Fraction(n_im, denom) if n_im else _ZERO)
    return Density(acc)


def dt_evolution(e: Density, p: int) -> Density:
    """Full formal time derivative along the defocusing evolution."""
    return dt_linear(e) + dt_nonlinear(e, p)


# -- text serialization -----------------------------------------------------

_FACTOR_RE = re.compile(r"^d\^(\d+)\[(u|conj\(u\))\]$")


def density_to_text(e: Density) -> str:
    """Stable text form: terms joined by ' + ', each 'coeff * factors'."""
    if e.is_zero:
        return "0"
    parts = []
    for m, c in e.terms():
        parts.append(f"{c.to_text()} * {m}")
    return " + ".join(parts)


def density_from_text(text: str) -> Density:
    s = text.strip()
    if s == "0":
        return Density.zero()
    acc: dict[Monomial, GaussianRational] = {}
    for term in s.split(" + "):
        head, _, tail = term.partition(" * ")
        if not tail:
            raise ValueError(f"malformed density term: {term!r}")
        coeff = GaussianRational.from_text(head)
        u_orders, c_orders = [], []
        for tok in tail.split():
            match = _FACTOR_RE.match(tok)
            if not match:
                raise ValueError(f"malformed factor token: {tok!r}")
            (c_orders if match.group(2).startswith("conj") else u_orders).append(
                int(match.group(1)))
        # the pattern admits only digit strings, so every order is an int >= 0
        _add_term(acc, _monomial(u_orders, c_orders), coeff)
    return Density(acc)
