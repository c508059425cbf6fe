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

from .rational import ZERO, GaussianRational, _make, _reduced


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

    def conjugate(self) -> "Monomial":
        # both blocks are already canonical: swap them without the checks
        m = object.__new__(Monomial)
        _set_orders(m, self.c_orders, self.u_orders)
        return m

    def sort_key(self):
        return self._key

    def __str__(self):
        return _monomial_text(_block_text(self.u_orders, "[u]"),
                              _block_text(self.c_orders, "[conj(u)]"))


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

    A density is a pure symbolic value: it never changes after
    construction and carries nothing but its terms.  Numerical evaluation
    compiles densities into a :class:`nlsenergy.spectral.DensityPlan`,
    which the caller holds.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Monomial, GaussianRational] | None = None):
        self._terms = dict(terms) if terms else {}

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
        return self._terms.get(m, ZERO)

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
        # times +-i swaps the numerators, which keeps the form canonical
        times_i = _make(-c._im, c._re, c._den)
        times_minus_i = _make(c._im, -c._re, c._den)
        for idx in range(len(m.u_orders)):
            _add_term(acc, _monomial(_bump(m.u_orders, idx, 2), m.c_orders), times_i)
        for idx in range(len(m.c_orders)):
            _add_term(acc, _monomial(m.u_orders, _bump(m.c_orders, idx, 2)), times_minus_i)
    return Density(acc)


@functools.lru_cache(maxsize=None)
def _power_derivative(p: int, order: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]:
    """d^order of u^{p+1} conj(u)^p as integer-weighted derivative multisets.

    Order a is one derivative of the cached order a-1.  Bumping any one of
    several equal orders gives the same term, so the first of them is
    bumped once, weighted by their multiplicity; in a tuple sorted
    descending the first of equal orders stays sorted after the bump.
    """
    if order == 0:
        return (((0,) * (p + 1), (0,) * p, 1),)
    terms: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    for uo, co, w in _power_derivative(p, order - 1):
        for idx, a in enumerate(uo):
            if idx and uo[idx - 1] == a:
                continue
            key = (_bump(uo, idx, 1), co)
            terms[key] = terms.get(key, 0) + w * uo.count(a)
        for idx, a in enumerate(co):
            if idx and co[idx - 1] == a:
                continue
            key = (uo, _bump(co, idx, 1))
            terms[key] = terms.get(key, 0) + w * co.count(a)
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
    # coefficient, both parts are integer sums of w times a numerator
    denom = math.lcm(*(c._den for c in e._terms.values()))
    re_acc: dict[Monomial, int] = {}
    im_acc: dict[Monomial, int] = {}
    for m, c in e._terms.items():
        scale = denom // c._den
        x = c._re * scale
        y = c._im * scale
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
            acc[key] = _reduced(n_re, n_im, denom)
    return Density(acc)


def dt_evolution(e: Density, p: int) -> Density:
    """Full formal time derivative along the defocusing evolution."""
    return dt_linear(e) + dt_nonlinear(e, p)


# -- text serialization -----------------------------------------------------

_FACTOR_RE = re.compile(r"^d\^(\d+)\[(u|conj\(u\))\]$")


def _block_text(orders: tuple[int, ...], field: str) -> str:
    """'d^a<field> d^b<field> ...' for one order block, '' if it is empty."""
    if not orders:
        return ""
    return "d^" + f"{field} d^".join(map(str, orders)) + field


def _monomial_text(u_text: str, c_text: str) -> str:
    # the monomial without factors is the constant 1
    return f"{u_text} {c_text}" if u_text and c_text else u_text or c_text or "1"


def density_to_text(e: Density) -> str:
    """Stable text form: terms joined by ' + ', each 'coeff * factors', and
    'coeff * 1' for the monomial without factors."""
    if e.is_zero:
        return "0"
    # the terms of a density share few order blocks, so each block is
    # rendered once per call; the caches die with the call
    u_blocks: dict[tuple[int, ...], str] = {}
    c_blocks: dict[tuple[int, ...], str] = {}
    parts = []
    for m, c in e.terms():
        u_text = u_blocks.get(m.u_orders)
        if u_text is None:
            u_text = u_blocks[m.u_orders] = _block_text(m.u_orders, "[u]")
        c_text = c_blocks.get(m.c_orders)
        if c_text is None:
            c_text = c_blocks[m.c_orders] = _block_text(m.c_orders, "[conj(u)]")
        parts.append(f"{c.to_text()} * {_monomial_text(u_text, c_text)}")
    return " + ".join(parts)


def density_from_text(text: str) -> Density:
    """The density that density_to_text wrote as `text`; ValueError if the
    text is malformed.  It is the one reader of that format, in which an
    energy document states its densities, and is kept for readers of
    documents although import_energy recomputes them and reads none."""
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
        tokens = tail.split()
        if tokens == ["1"]:     # the monomial without factors
            tokens = []
        elif not tokens:
            raise ValueError(f"malformed density term: {term!r}")
        for tok in tokens:
            match = _FACTOR_RE.match(tok)
            if not match:
                raise ValueError(f"malformed factor token: {tok!r}")
            (c_orders if match.group(2).startswith("conj") else u_orders).append(
                int(match.group(1)))
        # the pattern admits only digit strings, so every order is an int >= 0
        _add_term(acc, _monomial(u_orders, c_orders), coeff)
    return Density(acc)
