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

Both run one substitution frame, each with its own image of a factor,
and build no monomial per term of the expansion.  Within one call
every order block they produce is sorted once and interned as a small
int, the integer numerators of the real and imaginary parts accumulate on
pairs of block ids over the common denominator of the input's
coefficients, and each distinct output monomial is built once, at the
end, from its two canonical blocks.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

from .rational import ZERO, GaussianRational, _reduced


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
    def max_order(self) -> int:
        return max(self.u_orders + self.c_orders, default=0)

    @property
    def derivative_factor_count(self) -> int:
        """Number of factors carrying at least one derivative."""
        return (len(self.u_orders) + len(self.c_orders)
                - self.u_orders.count(0) - self.c_orders.count(0))

    def conjugate(self) -> "Monomial":
        # both blocks are already canonical: swap them without the checks
        m = _new(Monomial)
        _set_orders(m, self.c_orders, self.u_orders)
        return m

    def sort_key(self):
        return self._key

    def __str__(self):
        return _monomial_text(_block_text(self.u_orders, "[u]"),
                              _block_text(self.c_orders, "[conj(u)]"))


def _set_orders(m: Monomial, u: tuple[int, ...], c: tuple[int, ...]):
    """Store canonical orders together with the hash and sort key they fix."""
    _set_u(m, u)
    _set_c(m, c)
    _set_hash(m, hash((u, c)))
    _set_key(m, (len(u), len(c), sum(u) + sum(c), u, c))


# the slots' own setters skip the frozen dataclass's __setattr__
_set_u = Monomial.u_orders.__set__
_set_c = Monomial.c_orders.__set__
_set_hash = Monomial._hash.__set__
_set_key = Monomial._key.__set__
_new = object.__new__


def _monomial(u_orders: tuple[int, ...], c_orders: tuple[int, ...]) -> Monomial:
    """Internal constructor for orders derived from valid ones (a shift,
    a bump, a concatenation): sorts them into canonical form but skips the
    validation `Monomial` runs on every construction."""
    m = _new(Monomial)
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
        """(self + conj(self)) / 2."""
        return self._with_conjugate(False)

    def im_part(self) -> "Density":
        """(self - conj(self)) / (2i)."""
        return self._with_conjugate(True)

    def _with_conjugate(self, imaginary: bool) -> "Density":
        """re_part or im_part in one pass.  With w = c for the real part
        and w = -i c for the imaginary part, the result holds (w + conj(w'))/2
        at m, w' the weight at conj(m), and its conjugate at conj(m).  Each
        pair of conjugate monomials is settled once, from both weights, on
        integer numerators over twice the common denominator; a conjugate
        is looked up among the terms before one is built."""
        terms = self._terms
        denom = math.lcm(*(c._den for c in terms.values()))
        by_blocks = {(m.u_orders, m.c_orders): m for m in terms}

        def weight(c: GaussianRational) -> tuple[int, int]:
            scale = denom // c._den
            x, y = c._re * scale, c._im * scale
            return (y, -x) if imaginary else (x, y)

        out: dict[Monomial, GaussianRational] = {}
        for m, c in terms.items():
            mc = by_blocks.get((m.c_orders, m.u_orders))
            if mc is not None and mc in out:
                continue    # settled with its partner
            x, y = weight(c)
            if mc is m:     # its own conjugate: the real part of w
                if x:
                    out[m] = _reduced(x, 0, denom)
                continue
            if mc is None:
                mc = m.conjugate()
            else:
                x2, y2 = weight(terms[mc])
                x, y = x + x2, y - y2
            if x or y:
                out[m] = _reduced(x, y, 2 * denom)
                out[mc] = _reduced(x, -y, 2 * denom)
        return Density(out)

    @property
    def is_real_valued(self) -> bool:
        """True if the functional takes real values for every field: conj-fixed,
        each coefficient the conjugate of its conjugate monomial's."""
        by_blocks = {(m.u_orders, m.c_orders): c for m, c in self._terms.items()}
        for m, c in self._terms.items():
            d = by_blocks.get((m.c_orders, m.u_orders))
            if d is None or (d._re, d._im, d._den) != (c._re, -c._im, c._den):
                return False
        return True

    def signatures(self) -> set[tuple[int, int, int]]:
        return {m.signature for m in self._terms}

    def __str__(self):
        return density_to_text(self)

    def __repr__(self):
        return f"Density({density_to_text(self)!r})"


# -- substitution on interned order blocks ------------------------------------

# an accumulated term is keyed by its two interned block ids, the
# unconjugated one shifted above the conjugated one
_ID_BITS = 32
_ID_MASK = (1 << _ID_BITS) - 1


def _intern(ids: dict[tuple[int, ...], int], block: tuple[int, ...]) -> int:
    """The id of a canonical order block, numbered in order of first use."""
    i = ids.get(block)
    if i is None:
        i = ids[block] = len(ids)
    return i


def _merged(ids: dict[tuple[int, ...], int], base: tuple[int, ...],
            blocks: tuple[tuple[tuple[int, ...], int], ...], shift: int) -> list[tuple[int, int]]:
    """(id << shift of the canonical union of `base` and each block, its weight)."""
    return [(_intern(ids, tuple(sorted(base + block, reverse=True))) << shift, w)
            for block, w in blocks]


def _collect(ids: dict[tuple[int, ...], int], re_acc: dict[int, int],
             im_acc: dict[int, int], denom: int) -> Density:
    """The density of numerators accumulated over `denom` on block-id keys:
    each distinct monomial is built once, from blocks already canonical."""
    blocks = list(ids)
    acc: dict[Monomial, GaussianRational] = {}
    # a density with only real or only imaginary coefficients fills one part
    keys = re_acc.keys() | im_acc.keys() if re_acc and im_acc else (re_acc or im_acc).keys()
    for key in keys:
        n_re, n_im = re_acc.get(key, 0), im_acc.get(key, 0)
        if n_re or n_im:
            m = _new(Monomial)
            _set_orders(m, blocks[key >> _ID_BITS], blocks[key & _ID_MASK])
            acc[m] = _reduced(n_re, n_im, denom)
    return Density(acc)


def bounded_partitions(total: int, count: int, cap: int, max_nonzero: int | None = None):
    """Descending tuples of `count` ints in [0, cap] summing to `total`,
    with at most `max_nonzero` nonzero entries if it is given.

    Yielded in lexicographically decreasing order.  A branch that cannot
    reach `total` within the remaining nonzero entries is never entered, so
    every prefix the walk visits extends to a tuple it yields.
    """
    if max_nonzero is None or max_nonzero > count:
        max_nonzero = count
    if max_nonzero < 0:
        return
    if total == 0:
        yield (0,) * count
        return
    for first in range(min(cap, total), 0, -1):
        # the nonzero entries are a prefix, none larger than `first`
        if first * max_nonzero < total:
            break
        for rest in bounded_partitions(total - first, count - 1, first, max_nonzero - 1):
            yield (first,) + rest


# one entry per (m, n): verify on k 2..20 x p 2..5 fills 105 of them, 0.7 MB.
# No entry is built from another, so the bound never forces a rebuild chain
@functools.lru_cache(maxsize=256)
def _power_blocks(m: int, n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """d^n of u^m as (orders, weight) pairs, one per multiset of m orders
    summing to n (sorted descending, zeros included).

    The weight counts the Leibniz terms giving that multiset: the
    multinomial n! / prod(o!) times the m! / prod(mult!) ways to place the
    orders on the m equal factors.
    """
    out = []
    for orders in bounded_partitions(n, m, n):
        w = math.factorial(n) * math.factorial(m)
        for o in orders:
            w //= math.factorial(o)
        for o in set(orders):
            w //= math.factorial(orders.count(o))
        out.append((orders, w))
    return tuple(out)


def _power_derivative(p: int, order: int) -> tuple[
        tuple[int, tuple[tuple[tuple[int, ...], int], ...],
              tuple[tuple[tuple[int, ...], int], ...]], ...]:
    """d^order of u^{p+1} conj(u)^p, grouped by the split of the order.

    By the Leibniz rule it is the sum over s of C(order, s) d^s[u^{p+1}]
    d^{order-s}[conj(u)^p], so each term is one `(C(order, s), u_blocks,
    c_blocks)`: every pair of a plain block and a conjugated block of one
    split is a term, weighted by C(order, s) times both block weights.
    """
    return tuple((math.comb(order, s), _power_blocks(p + 1, s), _power_blocks(p, order - s))
                 for s in range(order + 1))


# the block that leaves a side of the product unchanged
_KEEP = (((), 1),)


def _linear_image(a: int):
    """d^a[u] -> i d^{a+2}[u] = -(-i) d^{a+2}[u], as `_substituted` takes it."""
    return ((-1, (((a + 2,), 1),), _KEEP),)


def _check_exponent(p: int):
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"nonlinearity exponent p must be an int >= 2, got {p!r}")


def _power_image(p: int):
    """d^a[u] -> -i d^a[u^{p+1} conj(u)^p] as a function of a: the power
    derivative is already in the pieces `_substituted` takes."""
    _check_exponent(p)
    return functools.partial(_power_derivative, p)


def _substituted(e: Density, image) -> Density:
    """The sum over every factor of every term of `e` of the term with
    that factor replaced by its image.

    `image(a)` gives the image of a plain factor d^a[u] as pieces `(f, own,
    other)`: -f i times every product of a block of `own`, joined to the
    plain factors left, and a block of `other`, joined to the conjugated
    factors, weighted by both block weights.  A conjugated factor's image
    is the mirror and conjugate: +f i, `own` joined to the conjugated
    factors.

    Each order's image is built once per call, and equal factors are
    substituted once, weighted by their multiplicity.  Merged order blocks
    are sorted once and interned as small ints, and the integer numerators
    of both parts, over the common denominator of every coefficient,
    accumulate on pairs of block ids: each distinct output monomial is
    built once, at the end.
    """
    denom = math.lcm(*(c._den for c in e._terms.values()))
    ids: dict[tuple[int, ...], int] = {}
    re_acc: dict[int, int] = {}
    im_acc: dict[int, int] = {}
    images: dict[int, tuple] = {}
    for m, c in e._terms.items():
        scale = denom // c._den
        x = c._re * scale
        y = c._im * scale
        u, v = m.u_orders, m.c_orders
        for sign, own, other, own_shift, other_shift in ((-1, u, v, _ID_BITS, 0),
                                                         (1, v, u, 0, _ID_BITS)):
            # `other` stays whole in every substitution on this side, so its
            # merge with each block tuple is made once; `images` keeps the
            # tuples alive, so their ids name them for the whole call
            fixed: dict[int, list[tuple[int, int]]] = {}
            for idx, a in enumerate(own):
                if idx and own[idx - 1] == a:
                    continue
                pieces = images.get(a)
                if pieces is None:
                    pieces = images[a] = image(a)
                rest = own[:idx] + own[idx + 1:]
                weight = sign * own.count(a)
                for f, own_blocks, other_blocks in pieces:
                    mine = _merged(ids, rest, own_blocks, own_shift)
                    theirs = fixed.get(id(other_blocks))
                    if theirs is None:
                        theirs = fixed[id(other_blocks)] = _merged(
                            ids, other, other_blocks, other_shift)
                    # i W (x + iy) = -W y + i W x, W = weight * f * both block weights
                    if y:
                        _spread(re_acc, mine, theirs, -weight * f * y)
                    if x:
                        _spread(im_acc, mine, theirs, weight * f * x)
    return _collect(ids, re_acc, im_acc, denom)


def _spread(acc: dict[int, int], outer: list[tuple[int, int]],
            inner: list[tuple[int, int]], factor: int):
    """Add factor * w * w' at the key of every pair of a shifted plain id
    and a conjugated id, one from each list."""
    for outer_key, w in outer:
        f = factor * w
        for inner_key, w2 in inner:
            key = outer_key | inner_key
            acc[key] = acc.get(key, 0) + f * w2


def dt_linear(e: Density) -> Density:
    """Formal time derivative along dt u = i d^2[u].

    Each factor in turn gains two derivative orders; the coefficient picks up
    +i for an unconjugated factor and -i for a conjugated one.  Raises the
    total derivative order of every term by exactly two.
    """
    return _substituted(e, _linear_image)


def dt_nonlinear(e: Density, p: int) -> Density:
    """Formal time derivative along dt u = -i u^{p+1} conj(u)^p.

    The substituted factor d^a[u] becomes -i d^a[u^{p+1} conj(u)^p], expanded
    by the Leibniz rule (conjugated factors get +i and the mirrored power).
    Preserves the total derivative order; each term gains p unconjugated and
    p conjugated factors.
    """
    return _substituted(e, _power_image(p))


@dataclass(frozen=True)
class PowerImage:
    """The power image dt_nonlinear(density, p), held unexpanded.

    It stands for the same functional as the expanded density, with the
    few terms of `density` in place of the many of its image: a
    :class:`nlsenergy.spectral.DensityPlan` evaluates it along the power
    field from those terms, and only oracles expand it.
    """

    density: Density
    p: int

    def __post_init__(self):
        _check_exponent(self.p)

    @property
    def is_real_valued(self) -> bool:
        """True if `density` is conjugation-fixed, and with it the image: the
        power substitution commutes with conjugation."""
        return self.density.is_real_valued


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
    energy document states its densities.  import_energy reads only F_k
    with it; a reader of a document expands the power image that the
    document names by reference as dt_nonlinear(density_from_text(
    doc["F_k"]), doc["p"])."""
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
