"""Signature sectors, integration-by-parts relations, and exact reduction.

Monomials split into *sectors* labelled by (#unconjugated factors,
#conjugated factors, total derivative order); every operation here works
inside one sector.  The integration-by-parts (IBP) span of a sector is
generated by total derivatives: for each *base*, a product of signature
(n_u, n_c, total-1), the relation  integral d[base] = 0  expands by the
Leibniz rule to a linear combination of sector monomials.

Equivalence of densities modulo IBP plus a class of *allowed* monomials,
those with more than a cap of derivative-bearing factors (in the
dispersive sector exactly the quartic remainder class, see
:func:`classify`), is decided by exact linear algebra: the generators are
put in echelon form over the other coordinates with a fixed monomial
order, and membership is read off the unique remainder.  Each echelon row
carries its allowed coordinates along, so the same elimination that
yields the remainder also yields the allowed part of the expression.
That elimination, `_eliminate`, is the package's only one: the energy
solver runs it on the cancellation system, whose rows carry their
combination of columns instead.

The echelon is known in closed form, by a lemma.  In canonical order the
leading term of d[base] bumps the largest unconjugated order of the base.
That bump is allowed only when the unconjugated block is all zeros and
the base already has `cap` derivative-bearing factors; then the leading
non-allowed term bumps the largest conjugated order instead.  Lowering
the top of the bumped block of the leading term by one gives the base
back, so distinct bases lead at distinct monomials: the generators are
already an echelon, and each row is its generator divided by its
coefficient at the pivot.  A base with more than `cap` derivative-bearing
factors differentiates into allowed terms only and adds no row, and no
pivot comes from one: a pivot is not allowed, and lowering an order by
one never raises the count of derivative-bearing factors.  So no
elimination is run to build the echelon: a reduction builds a row when
it first meets its pivot, from the at most two bases the pivot can come
from, and keeps it.  The reductions of a (12, 4) solve, its assembly and
its identity checks build 230 of the dispersive sector's 376 rows, and
at (24, 5) 936 of 1,520.  `tests/echelon_oracle.py` checks the rows and
residuals against the eager elimination.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

from .algebra import Density, Monomial, _monomial
from .rational import GaussianRational, _reduced

Signature = tuple[int, int, int]


class SignatureMismatchError(ValueError):
    """Inputs of a sector computation mix different signatures."""


class MonomialClass(enum.Enum):
    """Structural role of a sector monomial in the energy construction.

    QUARTIC_REMAINDER: produced by the dispersive substitution, at least
    four derivative-bearing factors, so it is controlled without further
    correction.  NONLINEAR_REMAINDER: produced by the power substitution,
    every order at most k-1.  CORRECTION: the class the energy corrections
    are drawn from.  Anything else is UNCLASSIFIED.
    """

    QUARTIC_REMAINDER = "quartic_remainder"
    NONLINEAR_REMAINDER = "nonlinear_remainder"
    CORRECTION = "correction"
    UNCLASSIFIED = "unclassified"


def classify(m: Monomial, k: int, p: int) -> MonomialClass:
    sig = m.signature
    if sig == (p + 1, p + 1, 2 * k) and m.derivative_factor_count >= 4:
        return MonomialClass.QUARTIC_REMAINDER
    if sig == (2 * p + 1, 2 * p + 1, 2 * k - 2) and m.max_order <= k - 1:
        return MonomialClass.NONLINEAR_REMAINDER
    if sig == (p + 1, p + 1, 2 * k - 2) and m.max_order <= k - 1:
        return MonomialClass.CORRECTION
    return MonomialClass.UNCLASSIFIED


@dataclass
class ReductionResult:
    """expr - allowed_part - residual lies in the reducer's span, exactly."""

    residual: Density
    allowed_part: Density


def _subtract(acc: dict, factor: GaussianRational, row: dict):
    """acc -= factor * row, dropping the coordinates that cancel.

    Works on the integer triples of the coefficients: each coordinate costs
    one normalising gcd, and no intermediate product is built.
    """
    fa, fb, fd = factor._re, factor._im, factor._den
    for m, c in row.items():
        ca, cb, cd = c._re, c._im, c._den
        # factor * c = (pa + pb i) / pd
        pa, pb, pd = fa * ca - fb * cb, fa * cb + fb * ca, fd * cd
        cur = acc.get(m)
        if cur is None:
            # a product of two nonzero values is nonzero
            acc[m] = _reduced(-pa, -pb, pd)
            continue
        d = cur._den
        if d == pd:
            a, b = cur._re - pa, cur._im - pb
        else:
            a, b, d = cur._re * pd - pa * d, cur._im * pd - pb * d, d * pd
        if a or b:
            acc[m] = _reduced(a, b, d)
        else:
            del acc[m]


class SectorReducer:
    """Echelon form of the IBP span of one sector, reusable across many
    reductions.

    Monomials with more than `max_derivative_factors` derivative-bearing
    factors are allowed: coordinates that membership testing may use
    freely.  The cached dispersive reducer caps at 3, which allows the
    quartic remainder class; uncapped, nothing is allowed and the
    residual decides membership in the span alone.  Allowed coordinates
    take no part in pivoting: each echelon row keeps them beside its
    normalized row over the eliminated coordinates, and a reduction
    subtracts both as it eliminates, so the `allowed_part` of each result
    is what the elimination leaves on the allowed coordinates.  Each row
    is built the first time a reduction meets its pivot (see the module
    docstring) and kept; constructing a reducer builds none.  Pivoting is
    deterministic: the largest monomial in canonical order is eliminated
    first.
    """

    def __init__(self, signature: Signature, max_derivative_factors: int | None = None):
        cap = max_derivative_factors
        if cap is not None and (type(cap) is not int or cap < 0):
            raise ValueError(
                f"max_derivative_factors must be None or an int >= 0, got {cap!r}")
        self.signature = tuple(signature)
        self.max_derivative_factors = cap
        # leading monomial -> (normalized row, its allowed coordinates), or
        # None when no base leads there
        self._rows: dict[Monomial, tuple[dict, dict] | None] = {}

    @property
    def rank(self) -> int:
        """The number of rows, built or not: one per base with at most
        `max_derivative_factors` derivative-bearing factors, counted by
        the blocks' partitions, and none under a cap of 0."""
        n_u, n_c, total = self.signature
        cap = self.max_derivative_factors
        if total == 0 or cap == 0 or n_u + n_c == 0:
            return 0
        if cap is None:
            cap = n_u + n_c
        t = total - 1
        return sum(_partitions(s, a) * _partitions(t - s, b)
                   for s in range(t + 1) for a in range(min(n_u, cap) + 1)
                   for b in range(min(n_c, cap - a) + 1))

    def _split(self, terms: dict) -> tuple[dict, dict]:
        """`terms` on the eliminated and on the allowed coordinates."""
        cap = self.max_derivative_factors
        if cap is None:
            return dict(terms), {}
        row: dict = {}
        alw: dict = {}
        for m, c in terms.items():
            (alw if m.derivative_factor_count > cap else row)[m] = c
        return row, alw

    def _row(self, lead: Monomial) -> tuple[dict, dict] | None:
        """The row pivoting at `lead`, or None if no base leads there.

        Only a base that is `lead` with the top of one block lowered by
        one can lead there.  No such base exceeds the cap: `lead`, a
        pivot, is not allowed, so it has at most the cap of
        derivative-bearing factors, and lowering an order by one never
        raises that count."""
        u, c = lead.u_orders, lead.c_orders
        bases = []
        if u and u[0]:
            bases.append(_monomial((u[0] - 1,) + u[1:], c))
        if c and c[0]:
            bases.append(_monomial(u, (c[0] - 1,) + c[1:]))
        for base in bases:
            row, alw = self._split(_generator(base))
            if row and max(row, key=Monomial.sort_key) == lead:
                den = row[lead]
                return ({m: _reduced(n, 0, den) for m, n in row.items()},
                        {m: _reduced(n, 0, den) for m, n in alw.items()})
        return None

    def reduce(self, expr: Density) -> ReductionResult:
        bad = expr.signatures() - {self.signature}
        if bad:
            raise SignatureMismatchError(
                f"expression signatures {sorted(bad)} outside sector {self.signature}")
        row, alw = self._split(expr._terms)
        residual = {pivot: row.pop(pivot)
                    for pivot in _eliminate(self._rows, self._row, row, alw)}
        return ReductionResult(Density(residual), Density(alw))


def _eliminate(rows: dict, build, row: dict, carry: dict):
    """Subtract echelon rows from `row`, and what each row carries from
    `carry`, largest pivot first; yield each leading monomial of `row`
    that is no pivot.  The caller pops it from `row` to go on.

    `rows` maps a pivot to its normalized row and the row's carry, or to
    None where no row leads; a pivot not yet in `rows` gets `build(pivot)`
    there.  A reducer's rows carry their allowed coordinates, and the
    solver's carry their combination of columns.  A row that does not
    clear its pivot, one not normalized, raises instead of looping.
    """
    while row:
        pivot = max(row, key=Monomial.sort_key)
        if pivot in rows:
            hit = rows[pivot]
        else:
            hit = rows[pivot] = build(pivot)
        if hit is None:
            yield pivot
            continue
        erow, ecarry = hit
        factor = row[pivot]
        _subtract(row, factor, erow)
        if pivot in row:
            raise ArithmeticError(f"the echelon row at {pivot} is not normalized")
        _subtract(carry, factor, ecarry)


def _generator(base: Monomial) -> dict[Monomial, int]:
    """The Leibniz expansion of d[base]: bumping any of several equal
    factors gives the same term, so each term's coefficient is the number
    of factors of the order it bumps."""
    u, c = base.u_orders, base.c_orders
    terms: dict[Monomial, int] = {}
    for i, o in enumerate(u):
        if i == 0 or u[i - 1] != o:
            terms[_monomial(u[:i] + (o + 1,) + u[i + 1:], c)] = u.count(o)
    for i, o in enumerate(c):
        if i == 0 or c[i - 1] != o:
            terms[_monomial(u, c[:i] + (o + 1,) + c[i + 1:])] = c.count(o)
    return terms


@functools.lru_cache(maxsize=None)
def _partitions(total: int, parts: int) -> int:
    """The partitions of `total` into exactly `parts` positive parts."""
    if parts == 0:
        return int(total == 0)
    if total < parts:
        return 0
    # the smallest part is 1, or every part is at least 2
    return _partitions(total - 1, parts - 1) + _partitions(total - parts, parts)


def reduce_by_sector(expr: Density) -> dict[Signature, Density]:
    """The residual of each sector of `expr` modulo its full IBP span,
    keyed by signature in sorted order: all are zero exactly when `expr`
    integrates to zero.

    Integration by parts keeps a sector, so `expr` is split by signature
    in one pass and each part is reduced on its own, by a reducer made
    for this call.
    """
    parts: dict[Signature, dict[Monomial, GaussianRational]] = {}
    for m, c in expr._terms.items():
        parts.setdefault(m.signature, {})[m] = c
    return {sig: SectorReducer(sig).reduce(Density(parts[sig])).residual
            for sig in sorted(parts)}
