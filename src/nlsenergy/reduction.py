"""Signature sectors, integration-by-parts relations, and exact reduction.

Monomials split into *sectors* labelled by (#unconjugated factors,
#conjugated factors, total derivative order); every operation here works
inside one sector.  The integration-by-parts (IBP) span of a sector is
generated by total derivatives: for each product F one order lower, the
relation  integral d[F] = 0  expands by the Leibniz rule to a linear
combination of sector monomials.

Equivalence of densities modulo IBP plus a class of *allowed* monomials is
decided by exact linear algebra: the allowed class is a predicate on
monomials (in practice membership in one :class:`MonomialClass`, see
:func:`classify`), the generators are put in echelon form over the other
coordinates with a fixed monomial order, and membership is read off the
unique remainder.  Each echelon row carries its allowed coordinates along,
so the same elimination that yields the remainder also yields the allowed
part of the expression.  No directed rewriting is involved, so the
residual does not depend on the order in which generators are supplied.

A generator whose Leibniz terms are all allowed projects to an empty row
and never enters the echelon, so callers that know which products
differentiate into allowed terms only leave those generators out; the
one cached reducer, :func:`nlsenergy.energy.dispersive_reducer`, builds
only the generators that survive projection.  Its products to leave out
are those with too many derivative-bearing factors (the quartic
remainder of the dispersive sector), so the walk itself is capped
(`max_derivative_factors` of :func:`ibp_generators` and
:func:`enumerate_monomials`): it prunes every branch that would exceed
the cap, so its work follows what it keeps, 1,054 bases at
(k, p) = (20, 5) where the full walk has 1,378,404.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Sequence

from .algebra import Density, Monomial, _monomial, bounded_partitions
from .rational import GaussianRational, _reduced

Signature = tuple[int, int, int]


class SignatureMismatchError(ValueError):
    """Inputs of a sector computation mix different signatures."""


def enumerate_monomials(signature: Signature, max_order: int,
                        max_derivative_factors: int | None = None) -> list[Monomial]:
    """All sector monomials with every derivative order <= max_order, and
    at most `max_derivative_factors` factors carrying a derivative if given.

    Deterministic order: unconjugated block descending first, then the
    conjugated block.  The capped walk gives the conjugated block the
    derivative factors its unconjugated block left unused, so its result
    is, in order, the uncapped one filtered by
    ``derivative_factor_count <= max_derivative_factors``, without visiting
    the monomials that filter would drop.
    """
    n_u, n_c, total = signature
    out = []
    for s_u in range(total, -1, -1):
        s_c = total - s_u
        for uo in bounded_partitions(s_u, n_u, max_order, max_derivative_factors):
            left = (None if max_derivative_factors is None
                    else max_derivative_factors - n_u + uo.count(0))
            for co in bounded_partitions(s_c, n_c, max_order, left):
                out.append(_monomial(uo, co))
    return out


def ibp_generators(signature: Signature,
                   max_derivative_factors: int | None = None) -> list[Density]:
    """Total-derivative relations spanning the IBP subspace of a sector.

    One generator per product of signature (n_u, n_c, total-1): the Leibniz
    expansion of its derivative, all coefficients +1.  Uncapped, this is
    the complete IBP span of the sector.  A caller leaves out the products
    whose every Leibniz term is in its allowed class, since their
    generators project to zero, by `max_derivative_factors`: it limits the
    products walked to those with at most that many derivative-bearing
    factors (the rest are never enumerated).
    """
    n_u, n_c, total = signature
    if total == 0:
        return []
    counts = [GaussianRational(n) for n in range(n_u + n_c + 1)]
    gens = []
    for base in enumerate_monomials((n_u, n_c, total - 1), total - 1,
                                    max_derivative_factors):
        # the terms of equal factors coincide, so each term's coefficient
        # is its multiplicity
        multiplicity: dict[Monomial, int] = {}
        for idx in range(n_u):
            lst = list(base.u_orders)
            lst[idx] += 1
            m = _monomial(lst, base.c_orders)
            multiplicity[m] = multiplicity.get(m, 0) + 1
        for idx in range(n_c):
            lst = list(base.c_orders)
            lst[idx] += 1
            m = _monomial(base.u_orders, lst)
            multiplicity[m] = multiplicity.get(m, 0) + 1
        gens.append(Density({m: counts[n] for m, n in multiplicity.items()}))
    return gens


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


def _nothing_allowed(m: Monomial) -> bool:
    return False


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
    """Echelon form of a generator span, reusable across many reductions.

    `allowed` is a predicate on monomials: the monomials it accepts are
    coordinates that membership testing may use freely.  The cached
    dispersive reducer allows the quartic remainder class; without a
    predicate, the residual decides membership in the span alone.
    Allowed coordinates take no part in pivoting: each echelon row keeps
    them beside its normalized row over the eliminated coordinates, and a
    reduction subtracts both as it eliminates, so the `allowed_part` of
    each result is what the elimination leaves on the allowed
    coordinates.  A generator with only allowed terms adds nothing to the
    echelon and may be left out.  The generators themselves are not kept.
    Pivoting is deterministic: the largest monomial in canonical order is
    eliminated first.
    """

    def __init__(self, generators: Sequence[Density],
                 allowed: Callable[[Monomial], bool] | None = None):
        self.allowed = _nothing_allowed if allowed is None else allowed
        sigs: set[Signature] = set()
        for g in generators:
            sigs |= g.signatures()
        if len(sigs) > 1:
            raise SignatureMismatchError(f"mixed signatures in sector inputs: {sorted(sigs)}")
        self.signature = next(iter(sigs)) if sigs else None
        # pivot monomial -> (normalized row, its allowed coordinates)
        self._rows: dict[Monomial, tuple[dict, dict]] = {}
        for g in generators:
            row, alw = self._split(g)
            pivot = next(self._eliminate(row, alw), None)
            if pivot is not None:
                inv = GaussianRational(1) / row[pivot]
                self._rows[pivot] = ({m: c * inv for m, c in row.items()},
                                     {m: c * inv for m, c in alw.items()})

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _split(self, d: Density) -> tuple[dict, dict]:
        """The terms of `d` on the eliminated and on the allowed coordinates."""
        allowed = self.allowed
        row: dict[Monomial, GaussianRational] = {}
        alw: dict[Monomial, GaussianRational] = {}
        for m, c in d._terms.items():
            (alw if allowed(m) else row)[m] = c
        return row, alw

    def _eliminate(self, row: dict, alw: dict):
        """Subtract echelon rows from `row`, and their allowed coordinates
        from `alw`, largest pivot first; yield each leading monomial of
        `row` that is no pivot.  The caller pops it from `row` to go on."""
        rows = self._rows
        while row:
            pivot = max(row, key=Monomial.sort_key)
            hit = rows.get(pivot)
            if hit is None:
                yield pivot
                continue
            erow, ealw = hit
            factor = row[pivot]
            _subtract(row, factor, erow)
            _subtract(alw, factor, ealw)

    def reduce(self, expr: Density) -> ReductionResult:
        if self.signature is not None:
            bad = expr.signatures() - {self.signature}
            if bad:
                raise SignatureMismatchError(
                    f"expression signatures {sorted(bad)} outside sector {self.signature}")
        row, alw = self._split(expr)
        residual = {pivot: row.pop(pivot) for pivot in self._eliminate(row, alw)}
        return ReductionResult(Density(residual), Density(alw))


def reduce_by_sector(expr: Density) -> dict[Signature, Density]:
    """The residual of each sector of `expr` modulo its full IBP span,
    keyed by signature in sorted order: all are zero exactly when `expr`
    integrates to zero.

    Integration by parts keeps a sector, so `expr` is split by signature
    in one pass and each part is reduced on its own, by an echelon built
    for this call.
    """
    parts: dict[Signature, dict[Monomial, GaussianRational]] = {}
    for m, c in expr._terms.items():
        parts.setdefault(m.signature, {})[m] = c
    return {sig: SectorReducer(ibp_generators(sig)).reduce(Density(parts[sig])).residual
            for sig in sorted(parts)}
