"""Exact construction of modified energies for the defocusing evolution.

For a Sobolev index k >= 2 the quadratic energy  integral |u|^2 + |d^k u|^2
is not conserved: its time derivative contains sector monomials with fewer
than four derivative-bearing factors, which are the obstruction to good
growth bounds.  This module builds, in exact rational arithmetic, a
correction F made of correction-class densities such that

    d/dt ( quadratic + F )  ==  residual_quartic + residual_nonlinear
                                [+ cubic_coefficient * cubic term if 3 | k]

modulo integration by parts.  The correction coefficients solve a small
linear system, with the cubic weight as its last unknown, obtained by
reducing the dispersive-substitution images of a fixed catalogue of
candidate densities, and eliminated by the same sparse elimination as the
reductions.  The catalogue is chosen so that the system has full rank:
its solution, when there is one, is unique.  `_assemble` checks the
identity, once, for a solved energy and for a stated one alike.

residual_nonlinear is the power image dt_nonlinear(F), which the solve,
the documents and their validation keep unexpanded: its class follows
from F's by a lemma, and a document names it by reference.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .algebra import (Density, Monomial, PowerImage, _check_exponent,
                      density_to_text, dt_linear, dt_nonlinear)
from .rational import ONE, ZERO, GaussianRational, _reduced
from .reduction import (MonomialClass, SectorReducer, _eliminate, classify,
                        reduce_by_sector)

SCHEMA_VERSION = 3

# how a document names the power image of its correction, which is a
# function of F_k alone and is not written out
POWER_IMAGE_REFERENCE = "dt_nonlinear(F_k)"


class InfeasibleSystemError(RuntimeError):
    """The cancellation system admits no exact solution, or more than one."""

    def __init__(self, message: str, residual: Density):
        super().__init__(message)
        self.residual = residual


class CorrectionReductionError(RuntimeError):
    """A correction term could not be rewritten inside the correction class."""


class EnergyDocumentError(ValueError):
    """Malformed, mismatched, or inconsistent energy document."""


class Family(enum.Enum):
    """The four shapes of cancellation densities.

    Each density carries two high-order derivative factors and one
    lower-order derivative factor over a zero-order power background.
    ALIGNED means the high pair shares conjugation ((d^a u)^2), MIXED means
    it splits as d^a u * d^{a-1} conj(u); the suffix gives the conjugation
    of the lower-order factor (U plain, C conjugated).
    """

    ALIGNED_U = "aligned_u"
    ALIGNED_C = "aligned_c"
    MIXED_U = "mixed_u"
    MIXED_C = "mixed_c"


FAMILY_ORDER = (Family.ALIGNED_U, Family.ALIGNED_C, Family.MIXED_U, Family.MIXED_C)


def _orders(*leading: int, pad: int) -> tuple[int, ...]:
    for o in leading:
        if o < 0:
            raise ValueError(f"derivative index out of range: {leading}")
    if pad < 0:
        raise ValueError("background power out of range (p too small for this family)")
    return tuple(leading) + (0,) * pad


def basic_density(family: Family, k: int, h: int, p: int) -> Density:
    """Imaginary-part density with top orders around k-h, low order near 2h.

    These are the irreducible obstruction shapes produced by the evolution;
    the solver cancels them.  h may exceed the usual 0..k//3 range as long
    as every derivative index stays nonnegative.
    """
    if family is Family.ALIGNED_U:
        m = Monomial(_orders(k - h, k - h, 2 * h, pad=p - 2), _orders(pad=p + 1))
    elif family is Family.ALIGNED_C:
        m = Monomial(_orders(k - h, k - h, pad=p - 1), _orders(2 * h, pad=p))
    elif family is Family.MIXED_U:
        m = Monomial(_orders(k - h, 2 * h + 1, pad=p - 1), _orders(k - h - 1, pad=p))
    elif family is Family.MIXED_C:
        m = Monomial(_orders(k - h, pad=p), _orders(k - h - 1, 2 * h + 1, pad=p - 1))
    else:
        raise ValueError(family)
    return Density({m: GaussianRational(1)}).im_part()


def correction_density(family: Family, k: int, h: int, p: int) -> Density:
    """Real-part correction density of index h >= 1.

    The dispersive substitution maps each correction onto basic densities
    of neighbouring indices (verified exactly by :func:`verify_identities`),
    which is what makes the cancellation system triangular.
    """
    if h < 1:
        raise ValueError(f"correction index must be >= 1, got {h}")
    if family is Family.ALIGNED_U:
        m = Monomial(_orders(k - h, k - h, 2 * h - 2, pad=p - 2), _orders(pad=p + 1))
    elif family is Family.ALIGNED_C:
        m = Monomial(_orders(k - h, k - h, pad=p - 1), _orders(2 * h - 2, pad=p))
    elif family is Family.MIXED_U:
        m = Monomial(_orders(k - h, 2 * h - 2, pad=p - 1), _orders(k - h, pad=p))
    elif family is Family.MIXED_C:
        m = Monomial(_orders(k - h, 2 * h - 1, pad=p - 1), _orders(k - h - 1, pad=p))
    else:
        raise ValueError(family)
    return Density({m: GaussianRational(1)}).re_part()


@dataclass(frozen=True)
class CatalogueEntry:
    name: str
    density: Density


def build_catalogue(k: int, p: int) -> list[CatalogueEntry]:
    """Ordered correction candidates entering the modified energy.

    Each family has its own top index: the aligned families run up to
    ceil(k/3), MIXED_U up to (k+1)//3 and MIXED_C up to k//3, and
    ALIGNED_C starts only at h=2 because its h=1 entry duplicates
    ALIGNED_U's.  An entry above its family's top would enter no energy:
    its dispersive image lies in the span of the others, and dropping it
    leaves the cancellation system full rank.  Within each h the family
    order is fixed (ALIGNED_U, ALIGNED_C, MIXED_U, MIXED_C).
    """
    _check_kp(k, p)
    top = {Family.ALIGNED_U: (k + 2) // 3, Family.ALIGNED_C: (k + 2) // 3,
           Family.MIXED_U: (k + 1) // 3, Family.MIXED_C: k // 3}
    return [CatalogueEntry(f"{family.value}[{h}]", correction_density(family, k, h, p))
            for h in range(1, top[Family.ALIGNED_U] + 1) for family in FAMILY_ORDER
            if h <= top[family] and (h, family) != (1, Family.ALIGNED_C)]


# the largest k * p a solve, a check or a document may have: the cost grows
# with k and p together.  150 is the least product that keeps the tests'
# (30,5); on 2 cores its slowest cell, (50,3), builds in 11 s and 1 GB, (40,5) in 39 s
MAX_KP = 150


def _check_kp(k: int, p: int):
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"Sobolev index k must be an int >= 2, got {k!r}")
    _check_exponent(p)
    # both are ints now: k * "2" would be a string repeat, not a product
    if k * p > MAX_KP:
        raise ValueError(f"k * p must be at most {MAX_KP}, got k={k}, p={p}")


def quadratic_density(k: int) -> Density:
    """The uncorrected energy: integral |u|^2 + |d^k u|^2."""
    return Density.monomial((0,), (0,)) + Density.monomial((k,), (k,))


def mass_density() -> Density:
    return Density.monomial((0,), (0,))


def hamiltonian_density(p: int) -> Density:
    return (Density.monomial((1,), (1,))
            + Density.monomial((0,) * (p + 1), (0,) * (p + 1)) * Fraction(1, p + 1))


def cubic_monomial(k: int, p: int) -> Monomial:
    """The surviving three-derivative-factor shape when 3 divides k."""
    if k % 3:
        raise ValueError(f"cubic term only exists for k divisible by 3, got k={k}")
    m = k // 3
    return Monomial(_orders(2 * m, 2 * m, 2 * m, pad=p - 2), _orders(pad=p + 1))


def cubic_density(k: int, p: int) -> Density:
    return Density({cubic_monomial(k, p): GaussianRational(1)}).im_part()


@functools.lru_cache(maxsize=None)
def dispersive_reducer(k: int, p: int) -> SectorReducer:
    """Cached echelon of the dispersive sector (p+1, p+1, 2k).

    Allowed coordinates: the monomials with four or more derivative-bearing
    factors, which in this sector are the quartic remainder class.  Shared
    by the solver, identity verification, and document validation; the one
    cached reducer of this module.  It builds each row the first time a
    reduction meets its pivot and keeps it, so later reductions of the
    same (k, p) reuse the rows earlier ones built.
    """
    return SectorReducer((p + 1, p + 1, 2 * k), max_derivative_factors=3)


@dataclass
class EnergyDefinition:
    """A solved modified energy and the exact decomposition of its derivative.

    correction (the F term) is real-valued and supported on correction-class
    monomials; the defining identity, exact modulo integration by parts, is

        exact_derivative == residual_quartic + residual_nonlinear
                            + cubic_coefficient * cubic term.

    Both sides share the power image dt_nonlinear(F), which is the whole
    nonlinear remainder, so the energy keeps F and not its image:
    `derivative_rest` holds the other summands of exact_derivative, the
    power part of d/dt |d^k u|^2 and the dispersive parts of the quadratic
    energy and of F.  `power_image` names the image unexpanded, for
    evaluation along the flow; `residual_nonlinear`, `exact_derivative`
    and `residual_density()` expand it on every access, and energies keep
    no caches.
    """

    k: int
    p: int
    coefficients: dict[str, Fraction]
    correction: Density
    residual_quartic: Density
    cubic_coefficient: Fraction
    derivative_rest: Density

    @property
    def power_image(self) -> PowerImage:
        """dt_nonlinear(F), unexpanded."""
        return PowerImage(self.correction, self.p)

    @property
    def residual_nonlinear(self) -> Density:
        """dt_nonlinear(F), expanded."""
        return dt_nonlinear(self.correction, self.p)

    @property
    def exact_derivative(self) -> Density:
        """d/dt E_k along the evolution, expanded."""
        # the few summands of the rest are added into the large image
        return self.residual_nonlinear + self.derivative_rest

    def energy_density(self) -> Density:
        """The modified energy E_k = quadratic + F."""
        return quadratic_density(self.k) + self.correction

    def dispersive_residual(self) -> Density:
        """The decomposition of E_k's derivative without the power image:
        the quartic remainder plus the cubic term."""
        if self.cubic_coefficient:
            return (self.residual_quartic
                    + cubic_density(self.k, self.p) * self.cubic_coefficient)
        return self.residual_quartic

    def residual_density(self) -> Density:
        """The decomposition of E_k's derivative, as one density."""
        return self.residual_nonlinear + self.dispersive_residual()


def _solve(columns: list[Density], rhs: Density) -> dict[int, Fraction]:
    """The value of each column outside the span of the columns before it.

    Every column and the right-hand side is i times a real density, so
    the system is solved on their imaginary parts, by the reducer's
    elimination.  Each column is eliminated against the pivots of the
    columns before it and carries its combination of columns, as a
    reducer row carries its allowed coordinates; a column that reduces to
    zero lies in their span and gets no pivot.  The right-hand side,
    eliminated the same way, carries minus the value of each pivot
    column: the solution when every column is a pivot and the system is
    consistent, which `_assemble` checks.  A real part, which no supported
    (k, p) has, is dropped here and would leave a remainder there.
    """
    pivots: dict[Monomial, tuple[dict, dict] | None] = {}
    placed = []
    for col, column in enumerate(columns):
        row, carry = _imaginary_part(column), {col: ONE}
        for lead in _eliminate(pivots, _no_row, row, carry):
            den = row[lead]
            pivots[lead] = ({m: c / den for m, c in row.items()},
                            {j: c / den for j, c in carry.items()})
            placed.append(col)
            break
    row, carry = _imaginary_part(rhs), {}
    for lead in _eliminate(pivots, _no_row, row, carry):
        row.pop(lead)
    return {col: -carry.get(col, ZERO).re for col in placed}


def _imaginary_part(density: Density) -> dict[Monomial, GaussianRational]:
    """The nonzero imaginary parts of the coefficients of `density`."""
    return {m: _reduced(c._im, 0, c._den) for m, c in density._terms.items() if c._im}


def _no_row(lead: Monomial) -> None:
    """The solver's pivots are placed as its columns come in, never built."""
    return None


def solve_energy(k: int, p: int) -> EnergyDefinition:
    """Solve the cancellation system and assemble the modified energy.

    Results are not cached: every call solves afresh, so a caller keeps
    the energy it needs.  Raises InfeasibleSystemError if a column lies in
    the span of the columns before it, with that candidate as the residual,
    or from `_assemble` if the solution leaves a remainder: with full rank,
    exactly when the system has no exact solution (the solver is generic;
    solvability for each supported (k, p) is what the oracle and
    acceptance suites establish).
    """
    catalogue = build_catalogue(k, p)
    reducer = dispersive_reducer(k, p)
    # the power part of d/dt |d^k u|^2, also a summand of the derivative
    power = dt_nonlinear(Density.monomial((k,), (k,)), p)
    rhs = -1 * reducer.reduce(power).residual
    candidates = [(e.name, e.density, dt_linear(e.density)) for e in catalogue]
    if k % 3 == 0:
        candidates.append(("the cubic term", cubic_density(k, p), -1 * cubic_density(k, p)))
    columns = [reducer.reduce(image).residual for _, _, image in candidates]
    values = _solve(columns, rhs)
    for col, (name, density, _) in enumerate(candidates):
        if col not in values:
            raise InfeasibleSystemError(
                f"cancellation system for (k={k}, p={p}) is not full rank: the column "
                f"of {name} lies in the span of the columns before it", density)
    coefficients = {entry.name: values[col] for col, entry in enumerate(catalogue)}
    return _assemble(k, p, coefficients, values.get(len(catalogue), Fraction(0)),
                     _combine(catalogue, coefficients), power)


def _combine(catalogue: list[CatalogueEntry], coefficients: dict[str, Fraction]) -> Density:
    """The catalogue combination F = sum of value * density, in catalogue order."""
    correction = Density.zero()
    for entry in catalogue:
        value = coefficients[entry.name]
        if value:
            correction = correction + entry.density * value
    return correction


def _outside_correction_class(density: Density, k: int, p: int) -> Density:
    """The terms of `density` outside the correction class of (k, p): the
    one class test of a correction, for `_assemble`'s guard and for the
    `starstar` checks of `verify_identities`."""
    return Density({m: density.coefficient(m) for m in density.monomials()
                    if classify(m, k, p) is not MonomialClass.CORRECTION})


def _assemble(k: int, p: int, coefficients: dict[str, Fraction],
              cubic_coefficient: Fraction, correction: Density,
              power: Density) -> EnergyDefinition:
    """The energy of F and a cubic weight, solved or stated: the one check
    of the energy identity, for solve and import alike.

    Raises CorrectionReductionError if F leaves the correction class, and
    InfeasibleSystemError unless the residual of `power + dt_linear(F)`
    is the weight times the cubic term's, with their difference, the
    remainder, as its residual.  A nonzero weight where 3 does not divide
    k is refused before the cubic term is built.
    """
    outside = _outside_correction_class(correction, k, p)
    if not outside.is_zero:
        bad = list(outside.monomials())
        raise CorrectionReductionError(
            f"correction term leaves the correction class: {bad[:3]}")
    reducer = dispersive_reducer(k, p)
    total = power + dt_linear(correction)
    res = reducer.reduce(total)
    remainder = res.residual
    if cubic_coefficient:
        if k % 3:
            raise InfeasibleSystemError(f"cubic weight {cubic_coefficient} for (k={k}, "
                                        f"p={p}), where there is no cubic term", remainder)
        remainder = remainder - reducer.reduce(cubic_density(k, p)).residual * cubic_coefficient
    if not remainder.is_zero:
        raise InfeasibleSystemError(
            f"dispersive-sector remainder nonzero for (k={k}, p={p}): the derivative "
            "is not the quartic remainder plus the weighted cubic term", remainder)
    residual_quartic = res.allowed_part.re_part()
    # F passed the guard above: signature (p+1, p+1, 2k-2), every order at
    # most k-1.  The power substitution spreads a factor's order over 2p+1
    # factors, so every term of its image has signature (2p+1, 2p+1, 2k-2)
    # and every order at most k-1: the image is its own nonlinear remainder,
    # and it is not expanded.  The rest of d/dt (quadratic + F): `total`
    # holds the power part of |d^k u|^2 and the dispersive part of F, and
    # the power part of the mass is zero
    return EnergyDefinition(
        k=k, p=p, coefficients=dict(coefficients), correction=correction,
        residual_quartic=residual_quartic, cubic_coefficient=cubic_coefficient,
        derivative_rest=total + dt_linear(quadratic_density(k)))


# -- conservation witnesses -------------------------------------------------

def verify_exact_conservation(p: int) -> dict[str, Density]:
    """Reduce d/dt(mass) and d/dt(Hamiltonian) modulo IBP alone.

    Returns the per-sector residuals; all must be zero.  No allowed
    coordinates are granted, so this is conservation proved by the algebra
    itself.
    """
    out = {}
    for name, dens in (("mass", mass_density()), ("hamiltonian", hamiltonian_density(p))):
        derivative = dt_linear(dens) + dt_nonlinear(dens, p)
        for sig, residual in reduce_by_sector(derivative).items():
            out[f"{name} sector {sig}"] = residual
    return out


# -- identity verification --------------------------------------------------

@dataclass
class IdentityCheck:
    identity: str
    mode: str  # "exact" | "span" | "ibp" | "class"
    passed: bool
    residual: Density


@dataclass
class IdentityReport:
    k: int
    p: int
    checks: list[IdentityCheck]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[IdentityCheck]:
        return [c for c in self.checks if not c.passed]


def _star_identity_table(k: int, p: int):
    """Known reductions of dispersive images of corrections onto basics.

    Each row: (identity id, correction (family, h), [(coeff, family, h)...]).
    The applicable set depends on k mod 3 and on the ladder depth k // 3.
    """
    m, r = divmod(k, 3)
    rows = [
        ("star[aligned_u[1]]", (Family.ALIGNED_U, 1),
         [(2, Family.ALIGNED_U, 0), (-2 * (p - 1), Family.ALIGNED_U, 1)]),
        ("star[mixed_u[1]]", (Family.MIXED_U, 1), [(4 * p, Family.MIXED_U, 0)]),
    ]
    if k > 2:
        rows.append(("star[mixed_c[1]]", (Family.MIXED_C, 1),
                     [(2, Family.MIXED_U, 0), (-2, Family.MIXED_C, 0),
                      (-2, Family.MIXED_U, 1)]))
        for t in range(2, m + 1):
            rows += [
                (f"star[aligned_u[{t}]]", (Family.ALIGNED_U, t),
                 [(2, Family.ALIGNED_U, t - 1), (-2, Family.ALIGNED_U, t)]),
                (f"star[aligned_c[{t}]]", (Family.ALIGNED_C, t),
                 [(2, Family.ALIGNED_C, t - 1)]),
                (f"star[mixed_u[{t}]]", (Family.MIXED_U, t),
                 [(2, Family.MIXED_U, t - 1)]),
                (f"star[mixed_c[{t}]]", (Family.MIXED_C, t),
                 [(2, Family.MIXED_U, t - 1), (-2, Family.MIXED_C, t - 1),
                  (-2, Family.MIXED_U, t)]),
            ]
        top = m + 1
        rows += [
            (f"star[aligned_c[{top}]]", (Family.ALIGNED_C, top),
             [(2, Family.ALIGNED_C, m)]),
            (f"star[mixed_u[{top}]]", (Family.MIXED_U, top),
             [(2, Family.MIXED_U, m)]),
        ]
        if r == 0:
            rows.append((f"star[aligned_u[{top}]]", (Family.ALIGNED_U, top), []))
            if m > 1:
                rows.append((f"star[mixed_c[{top}]]", (Family.MIXED_C, top),
                             [(2, Family.MIXED_U, m), (-2, Family.MIXED_C, m),
                              (-2, Family.MIXED_C, m - 1), (-2, Family.ALIGNED_C, m - 1),
                              (4, Family.ALIGNED_C, m)]))
        elif r == 1:
            rows.append((f"star[aligned_u[{top}]]", (Family.ALIGNED_U, top),
                         [(6, Family.ALIGNED_U, m)]))
        else:
            rows += [
                (f"star[aligned_u[{top}]]", (Family.ALIGNED_U, top),
                 [(2, Family.ALIGNED_U, m)]),
                (f"star[mixed_c[{top}]]", (Family.MIXED_C, top),
                 [(2, Family.MIXED_U, m), (-1, Family.MIXED_C, m),
                  (2, Family.ALIGNED_C, m)]),
            ]
    return rows


def verify_identities(k: int, p: int) -> IdentityReport:
    """Exact verification of every applicable structural identity.

    Covers the dispersive images of all corrections, the special low-index
    degeneracies, and the power-substitution images of the catalogue
    entries.  A `starstar[<entry>] in class` check certifies that the
    entry lies in the correction class: by the lemma `_assemble` uses, its
    power image then lies in the nonlinear remainder class, so no image is
    expanded.  All checks are exact; a failing check carries its nonzero
    residual, for a `starstar` check the entry's terms outside the class.
    """
    _check_kp(k, p)
    m, r = divmod(k, 3)
    reducer = dispersive_reducer(k, p)
    checks: list[IdentityCheck] = []

    def span(identity: str, delta: Density):
        res = reducer.reduce(delta)
        checks.append(IdentityCheck(identity, "span", res.residual.is_zero, res.residual))

    def exact(identity: str, delta: Density):
        checks.append(IdentityCheck(identity, "exact", delta.is_zero, delta))

    for identity, (family, h), rhs in _star_identity_table(k, p):
        delta = dt_linear(correction_density(family, k, h, p))
        for coeff, bf, bh in rhs:
            delta = delta - basic_density(bf, k, bh, p) * coeff
        span(identity, delta)

    if k == 2:
        exact("aligned_u[1] == aligned_c[1] (k=2)",
              correction_density(Family.ALIGNED_U, k, 1, p)
              - correction_density(Family.ALIGNED_C, k, 1, p))
        exact("aligned_u[1] == mixed_c[1] (k=2)",
              correction_density(Family.ALIGNED_U, k, 1, p)
              - correction_density(Family.MIXED_C, k, 1, p))
        span("basic mixed_c[0] == 2 mixed_u[0] (k=2)",
             basic_density(Family.MIXED_C, k, 0, p)
             - basic_density(Family.MIXED_U, k, 0, p) * 2)
        span("basic aligned_u[1] == 0 (k=2)", basic_density(Family.ALIGNED_U, k, 1, p))
    if k == 3:
        exact("basic mixed_c[1] == -mixed_u[0] (k=3)",
              basic_density(Family.MIXED_C, k, 1, p)
              + basic_density(Family.MIXED_U, k, 0, p))
        # expression rewrite of the top mixed_c correction: one integration
        # by parts, no remainder class involved; a reducer of its sector
        # (p+1, p+1, 4) builds only the few rows this rewrite meets, so it
        # is not cached
        extra = Density.monomial(_orders(2, 1, 1, pad=p - 2), _orders(pad=p + 1)).re_part()
        delta = (correction_density(Family.MIXED_C, k, 2, p)
                 + correction_density(Family.ALIGNED_U, k, 1, p)
                 + correction_density(Family.MIXED_C, k, 1, p) * (p + 1)
                 + extra * (p - 1))
        residual = sum(reduce_by_sector(delta).values(), Density.zero())
        checks.append(IdentityCheck("mixed_c[2] rewrite (k=3)", "ibp",
                                    residual.is_zero, residual))
    if r == 1:
        exact("basic mixed_u[m] == aligned_c[m] (k=3m+1)",
              basic_density(Family.MIXED_U, k, m, p)
              - basic_density(Family.ALIGNED_C, k, m, p))
        if m >= 1:
            span("basic mixed_c[m] == mixed_u[m-1] - mixed_c[m-1] (k=3m+1)",
                 basic_density(Family.MIXED_C, k, m, p)
                 - basic_density(Family.MIXED_U, k, m - 1, p)
                 + basic_density(Family.MIXED_C, k, m - 1, p))

    for entry in build_catalogue(k, p):
        # the lemma _assemble uses: the power substitution spreads a factor's
        # order over 2p+1 factors, so the image of a correction has signature
        # (2p+1, 2p+1, 2k-2) and every order at most k-1; the residual holds
        # the entry's terms outside the correction class
        outside = _outside_correction_class(entry.density, k, p)
        checks.append(IdentityCheck(f"starstar[{entry.name}] in class", "class",
                                    outside.is_zero, outside))
    return IdentityReport(k, p, checks)


# -- serialization ----------------------------------------------------------

def export_energy(energy: EnergyDefinition) -> dict:
    """The schema-3 document of `energy`.

    The power image of F_k is named by POWER_IMAGE_REFERENCE, not written
    out: `residual_theta` is the reference, and `exact_derivative` is the
    reference plus the text of `derivative_rest`.  Replacing the reference
    by the image's text gives the text of the expanded exact derivative,
    since the image's sector (2p+1, 2p+1, 2k-2) sorts before every other.
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "k": energy.k,
        "p": energy.p,
        "coefficients": {name: str(v) for name, v in energy.coefficients.items()},
        "cubic_coeff": str(energy.cubic_coefficient),
        "F_k": density_to_text(energy.correction),
        "residual_omega": density_to_text(energy.residual_quartic),
        "residual_theta": POWER_IMAGE_REFERENCE,
        "exact_derivative": (f"{POWER_IMAGE_REFERENCE} + "
                             f"{density_to_text(energy.derivative_rest)}"),
    }


def energy_hash(energy: EnergyDefinition) -> str:
    blob = json.dumps(export_energy(energy), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def save_energy(energy: EnergyDefinition, path) -> None:
    Path(path).write_text(json.dumps(export_energy(energy), indent=2) + "\n")


def _read_document(path):
    """The JSON value in the file at `path`.  A file that cannot be read,
    decoded or parsed, or that nests too deep to parse, raises ValueError
    with the reason."""
    try:
        return json.loads(Path(path).read_text())
    # UnicodeDecodeError, json.JSONDecodeError and an int literal past
    # Python's digit limit are ValueErrors; deep nesting is a RecursionError
    except (OSError, ValueError, RecursionError) as exc:
        raise ValueError(str(exc)) from exc


def _fraction(text) -> Fraction:
    # only the form str(Fraction) writes: Fraction alone would also take an
    # exponent, and build an int of 10**7 digits for "1e10000000"
    if not isinstance(text, str) or not re.fullmatch(r"-?[0-9]+(/[0-9]+)?", text):
        raise ValueError(f"not a fraction n or n/d: {text!r:.40}")
    return Fraction(text)


def import_energy(source) -> EnergyDefinition:
    """Load and fully validate an energy document (a dict, or the path of
    a JSON file).

    Only `schema_version`, `k`, `p`, the coefficients and `cubic_coeff`
    are input: the energy is recomputed from them, and the document is
    accepted exactly when `export_energy` of the recomputation equals it,
    so every other field must be the text `export_energy` writes, the
    reference to the power image included.  A document of another schema,
    such as a schema-1 document with the image written out or a schema-2
    document with the coefficients of the top-index entries, is refused.
    An `F_k` that is not the text of the stated coefficients' combination
    is rejected before the residuals are recomputed; coefficients and a
    cubic weight that do not cancel fail the identity check of
    `_assemble`.  Anything unreadable, malformed or inconsistent, an
    unusable k or p included, raises EnergyDocumentError.
    """
    try:
        doc = source if isinstance(source, dict) else _read_document(source)
        version = doc["schema_version"]
        k, p = doc["k"], doc["p"]
        _check_kp(k, p)
        coefficients = {name: _fraction(v) for name, v in doc["coefficients"].items()}
        cubic_coefficient = _fraction(doc["cubic_coeff"])
        correction_text = doc["F_k"]
    except (KeyError, ValueError, TypeError, AttributeError,
            ArithmeticError) as exc:
        raise EnergyDocumentError(f"malformed energy document: {exc}") from exc
    if version != SCHEMA_VERSION:
        raise EnergyDocumentError(
            f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")
    catalogue = build_catalogue(k, p)
    if list(coefficients) != [e.name for e in catalogue]:
        raise EnergyDocumentError("coefficient names do not match the catalogue")
    correction = _combine(catalogue, coefficients)
    if density_to_text(correction) != correction_text:
        raise EnergyDocumentError(
            "F_k is not the catalogue combination of the stated coefficients")
    try:
        rebuilt = _assemble(k, p, coefficients, cubic_coefficient, correction,
                            dt_nonlinear(Density.monomial((k,), (k,)), p))
    except (InfeasibleSystemError, CorrectionReductionError) as exc:
        raise EnergyDocumentError(f"inconsistent energy document: {exc}") from exc
    expected = export_energy(rebuilt)
    if doc.keys() != expected.keys():
        raise EnergyDocumentError("malformed energy document: missing or unknown "
                                  f"keys {sorted(doc.keys() ^ expected.keys(), key=str)}")
    # a type check too: 1.0 and True equal 1 but are other JSON
    differ = [key for key, value in expected.items()
              if type(doc[key]) is not type(value) or doc[key] != value]
    if differ:
        raise EnergyDocumentError(
            f"fields that differ from the recomputation's export: {', '.join(differ)}")
    return rebuilt
