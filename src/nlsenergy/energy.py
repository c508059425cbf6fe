"""Exact construction of modified energies for the defocusing evolution.

For a Sobolev index k >= 2 the quadratic energy  integral |u|^2 + |d^k u|^2
is not conserved: its time derivative contains sector monomials with fewer
than four derivative-bearing factors, which are the obstruction to good
growth bounds.  This module builds, in exact rational arithmetic, a
correction F made of correction-class densities such that

    d/dt ( quadratic + F )  ==  residual_quartic + residual_nonlinear
                                [+ cubic_coefficient * cubic term if 3 | k]

modulo integration by parts.  The correction coefficients solve a small
linear system obtained by reducing the dispersive-substitution images of a
fixed catalogue of candidate densities; the system is solved generically,
with free unknowns pinned to zero in catalogue order, and the solvability
of the hand-worked small cases is covered by oracle tests.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .algebra import (Density, Monomial, density_from_text, density_to_text,
                      dt_evolution, dt_linear, dt_nonlinear)
from .rational import GaussianRational
from .reduction import MonomialClass, SectorReducer, classify, ibp_generators

SCHEMA_VERSION = 1


class InfeasibleSystemError(RuntimeError):
    """The cancellation system admits no exact solution, or none whose
    cubic weight is well defined."""

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
    family: Family
    h: int
    density: Density


def build_catalogue(k: int, p: int) -> list[CatalogueEntry]:
    """Ordered correction candidates entering the modified energy.

    Index h runs 1..k//3+1; within each h the family order is fixed
    (ALIGNED_U, ALIGNED_C, MIXED_U, MIXED_C) and ALIGNED_C starts only at
    h=2 because its h=1 entry duplicates ALIGNED_U's.  This order is the
    tie-break rule for pinning free unknowns.
    """
    _check_kp(k, p)
    entries = []
    for h in range(1, k // 3 + 2):
        for family in FAMILY_ORDER:
            if family is Family.ALIGNED_C and h == 1:
                continue
            entries.append(CatalogueEntry(
                f"{family.value}[{h}]", family, h, correction_density(family, k, h, p)))
    return entries


def _check_kp(k: int, p: int):
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"Sobolev index k must be an int >= 2, got {k!r}")
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"nonlinearity exponent p must be an int >= 2, got {p!r}")


def quadratic_density(k: int) -> Density:
    """The uncorrected energy: integral |u|^2 + |d^k u|^2."""
    return Density.monomial((0,), (0,)) + Density.monomial((k,), (k,))


def mass_density() -> Density:
    return Density.monomial((0,), (0,))


@functools.lru_cache(maxsize=None)
def hamiltonian_density(p: int) -> Density:
    return (Density.monomial((1,), (1,))
            + Density.monomial((0,) * (p + 1), (0,) * (p + 1)) * Fraction(1, p + 1))


def cubic_monomial(k: int, p: int) -> Monomial:
    """The surviving three-derivative-factor shape when 3 divides k."""
    if k % 3:
        raise ValueError(f"cubic term only exists for k divisible by 3, got k={k}")
    m = k // 3
    return Monomial(_orders(2 * m, 2 * m, 2 * m, pad=p - 2), _orders(pad=p + 1))


@functools.lru_cache(maxsize=None)
def cubic_density(k: int, p: int) -> Density:
    return Density({cubic_monomial(k, p): GaussianRational(1)}).im_part()


def _in_class(k: int, p: int, cls: MonomialClass):
    """Membership in one monomial class, as a reducer's `allowed` predicate."""
    return lambda m: classify(m, k, p) is cls


# Each cached reducer builds only the generators that survive projection: a
# product whose every Leibniz term is allowed gives an empty row.

@functools.lru_cache(maxsize=None)
def dispersive_reducer(k: int, p: int) -> SectorReducer:
    """Cached echelon of the dispersive sector (p+1, p+1, 2k).

    Allowed coordinates: the quartic-remainder monomials.  Shared by the
    solver, identity verification, and document validation.
    """
    # a product with four or more derivative-bearing factors differentiates
    # into terms with at least as many
    return SectorReducer(
        ibp_generators((p + 1, p + 1, 2 * k), 2 * k,
                       keep=lambda base: base.derivative_factor_count <= 3),
        _in_class(k, p, MonomialClass.QUARTIC_REMAINDER))


# a product with every order at most k-2 differentiates into terms with
# every order at most k-1

@functools.lru_cache(maxsize=None)
def _nonlinear_reducer(k: int, p: int) -> SectorReducer:
    return SectorReducer(
        ibp_generators((2 * p + 1, 2 * p + 1, 2 * k - 2), 2 * k - 2,
                       keep=lambda base: base.max_order >= k - 1),
        _in_class(k, p, MonomialClass.NONLINEAR_REMAINDER))


# only documents whose F_k is a rewrite of the catalogue combination need
# this echelon, and a process validates them one (k, p) at a time; keeping
# one bounds memory (all of them together hold about 20 MB on the
# k 2..8 x p {2,3} grid plus (12,2) and (12,4))
@functools.lru_cache(maxsize=1)
def _correction_ibp_reducer(k: int, p: int) -> SectorReducer:
    """Echelon of the correction sector (p+1, p+1, 2k-2) with no allowed
    coordinates: a density reduces to zero iff it integrates by parts to 0."""
    sector = (p + 1, p + 1, 2 * k - 2)
    return SectorReducer(ibp_generators(sector, 2 * k - 2))


@dataclass
class EnergyDefinition:
    """A solved modified energy and the exact decomposition of its derivative.

    correction (the F term) is real-valued and supported on correction-class
    monomials; the defining identity, exact modulo integration by parts, is

        exact_derivative == residual_quartic + residual_nonlinear
                            + cubic_coefficient * cubic term.
    """

    k: int
    p: int
    coefficients: dict[str, Fraction]
    correction: Density
    residual_quartic: Density
    residual_nonlinear: Density
    cubic_coefficient: Fraction
    exact_derivative: Density

    # the two sums are built once per energy, so each density a run
    # evaluates is compiled into one evaluation plan; the fields are never
    # reassigned after construction
    def energy_density(self) -> Density:
        return self._energy_density

    def residual_density(self) -> Density:
        return self._residual_density

    @functools.cached_property
    def _energy_density(self) -> Density:
        return quadratic_density(self.k) + self.correction

    @functools.cached_property
    def _residual_density(self) -> Density:
        total = self.residual_quartic + self.residual_nonlinear
        if self.cubic_coefficient:
            total = total + cubic_density(self.k, self.p) * self.cubic_coefficient
        return total


def _split_real_rows(columns: list[Density], rhs: Density):
    """Stack re/im coordinate rows of a complex system with real unknowns."""
    monomials: set[Monomial] = set(rhs.monomials())
    for col in columns:
        monomials |= set(col.monomials())
    rows = []
    for m in sorted(monomials, key=Monomial.sort_key, reverse=True):
        coeffs = [col.coefficient(m) for col in columns]
        target = rhs.coefficient(m)
        rows.append(([c.re for c in coeffs], target.re))
        rows.append(([c.im for c in coeffs], target.im))
    return rows


def _solve_pinned(rows, n: int, column_order: list[int]) -> list[Fraction]:
    """Gaussian elimination; free unknowns (in the given order) pinned to 0."""
    rows = [(list(cs), b) for cs, b in rows]
    assigned: dict[int, int] = {}  # column -> pivot row index
    used_rows: set[int] = set()
    for col in column_order:
        pivot_row = None
        for ridx, (cs, _) in enumerate(rows):
            if ridx not in used_rows and cs[col]:
                pivot_row = ridx
                break
        if pivot_row is None:
            continue  # free unknown, pinned to zero
        cs, b = rows[pivot_row]
        inv = Fraction(1) / cs[col]
        cs = [c * inv for c in cs]
        b = b * inv
        rows[pivot_row] = (cs, b)
        for ridx, (ocs, ob) in enumerate(rows):
            if ridx == pivot_row or not ocs[col]:
                continue
            f = ocs[col]
            rows[ridx] = ([oc - f * c for oc, c in zip(ocs, cs)], ob - f * b)
        assigned[col] = pivot_row
        used_rows.add(pivot_row)
    solution = [Fraction(0)] * n
    for col, ridx in assigned.items():
        # pivot rows may still reference free columns, which are pinned to 0,
        # so the pivot value is just the right-hand side
        solution[col] = rows[ridx][1]
    leftover = [(cs, b) for ridx, (cs, b) in enumerate(rows)
                if ridx not in used_rows and b]
    return solution, leftover


def solve_energy(k: int, p: int) -> EnergyDefinition:
    """Solve the cancellation system and assemble the modified energy.

    Raises InfeasibleSystemError if no exact solution exists (the solver is
    generic; solvability for each supported (k, p) is what the oracle and
    acceptance suites establish).
    """
    return _solve_energy_cached(k, p)


# the power part of d/dt |d^k u|^2: the solver's right-hand side and a
# summand of every assembled derivative; solve_energy assembles right after
# solving, so one entry is enough
@functools.lru_cache(maxsize=1)
def _power_part(k: int, p: int) -> Density:
    return dt_nonlinear(Density.monomial((k,), (k,)), p)


@functools.lru_cache(maxsize=None)
def _solve_energy_cached(k: int, p: int) -> EnergyDefinition:
    _check_kp(k, p)
    catalogue = build_catalogue(k, p)
    reducer = dispersive_reducer(k, p)
    rhs = -1 * reducer.reduce(_power_part(k, p)).residual
    columns = [reducer.reduce(dt_linear(e.density)).residual for e in catalogue]
    names = [e.name for e in catalogue]
    if k % 3 == 0:
        columns.append(-1 * reducer.reduce(cubic_density(k, p)).residual)
        names.append("__cubic__")
    n = len(columns)
    rows = _split_real_rows(columns, rhs)
    solution, leftover = _solve_pinned(rows, n, list(range(n)))
    if leftover:
        raise InfeasibleSystemError(
            f"cancellation system for (k={k}, p={p}) is infeasible; "
            f"{len(leftover)} unsatisfied equations", -1 * rhs)
    # the surviving cubic weight must not depend on which unknowns were pinned
    alt, alt_left = _solve_pinned(rows, n, list(range(n - 1, -1, -1)))
    if alt_left:
        raise InfeasibleSystemError(
            f"cancellation system for (k={k}, p={p}) is infeasible when solved "
            f"in reverse pivot order; {len(alt_left)} unsatisfied equations", -1 * rhs)
    if k % 3 == 0 and solution[-1] != alt[-1]:
        raise InfeasibleSystemError(
            f"cubic weight for (k={k}, p={p}) depends on the tie-break: "
            f"{solution[-1]} or {alt[-1]}",
            cubic_density(k, p) * (solution[-1] - alt[-1]))

    coefficients = {}
    correction = Density.zero()
    for entry, value in zip(catalogue, solution):
        coefficients[entry.name] = value
        if value:
            correction = correction + entry.density * value
    energy = _assemble(k, p, coefficients, correction)
    if k % 3 == 0 and energy.cubic_coefficient != solution[-1]:
        raise InfeasibleSystemError(
            f"assembled cubic coefficient {energy.cubic_coefficient} for (k={k}, p={p}) "
            f"differs from the solved weight {solution[-1]}",
            cubic_density(k, p) * (energy.cubic_coefficient - solution[-1]))
    return energy


def _assemble(k: int, p: int, coefficients: dict[str, Fraction],
              correction: Density) -> EnergyDefinition:
    """Deterministic residual decomposition shared by solve and import."""
    bad = [m for m in correction.monomials()
           if classify(m, k, p) is not MonomialClass.CORRECTION]
    if bad:
        raise CorrectionReductionError(
            f"correction term leaves the correction class: {bad[:3]}")
    reducer = dispersive_reducer(k, p)
    total = _power_part(k, p) + dt_linear(correction)
    res = reducer.reduce(total)
    cubic_coeff = Fraction(0)
    remainder = res.residual
    if not remainder.is_zero:
        if k % 3:
            raise InfeasibleSystemError(
                f"dispersive-sector remainder nonzero for (k={k}, p={p})", remainder)
        cub = reducer.reduce(cubic_density(k, p)).residual
        lead = max(cub.monomials(), key=Monomial.sort_key)
        ratio = remainder.coefficient(lead) / cub.coefficient(lead)
        if remainder != cub * ratio or not ratio.is_real:
            raise InfeasibleSystemError(
                f"remainder is not a multiple of the cubic term for (k={k}, p={p})",
                remainder)
        cubic_coeff = ratio.as_fraction()
    residual_quartic = res.allowed_part.re_part()
    correction_power = dt_nonlinear(correction, p)
    residual_nonlinear = correction_power
    if any(classify(m, k, p) is not MonomialClass.NONLINEAR_REMAINDER
           for m in residual_nonlinear.monomials()):
        theta = _nonlinear_reducer(k, p).reduce(residual_nonlinear)
        if not theta.residual.is_zero:
            raise InfeasibleSystemError(
                f"power-sector residual outside its class for (k={k}, p={p})",
                theta.residual)
        residual_nonlinear = theta.allowed_part.re_part()
    # d/dt (quadratic + F) from the parts built above: `total` holds the
    # power part of |d^k u|^2 and the dispersive part of F
    exact = (dt_linear(quadratic_density(k)) + dt_nonlinear(mass_density(), p)
             + total + correction_power)
    return EnergyDefinition(
        k=k, p=p, coefficients=dict(coefficients), correction=correction,
        residual_quartic=residual_quartic, residual_nonlinear=residual_nonlinear,
        cubic_coefficient=cubic_coeff, exact_derivative=exact)


# -- conservation witnesses -------------------------------------------------

def verify_exact_conservation(p: int) -> dict[str, Density]:
    """Reduce d/dt(mass) and d/dt(Hamiltonian) modulo IBP alone.

    Returns the per-sector residuals; all must be zero.  No allowed
    coordinates are granted, so this is conservation proved by the algebra
    itself.
    """
    out = {}
    for name, dens in (("mass", mass_density()), ("hamiltonian", hamiltonian_density(p))):
        deriv = dt_evolution(dens, p)
        for sig in sorted(deriv.signatures()):
            part = Density.from_terms(
                (m, c) for m, c in deriv.terms() if m.signature == sig)
            res = SectorReducer(ibp_generators(sig, sig[2])).reduce(part)
            out[f"{name} sector {sig}"] = res.residual
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
    degeneracies, and the power-substitution vanishing of each correction.
    All checks are exact; a failing check carries its nonzero residual.
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
        # by parts, no remainder class involved
        extra = Density.monomial(_orders(2, 1, 1, pad=p - 2), _orders(pad=p + 1)).re_part()
        delta = (correction_density(Family.MIXED_C, k, 2, p)
                 + correction_density(Family.ALIGNED_U, k, 1, p)
                 + correction_density(Family.MIXED_C, k, 1, p) * (p + 1)
                 + extra * (p - 1))
        res = _correction_ibp_reducer(k, p).reduce(delta)
        checks.append(IdentityCheck("mixed_c[2] rewrite (k=3)", "ibp",
                                    res.residual.is_zero, res.residual))
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
        image = dt_nonlinear(entry.density, p)
        if all(classify(mm, k, p) is MonomialClass.NONLINEAR_REMAINDER
               for mm in image.monomials()):
            checks.append(IdentityCheck(f"starstar[{entry.name}] in class", "class",
                                        True, Density.zero()))
        else:
            res = _nonlinear_reducer(k, p).reduce(image)
            checks.append(IdentityCheck(f"starstar[{entry.name}] in class", "class",
                                        res.residual.is_zero, res.residual))
    return IdentityReport(k, p, checks)


# -- serialization ----------------------------------------------------------

def export_energy(energy: EnergyDefinition) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "k": energy.k,
        "p": energy.p,
        "coefficients": {name: str(v) for name, v in energy.coefficients.items()},
        "cubic_coeff": str(energy.cubic_coefficient),
        "F_k": density_to_text(energy.correction),
        "residual_omega": density_to_text(energy.residual_quartic),
        "residual_theta": density_to_text(energy.residual_nonlinear),
        "exact_derivative": density_to_text(energy.exact_derivative),
    }


def energy_hash(energy: EnergyDefinition) -> str:
    blob = json.dumps(export_energy(energy), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def save_energy(energy: EnergyDefinition, path) -> None:
    Path(path).write_text(json.dumps(export_energy(energy), indent=2) + "\n")


def import_energy(source) -> EnergyDefinition:
    """Load and fully validate an energy document (dict, JSON text, or path).

    Validation recomputes the exact derivative and the residual
    decomposition from the document's correction term and requires the
    document's text of each to be the canonical text of the recomputation,
    so hand-edited coefficients or residuals are rejected.  Only `F_k` is
    parsed; it may be any text of an equivalent correction.
    Anything unreadable, malformed or inconsistent, an unusable k or p
    included, raises EnergyDocumentError.
    """
    try:
        if isinstance(source, dict):
            doc = source
        elif str(source).lstrip().startswith("{"):
            doc = json.loads(str(source))
        else:
            doc = json.loads(Path(source).read_text())
        version = doc["schema_version"]
        k, p = doc["k"], doc["p"]
        _check_kp(k, p)
        coefficients = {name: Fraction(v) for name, v in doc["coefficients"].items()}
        cubic = Fraction(doc["cubic_coeff"])
        correction = density_from_text(doc["F_k"])
        # the derived fields are compared as canonical text, not parsed
        quartic_text = doc["residual_omega"]
        nonlinear_text = doc["residual_theta"]
        exact_text = doc["exact_derivative"]
    # UnicodeDecodeError and json.JSONDecodeError are ValueErrors
    except (OSError, KeyError, ValueError, TypeError, AttributeError,
            ArithmeticError) as exc:
        raise EnergyDocumentError(f"malformed energy document: {exc}") from exc
    if version != SCHEMA_VERSION:
        raise EnergyDocumentError(
            f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")
    catalogue = build_catalogue(k, p)
    if list(coefficients) != [e.name for e in catalogue]:
        raise EnergyDocumentError("coefficient names do not match the catalogue")
    recombined = Density.zero()
    for entry in catalogue:
        v = coefficients[entry.name]
        if v:
            recombined = recombined + entry.density * v
    if recombined != correction:
        # accept an equivalent rewrite inside the correction sector
        diff = recombined - correction
        if (diff.signatures() != {(p + 1, p + 1, 2 * k - 2)}
                or not _correction_ibp_reducer(k, p).reduce(diff).residual.is_zero):
            raise EnergyDocumentError(
                "F_k is not the catalogue combination of the stated coefficients")
    try:
        rebuilt = _assemble(k, p, coefficients, correction)
    except (InfeasibleSystemError, CorrectionReductionError) as exc:
        raise EnergyDocumentError(f"inconsistent energy document: {exc}") from exc
    if density_to_text(rebuilt.exact_derivative) != exact_text:
        raise EnergyDocumentError("exact_derivative does not match the recomputation")
    if (density_to_text(rebuilt.residual_quartic) != quartic_text
            or density_to_text(rebuilt.residual_nonlinear) != nonlinear_text
            or rebuilt.cubic_coefficient != cubic):
        raise EnergyDocumentError("residual decomposition does not match the recomputation")
    return rebuilt
