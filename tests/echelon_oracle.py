"""The IBP echelon by eager elimination, against the closed form that
`nlsenergy.reduction.SectorReducer` builds a row at a time.

The oracle walks every base of a sector, expands its generator d[base]
by the Leibniz rule, and eliminates the generators one after another,
as the reducer did before its echelon was known in closed form.  The
allowed coordinates are any predicate on monomials, so tests that need
another class than a derivative-factor cap (such as `max_order <= 2`)
run against it.  It also counts the subtractions its own construction
makes: the closed form rests on there being none.

Run as a script to compare a wider grid than the test suite does, the
dispersive sector (p+1, p+1, 2k) on k 2..K x p 2..P and every full-span
sector up to F+F factors and total order N, together with every
reduction that `solve_energy` and `verify_identities` make on the grid:

    PYTHONPATH=src python tests/echelon_oracle.py --k-max 20 --p-max 5
"""

import argparse
import contextlib
import functools
import sys
import time

from nlsenergy import energy as energy_module
from nlsenergy.algebra import Density, Monomial, bounded_partitions
from nlsenergy.energy import solve_energy, verify_exact_conservation, verify_identities
from nlsenergy.rational import GaussianRational
from nlsenergy.reduction import MonomialClass, ReductionResult, SectorReducer, classify


def enumerate_monomials(signature, max_order, max_derivative_factors=None):
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
                out.append(Monomial(uo, co))
    return out


def ibp_generators(signature, max_derivative_factors=None):
    """Total-derivative relations spanning the IBP subspace of a sector.

    One generator per base of signature (n_u, n_c, total-1): the Leibniz
    expansion of its derivative, each coefficient the multiplicity of its
    term.  Uncapped, this is the complete IBP span of the sector.
    `max_derivative_factors` limits the bases walked to those with at most
    that many derivative-bearing factors.
    """
    n_u, n_c, total = signature
    if total == 0:
        return []
    gens = []
    for base in enumerate_monomials((n_u, n_c, total - 1), total - 1,
                                    max_derivative_factors):
        multiplicity = {}
        for idx in range(n_u):
            lst = list(base.u_orders)
            lst[idx] += 1
            m = Monomial(lst, base.c_orders)
            multiplicity[m] = multiplicity.get(m, 0) + 1
        for idx in range(n_c):
            lst = list(base.c_orders)
            lst[idx] += 1
            m = Monomial(base.u_orders, lst)
            multiplicity[m] = multiplicity.get(m, 0) + 1
        gens.append(Density({m: GaussianRational(n) for m, n in multiplicity.items()}))
    return gens


def _subtract(acc, factor, row):
    """acc -= factor * row, dropping the coordinates that cancel."""
    for m, c in row.items():
        cur = acc.get(m)
        value = -(factor * c) if cur is None else cur - factor * c
        if value:
            acc[m] = value
        else:
            acc.pop(m, None)


class EagerReducer:
    """The echelon of `generators`, eliminated as each generator comes in.

    `allowed` is a predicate on monomials; allowed coordinates take no
    part in pivoting and ride along in each row.  `subtractions` counts
    the rows subtracted while the echelon was built.
    """

    def __init__(self, generators, allowed=None):
        self.allowed = allowed or (lambda m: False)
        self.rows = {}  # pivot -> (normalized row, its allowed coordinates)
        self.subtractions = 0
        for g in generators:
            row, alw = self._split(g)
            for pivot in self._eliminate(row, alw, count=True):
                inv = GaussianRational(1) / row[pivot]
                self.rows[pivot] = ({m: c * inv for m, c in row.items()},
                                    {m: c * inv for m, c in alw.items()})
                break

    @property
    def rank(self):
        return len(self.rows)

    def _split(self, d):
        row, alw = {}, {}
        for m, c in d.terms():
            (alw if self.allowed(m) else row)[m] = c
        return row, alw

    def _eliminate(self, row, alw, count=False):
        """Subtract rows from `row` and `alw`, largest pivot first; yield
        each leading monomial of `row` that is no pivot, then drop it."""
        while row:
            pivot = max(row, key=Monomial.sort_key)
            hit = self.rows.get(pivot)
            if hit is None:
                yield pivot
                row.pop(pivot)
                continue
            self.subtractions += count
            factor = row[pivot]
            _subtract(row, factor, hit[0])
            _subtract(alw, factor, hit[1])

    def reduce(self, expr):
        row, alw = self._split(expr)
        residual = {}
        for pivot in self._eliminate(row, alw):
            residual[pivot] = row[pivot]
        return ReductionResult(Density(residual), Density(alw))


@functools.lru_cache(maxsize=None)
def dispersive_oracle(k, p):
    """The eager echelon of the dispersive sector, its quartic remainder
    allowed, from the bases with at most three derivative-bearing factors
    (the others differentiate into allowed terms only)."""
    return EagerReducer(ibp_generators((p + 1, p + 1, 2 * k), 3),
                        lambda m: classify(m, k, p) is MonomialClass.QUARTIC_REMAINDER)


@functools.lru_cache(maxsize=None)
def full_span_oracle(signature):
    """The eager echelon of the full IBP span of a sector, nothing allowed."""
    return EagerReducer(ibp_generators(signature))


def echelon_mismatches(reducer, oracle):
    """Where the closed-form rows of `reducer` differ from the oracle's:
    the pivot sets, each row, the rank, and any subtraction the oracle
    made while it built its echelon.  Builds every row of `reducer`."""
    found = []
    sig, cap = reducer.signature, reducer.max_derivative_factors
    pivots = {}
    # the monomials beyond the cap are allowed, and never pivots
    for m in enumerate_monomials(sig, sig[2], cap):
        row = reducer._row(m)
        if row is not None:
            pivots[m] = row
    if set(pivots) != set(oracle.rows):
        found.append(f"{sig} cap {cap}: pivots differ at "
                     f"{sorted(map(str, set(pivots) ^ set(oracle.rows)))[:3]}")
    found += [f"{sig} cap {cap}: row at {m} differs" for m, row in pivots.items()
              if m in oracle.rows and row != oracle.rows[m]]
    if reducer.rank != oracle.rank:
        found.append(f"{sig} cap {cap}: rank {reducer.rank}, oracle {oracle.rank}")
    if oracle.subtractions:
        found.append(f"{sig} cap {cap}: the eager build subtracted {oracle.subtractions} rows")
    return found


def reduction_mismatch(label, got, want):
    """A line naming where two reductions of one density differ, or None."""
    if got.residual == want.residual and got.allowed_part == want.allowed_part:
        return None
    return f"{label}: the closed form's residual or allowed part differs from the oracle's"


class _CheckedReducer:
    """Reduces each input by the closed form and by the oracle, records
    where they differ, and returns the closed form's result."""

    def __init__(self, reducer, oracle, label, found, reduced):
        self.reducer, self.oracle, self.label = reducer, oracle, label
        self.found, self.reduced = found, reduced

    def reduce(self, expr):
        got = self.reducer.reduce(expr)
        self.reduced.append(expr)
        line = reduction_mismatch(self.label, got, self.oracle.reduce(expr))
        if line:
            self.found.append(line)
        return got


@contextlib.contextmanager
def checked_reductions(found, reduced):
    """Within the block, every reduction `nlsenergy.energy` makes, through
    its cached reducer or sector by sector, is also made by the oracle;
    each density reduced is appended to `reduced`, each disagreement to
    `found`."""
    saved = energy_module.dispersive_reducer, energy_module.reduce_by_sector
    reduce_by_sector = saved[1]

    def dispersive(k, p):
        return _CheckedReducer(saved[0](k, p), dispersive_oracle(k, p),
                               f"dispersive ({k},{p})", found, reduced)

    def by_sector(expr):
        out = reduce_by_sector(expr)
        reduced.append(expr)
        for sig, residual in out.items():
            part = Density({m: c for m, c in expr.terms() if m.signature == sig})
            if residual != full_span_oracle(sig).reduce(part).residual:
                found.append(f"sector {sig}: the closed form's residual differs")
        return out

    energy_module.dispersive_reducer, energy_module.reduce_by_sector = dispersive, by_sector
    try:
        yield
    finally:
        energy_module.dispersive_reducer, energy_module.reduce_by_sector = saved


def grid_mismatches(k, p):
    """The echelon of the dispersive sector at (k, p), and every reduction
    of its solve, assembly and identity checks, against the oracle."""
    found = echelon_mismatches(SectorReducer((p + 1, p + 1, 2 * k), 3),
                               dispersive_oracle(k, p))
    if found:
        # a reduction by rows that are not normalized need not terminate
        return found
    reduced = []
    with checked_reductions(found, reduced):
        try:
            solve_energy(k, p)
            verify_identities(k, p)
        except Exception as exc:  # a wrong residual can make the solve fail
            found.append(f"({k},{p}): {exc!r}")
    if not reduced:
        found.append(f"({k},{p}): no reduction was checked")
    return found


def full_span_mismatches(sectors, p_values):
    """The uncapped echelons of `sectors`, and the reductions sector by
    sector that `verify_exact_conservation` makes for each p in
    `p_values`, against the oracle."""
    found = [line for sig in sectors
             for line in echelon_mismatches(SectorReducer(sig), full_span_oracle(sig))]
    if not found:
        with checked_reductions(found, []):
            for p in p_values:
                verify_exact_conservation(p)
    return found


def full_span_sectors(max_factors, max_order):
    """Every sector with at most `max_factors` factors of each kind, at
    least one factor, and total order at most `max_order`."""
    return [(n_u, n_c, total) for n_u in range(max_factors + 1)
            for n_c in range(max_factors + 1) if n_u + n_c
            for total in range(max_order + 1)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--k-max", type=int, default=20)
    parser.add_argument("--p-max", type=int, default=5)
    parser.add_argument("--max-factors", type=int, default=4)
    parser.add_argument("--max-order", type=int, default=8)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    cells = [(k, p) for k in range(2, args.k_max + 1) for p in range(2, args.p_max + 1)]
    found = [line for k, p in cells for line in grid_mismatches(k, p)]
    sectors = full_span_sectors(args.max_factors, args.max_order)
    found += full_span_mismatches(sectors, range(2, args.p_max + 1))
    for line in found:
        print(line)
    print(f"{len(cells)} cells, k 2..{args.k_max} x p 2..{args.p_max}, and "
          f"{len(sectors)} full-span sectors up to {args.max_factors}+{args.max_factors} "
          f"factors and order {args.max_order}: {len(found)} mismatches "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
