"""The closed-form IBP echelon against the eager elimination (see
`echelon_oracle`): the same pivots, the same rows, and the same residual
and allowed part of every density reduced."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echelon_oracle import (dispersive_oracle, enumerate_monomials, full_span_mismatches,
                            full_span_oracle, full_span_sectors, grid_mismatches,
                            reduction_mismatch)
from nlsenergy import energy as energy_module
from nlsenergy.algebra import Density
from nlsenergy.energy import solve_energy, verify_identities
from nlsenergy.rational import GaussianRational
from nlsenergy.reduction import SectorReducer

GRID = [(k, p) for k in range(2, 9) for p in (2, 3)] + [(12, 2), (12, 4)]
SECTORS = full_span_sectors(3, 6)


@pytest.mark.parametrize("k,p", GRID)
def test_the_dispersive_sector_matches_the_oracle(k, p):
    # the pivots and rows, then every reduction of the solve (right-hand
    # side, catalogue columns), of _assemble (the total derivative, the
    # cubic term) and of verify_identities
    assert grid_mismatches(k, p) == []


def test_the_full_span_sectors_match_the_oracle():
    assert full_span_mismatches(SECTORS, (2, 3)) == []


_gaussian = st.builds(GaussianRational,
                      st.fractions(min_value=-9, max_value=9, max_denominator=11),
                      st.fractions(min_value=-9, max_value=9, max_denominator=11))


@st.composite
def _full_span_densities(draw):
    """A sector and a density in it; `test_pruned_reducers_match_the_full_span`
    draws those of the dispersive sector."""
    sig = draw(st.sampled_from(SECTORS))
    picks = draw(st.lists(st.tuples(st.sampled_from(enumerate_monomials(sig, sig[2])),
                                    _gaussian),
                          min_size=1, max_size=8))
    return sig, sum((Density.monomial(m.u_orders, m.c_orders, c) for m, c in picks),
                    Density.zero())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_full_span_densities())
def test_drawn_densities_reduce_as_in_the_oracle(case):
    sig, expr = case
    got, want = SectorReducer(sig).reduce(expr), full_span_oracle(sig).reduce(expr)
    assert reduction_mismatch(str(sig), got, want) is None


def test_a_reducer_builds_only_the_rows_its_reductions_meet(monkeypatch):
    reducer = SectorReducer((5, 5, 24), 3)
    assert reducer._rows == {}
    assert reducer.rank == 376
    monkeypatch.setattr(energy_module, "dispersive_reducer", lambda k, p: reducer)
    solve_energy(12, 4)
    verify_identities(12, 4)
    built = [row for row in reducer._rows.values() if row is not None]
    assert len(built) == 230


@pytest.mark.parametrize("cap", [-1, 2.0, True, "3"])
def test_a_cap_other_than_an_int_at_least_0_raises(cap):
    with pytest.raises(ValueError, match="max_derivative_factors"):
        SectorReducer((2, 2, 4), cap)


@pytest.mark.parametrize("sig,cap,rank", [
    ((0, 0, 1), None, 0), ((2, 2, 0), None, 0), ((1, 1, 3), 0, 0), ((1, 0, 4), None, 1),
    ((1, 1, 2), None, 2), ((1, 1, 1), 0, 0), ((3, 3, 24), 3, None),
])
def test_rank_counts_the_bases_without_building_a_row(sig, cap, rank):
    reducer = SectorReducer(sig, cap)
    if rank is None:
        rank = dispersive_oracle(12, 2).rank
    assert reducer.rank == rank
    assert reducer._rows == {}
