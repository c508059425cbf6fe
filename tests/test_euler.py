"""An independent certificate of the identities proved modulo integration
by parts: both Euler operators of each difference vanish (see
`euler_operator`), checked without `nlsenergy.reduction`.

Each test also checks that the certificate fails on a perturbed
identity: with one coefficient changed by 1/7, and with a power image
added at weight 1/7.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from euler_operator import euler_image, is_total_derivative, polynomial, total_derivative
from nlsenergy.algebra import Density, dt_linear, dt_nonlinear
from nlsenergy.energy import (Family, build_catalogue, correction_density,
                              hamiltonian_density, mass_density, solve_energy)

SEVENTH = Fraction(1, 7)


def _evolution(density: Density, p: int) -> Density:
    """The formal time derivative along the whole flow: both substitutions."""
    return dt_linear(density) + dt_nonlinear(density, p)


def test_known_total_derivatives_and_known_integrals():
    # d[u conj(u)] and d[u^2 conj(u)] integrate to zero; |u|^2, u d conj(u)
    # and |d u|^2 do not
    assert is_total_derivative(Density.monomial((1,), (0,)) + Density.monomial((0,), (1,)))
    assert is_total_derivative(Density.monomial((1, 0), (0,)) * 2
                               + Density.monomial((0, 0), (1,)))
    for u, c in (((0,), (0,)), ((0,), (1,)), ((1,), (1,))):
        assert not is_total_derivative(Density.monomial(u, c))


_orders = st.lists(st.integers(0, 4), min_size=1, max_size=3).map(
    lambda orders: tuple(sorted(orders)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(terms=st.dictionaries(st.tuples(st.integers(0, 1), _orders, _orders),
                             st.fractions(min_value=-5, max_value=5, max_denominator=6)
                             .filter(bool), min_size=1, max_size=5))
def test_every_total_derivative_is_in_the_kernel(terms):
    derivative = total_derivative(terms)
    assert euler_image(derivative) == {}
    assert euler_image(derivative, conjugated=True) == {}


@pytest.mark.parametrize("k,p", [(k, p) for p in (2, 3) for k in range(2, 9)])
def test_the_energy_identity_is_a_total_derivative(k, p):
    energy = solve_energy(k, p)
    delta = energy.exact_derivative - energy.residual_density()
    assert is_total_derivative(delta)
    # F with one coefficient changed by 1/7: the derivative of the energy
    # gains the evolution image of that entry, the decomposition does not
    entry = build_catalogue(k, p)[0]
    assert not is_total_derivative(delta + _evolution(entry.density, p) * SEVENTH)
    assert not is_total_derivative(delta + dt_nonlinear(energy.correction, p) * SEVENTH)


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_mass_and_hamiltonian_are_conserved(p):
    hamiltonian = hamiltonian_density(p)
    assert is_total_derivative(_evolution(mass_density(), p))
    assert is_total_derivative(_evolution(hamiltonian, p))
    # the potential weight 1/(p+1) changed by 1/7
    potential = Density.monomial((0,) * (p + 1), (0,) * (p + 1))
    assert not is_total_derivative(_evolution(hamiltonian + potential * SEVENTH, p))
    assert not is_total_derivative(_evolution(hamiltonian, p)
                                   + dt_nonlinear(hamiltonian, p) * SEVENTH)


def _k3_rewrite(p, weight):
    """mixed_c[2] at k=3 minus its rewrite inside the correction class,
    with `weight` in place of the weight p+1 of mixed_c[1]."""
    extra = Density.monomial((2, 1, 1) + (0,) * (p - 2), (0,) * (p + 1)).re_part()
    return (correction_density(Family.MIXED_C, 3, 2, p)
            + correction_density(Family.ALIGNED_U, 3, 1, p)
            + correction_density(Family.MIXED_C, 3, 1, p) * weight
            + extra * (p - 1))


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_the_k3_rewrite_of_the_top_mixed_correction(p):
    delta = _k3_rewrite(p, p + 1)
    assert is_total_derivative(delta)
    assert not is_total_derivative(_k3_rewrite(p, p + 1 + SEVENTH))
    top = correction_density(Family.MIXED_C, 3, 2, p)
    assert not is_total_derivative(delta + dt_nonlinear(top, p) * SEVENTH)


def test_a_nonzero_image_names_the_offending_terms():
    # |u|^2: dL/du_0 = conj(u), dL/dconj(u)_0 = u
    poly = polynomial(Density.monomial((0,), (0,)))
    assert euler_image(poly) == {(0, (), (0,)): 1}
    assert euler_image(poly, conjugated=True) == {(0, (0,), ()): 1}
