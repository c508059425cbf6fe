"""Exact modified energies for the 1d periodic defocusing NLS equation."""

__version__ = "0.1.0"

from .algebra import (Density, Factor, Monomial, density_from_text,
                      density_to_text, dt_evolution, dt_linear, dt_nonlinear)
from .energy import (CatalogueEntry, CorrectionReductionError, EnergyDefinition,
                     EnergyDocumentError, Family, InfeasibleSystemError,
                     basic_density, build_catalogue, correction_density,
                     cubic_density, energy_hash, export_energy, hamiltonian_density,
                     import_energy, mass_density, quadratic_density, save_energy,
                     solve_energy, verify_exact_conservation, verify_identities)
from .harness import (RunConfig, derivative_crosscheck, format_csv,
                      run_experiment, write_report)
from .rational import GaussianRational
from .reduction import (MonomialClass, ReductionResult, SectorReducer, classify,
                        enumerate_monomials, ibp_generators)
from .spectral import (BlowupError, SolverConfig, energy_value,
                       evaluate_density, evaluate_real,
                       evolve, hamiltonian, l2_norm, momentum, plane_wave,
                       plane_wave_solution, random_state, sobolev_norm,
                       wavenumbers)
