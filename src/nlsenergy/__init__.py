"""Exact modified energies for the 1d periodic defocusing NLS equation."""

__version__ = "0.1.0"

from .algebra import (Density, Monomial, PowerImage, density_from_text,
                      density_to_text, dt_linear, dt_nonlinear)
from .energy import (CatalogueEntry, CorrectionReductionError, EnergyDefinition,
                     EnergyDocumentError, Family, InfeasibleSystemError,
                     basic_density, build_catalogue, correction_density,
                     cubic_density, energy_hash, export_energy, hamiltonian_density,
                     import_energy, mass_density, quadratic_density, save_energy,
                     solve_energy, verify_exact_conservation, verify_identities)
from .harness import RunConfig, format_csv, run_experiment, write_report
from .rational import GaussianRational
from .reduction import MonomialClass, ReductionResult, SectorReducer, classify
from .spectral import (BlowupError, DensityPlan, SolverConfig, evolve, l2_norm,
                       plane_wave, random_state, sobolev_norm, wavenumbers)
