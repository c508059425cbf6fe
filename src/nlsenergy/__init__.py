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
from .rational import GaussianRational
from .reduction import MonomialClass, ReductionResult, SectorReducer, classify
from .runconfig import RunConfig

# the numerical modules import numpy, which the exact layer never needs:
# they and their names are imported on first use (PEP 562), so that a
# process that only builds, verifies or imports energies does not load it
_NUMERICAL = {
    "harness": ("format_csv", "run_experiment", "write_report"),
    "spectral": ("BlowupError", "DensityPlan", "SolverConfig", "evolve", "l2_norm",
                 "plane_wave", "random_state", "sobolev_norm", "wavenumbers"),
}
_OWNER = {name: module for module, names in _NUMERICAL.items() for name in names}


def __getattr__(name):
    module = name if name in _NUMERICAL else _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    loaded = importlib.import_module(f"{__name__}.{module}")
    return loaded if module == name else getattr(loaded, name)


def __dir__():
    return sorted({*globals(), *_NUMERICAL, *_OWNER})
