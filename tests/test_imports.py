"""The package's public names, and what the exact layer loads.

The numerical names are exported lazily, so that a process that only
solves, exports, imports and verifies energies loads neither numpy nor
OpenSSL (through hashlib); the names and `from nlsenergy import ...` are
the same as when every name was imported eagerly.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nlsenergy

# every name the package exported while it imported all of them eagerly,
# with the module that defines it
EXPORTS = {
    "algebra": ("Density", "Monomial", "PowerImage", "density_from_text", "density_to_text",
                "dt_linear", "dt_nonlinear"),
    "energy": ("CatalogueEntry", "CorrectionReductionError", "EnergyDefinition",
               "EnergyDocumentError", "Family", "InfeasibleSystemError", "basic_density",
               "build_catalogue", "correction_density", "cubic_density", "energy_hash",
               "export_energy", "hamiltonian_density", "import_energy", "mass_density",
               "quadratic_density", "save_energy", "solve_energy",
               "verify_exact_conservation", "verify_identities"),
    "harness": ("format_csv", "run_experiment", "write_report"),
    "rational": ("GaussianRational",),
    "reduction": ("MonomialClass", "ReductionResult", "SectorReducer", "classify"),
    "runconfig": ("RunConfig",),
    "spectral": ("BlowupError", "DensityPlan", "SolverConfig", "evolve", "l2_norm",
                 "plane_wave", "random_state", "sobolev_norm", "wavenumbers"),
}


@pytest.mark.parametrize("module, name", [(module, name) for module, names in EXPORTS.items()
                                          for name in names])
def test_every_public_name_is_the_defining_modules_object(module, name):
    defined = getattr(importlib.import_module(f"nlsenergy.{module}"), name)
    assert getattr(nlsenergy, name) is defined
    namespace = {}
    exec(f"from nlsenergy import {name}", namespace)
    assert namespace[name] is defined
    assert name in dir(nlsenergy)


def test_the_modules_import_by_name():
    from nlsenergy import energy, harness, spectral
    assert (energy.__name__, harness.__name__, spectral.__name__) == (
        "nlsenergy.energy", "nlsenergy.harness", "nlsenergy.spectral")
    assert {"algebra", "energy", "harness", "rational", "reduction", "spectral"} <= set(
        dir(nlsenergy))


def test_an_unknown_name_is_no_attribute():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        nlsenergy.no_such_name
    with pytest.raises(ImportError):
        exec("from nlsenergy import no_such_name", {})


# the exact layer through the package's public names, then what it loaded
_EXACT_PATH = """
import sys
from nlsenergy import (energy_hash, export_energy, import_energy, solve_energy,
                       verify_exact_conservation, verify_identities)
energy = solve_energy(5, 2)
assert import_energy(export_energy(energy)).coefficients == energy.coefficients
assert all(check.passed for check in verify_identities(3, 2).checks)
assert all(residual.is_zero for residual in verify_exact_conservation(2).values())
print(sorted(name for name in sys.modules if name.split(".")[0] in ("numpy", "_hashlib")))
print(energy_hash(energy))
"""


def test_the_exact_layer_loads_neither_numpy_nor_openssl():
    src = Path(nlsenergy.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", _EXACT_PATH], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "[]", "dc1ffc609e152641dc291e0f5393c1380d5f224eb93726b88d66b3e07aaad0fe"]
