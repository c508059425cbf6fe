"""Reproducible experiment harness around the solver and the energies.

A run is fully described by a RunConfig; identical configs produce
byte-identical CSV reports (fixed record schedule, shortest round-trip
float formatting, atomic writes).  Every report carries a JSON sidecar
with the complete config, the content hash of the energy document used,
and the package version, so any figure can be regenerated from the
artifact alone.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .energy import (EnergyDefinition, cubic_density, energy_hash,
                     hamiltonian_density)
from .spectral import (SolverConfig, _check_mode, _check_modes, energy_value,
                       evaluate_real, evolve, l2_norm, plane_wave,
                       random_state, sobolev_norm)

CSV_COLUMNS = ("t", "l2", "h1", "hk", "hamiltonian", "E_k", "F_k",
               "dEk_fd", "dEk_exact", "cubic_remainder", "bound_ratio")

FD_TOLERANCE = 1e-4
DECOMPOSITION_TOLERANCE = 1e-9


@dataclass(frozen=True)
class RunConfig:
    k: int = 2
    p: int = 2
    n_modes: int = 64
    dt: float = 1e-3
    t_end: float = 1.0
    seed: int = 0
    r_h1: float = 1.0
    decay: float = 3.0
    preset: str = "random"
    amplitude: float = 0.5
    mode: int = 1
    record_dt: float = 0.05
    fd_delta: float = 2e-5
    fd_substeps: int = 10

    def __post_init__(self):
        """The one validation point of a run, so that bad input fails here,
        before any solve or step."""
        for name, low in (("k", 2), ("p", 2), ("n_modes", 8), ("seed", 0),
                          ("fd_substeps", 1)):
            value = getattr(self, name)
            # a bool is an int to Python, but never a count a run can use
            if not isinstance(value, int) or isinstance(value, bool) or value < low:
                raise ValueError(f"{name} must be an int >= {low}, got {value!r}")
        _check_modes(self.n_modes)
        for name in ("dt", "t_end", "record_dt", "fd_delta", "r_h1", "decay", "amplitude"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.preset not in ("random", "planewave"):
            raise ValueError(f"preset must be 'random' or 'planewave', got {self.preset!r}")
        if self.preset == "planewave":
            _check_mode(self.mode, self.n_modes)
        if self.t_end <= 0 or self.dt <= 0 or self.record_dt <= 0:
            raise ValueError("t_end, dt and record_dt must be positive")
        if self.fd_delta <= 0:
            raise ValueError(f"fd_delta must be positive, got {self.fd_delta!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        extra = set(data) - known
        if extra:
            raise ValueError(f"unknown config keys: {sorted(extra)}")
        return cls(**data)


def initial_state(config: RunConfig) -> np.ndarray:
    if config.preset == "planewave":
        return plane_wave(config.amplitude, config.mode, config.n_modes)
    return random_state(config.n_modes, config.seed, config.decay, config.r_h1)


def solver_config(config: RunConfig) -> SolverConfig:
    return SolverConfig(n_modes=config.n_modes, dt=config.dt, p=config.p)


def derivative_crosscheck(u_hat: np.ndarray, energy: EnergyDefinition,
                          fd_delta: float = 2e-5, fd_substeps: int = 10) -> dict:
    """Central finite difference of the energy along the flow vs the exact
    symbolic derivative, plus the decomposition identity, at one state."""
    dt_sub = fd_delta / fd_substeps
    fwd = SolverConfig(n_modes=len(u_hat), dt=dt_sub, p=energy.p)
    bwd = SolverConfig(n_modes=len(u_hat), dt=-dt_sub, p=energy.p)
    e_plus = energy_value(evolve(u_hat, fwd, fd_substeps), energy)
    e_minus = energy_value(evolve(u_hat, bwd, fd_substeps), energy)
    fd = (e_plus - e_minus) / (2 * fd_delta)
    exact = evaluate_real(u_hat, energy.exact_derivative)
    residual = evaluate_real(u_hat, energy.residual_density())
    scale = max(abs(exact), abs(fd), 1e-30)
    return {
        "fd": fd,
        "exact": exact,
        "decomposition": residual,
        "fd_rel_error": abs(fd - exact) / scale,
        "decomposition_rel_error": abs(residual - exact) / max(abs(exact), abs(residual), 1e-30),
    }


def observe(u_hat: np.ndarray, t: float, energy: EnergyDefinition,
            config: RunConfig) -> dict:
    k = energy.k
    hk = sobolev_norm(u_hat, k)
    f_val = evaluate_real(u_hat, energy.correction)
    cross = derivative_crosscheck(u_hat, energy, config.fd_delta, config.fd_substeps)
    if energy.cubic_coefficient:
        cubic = float(energy.cubic_coefficient) * evaluate_real(
            u_hat, cubic_density(k, energy.p))
    else:
        cubic = 0.0
    # growth-bound exponent 2(k-2)/(k-1); degenerates to 0 at k=2 so the
    # monitored quantity is then just |F| itself.  hk vanishes only at u = 0,
    # where F does too, and the ratio is taken as 0 there
    exponent = (2 * k - 4) / (k - 1)
    return {
        "t": float(t),
        "l2": l2_norm(u_hat),
        "h1": sobolev_norm(u_hat, 1),
        "hk": hk,
        "hamiltonian": evaluate_real(u_hat, hamiltonian_density(energy.p)),
        "E_k": energy_value(u_hat, energy),
        "F_k": f_val,
        "dEk_fd": cross["fd"],
        "dEk_exact": cross["exact"],
        "cubic_remainder": cubic,
        "bound_ratio": abs(f_val) / hk ** exponent if hk else 0.0,
    }


def run_experiment(config: RunConfig, energy: EnergyDefinition) -> list[dict]:
    """Integrate and record observables on the fixed schedule.

    Records at t=0, then every record_dt (rounded to whole steps), and at
    t_end.  The schedule depends only on the config, which is what makes
    reports byte-reproducible.
    """
    if (energy.k, energy.p) != (config.k, config.p):
        raise ValueError(
            f"energy document is for (k={energy.k}, p={energy.p}), "
            f"config wants (k={config.k}, p={config.p})")
    u_hat = initial_state(config)
    scfg = solver_config(config)
    total_steps = max(1, round(config.t_end / config.dt))
    per_record = max(1, round(config.record_dt / config.dt))
    rows = [observe(u_hat, 0.0, energy, config)]
    done = 0
    while done < total_steps:
        block = min(per_record, total_steps - done)
        u_hat = evolve(u_hat, scfg, block)
        done += block
        rows.append(observe(u_hat, done * config.dt, energy, config))
    return rows


def format_csv(rows: list[dict]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(repr(float(row[c])) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def _atomic_write(path: Path, text: str):
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def write_report(path, rows: list[dict], config: RunConfig,
                 energy: EnergyDefinition) -> Path:
    """CSV report plus a .meta.json sidecar with full provenance."""
    path = Path(path)
    _atomic_write(path, format_csv(rows))
    meta = {
        "columns": list(CSV_COLUMNS),
        "config": dataclasses.asdict(config),
        "energy_sha256": energy_hash(energy),
        "package_version": __version__,
    }
    _atomic_write(path.with_name(path.name + ".meta.json"),
                  json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return path


def max_bound_ratio(rows: list[dict]) -> float:
    return max(row["bound_ratio"] for row in rows)
