"""Reproducible experiment harness around the solver and the energies.

A run is fully described by a RunConfig; identical configs produce
byte-identical CSV reports (fixed record schedule, shortest round-trip
float formatting, atomic writes).  Every report carries a JSON sidecar
with the complete config, the content hash of the energy document used,
and the package version, so any figure can be regenerated from the
artifact alone.

A run steps its trajectory in a child process forked at its start, which
sends each state on the record schedule down a one-way pipe, while this
process takes the records as the states arrive: the same code on the
same states, so the rows are those of a serial run, and a run takes
about the longer of its steps and its records instead of their sum.
Where fork is unavailable (Windows, or inside a daemonic multiprocessing
worker, which may start no process) the same schedule is stepped in this
process, each state recorded as it is reached.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .energy import (EnergyDefinition, cubic_density, energy_hash,
                     hamiltonian_density)
from .spectral import (DensityPlan, DensityValue, SolverConfig, _check_mode,
                       _check_modes, evolve, l2_norm, plane_wave, random_state,
                       sobolev_norm)

CSV_COLUMNS = ("t", "l2", "h1", "hk", "hamiltonian", "E_k", "F_k",
               "dEk_fd", "dEk_exact", "cubic_remainder", "bound_ratio")

FD_TOLERANCE = 1e-4
DECOMPOSITION_TOLERANCE = 1e-9

# the most steps a run, or one of its record blocks, may take: far above
# the longest run of the documents, tests and benchmark (20,000 steps),
# far below a run that would never end
MAX_STEPS = 10 ** 9


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
        # the .meta.json sidecar records the mode whatever the preset
        if not isinstance(self.mode, int) or isinstance(self.mode, bool):
            raise ValueError(f"mode must be an int, got {self.mode!r}")
        _check_modes(self.n_modes)
        for name in ("dt", "t_end", "record_dt", "fd_delta", "r_h1", "decay", "amplitude"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
            try:
                finite = math.isfinite(value)
            except OverflowError:
                raise ValueError(f"{name} must be a finite number, got an int too "
                                 "large for a float") from None
            if not finite:
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.preset not in ("random", "planewave"):
            raise ValueError(f"preset must be 'random' or 'planewave', got {self.preset!r}")
        if self.preset == "planewave":
            _check_mode(self.mode, self.n_modes)
        if self.t_end <= 0 or self.dt <= 0 or self.record_dt <= 0:
            raise ValueError("t_end, dt and record_dt must be positive")
        # a quotient too large for a float is inf, which the bound refuses too
        if max(self.t_end / self.dt, self.record_dt / self.dt) > MAX_STEPS:
            raise ValueError("the step counts t_end / dt and record_dt / dt must be "
                             f"at most {MAX_STEPS}")
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


# the functionals a record evaluates at its state, in the order of the
# record plan; "cubic" is there only when the energy has a cubic term.
# "image" is the power image of F, a summand of both dE_k/dt forms, which
# the plan evaluates along the flow from F's terms: "exact" and
# "decomposition" are the rest of each
_RECORD_FUNCTIONALS = ("exact", "decomposition", "E_k", "F_k", "hamiltonian",
                       "image", "cubic")


class RunPlans(NamedTuple):
    """The plans a run compiles once and evaluates at every record: one
    over every functional of a record, and one of E_k alone for the
    finite-difference legs."""

    record: DensityPlan
    energy: DensityPlan


def compile_plans(energy: EnergyDefinition, n_modes: int) -> RunPlans:
    """The plans of `energy` for states of n_modes modes.  No expanded
    power image enters them."""
    e_k = energy.energy_density()
    densities = (energy.derivative_rest, energy.dispersive_residual(), e_k,
                 energy.correction, hamiltonian_density(energy.p), energy.power_image)
    if energy.cubic_coefficient:
        densities += (cubic_density(energy.k, energy.p),)
    return RunPlans(DensityPlan(densities, n_modes), DensityPlan((e_k,), n_modes))


def _fd_derivative(u_hat: np.ndarray, energy_plan: DensityPlan, p: int,
                   fd_delta: float, fd_substeps: int) -> float:
    """Central finite difference of E_k along the flow: fd_substeps steps
    of fd_delta/fd_substeps forward and backward from u_hat."""
    dt_sub = fd_delta / fd_substeps
    e_plus, e_minus = (
        energy_plan.evaluate_real(
            evolve(u_hat, SolverConfig(n_modes=len(u_hat), dt=dt, p=p), fd_substeps))[0]
        for dt in (dt_sub, -dt_sub))
    return (e_plus - e_minus) / (2 * fd_delta)


def observe(u_hat: np.ndarray, t: float, energy: EnergyDefinition,
            config: RunConfig, plans: RunPlans) -> dict:
    """One record at state u_hat, from the plans of `energy`.

    Besides the CSV columns, a record holds the residual decomposition of
    dE_k/dt (`dEk_decomposition`) and the relative errors of the
    finite-difference and decomposition crosschecks against `dEk_exact`,
    which the `crosscheck` command prints from the t=0 record.
    """
    k = energy.k
    # the record first: a state out of the floating-point range ends there,
    # before the norms overflow with a warning
    values = dict(zip(_RECORD_FUNCTIONALS, plans.record.evaluate(u_hat)))
    image = values.pop("image")
    for name in ("exact", "decomposition"):
        # the image's terms count in the scale its residue is measured against
        values[name] = DensityValue(values[name] + image,
                                    values[name].term_scale + image.term_scale)
    record = {name: value.real_value() for name, value in values.items()}
    hk = sobolev_norm(u_hat, k)
    f_val = record["F_k"]
    # growth-bound exponent 2(k-2)/(k-1); degenerates to 0 at k=2 so the
    # monitored quantity is then just |F| itself.  hk vanishes only at u = 0,
    # where F does too, and the ratio is taken as 0 there
    exponent = (2 * k - 4) / (k - 1)
    row = {
        "t": float(t),
        "l2": l2_norm(u_hat),
        "h1": sobolev_norm(u_hat, 1),
        "hk": hk,
        "hamiltonian": record["hamiltonian"],
        "E_k": record["E_k"],
        "F_k": f_val,
        "dEk_fd": _fd_derivative(u_hat, plans.energy, energy.p, config.fd_delta,
                                 config.fd_substeps),
        "dEk_exact": record["exact"],
        "cubic_remainder": float(energy.cubic_coefficient) * record.get("cubic", 0.0),
        "bound_ratio": abs(f_val) / hk ** exponent if hk else 0.0,
        "dEk_decomposition": record["decomposition"],
    }
    exact = row["dEk_exact"]
    for key, value in (("fd_rel_error", row["dEk_fd"]),
                       ("decomposition_rel_error", row["dEk_decomposition"])):
        row[key] = abs(value - exact) / max(abs(exact), abs(value), 1e-30)
    return row


def _trajectory(config: RunConfig):
    """The states (u_hat, t) of the run on its record schedule: t=0, then
    every record_dt rounded to whole steps, and t_end.  The schedule
    depends only on the config, which is what makes reports
    byte-reproducible."""
    scfg = SolverConfig(n_modes=config.n_modes, dt=config.dt, p=config.p)
    total_steps = max(1, round(config.t_end / config.dt))
    per_record = max(1, round(config.record_dt / config.dt))
    u_hat = initial_state(config)
    yield u_hat, 0.0
    done = 0
    while done < total_steps:
        block = min(per_record, total_steps - done)
        u_hat = evolve(u_hat, scfg, block)
        done += block
        yield u_hat, done * config.dt


def _step_loop(conn, parent_end, config: RunConfig):
    """The forked stepper: sends each state of the trajectory, then None,
    or the exception a step raised.  Ctrl-C is the parent's to handle."""
    import signal
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    # the fork copied the parent's end too: held open here, it would keep
    # a send blocked on a full pipe once the parent is gone
    parent_end.close()
    try:
        for state in _trajectory(config):
            conn.send(state)
    except Exception as exc:
        conn.send(exc)
    else:
        conn.send(None)


def _received(conn, stepper):
    """The states the stepper sends, ending at its None; raises the
    exception of a failed step in its place."""
    while True:
        try:
            state = conn.recv()
        except EOFError:
            # only a stepper that is gone closes the pipe before its None
            stepper.join()
            raise RuntimeError(f"the trajectory's stepper ended with exit code "
                               f"{stepper.exitcode} before the run did") from None
        if state is None:
            return
        if isinstance(state, Exception):
            raise state
        yield state


@contextlib.contextmanager
def _states(config: RunConfig):
    """The states of the run's trajectory: stepped in a forked child,
    stopped and joined on exit whatever ended the run, or in this process
    where fork is unavailable, as in a daemonic multiprocessing worker,
    which may start no process."""
    # imported at the first run: with this module, they added about 7 ms
    # to the start of every command, `build` and `verify` included
    import multiprocessing
    import signal
    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        yield _trajectory(config)
        return
    context = multiprocessing.get_context("fork")
    ours, theirs = context.Pipe(duplex=False)
    stepper = context.Process(target=_step_loop, args=(theirs, ours, config))
    try:
        # a Ctrl-C from the fork until the child ignores it stays pending
        # for this process instead of raising in the child
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            stepper.start()
        finally:
            theirs.close()
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        yield _received(ours, stepper)
    finally:
        if stepper.pid is not None:
            stepper.terminate()
            stepper.join()
        ours.close()


def run_experiment(config: RunConfig, energy: EnergyDefinition) -> list[dict]:
    """Integrate and record observables on the fixed schedule.

    Records at t=0, then every record_dt (rounded to whole steps), and at
    t_end.  The trajectory is stepped in a forked child while this process
    compiles the plans once and takes the records (in this process too
    where fork is unavailable).  The rows are those of a serial run, and
    so are the errors: the records raise in schedule order, and a failed
    step raises after the records before it.
    """
    if (energy.k, energy.p) != (config.k, config.p):
        raise ValueError(
            f"energy document is for (k={energy.k}, p={energy.p}), "
            f"config wants (k={config.k}, p={config.p})")
    with _states(config) as states:
        plans = compile_plans(energy, config.n_modes)
        return [observe(u_hat, t, energy, config, plans) for u_hat, t in states]


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
