"""Reproducible experiment harness around the solver and the energies.

A run is fully described by a RunConfig; identical configs produce
byte-identical CSV reports (fixed record schedule, shortest round-trip
float formatting, atomic writes).  Every report carries a JSON sidecar
with the complete config, the content hash of the energy document used,
and the package version, so any figure can be regenerated from the
artifact alone.

A run draws its initial state, then forks a child that only steps and
sends each later state on the record schedule down a one-way pipe, while
this process takes the t=0 record and the others as the states arrive:
the same code on the same states, so the rows are those of a serial run,
and a run takes about the longer of its steps and its records instead of
their sum.  Where fork is unavailable (Windows, or inside a daemonic
multiprocessing worker, which may start no process) the same schedule is
stepped in this process.  Random phases are np.random.default_rng(seed)'s
draws, PCG64 seeded by SeedSequence, made without importing numpy.random.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import os
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .energy import EnergyDefinition, cubic_density, energy_hash, hamiltonian_density
from .runconfig import RunConfig
from .spectral import (DensityPlan, SolverConfig, evolve, l2_norm, plane_wave, random_state,
                       sobolev_norm)

CSV_COLUMNS = ("t", "l2", "h1", "hk", "hamiltonian", "E_k", "F_k",
               "dEk_fd", "dEk_exact", "cubic_remainder", "bound_ratio")

FD_TOLERANCE = 1e-4
DECOMPOSITION_TOLERANCE = 1e-9


def initial_state(config: RunConfig) -> np.ndarray:
    if config.preset == "planewave":
        return plane_wave(config.amplitude, config.mode, config.n_modes)
    return random_state(config.n_modes, config.seed, config.decay, config.r_h1)


class RunPlans(NamedTuple):
    """The plans a run compiles once and evaluates at every record: one
    over every functional of a record, with the row key of each, and one
    of E_k alone for the finite-difference legs."""

    record: DensityPlan
    names: tuple[str, ...]
    energy: DensityPlan


def compile_plans(energy: EnergyDefinition, n_modes: int) -> RunPlans:
    """The plans of `energy` for states of n_modes modes.  The record's
    functionals are listed once, by row key: the two forms of dE_k/dt,
    each its written-out rest plus the power image of F, which the plan
    evaluates along the flow from F's terms, so no expanded image enters
    them; E_k, F and H; and the cubic density, only where the energy
    weights it."""
    e_k, image = energy.energy_density(), energy.power_image
    functionals = {"dEk_exact": (energy.derivative_rest, image),
                   "dEk_decomposition": (energy.dispersive_residual(), image),
                   "E_k": e_k, "F_k": energy.correction,
                   "hamiltonian": hamiltonian_density(energy.p)}
    if energy.cubic_coefficient:
        functionals["cubic"] = cubic_density(energy.k, energy.p)
    return RunPlans(DensityPlan(tuple(functionals.values()), n_modes), tuple(functionals),
                    DensityPlan((e_k,), n_modes))


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
    row = dict(zip(plans.names, plans.record.evaluate_real(u_hat)))
    hk = sobolev_norm(u_hat, k)
    # growth-bound exponent 2(k-2)/(k-1); degenerates to 0 at k=2 so the
    # monitored quantity is then just |F| itself.  hk vanishes only at u = 0,
    # where F does too, and the ratio is taken as 0 there
    exponent = (2 * k - 4) / (k - 1)
    row.update(
        t=float(t), l2=l2_norm(u_hat), h1=sobolev_norm(u_hat, 1), hk=hk,
        dEk_fd=_fd_derivative(u_hat, plans.energy, energy.p, config.fd_delta,
                              config.fd_substeps),
        cubic_remainder=float(energy.cubic_coefficient) * row.pop("cubic", 0.0),
        bound_ratio=abs(row["F_k"]) / hk ** exponent if hk else 0.0)
    exact = row["dEk_exact"]
    for key, value in (("fd_rel_error", row["dEk_fd"]),
                       ("decomposition_rel_error", row["dEk_decomposition"])):
        row[key] = abs(value - exact) / max(abs(exact), abs(value), 1e-30)
    return row


def _trajectory(config: RunConfig, u_hat: np.ndarray):
    """The states (u_hat, t) of the run after t=0 on its record schedule,
    stepped from the initial state u_hat: every record_dt rounded to
    whole steps, and t_end.  The schedule depends only on the config,
    which is what makes reports byte-reproducible."""
    scfg = SolverConfig(n_modes=config.n_modes, dt=config.dt, p=config.p)
    total_steps = max(1, round(config.t_end / config.dt))
    per_record = max(1, round(config.record_dt / config.dt))
    done = 0
    while done < total_steps:
        block = min(per_record, total_steps - done)
        u_hat = evolve(u_hat, scfg, block)
        done += block
        yield u_hat, done * config.dt


def _step_loop(conn, parent_end, config: RunConfig, u_hat: np.ndarray):
    """The forked stepper: sends each state after t=0, then None, or the
    exception a step raised.  Ctrl-C is the parent's to handle."""
    import signal
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    # the fork copied the parent's end too: held open here, it would keep
    # a send blocked on a full pipe once the parent is gone
    parent_end.close()
    try:
        for state in _trajectory(config, u_hat):
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
    """The states of the run's trajectory: the initial state, drawn here
    before any process starts, then the later ones, stepped in a forked
    child that is stopped and joined on exit whatever ended the run, or
    in this process where fork is unavailable."""
    # imported at the first run: with this module, they added about 7 ms
    # to the start of every command, `build` and `verify` included
    import multiprocessing
    import signal
    u_hat = initial_state(config)
    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        yield itertools.chain([(u_hat, 0.0)], _trajectory(config, u_hat))
        return
    context = multiprocessing.get_context("fork")
    ours, theirs = context.Pipe(duplex=False)
    stepper = context.Process(target=_step_loop, args=(theirs, ours, config, u_hat))
    try:
        # a Ctrl-C from the fork until the child ignores it stays pending
        # for this process instead of raising in the child
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            stepper.start()
        finally:
            theirs.close()
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        yield itertools.chain([(u_hat, 0.0)], _received(ours, stepper))
    finally:
        if stepper.pid is not None:
            stepper.terminate()
            stepper.join()
        ours.close()


def run_experiment(config: RunConfig, energy: EnergyDefinition) -> list[dict]:
    """Integrate and record observables on the fixed schedule.

    Records at t=0, then every record_dt (rounded to whole steps), and at
    t_end.  The trajectory is stepped from the state this process draws in
    a forked child, while this process compiles the plans once and takes
    the records (in this process too where fork is unavailable).  The rows
    are those of a serial run, and so are the errors: the records raise in
    schedule order, and a failed step raises after the records before it.
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
