"""Command line interface: build/verify energies, run experiments.

Exit codes: 1 for usage problems (bad flags, mismatched or unreadable
energy documents), 2 for an infeasible cancellation system, 3 for failed
verification, tolerance violations or a run aborted on non-finite values.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
from pathlib import Path

import click
from click.core import ParameterSource

from .algebra import density_to_text
from .energy import (EnergyDocumentError, InfeasibleSystemError,
                     import_energy, save_energy, solve_energy,
                     verify_exact_conservation, verify_identities)
from .harness import (DECOMPOSITION_TOLERANCE, FD_TOLERANCE, RunConfig,
                      derivative_crosscheck, initial_state, max_bound_ratio,
                      run_experiment, write_report)
from .spectral import BlowupError

# usage failures must exit 1, freeing 2 and 3 for infeasibility and
# verification failures
click.UsageError.exit_code = 1


@click.group()
def main():
    """Exact modified energies for the 1d periodic defocusing NLS equation."""


def _parse_range(text: str, label: str) -> list[int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError
            return list(range(lo, hi + 1))
        return [int(text)]
    except ValueError:
        raise click.UsageError(
            f"--{label} must be an integer or a range like 2..8, got {text!r}")


def _require_kp(k: int, p: int):
    if k < 2:
        raise click.UsageError(f"--k must be >= 2, got {k}")
    if p < 2:
        raise click.UsageError(f"--p must be >= 2, got {p}")


_RUN_FLAGS = [
    click.option("--k", type=int, default=RunConfig.k, show_default=True),
    click.option("--p", type=int, default=RunConfig.p, show_default=True),
    click.option("--n-modes", type=int, default=RunConfig.n_modes, show_default=True),
    click.option("--dt", type=float, default=RunConfig.dt, show_default=True),
    click.option("--t-end", type=float, default=RunConfig.t_end, show_default=True),
    click.option("--seed", type=int, default=RunConfig.seed, show_default=True),
    click.option("--r-h1", type=float, default=RunConfig.r_h1, show_default=True),
    click.option("--decay", type=float, default=RunConfig.decay, show_default=True),
    click.option("--preset", type=click.Choice(["random", "planewave"]),
                 default=RunConfig.preset, show_default=True),
    click.option("--energy", "energy_path", type=click.Path(exists=True, dir_okay=False),
                 default=None, help="Energy document; solved on the fly if omitted."),
    click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
                 default=None, help="JSON config mirroring the flags; flags override it."),
]


def _run_flags(f):
    for flag in reversed(_RUN_FLAGS):
        f = flag(f)
    return f


def _build_config(ctx, config_path, **flags) -> RunConfig:
    data = {}
    if config_path:
        try:
            data = json.loads(Path(config_path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise click.UsageError(f"cannot read config document: {exc}")
        if not isinstance(data, dict):
            raise click.UsageError("config document must be a JSON object")
    for name, value in flags.items():
        explicit = ctx.get_parameter_source(name) == ParameterSource.COMMANDLINE
        if explicit or name not in data:
            data[name] = value
    try:
        return RunConfig.from_dict(data)
    except (TypeError, ValueError) as exc:
        raise click.UsageError(str(exc))


def _load_energy(config: RunConfig, energy_path):
    """Validated document if a path was given, otherwise a fresh solve.
    Mismatches are usage errors and must fire before any simulation."""
    if energy_path:
        try:
            energy = import_energy(energy_path)
        except EnergyDocumentError as exc:
            raise click.UsageError(f"bad energy document: {exc}")
        if (energy.k, energy.p) != (config.k, config.p):
            raise click.UsageError(
                f"energy document is for (k={energy.k}, p={energy.p}) "
                f"but the run wants (k={config.k}, p={config.p})")
        return energy
    return _solve_or_exit(config.k, config.p)


def _check_out(out):
    """Fail before any solve or step if `out` has no folder to be written in."""
    folder = Path(out).parent
    if not folder.is_dir() or not os.access(folder, os.W_OK):
        raise click.ClickException(f"cannot write {out}: {folder} is not a writable folder")


@contextlib.contextmanager
def _writing(out):
    """End a failed write of `out` in a one-line message."""
    try:
        yield
    except OSError as exc:
        raise click.ClickException(f"cannot write {out}: {exc.strerror or exc}")


@contextlib.contextmanager
def _aborting_on_blowup():
    """End a run whose state left the floating-point range with exit 3."""
    try:
        yield
    except BlowupError as exc:
        click.echo(f"aborted: {exc}", err=True)
        sys.exit(3)


def _solve_or_exit(k: int, p: int):
    """solve_energy(k, p), or exit 2 with the message and the residual."""
    try:
        return solve_energy(k, p)
    except InfeasibleSystemError as exc:
        click.echo(f"infeasible: {exc}", err=True)
        click.echo(f"residual: {density_to_text(exc.residual)}", err=True)
        sys.exit(2)


@main.command()
@click.option("--k", type=int, required=True)
@click.option("--p", type=int, required=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the energy document here.")
def build(k, p, out):
    """Solve the cancellation system and print the correction table."""
    _require_kp(k, p)
    if out:
        _check_out(out)
    energy = _solve_or_exit(k, p)
    width = max(len(name) for name in energy.coefficients)
    for name, value in energy.coefficients.items():
        click.echo(f"{name:<{width}}  {value}")
    click.echo(f"cubic_coeff = {energy.cubic_coefficient}")
    if out:
        with _writing(out):
            save_energy(energy, out)
        click.echo(f"wrote {out}")


@main.command()
@click.option("--k", "k_range", default="2..8", show_default=True, metavar="K|K1..K2")
@click.option("--p", "p_range", default="2..3", show_default=True, metavar="P|P1..P2")
def verify(k_range, p_range):
    """Verify every structural identity and solve feasibility on a grid."""
    ks = _parse_range(k_range, "k")
    ps = _parse_range(p_range, "p")
    _require_kp(min(ks), min(ps))
    failures = 0
    for p in ps:
        for name, residual in verify_exact_conservation(p).items():
            ok = residual.is_zero
            failures += not ok
            click.echo(f"[{'PASS' if ok else 'FAIL'}] p={p} {name} reduces to zero")
    for k in ks:
        for p in ps:
            report = verify_identities(k, p)
            for check in report.checks:
                failures += not check.passed
                click.echo(f"[{'PASS' if check.passed else 'FAIL'}] k={k} p={p} {check.identity}")
            energy = _solve_or_exit(k, p)
            click.echo(f"[PASS] k={k} p={p} solve: |F|={len(energy.correction)} "
                       f"cubic={energy.cubic_coefficient}")
    if failures:
        click.echo(f"{failures} check(s) failed", err=True)
        sys.exit(3)
    click.echo("all checks passed")


@main.command()
@_run_flags
@click.option("--out", type=click.Path(dir_okay=False), default="report.csv",
              show_default=True)
@click.pass_context
def simulate(ctx, config_path, energy_path, out, **flags):
    """Integrate the equation and write the observable report.

    Every record carries the growth-bound ratio |F_k| / hk^(2(k-2)/(k-1))
    and the cubic remainder; the largest ratio is printed at the end.
    """
    config = _build_config(ctx, config_path, **flags)
    _check_out(out)
    energy = _load_energy(config, energy_path)
    with _aborting_on_blowup():
        rows = run_experiment(config, energy)
    with _writing(out):
        write_report(out, rows, config, energy)
    last = rows[-1]
    click.echo(f"wrote {out} ({len(rows)} records)")
    click.echo(f"final: t={last['t']:g} hk={last['hk']:.6e} E_k={last['E_k']:.6e} "
               f"bound_ratio_max={max_bound_ratio(rows):.6e}")


@main.command()
@_run_flags
@click.pass_context
def crosscheck(ctx, config_path, energy_path, **flags):
    """Check the symbolic derivative against finite differences."""
    config = _build_config(ctx, config_path, **flags)
    energy = _load_energy(config, energy_path)
    u_hat = initial_state(config)
    with _aborting_on_blowup():
        result = derivative_crosscheck(u_hat, energy, config.fd_delta, config.fd_substeps)
    click.echo(f"dE/dt exact        = {result['exact']:+.12e}")
    click.echo(f"dE/dt decomposed   = {result['decomposition']:+.12e}  "
               f"(rel {result['decomposition_rel_error']:.3e}, tol {DECOMPOSITION_TOLERANCE:g})")
    click.echo(f"dE/dt finite diff  = {result['fd']:+.12e}  "
               f"(rel {result['fd_rel_error']:.3e}, tol {FD_TOLERANCE:g})")
    if (result["fd_rel_error"] > FD_TOLERANCE
            or result["decomposition_rel_error"] > DECOMPOSITION_TOLERANCE):
        click.echo("tolerance violated", err=True)
        sys.exit(3)
    click.echo("within tolerance")


if __name__ == "__main__":
    main()
