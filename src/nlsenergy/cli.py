"""Command line interface: build/verify energies, run experiments.

Exit codes: 1 for usage problems (bad flags, mismatched or unreadable
energy documents), 2 for an infeasible cancellation system, 3 for failed
verification, tolerance violations or a run aborted on non-finite values.
"""

from __future__ import annotations

import contextlib
import os
import sys
from pathlib import Path

import click
from click.core import ParameterSource

from .algebra import density_to_text
from .energy import (EnergyDocumentError, InfeasibleSystemError, _check_kp,
                     _read_document, import_energy, save_energy, solve_energy,
                     verify_exact_conservation, verify_identities)
from .harness import (DECOMPOSITION_TOLERANCE, FD_TOLERANCE, RunConfig,
                      compile_plans, initial_state, max_bound_ratio, observe,
                      run_experiment, write_report)
from .spectral import BlowupError

# usage failures must exit 1, freeing 2 and 3 for infeasibility and
# verification failures
click.UsageError.exit_code = 1


@click.group()
def main():
    """Exact modified energies for the 1d periodic defocusing NLS equation."""


def _parse_range(text: str, label: str) -> range:
    try:
        lo, sep, hi = text.partition("..")
        lo, hi = int(lo), int(hi if sep else lo)
        if hi < lo:
            raise ValueError
        return range(lo, hi + 1)
    except ValueError:
        raise click.UsageError(
            f"--{label} must be an integer or a range like 2..8, got {text!r}")


def _require_kp(k: int, p: int):
    try:
        _check_kp(k, p)
    except ValueError as exc:
        raise click.UsageError(str(exc))


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
            data = _read_document(config_path)
        except ValueError as exc:
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
    Mismatches are usage errors and must fire before any simulation; a
    document for another usable (k, p) is refused before it is validated,
    which recomputes the whole energy."""
    if not energy_path:
        return _solve_or_exit(config.k, config.p)
    try:
        doc = _read_document(energy_path)
    except ValueError:
        doc = None
    if isinstance(doc, dict):
        k, p = doc.get("k"), doc.get("p")
        if (k, p) != (config.k, config.p):
            with contextlib.suppress(ValueError):
                _check_kp(k, p)
                raise click.UsageError(
                    f"energy document is for (k={k}, p={p}) "
                    f"but the run wants (k={config.k}, p={config.p})")
    else:
        doc = energy_path  # import_energy says what is wrong with the file
    try:
        # an accepted document states the run's (k, p): export_energy of
        # the recomputation, which must equal it, writes both as ints
        return import_energy(doc)
    except EnergyDocumentError as exc:
        raise click.UsageError(f"bad energy document: {exc}")


def _check_out(out):
    """Fail before any solve or step if `out` is empty or has no folder to be
    written in."""
    if not out:
        raise click.ClickException("cannot write an empty --out path")
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
    if out is not None:
        _check_out(out)
    energy = _solve_or_exit(k, p)
    width = max(len(name) for name in energy.coefficients)
    for name, value in energy.coefficients.items():
        click.echo(f"{name:<{width}}  {value}")
    click.echo(f"cubic_coeff = {energy.cubic_coefficient}")
    if out is not None:
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
    # every (k, p) of the grid lies between its corners, checked before any loop
    _require_kp(ks[0], ps[0])
    _require_kp(ks[-1], ps[-1])
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
    """Check the symbolic derivative against finite differences.

    Prints the derivative, its decomposition and its finite difference
    from the first record of the run the flags describe.
    """
    config = _build_config(ctx, config_path, **flags)
    energy = _load_energy(config, energy_path)
    with _aborting_on_blowup():
        record = observe(initial_state(config), 0.0, energy, config,
                         compile_plans(energy, config.n_modes))
    click.echo(f"dE/dt exact        = {record['dEk_exact']:+.12e}")
    click.echo(f"dE/dt decomposed   = {record['dEk_decomposition']:+.12e}  "
               f"(rel {record['decomposition_rel_error']:.3e}, tol {DECOMPOSITION_TOLERANCE:g})")
    click.echo(f"dE/dt finite diff  = {record['dEk_fd']:+.12e}  "
               f"(rel {record['fd_rel_error']:.3e}, tol {FD_TOLERANCE:g})")
    if (record["fd_rel_error"] > FD_TOLERANCE
            or record["decomposition_rel_error"] > DECOMPOSITION_TOLERANCE):
        click.echo("tolerance violated", err=True)
        sys.exit(3)
    click.echo("within tolerance")


if __name__ == "__main__":
    main()
