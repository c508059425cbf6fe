"""Experiment harness: schedules, reports, reproducibility."""

import dataclasses
import json

import pytest

from nlsenergy import spectral
from nlsenergy.energy import (energy_hash, export_energy, import_energy,
                              solve_energy)
from nlsenergy.harness import (CSV_COLUMNS, RunConfig, derivative_crosscheck,
                               format_csv, initial_state, max_bound_ratio,
                               observe, run_experiment, write_report)
from nlsenergy.spectral import random_state


def _small_config(**overrides) -> RunConfig:
    base = dict(k=2, p=2, n_modes=16, dt=1e-3, t_end=0.01,
                record_dt=5e-3, seed=7)
    base.update(overrides)
    return RunConfig(**base)


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(preset="solitons")
    with pytest.raises(ValueError):
        RunConfig(dt=-1e-3)
    with pytest.raises(ValueError):
        RunConfig.from_dict({"k": 2, "warp": 9})
    config = _small_config()
    assert RunConfig.from_dict(dataclasses.asdict(config)) == config


@pytest.mark.parametrize("overrides", [
    {"k": 1}, {"p": 1}, {"k": 2.0}, {"p": "2"}, {"n_modes": 48}, {"n_modes": 4},
    *({name: value} for name in ("dt", "t_end", "record_dt", "fd_delta",
                                 "r_h1", "decay", "amplitude")
      for value in (float("nan"), float("inf"), float("-inf"))),
    {"preset": "planewave", "mode": 8}, {"preset": "planewave", "mode": -9},
    {"preset": "planewave", "mode": 1.5},
])
def test_run_config_rejects_what_no_run_can_use(overrides):
    with pytest.raises(ValueError):
        _small_config(**overrides)


def test_run_config_accepts_the_edge_modes():
    for mode in (-8, 7):
        _small_config(preset="planewave", mode=mode)
    _small_config(mode=40)      # a random state ignores the mode


def test_record_schedule():
    energy = solve_energy(2, 2)
    rows = run_experiment(_small_config(record_dt=2e-3), energy)
    assert [round(r["t"], 6) for r in rows] == \
        [0.0, 0.002, 0.004, 0.006, 0.008, 0.01]
    # a trailing partial block is recorded at t_end itself
    rows = run_experiment(_small_config(t_end=0.009, record_dt=2e-3), energy)
    assert round(rows[-1]["t"], 6) == 0.009
    assert round(rows[-2]["t"], 6) == 0.008


def test_format_csv_is_lossless():
    energy = solve_energy(2, 2)
    rows = run_experiment(_small_config(), energy)
    text = format_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == len(rows) + 1
    for row, line in zip(rows, lines[1:]):
        for name, cell in zip(CSV_COLUMNS, line.split(",")):
            assert float(cell) == float(row[name])


def test_write_report_with_sidecar(tmp_path):
    energy = solve_energy(2, 2)
    config = _small_config()
    rows = run_experiment(config, energy)
    target = write_report(tmp_path / "run.csv", rows, config, energy)
    assert target.read_text() == format_csv(rows)
    meta = json.loads((tmp_path / "run.csv.meta.json").read_text())
    assert set(meta) == {"columns", "config", "energy_sha256", "package_version"}
    assert meta["columns"] == list(CSV_COLUMNS)
    assert meta["energy_sha256"] == energy_hash(energy)
    assert RunConfig.from_dict(meta["config"]) == config


def test_rerun_from_sidecar_is_byte_identical(tmp_path):
    energy = solve_energy(2, 2)
    config = _small_config(seed=3)
    write_report(tmp_path / "a.csv", run_experiment(config, energy),
                 config, energy)
    meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
    again = run_experiment(RunConfig.from_dict(meta["config"]), energy)
    assert format_csv(again) == (tmp_path / "a.csv").read_text()


def test_energy_and_config_must_agree():
    with pytest.raises(ValueError):
        run_experiment(_small_config(k=3), solve_energy(2, 2))


def test_initial_state_presets():
    u = initial_state(_small_config(preset="planewave", amplitude=0.25, mode=2))
    assert u[2] == 0.25
    assert abs(u).sum() == 0.25
    v = initial_state(_small_config(seed=5))
    assert (v == random_state(16, 5, 3.0, 1.0)).all()


def test_derivative_crosscheck_accuracy():
    energy = solve_energy(2, 2)
    cross = derivative_crosscheck(random_state(32, seed=0), energy)
    assert cross["fd_rel_error"] < 1e-4
    assert cross["decomposition_rel_error"] < 1e-9


def test_bound_ratio_reduces_to_abs_correction_at_k2():
    energy = solve_energy(2, 2)
    config = _small_config()
    row = observe(initial_state(config), 0.0, energy, config)
    assert row["bound_ratio"] == abs(row["F_k"])
    assert max_bound_ratio([row, {"bound_ratio": -1.0}]) == row["bound_ratio"]


@pytest.mark.parametrize("k", [3, 4])
def test_bound_ratio_of_the_zero_state_is_zero(k):
    energy = solve_energy(k, 2)
    config = _small_config(k=k, preset="planewave", amplitude=0.0)
    row = observe(initial_state(config), 0.0, energy, config)
    assert row["hk"] == 0.0
    assert row["F_k"] == 0.0
    assert row["bound_ratio"] == 0.0


def test_record_where_the_derivative_nearly_vanishes_completes():
    """A record with dE_k/dt near -1.3 whose terms sum from magnitudes of
    order 1e10: the imaginary round-off of about 1e-8 is tiny against the
    terms, though not against the value."""
    config = RunConfig(k=6, n_modes=64, t_end=1, record_dt=0.05, seed=615558025)
    rows = run_experiment(config, solve_energy(6, 2))
    assert len(rows) == 21
    assert min(abs(r["dEk_exact"]) for r in rows) < 2.0


def test_a_run_compiles_each_density_once(monkeypatch):
    compiled = []

    class CountingPlan(spectral.DensityPlan):
        def __init__(self, density):
            compiled.append(density)
            super().__init__(density)

    monkeypatch.setattr(spectral, "DensityPlan", CountingPlan)
    # a freshly imported energy: none of its densities has a plan yet
    energy = import_energy(export_energy(solve_energy(3, 2)))
    rows = run_experiment(_small_config(k=3, t_end=5e-3, record_dt=5e-3), energy)
    assert len(rows) == 2
    assert len({id(d) for d in compiled}) == len(compiled) <= 6
    for density in (energy.correction, energy.exact_derivative,
                    energy.energy_density(), energy.residual_density()):
        assert sum(d is density for d in compiled) == 1
