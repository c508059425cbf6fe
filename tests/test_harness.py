"""Experiment harness: schedules, reports, reproducibility."""

import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nlsenergy import harness, spectral
from nlsenergy.algebra import PowerImage
from nlsenergy.energy import (cubic_density, energy_hash, export_energy,
                              hamiltonian_density, import_energy, solve_energy)
from nlsenergy.harness import (CSV_COLUMNS, RunConfig, compile_plans,
                               format_csv, initial_state, max_bound_ratio,
                               observe, run_experiment, write_report)
from nlsenergy.spectral import BlowupError, DensityPlan, SolverConfig, evolve, random_state


@pytest.fixture(autouse=True)
def no_worker_left():
    """No test leaves a run's stepper running, failing runs included."""
    yield
    assert multiprocessing.active_children() == []


@pytest.fixture(params=["forked", "in-process"])
def start(request, monkeypatch):
    """Each run of a test twice: its trajectory stepped in the forked
    child, which sends the states to this process to record, and stepped
    in this process as where fork is unavailable."""
    if request.param == "forked":
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork is unavailable here")
    else:
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    return request.param


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
    {"n_modes": 16.0}, {"seed": -1}, {"seed": 1.5}, {"seed": True},
    {"fd_substeps": 0}, {"fd_substeps": 10.0}, {"fd_delta": 0.0},
    *({name: value} for name in ("dt", "t_end", "record_dt", "fd_delta",
                                 "r_h1", "decay", "amplitude")
      for value in (float("nan"), float("inf"), float("-inf"), True)),
    {"preset": "planewave", "mode": 8}, {"preset": "planewave", "mode": -9},
    {"preset": "planewave", "mode": 1.5},
    {"mode": "abc"}, {"preset": "planewave", "mode": True}, {"mode": True},
    # step counts and sizes no run can represent
    {"t_end": 1e300, "dt": 1e-10}, {"record_dt": 1e300, "dt": 1e-10},
    {"n_modes": 2 ** 21}, {"n_modes": 2 ** 62},
    # a number no float holds, a type that is not a number, and step counts
    # that can be represented but exceed MAX_STEPS
    {"t_end": 10 ** 400}, {"amplitude": -10 ** 400}, {"dt": "1e-3"}, {"r_h1": 1j},
    {"t_end": 1e300, "dt": 1e-5}, {"record_dt": 2e6, "t_end": 2e6},
    {"t_end": harness.MAX_STEPS + 1, "dt": 1, "record_dt": 1},
    {"fd_substeps": harness.MAX_STEPS + 1},
    # a substep fd_delta / fd_substeps that underflows to 0
    {"fd_delta": 5e-324},
    # a step whose linear phase (n_modes/2)^2 * |step| overflows
    {"fd_delta": 1e308}, {"dt": 1e307, "t_end": 1e307, "record_dt": 1e307},
])
def test_run_config_rejects_what_no_run_can_use(overrides):
    with pytest.raises(ValueError):
        _small_config(**overrides)


@pytest.mark.parametrize("overrides,message", [
    ({"t_end": 10 ** 400}, "t_end must be a finite number, got an int too large for a float"),
    ({"decay": "3"}, "decay must be a finite number, got '3'"),
    ({"t_end": 1e300, "dt": 1e-5}, "the step counts t_end / dt and record_dt / dt must be "
                                   f"at most {harness.MAX_STEPS}"),
    ({"fd_delta": 1e308}, "fd_delta / fd_substeps = 1e+307 is too large for n_modes=16: the "
                          "linear phase (n_modes/2)^2 * |fd_delta / fd_substeps| is not a "
                          "finite float"),
    ({"dt": 1e307, "t_end": 1e307, "record_dt": 1e307},
     "dt = 1e+307 is too large for n_modes=16: the linear phase (n_modes/2)^2 * |dt| is not "
     "a finite float"),
])
def test_run_config_names_the_field_it_refuses(overrides, message):
    with pytest.raises(ValueError) as info:
        _small_config(**overrides)
    assert str(info.value) == message


def test_run_config_accepts_the_largest_step_counts():
    # ints are numbers too
    _small_config(t_end=harness.MAX_STEPS, dt=1, record_dt=harness.MAX_STEPS)
    _small_config(t_end=harness.MAX_STEPS / 2, dt=0.5, record_dt=1)


def test_run_config_accepts_the_edge_modes():
    for mode in (-8, 7):
        _small_config(preset="planewave", mode=mode)
    _small_config(mode=40)      # a random state ignores the mode
    _small_config(n_modes=2 ** 20)


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
    config = _small_config(n_modes=32, seed=0)
    row = observe(initial_state(config), 0.0, energy, config,
                  compile_plans(energy, config.n_modes))
    assert row["fd_rel_error"] < 1e-4
    assert row["decomposition_rel_error"] < 1e-9
    assert row["fd_rel_error"] == abs(row["dEk_fd"] - row["dEk_exact"]) / max(
        abs(row["dEk_fd"]), abs(row["dEk_exact"]))
    assert row["decomposition_rel_error"] == abs(
        row["dEk_decomposition"] - row["dEk_exact"]) / max(
        abs(row["dEk_decomposition"]), abs(row["dEk_exact"]))


def test_bound_ratio_reduces_to_abs_correction_at_k2():
    energy = solve_energy(2, 2)
    config = _small_config()
    plans = compile_plans(energy, config.n_modes)
    row = observe(initial_state(config), 0.0, energy, config, plans)
    assert row["bound_ratio"] == abs(row["F_k"])
    assert max_bound_ratio([row, {"bound_ratio": -1.0}]) == row["bound_ratio"]


@pytest.mark.parametrize("k", [3, 4])
def test_bound_ratio_of_the_zero_state_is_zero(k):
    energy = solve_energy(k, 2)
    config = _small_config(k=k, preset="planewave", amplitude=0.0)
    plans = compile_plans(energy, config.n_modes)
    row = observe(initial_state(config), 0.0, energy, config, plans)
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


def test_a_run_compiles_one_record_plan_and_one_energy_plan(monkeypatch):
    # the plans compile where the records are taken: in this process,
    # whether the trajectory is stepped in a forked child or here
    compiled = []

    class CountingPlan(spectral.DensityPlan):
        def __init__(self, densities, n_modes):
            compiled.append(densities)
            super().__init__(densities, n_modes)

    monkeypatch.setattr(spectral, "DensityPlan", CountingPlan)
    monkeypatch.setattr(harness, "DensityPlan", CountingPlan)
    energy = import_energy(export_energy(solve_energy(3, 2)))
    assert energy.cubic_coefficient
    config = _small_config(k=3, t_end=1e-2, record_dt=2e-3)
    # each form of dE_k/dt as its rest plus the power image of F, unexpanded
    image = PowerImage(energy.correction, 2)
    want = ((energy.derivative_rest, image), (energy.dispersive_residual(), image),
            energy.energy_density(), energy.correction, hamiltonian_density(2),
            cubic_density(3, 2))
    # with the start methods of this platform, then as where fork is unavailable
    for methods in (multiprocessing.get_all_start_methods(), ["spawn"]):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: methods)
        for _ in range(2):
            compiled.clear()
            assert len(run_experiment(config, energy)) == 6
            # the record plan, then the plan of E_k for the finite-difference
            # legs; none per record
            assert len(compiled) == 2
            record, legs = compiled
            assert record == want
            assert legs == (energy.energy_density(),)


def _serial_rows(config: RunConfig, energy) -> list[dict]:
    """The rows of a run as one loop in this process: a record, then a
    block of steps, and so on."""
    plans = compile_plans(energy, config.n_modes)
    scfg = SolverConfig(n_modes=config.n_modes, dt=config.dt, p=config.p)
    total_steps = max(1, round(config.t_end / config.dt))
    per_record = max(1, round(config.record_dt / config.dt))
    u_hat = initial_state(config)
    rows = [observe(u_hat, 0.0, energy, config, plans)]
    done = 0
    while done < total_steps:
        block = min(per_record, total_steps - done)
        u_hat = evolve(u_hat, scfg, block)
        done += block
        rows.append(observe(u_hat, done * config.dt, energy, config, plans))
    return rows


@pytest.mark.parametrize("k,n_modes,t_end", [(3, 16, 0.009), (6, 64, 0.05)])
def test_the_rows_are_those_of_a_serial_run(k, n_modes, t_end, start):
    # (3,2) has a cubic term and ends on a partial block
    energy = solve_energy(k, 2)
    config = _small_config(k=k, n_modes=n_modes, t_end=t_end, record_dt=2e-3, seed=5)
    rows = run_experiment(config, energy)
    assert len(rows) == (6 if k == 3 else 26)
    assert rows == _serial_rows(config, energy)


def _python(code: str, *args: str, timeout: float) -> subprocess.CompletedProcess:
    """`code` run by a fresh interpreter that imports this package."""
    src = Path(harness.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=timeout)


def test_a_run_of_many_large_records_completes():
    # 302 records of 1024 modes, one per step: the stepper runs ahead
    # until the one-way pipe is full, and waits there for the records
    done = _python("from nlsenergy import RunConfig, run_experiment, solve_energy\n"
                   "config = RunConfig(k=2, n_modes=1024, t_end=0.301, record_dt=1e-3)\n"
                   "print(len(run_experiment(config, solve_energy(2, 2))))\n", timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["302"]


def test_a_failing_first_record_raises_its_own_error(start):
    # the steps after it fail too, with another message, and the stepper
    # may fail before the record ends: the record comes first in the schedule
    config = _small_config(k=6, preset="planewave", amplitude=1e40)
    with pytest.raises(BlowupError) as raised:
        run_experiment(config, solve_energy(6, 2))
    assert str(raised.value) == "non-finite functional values; reduce dt or the data size"


def _failing_steps(monkeypatch, failing_block: int):
    """Make the run's `failing_block`-th block of 5 steps raise; the
    finite-difference legs take 10 steps and are spared."""
    blocks = []

    def evolve_or_fail(u_hat, config, n_steps):
        if n_steps == 5:
            blocks.append(n_steps)
            if len(blocks) == failing_block:
                raise ArithmeticError("a step failed on purpose")
        return evolve(u_hat, config, n_steps)
    monkeypatch.setattr(harness, "evolve", evolve_or_fail)


def test_a_failing_step_raises_after_the_records_before_it(monkeypatch, start):
    _failing_steps(monkeypatch, 4)
    with pytest.raises(ArithmeticError, match="a step failed on purpose"):
        run_experiment(_small_config(t_end=0.05), solve_energy(2, 2))


def test_a_failed_earlier_record_wins_over_a_failing_step(monkeypatch, start):
    # the record at the end of block 1 fails, and so does block 2, which
    # the stepper takes as soon as it has sent that record's state
    _failing_steps(monkeypatch, 2)

    def observe_or_fail(u_hat, t, *args):
        if t > 0:
            raise ValueError(f"the record at t={t} failed on purpose")
        return observe(u_hat, t, *args)
    monkeypatch.setattr(harness, "observe", observe_or_fail)
    with pytest.raises(ValueError, match="the record at t=0.005 failed on purpose"):
        run_experiment(_small_config(t_end=0.05), solve_energy(2, 2))


# a run whose t=0 record fails while its first block is 10**7 steps long
_BLOWUP_RUN = """
import multiprocessing, sys
from nlsenergy import BlowupError, RunConfig, run_experiment, solve_energy
if sys.argv[1] == "in-process":
    multiprocessing.get_all_start_methods = lambda: ["spawn"]
config = RunConfig(k=6, preset="planewave", amplitude=1e40, t_end=1e4, record_dt=1e4)
try:
    run_experiment(config, solve_energy(6, 2))
except BlowupError as exc:
    print(exc)
print(len(multiprocessing.active_children()))
"""


def test_a_failing_record_ends_the_run_at_once(start):
    # the record raises at once, and the stepper, still in its first block
    # or failed itself, is stopped: the run does not wait for it
    done = _python(_BLOWUP_RUN, start, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "non-finite functional values; reduce dt or the data size", "0"]


def test_a_run_whose_initial_state_fails_starts_no_stepper(monkeypatch):
    # the run's own process draws the initial state before any fork
    started = []
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                        lambda process: started.append(process))
    with pytest.raises(BlowupError, match="non-finite random spectrum"):
        run_experiment(_small_config(decay=-1000), solve_energy(2, 2))
    assert started == []


def test_no_run_imports_numpy_random():
    # the initial state's draw is numpy's default stream without
    # numpy.random, which would add about 8 ms to a run's start
    done = _python("import multiprocessing, sys\n"
                   "from nlsenergy import RunConfig, run_experiment, solve_energy\n"
                   "config = RunConfig(k=2, n_modes=16, t_end=0.01, record_dt=5e-3)\n"
                   "energy = solve_energy(2, 2)\n"
                   "forked = run_experiment(config, energy)\n"
                   "multiprocessing.get_all_start_methods = lambda: ['spawn']\n"
                   "in_process = run_experiment(config, energy)\n"
                   "print(len(forked), in_process == forked, 'numpy.random' in sys.modules)\n",
                   timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["3", "True", "False"]


def test_a_worker_that_dies_ends_the_run(monkeypatch):
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork is unavailable here")
    parent = os.getpid()
    blocks = []

    def evolve_or_exit(u_hat, config, n_steps):
        # the stepper dies after its first block
        if os.getpid() != parent:
            if blocks:
                os._exit(7)
            blocks.append(n_steps)
        return evolve(u_hat, config, n_steps)
    monkeypatch.setattr(harness, "evolve", evolve_or_exit)
    with pytest.raises(RuntimeError, match="stepper ended with exit code 7"):
        run_experiment(_small_config(t_end=0.05), solve_energy(2, 2))


def _rows_in_a_pool_worker(config: RunConfig) -> list[dict]:
    return run_experiment(config, solve_energy(2, 2))


def test_a_daemonic_worker_takes_its_records_itself():
    # a multiprocessing pool's workers are daemonic and may start no process
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork is unavailable here")
    config = _small_config()
    with multiprocessing.get_context("fork").Pool(1) as pool:
        rows = pool.apply_async(_rows_in_a_pool_worker, (config,)).get(timeout=60)
    assert rows == _serial_rows(config, solve_energy(2, 2))


def test_a_record_equals_separate_evaluations():
    energy = solve_energy(6, 2)
    config = _small_config(k=6, n_modes=64, seed=4)
    u = initial_state(config)
    row = observe(u, 0.0, energy, config, compile_plans(energy, config.n_modes))

    def alone(density):
        """The value and term scale of a one-density plan, apart from the
        record plan."""
        (value,), (scale,) = DensityPlan((density,), config.n_modes).evaluate(u)
        return value, scale

    for column, density in (("E_k", energy.energy_density()),
                            ("F_k", energy.correction),
                            ("hamiltonian", hamiltonian_density(2)),
                            ("dEk_exact", energy.exact_derivative),
                            ("dEk_decomposition", energy.residual_density())):
        value, scale = alone(density)
        assert abs(row[column] - value.real) <= 1e-12 * scale
    weight = float(energy.cubic_coefficient)
    cubic, scale = alone(cubic_density(6, 2))
    assert weight
    assert abs(row["cubic_remainder"] - weight * cubic.real) <= 1e-12 * abs(weight) * scale


@pytest.mark.parametrize("k", [3, 4])
def test_the_record_names_each_functional_of_its_plan(k):
    # (3,2) weights the cubic density, (4,2) does not
    energy = solve_energy(k, 2)
    config = _small_config(k=k)
    plans = compile_plans(energy, config.n_modes)
    functionals = ("dEk_exact", "dEk_decomposition", "E_k", "F_k", "hamiltonian")
    assert plans.names == functionals + (("cubic",) if energy.cubic_coefficient else ())
    assert plans.record.size == len(plans.names)
    u = initial_state(config)
    values = dict(zip(plans.names, plans.record.evaluate_real(u)))
    row = observe(u, 0.0, energy, config, plans)
    assert set(row) == set(CSV_COLUMNS) | {"dEk_decomposition", "fd_rel_error",
                                           "decomposition_rel_error"}
    for name in functionals:
        assert row[name] == values[name]
    assert row["cubic_remainder"] == float(energy.cubic_coefficient) * values.get("cubic", 0.0)


@pytest.mark.parametrize("k", [6, 3])
def test_a_record_derivative_is_its_rest_plus_the_image(k):
    # the record equals, bit for bit, a plan that evaluates the power image
    # of F as a functional of its own, added to each rest afterwards
    energy = solve_energy(k, 2)
    assert energy.cubic_coefficient
    config = RunConfig(k=k, n_modes=64, record_dt=0.25, decay=3.0, r_h1=1.0)
    plans = compile_plans(energy, config.n_modes)
    separate = DensityPlan((energy.derivative_rest, energy.dispersive_residual(),
                            energy.energy_density(), energy.correction,
                            hamiltonian_density(2), energy.power_image, cubic_density(k, 2)),
                           config.n_modes)
    scfg = SolverConfig(n_modes=config.n_modes, dt=config.dt, p=2)
    for seed in range(3):
        u = initial_state(dataclasses.replace(config, seed=seed))
        # the states at t = 0, 0.5 and 1
        for _ in range(3):
            row = observe(u, 0.0, energy, config, plans)
            values, scales = separate.evaluate(u)
            # the rests are the plan's first two functionals, the image its sixth
            for column, i in (("dEk_exact", 0), ("dEk_decomposition", 1)):
                want = values[i] + values[5]
                assert abs(want.imag) <= 1e-9 * max(1.0, scales[i] + scales[5])
                assert row[column] == want.real
            u = evolve(u, scfg, 500)


@pytest.mark.parametrize("k,p", [(5, 3), (12, 4)])
def test_the_record_derivatives_equal_the_expanded_oracle(k, p):
    # dEk_exact and dEk_decomposition evaluate the power image of F along
    # the flow; the expanded densities are the oracle
    energy = solve_energy(k, p)
    config = _small_config(k=k, p=p, n_modes=32, seed=2)
    u = initial_state(config)
    row = observe(u, 0.0, energy, config, compile_plans(energy, config.n_modes))
    for column, density in (("dEk_exact", energy.exact_derivative),
                            ("dEk_decomposition", energy.residual_density())):
        (want,), (scale,) = DensityPlan((density,), config.n_modes).evaluate(u)
        assert abs(row[column] - want.real) <= 1e-11 * scale
