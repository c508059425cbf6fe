"""End-to-end command line checks through click's test runner."""

import dataclasses
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from nlsenergy import cli, harness
from nlsenergy.algebra import Density, density_to_text
from nlsenergy.cli import main
from nlsenergy.energy import (POWER_IMAGE_REFERENCE, InfeasibleSystemError,
                              export_energy, import_energy, save_energy,
                              solve_energy)
from nlsenergy.harness import RunConfig, run_experiment

FAST = ["--n-modes", "16", "--dt", "1e-3", "--t-end", "0.01"]


def invoke(*args):
    return CliRunner().invoke(main, list(args))


def assert_usage_error(*args):
    """Exit 1 with one `Error:` line: a traceback is exit 1 to CliRunner too."""
    result = invoke(*args)
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert len([line for line in result.stderr.splitlines() if line.startswith("Error")]) == 1


HUGE = str(2 ** 70)


def test_build_rejects_small_indices():
    assert_usage_error("build", "--k", "1", "--p", "2")
    assert_usage_error("build", "--k", "2", "--p", "0")
    # and those past MAX_KP, before any catalogue is built
    assert_usage_error("build", "--k", HUGE, "--p", "2")
    assert_usage_error("build", "--k", "3", "--p", HUGE)
    assert_usage_error("build", "--k", "76", "--p", "2")
    assert_usage_error("crosscheck", "--k", HUGE)


def test_build_prints_table_and_writes_document(tmp_path):
    out = tmp_path / "e62.json"
    result = invoke("build", "--k", "6", "--p", "2", "--out", str(out))
    assert result.exit_code == 0
    assert "cubic_coeff = -2" in result.output
    assert "mixed_u[2]" in result.output
    assert import_energy(out) == solve_energy(6, 2)


def test_verify_single_pair_passes():
    result = invoke("verify", "--k", "2", "--p", "2")
    assert result.exit_code == 0
    assert "all checks passed" in result.output
    assert "[FAIL]" not in result.output


def test_verify_range_syntax():
    assert_usage_error("verify", "--k", "9..2", "--p", "2")
    assert_usage_error("verify", "--k", "two", "--p", "2")
    assert_usage_error("verify", "--k", "1", "--p", "2")
    # a range past MAX_KP is refused before any list of it is built
    assert_usage_error("verify", "--k", f"2..{10 ** 12}", "--p", "2")
    assert_usage_error("verify", "--p", f"2..{10 ** 21}")


def test_verify_over_a_range_checks_each_index():
    result = invoke("verify", "--k", "2..3", "--p", "2")
    assert result.exit_code == 0, result.output
    solves = [line for line in result.output.splitlines() if " solve: " in line]
    assert [line.split()[1] for line in solves] == ["k=2", "k=3"]
    assert result.output.splitlines()[-1] == "all checks passed"


def test_verify_with_a_failing_check_exits_3(monkeypatch):
    original = cli.verify_identities

    def one_failure(k, p):
        report = original(k, p)
        report.checks[0] = dataclasses.replace(report.checks[0], passed=False)
        return report

    monkeypatch.setattr(cli, "verify_identities", one_failure)
    result = invoke("verify", "--k", "2", "--p", "2")
    assert result.exit_code == 3
    assert len([line for line in result.output.splitlines() if line.startswith("[FAIL]")]) == 1
    assert result.stderr.splitlines() == ["1 check(s) failed"]
    assert "all checks passed" not in result.output


def test_an_energy_document_named_like_json_text_is_read_as_a_path(
        tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    save_energy(solve_energy(5, 2), "{run}.json")
    assert import_energy("{run}.json") == solve_energy(5, 2)
    result = invoke("simulate", "--k", "5", "--p", "2", "--energy", "{run}.json",
                    *FAST, "--out", "r.csv")
    assert result.exit_code == 0, result.output
    assert (tmp_path / "r.csv").exists()


def test_simulate_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        result = invoke("simulate", "--k", "2", "--p", "2", "--seed", "5",
                        *FAST, "--out", str(out))
        assert result.exit_code == 0, result.output
        assert "bound_ratio_max" in result.output
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv.meta.json").exists()


def test_simulate_rejects_mismatched_energy_document(tmp_path):
    doc = tmp_path / "e32.json"
    save_energy(solve_energy(3, 2), doc)
    out = tmp_path / "never.csv"
    result = invoke("simulate", "--k", "2", "--p", "2", *FAST,
                    "--energy", str(doc), "--out", str(out))
    assert result.exit_code == 1
    assert "energy document is for (k=3, p=2)" in result.stderr
    assert not out.exists()


def test_mismatched_energy_document_is_refused_before_it_is_validated(tmp_path, monkeypatch):
    doc = tmp_path / "e124.json"
    save_energy(solve_energy(12, 4), doc)

    def never(source):
        raise AssertionError("import_energy called on a mismatched document")

    monkeypatch.setattr(cli, "import_energy", never)
    out = tmp_path / "never.csv"
    result = invoke("simulate", "--k", "2", "--p", "2", *FAST,
                    "--energy", str(doc), "--out", str(out))
    assert result.exit_code == 1
    assert ("energy document is for (k=12, p=4) but the run wants (k=2, p=2)"
            in result.stderr)
    assert not out.exists()


def test_simulate_refuses_a_schema_1_document(tmp_path):
    # a schema-1 document wrote the power image of F_k out in full
    energy = solve_energy(3, 2)
    doc = export_energy(energy)
    image = density_to_text(energy.residual_nonlinear)
    doc.update(schema_version=1, residual_theta=image,
               exact_derivative=doc["exact_derivative"].replace(POWER_IMAGE_REFERENCE, image))
    path = tmp_path / "e1.json"
    path.write_text(json.dumps(doc, indent=2))
    out = tmp_path / "never.csv"
    result = invoke("simulate", "--k", "3", "--p", "2", *FAST,
                    "--energy", str(path), "--out", str(out))
    assert result.exit_code == 1
    assert "Traceback" not in result.output
    assert [line for line in result.stderr.splitlines() if line.startswith("Error")] == [
        "Error: bad energy document: unsupported schema_version 1 (expected 3)"]
    assert not out.exists()


def test_simulate_uses_validated_document(tmp_path):
    doc = tmp_path / "e22.json"
    save_energy(solve_energy(2, 2), doc)
    out = tmp_path / "run.csv"
    result = invoke("simulate", "--k", "2", "--p", "2", *FAST,
                    "--energy", str(doc), "--out", str(out))
    assert result.exit_code == 0
    assert out.exists()


def test_config_document_with_flag_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"k": 2, "p": 2, "n_modes": 16, "dt": 1e-3,
                               "t_end": 0.01, "seed": 4}))
    out = tmp_path / "r.csv"
    result = invoke("simulate", "--config", str(cfg), "--seed", "9",
                    "--out", str(out))
    assert result.exit_code == 0, result.output
    meta = json.loads((tmp_path / "r.csv.meta.json").read_text())
    assert meta["config"]["seed"] == 9          # flag wins
    assert meta["config"]["n_modes"] == 16      # document fills the rest
    assert meta["config"]["t_end"] == 0.01


def test_a_config_document_that_is_no_object_is_a_usage_error(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps([{"seed": 1}]))
    out = tmp_path / "never.csv"
    result = invoke("simulate", "--config", str(cfg), *FAST, "--out", str(out))
    assert result.exit_code == 1
    errors = [line for line in result.stderr.splitlines() if line.startswith("Error")]
    assert errors == ["Error: config document must be a JSON object"]
    assert not out.exists()


def test_bad_preset_in_config_document(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"preset": "solitons"}))
    result = invoke("simulate", "--config", str(cfg), *FAST,
                    "--out", str(tmp_path / "x.csv"))
    assert result.exit_code == 1


@pytest.mark.parametrize("flag,value", [
    ("--n-modes", "48"), ("--dt", "nan"), ("--dt", "inf"), ("--t-end", "inf"),
    ("--seed", "-1"),
    # a config document's values, which JSON may type as floats
    ("--config", {"seed": 1.5}), ("--config", {"fd_substeps": 10.0}),
    ("--config", {"n_modes": 16.0}),
])
def test_simulate_rejects_bad_run_flags_as_usage_errors(tmp_path, flag, value):
    out = tmp_path / "never.csv"
    fast = FAST
    if flag == "--config":
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(value))
        value, fast = str(cfg), []   # FAST's --n-modes would override the document
    result = invoke("simulate", "--k", "2", "--p", "2", *fast, flag, value,
                    "--out", str(out))
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert "Error:" in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["build", "simulate"])
def test_out_in_a_missing_folder_fails_before_any_work(tmp_path, monkeypatch, command):
    def no_work(*args):
        raise AssertionError("solved or integrated before checking --out")

    monkeypatch.setattr(cli, "solve_energy", no_work)
    monkeypatch.setattr(harness, "run_experiment", no_work)
    out = tmp_path / "missing" / "never.out"
    extra = FAST if command == "simulate" else []
    result = invoke(command, "--k", "2", "--p", "2", *extra, "--out", str(out))
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert result.stderr.strip().splitlines() == [f"Error: cannot write {out}: "
                                                  f"{out.parent} is not a writable folder"]
    assert not out.parent.exists()


@pytest.mark.parametrize("command", ["build", "simulate"])
def test_an_empty_out_fails_before_any_work(monkeypatch, command):
    def no_work(*args):
        raise AssertionError("solved or integrated before checking --out")

    monkeypatch.setattr(cli, "solve_energy", no_work)
    monkeypatch.setattr(harness, "run_experiment", no_work)
    extra = FAST if command == "simulate" else []
    result = invoke(command, "--k", "2", "--p", "2", *extra, "--out", "")
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.strip().splitlines() == ["Error: cannot write an empty --out path"]


@pytest.mark.parametrize("command", ["build", "simulate"])
def test_an_out_naming_a_folder_fails_before_any_work(tmp_path, monkeypatch, command):
    def no_work(*args):
        raise AssertionError("solved or integrated before checking --out")

    monkeypatch.setattr(cli, "solve_energy", no_work)
    monkeypatch.setattr(harness, "run_experiment", no_work)
    monkeypatch.chdir(tmp_path)
    extra = FAST if command == "simulate" else []
    result = invoke(command, "--k", "2", "--p", "2", *extra, "--out", f"newdir{os.sep}")
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.strip().splitlines() == [
        f"Error: cannot write newdir{os.sep}: it ends in a path separator, so it names "
        "a folder, not a file"]
    assert list(tmp_path.iterdir()) == []


def test_build_reports_a_failed_write_in_one_line(tmp_path, monkeypatch):
    def refuse(energy, path):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(cli, "save_energy", refuse)
    out = tmp_path / "e.json"
    result = invoke("build", "--k", "2", "--p", "2", "--out", str(out))
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.strip().splitlines() == [
        f"Error: cannot write {out}: Permission denied"]


def test_out_of_range_plane_wave_mode_in_config_document(tmp_path):
    cfg = tmp_path / "wave.json"
    cfg.write_text(json.dumps({"preset": "planewave", "mode": 40}))
    out = tmp_path / "never.csv"
    result = invoke("simulate", "--config", str(cfg), "--k", "2", "--p", "2",
                    "--out", str(out))
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert "mode 40 not representable with 64 modes" in result.stderr
    assert not out.exists()


def test_crosscheck_within_tolerance():
    result = invoke("crosscheck", "--k", "2", "--p", "2", "--n-modes", "32")
    assert result.exit_code == 0, result.output
    assert "within tolerance" in result.output


def test_crosscheck_over_its_tolerance_exits_3(monkeypatch):
    monkeypatch.setattr(harness, "FD_TOLERANCE", 0)
    result = invoke("crosscheck", "--k", "2", "--p", "2", "--n-modes", "32")
    assert result.exit_code == 3
    assert "tol 0)" in result.output
    assert result.stderr.splitlines() == ["tolerance violated"]
    assert "within tolerance" not in result.output


def test_crosscheck_prints_the_first_record_of_the_run():
    flags = dict(k=3, n_modes=32, seed=4, t_end=0.01)
    result = invoke("crosscheck", *(f"--{name.replace('_', '-')}={value}"
                                    for name, value in flags.items()))
    assert result.exit_code == 0, result.output
    printed = [line.split("=")[1].split()[0] for line in result.output.splitlines()[:3]]
    first = run_experiment(RunConfig(**flags), solve_energy(3, 2))[0]
    assert first["t"] == 0.0
    assert printed == [f"{first[key]:+.12e}"
                       for key in ("dEk_exact", "dEk_decomposition", "dEk_fd")]


# the overflow that ends the run must not warn on its way to the abort
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_crosscheck_that_blows_up_aborts_with_exit_3(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"amplitude": 1e100}))
    result = invoke("crosscheck", "--k", "2", "--preset", "planewave",
                    "--config", str(cfg))
    assert result.exit_code == 3
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert "aborted: non-finite" in result.stderr


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["simulate", "crosscheck"])
@pytest.mark.parametrize("amplitude", [1e40, 1e200])
def test_a_non_finite_functional_value_aborts_with_exit_3(tmp_path, command, amplitude):
    # the ten-factor terms of dE_k/dt overflow at the first record, and at
    # 1e200 so would the norms of a record if they came first
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"amplitude": amplitude, "preset": "planewave"}))
    out = tmp_path / "never.csv"
    extra = ["--out", str(out)] if command == "simulate" else []
    result = invoke(command, "--k", "6", "--n-modes", "16", "--t-end", "0.01",
                    "--config", str(cfg), *extra)
    assert result.exit_code == 3
    assert isinstance(result.exception, SystemExit)
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("aborted: non-finite"), lines
    assert "within tolerance" not in result.output
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["simulate", "crosscheck"])
@pytest.mark.parametrize("decay", ["-1000", "-250"], ids=["spectrum", "norm"])
def test_a_negative_decay_out_of_range_aborts_with_exit_3(tmp_path, command, decay):
    # at -1000 the spectrum (1+|n|)^(-decay) overflows, at -250 its H^1 norm:
    # either would otherwise end in a traceback or in a rescaled zero state
    out = tmp_path / "never.csv"
    extra = ["--out", str(out)] if command == "simulate" else []
    result = invoke(command, "--k", "2", "--t-end", "0.002", "--decay", decay, *extra)
    assert result.exit_code == 3
    assert isinstance(result.exception, SystemExit)
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("aborted: non-finite"), lines
    assert not out.exists()


@pytest.mark.parametrize("flags,document,field", [
    (["--t-end", "1e300", "--dt", "1e-10"], None, "t_end / dt"),
    (["--n-modes", "4611686018427387904"], None, "n_modes"),
    # representable, but 1e305 steps
    (["--t-end", "1e300", "--dt", "1e-5"], None, "t_end / dt"),
    # a JSON int of 401 digits, which no float holds
    ([], '{"t_end": 1' + "0" * 400 + "}", "t_end must be a finite number"),
], ids=["step-count", "n-modes", "step-bound", "int-past-float"])
def test_a_run_too_large_to_represent_is_a_usage_error(tmp_path, monkeypatch, flags,
                                                       document, field):
    def no_solve(k, p):
        raise AssertionError("solved before the config was checked")

    monkeypatch.setattr(cli, "solve_energy", no_solve)
    if document is not None:
        cfg = tmp_path / "run.json"
        cfg.write_text(document)
        flags = ["--config", str(cfg)]
    out = tmp_path / "never.csv"
    result = invoke("simulate", "--k", "2", *flags, "--out", str(out))
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    errors = [line for line in result.stderr.splitlines() if line.startswith("Error")]
    assert len(errors) == 1 and field in errors[0], result.stderr
    assert not out.exists()


@pytest.mark.parametrize("document", [
    b'{"t_end": 1' + b"0" * 5000 + b"}",     # past Python's int digit limit
    b'{"preset": "\xe9"}',                   # not UTF-8
    b"[" * 200000 + b"]" * 200000,           # nested past the parser's recursion limit
], ids=["int-digit-limit", "not-utf8", "nested"])
def test_an_unreadable_config_document_is_a_usage_error(tmp_path, document):
    cfg = tmp_path / "run.json"
    cfg.write_bytes(document)
    out = tmp_path / "never.csv"
    result = invoke("simulate", "--k", "2", "--config", str(cfg), "--out", str(out))
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    errors = [line for line in result.stderr.splitlines() if line.startswith("Error")]
    assert len(errors) == 1 and errors[0].startswith("Error: cannot read config document")
    assert not out.exists()


def test_run_flag_defaults_are_the_run_config_defaults():
    defaults = {f.name: f.default for f in dataclasses.fields(RunConfig)}
    for command in (cli.simulate, cli.crosscheck):
        flags = {param.name: param.default for param in command.params
                 if param.name in defaults}
        assert len(flags) == 9
        assert flags == {name: defaults[name] for name in flags}


def _energy_document(tmp_path, **changes):
    doc = export_energy(solve_energy(2, 2))
    doc.update(changes)
    path = tmp_path / "e.json"
    path.write_text(json.dumps(doc))
    return path


def _written(tmp_path, data: bytes):
    path = tmp_path / "e.json"
    path.write_bytes(data)
    return path


@pytest.mark.parametrize("write", [
    lambda tmp_path: _energy_document(tmp_path, k="2"),
    lambda tmp_path: _energy_document(tmp_path, k=1),
    lambda tmp_path: _written(tmp_path, b'{"schema_version": 1, "k": "\xe9"}'),
    lambda tmp_path: _written(tmp_path, b"[" * 200000 + b"]" * 200000),
], ids=["k-as-text", "k-below-two", "not-utf8", "nested"])
def test_unusable_energy_document_is_a_usage_error(tmp_path, write):
    out = tmp_path / "never.csv"
    result = invoke("simulate", "--k", "2", "--p", "2", *FAST,
                    "--energy", str(write(tmp_path)), "--out", str(out))
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert "bad energy document: malformed energy document" in result.stderr
    assert not out.exists()


def test_zero_state_runs_to_completion(tmp_path):
    out = tmp_path / "zero.csv"
    result = invoke("simulate", "--k", "3", "--p", "2", "--n-modes", "16",
                    "--t-end", "0.01", "--r-h1", "0", "--out", str(out))
    assert result.exit_code == 0, result.output
    assert "bound_ratio_max=0.000000e+00" in result.output
    assert out.exists()


@pytest.mark.parametrize("args", [
    ["build", "--k", "2", "--p", "2"],
    ["verify", "--k", "2", "--p", "2"],
    ["simulate", "--k", "2", "--p", "2", *FAST],
])
def test_infeasible_system_reports_message_and_residual(monkeypatch, tmp_path, args):
    def infeasible(k, p):
        raise InfeasibleSystemError(f"no solution for (k={k}, p={p})",
                                    Density.monomial((1,), (1,)))

    monkeypatch.setattr(cli, "solve_energy", infeasible)
    monkeypatch.chdir(tmp_path)
    result = invoke(*args)
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert "infeasible: no solution for (k=2, p=2)" in result.stderr
    assert "residual: " in result.stderr
    assert not (tmp_path / "report.csv").exists()


# a simulate that announces on stdout when its stepper is running
_ANNOUNCED_SIMULATE = """
import sys
from nlsenergy import cli, harness
trajectory = harness._trajectory
def announced(config, u_hat):
    print("stepping", flush=True)
    return trajectory(config, u_hat)
harness._trajectory = announced
cli.main(["simulate", "--k", "2", "--t-end", "1000", "--out", sys.argv[1]])
"""


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods()
                    or not hasattr(os, "killpg"), reason="needs fork and process groups")
def test_an_interrupted_simulate_prints_only_aborted(tmp_path):
    # Ctrl-C reaches the terminal's whole process group, the forked stepper
    # included: only Click's message, no stepper traceback, nothing left
    src = Path(cli.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH")))))
    out = tmp_path / "never.csv"
    proc = subprocess.Popen([sys.executable, "-c", _ANNOUNCED_SIMULATE, str(out)],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        assert proc.stdout.readline() == "stepping\n"
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert (proc.returncode, err.strip()) == (1, "Aborted!")
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
    assert not out.exists()


def test_readme_commands_exist():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    named = set(re.findall(r"^\s*nlsenergy (\w+)", readme, flags=re.MULTILINE))
    assert named
    assert named <= set(main.commands)
    assert "monitor" not in main.commands
