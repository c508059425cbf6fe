"""End-to-end command line checks through click's test runner."""

import json
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from nlsenergy import cli
from nlsenergy.algebra import Density
from nlsenergy.cli import main
from nlsenergy.energy import (InfeasibleSystemError, export_energy,
                              import_energy, save_energy, solve_energy)

FAST = ["--n-modes", "16", "--dt", "1e-3", "--t-end", "0.01"]


def invoke(*args):
    return CliRunner().invoke(main, list(args))


def test_build_rejects_small_indices():
    assert invoke("build", "--k", "1", "--p", "2").exit_code == 1
    assert invoke("build", "--k", "2", "--p", "0").exit_code == 1


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
    assert invoke("verify", "--k", "9..2", "--p", "2").exit_code == 1
    assert invoke("verify", "--k", "two", "--p", "2").exit_code == 1
    assert invoke("verify", "--k", "1", "--p", "2").exit_code == 1


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


def test_bad_preset_in_config_document(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"preset": "solitons"}))
    result = invoke("simulate", "--config", str(cfg), *FAST,
                    "--out", str(tmp_path / "x.csv"))
    assert result.exit_code == 1


@pytest.mark.parametrize("flag,value", [
    ("--n-modes", "48"), ("--dt", "nan"), ("--dt", "inf"), ("--t-end", "inf"),
])
def test_simulate_rejects_bad_run_flags_as_usage_errors(tmp_path, flag, value):
    out = tmp_path / "never.csv"
    result = invoke("simulate", "--k", "2", "--p", "2", *FAST, flag, value,
                    "--out", str(out))
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert "Error:" in result.stderr
    assert not out.exists()


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


def _energy_document(tmp_path, **changes):
    doc = export_energy(solve_energy(2, 2))
    doc.update(changes)
    path = tmp_path / "e.json"
    path.write_text(json.dumps(doc))
    return path


def _non_utf8_file(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"schema_version": 1, "k": "\xe9"}')
    return path


@pytest.mark.parametrize("write", [
    lambda tmp_path: _energy_document(tmp_path, k="2"),
    lambda tmp_path: _energy_document(tmp_path, k=1),
    lambda tmp_path: _non_utf8_file(tmp_path),
], ids=["k-as-text", "k-below-two", "not-utf8"])
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


def test_readme_commands_exist():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    named = set(re.findall(r"^\s*nlsenergy (\w+)", readme, flags=re.MULTILINE))
    assert named
    assert named <= set(main.commands)
    assert "monitor" not in main.commands
