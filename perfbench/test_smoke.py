"""Fast smoke test of the benchmark itself: every workload and every check
runs to its end on tiny inputs, untraced and traced, and reports exactly
the metrics BENCHMARK.json names.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json

import pytest

import run  # noqa: F401  (puts the checkout's package on the path first)
from bootstrap import ROOT
from workloads import WORKLOADS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_and_checks(name, trace):
    result, lines = run.run_workload(name, seed=3, seconds=0, trace=trace, tiny=True)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["correct"], lines
    assert result["failed"] == 0
    assert result["attempted"] > 0
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_workload_names_match_the_spec():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


def test_a_raising_program_is_counted_and_reported(monkeypatch):
    def broken(self, tracer=None):
        raise ArithmeticError("broken on purpose")

    monkeypatch.setattr(WORKLOADS["longrun-evolve"], "round", broken)
    result, lines = run.run_workload("longrun-evolve", seed=3, seconds=0, trace=True,
                                     tiny=True)
    assert not result["correct"]
    assert result["failed"] == 1
    assert result["attempted"] > result["failed"]
    assert any("ArithmeticError: broken on purpose" in line for line in lines)
