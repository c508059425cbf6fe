"""The paper's mechanism along the flow: the solved correction F flattens
E_k = ||u||^2_{H^k} + F.

On the criterion-7 ensemble (tests/data/bound_golden.json), the range of
hk^2 + w F over a run's records, relative to the range of hk^2, is small
at the solved weight w = 1 and not at other weights.  This is measured
evidence on the stated seeds and sizes, not the paper's theorem.
"""

import functools
import json
from pathlib import Path

import pytest

from nlsenergy.energy import solve_energy
from nlsenergy.harness import RunConfig, run_experiment

GOLDEN = json.loads((Path(__file__).parent / "data" / "bound_golden.json").read_text())
KS = [int(k) for k in GOLDEN["max_ratio"]]

# the worst-seed range ratio at w = 1 is at most 0.367 (k = 4) on this
# ensemble, and at w = 0.5 at least 0.485: the bound separates the two
FLAT = 0.45


@functools.lru_cache(maxsize=None)
def _ensemble_rows(k: int) -> tuple:
    """The rows of the criterion-7 runs of one k, one list per seed."""
    shared = GOLDEN["config"]
    energy = solve_energy(k, shared["p"])
    return tuple(
        run_experiment(RunConfig(k=k, p=shared["p"], n_modes=shared["n_modes"],
                                 dt=shared["dt"], t_end=shared["t_end"],
                                 record_dt=shared["record_dt"], decay=shared["decay"],
                                 r_h1=shared["r_h1"], seed=seed), energy)
        for seed in shared["seeds"])


def _range_ratio(k: int, weight: float) -> float:
    """range(hk^2 + weight F) / range(hk^2) over each run's records, at
    the worst seed."""
    def spread(values):
        return max(values) - min(values)

    return max(spread([r["hk"] ** 2 + weight * r["F_k"] for r in rows])
               / spread([r["hk"] ** 2 for r in rows])
               for rows in _ensemble_rows(k))


def test_the_solved_correction_flattens_e_k_along_the_flow():
    ratios = {k: round(_range_ratio(k, 1.0), 3) for k in KS}
    assert max(ratios.values()) <= FLAT, ratios


@pytest.mark.parametrize("weight", [0.0, 0.5, 2.0, -1.0])
def test_another_weight_on_f_does_not_flatten_e_k(weight):
    ratios = {k: round(_range_ratio(k, weight), 3) for k in KS}
    assert min(ratios.values()) > FLAT, ratios
