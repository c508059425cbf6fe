"""Acceptance gate.

One criterion per test, one printed PASS/FAIL line per criterion, every
tolerance stated inline.  These are the checks the package must keep
passing; nothing here may be loosened without a recorded decision.
"""

import json
import time
from pathlib import Path

import numpy as np
import sympy

from nlsenergy.algebra import dt_linear
from nlsenergy.energy import (Family, basic_density, correction_density,
                              cubic_density, dispersive_reducer,
                              hamiltonian_density, solve_energy,
                              verify_exact_conservation, verify_identities)
from nlsenergy.harness import (RunConfig, compile_plans, initial_state, observe,
                               run_experiment)
from nlsenergy.reduction import MonomialClass, classify
from nlsenergy.spectral import (DensityPlan, SolverConfig, evolve, l2_norm,
                                plane_wave, random_state)

DATA = Path(__file__).parent / "data"

KS = range(2, 9)
PS = (2, 3)


def _criterion(n: int, label: str, passed: bool, detail: str):
    print(f"criterion {n}: {'PASS' if passed else 'FAIL'} - {label} ({detail})",
          flush=True)
    assert passed, f"criterion {n} failed: {label} ({detail})"


def test_criterion_1_energies_solve_exactly_on_the_grid():
    """Every (k, p) with 2 <= k <= 8, p in {2, 3} admits an exact modified
    energy, solved in rational arithmetic within 300 s per pair, with each
    residual confined to its class."""
    worst = 0.0
    for k in KS:
        for p in PS:
            start = time.monotonic()
            energy = solve_energy(k, p)
            worst = max(worst, time.monotonic() - start)
            assert energy.correction.is_real_valued
            for m in energy.residual_quartic.monomials():
                assert classify(m, k, p) is MonomialClass.QUARTIC_REMAINDER
            for m in energy.residual_nonlinear.monomials():
                assert classify(m, k, p) is MonomialClass.NONLINEAR_REMAINDER
            for m in energy.correction.monomials():
                assert classify(m, k, p) is MonomialClass.CORRECTION
    _criterion(1, "exact solve on the full grid", worst < 300.0,
               f"slowest pair {worst:.2f}s, budget 300s")


def test_criterion_2_identity_grid():
    """verify_identities passes exactly for every grid pair."""
    bad = []
    for k in KS:
        for p in PS:
            report = verify_identities(k, p)
            bad += [f"k={k} p={p} {c.identity}" for c in report.failures()]
    _criterion(2, "structural identity grid", not bad,
               f"{sum(len(verify_identities(k, p).checks) for k in KS for p in PS)}"
               f" checks, failures: {bad or 'none'}")


# rewrite tables of the dispersive images, columns in catalogue order
K2_MATRIX = [[2, 0], [0, "4p"]]
K3_MATRIX = [
    [2, 0, 0, 0, 0],
    [0, "4p", 2, 0, 0],
    [0, 0, -2, 2, 0],
    [0, 0, -2, 0, 0],
    [0, 0, 0, 0, 2],
]


def _materialize(matrix, p):
    return [[4 * p if v == "4p" else v for v in row] for row in matrix]


def test_criterion_3_rewrite_matrices_and_cubic_weights():
    """The stated k=2 and k=3 rewrite matrices hold as congruences modulo
    total derivatives and quartic remainders, have nonzero determinant,
    and the k=3 cubic weights match their frozen values."""
    failures = []
    for p in PS:
        red2 = dispersive_reducer(2, p)
        basis2 = [basic_density(Family.ALIGNED_U, 2, 0, p),
                  basic_density(Family.MIXED_U, 2, 0, p)]
        cols2 = [correction_density(Family.ALIGNED_U, 2, 1, p),
                 correction_density(Family.MIXED_U, 2, 1, p)]
        m2 = _materialize(K2_MATRIX, p)
        for j, corr in enumerate(cols2):
            delta = dt_linear(corr)
            for i, b in enumerate(basis2):
                delta = delta - b * m2[i][j]
            if not red2.reduce(delta).residual.is_zero:
                failures.append(f"k=2 p={p} column {j}")
        if sympy.Matrix(m2).det() == 0:
            failures.append(f"k=2 p={p} det")

        red3 = dispersive_reducer(3, p)
        basis3 = [basic_density(Family.ALIGNED_U, 3, 0, p),
                  basic_density(Family.MIXED_U, 3, 0, p),
                  basic_density(Family.MIXED_U, 3, 1, p),
                  basic_density(Family.MIXED_C, 3, 0, p),
                  basic_density(Family.ALIGNED_C, 3, 1, p)]
        cols3 = [correction_density(Family.ALIGNED_U, 3, 1, p),
                 correction_density(Family.MIXED_U, 3, 1, p),
                 correction_density(Family.MIXED_C, 3, 1, p),
                 correction_density(Family.MIXED_U, 3, 2, p),
                 correction_density(Family.ALIGNED_C, 3, 2, p)]
        cubic_row = [-2 * (p - 1), 0, 0, 0, 0]
        m3 = _materialize(K3_MATRIX, p)
        for j, corr in enumerate(cols3):
            delta = dt_linear(corr) - cubic_density(3, p) * cubic_row[j]
            for i, b in enumerate(basis3):
                delta = delta - b * m3[i][j]
            if not red3.reduce(delta).residual.is_zero:
                failures.append(f"k=3 p={p} column {j}")
        det = sympy.Matrix(m3).det()
        if det != 64 * p:
            failures.append(f"k=3 p={p} det {det}")
    # frozen cubic weights on the even multiples of three
    for (k, p), want in {(3, 2): 2, (3, 3): 6, (6, 2): -2, (6, 3): -6}.items():
        if solve_energy(k, p).cubic_coefficient != want:
            failures.append(f"cubic({k},{p})")
    _criterion(3, "rewrite matrices and cubic weights", not failures,
               f"failures: {failures or 'none'}")


def test_criterion_4_solver_pillars():
    """Plane-wave error < 1e-8 at T=1; relative mass drift < 1e-12 over
    unit time; Hamiltonian drift shrinks 2nd order under dt halving."""
    config = SolverConfig(n_modes=32, dt=1e-4, p=2)
    got = evolve(plane_wave(0.5, 1, 32), config, 10000)
    # the exact solution: the phase of mode 1 rotates at 1^2 + |A|^(2p)
    exact = plane_wave(0.5 * np.exp(-1j * (1 + 0.5 ** 4) * 1.0), 1, 32)
    wave_err = float(np.max(np.abs(got - exact)))

    u = random_state(64, seed=0)
    v = evolve(u, SolverConfig(n_modes=64, dt=1e-3, p=2), 1000)
    mass_drift = abs(l2_norm(v) ** 2 - l2_norm(u) ** 2) / l2_norm(u) ** 2

    w = random_state(32, seed=11, r_h1=3.0)
    hamiltonian = DensityPlan((hamiltonian_density(2),), 32)
    h0 = hamiltonian.evaluate_real(w)[0]
    errs = []
    for dt, steps in ((1e-2, 100), (5e-3, 200)):
        wt = evolve(w, SolverConfig(n_modes=32, dt=dt, p=2), steps)
        errs.append(abs(hamiltonian.evaluate_real(wt)[0] - h0))
    ratio = errs[0] / errs[1]

    ok = wave_err < 1e-8 and mass_drift < 1e-12 and 2.5 <= ratio <= 6.0
    _criterion(4, "split-step solver pillars", ok,
               f"plane wave {wave_err:.2e} < 1e-8, mass {mass_drift:.2e} < 1e-12, "
               f"Hamiltonian dt-halving ratio {ratio:.2f} in [2.5, 6]")


def test_criterion_5_derivative_crosschecks():
    """At 10 random states per k in 2..6: the residual decomposition equals
    the exact derivative to 1e-9 relative, and a central finite difference
    along the flow matches to 1e-4 relative."""
    worst_dec = worst_fd = 0.0
    for k in range(2, 7):
        energy = solve_energy(k, 2)
        plans = compile_plans(energy, 64)
        for seed in range(10):
            config = RunConfig(k=k, p=2, n_modes=64, seed=seed,
                               fd_delta=2e-5, fd_substeps=10)
            # the t=0 record of a run from random_state(64, seed)
            record = observe(initial_state(config), 0.0, energy, config, plans)
            worst_dec = max(worst_dec, record["decomposition_rel_error"])
            worst_fd = max(worst_fd, record["fd_rel_error"])
    ok = worst_dec < 1e-9 and worst_fd < 1e-4
    _criterion(5, "derivative crosschecks at 50 states", ok,
               f"decomposition {worst_dec:.2e} < 1e-9, finite diff {worst_fd:.2e} < 1e-4")


def test_criterion_6_conservation_is_algebraic():
    """d/dt of mass and Hamiltonian reduce to exactly zero for p in {2, 3},
    with no allowed remainder classes."""
    leftovers = []
    for p in PS:
        for name, residual in verify_exact_conservation(p).items():
            if not residual.is_zero:
                leftovers.append(f"p={p} {name}")
    _criterion(6, "mass and Hamiltonian conservation", not leftovers,
               f"nonzero residuals: {leftovers or 'none'}")


def test_criterion_7_growth_bound_ensemble():
    """Over the frozen ensemble the correction stays below the stated
    multiple of hk^(2(k-2)/(k-1)); at k=2 the monitored ratio is |F| itself."""
    golden = json.loads((DATA / "bound_golden.json").read_text())
    shared = golden["config"]
    seeds = shared["seeds"]
    failures = []
    details = []
    for k_text, limit in golden["max_ratio"].items():
        k = int(k_text)
        energy = solve_energy(k, shared["p"])
        observed = 0.0
        for seed in seeds:
            config = RunConfig(k=k, p=shared["p"], n_modes=shared["n_modes"],
                               dt=shared["dt"], t_end=shared["t_end"],
                               record_dt=shared["record_dt"],
                               decay=shared["decay"], r_h1=shared["r_h1"],
                               seed=seed)
            rows = run_experiment(config, energy)
            observed = max(observed, max(r["bound_ratio"] for r in rows))
            if k == 2:
                if any(r["bound_ratio"] != abs(r["F_k"]) for r in rows):
                    failures.append("k=2 ratio is not |F|")
        details.append(f"k={k} {observed:.4f}<={limit}")
        if observed > limit:
            failures.append(f"k={k} ratio {observed:.4f} above {limit}")
    _criterion(7, "growth-bound ensemble", not failures, ", ".join(details))
