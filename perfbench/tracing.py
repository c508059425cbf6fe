"""Span recorder for the traced benchmark run, and the per-layer metrics.

Spans are opened by the benchmark around its own calls into the package
and, while `Tracer.patched()` is active, around the public functions one
module calls in the next (the names are looked up in the calling module's
namespace, so only calls that cross a module boundary are timed).  Spans
are aggregated as they close: per name, the call count, the inclusive time
and the self time, which is the inclusive time minus the part covered by
direct child spans.  Counts are recorded at the same boundaries.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

from nlsenergy import (GaussianRational, RunConfig, energy, harness,
                       run_experiment, solve_energy, spectral, write_report)
from nlsenergy.reduction import SectorReducer

# reducer construction reached from inside the cached dispersive reducer is
# already covered by that function's own span
_CACHED_REDUCER = "energy.dispersive_reducer"


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.values: defaultdict = defaultdict(float)
        self._stack: list[list] = []  # [name, seconds covered by children]
        self.last_seconds = 0.0  # duration of the span closed last

    @property
    def open_names(self) -> list[str]:
        return [name for name, _ in self._stack]

    @contextlib.contextmanager
    def span(self, name: str):
        self._stack.append([name, 0.0])
        start = time.perf_counter()
        try:
            yield
        finally:
            seconds = time.perf_counter() - start
            _, covered = self._stack.pop()
            self.calls[name] += 1
            self.total[name] += seconds
            self.self_s[name] += seconds - covered
            if self._stack:
                self._stack[-1][1] += seconds
            self.last_seconds = seconds

    def add(self, key: str, amount: float):
        self.values[key] += amount

    def _wrapped(self, original, name, hook):
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if hook is not None:
                hook(self, args, result, self.last_seconds)
            return result
        return wrapper

    @contextlib.contextmanager
    def patched(self):
        """Time the cross-module calls listed in `_BOUNDARIES` until exit."""
        saved = []
        try:
            for owner, attr, name, hook in _BOUNDARIES:
                original = owner.__dict__.get(attr) if isinstance(owner, type) \
                    else getattr(owner, attr, None)
                if original is None:
                    continue  # the boundary no longer exists; its metrics read 0
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrapped(original, name, hook))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def export(self) -> dict:
        return {"calls": dict(self.calls), "total": dict(self.total),
                "self": dict(self.self_s), "values": dict(self.values)}

    def merge(self, data: dict):
        self.calls.update(data["calls"])
        for field, target in (("total", self.total), ("self", self.self_s),
                              ("values", self.values)):
            for key, value in data[field].items():
                target[key] += value


# -- hooks: counts recorded where the work happens -----------------------------

def _outermost(tracer: Tracer) -> str:
    names = tracer.open_names
    return names[0] if names else "none"


def _reducer_built(tracer, args, result, seconds):
    tracer.add("reducer_build_in." + _outermost(tracer), seconds)


def _reducer_part(tracer, args, result, seconds):
    if _CACHED_REDUCER not in tracer.open_names:
        tracer.add("reducer_build_in." + _outermost(tracer), seconds)


def _sector_enumerated(tracer, args, result, seconds):
    tracer.add("reduction.sector_monomials", len(result))
    _reducer_part(tracer, args, result, seconds)


def _echelon_built(tracer, args, result, seconds):
    reducer = args[0]
    tracer.add("reduction.generators", len(getattr(reducer, "generators", ())))
    tracer.add("reduction.rank", getattr(reducer, "rank", 0))
    _reducer_part(tracer, args, result, seconds)


def _evolved(tracer, args, result, seconds):
    n_modes, n_steps = len(args[0]), args[2]
    tracer.add(f"evolve_s.n{n_modes}", seconds)
    tracer.add(f"evolve_steps.n{n_modes}", n_steps)
    if tracer.open_names[-1:] == ["harness.run_experiment"]:
        tracer.add("harness.evolve_s", seconds)


def _density_evaluated(tracer, args, result, seconds):
    tracer.add("spectral.monomials", len(args[1]))


_BOUNDARIES = (
    (energy, "dt_linear", "algebra.dt_linear", None),
    (energy, "dt_nonlinear", "algebra.dt_nonlinear", None),
    (energy, "dt_evolution", "algebra.dt_evolution", None),
    (energy, "dispersive_reducer", "energy.dispersive_reducer", _reducer_built),
    (energy, "enumerate_monomials", "reduction.enumerate_monomials", _sector_enumerated),
    (energy, "ibp_generators", "reduction.ibp_generators", _reducer_part),
    (SectorReducer, "__init__", "reduction.reducer_build", _echelon_built),
    (SectorReducer, "reduce", "reduction.reduce", None),
    (harness, "observe", "harness.observe", None),
    (harness, "derivative_crosscheck", "harness.crosscheck", None),
    (harness, "evolve", "spectral.evolve", _evolved),
    (spectral, "evolve", "spectral.evolve", _evolved),
    (spectral, "evaluate_density", "spectral.evaluate_density", _density_evaluated),
)


# -- probes: layers a workload never reaches ----------------------------------

def run_probes(tracer: Tracer, workdir: Path):
    """Time, on a small fixed input, each spectral and harness layer the
    traced round did not reach, so every per-layer metric is measured on
    every workload.  The symbolic layers are reached by every workload."""
    energy_2_2 = None if tracer.calls["harness.observe"] else solve_energy(2, 2)
    with tracer.patched():
        if energy_2_2 is not None:
            config = RunConfig(k=2, p=2, n_modes=64, dt=1e-3, t_end=0.2, record_dt=0.1)
            with tracer.span("harness.run_experiment"):
                rows = run_experiment(config, energy_2_2)
            path = workdir / "probe.csv"
            with tracer.span("harness.write_report"):
                write_report(path, rows, config, energy_2_2)
            tracer.add("harness.csv_bytes", path.stat().st_size)
        for n_modes in (64, 256):
            if not tracer.values[f"evolve_steps.n{n_modes}"]:
                spectral.evolve(spectral.random_state(n_modes, 0),
                                spectral.SolverConfig(n_modes=n_modes, dt=1e-3, p=2), 500)


def muladd_per_s(ops: int = 50_000, repeats: int = 3) -> float:
    """GaussianRational multiply-add rate on the coefficients of the solved
    (k=6, p=2) exact derivative, the median of `repeats` timings."""
    coefficients = [c for _, c in solve_energy(6, 2).exact_derivative.terms()]
    n = len(coefficients)
    rates = []
    for _ in range(repeats):
        start = time.perf_counter()
        acc = GaussianRational(0)
        for i in range(ops):
            acc = acc + coefficients[i % n] * coefficients[(7 * i + 3) % n]
        rates.append(ops / (time.perf_counter() - start))
    return statistics.median(rates)


# -- per-layer metrics ---------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(data: dict, muladd_per_s: float, overhead_s: float) -> dict:
    """Per-layer metrics from an exported (and merged) trace."""
    calls, total, values = data["calls"], data["total"], data["values"]

    def t(name):
        return total.get(name, 0.0)

    def v(name):
        return values.get(name, 0.0)

    def step_us(n):
        return 1e6 * _ratio(v(f"evolve_s.n{n}"), v(f"evolve_steps.n{n}"))

    solve = t("energy.solve_energy") - v("reducer_build_in.energy.solve_energy")
    load = t("energy.import_energy") - v("reducer_build_in.energy.import_energy")
    metrics = {
        "rational.muladd_per_s": (muladd_per_s, "1/s"),
        "algebra.dt_linear_s": (t("algebra.dt_linear"), "s"),
        "algebra.dt_nonlinear_s": (t("algebra.dt_nonlinear"), "s"),
        "algebra.dt_evolution_s": (t("algebra.dt_evolution"), "s"),
        "algebra.exact_derivative_terms": (v("algebra.exact_derivative_terms"), "count"),
        "reduction.ibp_generators_s": (t("reduction.ibp_generators"), "s"),
        "reduction.reducer_build_s": (t("reduction.reducer_build"), "s"),
        "reduction.reduce_s": (t("reduction.reduce"), "s"),
        "reduction.generators": (v("reduction.generators"), "count"),
        "reduction.sector_monomials": (v("reduction.sector_monomials"), "count"),
        "reduction.rank": (v("reduction.rank"), "count"),
        "reduction.reduce_calls": (calls.get("reduction.reduce", 0), "count"),
        "reduction.generator_yield": (
            _ratio(v("reduction.rank"), v("reduction.generators")), "ratio"),
        "energy.solve_s": (solve, "s"),
        "energy.import_s": (load, "s"),
        "energy.verify_identities_s": (t("energy.verify_identities"), "s"),
        "energy.document_bytes": (v("energy.document_bytes"), "bytes"),
        "spectral.evolve_step_us.n64": (step_us(64), "us"),
        "spectral.evolve_step_us.n256": (step_us(256), "us"),
        "spectral.evaluate_density_s": (t("spectral.evaluate_density"), "s"),
        "spectral.evaluate_monomials_per_s": (
            _ratio(v("spectral.monomials"), t("spectral.evaluate_density")), "1/s"),
        "harness.observe_ms_per_record": (
            1e3 * _ratio(t("harness.observe"), calls.get("harness.observe", 0)), "ms"),
        "harness.crosscheck_s": (t("harness.crosscheck"), "s"),
        "harness.evolve_s": (v("harness.evolve_s"), "s"),
        "harness.write_report_s": (t("harness.write_report"), "s"),
        "harness.csv_bytes": (v("harness.csv_bytes"), "bytes"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return {name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()}


def self_time_table(data: dict) -> list[str]:
    rows = sorted(data["self"].items(), key=lambda kv: -kv[1])
    return [f"span {name} calls={data['calls'][name]} total_s={data['total'][name]:.6f} "
            f"self_s={seconds:.6f}" for name, seconds in rows]
