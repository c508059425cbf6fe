"""Benchmark of the exact-energy pipeline and the spectral monitor.

    python3 perfbench/run.py --workload monitor-k6 --seed 1 --seconds 20 --trace 0

Runs whole rounds of one workload (or of every workload, with
`--workload all`) for at least `--seconds`, checks every output, and
prints one `metric <name> <value> <unit>` line per metric followed, as the
last line, by one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  With `--trace 0` the JSON holds the end-to-end metrics of
BENCHMARK.json; with `--trace 1` it holds the per-layer metrics, taken
from one extra traced round after the untraced ones.  See README.md.
"""

import bootstrap

bootstrap.load_package()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer, layer_metrics, muladd_per_s, run_probes, self_time_table  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170


def spawn(task: str, payload: dict) -> dict:
    """Run one stage in a fresh interpreter and return its JSON result."""
    proc = subprocess.run(
        [sys.executable, str(bootstrap.BENCH / "worker.py"), task, json.dumps(payload)],
        cwd=bootstrap.ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {task} exited {proc.returncode}: {proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def peak_rss_mb() -> float:
    """Largest resident set of this process or any stage it ran (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and the report lines."""
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=bootstrap.ROOT) as tmp:
        workdir = Path(tmp)
        setups, checks, rounds = [], [], []
        traced = raised = None
        workload = WORKLOADS[name](seed, workdir, tiny, spawn)
        tracer = Tracer() if trace else None
        wanted = 0 if trace else SETUP_SAMPLES
        setup_dir = workdir / "setup"
        setup_dir.mkdir()

        def set_up():
            begin = time.perf_counter()
            spawn("setup", {"workload": name, "seed": seed, "tiny": tiny,
                            "workdir": str(setup_dir)})
            setups.append(time.perf_counter() - begin)

        try:
            checks += workload.prepare(tracer)
            start = time.perf_counter()
            while not rounds or time.perf_counter() - start < seconds:
                # set-ups are spread over the run: the shared machine's speed
                # changes over seconds, and back-to-back samples share one spell
                if len(setups) < wanted and \
                        time.perf_counter() - start >= len(setups) * seconds / wanted:
                    set_up()
                rounds.append(workload.round())
            while len(setups) < wanted:
                set_up()
            if trace:
                traced = workload.round(tracer)
                run_probes(tracer, workdir)
            checks += workload.finish()
        except Exception as exc:  # the run stops; the failure is counted and reported
            raised = (f"{name} raised", False, f"{type(exc).__name__}: {exc}")
        done = rounds + ([traced] if traced else [])
        for r in done:
            checks += r.checks
        if raised:
            checks.append(raised)

    failed = [c for c in checks if not c[1]]
    lines = [f"workload {name} seed {seed} rounds {len(rounds)}"]
    lines += [f"check FAIL {c[0]} {c[2]}".rstrip() for c in failed]
    if raised:
        metrics = {}
    elif trace:
        data = tracer.export()
        overhead = traced.seconds - statistics.median(r.seconds for r in rounds)
        metrics = layer_metrics(data, muladd_per_s(), overhead)
        lines += self_time_table(data)
    else:
        metrics = {
            "round_s": {"value": statistics.median(r.seconds for r in rounds), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
        lines += [f"metric {key} {value!r} {unit}" for key, (value, unit)
                  in workload.stage_metrics(rounds).items()]
    lines += [f"metric {key} {m['value']!r} {m['unit']}" for key, m in metrics.items()]
    result = {"correct": not failed,
              "attempted": sum(r.ops for r in done) + len(checks),
              "failed": len(failed),
              "metrics": metrics}
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result, lines = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines), flush=True)
        if len(names) > 1:
            print(f"result {name} {json.dumps(result)}", flush=True)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            (key if len(names) == 1 else f"{name}.{key}", value)
            for key, value in result["metrics"].items())
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
