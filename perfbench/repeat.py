"""Run the benchmark several times and summarise the spread of each metric.

    python3 perfbench/repeat.py --workload monitor-k6 --runs 10 --first-seed 1

Each run is a separate `run.py` process with its own seed (first-seed,
first-seed+1, ...).  For every metric a run prints, the summary gives the
median, the first and third quartiles (`statistics.quantiles(n=4)`) and
the quartile distance as a share of the median.  For an end-to-end metric
it also prints the bound from BENCHMARK.json and flags a spread above a
third of it.  Each run's line lists its end-to-end values, so the runs of
two commits can be set side by side.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int, seconds: int) -> tuple[dict, dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"run with seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    values = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            values[parts[1]] = float(parts[2])
    return json.loads(lines[-1]), values, [line for line in lines if line.startswith("check FAIL")]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    args = parser.parse_args(argv)

    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result, values, failures = one_run(args.workload, seed, args.seconds)
        runs.append({"seed": seed, "result": result, "values": values})
        measured = " ".join(f"{name}={m['value']:.6g}" for name, m in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {measured}", *failures, sep="\n  ", flush=True)

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    shares = {r["result"]["failed"] / r["result"]["attempted"] for r in runs}
    print(f"failed share per run: {sorted(shares)}")
    print(f"{'metric':<36} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}  bound")
    # a run that stopped on an exception reports no metrics
    for name in dict.fromkeys(name for r in runs for name in r["values"]):
        column = [r["values"][name] for r in runs if name in r["values"]]
        if len(column) < 2:
            continue
        q1, _, q3 = statistics.quantiles(column, n=4)
        med = statistics.median(column)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = f"{bound:g}" + ("  WIDE" if spread > bound / 3 and name != "setup_s" else "")
        print(f"{name:<36} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f}  {flag}")


if __name__ == "__main__":
    main()
