"""One benchmark stage in a fresh interpreter, so the package starts cold.

    python3 perfbench/worker.py setup|build|validate '<json payload>'

Prints one JSON line: the stage's timings, checks and (when traced) its
aggregated spans.  `setup` only imports the package and prepares a
workload's inputs; its caller times the whole process.
"""

import bootstrap

bootstrap.load_package()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import STAGES, WORKLOADS  # noqa: E402


def main():
    task, payload = sys.argv[1], json.loads(sys.argv[2])
    workdir = Path(payload["workdir"])
    if task == "setup":
        WORKLOADS[payload["workload"]](payload["seed"], workdir, payload["tiny"], None).prepare()
        print("{}")
        return
    tracer = Tracer() if payload["trace"] else None
    r = STAGES[task](payload["arg"], workdir, tracer)
    print(json.dumps({"stages": r.stages, "checks": r.checks, "ops": r.ops,
                      "trace": tracer.export() if tracer else None}))


if __name__ == "__main__":
    main()
