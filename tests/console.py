"""The four commands as a user runs them: each as `python -m nlsenergy.cli`
in a fresh process, in a temporary folder.  Each bad input of `ERRORS` and
`ABORTS` must end by one rule (`ends`), and each function of `CHECKS`
pins an output or a run.  No command may print a traceback or a warning.

    PYTHONPATH=src python tests/console.py

prints one [PASS] or [FAIL] line per case and exits 1 if any failed.
"""

import functools
import hashlib
import json
import os
import shlex
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import nlsenergy
from nlsenergy import build_catalogue, export_energy, solve_energy

ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [  # this package, from anywhere
    str(Path(nlsenergy.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")])))
FAST = "--n-modes 16 --t-end 0.01"
DOC = f"simulate --k 3 --p 2 {FAST} --energy"

# each command and the text of its one line: ERRORS exit 1, ABORTS exit 3
ERRORS = [
    (f"{DOC} swapped.json --out swapped.csv", "bad energy document"),
    (f"{DOC} coefficient.json --out coefficient.csv", "not a fraction n or n/d"),
    (f"{DOC} cubic.json --out cubic.csv", "not a fraction n or n/d"),
    (f"{DOC} schema2.json --out schema2.csv", "unsupported schema_version 2 (expected 3)"),
    (f"{DOC} deep.json --out deep.csv", "bad energy document: malformed"),
    ("simulate --k 2 --config deep.json --out deep.csv", "cannot read config document"),
    ("build --k 2 --p 2 --out ''", "empty --out"),
    (f"simulate --k 2 {FAST} --out ''", "empty --out"),
    (f"build --k 3 --p {2 ** 70} --out past.json", "k * p must be at most 150"),
    (f"build --k {2 ** 70} --p 2 --out past.json", "k * p must be at most 150"),
    ("verify --k 2..1000000000000 --p 2", "k * p must be at most 150"),
    (f"crosscheck --k {2 ** 70}", "k * p must be at most 150"),
    ("simulate --k 2 --config sub.json --out sub.csv", "fd_substeps must be at most"),
    (f"simulate --k 2 {FAST} --config tiny.json --out tiny.csv", "must be positive"),
    (f"simulate --k 2 {FAST} --config wide.json --out wide.csv", "fd_substeps = 1e+307 is"),
    (f"simulate --k 2 {FAST} --config phase.json --out phase.csv", "dt = 1e+307 is too large"),
    ("simulate --k 2 --t-end 1e300 --dt 1e-10 --out steps.csv", "the step counts t_end / dt"),
    ("simulate --k 2 --t-end 1e300 --dt 1e-5 --out bound.csv", "the step counts t_end / dt"),
    ("simulate --k 2 --config huge.json --out huge.csv", "t_end must be a finite number"),
]
ABORTS = [
    (f"simulate --k 6 {FAST} --config big.json --out big.csv", "non-finite"),
    ("simulate --k 2 --t-end 0.002 --decay -1000 --out decay.csv", "non-finite random"),
    # the record fails while the stepper is in a first block of 10**7 steps
    ("simulate --k 6 --config blow.json --out blow.csv", "non-finite functional values"),
    ("simulate --k 2 --n-modes 16 --dt 1e300 --t-end 1e300 --r-h1 1e6 --out step.csv",
     "non-finite Fourier coefficients"),
]
PINS = ["2058b81b5a012e58264c350dc0905d74b5ac9d0742e195b8b42d5554afdc0346",   # e16.json
        "620e3a38c21a748f8ee6356a85093f6233c8c66c4c68cb30c6acbec96f3fe142"]   # verify lines


def expect(condition, reason: str):
    if not condition:
        raise AssertionError(reason)


def run(command: str, status: int = 0, timeout: float = 120, **env) -> subprocess.CompletedProcess:
    """`nlsenergy <command>` exits `status` with no traceback and no warning, and
    ends within `timeout` s with every process it started (they share its stderr)."""
    try:
        done = subprocess.run([sys.executable, "-m", "nlsenergy.cli", *shlex.split(command)],
                              capture_output=True, text=True, env={**ENV, **env}, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise AssertionError(f"it or a process it started did not end in {timeout} s")
    wrong = [word for word in ("Traceback", "Warning") if word in done.stderr]
    expect(done.returncode == status and not wrong,
           f"exit {done.returncode} (want {status}) {' '.join(wrong)}\n{done.stderr}")
    return done


def ends(args: str, status: int, prefix: str, message: str, report, timeout: float):
    """`nlsenergy <args>` exits `status` with one stderr line, besides click's
    usage hint, that starts with `prefix`, `message` in its stderr, no
    traceback and no warning, and leaves no `report` behind."""
    err = run(args, status, timeout).stderr
    lines = [line for line in err.splitlines() if line and not line.startswith(("Usage:", "Try"))]
    expect(len(lines) == 1 and lines[0].startswith(prefix), f"not one {prefix!r} line\n{err}")
    expect(message in err, f"no {message!r}\n{err}")
    expect(not (report and Path(report).exists()), f"{report} left behind")


def inputs() -> dict:
    doc = export_energy(solve_energy(3, 2))
    terms = doc["F_k"].split(" + ")
    first = next(iter(doc["coefficients"]))
    # schema 2 also named the entries at index k//3 + 1 = 2, which no energy holds
    schema2 = {f"{family}[{h}]": doc["coefficients"].get(f"{family}[{h}]", "0")
               for h in (1, 2) for family in ("aligned_u", "aligned_c", "mixed_u", "mixed_c")
               if (family, h) != ("aligned_c", 1)}
    return {"e": doc, "swapped": dict(doc, F_k=" + ".join([terms[1], terms[0], *terms[2:]])),
            "coefficient": dict(doc, coefficients={**doc["coefficients"], first: "1e10000000"}),
            "cubic": dict(doc, cubic_coeff="1e10000000"),
            "schema2": dict(doc, schema_version=2, coefficients=schema2),
            "sub": {"fd_substeps": 10 ** 12}, "tiny": {"fd_delta": 5e-324},
            "wide": {"fd_delta": 1e308}, "many": {"record_dt": 0.001},
            "phase": {"dt": 1e307, "t_end": 1e307, "record_dt": 1e307},
            "big": {"amplitude": 1e40, "preset": "planewave"},
            "blow": {"preset": "planewave", "amplitude": 1e40, "t_end": 10000, "record_dt": 10000}}


def pinned_outputs():
    """e16.json (< 3 MB) and verify's lines match their pins; verify --k 2..14 < 130 MB"""
    run("build --k 16 --p 5 --out e16.json")
    out = run("verify --k 2..8 --p 2..3").stdout
    digests = [hashlib.sha256(text.encode()).hexdigest()
               for text in (Path("e16.json").read_text(), out)]
    expect(digests == PINS, f"e16.json and the verify lines hash to {digests}")
    expect(Path("e16.json").stat().st_size < 3_000_000, "e16.json has 3 MB or more")
    got = Counter(line for line in out.splitlines() if "starstar[" in line)
    want = Counter(f"[PASS] k={k} p={p} starstar[{entry.name}] in class"
                   for k in range(2, 9) for p in (2, 3) for entry in build_catalogue(k, p))
    expect(got == want, f"starstar lines differ: {sorted((got - want) + (want - got))}")
    # keeping every solved energy took 170 MB; wait4 reads this child's peak alone
    proc = subprocess.Popen([sys.executable, "-m", "nlsenergy.cli", "verify", "--k", "2..14",
                             "--p", "2..5"], stdout=subprocess.DEVNULL, env=ENV)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    expect(proc.returncode == 0, f"verify exited {proc.returncode}")
    expect(usage.ru_maxrss / 1024 < 130, f"verify --k 2..14 peaks at {usage.ru_maxrss >> 10} MB")


def crosscheck_is_the_first_record():
    """crosscheck --k 4 --seed 7 prints the t=0 row of that run's report"""
    out = run("crosscheck --k 4 --seed 7").stdout   # exit 0: within tolerance
    run("simulate --k 4 --seed 7 --t-end 0.01 --out k4.csv")
    printed = {label.strip(): value.split()[0] for label, value in
               (line.split("=", 1) for line in out.splitlines() if "=" in line)}
    first = dict(zip(*(line.split(",") for line in Path("k4.csv").read_text().splitlines()[:2])))
    got = [printed[f"dE/dt {name}"] for name in ("exact", "finite diff")]
    want = [f"{float(first[column]):+.12e}" for column in ("dEk_exact", "dEk_fd")]
    expect(first["t"] == "0.0" and got == want, f"crosscheck printed {got}, the t=0 row {want}")


def runs():
    """reports are byte-reproducible; 302 records of 1024 modes; no numpy.random"""
    for out in ("m.csv", "m2.csv"):
        run(f"simulate --k 6 --n-modes 32 --t-end 0.05 --out {out}")
    for suffix in ("", ".meta.json"):
        expect(Path(f"m.csv{suffix}").read_bytes() == Path(f"m2.csv{suffix}").read_bytes(),
               f"m.csv{suffix} and m2.csv{suffix} differ")
    run("simulate --k 2 --n-modes 1024 --t-end 0.301 --config many.json --out many.csv")
    rows = len(Path("many.csv").read_text().splitlines())
    expect(rows == 303, f"many.csv has {rows} lines")
    err = run(f"{DOC} e.json --out imports.csv", PYTHONPROFILEIMPORTTIME="1").stderr
    expect("numpy.random" not in err, "numpy.random was imported")


CHECKS = [pinned_outputs, crosscheck_is_the_first_record, runs]


def main() -> int:
    cases = [(c, functools.partial(ends, c, status, prefix, message,
                                   shlex.split(c)[-1] if "--out" in c else None, timeout))
             for table, status, prefix, timeout in ((ERRORS, 1, "Error", 10),
                                                    (ABORTS, 3, "aborted:", 60))
             for c, message in table]
    cases += [(check.__doc__, check) for check in CHECKS]
    failed = 0
    with tempfile.TemporaryDirectory() as folder:
        os.chdir(folder)
        for name, value in inputs().items():
            Path(f"{name}.json").write_text(json.dumps(value))
        Path("huge.json").write_text('{"t_end": 1' + "0" * 400 + "}")
        Path("deep.json").write_text("[" * 200000 + "]" * 200000)
        for name, case in cases:
            try:
                case()
                print(f"[PASS] {name}")
            except AssertionError as exc:
                failed += 1
                print(f"[FAIL] {name}: {exc}")
    print(f"{len(cases)} cases, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
