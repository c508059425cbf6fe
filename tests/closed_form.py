"""The solved energies in closed form: every coefficient known as a
formula in k and p, against `solve_energy`.

With the catalogue free of entries that no energy contains, the
cancellation system has full rank, so these formulas are its unique
solution, not a normalisation the solver picked.  Every coefficient is
a polynomial of degree at most 2 in p.  The index-3 weights of the
aligned families and of mixed_u, and every weight at index 4 and above,
are not known in closed form; `open_entries` names them.

Run as a script to check a wider grid than the test suite does:

    PYTHONPATH=src python tests/closed_form.py --k-max 20 --p-max 5
"""

import argparse
import sys
import time
from fractions import Fraction
from math import comb

from nlsenergy.energy import solve_energy


def coefficients(k: int, p: int) -> dict[str, Fraction]:
    """The catalogue coefficients known in closed form at (k, p)."""
    known = {"aligned_u[1]": Fraction(p), "mixed_u[1]": Fraction(k * (p + 1))}
    for h in range(1, min(3, k // 3) + 1):
        known[f"mixed_c[{h}]"] = Fraction((-1) ** h * comb(k + h - 1, 2 * h - 1)
                                          * p * (p + 1))
    if k == 4:
        # the degenerate case: mixed_u has no entry at index 2 yet
        known["aligned_u[2]"] = Fraction(-7, 3) * p * (p - 1)
        known["aligned_c[2]"] = Fraction(-12 * p * (p + 1))
    elif k >= 5:
        known["aligned_u[2]"] = Fraction(-(k * k - 2), 2) * p * (p - 1)
        known["aligned_c[2]"] = Fraction(-k * k, 2) * p * (p + 1)
        known["mixed_u[2]"] = Fraction(-k * (k * k + 2), 3) * p * (p + 1)
    return known


def cubic_coefficient(k: int, p: int) -> Fraction:
    """The weight of the cubic term: nonzero exactly when 3 | k."""
    return Fraction((-1) ** (k // 3 + 1) * p * (p - 1)) if k % 3 == 0 else Fraction(0)


def open_entries(names) -> list[str]:
    """The entries among `names` whose weights have no closed form here:
    index 3 and above, mixed_c from index 4."""
    def index(name):
        return int(name.rstrip("]").split("[")[1])

    return [name for name in names
            if index(name) >= (4 if name.startswith("mixed_c") else 3)]


def mismatches(k: int, p: int) -> list[str]:
    """Where `solve_energy(k, p)` differs from the closed form."""
    energy = solve_energy(k, p)
    known = coefficients(k, p)
    found = [f"({k},{p}) {name}: solved {energy.coefficients.get(name)}, formula {value}"
             for name, value in known.items() if energy.coefficients.get(name) != value]
    unstated = [name for name in energy.coefficients if name not in known]
    if unstated != open_entries(energy.coefficients):
        found.append(f"({k},{p}) entries without a formula: {unstated}")
    if energy.cubic_coefficient != cubic_coefficient(k, p):
        found.append(f"({k},{p}) cubic: solved {energy.cubic_coefficient}, "
                     f"formula {cubic_coefficient(k, p)}")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--k-max", type=int, default=20)
    parser.add_argument("--p-max", type=int, default=5)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    cells = [(k, p) for k in range(2, args.k_max + 1) for p in range(2, args.p_max + 1)]
    found = [line for k, p in cells for line in mismatches(k, p)]
    for line in found:
        print(line)
    print(f"{len(cells)} cells, k 2..{args.k_max} x p 2..{args.p_max}: "
          f"{len(found)} mismatches in {time.perf_counter() - start:.1f} s")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
