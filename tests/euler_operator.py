"""The Euler operators of a density: an oracle for "zero modulo integration
by parts" that shares no code with `nlsenergy.reduction`.

A differential polynomial in u and conj(u) integrates to zero over the
circle for every smooth periodic u exactly when it is a total derivative,
and that holds exactly when both of its Euler operators vanish (Olver,
*Applications of Lie Groups to Differential Equations*, GTM 107,
Thm. 4.7: the kernel of the Euler operator is the total divergences).
With u and conj(u) treated as independent fields,

    E_u(L) = sum_j (-D)^j dL/du_j,

where u_j is the j-th derivative of u and D the total derivative, and
likewise E_conj(u).  The images here are computed from plain tuples and
Fractions: a polynomial is a dict from (part, plain orders, conjugated
orders) to a Fraction, where part 0 holds the real parts of the
coefficients and part 1 the imaginary parts.  Every operation below has
integer coefficients, so the two parts never mix and an image vanishes
exactly when both of its parts do.
"""

from fractions import Fraction


def polynomial(density) -> dict:
    """The terms of a `Density` as {(part, u orders, conj orders): Fraction}."""
    poly = {}
    for monomial, coeff in density.terms():
        u, c = tuple(sorted(monomial.u_orders)), tuple(sorted(monomial.c_orders))
        for part, value in ((0, coeff.re), (1, coeff.im)):
            if value:
                poly[(part, u, c)] = Fraction(value)
    return poly


def _add(acc: dict, key, value):
    total = acc.get(key, 0) + value
    if total:
        acc[key] = total
    else:
        acc.pop(key, None)


def _bumped(orders: tuple, index: int) -> tuple:
    return tuple(sorted(orders[:index] + (orders[index] + 1,) + orders[index + 1:]))


def total_derivative(poly: dict) -> dict:
    """D of a polynomial, by the Leibniz rule over every factor."""
    out = {}
    for (part, u, c), value in poly.items():
        for i in range(len(u)):
            _add(out, (part, _bumped(u, i), c), value)
        for i in range(len(c)):
            _add(out, (part, u, _bumped(c, i)), value)
    return out


def _partial(poly: dict, conjugated: bool) -> dict:
    """{j: dL/du_j} (or d/dconj(u)_j) for every order j that occurs."""
    by_order: dict[int, dict] = {}
    for (part, u, c), value in poly.items():
        block = c if conjugated else u
        for j in set(block):
            i = block.index(j)
            rest = block[:i] + block[i + 1:]
            key = (part, u, rest) if conjugated else (part, rest, c)
            _add(by_order.setdefault(j, {}), key, value * block.count(j))
    return by_order


def euler_image(poly: dict, conjugated: bool = False) -> dict:
    """E_u(L), or E_conj(u)(L), as a polynomial.

    Horner's scheme in -D: P_0 - D(P_1 - D(P_2 - ...)), so each total
    derivative is taken once, of a sum in which terms have cancelled.
    """
    parts = _partial(poly, conjugated)
    acc: dict = {}
    for j in range(max(parts, default=-1), -1, -1):
        acc = {key: -value for key, value in total_derivative(acc).items()}
        for key, value in parts.get(j, {}).items():
            _add(acc, key, value)
    return acc


def is_total_derivative(density) -> bool:
    """True exactly when the density integrates to zero for every periodic u."""
    poly = polynomial(density)
    return not euler_image(poly) and not euler_image(poly, conjugated=True)
