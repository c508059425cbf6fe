"""Pseudo-spectral integration and exact-quadrature functional evaluation.

Fields live on the 2*pi torus as arrays of Fourier coefficients in FFT
layout (frequencies 0..N/2-1, -N/2..-1).  Time stepping is Strang
splitting: the linear half-steps are exact diagonal rotations and the
gauge nonlinearity is an exact pointwise rotation on a padded grid, so
the only splitting error is the operator commutator.  :func:`evolve` is
the one stepping kernel.  It keeps the state on the padded spectrum for
the whole call, in buffers allocated once, and applies each merged
linear step as a masked phase: the phase over the padded length on the
retained modes and zero elsewhere, so one product is the linear step,
the normalisation of the forward FFT and the projection back onto the
retained modes.

Density functionals are evaluated by exact quadrature.  Each density is
compiled once into a :class:`DensityPlan` that groups its monomials by
factor count q: a group evaluates all of its distinct derivative grids
with one batched inverse FFT on the grid of n_modes*(q//2+1) points, at
least the q*n_modes/2 + 1 that make the quadrature exact for the
product's bandwidth, then gathers, multiplies and averages the factor
grids of every term at once.  Pair monomials (one factor of each
conjugation) instead sum an explicit per-mode symbol, which keeps the
large cancellations between high-order terms exact in floating point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Density, Monomial
from .energy import EnergyDefinition, hamiltonian_density


class BlowupError(RuntimeError):
    """The numerical state left the finite floating-point range."""


def _check_modes(n_modes: int):
    if n_modes < 8 or n_modes & (n_modes - 1):
        raise ValueError(f"n_modes must be a power of two >= 8, got {n_modes}")


def wavenumbers(n_modes: int) -> np.ndarray:
    """Integer frequencies in FFT layout."""
    return np.fft.fftfreq(n_modes, 1.0 / n_modes).astype(np.int64)


@dataclass(frozen=True)
class SolverConfig:
    """Stepper parameters; padding_factor defaults to the dealiasing
    minimum p+1 and may only be raised."""

    n_modes: int
    dt: float
    p: int = 2
    padding_factor: int = 0

    def __post_init__(self):
        _check_modes(self.n_modes)
        if not np.isfinite(self.dt) or self.dt == 0:
            raise ValueError(f"dt must be finite and nonzero, got {self.dt}")
        if not isinstance(self.p, int) or self.p < 2:
            raise ValueError(f"p must be an int >= 2, got {self.p!r}")
        if self.padding_factor == 0:
            object.__setattr__(self, "padding_factor", self.p + 1)
        elif self.padding_factor < self.p + 1:
            raise ValueError(
                f"padding_factor {self.padding_factor} below dealiasing minimum {self.p + 1}")


def _linear_phase(n: np.ndarray, dt: float) -> np.ndarray:
    return np.exp(-1j * n * n * dt)


def _check_finite(u_hat: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(u_hat)):
        raise BlowupError("non-finite Fourier coefficients; reduce dt or the data size")
    return u_hat


def evolve(u_hat: np.ndarray, config: SolverConfig, n_steps: int) -> np.ndarray:
    """n_steps of Strang splitting with interior half-steps merged.

    The state stays on the padded spectrum of m = padding_factor*n_modes
    slots for the whole call; the spectrum, the grid, the angle and the
    rotation are allocated once and every step writes into them.  A step
    takes the unnormalised inverse FFT to the grid, rotates each grid
    value g by exp(-i dt |g|^(2p)), with the angle built from |g|^2 by
    p-1 multiplications and the rotation from its cosine and sine, and
    transforms back.  The merged linear step between two rotations is
    one product with a masked phase, exp(-i n^2 dt)/m on the retained
    slots and zero elsewhere: the linear step, the 1/m of the forward
    FFT and the projection onto the retained modes at once.  The last
    half-step applies the half phase over m to the gathered slots.

    Merging the half-steps halves the rounding work of repeated single
    steps, which measurably improves conservation over long runs.
    Raises BlowupError if the result is not finite.
    """
    if n_steps <= 0:
        return u_hat
    m = config.padding_factor * config.n_modes
    n = wavenumbers(config.n_modes)
    slots = n % m
    n = n.astype(float)
    half = _linear_phase(n, 0.5 * config.dt)
    full = np.zeros(m, dtype=complex)
    full[slots] = _linear_phase(n, config.dt) / m
    spec = np.zeros(m, dtype=complex)
    spec[slots] = u_hat * half
    g = np.empty(m, dtype=complex)
    rot = np.empty(m, dtype=complex)
    angle = np.empty(m)
    g_re, g_im, rot_re, rot_im = g.real, g.imag, rot.real, rot.imag
    neg_dt = -config.dt
    # overflow here surfaces as a BlowupError at the finiteness check
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            if i:
                spec *= full
            np.fft.ifft(spec, norm="forward", out=g)
            # |g|^2 first goes through the rotation buffer as scratch
            np.multiply(g_re, g_re, out=rot_re)
            np.multiply(g_im, g_im, out=rot_im)
            np.add(rot_re, rot_im, out=rot_re)
            np.multiply(rot_re, neg_dt, out=angle)
            for _ in range(config.p - 1):
                angle *= rot_re                       # -dt |g|^(2p)
            np.cos(angle, out=rot_re)
            np.sin(angle, out=rot_im)
            g *= rot
            np.fft.fft(g, out=spec)
    return _check_finite(spec[slots] * (half / m))


# -- initial data -----------------------------------------------------------

def _check_mode(mode: int, n_modes: int):
    if not isinstance(mode, (int, np.integer)) or not -n_modes // 2 <= mode < n_modes // 2:
        raise ValueError(f"mode {mode} not representable with {n_modes} modes")


def plane_wave(amplitude: complex, mode: int, n_modes: int) -> np.ndarray:
    _check_modes(n_modes)
    _check_mode(mode, n_modes)
    u = np.zeros(n_modes, dtype=complex)
    u[mode % n_modes] = amplitude
    return u


def plane_wave_solution(amplitude: complex, mode: int, p: int, t: float,
                        n_modes: int) -> np.ndarray:
    """Exact single-mode solution: the phase rotates at mode^2 + |A|^(2p)."""
    omega = mode ** 2 + abs(amplitude) ** (2 * p)
    return plane_wave(amplitude * np.exp(-1j * omega * t), mode, n_modes)


def random_state(n_modes: int, seed: int, decay: float = 3.0,
                 r_h1: float = 1.0) -> np.ndarray:
    """Random-phase data with |u_hat(n)| = (1+|n|)^(-decay) on |n| <= N/4,
    rescaled to the requested first-order Sobolev norm.  The draw order is
    fixed (n ascending), so states are seed-reproducible."""
    _check_modes(n_modes)
    rng = np.random.default_rng(seed)
    u = np.zeros(n_modes, dtype=complex)
    quarter = n_modes // 4
    for n in range(-quarter, quarter + 1):
        u[n % n_modes] = (1 + abs(n)) ** (-decay) * np.exp(2j * np.pi * rng.random())
    return u * (r_h1 / sobolev_norm(u, 1))


# -- norms and functionals --------------------------------------------------

def l2_norm(u_hat: np.ndarray) -> float:
    return float(np.sqrt(2 * np.pi * np.sum(np.abs(u_hat) ** 2)))


def sobolev_norm(u_hat: np.ndarray, k: int) -> float:
    n = wavenumbers(len(u_hat)).astype(float)
    return float(np.sqrt(2 * np.pi * np.sum((1 + n ** (2 * k)) * np.abs(u_hat) ** 2)))


def momentum(u_hat: np.ndarray) -> float:
    n = wavenumbers(len(u_hat)).astype(float)
    return float(2 * np.pi * np.sum(n * np.abs(u_hat) ** 2))


# -- density evaluation -----------------------------------------------------

# the terms x grid product buffer holds at most 2**14 complex values
# (256 KiB) whatever the grid size, so it stays in cache and a run's peak
# memory stays close to that of a one-monomial-at-a-time evaluation
_CHUNK_VALUES = 1 << 14


class DensityValue(complex):
    """A functional's value together with the size of the terms summed for
    it, sum |c_j v_j|: the scale its floating-point residue is relative to."""

    __slots__ = ("term_scale",)

    def __new__(cls, value: complex, term_scale: float):
        self = super().__new__(cls, value)
        self.term_scale = float(term_scale)
        return self


class _FactorGroup:
    """The monomials of one factor count q, as arrays: the distinct
    derivative orders, a terms x q index of each factor into the stacked
    plain and conjugated grids of those orders, and the coefficients."""

    def __init__(self, q: int, terms: list[tuple[Monomial, complex]]):
        self.q = q
        self.orders = sorted({order for m, _ in terms for order, _ in m.factors()})
        row = {order: i for i, order in enumerate(self.orders)}
        conj_offset = len(self.orders)
        self.index = np.array(
            [[row[order] + conj_offset * conjugated for order, conjugated in m.factors()]
             for m, _ in terms], dtype=np.intp).reshape(len(terms), q)
        self.coeffs = np.array([c for _, c in terms], dtype=complex)

    def terms(self, u_hat: np.ndarray) -> np.ndarray:
        """c_j v_j for every term, v_j by exact quadrature on the group's grid.

        The product of q factors of bandwidth N/2 has bandwidth q*N/2; the
        grid of N*(q//2+1) points has at least q*N/2 + 1 of them for every
        N >= 8, so the mean does not alias.
        """
        n_modes = len(u_hat)
        q = self.q
        m = n_modes * (q // 2 + 1)
        n = wavenumbers(n_modes)
        spec = np.zeros((len(self.orders), m), dtype=complex)
        ik = 1j * n.astype(float)
        for i, order in enumerate(self.orders):
            spec[i, n % m] = u_hat * ik ** order
        plain = np.fft.ifft(spec, axis=1) * m
        grids = np.concatenate([plain, np.conj(plain)])
        values = np.empty(len(self.coeffs), dtype=complex)
        rows = max(1, _CHUNK_VALUES // m)
        for start in range(0, len(values), rows):
            index = self.index[start:start + rows]
            prod = np.ones((len(index), m), dtype=complex)
            for j in range(q):
                prod *= grids[index[:, j]]
            values[start:start + rows] = prod.mean(axis=1)
        return self.coeffs * (2 * np.pi * values)


class DensityPlan:
    """A density compiled for repeated numerical evaluation.

    Monomials are grouped by factor count, except pair monomials
    (signature (1, 1, .)), which take the per-mode symbol path.  Build
    plans through :func:`compile_density`, which compiles each density
    once.
    """

    def __init__(self, density: Density):
        self.is_real_valued = density.is_real_valued
        by_q: dict[int, list] = {}
        self.pairs = []
        for m, c in density.terms():
            if m.signature[:2] == (1, 1):
                self.pairs.append((m.u_orders[0], m.c_orders[0], complex(c)))
            else:
                by_q.setdefault(len(m.u_orders) + len(m.c_orders), []).append((m, complex(c)))
        self.groups = [_FactorGroup(q, terms) for q, terms in sorted(by_q.items())]

    def evaluate(self, u_hat: np.ndarray) -> DensityValue:
        _check_modes(len(u_hat))
        value, scale = 0j, 0.0
        for group in self.groups:
            terms = group.terms(u_hat)
            value += terms.sum()
            scale += np.abs(terms).sum()
        if self.pairs:
            # per mode: the sum of the symbols c (in)^a (-in)^b, and of
            # their magnitudes |c| |n|^(a+b)
            n = wavenumbers(len(u_hat)).astype(float)
            symbol = np.zeros(len(u_hat), dtype=complex)
            magnitude = np.zeros(len(u_hat))
            for a, b, c in self.pairs:
                symbol = symbol + c * (1j * n) ** a * (-1j * n) ** b
                magnitude = magnitude + abs(c) * np.abs(n) ** (a + b)
            power = np.abs(u_hat) ** 2
            value += 2 * np.pi * np.sum(symbol * power)
            scale += 2 * np.pi * np.sum(magnitude * power)
        return DensityValue(value, scale)


def compile_density(density: Density) -> DensityPlan:
    """The evaluation plan of a density, compiled on first use and then kept
    on the density, which never changes after construction."""
    plan = density._plan
    if plan is None:
        plan = density._plan = DensityPlan(density)
    return plan


def evaluate_density(u_hat: np.ndarray, density: Density) -> DensityValue:
    """Exact-quadrature value of an integrated density at a state.

    Each factor-count group is averaged on its own exact grid, and pair
    monomials take the per-mode symbol path (exact cancellation between
    terms of one mode, which grid quadrature cannot guarantee in floating
    point).
    """
    return compile_density(density).evaluate(u_hat)


def evaluate_real(u_hat: np.ndarray, density: Density) -> float:
    """Value of a conjugation-fixed functional; the imaginary part is pure
    floating-point residue and must sit far below the size of the terms
    summed for the value."""
    if not compile_density(density).is_real_valued:
        raise ValueError("density is not conjugation-fixed; use evaluate_density")
    v = evaluate_density(u_hat, density)
    if abs(v.imag) > 1e-9 * max(1.0, v.term_scale):
        raise ArithmeticError(
            f"imaginary residue {v.imag:.3e} too large for real value {v.real:.3e} "
            f"(terms of size {v.term_scale:.3e})")
    return v.real


def hamiltonian(u_hat: np.ndarray, p: int) -> float:
    return evaluate_real(u_hat, hamiltonian_density(p))


def energy_value(u_hat: np.ndarray, energy: EnergyDefinition) -> float:
    return evaluate_real(u_hat, energy.energy_density())
