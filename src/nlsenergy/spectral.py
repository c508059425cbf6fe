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
retained modes.  It calls numpy's pocketfft gufuncs directly, not
through ``np.fft.fft`` and ``np.fft.ifft``: at 64 modes the wrappers'
per-call argument handling is about a quarter of a step, and the gufunc
call with the buffers the kernel already keeps is exactly what the
wrappers run.

Density functionals are evaluated by exact quadrature.  A
:class:`DensityPlan` compiles a tuple of densities: it groups the distinct
monomials of all of them by factor count q, evaluates each distinct
monomial once per state, and keeps one row of coefficients per
functional, so each gets its own value and term scale; a functional
given as a tuple is the sum of its parts.  A group evaluates
all of its distinct derivative grids with one batched inverse FFT on the
grid of n_modes*(q//2+1) points, at least the q*n_modes/2 + 1 that make
the quadrature exact for the product's bandwidth, then gathers,
multiplies and averages the factor grids of every monomial at once.  Pair
monomials (one factor of each conjugation) instead sum an explicit
per-mode symbol, which keeps the large cancellations between high-order
terms exact in floating point.

A plan also evaluates a :class:`~nlsenergy.algebra.PowerImage`, the
derivative of a density G along the power field N = -i u^{p+1} conj(u)^p,
without expanding it.  Per state, a group computes N's Fourier
coefficients once, by direct convolution of u's, and the grid of d^a N
for each order a of G's factors, on a grid that also makes the mean of
every row exact.  Each term of G and each distinct factor of it is one
row: the term's other factor grids and d^a N (its conjugate for a
conjugated factor), weighted by the factor's multiplicity.  Rows are
gathered, multiplied and averaged like monomials.  G's few terms take
the place of the many of the expanded image: at k = 12, p = 4, the 29
terms of the correction F give 128 rows for the 6,558 monomials of
dt_nonlinear(F).  A plan is compiled for one grid size:
its grid slots, derivative multipliers and pair symbols are built with
it, and evaluating it changes nothing.  It is an ordinary value and this
module keeps none: a caller that evaluates the same densities at many
states compiles their plan once and holds it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .algebra import Density, Monomial, PowerImage, _check_exponent


def _pocketfft():
    """The gufuncs behind np.fft.fft and np.fft.ifft, which the hot loops
    call directly to skip the wrappers' per-call norm, axis and shape
    handling.  The module is private, but this interface (input, scale
    factor, out; core dimension on the last axis) is the one numpy >= 2.0
    has, and pyproject.toml requires numpy >= 2.0.  Like numpy itself,
    this imports numpy.fft on first use: importing it with this module
    raised the peak RSS of a monitored run by about 0.2 MB."""
    from numpy.fft import _pocketfft_umath
    return _pocketfft_umath


class BlowupError(RuntimeError):
    """The numerical state left the finite floating-point range."""


def _check_modes(n_modes: int):
    # 2**20 modes, a 16 MiB state, is far above any documented run
    if n_modes < 8 or n_modes > 1 << 20 or n_modes & (n_modes - 1):
        raise ValueError(f"n_modes must be a power of two from 8 to 2**20, got {n_modes}")


def _check_phase(n_modes: int, step: float, name: str = "dt"):
    # the linear phase n^2 step of a retained mode, |n| <= n_modes/2, is
    # a finite float, or exp of it warns and the step yields nan
    if not np.isfinite((n_modes // 2) ** 2 * abs(float(step))):
        raise ValueError(f"{name} = {step!r} is too large for n_modes={n_modes}: the "
                         f"linear phase (n_modes/2)^2 * |{name}| is not a finite float")


def wavenumbers(n_modes: int) -> np.ndarray:
    """Integer frequencies in FFT layout."""
    return np.fft.fftfreq(n_modes, 1.0 / n_modes).astype(np.int64)


@dataclass(frozen=True)
class SolverConfig:
    """Stepper parameters.  The nonlinear rotation runs on the grid of
    (p+1)*n_modes points, the dealiasing minimum for the degree-(2p+1)
    power."""

    n_modes: int
    dt: float
    p: int = 2

    def __post_init__(self):
        _check_modes(self.n_modes)
        if not np.isfinite(self.dt) or self.dt == 0:
            raise ValueError(f"dt must be finite and nonzero, got {self.dt}")
        _check_phase(self.n_modes, self.dt)
        _check_exponent(self.p)


def _linear_phase(n: np.ndarray, dt: float) -> np.ndarray:
    return np.exp(-1j * n * n * dt)


def _check_finite(u_hat: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(u_hat)):
        raise BlowupError("non-finite Fourier coefficients; reduce dt or the data size")
    return u_hat


def evolve(u_hat: np.ndarray, config: SolverConfig, n_steps: int) -> np.ndarray:
    """n_steps of Strang splitting with interior half-steps merged.

    The state stays on the padded spectrum of m = (p+1)*n_modes slots
    for the whole call; the spectrum, the grid, the squares of its parts,
    |g|^2, the angle and the rotation are allocated once and every step
    writes into them.  A step takes the unnormalised inverse FFT to the grid,
    rotates each grid value g by exp(-i dt |g|^(2p)), with |g|^2 from one
    product and one sum, the angle from |g|^2 by p-1 multiplications and
    the rotation from its cosine and sine, and transforms back.  The
    merged linear step between two rotations is one product with a
    masked phase, exp(-i n^2 dt)/m on the retained slots and zero
    elsewhere: the linear step, the 1/m of the forward FFT and the
    projection onto the retained modes at once.  The last half-step
    applies the half phase over m to the gathered slots.

    Both FFTs are the pocketfft gufuncs with scale factor 1 and the
    step's own buffer as output, which is what
    ``np.fft.ifft(spec, norm="forward", out=g)`` and
    ``np.fft.fft(g, out=spec)`` run after their argument handling; at
    64 modes that handling alone cost about a quarter of a step.  Every
    elementwise operation writes into its buffer by positional out.

    Merging the half-steps halves the rounding work of repeated single
    steps, which measurably improves conservation over long runs.
    Raises ValueError for a state of the wrong shape or a step count
    that is not a non-negative int, and BlowupError if the result is
    not finite.
    """
    # a bool is an int to Python, but never a step count
    if (not isinstance(n_steps, (int, np.integer)) or isinstance(n_steps, bool)
            or n_steps < 0):
        raise ValueError(f"n_steps must be a non-negative int, got {n_steps!r}")
    if np.shape(u_hat) != (config.n_modes,):
        raise ValueError(f"state of shape {np.shape(u_hat)} does not match "
                         f"n_modes={config.n_modes}")
    if n_steps == 0:
        return u_hat
    m = (config.p + 1) * config.n_modes
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
    mag2, angle = np.empty(m), np.empty(m)
    # g as its interleaved real and imaginary parts: one contiguous product
    # squares both, and one sum of their strided halves is |g|^2
    g_parts = g.view(float)
    squares = np.empty(2 * m)
    re_squares, im_squares = squares[0::2], squares[1::2]
    rot_re, rot_im = rot.real, rot.imag
    # 0-d arrays: a float argument is converted to one on every call
    one, neg_dt = np.array(1.0), np.array(-config.dt)
    # local names: the global and attribute lookups of these calls measured
    # about 5% of a step at 64 modes
    pocketfft = _pocketfft()
    ifft, fft, multiply, add = pocketfft.ifft, pocketfft.fft, np.multiply, np.add
    cos, sin = np.cos, np.sin
    powers = range(config.p - 1)
    # overflow here surfaces as a BlowupError at the finiteness check
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            if i:
                multiply(spec, full, spec)
            ifft(spec, one, g)
            multiply(g_parts, g_parts, squares)
            add(re_squares, im_squares, mag2)
            multiply(mag2, neg_dt, angle)
            for _ in powers:
                multiply(angle, mag2, angle)          # -dt |g|^(2p)
            cos(angle, rot_re)
            sin(angle, rot_im)
            multiply(g, rot, g)
            fft(g, one, spec)
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


def _seed_hash(mult: int, factor: int):
    """SeedSequence's 32-bit hash, whose multiplier runs on from `mult`."""
    def hashed(value: int) -> int:
        nonlocal mult
        mult, value = mult * factor & 0xFFFFFFFF, value ^ mult
        value = value * mult & 0xFFFFFFFF
        return value ^ value >> 16
    return hashed


def _uniforms(seed: int):
    """The doubles np.random.default_rng(seed).random() returns, in order,
    with Python ints: numpy's default stream, PCG64 (XSL-RR output)
    seeded by SeedSequence(seed), so a run never imports numpy.random."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    # SeedSequence: the seed's 32-bit words, low first, mixed into 4 pool words
    words = [seed >> shift & 0xFFFFFFFF for shift in range(0, seed.bit_length() or 1, 32)]
    mix = _seed_hash(0x43B0D7E5, 0x931E8875)
    pool = [mix(word) for word in (words + [0] * 3)[:4]]
    for src in range(max(4, len(words))):
        for dst in (dst for dst in range(4) if dst != src):
            mixed = 0xCA01F9DD * pool[dst] - 0x4973F715 * mix(
                pool[src] if src < 4 else words[src]) & 0xFFFFFFFF
            pool[dst] = mixed ^ mixed >> 16
    out = list(map(_seed_hash(0x8B51F9DD, 0x58F38DED), pool * 2))
    # the 128-bit state seed and stream from the 64-bit words, low half first
    start, stream = (out[i + 1] << 96 | out[i] << 64 | out[i + 3] << 32 | out[i + 2]
                     for i in (0, 4))
    mult, inc = 0x2360ED051FC65DA44385DF649FCCF645, stream << 1 | 1
    state = ((inc + start) * mult + inc) % 2 ** 128
    while True:
        state = (state * mult + inc) % 2 ** 128
        word, rot = (state >> 64 ^ state) % 2 ** 64, state >> 122
        yield ((word >> rot | word << 64 - rot) % 2 ** 64 >> 11) * 2.0 ** -53


def random_state(n_modes: int, seed: int, decay: float = 3.0,
                 r_h1: float = 1.0) -> np.ndarray:
    """Random-phase data with |u_hat(n)| = (1+|n|)^(-decay) on |n| <= N/4,
    rescaled to the requested first-order Sobolev norm.  The draw order is
    fixed (n ascending), so states are seed-reproducible: the phases are
    np.random.default_rng(seed)'s draws, PCG64 seeded by SeedSequence.  A
    spectrum or norm out of the floating-point range raises BlowupError."""
    _check_modes(n_modes)
    draws = _uniforms(seed)
    u = np.zeros(n_modes, dtype=complex)
    quarter = n_modes // 4
    try:
        for n in range(-quarter, quarter + 1):
            u[n % n_modes] = (1 + abs(n)) ** (-decay) * np.exp(2j * np.pi * next(draws))
        with np.errstate(over="raise"):
            norm = sobolev_norm(u, 1)
    except (OverflowError, FloatingPointError):
        raise BlowupError(f"non-finite random spectrum or H^1 norm at decay={decay}") from None
    return u * (r_h1 / norm)


# -- norms and functionals --------------------------------------------------

def l2_norm(u_hat: np.ndarray) -> float:
    return float(np.sqrt(2 * np.pi * np.sum(np.abs(u_hat) ** 2)))


def sobolev_norm(u_hat: np.ndarray, k: int) -> float:
    n = wavenumbers(len(u_hat)).astype(float)
    return float(np.sqrt(2 * np.pi * np.sum((1 + n ** (2 * k)) * np.abs(u_hat) ** 2)))


# -- density evaluation -----------------------------------------------------

# the terms x grid product buffer holds at most 2**14 complex values
# (256 KiB) whatever the grid size, so it stays in cache and a run's peak
# memory stays close to that of a one-monomial-at-a-time evaluation
_CHUNK_VALUES = 1 << 14


def _image_rows(image: PowerImage):
    """(row, weight) pairs whose sum is the power image of `image.density`.

    Each term c m and each distinct factor of m give one row (u_orders,
    c_orders, (conjugated, order)): the other factors of m, and the
    derivative of the power field that replaces that factor, conjugated
    for a conjugated factor.  Its weight is c times the factor's
    multiplicity.  That is the power substitution of `dt_nonlinear`
    before the Leibniz expansion of d^order N.
    """
    for m, c in image.density.terms():
        u, v = m.u_orders, m.c_orders
        for conjugated, own in ((False, u), (True, v)):
            for idx, order in enumerate(own):
                if idx and own[idx - 1] == order:
                    continue
                rest = own[:idx] + own[idx + 1:]
                others = (u, rest) if conjugated else (rest, v)
                yield others + ((conjugated, order),), c * own.count(order)


def _field_spectrum(u_hat: np.ndarray, p: int) -> np.ndarray:
    """The Fourier coefficients of the power field N = -i u^{p+1} conj(u)^p
    at the frequencies -L..L, L = (2p+1)*n_modes/2, by direct convolution
    of u's coefficients.  Each coefficient is then exact to the rounding of
    its own terms; an FFT of N's grid values would leave a floor of about
    eps * max|N| in every coefficient, which d^a N multiplies by |n|^a:
    at k = 12, p = 4 on 64 modes that erred by up to 2e-12 of the term
    scale, where the convolution errs as little as the expanded image."""
    n_modes = len(u_hat)
    u = np.zeros(n_modes + 1, dtype=complex)
    u[:n_modes] = np.fft.fftshift(u_hat)    # frequencies -n_modes/2..n_modes/2
    power = u
    for _ in range(p - 1):
        power = np.convolve(power, u)       # u^p
    # on a range symmetric about 0, conj(f) has the reversed conjugate
    # coefficients of f
    return -1j * np.convolve(np.convolve(power, u), np.conj(power[::-1]))


class _FactorGroup:
    """The distinct rows of q factors across a plan's functionals, as
    arrays.  A row is a Monomial (p = 0), or a row of a power image of
    exponent p, (u_orders, c_orders, (conjugated, order)): one term of the
    image's density with one factor replaced by the derivative of the
    power field N of that order.  The group holds the distinct
    derivative orders of u and of N, a rows x q index of each factor into
    the stacked grids of u, conj(u), N and conj(N) at those orders, and a
    functionals x rows matrix of coefficients.  Compiled for one grid
    size, it also holds the grid slots of the retained modes of u and of
    N and the multipliers (in)^order of every order, stacked orders x
    modes."""

    def __init__(self, q: int, p: int, rows: list, coeffs: np.ndarray, n_modes: int):
        self.q = q
        self.p = p

        def shapes():
            # the rows of p = 0 are the Monomials themselves: a plan's large
            # groups are monomials, and a tuple kept per row would cost more
            # memory than the index
            return iter(rows) if p else ((m.u_orders, m.c_orders, None) for m in rows)

        self.orders = sorted({order for u, c, _ in shapes() for block in (u, c)
                              for order in block})
        self.field_orders = sorted({field[1] for _, _, field in shapes() if field})
        n_u, n_field = len(self.orders), len(self.field_orders)
        row = {order: i for i, order in enumerate(self.orders)}
        field_row = {order: 2 * n_u + i for i, order in enumerate(self.field_orders)}

        def places(u, c, field):
            yield from (row[order] for order in u)
            yield from (row[order] + n_u for order in c)
            if field:
                conjugated, order = field
                yield field_row[order] + n_field * conjugated

        self.index = np.fromiter(
            (place for shape in shapes() for place in places(*shape)), dtype=np.intp,
            count=len(rows) * q).reshape(len(rows), q)
        self.coeffs = coeffs
        # q factors of bandwidth n_modes/2 make a product of bandwidth
        # q*n_modes/2; with one of them a derivative of the power field, of
        # bandwidth (2p+1)*n_modes/2, (q+2p)*n_modes/2.  The grid has more
        # points than that, and than the field's (2p+1)*n_modes + 1 frequencies
        self.m = n_modes * (q // 2 + 1 if not p else max(q // 2 + p + 1, 2 * p + 2))
        n = wavenumbers(n_modes)
        self.slots = n % self.m
        ik = 1j * n.astype(float)
        self.mult = np.array([ik ** order for order in self.orders],
                             dtype=complex).reshape(n_u, n_modes)
        bandwidth = (2 * p + 1) * n_modes // 2
        frequencies = np.arange(-bandwidth, bandwidth + 1)
        self.field_slots = frequencies % self.m
        ik = 1j * frequencies.astype(float)
        self.field_mult = np.array([ik ** order for order in self.field_orders],
                                   dtype=complex).reshape(n_field, len(frequencies))

    def terms(self, u_hat: np.ndarray) -> np.ndarray:
        """c_ij v_j for every functional i and row j, each v_j computed
        once by exact quadrature on the group's grid.

        The grid of m points exceeds the bandwidth of every row's product,
        so the mean does not alias.
        """
        q, m = self.q, self.m
        n_u = len(self.orders)
        # the grids of u's derivatives and their conjugates, then N's
        grids = np.empty((2 * (n_u + len(self.field_orders)), m), dtype=complex)
        if n_u:
            self._synthesise(grids[:2 * n_u], self.slots, u_hat * self.mult)
        if self.field_orders:
            self._synthesise(grids[2 * n_u:], self.field_slots,
                             _field_spectrum(u_hat, self.p) * self.field_mult)
        values = np.empty(len(self.index), dtype=complex)
        rows = max(1, _CHUNK_VALUES // m)
        for start in range(0, len(values), rows):
            index = self.index[start:start + rows]
            prod = np.ones((len(index), m), dtype=complex)
            for j in range(q):
                prod *= grids[index[:, j]]
            values[start:start + rows] = prod.mean(axis=1)
        return self.coeffs * (2 * np.pi * values)

    def _synthesise(self, out: np.ndarray, slots: np.ndarray, spectra: np.ndarray):
        """The grid of each row of `spectra`, its coefficients at `slots`,
        into the first half of `out` (np.fft.ifft(spec, axis=1) * m), and
        the conjugates of those grids into the second half."""
        m = self.m
        spec = np.zeros((len(spectra), m), dtype=complex)
        spec[:, slots] = spectra
        plain = out[:len(spectra)]
        _pocketfft().ifft(spec, 1 / m, plain)
        np.multiply(plain, m, plain)
        np.conjugate(plain, out[len(spectra):])


class DensityPlan:
    """A tuple of functionals compiled for repeated numerical evaluation
    at states of n_modes modes.

    A functional is a Density, a PowerImage (the derivative of its
    density's integral along the power field, evaluated from the
    density's own terms without expanding the image), or a tuple of
    them: their sum.  The distinct monomials of all the densities are
    grouped by factor count, except pair monomials (signature (1, 1,
    .)), which take the per-mode symbol path; the rows of the power
    images are grouped by factor count and exponent.  Each distinct
    monomial or row is evaluated once per state, and each functional
    keeps one row of coefficients over all of its parts' columns.
    `evaluate` returns the functionals' values and term scales as two
    arrays in the plan's order.
    """

    def __init__(self, functionals: tuple[Density | PowerImage | tuple, ...], n_modes: int):
        _check_modes(n_modes)
        self.n_modes = n_modes
        self.size = len(functionals)
        parts = [f if isinstance(f, tuple) else (f,) for f in functionals]
        distinct = {id(d): d for f in parts for d in f}.values()
        self.is_real_valued = all(d.is_real_valued for d in distinct)
        # every density lists its terms in the one canonical order, so the
        # union in that order keeps each density's order of summation; the
        # rows of power images follow, in the order their terms give
        monomials = sorted({m for d in distinct if isinstance(d, Density)
                            for m in d.monomials()}, key=Monomial.sort_key, reverse=True)
        column: dict = {m: j for j, m in enumerate(monomials)}
        images = {id(d): [((d.p, row), complex(c)) for row, c in _image_rows(d)]
                  for d in distinct if isinstance(d, PowerImage)}
        for rows in images.values():
            for key, _ in rows:
                column.setdefault(key, len(column))
        coeffs = np.zeros((self.size, len(column)), dtype=complex)
        for i, f in enumerate(parts):
            for d in f:
                for key, c in images[id(d)] if id(d) in images else d.terms():
                    coeffs[i, column[key]] += complex(c)
        # per group: its columns, and its rows, each a Monomial or an image row
        by_shape: dict[tuple[int, int], tuple[list[int], list]] = {}
        pairs: list[tuple[Monomial, int]] = []
        for j, key in enumerate(column):
            if j >= len(monomials):
                p, row = key
                q = len(row[0]) + len(row[1]) + 1
            elif key.signature[:2] == (1, 1):
                pairs.append((key, j))
                continue
            else:
                p, row, q = 0, key, len(key.u_orders) + len(key.c_orders)
            columns, rows = by_shape.setdefault((q, p), ([], []))
            columns.append(j)
            rows.append(row)
        # row-major coefficients, so that each functional sums its terms
        # pairwise along a row
        self.groups = [_FactorGroup(q, p, rows, np.ascontiguousarray(coeffs[:, columns]),
                                    n_modes)
                       for (q, p), (columns, rows) in sorted(by_shape.items())]
        # per functional and mode: the sum of the pair symbols c (in)^a (-in)^b,
        # and of their magnitudes |c| |n|^(a+b); None without pair monomials
        self.pair_symbol = self.pair_magnitude = None
        if pairs:
            n = wavenumbers(n_modes).astype(float)
            symbol = np.zeros((self.size, n_modes), dtype=complex)
            magnitude = np.zeros((self.size, n_modes))
            for m, j in pairs:
                c = coeffs[:, j]
                a, b = m.u_orders[0], m.c_orders[0]
                symbol = symbol + c[:, None] * (1j * n) ** a * (-1j * n) ** b
                magnitude = magnitude + np.abs(c)[:, None] * np.abs(n) ** (a + b)
            self.pair_symbol, self.pair_magnitude = symbol, magnitude

    def evaluate(self, u_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The values of every functional at one state, in the plan's
        order, and the term scale of each, sum |c_j v_j|: the size of the
        terms summed for it, which its floating-point residue is relative to.

        Raises ValueError for a state of another shape than the plan's
        grid, and BlowupError if a value or its term scale is not finite.
        """
        if np.shape(u_hat) != (self.n_modes,):
            raise ValueError(f"state of shape {np.shape(u_hat)} does not match "
                             f"n_modes={self.n_modes}")
        value = np.zeros(self.size, dtype=complex)
        scale = np.zeros(self.size)
        # overflow here surfaces as a BlowupError at the finiteness check
        # pairs first, so that a density of one factor group plus an image
        # sums to exactly the density's value plus the image's
        with np.errstate(over="ignore", invalid="ignore"):
            if self.pair_symbol is not None:
                power = np.abs(u_hat) ** 2
                value += 2 * np.pi * np.sum(self.pair_symbol * power, axis=1)
                scale += 2 * np.pi * np.sum(self.pair_magnitude * power, axis=1)
            for group in self.groups:
                terms = group.terms(u_hat)
                value += terms.sum(axis=1)
                scale += np.abs(terms).sum(axis=1)
        if not (np.all(np.isfinite(value)) and np.all(np.isfinite(scale))):
            raise BlowupError("non-finite functional values; reduce dt or the data size")
        return value, scale

    def evaluate_real(self, u_hat: np.ndarray) -> tuple[float, ...]:
        """The values of conjugation-fixed functionals.  The imaginary part
        of each is pure floating-point residue, and must sit far below the
        size of the terms summed for that value: ArithmeticError otherwise."""
        if not self.is_real_valued:
            raise ValueError("density is not conjugation-fixed; use evaluate")
        values, scales = self.evaluate(u_hat)
        for value, scale in zip(values, scales):
            if abs(value.imag) > 1e-9 * max(1.0, scale):
                raise ArithmeticError(
                    f"imaginary residue {value.imag:.3e} too large for real value "
                    f"{value.real:.3e} (terms of size {scale:.3e})")
        return tuple(values.real.tolist())


def evaluate_real(u_hat: np.ndarray, density: Density) -> float:
    """Value of a conjugation-fixed functional from a one-density plan; see
    DensityPlan.evaluate_real.  Kept because `validate_stage` in
    perfbench/workloads.py calls it; the package evaluates through plans."""
    return DensityPlan((density,), len(u_hat)).evaluate_real(u_hat)[0]
