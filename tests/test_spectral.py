"""Split-step solver against exact solutions; quadrature conventions."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echelon_oracle import ibp_generators
from nlsenergy.algebra import Density, Monomial, PowerImage, dt_nonlinear
from nlsenergy.energy import (build_catalogue, hamiltonian_density,
                              quadratic_density, solve_energy)
from nlsenergy.rational import GaussianRational
from nlsenergy.spectral import (BlowupError, DensityPlan, SolverConfig,
                                _pocketfft, _uniforms, evolve, l2_norm,
                                plane_wave, random_state, sobolev_norm,
                                wavenumbers)


def _plan_value(u_hat: np.ndarray, density: Density):
    """The value of `density` at one state and its term scale, from a
    one-density plan."""
    (value,), (scale,) = DensityPlan((density,), len(u_hat)).evaluate(u_hat)
    return value, scale


def plane_wave_solution(amplitude: complex, mode: int, p: int, t: float,
                        n_modes: int) -> np.ndarray:
    """Exact single-mode solution: the phase rotates at mode^2 + |A|^(2p)."""
    omega = mode ** 2 + abs(amplitude) ** (2 * p)
    return plane_wave(amplitude * np.exp(-1j * omega * t), mode, n_modes)


def momentum(u_hat: np.ndarray) -> float:
    """The conserved momentum 2 pi sum n |u_hat(n)|^2."""
    n = wavenumbers(len(u_hat)).astype(float)
    return float(2 * np.pi * np.sum(n * np.abs(u_hat) ** 2))


class _AliasingGrid(ValueError):
    """The oracle's grid is too coarse for exact product quadrature."""


def _naive_monomial(u_hat, monomial, grid_factor=None):
    """Reference evaluator, one inverse FFT per factor: the exact-quadrature
    value of one monomial and the size of the grid values averaged for it,
    2 pi mean |product|.  The grid defaults to the one the plans use."""
    n_modes = len(u_hat)
    q = monomial.signature[0] + monomial.signature[1]
    m = n_modes * (q // 2 + 1) if grid_factor is None else n_modes * grid_factor
    if m < q * (n_modes // 2) + 1:
        raise _AliasingGrid(f"grid of {m} points aliases a {q}-factor product")
    n = wavenumbers(n_modes)
    prod = np.ones(m, dtype=complex)
    factors = [(order, False) for order in monomial.u_orders] \
        + [(order, True) for order in monomial.c_orders]
    for order, conjugated in factors:
        spec = np.zeros(m, dtype=complex)
        spec[n % m] = u_hat * (1j * n.astype(float)) ** order
        g = np.fft.ifft(spec) * m
        prod = prod * (np.conj(g) if conjugated else g)
    return complex(2 * np.pi * np.mean(prod)), float(2 * np.pi * np.mean(np.abs(prod)))


def _naive_density(u_hat, density, grid_factor=None):
    """Reference value of a density, monomial by monomial, with pair
    monomials on the per-mode symbol path under the default grid; and the
    size of everything summed for it."""
    n = wavenumbers(len(u_hat)).astype(float)
    power = np.abs(u_hat) ** 2
    total, scale = 0j, 0.0
    for m, c in density.terms():
        c = complex(c)
        if grid_factor is None and m.signature[:2] == (1, 1):
            a, b = m.u_orders[0], m.c_orders[0]
            total += c * 2 * np.pi * np.sum((1j * n) ** a * (-1j * n) ** b * power)
            scale += abs(c) * 2 * np.pi * np.sum(np.abs(n) ** (a + b) * power)
        else:
            value, size = _naive_monomial(u_hat, m, grid_factor)
            total += c * value
            scale += abs(c) * size
    return total, scale


def _half_linear(u_hat, dt):
    """The exact linear flow over dt: a phase per mode."""
    n = wavenumbers(len(u_hat)).astype(float)
    return u_hat * np.exp(-1j * n * n * dt)


def _naive_evolve(u_hat, config, n_steps):
    """Reference stepper, one step at a time: every nonlinear rotation
    scatters into a fresh zero-padded spectrum, takes the normalised
    inverse FFT, rotates by the complex exponential of a float power and
    gathers the retained modes back; adjacent linear half-steps merged."""
    m = (config.p + 1) * config.n_modes
    slots = wavenumbers(config.n_modes) % m

    def rotation(v):
        spec = np.zeros(m, dtype=complex)
        spec[slots] = v
        g = np.fft.ifft(spec) * m
        g = g * np.exp(-1j * config.dt * np.abs(g) ** (2 * config.p))
        return (np.fft.fft(g) / m)[slots]

    u = rotation(_half_linear(u_hat, 0.5 * config.dt))
    for _ in range(n_steps - 1):
        u = rotation(_half_linear(u, config.dt))
    return _half_linear(u, 0.5 * config.dt)


def test_plane_wave_matches_exact_solution():
    config = SolverConfig(n_modes=32, dt=1e-3, p=2)
    u = plane_wave(0.5, 1, 32)
    got = evolve(u, config, 1000)
    want = plane_wave_solution(0.5, 1, 2, 1.0, 32)
    assert np.max(np.abs(got - want)) < 1e-8


def test_functional_scaling_degrees():
    u = random_state(16, seed=9)
    correction = solve_energy(3, 2).correction
    for density, degree in ((correction, 6), (quadratic_density(3), 2)):
        plan = DensityPlan((density,), 16)
        assert plan.evaluate_real(2 * u)[0] == \
            pytest.approx(2 ** degree * plan.evaluate_real(u)[0], rel=1e-13)


def test_momentum_survives_nonlinear_evolution():
    config = SolverConfig(n_modes=32, dt=1e-3, p=2)
    u = random_state(32, seed=5)
    before = momentum(u)
    after = momentum(evolve(u, config, 200))
    assert abs(after - before) < 1e-10


def test_total_derivatives_integrate_to_zero():
    u = random_state(16, seed=7)
    for g in ibp_generators((3, 3, 4))[:8]:
        assert abs(_plan_value(u, g)[0]) < 1e-9


def test_pair_symbol_path_matches_grid_quadrature():
    u = random_state(16, seed=2)
    d = quadratic_density(3) + Density.monomial((2,), (2,)) * 5
    fast, _ = _plan_value(u, d)
    slow, _ = _naive_density(u, d, grid_factor=2)
    assert abs(fast - slow) <= 1e-12 * max(1.0, abs(slow))


def test_mass_quadrature_matches_parseval():
    u = random_state(16, seed=6)
    n = wavenumbers(16).astype(float)
    # grid_factor 2 is the exact grid of a two-factor product, so the
    # reference takes the grid quadrature, and the plan the symbol path
    for evaluate in (_plan_value, lambda u, d: _naive_density(u, d, grid_factor=2)):
        mass, _ = evaluate(u, Density.monomial((0,), (0,)))
        assert mass.real == pytest.approx(l2_norm(u) ** 2, rel=1e-13)
        assert abs(mass.imag) < 1e-13
        grad, _ = evaluate(u, Density.monomial((1,), (1,)))
        assert grad.real == pytest.approx(
            float(2 * np.pi * np.sum(n * n * np.abs(u) ** 2)), rel=1e-12)


def test_energy_drift_equals_integrated_residual():
    """The solved decomposition must predict the measured drift of the
    modified energy: E(T) - E(0) against the trapezoid rule applied to the
    residual functional along the trajectory."""
    energy = solve_energy(3, 2)
    e_k = DensityPlan((energy.energy_density(),), 32)
    residual = DensityPlan((energy.residual_density(),), 32)
    config = SolverConfig(n_modes=32, dt=2e-4, p=2)
    u = random_state(32, seed=3)
    start = e_k.evaluate_real(u)[0]
    samples = [residual.evaluate_real(u)[0]]
    for _ in range(1000):
        u = evolve(u, config, 1)
        samples.append(residual.evaluate_real(u)[0])
    drift = e_k.evaluate_real(u)[0] - start
    integral = config.dt * (sum(samples) - 0.5 * (samples[0] + samples[-1]))
    scale = max(abs(drift), abs(integral))
    assert scale > 0
    # trapezoid truncation dominates the gap; a wrong decomposition
    # would miss by orders of magnitude
    assert abs(drift - integral) / scale < 5e-4


def test_hamiltonian_is_positive_for_generic_data():
    u = random_state(32, seed=12)
    assert DensityPlan((hamiltonian_density(2),), 32).evaluate_real(u)[0] > 0


def test_blowup_is_reported():
    config = SolverConfig(n_modes=8, dt=1e-3, p=2)
    with pytest.raises(BlowupError):
        evolve(plane_wave(1e100, 0, 8), config, 1)
    # the first rotation angle overflows; the non-finite values must
    # survive the later steps, masked phase included, to the final check
    with pytest.raises(BlowupError):
        evolve(plane_wave(1e100, 0, 8), config, 10)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(n_modes=12, dt=1e-3)
    with pytest.raises(ValueError):
        SolverConfig(n_modes=4, dt=1e-3)
    with pytest.raises(ValueError):
        SolverConfig(n_modes=8, dt=0.0)
    with pytest.raises(ValueError):
        SolverConfig(n_modes=8, dt=float("inf"))
    with pytest.raises(ValueError):
        SolverConfig(n_modes=8, dt=1e-3, p=1)
    SolverConfig(n_modes=8, dt=-1e-3)      # backward steps are legitimate
    # the linear phase (n_modes/2)^2 * |dt| of the retained modes overflows:
    # refused before exp of it warns and the step ends in a BlowupError
    with pytest.raises(ValueError, match="linear phase"):
        evolve(plane_wave(0.5, 1, 16), SolverConfig(16, 1e307), 1)
    SolverConfig(16, 1e306)


def test_plane_wave_mode_bounds():
    with pytest.raises(ValueError):
        plane_wave(1.0, 20, 32)
    u = plane_wave(1.0, -16, 32)
    assert u[(-16) % 32] == 1.0


def test_random_state_is_reproducible():
    a = random_state(32, seed=0, decay=3.0, r_h1=2.0)
    b = random_state(32, seed=0, decay=3.0, r_h1=2.0)
    c = random_state(32, seed=1, decay=3.0, r_h1=2.0)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert sobolev_norm(a, 1) == pytest.approx(2.0, rel=1e-12)
    n = wavenumbers(32)
    assert np.all(a[np.abs(n) > 8] == 0)


def test_the_draw_is_numpys_default_stream():
    # random_state draws without numpy.random: its stream must be
    # np.random.default_rng's, PCG64 seeded by SeedSequence, bit for bit,
    # for seeds of one 32-bit word and of two, three and five
    for seed in (*range(1000), 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 7, 2 ** 130 + 99):
        want = np.random.default_rng(seed).random(65).tolist()
        assert list(itertools.islice(_uniforms(seed), 65)) == want, seed


def _numpy_random_state(n_modes, seed, decay, r_h1):
    """random_state as written with np.random.default_rng."""
    rng = np.random.default_rng(seed)
    u = np.zeros(n_modes, dtype=complex)
    quarter = n_modes // 4
    for n in range(-quarter, quarter + 1):
        u[n % n_modes] = (1 + abs(n)) ** (-decay) * np.exp(2j * np.pi * rng.random())
    return u * (r_h1 / sobolev_norm(u, 1))


@pytest.mark.parametrize("n_modes", [8, 64, 256])
@pytest.mark.parametrize("seed", [0, 7, 2 ** 64 + 7])
@pytest.mark.parametrize("decay,r_h1", [(3.0, 1.0), (0.5, 2.5), (-2.0, 1e-3)])
def test_random_state_is_the_numpy_built_state(n_modes, seed, decay, r_h1):
    assert np.array_equal(random_state(n_modes, seed, decay, r_h1),
                          _numpy_random_state(n_modes, seed, decay, r_h1))


def test_the_draw_refuses_what_default_rng_refuses():
    for seed, error in ((-1, ValueError), (1.5, TypeError), ("3", TypeError)):
        with pytest.raises(error):
            np.random.default_rng(seed)
        with pytest.raises(error):
            random_state(16, seed)


def _full_band_state(n_modes, seed):
    """Random-phase data with |u_hat(n)| = (1+|n|)^-3 on every retained
    mode, the Nyquist mode -N/2 included, at unit first-order norm;
    random_state fills only |n| <= N/4."""
    rng = np.random.default_rng(seed)
    n = wavenumbers(n_modes)
    u = (1.0 + np.abs(n)) ** -3.0 * np.exp(2j * np.pi * rng.random(n_modes))
    return u / sobolev_norm(u, 1)


@pytest.mark.parametrize("n_modes", [32, 64, 256])
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("band", ["quarter", "full"])
@pytest.mark.parametrize("dt", [1e-3, -1e-3])
def test_evolve_matches_the_naive_stepper(n_modes, p, band, dt):
    """The kernel against the per-step oracle, on random_state data and on
    data that fills the retained spectrum up to its edge, so the slots of
    the highest modes, where the mask and the gather end, carry data from
    the first step on."""
    config = SolverConfig(n_modes=n_modes, dt=dt, p=p)
    if band == "quarter":
        u = random_state(n_modes, seed=14)
    else:
        u = _full_band_state(n_modes, seed=14)
    for n_steps in (1, 1000):
        want = _naive_evolve(u, config, n_steps)
        got = evolve(u, config, n_steps)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _plain_evolve(u_hat, config, n_steps):
    """The kernel's arithmetic in its order, as a plain loop of numpy
    calls: the masked linear phase, the inverse FFT with norm="forward",
    |g|^2 from the squared parts, the angle -dt |g|^2 times |g|^2 p-1
    times, the rotation from its cosine and sine, the forward FFT."""
    m = (config.p + 1) * config.n_modes
    n = wavenumbers(config.n_modes)
    slots = n % m
    n = n.astype(float)
    half = np.exp(-1j * n * n * (0.5 * config.dt))
    full = np.zeros(m, dtype=complex)
    full[slots] = np.exp(-1j * n * n * config.dt) / m
    spec = np.zeros(m, dtype=complex)
    spec[slots] = u_hat * half
    for i in range(n_steps):
        if i:
            spec = spec * full
        g = np.fft.ifft(spec, norm="forward")
        mag2 = g.real * g.real + g.imag * g.imag
        angle = mag2 * -config.dt
        for _ in range(config.p - 1):
            angle = angle * mag2
        rot = np.empty(m, dtype=complex)
        rot.real, rot.imag = np.cos(angle), np.sin(angle)
        spec = np.fft.fft(g * rot)
    return spec[slots] * (half / m)


@pytest.mark.parametrize("n_modes,p", [(64, 2), (64, 3), (256, 3)])
def test_evolve_is_the_plain_loop_bit_for_bit(n_modes, p):
    config = SolverConfig(n_modes=n_modes, dt=1e-3, p=p)
    u = random_state(n_modes, seed=17)
    for n_steps in (1, 250):
        assert np.array_equal(evolve(u, config, n_steps), _plain_evolve(u, config, n_steps))


def test_evolve_leaves_its_input_alone_and_repeats_exactly():
    config = SolverConfig(n_modes=64, dt=1e-3, p=3)
    u = random_state(64, seed=16)
    kept = u.copy()
    first = evolve(u, config, 25)
    assert np.array_equal(u, kept)
    assert np.array_equal(evolve(u, config, 25), first)
    assert evolve(u, config, 0) is u


def test_evolve_rejects_a_state_of_the_wrong_shape():
    config = SolverConfig(n_modes=64, dt=1e-3)
    for u in (random_state(32, seed=1), np.zeros((2, 64), dtype=complex)):
        for n_steps in (0, 5):
            with pytest.raises(ValueError, match="does not match n_modes"):
                evolve(u, config, n_steps)


def test_evolve_rejects_a_step_count_that_is_not_an_int():
    config = SolverConfig(n_modes=32, dt=1e-3)
    u = random_state(32, seed=2)
    for n_steps in (1.0, 2.5, True, False, "3", None, -1, np.int64(-1)):
        with pytest.raises(ValueError, match="n_steps"):
            evolve(u, config, n_steps)
    assert np.array_equal(evolve(u, config, np.int64(3)), evolve(u, config, 3))
    assert evolve(u, config, 0) is u


@pytest.mark.parametrize("m", [24, 192, 256, 1024])
def test_the_fft_gufuncs_are_what_the_numpy_wrappers_run(m):
    # the stepper and the plans call the gufuncs directly; pin them bit for
    # bit to the numpy.fft calls they replace
    pocketfft = _pocketfft()
    rng = np.random.default_rng(m)
    x = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    out = np.empty(m, dtype=complex)
    pocketfft.ifft(x, 1.0, out)
    assert out.tobytes() == np.fft.ifft(x, norm="forward").tobytes()
    pocketfft.fft(x, 1.0, out)
    assert out.tobytes() == np.fft.fft(x).tobytes()
    rows = rng.standard_normal((3, m)) + 1j * rng.standard_normal((3, m))
    out = np.empty((3, m), dtype=complex)
    pocketfft.ifft(rows, 1 / m, out)
    assert out.tobytes() == np.fft.ifft(rows, axis=1).tobytes()


@pytest.mark.parametrize("shape", [(32,), (128,), (2, 64)])
def test_a_plan_rejects_a_state_of_another_shape(shape):
    # group monomials of two factor counts and pair monomials
    energy = solve_energy(4, 2)
    densities = (energy.exact_derivative, energy.energy_density())
    plan = DensityPlan(densities, 64)
    assert len(plan.groups) == 2 and plan.pair_symbol is not None
    with pytest.raises(ValueError, match="does not match n_modes=64"):
        plan.evaluate(np.ones(shape, dtype=complex))
    u = random_state(64, seed=64)
    got, want = plan.evaluate(u), DensityPlan(densities, 64).evaluate(u)
    for got_part, want_part in zip(got, want):
        assert got_part.tolist() == want_part.tolist()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_value_out_of_the_floating_point_range_raises_blowup_without_warnings():
    energy = solve_energy(2, 2)
    plan = DensityPlan((energy.energy_density(), energy.exact_derivative), 16)
    # |u|^6 of E_k stays finite, the ten-factor terms of dE_k/dt overflow
    with pytest.raises(BlowupError, match="non-finite functional values"):
        plan.evaluate(plane_wave(1e40, 1, 16))


def test_plan_matches_naive_evaluator_on_a_solved_energy():
    # 256 modes put the 160 ten-factor terms of the k=6 exact derivative
    # into several chunks of the product buffer
    u = random_state(256, seed=15)
    density = solve_energy(6, 2).exact_derivative
    want, scale = _naive_density(u, density)
    assert abs(_plan_value(u, density)[0] - want) <= 1e-12 * scale


_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=9)


@st.composite
def _monomials(draw):
    if draw(st.booleans()):     # pair monomial: the symbol path
        return Monomial((draw(st.integers(0, 6)),), (draw(st.integers(0, 6)),))
    u_orders = draw(st.lists(st.integers(0, 6), max_size=10))
    c_orders = draw(st.lists(st.integers(0, 6), min_size=0 if u_orders else 1,
                             max_size=10 - len(u_orders)))
    return Monomial(tuple(u_orders), tuple(c_orders))


def _density(pairs) -> Density:
    """The sum of c * m over the (m, c) of `pairs`."""
    return sum((Density.monomial(m.u_orders, m.c_orders, c) for m, c in pairs), Density.zero())


_densities = st.lists(
    st.tuples(_monomials(), st.builds(GaussianRational, _fractions, _fractions)),
    min_size=1, max_size=8).map(_density)


@st.composite
def _states(draw):
    """Every mode filled, so an aliasing grid would show in the value."""
    n_modes = draw(st.sampled_from([8, 16, 32]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = wavenumbers(n_modes)
    return ((rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes))
            / (1 + np.abs(n)) ** 2)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(density=_densities, u_hat=_states())
def test_plan_matches_naive_evaluator(density, u_hat):
    want, scale = _naive_density(u_hat, density)
    got, got_scale = _plan_value(u_hat, density)
    assert abs(got - want) <= 1e-12 * scale
    # the term scale bounds the value and is bounded by the summed grid sizes
    assert abs(got) <= got_scale * (1 + 1e-12)
    assert got_scale <= scale * (1 + 1e-12)


@st.composite
def _density_tuples(draw):
    """One to four densities over one pool of monomials, so that they
    share terms; a density may draw no term and be zero."""
    pool = draw(st.lists(_monomials(), min_size=1, max_size=8))
    coeffs = st.builds(GaussianRational, _fractions, _fractions)
    return tuple(
        _density((m, draw(coeffs)) for m in draw(st.lists(st.sampled_from(pool), max_size=8)))
        for _ in range(draw(st.integers(1, 4))))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(densities=_density_tuples(), u_hat=_states())
def test_plan_of_several_densities_matches_each_alone(densities, u_hat):
    values, scales = DensityPlan(densities, len(u_hat)).evaluate(u_hat)
    assert len(values) == len(scales) == len(densities)
    for density, got, got_scale in zip(densities, values, scales):
        want, scale = _naive_density(u_hat, density)
        assert abs(got - want) <= 1e-12 * scale
        assert got_scale == pytest.approx(_plan_value(u_hat, density)[1], rel=1e-12, abs=0)
        assert got_scale <= scale * (1 + 1e-12)


def test_imaginary_residue_is_measured_against_the_term_scale():
    u = random_state(32, seed=8, r_h1=3.0)
    sextic = Density.monomial((0, 0, 0), (0, 0, 0))
    density = Density.monomial((1,), (1,)) + sextic * Fraction(1, 3)
    scale = _plan_value(u, density)[1]
    assert scale > 1.0
    sextic_value = _plan_value(u, sextic)[0].real
    # an imaginary part delta of the |u|^6 coefficient adds delta * sextic_value
    plan = DensityPlan((density,), 32)
    group = plan.groups[0]
    for share, raises in ((0.1, False), (10.0, True)):
        group.coeffs[0, 0] = 1 / 3 + 1j * share * 1e-9 * scale / sextic_value
        if raises:
            with pytest.raises(ArithmeticError):
                plan.evaluate_real(u)
        else:
            plan.evaluate_real(u)


def test_each_value_of_a_plan_is_checked_against_its_own_term_scale():
    u = random_state(32, seed=8, r_h1=3.0)
    sextic = Density.monomial((0, 0, 0), (0, 0, 0))
    large = Density.monomial((4,), (4,)) * 10 ** 6 + sextic
    plan = DensityPlan((large, sextic), 32)
    large_scale, scale = plan.evaluate(u)[1]
    assert large_scale > 1e6 * scale
    # a residue far below the large density's terms, far above the sextic's
    plan.groups[0].coeffs[1, 0] = 1 + 1j * 1e-7 * scale / _plan_value(u, sextic)[0].real
    with pytest.raises(ArithmeticError):
        plan.evaluate_real(u)
    with pytest.raises(ValueError):
        DensityPlan((large, Density.monomial((1,), (0,))), 32).evaluate_real(u)


def test_the_residue_message_names_the_failing_functional_only():
    u = random_state(32, seed=8, r_h1=3.0)
    sextic = Density.monomial((0, 0, 0), (0, 0, 0))
    plan = DensityPlan((sextic, sextic * 2, sextic * 3), 32)
    plan.evaluate_real(u)
    # one column: the imaginary part of the second functional's coefficient
    plan.groups[0].coeffs[1, 0] = 2 + 1e-3j
    values, scales = plan.evaluate(u)
    with pytest.raises(ArithmeticError) as info:
        plan.evaluate_real(u)
    assert str(info.value) == (
        f"imaginary residue {values[1].imag:.3e} too large for real value "
        f"{values[1].real:.3e} (terms of size {scales[1]:.3e})")


# -- power images along the flow ------------------------------------------------

@st.composite
def _catalogue_combinations(draw):
    """A random real combination of the catalogue entries of one (k, p)."""
    k, p = draw(st.integers(2, 8)), draw(st.integers(2, 3))
    density = Density.zero()
    for entry in build_catalogue(k, p):
        density = density + entry.density * draw(_fractions)
    return p, density


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=_catalogue_combinations(), u_hat=_states())
def test_a_power_image_along_the_flow_equals_the_expanded_image(case, u_hat):
    # the expanded image is kept only as this oracle
    p, density = case
    n_modes = len(u_hat)
    (image, alone), (image_scale, alone_scale) = DensityPlan(
        (PowerImage(density, p), density), n_modes).evaluate(u_hat)
    want, want_scale = _plan_value(u_hat, dt_nonlinear(density, p))
    # where the expanded terms cancel exactly their scale is 0, and the
    # flow's rows cancel only to rounding: the larger scale bounds both
    assert abs(image - want) <= 1e-11 * max(want_scale, image_scale)
    assert abs(image) <= image_scale * (1 + 1e-12)
    # a density that shares its plan with an image keeps its value
    assert (alone, alone_scale) == _plan_value(u_hat, density)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=_catalogue_combinations(), k=st.integers(2, 8), u_hat=_states())
def test_a_tuple_functional_is_the_sum_of_its_parts(case, k, u_hat):
    # a density of pair monomials and one factor group, plus a power image
    p, density = case
    rest, image = quadratic_density(k) + density, PowerImage(density, p)
    (got,), (got_scale,) = DensityPlan(((rest, image),), len(u_hat)).evaluate(u_hat)
    (rest_value, rest_scale), (image_value, image_scale) = (
        _plan_value(u_hat, rest), _plan_value(u_hat, image))
    scale = rest_scale + image_scale
    assert abs(got - (rest_value + image_value)) <= 1e-12 * scale
    assert abs(got_scale - scale) <= 1e-12 * scale


@st.composite
def _few_factor_monomials(draw):
    """Monomials of one to four factors: below the catalogue's 2p+2, so
    the grid is set by the power field's frequencies."""
    u_orders = draw(st.lists(st.integers(0, 4), max_size=4))
    c_orders = draw(st.lists(st.integers(0, 4), min_size=0 if u_orders else 1,
                             max_size=4 - len(u_orders)))
    return Monomial(tuple(u_orders), tuple(c_orders))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(density=st.lists(st.tuples(_few_factor_monomials(),
                                  st.builds(GaussianRational, _fractions, _fractions)),
                        min_size=1, max_size=4).map(_density),
       p=st.integers(2, 3), u_hat=_states())
def test_the_power_image_of_any_density_equals_the_expanded_image(density, p, u_hat):
    got, _ = _plan_value(u_hat, PowerImage(density, p))
    want, scale = _naive_density(u_hat, dt_nonlinear(density, p))
    assert abs(got - want) <= 1e-11 * scale


def test_a_power_image_needs_a_usable_exponent():
    density = Density.monomial((1,), (0, 0))
    for p in (1, 2.0, "2"):
        with pytest.raises(ValueError, match="nonlinearity exponent"):
            PowerImage(density, p)
    assert not PowerImage(density, 2).is_real_valued
    assert PowerImage(density.re_part(), 2).is_real_valued
