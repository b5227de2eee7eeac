"""Rotator and free-particle clock models."""

import tracemalloc

import hypothesis as hyp
import hypothesis.strategies as st
import numpy as np
import pytest
from numpy.testing import assert_allclose

from qrfsim.clocks import (
    FreeClockState,
    RotatorClockState,
    angle_moments,
    angular_density,
    branch_forms,
    freeclock_packet,
    freeclock_read,
    freeclock_terms,
    rotator_evolve_rest,
    rotator_init,
    rotator_read,
    theta_matrix,
)
from qrfsim import packets
from qrfsim.errors import ConfigError, NonPositiveWidth, ZeroMeanMomentum
from qrfsim.frames import measurement_reduce
from qrfsim.packets import (
    ProductState,
    default_grid,
    evolve_free,
    make_gaussian,
    position_variance,
    variance,
)
from qrfsim.relkin import RelClockSystem, sample_proper_times


def _dense_density(state, thetas):
    """Reference |phi|^2 from the (angles x modes) kernel e^{i m theta}, built
    256 angles at a time."""
    thetas = np.asarray(thetas, dtype=float)
    flat = thetas.ravel()
    phi = np.concatenate([np.exp(1j * np.outer(t, state.m_values)) @ state.coefficients
                          for t in np.split(flat, range(256, flat.size, 256))])
    return (np.abs(phi) ** 2 / (2.0 * np.pi)).reshape(thetas.shape)


def _chirped(j_z):
    m = np.arange(-j_z, j_z + 1)
    c = np.exp(1j * (0.7 * m ** 2 / m.size + 0.4 * m))
    return RotatorClockState(j_z, 0.2, c / np.linalg.norm(c))


def _dense_moments(state, n_grid=32769):
    """Trapezoid-rule oracle for the branch moments (peak assumed at 0)."""
    theta = np.linspace(-np.pi, np.pi, n_grid)
    rho = angular_density(state, theta)
    w = np.full(n_grid, theta[1] - theta[0])
    w[0] = w[-1] = w[0] / 2
    mean = np.sum(w * rho * theta)
    var = np.sum(w * rho * theta ** 2) - mean ** 2
    return mean, var


def test_flat_initialization():
    clock = rotator_init(2, 0.1)
    assert clock.n_states == 5
    assert_allclose(clock.coefficients, np.full(5, 5 ** -0.5), rtol=0, atol=1e-15)
    assert_allclose(angular_density(clock, np.array([0.0]))[0], 5 / (2 * np.pi), rtol=0, atol=1e-12)
    assert rotator_read(clock).mean == 0.0


def test_hand_tracks_elapsed_time():
    clock = rotator_evolve_rest(rotator_init(8, 0.1), 2.5)
    mom = angle_moments(clock)
    assert_allclose(mom.peak, np.pi / 2, rtol=0, atol=1e-12)  # 2*pi*omega*t
    read = rotator_read(clock)
    assert abs(read.mean - 2.5) <= clock.period / (2 * clock.n_states)
    assert not read.wrapped


def test_readout_tracks_time_across_the_period():
    clock = rotator_init(8, 1.0)
    for t in (0.25, 0.5, 0.9):
        read = rotator_read(rotator_evolve_rest(clock, t))
        assert abs(read.mean - t) <= 1.0 / (2 * clock.n_states)


def test_wraparound_flagged_and_reduced():
    clock = rotator_evolve_rest(rotator_init(8, 0.5), 2.75)  # period T = 2
    read = rotator_read(clock)
    assert read.wrapped
    assert abs(read.mean - 0.75) <= clock.period / (2 * clock.n_states)


def test_series_moments_match_dense_quadrature():
    # flat state and a cosine-tapered one, both peaked at 0
    flat = rotator_init(6, 0.2)
    mom = angle_moments(flat)
    mean_o, var_o = _dense_moments(flat)
    assert_allclose(mom.mean if mom.mean < np.pi else mom.mean - 2 * np.pi, mean_o,
                    rtol=0, atol=1e-8)
    assert_allclose(mom.variance_full, var_o, rtol=1e-7)  # oracle is O(h^2) at the branch cut

    m = np.arange(-6, 7)
    c = np.cos(0.4 * m) + 0.0j
    c /= np.linalg.norm(c)
    tapered = rotator_init(6, 0.2)
    tapered = type(tapered)(6, 0.2, c)
    mom_t = angle_moments(tapered)
    _, var_t = _dense_moments(tapered)
    assert_allclose(mom_t.variance_full, var_t, rtol=1e-7)


def test_lobe_moments_match_dense_quadrature():
    for j_z in (6, 1000):
        clock = rotator_init(j_z, 0.2)
        mom = angle_moments(clock)
        half = 2 * np.pi / clock.n_states
        u = np.linspace(-half, half, 16385)
        rho = angular_density(clock, u)
        w = np.full(u.size, u[1] - u[0])
        w[0] = w[-1] = w[0] / 2
        mass = np.sum(w * rho)
        var = np.sum(w * rho * u ** 2) / mass - (np.sum(w * rho * u) / mass) ** 2
        assert_allclose(mom.lobe_mass, mass, rtol=1e-8)
        assert_allclose(mom.variance_lobe, var, rtol=1e-6)


@pytest.mark.parametrize("j_z", [1, 4, 200, 1000])
@pytest.mark.parametrize("thetas", [
    np.linspace(-np.pi, np.pi, 16385),
    np.polynomial.legendre.leggauss(96)[0] * 2 * np.pi / 9,
    (np.arange(720) + 0.5) * 2 * np.pi / 720,
    np.linspace(2 * np.pi, -np.pi, 1001),
    np.float64(0.3),
    np.empty(0),
], ids=["uniform", "gauss-legendre", "midpoints", "descending", "0-d", "empty"])
def test_density_matches_dense_kernel(j_z, thetas):
    clock = _chirped(j_z)
    got, want = angular_density(clock, thetas), _dense_density(clock, thetas)
    assert got.shape == np.shape(thetas)
    assert np.all(np.abs(got - want) <= 1e-12 * np.max(want, initial=0.0))


def test_density_needs_no_angle_by_mode_array():
    # 401 modes x 16385 angles: the complex kernel alone would be 100 MiB
    clock, thetas = _chirped(200), np.linspace(-np.pi, np.pi, 16385)
    tracemalloc.start()
    try:
        angular_density(clock, thetas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_moments_are_evolution_invariant():
    base = angle_moments(rotator_init(10, 0.3))
    for t in (0.17, 1.93, 7.5):
        evolved = angle_moments(rotator_evolve_rest(rotator_init(10, 0.3), t))
        assert_allclose(evolved.variance_full, base.variance_full, rtol=0, atol=1e-12)
        assert_allclose(evolved.variance_lobe, base.variance_lobe, rtol=0, atol=1e-12)
        assert_allclose(evolved.lobe_mass, base.lobe_mass, rtol=0, atol=1e-12)


def test_dispersion_scales_as_inverse_square_of_n():
    sizes, disps = [], []
    for j_z in (4, 8, 16, 32):
        clock = rotator_init(j_z, 1.0)
        sizes.append(clock.n_states)
        disps.append(rotator_read(clock).dispersion)
    slope = np.polyfit(np.log(sizes), np.log(disps), 1)[0]
    assert abs(slope + 2.0) < 0.1


def test_main_lobe_holds_most_of_the_mass():
    for j_z in (4, 16, 48):
        mom = angle_moments(rotator_init(j_z, 1.0))
        assert 0.85 < mom.lobe_mass < 0.95


@hyp.settings(max_examples=30, deadline=None)
@hyp.given(t=st.floats(-10.0, 10.0, allow_nan=False))
def test_evolution_is_unitary(t):
    clock = rotator_evolve_rest(rotator_init(5, 0.7), t)
    assert_allclose(np.abs(clock.coefficients), np.full(11, 11 ** -0.5), rtol=0, atol=1e-12)


def test_periodicity_is_exact():
    clock = rotator_init(7, 0.25)
    cycled = rotator_evolve_rest(clock, clock.period)
    assert_allclose(cycled.coefficients, clock.coefficients, rtol=0, atol=1e-12)


def test_angle_matrix_against_quadrature():
    n = 7
    mat = theta_matrix(n)
    assert_allclose(mat, mat.conj().T, rtol=0, atol=1e-15)
    theta = np.linspace(-np.pi, np.pi, 200001)
    w = np.full(theta.size, theta[1] - theta[0])
    w[0] = w[-1] = w[0] / 2
    m = np.arange(n)
    for a in range(3):
        for b in range(3):
            val = np.sum(w * theta * np.exp(1j * (m[b] - m[a]) * theta)) / (2 * np.pi)
            assert_allclose(mat[a, b], val, rtol=0, atol=1e-8)


@pytest.mark.parametrize("n", [3, 4, 9, 17, 40, 41])
def test_branch_forms_match_dense_products(n):
    # dense oracle: theta_matrix for u, and u^2 from its own closed form
    # <m'|u^2|m> = pi^2/3 on the diagonal, 2 (-1)^k / k^2 at k = m - m' != 0
    rng = np.random.default_rng(n)
    x, y = (rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(2))
    k = np.arange(n)[None, :] - np.arange(n)[:, None]
    u2 = np.where(k == 0, np.pi ** 2 / 3, 2.0 * (-1.0) ** k / np.where(k == 0, 1, k) ** 2)
    got_u, got_u2 = branch_forms(x, y)
    assert_allclose(got_u, np.conj(x) @ theta_matrix(n) @ y, rtol=1e-12)
    assert_allclose(got_u2, np.conj(x) @ u2 @ y, rtol=1e-12)


# --- free-particle clock ----------------------------------------------------

def test_freeclock_reduced_mass_and_packet():
    clock = FreeClockState(m_a=1.0, m_b=3.0, p_bar=0.2, a_x=25.0)
    assert_allclose(clock.mu_ab, 0.75, rtol=0, atol=1e-15)
    packet = freeclock_packet(clock)
    assert_allclose(np.sqrt(variance(packet, lambda p: p)), clock.sigma_p, rtol=1e-3)


def test_freeclock_rest_dispersion():
    clock = FreeClockState(m_a=1.0, m_b=1.0, p_bar=0.2, a_x=25.0)
    packet = freeclock_packet(clock)
    read = freeclock_read(packet, clock, 0.0)
    assert_allclose(read.mean, 0.0, rtol=0, atol=1e-9)
    d0 = (clock.mu_ab * clock.a_x / clock.p_bar) ** 2
    assert_allclose(read.dispersion, d0, rtol=1e-2)


def test_freeclock_mean_is_unbiased():
    clock = FreeClockState(m_a=1.0, m_b=1.0, p_bar=0.2, a_x=25.0)
    packet = freeclock_packet(clock)
    for t in (1.0, 5.0, 10.0):
        read = freeclock_read(packet, clock, t)
        assert abs(read.mean - t) <= 5e-3 * t


def test_freeclock_growth_matches_heisenberg_evolution():
    # independent oracle: evolve the packet under p^2/2mu and measure Var(x)
    clock = FreeClockState(m_a=1.0, m_b=1.0, p_bar=0.2, a_x=25.0)
    packet = freeclock_packet(clock)
    mu, pbar = clock.mu_ab, clock.p_bar
    for t in (2.0, 10.0):
        read = freeclock_read(packet, clock, t)
        evolved = evolve_free(packet, lambda p: p * p / (2 * mu), t)
        oracle = (mu / pbar) ** 2 * position_variance(evolved)
        assert_allclose(read.dispersion, oracle, rtol=1e-8)
        growth = variance(packet, lambda p: p) * t ** 2 / pbar ** 2
        assert_allclose(read.dispersion - freeclock_read(packet, clock, 0.0).dispersion,
                        growth, rtol=1e-6)


def test_position_moments_share_one_stencil_pass(monkeypatch):
    # each moment differentiates Phi once and reads <x> off the x_hat Phi it holds
    calls = []
    derivative = packets._derivative

    def counted(values, h):
        calls.append(h)
        return derivative(values, h)

    monkeypatch.setattr(packets, "_derivative", counted)
    clock = FreeClockState(m_a=1.0, m_b=1.0, p_bar=0.2, a_x=25.0)
    packet = freeclock_packet(clock)
    freeclock_terms(packet, clock)
    assert len(calls) == 3
    calls.clear()
    measurement_reduce(ProductState((packet, freeclock_packet(clock, 256))), [-np.inf, np.inf])
    assert len(calls) == 4  # <x> and Var x of each body


def test_freeclock_rejects_zero_momentum():
    for p_bar in (0.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ZeroMeanMomentum):
            FreeClockState(m_a=1.0, m_b=1.0, p_bar=p_bar, a_x=10.0)


@pytest.mark.parametrize("build, error", [
    (lambda: rotator_init(4, np.nan), NonPositiveWidth),
    (lambda: FreeClockState(m_a=np.nan, m_b=1.0, p_bar=0.2, a_x=25.0), NonPositiveWidth),
    (lambda: FreeClockState(m_a=1.0, m_b=np.nan, p_bar=0.2, a_x=25.0), NonPositiveWidth),
    (lambda: FreeClockState(m_a=1.0, m_b=1.0, p_bar=0.2, a_x=np.nan), NonPositiveWidth),
    (lambda: rotator_init(4, np.inf), NonPositiveWidth),
    (lambda: FreeClockState(m_a=np.inf, m_b=1.0, p_bar=0.2, a_x=25.0), NonPositiveWidth),
    (lambda: FreeClockState(m_a=1.0, m_b=1.0, p_bar=0.2, a_x=np.inf), NonPositiveWidth),
    (lambda: RotatorClockState(np.inf, 0.1, np.array([0.0, 1.0, 0.0])), ConfigError),
    (lambda: RotatorClockState(np.nan, 0.1, np.array([0.0, 1.0, 0.0])), ConfigError),
    (lambda: RotatorClockState(1, 0.1, np.array([0.0, np.nan, 0.0])), ConfigError),
    (lambda: rotator_evolve_rest(rotator_init(4, 0.02), np.nan), ConfigError),
], ids=["omega", "m_a", "m_b", "a_x", "omega-inf", "m_a-inf", "a_x-inf", "j_z-inf", "j_z",
        "coefficients", "evolve-time"])
def test_nan_parameters_are_rejected(build, error):
    with pytest.raises(error):
        build()


def test_integral_float_j_z_is_an_int():
    # a 4.0 clock is the J_z = 4 clock: its modes, and its Monte-Carlo draws
    from_float, from_int = rotator_init(4.0, 0.02), rotator_init(4, 0.02)
    assert type(from_float.j_z) is int and from_float.n_states == 9
    assert from_float.coefficients.tobytes() == from_int.coefficients.tobytes()
    packet = make_gaussian(default_grid(0.75, 0.1), 0.75, 0.1, mass=1.0)
    clock = RotatorClockState(4.0, 0.02, from_int.coefficients)
    draws = [sample_proper_times(RelClockSystem(1.0, packet, c), 10.0, 2000, seed=9)
             for c in (clock, from_int)]
    assert draws[0].tobytes() == draws[1].tobytes()


@pytest.mark.parametrize("j_z", [True, np.True_, 4.5, np.nan, np.inf, "4", None],
                         ids=repr)
def test_j_z_must_be_a_positive_integral_number(j_z):
    with pytest.raises(ConfigError, match="J_z"):
        rotator_init(j_z, 0.02)
    with pytest.raises(ConfigError, match="J_z"):
        RotatorClockState(j_z, 0.02, np.full(9, 1 / 3))


@pytest.mark.parametrize("build", [
    lambda flag: rotator_init(4, flag),
    lambda flag: RotatorClockState(1, flag, np.array([0.0, 1.0, 0.0])),
    lambda flag: FreeClockState(m_a=flag, m_b=1.0, p_bar=0.2, a_x=25.0),
    lambda flag: FreeClockState(m_a=1.0, m_b=flag, p_bar=0.2, a_x=25.0),
    lambda flag: FreeClockState(m_a=1.0, m_b=1.0, p_bar=flag, a_x=25.0),
    lambda flag: FreeClockState(m_a=1.0, m_b=1.0, p_bar=0.2, a_x=flag),
], ids=["rotator_init-omega", "omega", "m_a", "m_b", "p_bar", "a_x"])
@pytest.mark.parametrize("flag", [True, np.True_], ids=repr)
def test_clock_parameters_reject_bools(build, flag):
    # a bool passes 0 < x < inf as 1: the clock would run with a unit parameter
    with pytest.raises(ConfigError, match="bool"):
        build(flag)
