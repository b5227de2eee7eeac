"""Rotator and free-particle clock models."""

import hypothesis as hyp
import hypothesis.strategies as st
import numpy as np
import pytest
from numpy.testing import assert_allclose

from qrfsim.clocks import (
    FreeClockState,
    angle_moments,
    angular_density,
    freeclock_packet,
    freeclock_read,
    rotator_evolve_rest,
    rotator_init,
    rotator_read,
    theta_matrix,
)
from qrfsim.errors import NonPositiveWidth, ZeroMeanMomentum
from qrfsim.packets import evolve_free, position_variance, variance


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
    assert_allclose(clock.coefficients, np.full(5, 5 ** -0.5), atol=1e-15)
    assert_allclose(angular_density(clock, np.array([0.0]))[0], 5 / (2 * np.pi), atol=1e-12)
    assert rotator_read(clock).mean == 0.0


def test_hand_tracks_elapsed_time():
    clock = rotator_evolve_rest(rotator_init(8, 0.1), 2.5)
    mom = angle_moments(clock)
    assert_allclose(mom.peak, np.pi / 2, atol=1e-12)  # 2*pi*omega*t
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
    assert_allclose(mom.mean if mom.mean < np.pi else mom.mean - 2 * np.pi, mean_o, atol=1e-8)
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
    clock = rotator_init(6, 0.2)
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


def test_moments_are_evolution_invariant():
    base = angle_moments(rotator_init(10, 0.3))
    for t in (0.17, 1.93, 7.5):
        evolved = angle_moments(rotator_evolve_rest(rotator_init(10, 0.3), t))
        assert_allclose(evolved.variance_full, base.variance_full, atol=1e-12)
        assert_allclose(evolved.variance_lobe, base.variance_lobe, atol=1e-12)
        assert_allclose(evolved.lobe_mass, base.lobe_mass, atol=1e-12)


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
    assert_allclose(np.abs(clock.coefficients), np.full(11, 11 ** -0.5), atol=1e-12)


def test_periodicity_is_exact():
    clock = rotator_init(7, 0.25)
    cycled = rotator_evolve_rest(clock, clock.period)
    assert_allclose(cycled.coefficients, clock.coefficients, atol=1e-12)


def test_angle_matrix_against_quadrature():
    n = 7
    mat = theta_matrix(n)
    assert_allclose(mat, mat.conj().T, atol=1e-15)
    theta = np.linspace(-np.pi, np.pi, 200001)
    w = np.full(theta.size, theta[1] - theta[0])
    w[0] = w[-1] = w[0] / 2
    m = np.arange(n)
    for a in range(3):
        for b in range(3):
            val = np.sum(w * theta * np.exp(1j * (m[b] - m[a]) * theta)) / (2 * np.pi)
            assert_allclose(mat[a, b], val, atol=1e-8)


# --- free-particle clock ----------------------------------------------------

def test_freeclock_reduced_mass_and_packet():
    clock = FreeClockState(m_a=1.0, m_b=3.0, p_bar=0.2, a_x=25.0)
    assert_allclose(clock.mu_ab, 0.75, atol=1e-15)
    packet = freeclock_packet(clock)
    assert_allclose(np.sqrt(variance(packet, lambda p: p)), clock.sigma_p, rtol=1e-3)


def test_freeclock_rest_dispersion():
    clock = FreeClockState(m_a=1.0, m_b=1.0, p_bar=0.2, a_x=25.0)
    packet = freeclock_packet(clock)
    read = freeclock_read(packet, clock, 0.0)
    assert_allclose(read.mean, 0.0, atol=1e-9)
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


def test_freeclock_rejects_zero_momentum():
    with pytest.raises(ZeroMeanMomentum):
        FreeClockState(m_a=1.0, m_b=1.0, p_bar=0.0, a_x=10.0)


@pytest.mark.parametrize("build", [
    lambda: rotator_init(4, np.nan),
    lambda: FreeClockState(m_a=np.nan, m_b=1.0, p_bar=0.2, a_x=25.0),
    lambda: FreeClockState(m_a=1.0, m_b=np.nan, p_bar=0.2, a_x=25.0),
    lambda: FreeClockState(m_a=1.0, m_b=1.0, p_bar=0.2, a_x=np.nan),
], ids=["omega", "m_a", "m_b", "a_x"])
def test_nan_parameters_are_rejected(build):
    with pytest.raises(NonPositiveWidth):
        build()
