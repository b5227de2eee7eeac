"""Relativistic layer: time dilation statistics, boosts, frame changes."""

import tracemalloc
from dataclasses import replace

import hypothesis as hyp
import hypothesis.strategies as st
import numpy as np
import pytest

from qrfsim import relkin, sampling
from qrfsim.clocks import (
    FreeClockState,
    RotatorClockState,
    angle_moments,
    angular_density,
    rotator_evolve_rest,
    rotator_init,
)
from qrfsim.errors import ConfigError, NonPositiveWidth, RoughState
from qrfsim.packets import (
    MomentumGrid,
    WavePacket,
    default_grid,
    evolve_free,
    expectation,
    make_gaussian,
    position_mean,
    variance,
)
from qrfsim.relkin import (
    ClusterHamiltonian,
    EntangledClockState,
    ModeSuperposition,
    RelClockSystem,
    TwoBodyKinematics,
    boosted_evolve,
    cluster_hamiltonian,
    frame_to_frame,
    kg_square_check,
    mc_variance_check,
    newton_wigner_x,
    nonrel_limit_report,
    nw_commutator_residual,
    pair_invariant_mass,
    proper_time_stats,
    rotator_readout_boosted,
    sample_proper_times,
    time_boost,
    two_body_kinematics,
)


def narrow_system(j_z=2, omega=1e-3):
    packet = make_gaussian(default_grid(0.75, 1e-3), 0.75, 1e-3, mass=1.0)
    return RelClockSystem(1.0, packet, rotator_init(j_z, omega))


def gaussian_system(omega=0.02, j_z=4):
    packet = make_gaussian(default_grid(0.75, 0.1), 0.75, 0.1, mass=1.0)
    return RelClockSystem(1.0, packet, rotator_init(j_z, omega))


def freeclock_system():
    packet = make_gaussian(default_grid(0.75, 0.1), 0.75, 0.1, mass=1.0)
    return RelClockSystem(1.0, packet, FreeClockState(0.5, 0.5, 0.2, 25.0))


def shifted_system(chirp, center):
    """gaussian_system's packet with a J_z = 4 clock whose density is symmetric
    about 0 (flat, or chirped c_m ~ e^{0.3 i m^2}), moved rigidly to peak at center."""
    m = np.arange(-4, 5)
    clock = RotatorClockState(4, 0.02, np.exp(1j * chirp * m ** 2) / 3.0)
    clock = rotator_evolve_rest(clock, center / (2 * np.pi * clock.omega))
    packet = make_gaussian(default_grid(0.75, 0.1), 0.75, 0.1, mass=1.0)
    return RelClockSystem(1.0, packet, clock)


def joint_quadrature(sys, tau0, center, n_theta=1 << 16):
    """Mean and variance of tau = B tau0 + theta / (2 pi omega) by brute force.

    The momentum integral uses the packet's own weights; the angle integral
    is a dense midpoint rule on the branch (center - pi, center + pi], with
    {B, theta} built from <m|theta|phi> on that branch.  Nothing here uses
    the library's angle-branch code or the angle-operator matrix.
    """
    clock = sys.clock
    m, c = clock.m_values, clock.coefficients
    p = sys.external.grid.points
    w_p = sys.external.grid.quad_weights() * sys.external.density()
    masses = sys.rest_mass + 2 * np.pi * clock.omega * m
    b = masses[:, None] / np.sqrt(masses[:, None] ** 2 + p[None, :] ** 2)  # (m, p)
    h = 2 * np.pi / n_theta
    theta = center - np.pi + h * (np.arange(n_theta) + 0.5)
    basis = np.exp(1j * np.outer(theta, m)) / np.sqrt(2 * np.pi)
    psi = basis @ c
    theta_psi = h * (basis.conj().T @ (theta * psi))  # <m|theta|phi>
    rho = np.abs(psi) ** 2
    w_m = np.abs(c) ** 2
    anticom = 2 * np.real((np.conj(c) * theta_psi) @ b)  # <{B(p), theta}> per p
    scale = 2 * np.pi * clock.omega
    mean = tau0 * (w_m @ b @ w_p) + h * np.sum(theta * rho) / scale
    second = (tau0 ** 2 * (w_m @ (b * b) @ w_p) + tau0 * (anticom @ w_p) / scale
              + h * np.sum(theta ** 2 * rho) / scale ** 2)
    return mean, second - mean ** 2


class TestTimeBoost:
    def test_three_four_five_triangle(self):
        assert time_boost(0.75, 1.0) == pytest.approx(0.8, abs=1e-15)

    def test_rest_and_ultrarelativistic_limits(self):
        assert time_boost(0.0, 2.0) == 1.0
        assert time_boost(1e6, 1.0) < 2e-6

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(Exception):
            time_boost(0.5, 0.0)


@pytest.mark.parametrize("build", [
    lambda: time_boost(0.5, np.array([1.0, np.nan])),
    lambda: RelClockSystem(np.nan, gaussian_system().external, rotator_init(4, 0.02)),
    lambda: frame_to_frame(gaussian_system().external, np.nan, 0.7, 0.0, 0.0),
    lambda: frame_to_frame(gaussian_system().external, 1.3, np.nan, 0.0, 0.0),
], ids=["time_boost", "rest_mass", "frame_to_frame-m1", "frame_to_frame-m2"])
def test_nan_masses_are_rejected(build):
    with pytest.raises(NonPositiveWidth):
        build()


class TestProperTimeMean:
    def test_narrow_packet_dilation(self):
        # sharply peaked momentum: the moving clock runs at 4/5 rate
        stats = proper_time_stats(narrow_system(), 10.0)
        assert stats.tau_mean == pytest.approx(8.0, abs=1e-3)

    def test_mean_grows_linearly(self):
        sys = gaussian_system()
        s1 = proper_time_stats(sys, 5.0)
        s2 = proper_time_stats(sys, 10.0)
        assert 2 * s1.tau_mean == pytest.approx(s2.tau_mean, rel=1e-12)

    def test_dispatcher_picks_model(self):
        assert proper_time_stats(narrow_system(), 1.0).model == "rotator"
        assert proper_time_stats(freeclock_system(), 1.0).model == "freeclock"


@pytest.mark.parametrize("build", [gaussian_system, freeclock_system],
                         ids=["rotator", "freeclock"])
class TestTauGrid:
    """One call over a tau0 grid equals one call per tau0, bit for bit."""

    TAUS = np.array([0.0, 1.0, 2.5, 16.0, 100.0])

    def test_stats_on_array_equal_scalar_calls(self, build):
        sys = build()
        grid = proper_time_stats(sys, self.TAUS)
        for i, tau0 in enumerate(self.TAUS):
            s = proper_time_stats(sys, float(tau0))
            assert grid.tau0[i] == s.tau0
            assert grid.tau_mean[i] == s.tau_mean and grid.d_tau[i] == s.d_tau
            assert (grid.d_b, grid.g2, grid.d0) == (s.d_b, s.g2, s.d0)
            assert s.d_x is None if grid.d_x is None else grid.d_x[i] == s.d_x
        assert grid.tau_mean.shape == grid.d_tau.shape == self.TAUS.shape

    def test_monte_carlo_on_array_equals_scalar_calls_per_stream(self, build):
        # one ensemble serves every tau0: entry i is the scalar call on the same stream
        sys = build()
        taus = self.TAUS[1:4]
        grid = mc_variance_check(sys, taus, 2000, seed=5, stream=3)
        assert grid.mean.shape == taus.shape
        for i, tau0 in enumerate(taus):
            s = mc_variance_check(sys, float(tau0), 2000, seed=5, stream=3)
            assert (grid.mean[i], grid.variance[i], grid.stderr_mean[i],
                    grid.stderr_variance[i]) == (s.mean, s.variance, s.stderr_mean,
                                                 s.stderr_variance)

    def test_monte_carlo_rows_are_moments_of_sampled_proper_times(self, build):
        sys = build()
        grid = mc_variance_check(sys, self.TAUS, 2000, seed=5, stream=3)
        for i, tau0 in enumerate(self.TAUS):
            t = sample_proper_times(sys, float(tau0), 2000, seed=5, stream=3)
            assert (grid.mean[i], grid.variance[i], grid.stderr_mean[i],
                    grid.stderr_variance[i]) == sampling.sample_moments(t)

    @pytest.mark.parametrize("length", [1, 3, 12])
    def test_monte_carlo_draws_once_per_table(self, build, length, monkeypatch):
        draws = []
        ensemble = relkin._ensemble

        def counted(sys, n, seed, stream):
            draws.append(n)
            return ensemble(sys, n, seed, stream)

        monkeypatch.setattr(relkin, "_ensemble", counted)
        mc_variance_check(build(), np.linspace(0.0, 50.0, length), 500, seed=2)
        assert draws == [500]

    def test_stats_and_guard_build_one_boost_mesh(self, build, monkeypatch):
        expected = mc_variance_check(build(), self.TAUS, 500, seed=2)
        meshes = []
        boost_moments = relkin._boost_moments

        def counted(*args):
            meshes.append(1)
            return boost_moments(*args)

        monkeypatch.setattr(relkin, "_boost_moments", counted)
        sys = build()
        proper_time_stats(sys, self.TAUS)
        shared = mc_variance_check(sys, self.TAUS, 500, seed=2)
        assert len(meshes) == 1
        for field in ("mean", "variance", "stderr_mean", "stderr_variance"):
            assert np.array_equal(getattr(shared, field), getattr(expected, field))

    @pytest.mark.parametrize("taus", [np.array([]), np.zeros((0, 3)), 2.5])
    def test_monte_carlo_keeps_the_shape_of_tau0(self, build, taus):
        chk = mc_variance_check(build(), taus, 500, seed=2)
        for field in ("mean", "variance", "stderr_mean", "stderr_variance"):
            got = getattr(chk, field)
            assert isinstance(got, float) if np.ndim(taus) == 0 else got.shape == taus.shape

    @pytest.mark.parametrize("n", [0, 1, 2.5])
    def test_monte_carlo_needs_two_draws(self, build, n):
        with pytest.raises(ConfigError, match="2 draws"):
            mc_variance_check(build(), self.TAUS, n, seed=2)


@pytest.mark.parametrize("n, rtol", [(2048, 0.0), (1001, 1e-15)])
def test_blocked_boost_mesh_matches_the_full_mesh(n, rtol):
    # the free clock's mesh has n clock momenta: 8 blocks at 2048, a remainder at 1001
    packet = make_gaussian(default_grid(0.75, 0.1, n), 0.75, 0.1, mass=1.0)
    clock = FreeClockState(0.5, 0.5, 0.2, 25.0)
    sys = RelClockSystem(1.0, packet, clock)
    p, w_p = packet.grid.points, packet.grid.quad_weights() * packet.density()
    px = sys.clock_packet.grid.points
    w_x = sys.clock_packet.grid.quad_weights() * sys.clock_packet.density()
    m_op = clock.m_a + clock.m_b + px ** 2 / (2 * clock.mu_ab)
    f = px / clock.p_bar
    blocked = relkin._boost_moments(p, w_p, m_op, w_x, f)

    b = time_boost(p[None, :], m_op[:, None])  # the whole n x n mesh at once
    b_mode = b @ w_p
    s_bar = float(w_x @ (f * b_mode))
    s2_bar = float(w_x @ (f ** 2 * ((b * b) @ w_p)))
    full = (b_mode, s_bar, max(s2_bar - s_bar ** 2, 0.0))
    for got, want in zip(blocked, full):
        np.testing.assert_allclose(got, want, rtol=rtol, atol=0)


def test_rotator_coefficients_need_no_mode_by_mode_array():
    # 2001 modes: a (modes x modes) complex array alone would be 61 MiB
    packet = make_gaussian(default_grid(0.75, 0.1, 2048), 0.75, 0.1, mass=1.0)
    sys = RelClockSystem(1.0, packet, rotator_init(1000, 1e-5))
    tracemalloc.start()
    try:
        proper_time_stats(sys, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


class TestDispersionQuadratic:
    def test_assembled_from_coefficients(self):
        sys = gaussian_system()
        for tau0 in (1.0, 7.0, 30.0):
            s = proper_time_stats(sys, tau0)
            assert s.d_tau == pytest.approx(
                s.d_b * tau0 ** 2 + s.g2 * tau0 + s.d0, rel=1e-12)

    def test_variance_against_dense_oracle(self):
        # independent route: diagonal quadrature for Var(B), dense trapezoid
        # for Var(theta); the cross term vanishes for real amplitudes
        sys = gaussian_system()
        tau0 = 12.0
        p = sys.external.grid.points
        w = sys.external.grid.quad_weights() * sys.external.density()
        masses = 1.0 + 2 * np.pi * sys.clock.omega * sys.clock.m_values
        wm = np.abs(sys.clock.coefficients) ** 2
        b = time_boost(p[None, :], masses[:, None])
        b_bar = float(wm @ (b @ w))
        var_b = float(wm @ ((b * b) @ w)) - b_bar ** 2

        th = np.linspace(-np.pi, np.pi, 200001)
        rho = angular_density(sys.clock, th)
        mean_th = np.trapezoid(rho * th, th)
        var_th = np.trapezoid(rho * th ** 2, th) - mean_th ** 2

        s = proper_time_stats(sys, tau0)
        scale = 2 * np.pi * sys.clock.omega
        assert s.g2 == pytest.approx(0.0, abs=1e-12)
        assert s.d_b == pytest.approx(var_b, rel=1e-10)
        assert s.d_tau == pytest.approx(var_b * tau0 ** 2 + var_th / scale ** 2,
                                        rel=1e-6)

    @pytest.mark.parametrize("chirp,center", [(0.0, 3.0), (0.3, 2.0), (0.3, -3.1), (0.3, 0.0)])
    def test_off_zero_branch_matches_joint_quadrature(self, chirp, center):
        sys = shifted_system(chirp, center)
        for tau0 in (1.0, 16.0):
            s = proper_time_stats(sys, tau0)
            mean, var = joint_quadrature(sys, tau0, center)
            assert s.tau_mean == pytest.approx(mean, rel=1e-9)
            assert s.d_tau == pytest.approx(var, rel=1e-8)
        if chirp:
            # g2 != 0: the ensemble draws the clock offset independently of
            # (p, m), so it would report d_b tau0^2 + d0 and must refuse
            assert abs(s.g2) > 0.5 * np.sqrt(s.d_b * s.d0)
            with pytest.raises(ConfigError, match="g2"):
                mc_variance_check(sys, 16.0, 1000, seed=1)

    @hyp.settings(max_examples=20, deadline=None)
    @hyp.given(chirp=st.sampled_from([0.0, 0.3]), t=st.floats(0.0, 60.0))
    def test_dispersion_is_invariant_under_rest_evolution(self, chirp, t):
        sys = shifted_system(chirp, 0.0)
        moved = RelClockSystem(1.0, sys.external, rotator_evolve_rest(sys.clock, t))
        s0 = proper_time_stats(sys, 16.0)
        s1 = proper_time_stats(moved, 16.0)
        assert s1.d_tau == pytest.approx(s0.d_tau, rel=1e-9)
        assert s1.g2 == pytest.approx(s0.g2, abs=1e-9)

    def test_shifted_clock_samples_on_the_same_branch(self):
        sys = shifted_system(0.0, 3.0)
        stats = proper_time_stats(sys, 16.0)
        chk = mc_variance_check(sys, 16.0, 200_000, seed=1)
        assert abs(chk.mean - stats.tau_mean) < 4 * chk.stderr_mean
        assert abs(chk.variance - stats.d_tau) < 4 * chk.stderr_variance

    def test_rotator_matches_monte_carlo(self):
        sys = gaussian_system()
        stats = proper_time_stats(sys, 8.0)
        chk = mc_variance_check(sys, 8.0, 150_000, seed=7)
        assert abs(chk.mean - stats.tau_mean) < 3 * chk.stderr_mean
        assert abs(chk.variance - stats.d_tau) < 3 * chk.stderr_variance

    def test_freeclock_matches_monte_carlo(self):
        sys = freeclock_system()
        stats = proper_time_stats(sys, 8.0)
        chk = mc_variance_check(sys, 8.0, 150_000, seed=11)
        assert abs(chk.mean - stats.tau_mean) < 3 * chk.stderr_mean
        assert abs(chk.variance - stats.d_tau) < 3 * chk.stderr_variance

    def test_freeclock_rest_dispersion(self):
        sys = freeclock_system()
        s = proper_time_stats(sys, 0.0)
        mu, pbar, a_x = 0.25, 0.2, 25.0
        assert s.d0 == pytest.approx((mu * a_x / pbar) ** 2, rel=1e-2)
        assert s.d_tau == pytest.approx(s.d0, rel=1e-12)

    def test_velocity_spread_dominates_late(self):
        sys = freeclock_system()
        s = proper_time_stats(sys, 3000.0)
        assert s.d_x is not None
        assert s.d_x > 10 * s.d0

    def test_narrower_packets_disperse_less(self):
        widths = [0.2, 0.1, 0.05]
        slopes = []
        for w in widths:
            pk = make_gaussian(default_grid(0.75, w), 0.75, w, mass=1.0)
            sys = RelClockSystem(1.0, pk, rotator_init(4, 0.02))
            slopes.append(proper_time_stats(sys, 1.0).d_b)
        assert slopes[0] > slopes[1] > slopes[2] > 0


class TestSampling:
    def test_same_seed_reproduces(self):
        sys = gaussian_system()
        a = sample_proper_times(sys, 5.0, 1000, seed=42)
        b = sample_proper_times(sys, 5.0, 1000, seed=42)
        assert np.array_equal(a, b)

    def test_streams_are_independent(self):
        sys = gaussian_system()
        a = sample_proper_times(sys, 5.0, 1000, seed=42, stream=0)
        b = sample_proper_times(sys, 5.0, 1000, seed=42, stream=1)
        assert not np.array_equal(a, b)


class TestSystemValidation:
    def test_mode_superposition_normalization(self):
        with pytest.raises(ConfigError):
            ModeSuperposition(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(ConfigError):
            ModeSuperposition(np.array([0.5, 0.5]), np.array([1.0, 0.0]))

    def test_mass_operator_must_stay_positive(self):
        modes = ModeSuperposition(np.array([0.0]), np.array([1.0]))
        with pytest.raises(ConfigError, match="mass operator"):
            RelClockSystem(1.0, modes, rotator_init(20, 0.01))

    def test_freeclock_rest_mass_consistency(self):
        pk = make_gaussian(default_grid(0.5, 0.05), 0.5, 0.05, mass=1.0)
        with pytest.raises(ConfigError, match="rest mass"):
            RelClockSystem(1.5, pk, FreeClockState(0.5, 0.5, 0.2, 25.0))

    def test_hot_clock_warns(self):
        pk = make_gaussian(default_grid(0.5, 0.05), 0.5, 0.05, mass=1.0)
        with pytest.warns(UserWarning, match="internal energy"):
            RelClockSystem(1.0, pk, FreeClockState(0.5, 0.5, 0.5, 2.0))


class TestBoostedEvolution:
    def test_needs_discrete_modes(self):
        with pytest.raises(ConfigError):
            boosted_evolve(gaussian_system(), 1.0)

    def test_single_mode_reduces_to_slowed_rest_evolution(self):
        modes = ModeSuperposition(np.array([0.75]), np.array([1.0]))
        sys = RelClockSystem(1.0, modes, rotator_init(8, 0.01))
        ent = boosted_evolve(sys, 30.0)
        direct = rotator_evolve_rest(sys.clock, 0.8 * 30.0)
        np.testing.assert_allclose(ent.internal_states[0].coefficients,
                                   direct.coefficients, atol=1e-12)
        assert ent.phases[0] == pytest.approx(np.exp(-1j * np.sqrt(1 + 0.75 ** 2) * 30.0))

    def test_single_mode_readout_shows_dilation(self):
        modes = ModeSuperposition(np.array([0.75]), np.array([1.0]))
        sys = RelClockSystem(1.0, modes, rotator_init(8, 0.01))
        out = rotator_readout_boosted(sys, 30.0)
        # flat-state density is symmetric, so the circular mean sits on the peak
        assert out.mean == pytest.approx(0.8 * 30.0, abs=1e-9)

    def test_two_mode_hands_separate(self):
        modes = ModeSuperposition(np.array([0.0, 0.75]),
                                  np.array([1.0, 1.0]) / np.sqrt(2))
        sys = RelClockSystem(1.0, modes, rotator_init(12, 0.01))
        ent = boosted_evolve(sys, 50.0)
        peaks = [angle_moments(st).peak for st in ent.internal_states]
        scale = 2 * np.pi * 0.01
        assert peaks[0] == pytest.approx((scale * 1.0 * 50.0) % (2 * np.pi), abs=1e-9)
        assert peaks[1] == pytest.approx((scale * 0.8 * 50.0) % (2 * np.pi), abs=1e-9)
        # reduced hand density resolves both branches
        th = np.linspace(0, 2 * np.pi, 4096)
        rho = ent.hand_density(th)
        assert np.trapezoid(rho, th) == pytest.approx(1.0, abs=1e-6)
        for peak in peaks:
            window = np.abs((th - peak + np.pi) % (2 * np.pi) - np.pi) < 0.05
            assert rho[window].max() > 2.5 * rho.mean()

    def test_marginals_unchanged_by_evolution(self):
        modes = ModeSuperposition(np.array([0.0, 0.75]),
                                  np.array([0.6, 0.8]))
        sys = RelClockSystem(1.0, modes, rotator_init(12, 0.01))
        ent = boosted_evolve(sys, 37.0)
        np.testing.assert_allclose(ent.marginal_probabilities(), [0.36, 0.64],
                                   atol=1e-15)

    def test_freeclock_modes_spread_differently(self):
        modes = ModeSuperposition(np.array([0.0, 0.75]),
                                  np.array([1.0, 1.0]) / np.sqrt(2))
        sys = RelClockSystem(1.0, modes, FreeClockState(0.5, 0.5, 0.2, 25.0))
        ent = boosted_evolve(sys, 40.0)
        assert ent.model == "freeclock"
        x0 = position_mean(ent.internal_states[0])
        x1 = position_mean(ent.internal_states[1])
        v = 0.2 / 0.25  # group velocity p_bar / mu
        assert x0 == pytest.approx(v * 40.0, rel=1e-9)
        assert x1 == pytest.approx(v * 0.8 * 40.0, rel=1e-9)


class TestTwoBodyKinematics:
    def test_invariant_square_on_random_pairs(self):
        rng = np.random.default_rng(3)
        p1 = rng.normal(scale=2.0, size=(10_000, 3))
        p2 = rng.normal(scale=2.0, size=(10_000, 3))
        kin = TwoBodyKinematics.from_momenta(1.3, 0.7, p1, p2)
        assert kin.invariant_residual() < 1e-10

    def test_frame_at_rest_is_identity(self):
        rng = np.random.default_rng(5)
        p2 = rng.normal(size=(64, 3))
        kin = TwoBodyKinematics.from_momenta(1.3, 0.7, np.zeros((64, 3)), p2)
        np.testing.assert_allclose(kin.p12, p2, atol=1e-14)
        np.testing.assert_allclose(kin.e_s, 1.3 + kin.e2, atol=1e-14)

    def test_back_to_back_closed_form(self):
        # lab modes (+q, -q): the boosted momentum is -q (E1 + E2) / m1
        m1, m2 = 1.3, 0.7
        q = np.linspace(-2.0, 2.0, 41)
        kin = TwoBodyKinematics.from_z_momenta(m1, m2, q, -q)
        e1 = np.sqrt(m1 ** 2 + q ** 2)
        e2 = np.sqrt(m2 ** 2 + q ** 2)
        np.testing.assert_allclose(kin.p12[..., 2], -q * (e1 + e2) / m1, atol=1e-12)

    def test_cm_momentum_closes_the_energy(self):
        # q12 must reproduce the invariant mass: sqrt(m1^2+q^2)+sqrt(m2^2+q^2) = s12
        rng = np.random.default_rng(9)
        p1 = rng.normal(size=(256, 3))
        p2 = rng.normal(size=(256, 3))
        kin = TwoBodyKinematics.from_momenta(1.3, 0.7, p1, p2)
        q2 = np.sum(kin.q12 ** 2, axis=-1)
        closure = np.sqrt(1.3 ** 2 + q2) + np.sqrt(0.7 ** 2 + q2)
        np.testing.assert_allclose(closure, kin.s12, rtol=1e-12)

    def test_packet_level_constructor(self):
        f1 = make_gaussian(default_grid(0.0, 0.0), 0.0, 0.0, mass=1.3)
        g2 = make_gaussian(default_grid(0.5, 0.05), 0.5, 0.05, mass=0.7)
        kin = two_body_kinematics(1.3, f1, g2)
        assert kin.p12.shape == (g2.grid.size, 3)
        np.testing.assert_allclose(kin.p12[:, 2], g2.grid.points, atol=1e-12)

    def test_rejects_scalar_momenta(self):
        with pytest.raises(ConfigError):
            TwoBodyKinematics.from_momenta(1.0, 1.0, np.zeros(4), np.ones(4))


class TestFrameEvolution:
    def test_klein_gordon_square_residual(self):
        f1 = make_gaussian(default_grid(0.2, 0.02), 0.2, 0.02, mass=1.3)
        g2 = make_gaussian(default_grid(0.5, 0.05), 0.5, 0.05, mass=0.7)
        kin = two_body_kinematics(1.3, f1, g2)
        assert kg_square_check(kin, g2) <= 1e-10
        # the residual is read from the record, so a wrong boost shows
        assert kg_square_check(replace(kin, p12=1.01 * kin.p12), g2) > 1e-3

    def test_centroid_moves_at_group_velocity(self):
        from qrfsim.relkin import evolve_in_frame
        g2 = make_gaussian(default_grid(0.5, 0.05), 0.5, 0.05, mass=0.7)
        f1 = make_gaussian(default_grid(0.0, 0.0), 0.0, 0.0, mass=1.3)
        kin = two_body_kinematics(1.3, f1, g2)
        tau = 4.0
        moved = evolve_in_frame(kin, g2, tau)
        v_group = expectation(g2, lambda p: p / np.sqrt(0.7 ** 2 + p ** 2)).real
        assert position_mean(moved) - position_mean(g2) == pytest.approx(
            v_group * tau, rel=1e-6)

    def test_zero_time_is_identity(self):
        from qrfsim.relkin import evolve_in_frame
        g2 = make_gaussian(default_grid(0.5, 0.05), 0.5, 0.05, mass=0.7)
        f1 = make_gaussian(default_grid(0.0, 0.0), 0.0, 0.0, mass=1.3)
        kin = two_body_kinematics(1.3, f1, g2)
        np.testing.assert_allclose(evolve_in_frame(kin, g2, 0.0).amplitudes,
                                   g2.amplitudes, atol=1e-15)


class TestClusterHamiltonian:
    def test_pair_mass_threshold(self):
        g2 = make_gaussian(default_grid(0.3, 0.1), 0.3, 0.1, mass=0.7)
        g3 = make_gaussian(default_grid(-0.2, 0.1), -0.2, 0.1, mass=0.5)
        cl = cluster_hamiltonian(1.3, g2, g3)
        assert cl.s23.min() >= 0.7 + 0.5 - 1e-12
        assert cl.energies.shape == (g2.grid.size, g3.grid.size)

    def test_rest_modes_give_total_mass(self):
        s = pair_invariant_mass(0.7, 0.5, np.zeros(1), np.zeros(1))
        assert s[0] == pytest.approx(1.2, abs=1e-15)

    def test_fused_pair_matches_two_body_energy(self):
        # treating the pair as one body of mass s23 at momentum p23 must give
        # the same frame-1 energy
        g2 = make_gaussian(default_grid(0.3, 0.1), 0.3, 0.1, mass=0.7)
        g3 = make_gaussian(default_grid(-0.2, 0.1), -0.2, 0.1, mass=0.5)
        cl = cluster_hamiltonian(1.3, g2, g3)
        i, j = 100, 1700
        kin = TwoBodyKinematics.from_z_momenta(
            1.3, float(cl.s23[i, j]), np.zeros(1), cl.p23[i, j] * np.ones(1))
        assert cl.energies[i, j] == pytest.approx(float(kin.e_s[0]), rel=1e-12)

    def test_internal_momentum_vanishes_for_comoving_modes(self):
        # equal masses with equal momenta share a rest frame
        g = make_gaussian(default_grid(0.3, 0.1), 0.3, 0.1, mass=0.7)
        cl = cluster_hamiltonian(1.3, g, g)
        diag = np.arange(g.grid.size)
        np.testing.assert_allclose(cl.q23[diag, diag], 0.0, atol=1e-12)


class TestNewtonWigner:
    def test_centered_real_packet_sits_at_origin(self):
        g = make_gaussian(default_grid(0.5, 0.05), 0.5, 0.05, mass=0.7)
        assert newton_wigner_x(g) == pytest.approx(0.0, abs=1e-12)

    def test_translation_phase_moves_the_coordinate(self):
        g = make_gaussian(default_grid(0.5, 0.05), 0.5, 0.05, mass=0.7, x0=2.3)
        assert newton_wigner_x(g) == pytest.approx(2.3, abs=1e-8)

    def test_commutator_is_canonical(self):
        g = make_gaussian(default_grid(0.5, 0.05), 0.5, 0.05, mass=0.7)
        assert nw_commutator_residual(g) < 1e-6

    def test_rough_state_rejected(self):
        grid = default_grid(0.5, 0.05, n=512)
        rng = np.random.default_rng(0)
        amp = rng.normal(size=512) + 1j * rng.normal(size=512)
        amp /= np.sqrt(np.sum(grid.quad_weights() * np.abs(amp) ** 2))
        jagged = WavePacket(grid, amp, 0.7, center=0.5, width=0.05)
        with pytest.raises(RoughState):
            newton_wigner_x(jagged)


class TestFrameToFrame:
    @pytest.mark.parametrize("tau1,tau2", [(0.0, 0.0), (2.0, 3.0), (-1.5, 4.25)])
    def test_round_trip_is_identity(self, tau1, tau2):
        g = make_gaussian(default_grid(0.5, 0.05), 0.5, 0.05, mass=0.7)
        there = frame_to_frame(g, 1.3, 0.7, tau1, tau2)
        back = frame_to_frame(there, 0.7, 1.3, tau2, tau1)
        np.testing.assert_allclose(back.amplitudes, g.amplitudes, atol=1e-9)
        np.testing.assert_allclose(back.grid.points, g.grid.points, atol=1e-12)

    def test_gaussian_center_maps_by_mass_ratio(self):
        g = make_gaussian(default_grid(0.5, 0.05), 0.5, 0.05, mass=0.7)
        out = frame_to_frame(g, 1.3, 0.7, 0.0, 0.0)
        assert out.mass == 1.3
        assert out.center == pytest.approx(-(1.3 / 0.7) * 0.5, rel=1e-12)
        assert expectation(out, lambda p: p).real == pytest.approx(
            -(1.3 / 0.7) * 0.5, rel=1e-6)
        assert out.norm() == pytest.approx(1.0, abs=1e-9)

    def test_time_boost_mean_is_frame_symmetric(self):
        # <m2/E(p12)> in frame 1 equals <m1/E(p21)> in frame 2 mode by mode
        g = make_gaussian(default_grid(0.5, 0.05), 0.5, 0.05, mass=0.7)
        out = frame_to_frame(g, 1.3, 0.7, 0.0, 0.0)
        b_12 = expectation(g, lambda p: 0.7 / np.sqrt(0.7 ** 2 + p ** 2)).real
        b_21 = expectation(out, lambda p: 1.3 / np.sqrt(1.3 ** 2 + p ** 2)).real
        assert b_12 == pytest.approx(b_21, rel=1e-12)


class TestNonrelLimit:
    @pytest.mark.parametrize("m1,m2", [(1.0, 1.0), (1.0, 3.0), (10.0, 1.0)])
    def test_residuals_shrink_quadratically(self, m1, m2):
        rows = nonrel_limit_report(m1, m2, [0.08, 0.04])
        k_m = (m1 + m2) / m1
        h_res = [k_m - r.h_ratio for r in rows]
        x_res = [r.x_ratio - 1.0 / k_m for r in rows]
        assert h_res[0] / h_res[1] == pytest.approx(4.0, abs=0.5)
        assert x_res[0] / x_res[1] == pytest.approx(4.0, abs=0.5)

    def test_ratios_approach_mass_rescalings(self):
        rows = nonrel_limit_report(1.0, 3.0, [0.02])
        assert rows[0].h_ratio == pytest.approx(4.0, rel=1e-3)
        assert rows[0].x_ratio == pytest.approx(0.25, rel=1e-3)

    def test_rejects_relativistic_speeds(self):
        with pytest.raises(ConfigError):
            nonrel_limit_report(1.0, 1.0, [0.5])
