"""Relativistic layer: time dilation statistics, boosts, frame changes."""

import tracemalloc
from dataclasses import replace

import hypothesis as hyp
import hypothesis.strategies as st
import numpy as np
import pytest

from qrfsim import relkin
from qrfsim.clocks import (
    FreeClockState,
    RotatorClockState,
    angle_moments,
    angular_density,
    rotator_evolve_rest,
    rotator_init,
    rotator_read,
)
from qrfsim.errors import ConfigError, NonPositiveWidth, RoughState
from qrfsim.packets import (
    MomentumGrid,
    WavePacket,
    default_grid,
    evolve_free,
    expectation,
    from_function,
    make_gaussian,
    position_mean,
    position_wavefunction,
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
    sample_proper_times,
    time_boost,
    two_body_kinematics,
)
from qrfsim.sampling import INTERP_BLOCK, sample_moments
from oracles import (boost_variance, condition, full_mesh_averages, materialised_ensemble,
                     one_row_moments, trapezoid_weights)


def narrow_system(j_z=2, omega=1e-3):
    packet = make_gaussian(default_grid(0.75, 1e-3), 0.75, 1e-3, mass=1.0)
    return RelClockSystem(1.0, packet, rotator_init(j_z, omega))


def gaussian_system(omega=0.02, j_z=4):
    packet = make_gaussian(default_grid(0.75, 0.1), 0.75, 0.1, mass=1.0)
    return RelClockSystem(1.0, packet, rotator_init(j_z, omega))


def _asymmetric_rotator(j_z=3, omega=0.01):
    """A rotator peaked at m = 1, so its mean internal energy is nonzero."""
    c = np.exp(-(np.arange(-j_z, j_z + 1) - 1.0) ** 2 / 8.0)
    return RotatorClockState(j_z, omega, c / np.linalg.norm(c))


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

    def test_heavy_body_keeps_its_clock_rate(self):
        # m2^2 overflows above ~1.3e154; B must still read 1, not m2/inf = 0
        assert time_boost(0.75, 1e300) == 1.0
        b = time_boost(np.array([-0.75, 0.0, 0.75]), 1e300)
        assert b.shape == (3,) and np.all(b == 1.0)

    def test_light_body_flushes_to_zero_without_overflow(self):
        # (p/m2)^2 overflows below m2 ~ 7.5e-155 p: B < 1e-154 is an underflow, not an error
        with np.errstate(over="raise"):
            assert 0.0 <= time_boost(0.75, 1e-160) < 1e-154
            assert time_boost(0.75, 1e-150) == pytest.approx(1e-150 / 0.75, rel=1e-15)


_P1, _P2 = np.array([0.0, 0.0, 0.3]), np.array([0.0, 0.0, -0.4])


@pytest.mark.parametrize("build", [
    lambda: time_boost(0.5, np.array([1.0, np.nan])),
    lambda: RelClockSystem(np.nan, gaussian_system().external, rotator_init(4, 0.02)),
    lambda: RelClockSystem(np.inf, gaussian_system().external, rotator_init(4, 0.02)),
    lambda: frame_to_frame(gaussian_system().external, np.nan, 0.7, 0.0, 0.0),
    lambda: frame_to_frame(gaussian_system().external, 1.3, np.nan, 0.0, 0.0),
    lambda: TwoBodyKinematics.from_momenta(0.0, 0.7, _P1, _P2),
    lambda: TwoBodyKinematics.from_momenta(-1.3, 0.7, _P1, _P2),
    lambda: TwoBodyKinematics.from_momenta(1.3, np.nan, _P1, _P2),
    lambda: TwoBodyKinematics.from_momenta(1.3, np.inf, _P1, _P2),
], ids=["time_boost", "rest_mass", "rest_mass-inf", "frame_to_frame-m1", "frame_to_frame-m2",
        "from_momenta-m1-zero", "from_momenta-m1-negative", "from_momenta-m2",
        "from_momenta-m2-inf"])
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
        # one ensemble serves every tau0: entry i is the scalar call on the same seed
        sys = build()
        taus = self.TAUS[1:4]
        grid = mc_variance_check(sys, taus, 2000, seed=5)
        assert grid.mean.shape == taus.shape
        for i, tau0 in enumerate(taus):
            s = mc_variance_check(sys, float(tau0), 2000, seed=5)
            assert (grid.mean[i], grid.variance[i], grid.stderr_mean[i],
                    grid.stderr_variance[i]) == (s.mean, s.variance, s.stderr_mean,
                                                 s.stderr_variance)

    def test_monte_carlo_rows_are_moments_of_sampled_proper_times(self, build):
        sys = build()
        grid = mc_variance_check(sys, self.TAUS, 2000, seed=5)
        for i, tau0 in enumerate(self.TAUS):
            t = sample_proper_times(sys, float(tau0), 2000, seed=5)
            np.testing.assert_allclose((grid.mean[i], grid.variance[i], grid.stderr_mean[i],
                                        grid.stderr_variance[i]), one_row_moments(t),
                                       rtol=1e-12, atol=0)

    @pytest.mark.parametrize("length", [1, 3, 12])
    def test_monte_carlo_draws_once_per_table(self, build, length, monkeypatch):
        draws, reductions = [], []
        ensemble, sample_moments = relkin._ensemble_blocks, relkin.sample_moments

        def counted(sys, n, seed):
            draws.append(n)
            return ensemble(sys, n, seed)

        def counted_reduction(*args):
            reductions.append(1)
            return sample_moments(*args)

        monkeypatch.setattr(relkin, "_ensemble_blocks", counted)
        monkeypatch.setattr(relkin, "sample_moments", counted_reduction)
        mc_variance_check(build(), np.linspace(0.0, 50.0, length), 500, seed=2)
        assert draws == [500] and len(reductions) == 1

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


def _freeclock_masses(n):
    packet = make_gaussian(default_grid(0.75, 0.1, n), 0.75, 0.1, mass=1.0)
    sys = RelClockSystem(1.0, packet, FreeClockState(0.5, 0.5, 0.2, 25.0))
    return packet, relkin._clock_modes(sys)[0]


def _rotator_masses(j_z, span, n=512):
    # span = (m_max - m_min) / m_rest; at 200% the lightest mode would be massless
    packet = make_gaussian(default_grid(0.75, 0.1, n), 0.75, 0.1, mass=1.0)
    return packet, 1.0 + 0.5 * span * np.arange(-j_z, j_z + 1) / j_z


BOOST_CASES = {
    **{f"freeclock-{n}": (lambda n=n: _freeclock_masses(n)) for n in (256, 1001, 2048, 4096)},
    **{f"rotator-{j_z}-{span:.0%}": (lambda j_z=j_z, span=span: _rotator_masses(j_z, span))
       for j_z in (1, 4, 1000, 8000) for span in (0.1, 1.0, 1.99)},
    "rotator-1000-199.99%": lambda: _rotator_masses(1000, 1.9999),
    "packet-at-rest-199%": lambda: (make_gaussian(default_grid(0.0, 0.01, 512), 0.0, 0.01,
                                                  mass=1.0), _rotator_masses(1000, 1.99)[1]),
    "one-mode": lambda: (_rotator_masses(1, 0.1)[0], np.array([1.3])),
}


def boost_elements(monkeypatch):
    """B_2 entries that relkin evaluates from here on, one list item per time_boost call
    over a momentum array; _mode_averages' scale and B_2(p0), each B_2 at one momentum
    per mass, are not counted."""
    elements = []
    original = relkin.time_boost

    def counted(p, m2):
        if np.ndim(p) > 0:
            elements.append(np.broadcast(np.asarray(p), np.asarray(m2)).size)
        return original(p, m2)

    monkeypatch.setattr(relkin, "time_boost", counted)
    return elements


@pytest.mark.parametrize("case", sorted(BOOST_CASES))
def test_boost_moments_match_the_full_mesh(case, monkeypatch):
    packet, m_op = BOOST_CASES[case]()
    p, w_p = packet.grid.points, packet.grid.quad_weights() * packet.density()
    elements = boost_elements(monkeypatch)
    got = relkin._mode_averages(p, w_p, m_op)
    np.testing.assert_allclose(got, full_mesh_averages(p, w_p, m_op), rtol=1e-13, atol=0)
    k = sum(elements) // p.size  # masses at which B_2 was evaluated
    if m_op.size > relkin.BOOST_FIRST_NODES:  # interpolated: nested levels 9, 17, 33, ...
        assert k < m_op.size and (k - 1) & (k - 2) == 0
    else:  # no more masses than the first level's nodes, a single one too: each is evaluated
        assert k == m_op.size


def test_a_free_clock_evaluates_17_masses_not_its_2048_modes(monkeypatch):
    # the shipped free clock's 19% mass span: two levels, not a 2048 x 2048 mesh
    elements = boost_elements(monkeypatch)
    freeclock_system().time_operator
    assert sum(elements) == 17 * 2048


def test_masses_past_the_node_limit_are_evaluated_one_by_one(monkeypatch):
    # a log-mass span of 1e200 needs more than BOOST_MAX_NODES points: every mass is
    # evaluated, exactly, one row of momenta at a time
    packet = make_gaussian(default_grid(0.75, 0.1, 64), 0.75, 0.1, mass=1.0)
    p, w_p = packet.grid.points, packet.grid.quad_weights() * packet.density()
    m_op = np.geomspace(1e-100, 1e100, 4000)
    elements = boost_elements(monkeypatch)
    tracemalloc.start()
    try:
        got = relkin._mode_averages(p, w_p, m_op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = full_mesh_averages(p, w_p, m_op)
    np.testing.assert_allclose(got[0], want[0], rtol=1e-13, atol=0)
    # the long-double oracle resolves G only to its own rounding, eps F sqrt(G) + (eps F)^2
    # with eps long double's, as its B_2 nears 1 (m above 1e2 here, 1 exactly above 1e9):
    # measured 0.79 of that beyond the 1e-13 relative, so four of it leave a margin of 5
    eps = np.finfo(np.longdouble).eps
    floor = eps * want[0] * np.sqrt(want[1]) + (eps * want[0]) ** 2
    assert np.all(np.abs(got[1] - want[1]) <= 1e-13 * want[1] + 4 * floor)
    assert max(elements) == p.size  # one mass a row: no (mass x momentum) mesh
    levels = sum(elements) // p.size - m_op.size  # the levels tried before giving up
    assert levels == relkin.BOOST_MAX_NODES
    assert peak < 2 << 20  # nor does any level: a 513 x 513 array alone would be 2.0 MiB


@hyp.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hyp.example(-3.0, -3.0)  # the shipped classical-boost
@hyp.example(-5.0, -7.0)
@hyp.example(-7.0, -9.0)
@hyp.example(-8.0, -9.0)
@hyp.given(st.floats(-8.0, 0.0), st.floats(-9.0, 0.0))
def test_slope_variance_keeps_its_digits_in_the_classical_limit(log_width, log_omega):
    # classical-boost at packet_width 10^log_width and omega 10^log_omega, where its J_z = 2
    # clock keeps a positive mass.  Summed centred, d_b loses only the rounding of each mode's
    # mean F, about eps against the slope's spread sqrt(d_b): measured over 2598 such pairs,
    # within 9.9e-15 of the long-double oracle where d_b > 1e-4 and 0.85 eps / sqrt(d_b)
    # below, so the bound 1e-14 + 4 eps / sqrt(d_b) is used to 0.21 at most.  A difference
    # of squares s2_bar - s_bar^2 reads +7.7e-11 on the shipped scenario and -10% at (-7, -9)
    omega = 10.0 ** log_omega
    hyp.assume(4 * np.pi * omega < 1.0)
    width = 10.0 ** log_width
    packet = make_gaussian(default_grid(0.75, width), 0.75, width, mass=1.0)
    sys = RelClockSystem(1.0, packet, rotator_init(2, omega))
    want = boost_variance(*relkin._external_weights(packet), *relkin._clock_modes(sys))
    bound = 1e-14 + 4 * np.finfo(float).eps / np.sqrt(want)
    assert abs(sys.time_operator.d_b - want) <= bound * want


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


@pytest.mark.parametrize("clock, points", [
    (rotator_init(4, 1e-5), 16385),
    (rotator_init(1000, 1e-5), 32769),
    (FreeClockState(0.5, 0.5, 0.2, 25.0), 16384),
    (FreeClockState(0.5, 0.5, -0.2, 25.0), 16384),
], ids=["4-16385", "1000-32769", "freeclock-16384", "freeclock-backward-16384"])
def test_angle_table_holds_the_clock_variance(clock, points, monkeypatch):
    # the sampler's offset law: uniform within each table step, with the step's
    # trapezoid mass; its exact variance must be the closed-form d0
    tables = []
    original = relkin.density_table

    def recorded(ts, density):
        tables.append((ts, density))
        return original(ts, density)

    monkeypatch.setattr(relkin, "density_table", recorded)
    packet = make_gaussian(default_grid(0.75, 0.1, 256), 0.75, 0.1, mass=1.0)
    sys = RelClockSystem(1.0, packet, clock)
    sample_proper_times(sys, 1.0, 2, seed=0)
    [(ts, d)] = tables  # one table, T's: momenta and modes are drawn by weight
    assert ts.size == points
    a, b = ts[:-1], ts[1:]  # b < a on a descending grid, where every mass is negative
    mass = 0.5 * (d[1:] + d[:-1]) * (b - a)
    mass /= mass.sum()
    mean = mass @ ((a + b) / 2)
    var = mass @ ((a * a + a * b + b * b) / 3) - mean ** 2
    assert var == pytest.approx(sys.time_operator.d0, rel=1e-5)


def _skewed_rotator(j_z=3, omega=0.02):
    c = np.exp(-np.arange(-j_z, j_z + 1) ** 2 / 8.0)
    return RotatorClockState(j_z, omega, c / np.linalg.norm(c))


@pytest.mark.parametrize("clock", [_skewed_rotator(), FreeClockState(0.5, 0.5, 0.2, 25.0)],
                         ids=["rotator", "freeclock"])
@pytest.mark.parametrize("external", [
    make_gaussian(default_grid(0.75, 0.1, 64), 0.75, 0.1, mass=1.0),
    ModeSuperposition(np.array([0.0, 0.5, 1.2]), np.sqrt([0.2, 0.5, 0.3])),
], ids=["packet", "modes"])
def test_draws_are_the_nodes_the_slope_sums_over(clock, external, monkeypatch):
    # every draw of (p, m_2) is a node of the closed forms' quadrature, so the
    # ensemble's exact law is a finite sum whose mean is the slope itself
    sys = RelClockSystem(1.0, external, clock)
    if isinstance(clock, RotatorClockState):
        masses = sys.rest_mass + 2 * np.pi * clock.omega * clock.m_values
        w_m, f = np.abs(clock.coefficients) ** 2, np.ones_like(masses)
    else:
        px = sys.clock_packet.grid.points
        w_m = sys.clock_packet.grid.quad_weights() * sys.clock_packet.density()
        masses, f = clock.m_a + clock.m_b + px ** 2 / (2 * clock.mu_ab), px / clock.p_bar
    if isinstance(external, WavePacket):
        p, w_p = external.grid.points, external.grid.quad_weights() * external.density()
    else:
        p, w_p = external.points, external.probabilities
    b = time_boost(p[None, :], masses[:, None]) @ (w_p / w_p.sum())
    exact = (w_m / w_m.sum()) @ (f * b)
    assert exact == pytest.approx(sys.time_operator.slope, rel=1e-13, abs=0)

    draws = []
    original = relkin.time_boost

    def recorded(p_drawn, m_drawn):
        draws.append((p_drawn, m_drawn))
        return original(p_drawn, m_drawn)

    monkeypatch.setattr(relkin, "time_boost", recorded)
    sample_proper_times(sys, 1.0, 4000, seed=3)
    [(p_drawn, m_drawn)] = draws
    assert np.all(np.isin(p_drawn, p)) and np.all(np.isin(m_drawn, masses))


@pytest.mark.parametrize("build", [gaussian_system, freeclock_system], ids=["rotator", "freeclock"])
@pytest.mark.parametrize("n", [2, 3, INTERP_BLOCK - 1, INTERP_BLOCK, INTERP_BLOCK + 1,
                               3 * INTERP_BLOCK + 3])
def test_blocked_ensemble_is_the_materialised_one(build, n):
    # each block reads its uniforms where the whole ensemble would, n % 4 != 0 included
    sys = build()
    slope, offset = materialised_ensemble(sys, n, seed=8)
    blocks = [(s.copy(), t.copy()) for s, t in relkin._ensemble_blocks(sys, n, seed=8)]
    assert [s.size for s, _ in blocks] == [min(INTERP_BLOCK, n - i)
                                           for i in range(0, n, INTERP_BLOCK)]
    assert np.concatenate([s for s, _ in blocks]).tobytes() == slope.tobytes()
    assert np.concatenate([t for _, t in blocks]).tobytes() == offset.tobytes()
    taus = np.array([0.0, 1.0, 16.0, 1e3])
    chk = mc_variance_check(sys, taus, n, seed=8)
    want = sample_moments([(slope.copy(), offset.copy())], taus)
    for i, tau0 in enumerate(taus):
        got = np.array([chk.mean[i], chk.variance[i], chk.stderr_mean[i], chk.stderr_variance[i]])
        row = np.array([moment[i] for moment in want])
        assert np.all(np.abs(got - row) <= 1e-12 * condition(slope, offset, tau0) * np.abs(row))


def test_monte_carlo_memory_does_not_grow_with_the_draws():
    # blocks of INTERP_BLOCK = 2**13 draws: measured 1.38 MiB traced at both counts
    # (3.46 MiB with blocks of 2**15), a margin of 1.45
    sys, taus = gaussian_system(), np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
    mc_variance_check(sys, taus, 1000, seed=0)  # one-off allocations are not the working set
    peaks = []
    for n in (10 ** 6, 4 * 10 ** 6):
        tracemalloc.start()
        try:
            mc_variance_check(sys, taus, n, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 2 * 2 ** 20 and abs(peaks[1] / peaks[0] - 1) < 0.1


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

    @pytest.mark.parametrize("clock", [rotator_init(4, 0.02), FreeClockState(0.5, 0.5, 0.2, 25.0),
                                       FreeClockState(0.5, 0.5, -0.2, 25.0)],
                             ids=["rotator", "freeclock", "freeclock-backward"])
    def test_discrete_modes_match_monte_carlo(self, clock):
        # the ensemble draws mode momenta by their weights, not from a packet's CDF table
        modes = ModeSuperposition(np.array([0.0, 0.5, 1.2]), np.sqrt([0.2, 0.5, 0.3]))
        sys = RelClockSystem(1.0, modes, clock)
        taus = np.array([0.0, 8.0, 40.0, 200.0])
        stats = proper_time_stats(sys, taus)
        chk = mc_variance_check(sys, taus, 150_000, seed=13)
        assert np.all(np.abs(chk.mean - stats.tau_mean) < 5 * chk.stderr_mean)
        assert np.all(np.abs(chk.variance - stats.d_tau) < 5 * chk.stderr_variance)

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

    def test_seeds_are_independent(self):
        sys = gaussian_system()
        a = sample_proper_times(sys, 5.0, 1000, seed=42)
        b = sample_proper_times(sys, 5.0, 1000, seed=43)
        assert not np.array_equal(a, b)


class TestSystemValidation:
    def test_mode_superposition_normalization(self):
        with pytest.raises(ConfigError):
            ModeSuperposition(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(ConfigError):
            ModeSuperposition(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        half = np.sqrt([0.5, 0.5])
        for points, coeffs in [([0.0, 1.0], [np.nan, 1.0]), ([0.0, np.nan], half),
                               ([0.0, np.inf], half), ([-np.inf, 0.0], half)]:
            with pytest.raises(ConfigError):
                ModeSuperposition(np.array(points), np.array(coeffs))
        modes = ModeSuperposition(np.array([0.0, 0.5]), half)
        with pytest.raises(ConfigError):  # the evolved clock's coefficients are NaN
            boosted_evolve(RelClockSystem(1.0, modes, rotator_init(4, 0.02)), np.nan)

    def test_mass_operator_must_stay_positive(self):
        modes = ModeSuperposition(np.array([0.0]), np.array([1.0]))
        with pytest.raises(ConfigError, match="mass operator"):
            RelClockSystem(1.0, modes, rotator_init(20, 0.01))

    def test_mass_operator_stays_positive_on_unpopulated_modes(self):
        # the boost moments need a positive mass on every mode, so a clock whose only
        # nonpositive mode is empty is refused here, not later by time_operator
        c = np.full(5, 0.5, dtype=complex)
        c[0] = 0.0  # m = -2, at mass 1 - 4 pi 0.1 < 0
        modes = ModeSuperposition(np.array([0.0]), np.array([1.0]))
        with pytest.raises(ConfigError, match="positivity"):
            RelClockSystem(1.0, modes, RotatorClockState(2, 0.1, c))

    def test_freeclock_rest_mass_consistency(self):
        pk = make_gaussian(default_grid(0.5, 0.05), 0.5, 0.05, mass=1.0)
        with pytest.raises(ConfigError, match="rest mass"):
            RelClockSystem(1.5, pk, FreeClockState(0.5, 0.5, 0.2, 25.0))

    @pytest.mark.parametrize("clock, external, rest_mass", [
        (_asymmetric_rotator(), make_gaussian(default_grid(0.75, 0.1), 0.75, 0.1, mass=1.0),
         1.0),
        (FreeClockState(0.5, 0.5, 0.2, 25.0),
         make_gaussian(default_grid(0.75, 0.1), 0.75, 0.1, mass=1.0), 1.0),
        (FreeClockState(0.5, 0.5, 0.2, 25.0),
         ModeSuperposition(np.array([0.0, 0.5, 1.2]), np.sqrt([0.2, 0.5, 0.3])), 1.0),
        # within the 1e-12 that the constructor allows of m_a + m_b
        (FreeClockState(0.5, 0.5, 0.2, 25.0),
         make_gaussian(default_grid(0.75, 0.1), 0.75, 0.1, mass=1.0), 1 - 9e-13),
        (FreeClockState(0.5, 0.5, 0.2, 25.0),
         make_gaussian(default_grid(0.75, 0.1), 0.75, 0.1, mass=1.0), 1 + 9e-13),
    ], ids=["rotator-asymmetric", "freeclock-shipped", "freeclock-modes",
            "freeclock-rest-mass-below", "freeclock-rest-mass-above"])
    def test_alpha_i_is_the_mean_internal_energy(self, clock, external, rest_mass):
        sys = RelClockSystem(rest_mass, external, clock)
        if isinstance(clock, RotatorClockState):
            energy = 2 * np.pi * clock.omega * np.sum(np.abs(clock.coefficients) ** 2
                                                      * clock.m_values)
        else:
            pk = sys.clock_packet
            w = pk.grid.quad_weights() * np.abs(pk.amplitudes) ** 2
            energy = np.sum(w * pk.grid.points ** 2) / (2 * clock.mu_ab)
        assert energy > 1e-3
        assert sys.alpha_i == pytest.approx(energy / sys.rest_mass, rel=1e-14, abs=0)

    def test_hot_clock_warns(self):
        pk = make_gaussian(default_grid(0.5, 0.05), 0.5, 0.05, mass=1.0)
        with pytest.warns(UserWarning, match="internal energy") as record:
            RelClockSystem(1.0, pk, FreeClockState(0.5, 0.5, 0.5, 2.0))
        assert record[0].filename == __file__  # the line that built the system, not __init__


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
                                   direct.coefficients, rtol=0, atol=1e-12)
        assert ent.phases[0] == pytest.approx(np.exp(-1j * np.sqrt(1 + 0.75 ** 2) * 30.0))

    def test_single_mode_readout_shows_dilation(self):
        modes = ModeSuperposition(np.array([0.75]), np.array([1.0]))
        sys = RelClockSystem(1.0, modes, rotator_init(8, 0.01))
        out = rotator_read(boosted_evolve(sys, 30.0).internal_states[0])
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
                                   rtol=0, atol=1e-15)

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
        np.testing.assert_allclose(kin.p12, p2, rtol=0, atol=1e-14)
        np.testing.assert_allclose(kin.e_s, 1.3 + kin.e2, rtol=0, atol=1e-14)

    def test_back_to_back_closed_form(self):
        # lab modes (+q, -q): the boosted momentum is -q (E1 + E2) / m1
        m1, m2 = 1.3, 0.7
        q = np.linspace(-2.0, 2.0, 41)
        kin = TwoBodyKinematics.from_z_momenta(m1, m2, q, -q)
        e1 = np.sqrt(m1 ** 2 + q ** 2)
        e2 = np.sqrt(m2 ** 2 + q ** 2)
        np.testing.assert_allclose(kin.p12[..., 2], -q * (e1 + e2) / m1, rtol=0, atol=1e-12)

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
        np.testing.assert_allclose(kin.p12[:, 2], g2.grid.points, rtol=0, atol=1e-12)

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
                                   g2.amplitudes, rtol=0, atol=1e-15)


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
        np.testing.assert_allclose(cl.q23[diag, diag], 0.0, rtol=0, atol=1e-12)


class TestNewtonWigner:
    def test_centered_real_packet_sits_at_origin(self):
        g = make_gaussian(default_grid(0.5, 0.05), 0.5, 0.05, mass=0.7)
        assert newton_wigner_x(g) == pytest.approx(0.0, abs=1e-12)

    def test_translation_phase_moves_the_coordinate(self):
        g = make_gaussian(default_grid(0.5, 0.05), 0.5, 0.05, mass=0.7, x0=2.3)
        assert newton_wigner_x(g) == pytest.approx(2.3, abs=1e-8)

    @pytest.mark.parametrize("chirp", [-2.0, 3.0])
    @pytest.mark.parametrize("x0", [-2.5, 0.7, 4.0])
    @pytest.mark.parametrize("mass", [0.3, 0.6, 1.0])
    def test_chirped_shifted_packet_matches_position_space_oracle(self, chirp, x0, mass):
        # Psi = Phi / sqrt(2E): its |psi(x)|^2, from the chirp-z sum on a wide x
        # lattice, has centroid <x12>.  The chirp a (p - c)^2 and the 1/2E weight
        # move that centroid off x0.  Measured agreement is <= 9.4e-10 (the 4th-order
        # stencil at 2048 points); the bound is 5e-9.
        c, s = 0.4, 0.2

        def amp(p):
            return np.exp(-(p - c) ** 2 / (4 * s * s) + 1j * chirp * (p - c) ** 2 - 1j * p * x0)

        grid = default_grid(c, s)
        phi = from_function(grid, amp, mass)
        psi = from_function(grid, lambda p: amp(p) / np.sqrt(2 * np.hypot(mass, p)), mass)
        xs = np.linspace(x0 - 60.0, x0 + 60.0, 8193)
        rho = np.abs(position_wavefunction(psi, xs)) ** 2
        w = trapezoid_weights(xs.size, xs[1] - xs[0])
        oracle = np.sum(w * xs * rho) / np.sum(w * rho)
        assert abs(oracle - x0) > 1e-2
        assert newton_wigner_x(phi) == pytest.approx(oracle, abs=5e-9)

    def test_commutator_is_canonical(self):
        g = make_gaussian(default_grid(0.5, 0.05), 0.5, 0.05, mass=0.7)
        assert nw_commutator_residual(g) < 1e-6

    def test_rough_state_rejected(self):
        grid = default_grid(0.5, 0.05, n=512)
        rng = np.random.default_rng(0)
        amp = rng.normal(size=512) + 1j * rng.normal(size=512)
        amp /= np.sqrt(np.sum(grid.quad_weights() * np.abs(amp) ** 2))
        jagged = WavePacket(grid, amp, 0.7)
        with pytest.raises(RoughState):
            newton_wigner_x(jagged)


class TestFrameToFrame:
    @pytest.mark.parametrize("tau1,tau2", [(0.0, 0.0), (2.0, 3.0), (-1.5, 4.25)])
    def test_round_trip_is_identity(self, tau1, tau2):
        g = make_gaussian(default_grid(0.5, 0.05), 0.5, 0.05, mass=0.7)
        there = frame_to_frame(g, 1.3, 0.7, tau1, tau2)
        back = frame_to_frame(there, 0.7, 1.3, tau2, tau1)
        np.testing.assert_allclose(back.amplitudes, g.amplitudes, rtol=0, atol=1e-9)
        np.testing.assert_allclose(back.grid.points, g.grid.points, rtol=0, atol=1e-12)

    def test_gaussian_center_maps_by_mass_ratio(self):
        g = make_gaussian(default_grid(0.5, 0.05), 0.5, 0.05, mass=0.7)
        out = frame_to_frame(g, 1.3, 0.7, 0.0, 0.0)
        assert out.mass == 1.3
        assert expectation(out, lambda p: p).real == pytest.approx(
            -(1.3 / 0.7) * expectation(g, lambda p: p).real, rel=1e-12)
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
