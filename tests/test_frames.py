"""Jacobi charts, exchange operators, internal Hamiltonians, measurement reduction."""

import math
import tracemalloc

import hypothesis as hyp
import hypothesis.strategies as st
import numpy as np
import pytest
from numpy.testing import assert_allclose

from qrfsim.errors import BadLabel, ChartMismatch, ConfigError, NonPositiveWidth
from qrfsim.frames import (
    Body,
    FrameSystem,
    adjacent_exchange,
    apply_transform,
    arf_limit_chart,
    build_chart,
    chart_for_ordering,
    compose_transform,
    exchange_angle,
    exchange_chain,
    gaussian_chart_state,
    internal_hamiltonian,
    measurement_reduce,
)
from qrfsim.packets import ProductState, default_grid, make_gaussian

masses_strategy = st.lists(st.floats(0.1, 10.0, allow_nan=False), min_size=2, max_size=5)


def test_two_body_chart_rows():
    sys2 = FrameSystem.from_masses([1.0, 3.0])
    c1 = build_chart(sys2, 1)
    assert_allclose(c1.coord_map[0], [-1.0, 1.0], atol=1e-15)          # q1 = r2 - r1
    assert_allclose(c1.coord_map[1], [0.25, 0.75], atol=1e-15)         # c.m. row
    c2 = build_chart(sys2, 2)
    assert_allclose(c2.coord_map[0], [1.0, -1.0], atol=1e-15)          # space reflection
    assert_allclose(c2.coord_map[1], c1.coord_map[1], atol=1e-15)


def test_equal_mass_three_body_reduced_masses():
    chart = build_chart(FrameSystem.from_masses([1.0, 1.0, 1.0]), 1)
    assert_allclose(chart.reduced_masses, [2.0 / 3.0, 0.5, 3.0], atol=1e-15)


def test_bad_labels_rejected():
    sys3 = FrameSystem.from_masses([1.0, 2.0, 3.0], roles=["frame", "particle", "frame"])
    with pytest.raises(BadLabel):
        build_chart(sys3, 0)
    with pytest.raises(BadLabel):
        build_chart(sys3, 4)
    with pytest.raises(BadLabel):
        build_chart(sys3, 2)  # particle cannot carry a frame


@hyp.settings(max_examples=60, deadline=None)
@hyp.given(masses=masses_strategy)
def test_every_frame_chart_is_canonical(masses):
    system = FrameSystem.from_masses(masses)
    for label in range(1, system.size + 1):
        chart = build_chart(system, label)
        assert_allclose(chart.pairing_matrix(), np.eye(system.size), atol=1e-12)
        # c.m. row is the mass-weighted average regardless of ordering
        assert_allclose(chart.coord_map[-1], system.masses / system.total_mass, atol=1e-12)


def test_exchange_angle_closed_form():
    assert_allclose(exchange_angle(1.0, 1.0, 1.0), -np.pi / 3, atol=1e-15)
    assert_allclose(exchange_angle(1.0, 2.0, 3.0), -np.arccos(np.sqrt(2.0 / 20.0)), atol=1e-15)
    assert_allclose(exchange_angle(1.0, 2.0, 1e12), -np.pi / 2, atol=1e-6)
    assert exchange_angle(5.0, 3.0, 0.0) == 0.0  # tail pair: pure parity


def test_exchange_matrix_matches_direct_chart_change():
    # the exchange angles of both mass sets are checked in closed form above
    for masses in ([1.0, 2.0, 3.0], [1.0, 1.0, 1.0]):
        system = FrameSystem.from_masses(masses)
        chart = build_chart(system, 1)
        op = adjacent_exchange(system, chart, 0)
        direct = op.target.coord_map @ np.linalg.inv(chart.coord_map)
        assert_allclose(op.matrix, direct, atol=1e-12)
        assert_allclose(abs(np.linalg.det(op.matrix)), 1.0, atol=1e-12)


def test_equal_mass_exchange_has_pi_third_block():
    system = FrameSystem.from_masses([1.0, 1.0, 1.0])
    chart = build_chart(system, 1)
    op = adjacent_exchange(system, chart, 0)
    # in mass-scaled coordinates sqrt(mu) q the block is rotation(-pi/3) * parity
    scale = np.sqrt(chart.reduced_masses[:2])
    assert_allclose(op.target.reduced_masses[:2], chart.reduced_masses[:2], atol=1e-15)
    scaled_block = np.diag(scale) @ op.matrix[:2, :2] @ np.diag(1.0 / scale)
    beta = -np.pi / 3
    rot = np.array([[np.cos(beta), -np.sin(beta)], [np.sin(beta), np.cos(beta)]])
    assert_allclose(scaled_block, rot @ np.diag([-1.0, 1.0]), atol=1e-12)
    assert_allclose(op.matrix[2:, 2:], np.eye(1), atol=1e-15)
    assert_allclose(op.matrix[:2, 2:], 0.0, atol=1e-15)


@hyp.settings(max_examples=40, deadline=None)
@hyp.given(masses=st.lists(st.floats(0.1, 10.0, allow_nan=False), min_size=3, max_size=5),
           data=st.data())
def test_double_exchange_is_identity(masses, data):
    system = FrameSystem.from_masses(masses)
    position = data.draw(st.integers(0, system.size - 2))
    chart = build_chart(system, 1)
    op1 = adjacent_exchange(system, chart, position)
    op2 = adjacent_exchange(system, op1.target, position)
    assert_allclose(op2.matrix @ op1.matrix, np.eye(system.size), atol=1e-12)


def test_two_body_exchange_is_parity_on_amplitudes():
    system = FrameSystem.from_masses([1.0, 3.0])
    chart = build_chart(system, 1)
    state = gaussian_chart_state(chart, [0.4, -0.1], [0.5, 0.7])
    op1 = adjacent_exchange(system, chart, 0)
    once = apply_transform(state, op1)
    twice = apply_transform(once, adjacent_exchange(system, op1.target, 0))
    pts = np.random.default_rng(7).normal(size=(50, 2))
    assert_allclose(twice.amplitude(pts), state.amplitude(pts), atol=1e-12)
    # single application reflects the relative coordinate
    flipped = pts.copy()
    flipped[:, 0] *= -1
    assert_allclose(once.amplitude(flipped), state.amplitude(pts), atol=1e-12)


def test_gaussian_pushforward_center():
    # numerical centroid of the pushed amplitude lands on the linearly mapped mean
    system = FrameSystem.from_masses([1.0, 2.0, 4.0])
    chart = build_chart(system, 1)
    means = np.array([0.3, -0.2, 0.5])
    widths = np.array([0.4, 0.3, 0.5])
    state = gaussian_chart_state(chart, means, widths)
    op = adjacent_exchange(system, chart, 0)
    pushed = apply_transform(state, op)

    axes = [np.linspace(-5.0, 5.0, 96) for _ in range(3)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    dens = np.abs(pushed.amplitude(mesh)) ** 2
    dv = np.prod([a[1] - a[0] for a in axes])
    total = dens.sum() * dv
    assert_allclose(total, 1.0, atol=1e-9)  # norm preserved by the jacobian factor
    centroid = [float((dens * mesh[..., k]).sum() * dv / total) for k in range(3)]
    assert_allclose(centroid, op.matrix @ means, atol=1e-6)


def test_chart_amplitude_holds_one_temporary():
    system = FrameSystem.from_masses(np.linspace(1.0, 4.0, 8))
    means, widths = np.linspace(-1.0, 1.0, 8), np.linspace(0.5, 2.0, 8)
    state = gaussian_chart_state(build_chart(system, 1), means, widths)
    pushed = state
    for op in exchange_chain(system, 8):  # seven exchanges: still one product
        pushed = apply_transform(pushed, op)
    q = np.random.default_rng(3).normal(0.0, 2.0, (32768, 8))
    for s in (state, pushed):
        tracemalloc.start()
        try:
            s.amplitude(q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * q.nbytes
    norm = np.prod((2.0 * np.pi * widths ** 2) ** -0.25)
    expected = norm * np.exp(-np.sum((q - means) ** 2 / (4.0 * widths ** 2), axis=-1))
    assert_allclose(state.amplitude(q), expected, rtol=1e-12, atol=0.0)
    u = compose_transform(system, 1, 8).matrix
    back = state.amplitude(q @ np.linalg.inv(u).T) / np.sqrt(abs(np.linalg.det(u)))
    assert_allclose(pushed.amplitude(q), back, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("n", range(3, 9))
def test_pushed_density_is_the_mapped_normal(n):
    # |psi|^2 of a product Gaussian pushed through q' = U q is N(U mu, U diag(sig^2) U^T)
    rng = np.random.default_rng(n)
    system = FrameSystem.from_masses(rng.uniform(0.1, 10.0, n))
    means, widths = rng.normal(0.0, 1.0, n), rng.uniform(0.3, 2.0, n)
    state = gaussian_chart_state(build_chart(system, 1), means, widths)
    label = int(rng.integers(2, n + 1))
    u = compose_transform(system, 1, label).matrix
    chained = state
    for op in exchange_chain(system, label):
        chained = apply_transform(chained, op)
    direct = apply_transform(state, compose_transform(system, 1, label))

    mean, cov = u @ means, u @ np.diag(widths ** 2) @ u.T
    q = rng.multivariate_normal(mean, cov, 500)
    logdet = np.linalg.slogdet(cov)[1]
    z = q - mean
    maha = np.sum(z * np.linalg.solve(cov, z.T).T, axis=-1)
    pdf = np.exp(-0.5 * (maha + logdet + n * np.log(2.0 * np.pi)))
    for pushed in (chained, direct):
        assert pushed.chart.ordering == build_chart(system, label).ordering
        assert_allclose(np.abs(pushed.amplitude(q)) ** 2, pdf, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("means, widths, error", [
    ([0.0, np.nan, 0.0], [1.0, 1.0, 1.0], ConfigError),
    ([0.0, np.inf, 0.0], [1.0, 1.0, 1.0], ConfigError),
    ([0.0, 0.0, 0.0], [1.0, np.nan, 1.0], NonPositiveWidth),
    ([0.0, 0.0, 0.0], [1.0, np.inf, 1.0], NonPositiveWidth),
], ids=["nan-mean", "inf-mean", "nan-width", "inf-width"])
def test_chart_state_inputs_fail_closed(means, widths, error):
    chart = build_chart(FrameSystem.from_masses([1.0, 2.0, 4.0]), 1)
    with pytest.raises(error):
        gaussian_chart_state(chart, means, widths)


def test_transform_rejects_wrong_chart():
    system = FrameSystem.from_masses([1.0, 2.0, 4.0])
    c1, c2 = build_chart(system, 1), build_chart(system, 2)
    state = gaussian_chart_state(c2, [0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    with pytest.raises(ChartMismatch):
        apply_transform(state, adjacent_exchange(system, c1, 0))


def test_compose_identity_and_inverse_pair():
    system = FrameSystem.from_masses([1.0, 2.0, 3.0])
    assert_allclose(compose_transform(system, 2, 2).matrix, np.eye(3), atol=1e-12)
    u12 = compose_transform(system, 2, 1)
    u21 = compose_transform(system, 1, 2)
    assert_allclose(u12.matrix @ u21.matrix, np.eye(3), atol=1e-12)


def test_exchange_chain_reproduces_composed_transform():
    system = FrameSystem.from_masses([1.0, 2.0, 3.0, 4.0])
    for k in (2, 3, 4):
        chain = exchange_chain(system, k)
        product = np.eye(4)
        for op in chain:
            product = op.matrix @ product
        assert_allclose(product, compose_transform(system, 1, k).matrix, atol=1e-12)
        assert chain[-1].target.ordering == build_chart(system, k).ordering


@hyp.settings(max_examples=25, deadline=None)
@hyp.given(masses=st.lists(st.floats(0.1, 10.0, allow_nan=False), min_size=3, max_size=5),
           data=st.data())
def test_composition_coherence(masses, data):
    system = FrameSystem.from_masses(masses)
    n = system.size
    j = data.draw(st.integers(1, n))
    k = data.draw(st.integers(1, n))
    l = data.draw(st.integers(1, n))
    left = compose_transform(system, k, l).matrix @ compose_transform(system, j, k).matrix
    assert_allclose(left, compose_transform(system, j, l).matrix, atol=1e-12)


@hyp.settings(max_examples=25, deadline=None)
@hyp.given(masses=masses_strategy)
def test_relative_positions_recoverable_from_chart_rows(masses):
    system = FrameSystem.from_masses(masses)
    chart = build_chart(system, 1)
    n = system.size
    for j in range(1, n):
        target = np.zeros(n)
        target[j], target[0] = 1.0, -1.0  # r_{j+1} - r_1
        coeffs = np.linalg.solve(chart.coord_map.T, target)
        assert_allclose(coeffs[-1], 0.0, atol=1e-12)  # no c.m. admixture
        assert_allclose(coeffs @ chart.coord_map, target, atol=1e-12)


def test_arf_chart_limits():
    # single particle: relative row tends to r_1 - r_A
    solo = FrameSystem.from_masses([2.0])
    chart = arf_limit_chart(solo)
    assert_allclose(chart.coord_map[0], [1.0, -1.0], atol=1e-8)
    assert_allclose(chart.coord_map[-1], [0.0, 1.0], atol=1e-7)  # c.m. -> frame body

    sys2 = FrameSystem.from_masses([1.0, 2.0])
    rows = arf_limit_chart(sys2).coord_map
    direct = build_chart(
        FrameSystem.from_masses([1.0, 2.0, 1e8 * 2.0]), 3).coord_map
    assert_allclose(rows, direct, atol=1e-12)
    # halving 1/m_A halves the distance to the strict limit
    exact = np.array([[1 / 3, 2 / 3, -1.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    err1 = np.max(np.abs(arf_limit_chart(sys2, 1e6).coord_map - exact))
    err2 = np.max(np.abs(arf_limit_chart(sys2, 2e6).coord_map - exact))
    assert err1 / err2 == pytest.approx(2.0, rel=1e-3)


def test_two_body_internal_hamiltonian_is_reduced_mass_freedom():
    system = FrameSystem.from_masses([1.0, 3.0])
    chart = build_chart(system, 1)
    ham = internal_hamiltonian(system, chart)
    pi = np.array([[0.7], [1.3], [-0.2]])
    assert_allclose(ham.mode_energies(pi), pi[:, 0] ** 2 / (2 * 0.75), atol=1e-15)


@hyp.settings(max_examples=40, deadline=None)
@hyp.given(masses=masses_strategy, data=st.data())
def test_kinetic_energy_decomposition(masses, data):
    system = FrameSystem.from_masses(masses)
    label = data.draw(st.integers(1, system.size))
    ham = internal_hamiltonian(system, build_chart(system, label))
    free = np.diag(1.0 / (2.0 * system.masses))
    assert_allclose(ham.internal_form + ham.cm_form, free, atol=1e-12)
    # internal part is invariant under a global boost p_j -> p_j + m_j v
    assert_allclose(ham.internal_form @ system.masses, np.zeros(system.size), atol=1e-12)


def test_internal_energy_is_diagonal_in_chart_momenta():
    system = FrameSystem.from_masses([1.0, 1.0, 1.0])
    chart = build_chart(system, 1)
    ham = internal_hamiltonian(system, chart)
    rng = np.random.default_rng(3)
    pi = rng.normal(size=(20, 2))
    p_total = rng.normal(size=20)
    chart_momenta = np.concatenate([pi, p_total[:, None]], axis=1)
    p = chart_momenta @ np.linalg.inv(chart.momentum_map).T
    assert_allclose(ham.internal_energy(p), ham.mode_energies(pi), atol=1e-12)


# --- measurement reduction -------------------------------------------------

def _position_pair(sig_n=0.05, sig_1=1.0, x_n=0.0, x_1=0.0, m_n=1.0, m_1=1.0):
    pk_n = make_gaussian(default_grid(0.0, 1 / (2 * sig_n), 1024),
                         center=0.0, width=1 / (2 * sig_n), mass=m_n, x0=x_n)
    pk_1 = make_gaussian(default_grid(0.0, 1 / (2 * sig_1), 1024),
                         center=0.0, width=1 / (2 * sig_1), mass=m_1, x0=x_1)
    return ProductState((pk_n, pk_1))


def test_reduction_preserves_trace_and_structure():
    state = _position_pair()
    bins = np.linspace(-12.0, 12.0, 7)
    rho = measurement_reduce(state, bins)
    assert abs(rho.trace() - 1.0) < 1e-9
    m = rho.matrix * rho.delta_spacing
    assert_allclose(m, m.conj().T, atol=1e-12)
    assert np.linalg.eigvalsh(m).min() > -1e-9


def test_symmetric_split_gives_half_half():
    state = _position_pair(sig_n=0.3, sig_1=0.4)
    rho = measurement_reduce(state, np.array([-12.0, 0.0, 12.0]))
    assert_allclose(rho.weights, [0.5, 0.5], atol=1e-6)


def test_offset_split_matches_gaussian_overlap():
    sig_n, sig_1, shift = 0.3, 0.4, 0.25
    state = _position_pair(sig_n=sig_n, sig_1=sig_1)
    rho = measurement_reduce(state, np.array([-12.0, shift, 12.0]), mesh_points=1536)
    expected = 0.5 * (1.0 + math.erf(shift / np.sqrt(2.0 * (sig_n ** 2 + sig_1 ** 2))))
    assert_allclose(rho.weights[0], expected, atol=2e-3)


def test_sharp_packet_conditions_to_its_own_width():
    state = _position_pair(sig_n=0.02, sig_1=1.0)
    rho = measurement_reduce(state, np.linspace(-12.0, 12.0, 5))
    kept = rho.widths[rho.weights > 0.05]
    assert np.all(np.abs(kept - 0.02) < 0.2 * 0.02)


def test_single_bin_reduction_keeps_everything():
    state = _position_pair(sig_n=0.3, sig_1=0.5)
    rho = measurement_reduce(state, np.array([-12.0, 12.0]))
    assert_allclose(rho.weights, [1.0], atol=1e-12)
    gram = rho.matrix
    assert np.count_nonzero(gram) == gram.size  # no coherence erased


def test_reduction_is_idempotent():
    state = _position_pair(sig_n=0.3, sig_1=0.5)
    bins = np.linspace(-12.0, 12.0, 5)
    rho1 = measurement_reduce(state, bins)
    rho2 = measurement_reduce(rho1, bins)
    assert_allclose(rho2.matrix, rho1.matrix, atol=1e-9)
    assert_allclose(rho2.weights, rho1.weights, atol=1e-9)


def test_empty_bins_dropped_and_recorded():
    state = _position_pair(sig_n=0.1, sig_1=0.1)
    bins = np.array([-30.0, -20.0, 20.0, 30.0])  # outer bins far in the tails
    rho = measurement_reduce(state, bins)
    assert rho.dropped_bins == (0, 2)
    assert_allclose(rho.weights.sum(), 1.0, atol=1e-9)


def test_bins_must_cover_support():
    with pytest.raises(ConfigError):
        measurement_reduce(_position_pair(), np.array([-0.5, 0.5]))
    for edges in ([-50.0, np.nan, 50.0], [np.nan, 0.0, 50.0], [-50.0, 50.0, np.nan]):
        with pytest.raises(ConfigError):
            measurement_reduce(_position_pair(), np.array(edges))
    for mesh_points in (1, 0, 2.5):
        with pytest.raises(ConfigError):
            measurement_reduce(_position_pair(), np.array([-50.0, 50.0]), mesh_points)
    # infinite outer edges cover any range
    rho = measurement_reduce(_position_pair(), np.array([-np.inf, 0.0, np.inf]))
    assert_allclose(rho.weights, [0.5, 0.5], atol=1e-6)
