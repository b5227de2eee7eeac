"""Jacobi charts, exchange operators, internal Hamiltonians, measurement reduction."""

import gc
import math
import tracemalloc
import weakref

import hypothesis as hyp
import hypothesis.strategies as st
import numpy as np
import pytest
from numpy.testing import assert_allclose

from qrfsim import frames
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
    exchange_chain,
    frame_ordering,
    gaussian_chart_state,
    internal_hamiltonian,
    measurement_reduce,
)
from qrfsim.packets import (
    ProductState,
    default_grid,
    make_gaussian,
    position_mean,
    position_variance,
    position_wavefunction,
)
from qrfsim.sampling import INTERP_BLOCK
from oracles import exchange_angle, jacobi_momentum_map

masses_strategy = st.lists(st.floats(0.1, 10.0, allow_nan=False), min_size=2, max_size=5)


def test_two_body_chart_rows():
    sys2 = FrameSystem.from_masses([1.0, 3.0])
    c1 = build_chart(sys2, 1)
    assert_allclose(c1.coord_map[0], [-1.0, 1.0], rtol=0, atol=1e-15)  # q1 = r2 - r1
    assert_allclose(c1.coord_map[1], [0.25, 0.75], rtol=0, atol=1e-15)  # c.m. row
    c2 = build_chart(sys2, 2)
    assert_allclose(c2.coord_map[0], [1.0, -1.0], rtol=0, atol=1e-15)  # space reflection
    assert_allclose(c2.coord_map[1], c1.coord_map[1], rtol=0, atol=1e-15)


def test_equal_mass_three_body_reduced_masses():
    chart = build_chart(FrameSystem.from_masses([1.0, 1.0, 1.0]), 1)
    assert_allclose(chart.reduced_masses, [2.0 / 3.0, 0.5, 3.0], rtol=0, atol=1e-15)


def test_bad_labels_rejected():
    sys3 = FrameSystem.from_masses([1.0, 2.0, 3.0], roles=["frame", "particle", "frame"])
    with pytest.raises(BadLabel):
        build_chart(sys3, 0)
    with pytest.raises(BadLabel):
        build_chart(sys3, 4)
    with pytest.raises(BadLabel):
        build_chart(sys3, 2)  # particle cannot carry a frame


@pytest.mark.parametrize("label", [0, 2, 4])
def test_exchange_chain_rejects_what_build_chart_rejects(label):
    sys3 = FrameSystem.from_masses([1.0, 2.0, 3.0], roles=["frame", "particle", "frame"])
    for build in (lambda: build_chart(sys3, label), lambda: compose_transform(sys3, 1, label),
                  lambda: exchange_chain(sys3, label)):
        with pytest.raises(BadLabel):
            build()
    assert exchange_chain(sys3, 3)[-1].target.ordering == build_chart(sys3, 3).ordering



@pytest.mark.parametrize("roles", [[], ["frame"], ["frame"] * 4], ids=["empty", "short", "long"])
def test_roles_must_match_masses(roles):
    with pytest.raises(ConfigError, match="roles"):
        FrameSystem.from_masses([1.0, 2.0, 3.0], roles)

@hyp.settings(max_examples=60, deadline=None)
@hyp.given(masses=masses_strategy)
def test_every_frame_chart_is_canonical(masses):
    system = FrameSystem.from_masses(masses)
    for label in range(1, system.size + 1):
        chart = build_chart(system, label)
        assert_allclose(chart.pairing_matrix(), np.eye(system.size), rtol=0, atol=1e-12)
        # c.m. row is the mass-weighted average regardless of ordering
        assert_allclose(chart.coord_map[-1], system.masses / system.total_mass, rtol=0, atol=1e-12)


@hyp.settings(max_examples=60, deadline=None)
@hyp.given(masses=masses_strategy)
def test_exchange_turn_is_the_angle_forms_cos_and_sin(masses):
    # the pair's masses and the mass beyond it, 0 for a pair of two; measured worst 6.9 eps,
    # at m1, m2 near 10 and m3 near 0.1, where the oracle's arccos is worst conditioned
    # (1/|sin beta| ~ 7), so 16 eps leaves a margin of 2
    m1, m2, m3 = masses[0], masses[1], sum(masses[2:])
    beta = exchange_angle(m1, m2, m3)
    assert_allclose(frames._exchange_cs(m1, m2, m3), [np.cos(beta), np.sin(beta)],
                    rtol=0, atol=16 * np.finfo(float).eps)


@pytest.mark.parametrize("masses", [(math.nan, 1.0, 1.0), (1.0, math.inf, 1.0),
                                    (1.0, 1.0, math.nan), (-math.inf, 1.0, 1.0),
                                    (1.0, 1.0, math.inf)])
def test_from_masses_rejects_non_finite_masses(masses):
    # Body is the guard that keeps every exchange's (cos, sin) finite
    with pytest.raises(NonPositiveWidth):
        FrameSystem.from_masses(masses)


@pytest.mark.parametrize("build", [
    lambda: FrameSystem.from_masses([1e-320, 1.0, 2.0, 3.0]),
    lambda: FrameSystem((Body(1.0), Body(1e-320), Body(2.0), Body(3.0))),
    lambda: arf_limit_chart(FrameSystem.from_masses([1e-300, 1.0])),  # share 1e-300 / 1e8
], ids=["from-masses", "bodies", "arf-limit"])
def test_frame_system_refuses_a_share_that_underflows(build):
    # a body of share 1e-320 dropped out of the c.m. row: every frame chart's pairing was off
    # the identity by 1, exchange_chain gave NaN maps and adjacent_exchange refused the
    # system's own chart
    with pytest.raises(ConfigError, match="share of the total mass underflows"):
        build()
    system = FrameSystem.from_masses([np.finfo(float).tiny, 1.0])  # the least share admitted
    assert np.all(np.isfinite(exchange_chain(system, 2)[0].target.coord_map))
    adjacent_exchange(system, build_chart(system, 1), 0)


def test_exchange_matrix_matches_direct_chart_change():
    # the exchange angles of both mass sets are checked in closed form in test_oracles
    for masses in ([1.0, 2.0, 3.0], [1.0, 1.0, 1.0]):
        system = FrameSystem.from_masses(masses)
        chart = build_chart(system, 1)
        op = adjacent_exchange(system, chart, 0)
        direct = chart_for_ordering(system, op.target.ordering).coord_map @ np.linalg.inv(
            chart.coord_map)
        assert_allclose(op.matrix, direct, rtol=0, atol=1e-12)
        assert_allclose(abs(np.linalg.det(op.matrix)), 1.0, rtol=0, atol=1e-12)


def test_equal_mass_exchange_has_pi_third_block():
    system = FrameSystem.from_masses([1.0, 1.0, 1.0])
    chart = build_chart(system, 1)
    op = adjacent_exchange(system, chart, 0)
    # in mass-scaled coordinates sqrt(mu) q the block is rotation(-pi/3) * parity
    scale = np.sqrt(chart.reduced_masses[:2])
    assert_allclose(op.target.reduced_masses[:2], chart.reduced_masses[:2], rtol=0, atol=1e-15)
    scaled_block = np.diag(scale) @ op.matrix[:2, :2] @ np.diag(1.0 / scale)
    beta = -np.pi / 3
    rot = np.array([[np.cos(beta), -np.sin(beta)], [np.sin(beta), np.cos(beta)]])
    assert_allclose(scaled_block, rot @ np.diag([-1.0, 1.0]), rtol=0, atol=1e-12)
    assert_allclose(op.matrix[2:, 2:], np.eye(1), rtol=0, atol=1e-15)
    assert_allclose(op.matrix[:2, 2:], 0.0, rtol=0, atol=1e-15)


@hyp.settings(max_examples=40, deadline=None)
@hyp.given(masses=st.lists(st.floats(0.1, 10.0, allow_nan=False), min_size=3, max_size=5),
           data=st.data())
def test_double_exchange_is_identity(masses, data):
    system = FrameSystem.from_masses(masses)
    position = data.draw(st.integers(0, system.size - 2))
    chart = build_chart(system, 1)
    op1 = adjacent_exchange(system, chart, position)
    op2 = adjacent_exchange(system, op1.target, position)
    assert_allclose(op2.matrix @ op1.matrix, np.eye(system.size), rtol=0, atol=1e-12)


@hyp.settings(max_examples=60, deadline=None)
@hyp.given(masses=masses_strategy, data=st.data())
def test_exchange_target_is_the_directly_built_chart(masses, data):
    # the target's rows are derived from the exchange block; chart_for_ordering is the oracle
    system = FrameSystem.from_masses(masses)
    n = system.size
    chart = chart_for_ordering(system, data.draw(st.permutations(range(1, n + 1))))
    for position in range(n - 1):
        op = adjacent_exchange(system, chart, position)
        # the matrix derived from the two charts is identity outside the pair's 2x2 block
        moved = op.matrix - np.eye(n)
        moved[position:position + 2, position:position + 2] = 0.0
        assert_allclose(moved, 0.0, rtol=0, atol=2e-15)
        target = op.target
        direct = chart_for_ordering(system, target.ordering)
        assert_allclose(target.coord_map, direct.coord_map, rtol=0, atol=1e-12)
        assert_allclose(target.momentum_map, direct.momentum_map, rtol=0, atol=1e-12)
        assert target.reduced_masses.tobytes() == direct.reduced_masses.tobytes()
    for label in range(2, n + 1):
        end, built = exchange_chain(system, label)[-1].target, build_chart(system, label)
        assert end.ordering == built.ordering
        assert_allclose(end.coord_map, built.coord_map, rtol=0, atol=1e-12)
        assert_allclose(end.momentum_map, built.momentum_map, rtol=0, atol=1e-12)
        assert end.reduced_masses.tobytes() == built.reduced_masses.tobytes()


@hyp.settings(max_examples=40, deadline=None)
@hyp.given(masses=masses_strategy)
def test_every_frame_change_has_unit_determinant(masses):
    # why apply_transform keeps the norm: the |det U|^(-1/2) Jacobian factor is 1
    system = FrameSystem.from_masses(masses)
    labels = range(1, system.size + 1)
    for j in labels:
        for k in labels:
            det = np.linalg.det(compose_transform(system, j, k).matrix)
            assert abs(abs(det) - 1.0) <= 1e-12


@pytest.mark.parametrize("masses, chart_masses", [
    ([5.0, 2.0, 3.0], [1.0, 2.0]),
    ([5.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0]),
    ([5.0, 2.0, 3.0], [1.0, 2.0, 3.0]),
    ([1.0, 3.0], [3.0, 1.0]),  # equal reduced masses; only the c.m. row tells them apart
], ids=["fewer-bodies", "more-bodies", "other-masses", "mirrored-masses"])
def test_exchange_rejects_a_chart_of_another_system(masses, chart_masses):
    system = FrameSystem.from_masses(masses)
    chart = build_chart(FrameSystem.from_masses(chart_masses), 1)
    with pytest.raises(ChartMismatch):
        adjacent_exchange(system, chart, 0)


def test_two_body_exchange_is_parity_on_amplitudes():
    system = FrameSystem.from_masses([1.0, 3.0])
    chart = build_chart(system, 1)
    state = gaussian_chart_state(chart, [0.4, -0.1], [0.5, 0.7])
    op1 = adjacent_exchange(system, chart, 0)
    once = apply_transform(state, op1)
    twice = apply_transform(once, adjacent_exchange(system, op1.target, 0))
    pts = np.random.default_rng(7).normal(size=(50, 2))
    assert_allclose(twice.amplitude(pts), state.amplitude(pts), rtol=0, atol=1e-12)
    # single application reflects the relative coordinate
    flipped = pts.copy()
    flipped[:, 0] *= -1
    assert_allclose(once.amplitude(flipped), state.amplitude(pts), rtol=0, atol=1e-12)


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
    assert_allclose(total, 1.0, rtol=0, atol=1e-9)  # norm preserved by the jacobian factor
    centroid = [float((dens * mesh[..., k]).sum() * dv / total) for k in range(3)]
    assert_allclose(centroid, op.matrix @ means, rtol=0, atol=1e-6)


def _pushed_to_last_frame(masses, means, widths):
    """(state, its push to frame N's chart, the composed map u) for a product state on
    frame 1's chart: N - 1 exchanges leave one Gaussian, with a full factor."""
    system = FrameSystem.from_masses(masses)
    state = gaussian_chart_state(build_chart(system, 1), means, widths)
    pushed = state
    for op in exchange_chain(system, system.size):
        pushed = apply_transform(pushed, op)
    return state, pushed, compose_transform(system, 1, system.size).matrix


def _check_against_oracles(state, pushed, u, means, widths, q):
    # the closed form of the product state, and the pushed state read through u^-1
    norm = np.prod((2.0 * np.pi * widths ** 2) ** -0.25)
    expected = norm * np.exp(-np.sum((q - means) ** 2 / (4.0 * widths ** 2), axis=-1))
    assert_allclose(state.amplitude(q), expected, rtol=1e-12, atol=0.0)
    back = state.amplitude(q @ np.linalg.inv(u).T) / np.sqrt(abs(np.linalg.det(u)))
    assert_allclose(pushed.amplitude(q), back, rtol=1e-10, atol=0.0)


def test_chart_amplitude_holds_one_temporary():
    # beyond its result an evaluation holds one (N, INTERP_BLOCK) buffer, 512 KiB at N = 8,
    # whatever the number of points; the margin covers numpy's views and call overhead,
    # measured at 2.1 KiB.  An (N, M) temporary is 2 MiB at M = 32768, 8 MiB at 4x that
    n, margin = 8, 16 << 10
    means, widths = np.linspace(-1.0, 1.0, n), np.linspace(0.5, 2.0, n)
    state, pushed, u = _pushed_to_last_frame(np.linspace(1.0, 4.0, n), means, widths)
    for points in (32768, 4 * 32768):
        q = np.random.default_rng(3).normal(0.0, 2.0, (points, n))
        for s in (state, pushed):
            s.amplitude(q[:1])  # untraced: one-off lazy set-up is not the working set
            tracemalloc.start()
            try:
                r = s.amplitude(q)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - r.nbytes <= 8 * n * INTERP_BLOCK + margin, points
        _check_against_oracles(state, pushed, u, means, widths, q)


@pytest.mark.parametrize("points", [0, 1, INTERP_BLOCK - 1, INTERP_BLOCK, INTERP_BLOCK + 1,
                                    3 * INTERP_BLOCK + 5])
@pytest.mark.parametrize("n", [3, 8])
def test_chart_amplitude_across_block_boundaries(n, points):
    # the last block is full, short, or one point, and batch axes split the points
    rng = np.random.default_rng(n * points + 1)
    means, widths = rng.normal(0.0, 1.0, n), rng.uniform(0.5, 2.0, n)
    state, pushed, u = _pushed_to_last_frame(rng.uniform(0.5, 4.0, n), means, widths)
    q = rng.normal(0.0, 2.0, (points, n))
    for shape in ((points, n), (1, points, n), (points, 1, n)):
        batch = q.reshape(shape)
        assert state.amplitude(batch).shape == pushed.amplitude(batch).shape == shape[:-1]
        _check_against_oracles(state, pushed, u, means, widths, batch)


def test_chart_amplitude_shape_and_layout_contract():
    n = 3
    means, widths = np.array([0.3, -0.2, 0.5]), np.array([0.4, 0.9, 1.6])
    state = gaussian_chart_state(build_chart(FrameSystem.from_masses([1.0, 2.0, 4.0]), 1),
                                 means, widths)
    norm = np.prod((2.0 * np.pi * widths ** 2) ** -0.25)

    def closed_form(q):
        return norm * np.exp(-np.sum((q - means) ** 2 / (4.0 * widths ** 2), axis=-1))

    grid = np.random.default_rng(5).normal(0.0, 1.5, (6, 10, n))
    cases = {
        "point": grid[0, 0],
        "batch": grid,
        "rows": grid.reshape(-1, n),
        "fortran": np.asfortranarray(grid),
        "sliced": grid[::2, 1::3],
        "strided-rows": grid.reshape(-1, 2 * n)[:, ::2],
        "integer": np.arange(-8, 10).reshape(2, 3, n),
    }
    for name, q in cases.items():
        got = state.amplitude(q)
        assert got.shape == q.shape[:-1], name
        assert_allclose(got, closed_form(np.asarray(q, dtype=float)), rtol=1e-12, atol=0.0,
                        err_msg=name)
    for q in (np.zeros((5, n + 1)), np.zeros((n, 2)), np.zeros(n - 1), np.float64(0.0)):
        with pytest.raises(ConfigError, match=f"N = {n}"):
            state.amplitude(q)


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


@pytest.mark.parametrize("masses, other", [
    ([1.0, 2.0, 4.0], [2.0, 2.0, 4.0]),
    ([1.0, 3.0], [3.0, 1.0]),  # equal reduced masses; only the c.m. row tells them apart
], ids=["other-masses", "mirrored-masses"])
def test_transform_rejects_a_state_on_a_chart_of_other_masses(masses, other):
    system = FrameSystem.from_masses(masses)
    n, op = system.size, compose_transform(system, 1, 2)
    chart = build_chart(FrameSystem.from_masses(other), 1)
    assert chart.ordering == op.source.ordering
    with pytest.raises(ChartMismatch, match="masses"):
        apply_transform(gaussian_chart_state(chart, [0.0] * n, [1.0] * n), op)
    # a chart built apart from the transform's, for the same masses, is its chart
    same = chart_for_ordering(system, op.source.ordering)
    assert apply_transform(gaussian_chart_state(same, [0.0] * n, [1.0] * n), op).chart is op.target


def test_frame_charts_are_shared_while_held():
    system = FrameSystem.from_masses([1.0, 2.0, 3.0, 4.0])
    first = build_chart(system, 1)
    assert build_chart(system, 1) is first
    for k in (2, 3, 4):
        chart = build_chart(system, k)
        assert build_chart(system, k) is chart
        op = compose_transform(system, 1, k)
        assert op.source is first and op.target is chart
        assert exchange_chain(system, k)[0].source is first


def test_dropped_frame_charts_are_released():
    # the system's chart cache is weak: it keeps no chart that no caller holds
    system = FrameSystem.from_masses([1.0, 2.0, 3.0])
    chart, chain = build_chart(system, 3), exchange_chain(system, 3)
    refs = [weakref.ref(chart), weakref.ref(chain[0].source)]
    del chart, chain
    gc.collect()
    assert all(ref() is None for ref in refs) and len(system.charts) == 0
    assert build_chart(system, 3).ordering == (3, 1, 2)  # built again when asked for


def test_chart_arrays_are_read_only():
    system = FrameSystem.from_masses([1.0, 2.0, 3.0])
    charts = [build_chart(system, 2), *(op.target for op in exchange_chain(system, 3)),
              adjacent_exchange(system, build_chart(system, 1), 1).target]
    for chart in charts:
        for array in (chart.coord_map, chart.reduced_masses):
            with pytest.raises(ValueError):
                array[0] = 1.0
        # the momentum map is derived on each read, so a reader's copy is its own
        read = chart.momentum_map
        read[0] = 1.0
        assert not np.array_equal(chart.momentum_map, read)


@hyp.settings(max_examples=200, deadline=None)
@hyp.example([1e-300, 1e-300, 3.0, 4.0])
@hyp.example([1.0, 2.0, 3.0, 1e-12])
@hyp.given(masses=masses_strategy)
def test_derived_momentum_map_is_the_closed_form(masses):
    # B = diag(mu) A diag(1/m), read off A, against the closed-form rows: measured worst
    # 2.9 eps elementwise over 20000 lists of masses_strategy's kind, so 8 eps leaves a
    # margin of 2.8.  Forming mu_i A_ij before dividing by m_j underflows at the shares
    # of [1e-300, 1e-300, 3, 4] and loses the zero pattern's nonzeros there
    system = FrameSystem.from_masses(masses)
    eps = np.finfo(float).eps
    for label in range(1, system.size + 1):
        derived = build_chart(system, label).momentum_map
        closed = jacobi_momentum_map(masses, frame_ordering(system.size, label))
        assert np.array_equal(derived == 0, closed == 0)
        assert np.all(np.abs(derived - closed) <= 8 * eps * np.abs(closed))


@hyp.settings(max_examples=60, deadline=None)
@hyp.given(masses=masses_strategy)
def test_shared_charts_are_the_directly_built_charts(masses):
    # after every frame change has used them, the shared charts still hold the bits of a
    # fresh build, sign bits included
    system = FrameSystem.from_masses(masses)
    n = system.size
    held = [build_chart(system, k) for k in range(1, n + 1)]
    state = gaussian_chart_state(held[0], [0.5] * n, [1.0] * n)
    for k in range(1, n + 1):
        apply_transform(state, compose_transform(system, 1, k))
        for op in exchange_chain(system, k):
            state = apply_transform(state, op)
        state = apply_transform(state, compose_transform(system, k, 1))
    for k, chart in enumerate(held, 1):
        fresh = chart_for_ordering(system, frame_ordering(n, k))
        assert build_chart(system, k) is chart and chart.ordering == fresh.ordering
        for name in ("coord_map", "momentum_map", "reduced_masses"):
            assert getattr(chart, name).tobytes() == getattr(fresh, name).tobytes()


def test_compose_identity_and_inverse_pair():
    system = FrameSystem.from_masses([1.0, 2.0, 3.0])
    assert_allclose(compose_transform(system, 2, 2).matrix, np.eye(3), rtol=0, atol=1e-12)
    u12 = compose_transform(system, 2, 1)
    u21 = compose_transform(system, 1, 2)
    assert_allclose(u12.matrix @ u21.matrix, np.eye(3), rtol=0, atol=1e-12)


def test_exchange_chain_reproduces_composed_transform():
    system = FrameSystem.from_masses([1.0, 2.0, 3.0, 4.0])
    for k in (2, 3, 4):
        chain = exchange_chain(system, k)
        product = np.eye(4)
        for op in chain:
            product = op.matrix @ product
        assert_allclose(product, compose_transform(system, 1, k).matrix, rtol=0, atol=1e-12)
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
    assert_allclose(left, compose_transform(system, j, l).matrix, rtol=0, atol=1e-12)


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
        assert_allclose(coeffs[-1], 0.0, rtol=0, atol=1e-12)  # no c.m. admixture
        assert_allclose(coeffs @ chart.coord_map, target, rtol=0, atol=1e-12)


def test_arf_chart_limits():
    # single particle: relative row tends to r_1 - r_A
    solo = FrameSystem.from_masses([2.0])
    chart = arf_limit_chart(solo)
    assert_allclose(chart.coord_map[0], [1.0, -1.0], rtol=0, atol=1e-8)
    assert_allclose(chart.coord_map[-1], [0.0, 1.0], rtol=0, atol=1e-7)  # c.m. -> frame body

    sys2 = FrameSystem.from_masses([1.0, 2.0])
    rows = arf_limit_chart(sys2).coord_map
    direct = build_chart(
        FrameSystem.from_masses([1.0, 2.0, 1e8 * 2.0]), 3).coord_map
    assert_allclose(rows, direct, rtol=0, atol=1e-12)
    # halving 1/m_A halves the distance to the strict limit
    exact = np.array([[1 / 3, 2 / 3, -1.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    err1 = np.max(np.abs(arf_limit_chart(sys2, 1e6).coord_map - exact))
    err2 = np.max(np.abs(arf_limit_chart(sys2, 2e6).coord_map - exact))
    assert err1 / err2 == pytest.approx(2.0, rel=1e-3)


def test_two_body_internal_hamiltonian_is_reduced_mass_freedom():
    system = FrameSystem.from_masses([1.0, 3.0])
    chart = build_chart(system, 1)
    ham = internal_hamiltonian(chart)
    pi = np.array([[0.7], [1.3], [-0.2]])
    assert_allclose(ham.mode_energies(pi), pi[:, 0] ** 2 / (2 * 0.75), rtol=0, atol=1e-15)


def test_one_body_has_no_internal_energy():
    # a lone body is all centre of mass: its internal form is a 1x1 zero, not a 0-d array
    ham = internal_hamiltonian(build_chart(FrameSystem.from_masses([2.0]), 1))
    assert ham.internal_form.shape == (1, 1)
    assert_allclose(ham.internal_energy(np.array([[1.5], [-0.5]])), 0.0, rtol=0, atol=0)
    assert_allclose(ham.cm_form, [[0.25]], rtol=0, atol=1e-15)


@hyp.settings(max_examples=40, deadline=None)
@hyp.given(masses=masses_strategy, data=st.data())
def test_kinetic_energy_decomposition(masses, data):
    system = FrameSystem.from_masses(masses)
    label = data.draw(st.integers(1, system.size))
    ham = internal_hamiltonian(build_chart(system, label))
    free = np.diag(1.0 / (2.0 * system.masses))
    assert_allclose(ham.internal_form + ham.cm_form, free, rtol=0, atol=1e-12)
    # internal part is invariant under a global boost p_j -> p_j + m_j v
    assert_allclose(ham.internal_form @ system.masses, np.zeros(system.size), rtol=0, atol=1e-12)


def test_internal_energy_is_diagonal_in_chart_momenta():
    system = FrameSystem.from_masses([1.0, 1.0, 1.0])
    chart = build_chart(system, 1)
    ham = internal_hamiltonian(chart)
    rng = np.random.default_rng(3)
    pi = rng.normal(size=(20, 2))
    p_total = rng.normal(size=20)
    chart_momenta = np.concatenate([pi, p_total[:, None]], axis=1)
    p = chart_momenta @ np.linalg.inv(chart.momentum_map).T
    assert_allclose(ham.internal_energy(p), ham.mode_energies(pi), rtol=0, atol=1e-12)


# --- measurement reduction -------------------------------------------------

def _position_pair(sig_n=0.05, sig_1=1.0, x_n=0.0, x_1=0.0, m_n=1.0, m_1=1.0, points_n=1024):
    pk_n = make_gaussian(default_grid(0.0, 1 / (2 * sig_n), points_n),
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
    assert_allclose(m, m.conj().T, rtol=0, atol=1e-12)
    assert np.linalg.eigvalsh(m).min() > -1e-9


def test_symmetric_split_gives_half_half():
    state = _position_pair(sig_n=0.3, sig_1=0.4)
    rho = measurement_reduce(state, np.array([-12.0, 0.0, 12.0]))
    assert_allclose(rho.weights, [0.5, 0.5], rtol=0, atol=1e-6)


def test_offset_split_matches_gaussian_overlap():
    sig_n, sig_1, shift = 0.3, 0.4, 0.25
    state = _position_pair(sig_n=sig_n, sig_1=sig_1)
    rho = measurement_reduce(state, np.array([-12.0, shift, 12.0]), mesh_points=1536)
    expected = 0.5 * (1.0 + math.erf(shift / np.sqrt(2.0 * (sig_n ** 2 + sig_1 ** 2))))
    assert_allclose(rho.weights[0], expected, rtol=0, atol=2e-3)


def test_sharp_packet_conditions_to_its_own_width():
    state = _position_pair(sig_n=0.02, sig_1=1.0)
    rho = measurement_reduce(state, np.linspace(-12.0, 12.0, 5))
    kept = rho.widths[rho.weights > 0.05]
    assert np.all(np.abs(kept - 0.02) < 0.2 * 0.02)


def test_single_bin_reduction_keeps_everything():
    state = _position_pair(sig_n=0.3, sig_1=0.5)
    rho = measurement_reduce(state, np.array([-12.0, 12.0]))
    assert_allclose(rho.weights, [1.0], rtol=0, atol=1e-12)
    gram = rho.matrix
    assert np.count_nonzero(gram) == gram.size  # no coherence erased


def test_reduction_is_idempotent():
    state = _position_pair(sig_n=0.3, sig_1=0.5)
    bins = np.linspace(-12.0, 12.0, 5)
    rho1 = measurement_reduce(state, bins)
    rho2 = measurement_reduce(rho1, bins)
    assert_allclose(rho2.matrix, rho1.matrix, rtol=0, atol=1e-9)
    assert_allclose(rho2.weights, rho1.weights, rtol=0, atol=1e-9)


def test_empty_bins_dropped_and_recorded():
    state = _position_pair(sig_n=0.1, sig_1=0.1)
    bins = np.array([-30.0, -20.0, 20.0, 30.0])  # outer bins far in the tails
    rho = measurement_reduce(state, bins)
    assert rho.dropped_bins == (0, 2)
    assert_allclose(rho.weights.sum(), 1.0, rtol=0, atol=1e-9)


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
    assert_allclose(rho.weights, [0.5, 0.5], rtol=0, atol=1e-6)


def _dense_reduce(state, bins, mesh_points=384):
    """Reference reduction by the dense path: the full 2D Gram over the cm
    coordinate, then every cross-bin entry zeroed; a ReducedDensityMatrix input
    is projected the same way, its widths read off its source's dense |chi|^2 on
    its own mesh, in the rows its matrix keeps.  (edges, matrix, weights, widths, dropped)."""
    edges = np.asarray(bins, dtype=float)
    source = state if isinstance(state, ProductState) else state.source
    pk_n, pk_1 = source.factors
    m_n, m_1 = pk_n.mass, pk_1.mass
    m_tot = m_n + m_1
    if isinstance(state, ProductState):
        xbar_n, sig_n = position_mean(pk_n), math.sqrt(position_variance(pk_n))
        xbar_1, sig_1 = position_mean(pk_1), math.sqrt(position_variance(pk_1))
        sig_d, sig_x = math.hypot(sig_n, sig_1), math.hypot(m_n * sig_n, m_1 * sig_1) / m_tot
        delta = np.linspace(xbar_n - xbar_1 - 8 * sig_d, xbar_n - xbar_1 + 8 * sig_d, mesh_points)
        xbar_cm = (m_n * xbar_n + m_1 * xbar_1) / m_tot
        xcm = np.linspace(xbar_cm - 8 * sig_x, xbar_cm + 8 * sig_x, mesh_points)
    else:
        delta, xcm = state.delta_grid, state.cm_grid
    dd, dx = delta[1] - delta[0], xcm[1] - xcm[0]
    xn = xcm[None, :] + (m_1 / m_tot) * delta[:, None]
    x1 = xcm[None, :] - (m_n / m_tot) * delta[:, None]

    def on_mesh(packet, mesh):
        fine = np.linspace(mesh.min() - 1e-9, mesh.max() + 1e-9, 4096)
        psi = position_wavefunction(packet, fine)
        return np.interp(mesh, fine, psi.real) + 1j * np.interp(mesh, fine, psi.imag)

    chi = on_mesh(pk_n, xn) * on_mesh(pk_1, x1)
    chi /= np.sqrt(np.sum(np.abs(chi) ** 2) * dd * dx)
    if isinstance(state, ProductState):
        kernel = (chi @ chi.conj().T) * dx
    else:
        dd, kernel = state.delta_spacing, state.matrix
    idx = np.searchsorted(edges, delta, side="left") - 1
    idx[delta <= edges[0]] = 0
    matrix = np.where(idx[:, None] == idx[None, :], kernel, 0.0)
    diag = np.diag(matrix).real * dd
    weights = np.array([diag[idx == j].sum() for j in range(edges.size - 1)])
    keep = weights > 1e-14
    prob = np.abs(chi) ** 2 * (np.diag(kernel) != 0)[:, None]  # no row of a dropped cell
    widths = []
    for j in np.flatnonzero(keep):
        pj, x = prob[idx == j] / prob[idx == j].sum(), xn[idx == j]
        widths.append(math.sqrt(np.sum(pj * (x - np.sum(pj * x)) ** 2)))
    return edges, matrix, weights[keep], np.array(widths), tuple(np.flatnonzero(~keep).tolist())


def _assert_matches_dense(rho, dense):
    edges, matrix, weights, widths, dropped = dense
    assert rho.dropped_bins == dropped
    assert_allclose(rho.bin_edges, edges, rtol=0.0, atol=0.0)
    scale = np.max(np.abs(matrix))
    assert_allclose(rho.matrix, matrix, rtol=0.0, atol=1e-12 * scale)
    assert_allclose(rho.weights, weights, rtol=0.0, atol=1e-12)
    assert_allclose(rho.widths, widths, rtol=0.0, atol=1e-12 * np.max(widths))


@pytest.mark.parametrize("sig_n, sig_1, x_n, x_1, m_n, m_1", [
    (0.05, 1.0, 0.0, 0.0, 1.0, 1.0),
    (0.3, 0.4, 1.2, -0.7, 0.6, 3.1),
    (0.09, 0.6, -1.5, 1.8, 2.4, 0.7),
    (0.8, 0.8, 0.4, 0.4, 3.9, 0.5),
])
def test_block_reduction_matches_dense_gram(sig_n, sig_1, x_n, x_1, m_n, m_1):
    # pool-like two-body states on coarse bins (edges at -8.5..8.5 sigma_d, as the
    # benchmark's reduce pool uses), then re-reduced onto finer and onto the same bins
    state = _position_pair(sig_n, sig_1, x_n, x_1, m_n, m_1)
    center, sig_d = x_n - x_1, math.hypot(sig_n, sig_1)
    coarse = center + sig_d * np.array([-8.5, -1.0, 0.0, 1.0, 8.5])
    fine = center + sig_d * np.linspace(-8.5, 8.5, 13)
    rho = measurement_reduce(state, coarse)
    _assert_matches_dense(rho, _dense_reduce(state, coarse))
    for bins in (fine, coarse):
        _assert_matches_dense(measurement_reduce(rho, bins), _dense_reduce(rho, bins))
    assert_allclose(measurement_reduce(rho, coarse).widths, rho.widths, rtol=0.0, atol=0.0)


@pytest.mark.parametrize("bins", [
    [-30.0, -20.0, 20.0, 30.0],           # outer bins far in the tails are dropped
    [-np.inf, -0.5, 0.0, 0.5, np.inf],    # infinite outer edges
    [-12.0, 12.0],                        # a single bin keeps the full coherence
], ids=["dropped", "inf-edges", "single-bin"])
def test_block_reduction_matches_dense_gram_edge_cases(bins):
    state = _position_pair(sig_n=0.1, sig_1=0.3, x_n=0.2, m_n=2.0)
    rho = measurement_reduce(state, bins)
    _assert_matches_dense(rho, _dense_reduce(state, bins))
    again = bins if np.isinf(bins[0]) else np.linspace(-12.0, 12.0, 9)  # same or finer bins
    _assert_matches_dense(measurement_reduce(rho, again), _dense_reduce(rho, again))


@pytest.mark.parametrize("pair, mesh_points, block", [
    # x_n near 1e3 with sigma_n 0.05: an uncentred E[x^2] - E[x]^2 would lose 8 of its
    # digits; the phase at x_n needs the long grid (its stencil mean sits 1.4 short)
    ({"sig_n": 0.05, "x_n": 1000.0, "m_n": 1.5, "points_n": (1 << 18) + 1}, 384, None),
    ({"sig_n": 0.3, "sig_1": 0.5, "x_n": 0.4, "m_n": 2.0}, 97, 300),  # blocks of 3 rows, last 1
    ({"sig_n": 0.3, "sig_1": 0.5, "x_n": 0.4, "m_n": 2.0}, 2, None),
    ({"sig_n": 0.3, "sig_1": 0.5, "x_n": 0.4, "m_n": 2.0}, 97, 64),  # mesh > block: rows of 1
], ids=["far-from-origin", "odd-mesh-ragged-blocks", "two-points", "one-row-blocks"])
def test_streamed_moments_match_dense(pair, mesh_points, block, monkeypatch):
    # the reduction sums |chi|^2 in blocks of INTERP_BLOCK // mesh_points rows; a smaller
    # block stands in for a mesh of more than INTERP_BLOCK points, whose dense oracle
    # would not fit in memory
    if block is not None:
        monkeypatch.setattr(frames, "INTERP_BLOCK", block)
    state = _position_pair(**pair)
    center = position_mean(state.factors[0]) - position_mean(state.factors[1])
    bins = center + math.hypot(pair["sig_n"], pair.get("sig_1", 1.0)) * np.array(
        [-8.5, -1.0, 0.0, 1.0, 8.5])
    rho = measurement_reduce(state, bins, mesh_points)
    _, matrix, weights, widths, dropped = _dense_reduce(state, bins, mesh_points)
    assert rho.dropped_bins == dropped
    assert_allclose(rho.weights, weights, rtol=0.0, atol=1e-15)
    assert_allclose(rho.widths, widths, rtol=1e-12, atol=0.0)
    # the far case's rows are interpolated at x_n near 1e3, where a point's offset in its psi
    # table step keeps about 12 digits: measured 1.1e-12 of the maximum there, 1.5e-15 elsewhere
    assert_allclose(rho.matrix, matrix, rtol=0.0, atol=1e-11 * np.max(np.abs(matrix)))


@pytest.mark.parametrize("units", [[-20.0, 20.0], [-8.5, -1.0, 0.0, 1.0, 8.5]],
                         ids=["single-bin", "pool-like"])
def test_reduction_memory_is_bounded_by_kept_blocks(units):
    # peak traced memory at mesh_points 384, in units of the matrix's bytes; measured
    # 0.90 (single bin and pool-like) against 2.61 when |chi|^2 was formed on the whole
    # mesh and 5.51 and 4.94 for the dense path, which holds the full Gram, its conjugate
    # and the np.where copy at once; no block of rho is formed until its matrix is read
    state = _position_pair(sig_n=0.3, sig_1=0.5)
    bins = math.hypot(0.3, 0.5) * np.array(units)  # in units of the relative-coordinate width
    measurement_reduce(state, bins)
    tracemalloc.start()
    try:
        rho = measurement_reduce(state, bins)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rho.matrix.shape == (384, 384)
    assert peak < 1.2 * rho.matrix.nbytes


@pytest.mark.parametrize("units", [[-20.0, 20.0], [-8.5, -1.0, 0.0, 1.0, 8.5]],
                         ids=["single-bin", "pool-like"])
def test_reduction_memory_does_not_grow_with_the_mesh(units):
    # at mesh_points 1536 the row blocks shrink to keep INTERP_BLOCK points each: measured
    # 2.09 MiB, against 90.3 MiB when |chi|^2 was formed on the whole mesh
    state = _position_pair(sig_n=0.3, sig_1=0.5)
    bins = math.hypot(0.3, 0.5) * np.array(units)
    measurement_reduce(state, bins, 1536)
    tracemalloc.start()
    try:
        measurement_reduce(state, bins, 1536)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_re_reduction_shares_the_amplitude():
    # a re-reduction cuts the cells and copies no block: measured 0.001 matrix sizes
    state = _position_pair(sig_n=0.3, sig_1=0.5)
    rho = measurement_reduce(state, math.hypot(0.3, 0.5) * np.array([-8.5, -1.0, 0.0, 1.0, 8.5]))
    fine = math.hypot(0.3, 0.5) * np.linspace(-8.5, 8.5, 13)
    measurement_reduce(rho, fine)
    tracemalloc.start()
    try:
        again = measurement_reduce(rho, fine)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again.source is rho.source
    assert peak < 0.1 * rho.matrix.nbytes


@pytest.mark.parametrize("mesh_points", [384, 1536])
def test_reduced_state_retains_no_amplitude(mesh_points):
    # what the result holds beyond its source: the meshes, row_moments and the bins, about
    # 5 mesh_points floats; chi would be one mesh_points^2 complex array
    state = _position_pair(sig_n=0.3, sig_1=0.5)
    bins = math.hypot(0.3, 0.5) * np.array([-8.5, -1.0, 0.0, 1.0, 8.5])
    measurement_reduce(state, bins, mesh_points)
    tracemalloc.start()
    try:
        rho = measurement_reduce(state, bins, mesh_points)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert rho.source is state
    assert retained < 0.01 * mesh_points ** 2 * np.dtype(complex).itemsize


def test_matrix_at_an_odd_mesh_matches_dense_gram():
    # matrix re-forms each cell's rows from the source, here on an odd, off-centre mesh
    state = _position_pair(sig_n=0.3, sig_1=0.5, x_n=0.4, m_n=2.0)
    bins = 0.4 + math.hypot(0.3, 0.5) * np.array([-8.5, -1.0, 0.0, 1.0, 8.5])
    rho = measurement_reduce(state, bins, 97)
    _assert_matches_dense(rho, _dense_reduce(state, bins, 97))
    fine = 0.4 + math.hypot(0.3, 0.5) * np.linspace(-8.5, 8.5, 13)
    _assert_matches_dense(measurement_reduce(rho, fine), _dense_reduce(rho, fine))


@pytest.mark.parametrize("bins, moved", [
    (lambda e: [-12.0, e - 1e-6, 12.0], True),  # moved by less than a mesh step: a row changes bin
    (lambda e: [-12.0, 12.0], False),  # one bin over both cells
    (lambda e: [-20.0, -12.0, e, 12.0], False),  # an outer bin holding no row; both cells whole
], ids=["split", "merged", "unsplit"])
def test_re_reduction_equals_a_direct_reduction_over_its_bins(bins, moved):
    # cutting cells keeps rho's diagonal, so a re-reduction reads the same rows' moments as a
    # direct reduction over its bins; the sums over a bin's pieces group the rows differently.
    # Its matrix keeps rho's cells, cut where a bin splits one: a merged bin keeps no coherence
    # between them, which the dense oracle checks entry by entry
    state = _position_pair(sig_n=0.3, sig_1=0.5)
    e = measurement_reduce(state, [-12.0, 12.0]).delta_grid[200]
    rho = measurement_reduce(state, [-12.0, e, 12.0])
    again, direct = measurement_reduce(rho, bins(e)), measurement_reduce(state, bins(e))
    _assert_matches_dense(again, _dense_reduce(rho, bins(e)))
    assert again.dropped_bins == direct.dropped_bins
    assert again.widths.size == again.weights.size
    assert_allclose(again.weights, direct.weights, rtol=1e-14, atol=0.0)
    assert_allclose(again.widths, direct.widths, rtol=1e-14, atol=0.0)
    assert (again.cells != rho.cells) == moved
    if moved:  # the branches' widths are no longer rho's
        assert np.all(np.abs(again.widths - rho.widths) > 1e-4)
