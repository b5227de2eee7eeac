"""Sampling layer: draws against plain inversion and Generator.choice, the guide-table
lookup against searchsorted, input guards, and the moments of S tau0 + T at every
tau0 against one row at a time."""

import tracemalloc

import hypothesis as hyp
import hypothesis.strategies as st
import numpy as np
import pytest

from qrfsim import sampling
from qrfsim.errors import ConfigError
from qrfsim.sampling import INTERP_BLOCK, choice_from_weights, inverse_cdf_sample, make_rng
from oracles import condition, correlated_draws, one_row_moments


def plain_inversion(xs, density, n, rng):
    """The oracle: np.interp of n uniforms, in stream order, on the sampler's CDF."""
    xs = np.asarray(xs, dtype=float)
    d = np.clip(np.asarray(density, dtype=float), 0.0, None)
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (d[1:] + d[:-1]) * np.abs(np.diff(xs)))))
    cdf /= cdf[-1]
    return np.interp(rng.random(n), cdf, xs)


def _flat_stretches():
    """Zero density at both edges and in the middle: the CDF is flat there."""
    xs = np.linspace(-3.0, 3.0, 401)
    d = np.exp(-xs ** 2)
    d[(np.abs(xs) > 2.0) | (np.abs(xs) < 0.5)] = 0.0
    return xs, d


def _one_segment():
    """Two grid points, so all the mass lies in one trapezoid segment."""
    return np.array([-1.0, 2.0]), np.array([0.0, 3.0])


def _descending():
    xs = np.linspace(4.0, -4.0, 2048)
    return xs, np.exp(-(xs - 1.0) ** 2) + 0.5 * np.exp(-(xs + 2.0) ** 2 / 0.1)


def _angle_table():
    """A table the size of the rotator's angle table, with a peaked density."""
    us = np.linspace(-np.pi, np.pi, 16385)
    return us, 1.0 + np.cos(us) ** 8


def _zero_run_inside():
    """A peaked density with a zero-density run between its two lobes."""
    xs = np.linspace(-5.0, 5.0, 2001)
    d = np.exp(-(xs - 2.0) ** 2) + np.exp(-(xs + 2.0) ** 2 / 0.05)
    d[(xs > -1.0) & (xs < 1.5)] = 0.0
    return xs, d


def _gaussian_tails():
    """Tails of a Gaussian down to 1e-300: long runs of CDF points share a guide bucket."""
    xs = np.linspace(-37.0, 37.0, 4096)
    return xs, np.exp(-xs ** 2 / 2)


DENSITIES = {"flat-stretches": _flat_stretches, "one-segment": _one_segment,
             "descending": _descending, "angle-table": _angle_table,
             "zero-run-inside": _zero_run_inside, "gaussian-tails": _gaussian_tails,
             "descending-zero-ends": lambda: (_flat_stretches()[0][::-1], _flat_stretches()[1])}
COUNTS = (0, 1, 2, INTERP_BLOCK - 1, INTERP_BLOCK, INTERP_BLOCK + 1, 200_003)


@pytest.mark.parametrize("n", COUNTS)
@pytest.mark.parametrize("table", sorted(DENSITIES))
@hyp.settings(max_examples=4, deadline=None)
@hyp.given(seed=st.integers(0, 2 ** 48 + 2 ** 32 - 1))
def test_draws_are_bit_identical_to_plain_inversion(table, n, seed):
    xs, d = DENSITIES[table]()
    rng, ref = make_rng(seed), make_rng(seed)
    got = inverse_cdf_sample(xs, d, n, rng)
    want = plain_inversion(xs, d, n, ref)
    assert got.dtype == want.dtype and got.shape == want.shape == (n,)
    assert got.tobytes() == want.tobytes()
    assert rng.random(3).tobytes() == ref.random(3).tobytes()  # the stream is in step


WEIGHTS = {
    "one-mode": np.array([2.5]),
    "zero-ends": np.array([0.0, 0.0, 1.0, 3.0, 0.5, 0.0]),
    "nine-modes": np.exp(-(np.arange(9) - 4.0) ** 2 / 4),
    "2001-modes": np.exp(-(np.arange(2001) - 1000.0) ** 2 / 2e4),
    "2001-zero-runs": np.where(np.arange(2001) % 400 < 150, 0.0,
                               1.0 + np.cos(np.arange(2001.0)) ** 2),
}


@pytest.mark.parametrize("n", COUNTS)
@pytest.mark.parametrize("weights", sorted(WEIGHTS))
@pytest.mark.parametrize("seed", [0, 31, 5 + (1 << 32)])
def test_indices_are_generator_choice_and_leave_the_stream_in_step(weights, n, seed):
    w = WEIGHTS[weights]
    rng, ref = make_rng(seed), make_rng(seed)
    got = choice_from_weights(w, n, rng)
    want = ref.choice(w.size, size=n, p=w / w.sum())
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert rng.random(3).tobytes() == ref.random(3).tobytes()
    assert not np.any(w[got] == 0.0)


@hyp.settings(max_examples=60, deadline=None)
@hyp.given(steps=st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 1e-12),
                                    st.floats(1e-6, 1.0)), min_size=1, max_size=300),
           seed=st.integers(0, 2 ** 32))
def test_guide_lookup_is_searchsorted(steps, seed):
    # flat runs, clustered points and ordinary steps, so some uniforms need the
    # binary search after the guide entry and its one step
    w = np.array(steps)
    hyp.assume(w.sum() > 0)
    cdf = np.cumsum(w)
    cdf /= cdf[-1]
    u = make_rng(seed).random(3 * INTERP_BLOCK + 7)
    edges = np.array([0.0, np.nextafter(1.0, 0.0), cdf[0], cdf[len(cdf) // 2]])
    u[:4] = np.where(edges < 1.0, edges, 0.5)  # uniforms on CDF points and at the ends
    guide = sampling._guide_table(cdf)
    got = np.concatenate([j for _, j in sampling._invert(cdf, guide, u)])
    assert got.tobytes() == np.searchsorted(cdf, u, "right").tobytes()


def test_draws_leave_the_stream_where_plain_inversion_does():
    xs, d = _descending()
    rng, ref = make_rng(5 + (1 << 32)), make_rng(5 + (1 << 32))
    inverse_cdf_sample(xs, d, 1000, rng)
    plain_inversion(xs, d, 1000, ref)
    assert rng.random(4).tobytes() == ref.random(4).tobytes()


def test_draws_hold_no_second_array_of_draws():
    n = 10 ** 6
    xs, d = _angle_table()
    rng = make_rng(0)  # a process's first generator allocates, and is not a draw
    tracemalloc.start()
    try:
        inverse_cdf_sample(xs, d, n, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 8 * n


@pytest.mark.parametrize("xs, d", [
    (np.zeros((2, 3)), np.ones((2, 3))),                  # 2D grid
    (np.array([1.0]), np.array([1.0])),                   # one point
    (np.float64(1.0), np.float64(1.0)),                   # scalar grid
    (np.linspace(0.0, 1.0, 101), np.ones(2)),             # short density
    (np.linspace(0.0, 1.0, 101), np.ones(102)),           # long density
    (np.linspace(0.0, 1.0, 4), np.ones((4, 1))),          # 2D density
    (np.array([0.0, 1.0, 0.5, 2.0]), np.ones(4)),         # not monotone
    (np.array([0.0, 1.0, 1.0, 2.0]), np.ones(4)),         # repeated point
    (np.array([0.0, np.nan, 2.0]), np.ones(3)),           # NaN point
], ids=["grid-2d", "grid-1pt", "grid-scalar", "density-short", "density-long",
        "density-2d", "grid-zigzag", "grid-repeat", "grid-nan"])
def test_inverse_cdf_rejects_bad_tables(xs, d):
    with pytest.raises(ConfigError):
        inverse_cdf_sample(xs, d, 10, make_rng(0))


BAD_COUNTS = [-1, 2.5, 3.0, np.float64(3.0), "3", None, True]


@pytest.mark.parametrize("n", BAD_COUNTS, ids=repr)
def test_inverse_cdf_rejects_bad_counts(n):
    with pytest.raises(ConfigError):
        inverse_cdf_sample(np.linspace(0.0, 1.0, 5), np.ones(5), n, make_rng(0))


@pytest.mark.parametrize("n", BAD_COUNTS, ids=repr)
def test_choice_rejects_bad_counts(n):
    with pytest.raises(ConfigError):
        choice_from_weights(np.ones(3), n, make_rng(0))


@pytest.mark.parametrize("w", [np.ones((2, 3)), np.float64(1.0)], ids=["2d", "scalar"])
def test_choice_rejects_non_1d_weights(w):
    with pytest.raises(ConfigError):
        choice_from_weights(w, 4, make_rng(0))


def test_numpy_integer_counts_are_accepted():
    xs = np.linspace(0.0, 1.0, 5)
    assert inverse_cdf_sample(xs, np.ones(5), np.int64(3), make_rng(0)).shape == (3,)
    assert choice_from_weights(np.ones(3), np.int32(4), make_rng(0)).shape == (4,)


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.5, True, np.True_, np.float64(3.0), "3", None],
                         ids=repr)
def test_seeds_outside_the_philox_key_fail_closed(seed):
    with pytest.raises(ConfigError, match="seed"):
        make_rng(seed)


@pytest.mark.parametrize("seed", [0, 17, 5 + (1 << 32), 2 ** 64 - 1, np.uint64(7), np.int32(7)],
                         ids=repr)
def test_valid_seeds_key_the_same_stream(seed):
    want = np.random.Generator(np.random.Philox(key=np.uint64(seed))).random(64)
    assert make_rng(seed).random(64).tobytes() == want.tobytes()


TAUS = np.array([-3.0, 0.0, 2.5, 1e3])


@pytest.mark.parametrize("rho", [0.0, 0.5, -0.9])
@pytest.mark.parametrize("n", [2, 3, 5, 1000, 10 ** 5])
def test_moments_at_every_tau0_are_those_of_each_row(n, rho):
    slope, offset = correlated_draws(n, rho, seed=n)
    grid = sampling.sample_moments([(slope.copy(), offset.copy())], TAUS)
    assert all(moment.shape == TAUS.shape for moment in grid)
    for i, tau0 in enumerate(TAUS):
        row = tuple(moment[i] for moment in grid)
        want = np.array(one_row_moments(slope * tau0 + offset))
        # 1e-12 relative where the row does not cancel; at n = 3, rho = -0.9 and
        # tau0 = 2.5 it cancels 360-fold, and the fourth moment's condition is 1.3e5
        assert np.all(np.abs(row - want) <= 1e-12 * condition(slope, offset, tau0) * np.abs(want))
        # a scalar tau0 takes the same arithmetic as an array entry
        scalar = sampling.sample_moments([(slope.copy(), offset.copy())], float(tau0))
        assert all(np.ndim(moment) == 0 for moment in scalar) and scalar == row


@pytest.mark.parametrize("sizes", [(1, 1), (1, INTERP_BLOCK + 3, 7), (INTERP_BLOCK - 1, 1, 2)],
                         ids=["two-single-draws", "pilot-of-one", "across-a-block"])
def test_moments_do_not_depend_on_how_the_draws_are_blocked(sizes):
    # the first block's means centre the sums: a one-draw first block is the worst pilot
    slope, offset = correlated_draws(sum(sizes), -0.9, seed=len(sizes))
    whole = sampling.sample_moments([(slope.copy(), offset.copy())], TAUS)
    cuts = np.cumsum(sizes)[:-1]
    parts = sampling.sample_moments(zip(np.split(slope.copy(), cuts), np.split(offset.copy(), cuts)),
                                    TAUS)
    for i, tau0 in enumerate(TAUS):
        want, got = (np.array([moment[i] for moment in grid]) for grid in (whole, parts))
        assert np.all(np.abs(got - want) <= 1e-12 * condition(slope, offset, tau0) * np.abs(want))


@pytest.mark.parametrize("tau0", [2.5, np.float64(2.5), np.array([]), np.zeros((0, 3)),
                                  TAUS.reshape(2, 2)], ids=repr)
def test_each_moment_has_the_shape_of_tau0(tau0):
    slope, offset = correlated_draws(100, 0.5, seed=1)
    assert all(np.shape(moment) == np.shape(tau0)
               for moment in sampling.sample_moments([(slope, offset)], tau0))


def test_moments_at_every_tau0_hold_one_draw_sized_temporary():
    n = 2 * 10 ** 5
    slope, offset = correlated_draws(n, 0.5, seed=3)
    taus = np.linspace(-3.0, 1e3, 1000)
    tracemalloc.start()
    try:
        sampling.sample_moments([(slope, offset)], taus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 8 * n


def test_draws_that_cancel_leave_no_negative_variance():
    # two draws lie on one line, so at tau0 = -t/s their spread cancels exactly; the
    # rounded polynomial must not dip below zero, where its root would be NaN
    slope, offset = np.array([1.63, 1.83]), np.array([0.6, 1.4])
    root = -(offset[0] - offset.mean()) / (slope[0] - slope.mean())
    taus = root * (1 + np.arange(-16, 17) * np.finfo(float).eps)
    for moment in sampling.sample_moments([(slope, offset)], taus)[1:]:
        assert np.all(moment >= 0)


@pytest.mark.parametrize("blocks", [[], [(np.array([]), np.array([]))],
                                    [(np.array([1.5]), np.array([0.5]))]],
                         ids=["no-blocks", "empty-block", "one-draw"])
def test_moments_need_two_draws(blocks):
    # a ddof-1 variance of fewer than two draws divides by zero
    with pytest.raises(ConfigError, match="2 draws"):
        sampling.sample_moments(blocks, TAUS)
