"""Packet construction, quadrature moments, free evolution, position space."""

import tracemalloc

import hypothesis as hyp
import hypothesis.strategies as st
import numpy as np
import pytest
from numpy.testing import assert_allclose

from qrfsim.clocks import FreeClockState, freeclock_packet
from qrfsim.errors import GridTooNarrow, NonFiniteSample, NonPositiveWidth
from qrfsim.packets import (
    DEFAULT_GRID_POINTS,
    DELTA_WIDTH_FRACTION,
    MomentumGrid,
    WavePacket,
    default_grid,
    evolve_free,
    expectation,
    from_function,
    make_gaussian,
    position_mean,
    position_variance,
    position_wavefunction,
    variance,
)
from qrfsim.sampling import INTERP_BLOCK
from oracles import trapezoid_weights

# Frozen from an independent Simpson quadrature of the analytic Gaussian
# density at 4x the default grid density (8192 points over +-6 sigma).
B2BAR_ORACLE = 0.800048701820395      # <m/sqrt(m^2+p^2)>, m=1, center 0.75, sigma 0.05
DB2_ORACLE = 3.66519007104715e-4      # variance of the same observable
VGROUP_ORACLE = 0.431100146879109     # <p/sqrt(1+p^2)>, center 0.5, sigma 0.2


def test_grid_rejects_nonuniform_spacing():
    pts = np.linspace(-1, 1, 64)
    pts[10] += 1e-6
    with pytest.raises(NonPositiveWidth):
        MomentumGrid(pts)


class _NanNormPacket(WavePacket):
    def norm(self):
        return float("nan")


_GRID = MomentumGrid.centered(0.0, 6.0, 65)
_AMP = make_gaussian(_GRID, 0.0, 1.0, mass=1.0).amplitudes


@pytest.mark.parametrize("build", [
    lambda: MomentumGrid(np.array([0.0, np.nan, 2.0, 3.0])),
    lambda: MomentumGrid.centered(0.0, np.nan, 64),
    lambda: WavePacket(_GRID, _AMP, np.nan),
    lambda: _NanNormPacket(_GRID, _AMP, 1.0),
], ids=["grid-step", "grid-half-width", "packet-mass", "packet-norm"])
def test_nan_inputs_are_rejected(build):
    with pytest.raises(NonPositiveWidth):
        build()


def test_grid_covers_reports_extent():
    g = MomentumGrid.centered(0.0, 6.0, 512)
    assert g.covers(0.0, 6.0)
    assert not g.covers(0.5, 6.0)


def test_gaussian_norm_and_symmetric_mean():
    g = MomentumGrid.centered(0.0, 6.0, 2048)
    pk = make_gaussian(g, center=0.0, width=1.0, mass=1.0)
    assert_allclose(pk.norm(), 1.0, rtol=0, atol=1e-12)
    assert_allclose(expectation(pk, lambda p: p).real, 0.0, rtol=0, atol=1e-9)


def test_gaussian_translated_mean():
    pk = make_gaussian(default_grid(0.75, 0.01), center=0.75, width=0.01, mass=1.0)
    assert_allclose(expectation(pk, lambda p: p).real, 0.75, rtol=0, atol=pk.grid.spacing)


def test_gaussian_width_is_density_std():
    pk = make_gaussian(default_grid(0.0, 0.5), center=0.0, width=0.5, mass=1.0)
    assert_allclose(variance(pk, lambda p: p), 0.25, rtol=1e-2)


def test_expectation_of_unity_is_norm():
    pk = make_gaussian(default_grid(0.3, 0.2), center=0.3, width=0.2, mass=2.0)
    assert_allclose(expectation(pk, lambda p: np.ones_like(p)).real, 1.0, rtol=0, atol=1e-9)


def test_second_moment_matches_gaussian_closed_form():
    pk = make_gaussian(default_grid(0.0, 0.5), center=0.0, width=0.5, mass=1.0)
    assert_allclose(expectation(pk, lambda p: p * p).real, 0.25, rtol=1e-2)


def test_variance_of_constant_vanishes():
    pk = make_gaussian(default_grid(0.1, 0.3), center=0.1, width=0.3, mass=1.0)
    assert variance(pk, lambda p: np.full_like(p, 7.0)) == 0.0


def test_lorentz_factor_moments_match_dense_quadrature():
    pk = make_gaussian(default_grid(0.75, 0.05), center=0.75, width=0.05, mass=1.0)
    b = lambda p: pk.mass / np.sqrt(pk.mass ** 2 + p ** 2)
    assert_allclose(expectation(pk, b).real, B2BAR_ORACLE, rtol=1e-6)
    assert_allclose(variance(pk, b), DB2_ORACLE, rtol=1e-6)


def test_expectation_flags_nonfinite_observable():
    pk = make_gaussian(default_grid(0.0, 1.0, 2049), center=0.0, width=1.0, mass=1.0)
    with np.errstate(divide="ignore"), pytest.raises(NonFiniteSample):
        expectation(pk, lambda p: 1.0 / p)  # odd count puts p = 0 on the grid -> inf


def test_narrow_grid_rejected():
    g = MomentumGrid.centered(0.0, 1.0, 256)
    with pytest.raises(GridTooNarrow):
        make_gaussian(g, center=0.0, width=0.5, mass=1.0)


def test_step_coarser_than_the_packet_rejected():
    # the coarsest default grid, 16 points over +- 6 widths, steps 0.8 width; a step of
    # exactly one width still passes, 1.2 widths does not
    make_gaussian(default_grid(0.0, 1.0, 16), center=0.0, width=1.0, mass=1.0)
    make_gaussian(MomentumGrid.linspace(-6.0, 6.0, 13), center=0.0, width=1.0, mass=1.0)
    with pytest.raises(GridTooNarrow, match="exceeds the packet width"):
        make_gaussian(MomentumGrid.linspace(-6.0, 6.0, 11), center=0.0, width=1.0, mass=1.0)


def test_amplitude_vanishing_on_the_grid_rejected():
    # a Gaussian 1e-4 wide at -0.1 underflows at every point of 16 over [-1, 0]; make_gaussian
    # refuses that step before it gets here, other callers of from_function do not
    g = MomentumGrid.linspace(-1.0, 0.0, 16)
    with pytest.raises(NonPositiveWidth, match="vanishes on the grid"):
        from_function(g, lambda p: np.exp(-((p + 0.1) ** 2) / 4e-8), mass=1.0)


@pytest.mark.parametrize("x0", [30.0, 1000.0])
def test_offset_past_the_alias_window_rejected(x0):
    # sigma_x 0.05 on 1024 points: psi repeats every 2 pi/dp = 53.6, so x0 = 1000 once
    # read position_mean -11.14 and x0 = 30 read -5.16; 26 + 8 sigma_x still fits
    g = default_grid(0.7, 10.0, 1024)
    make_gaussian(g, 0.7, 10.0, mass=1.3, x0=26.0)
    with pytest.raises(GridTooNarrow, match="repeats psi"):
        make_gaussian(g, 0.7, 10.0, mass=1.3, x0=x0)


def test_negative_width_rejected():
    with pytest.raises(NonPositiveWidth):
        make_gaussian(default_grid(0.0, 1.0), center=0.0, width=-0.1, mass=1.0)


def test_zero_width_gets_floor():
    pk = make_gaussian(default_grid(2.0, 0.0), center=2.0, width=0.0, mass=1.0)
    floor = DELTA_WIDTH_FRACTION * max(abs(2.0), 1.0)
    assert np.sqrt(variance(pk, lambda p: p)) == pytest.approx(floor)


def test_evolve_zero_time_is_identity():
    pk = make_gaussian(default_grid(0.2, 0.1), center=0.2, width=0.1, mass=1.0)
    out = evolve_free(pk, lambda p: p * p / 2, 0.0)
    assert_allclose(out.amplitudes, pk.amplitudes, rtol=0, atol=0)


def test_evolve_preserves_norm_and_density():
    pk = make_gaussian(default_grid(0.2, 0.1), center=0.2, width=0.1, mass=1.0)
    out = evolve_free(pk, lambda p: np.sqrt(1 + p * p), 17.3)
    assert_allclose(out.norm(), 1.0, rtol=0, atol=1e-12)
    assert_allclose(out.density(), pk.density(), rtol=1e-15, atol=0)


def test_relativistic_group_velocity():
    # centroid of |psi(x)|^2 moves at <p/E> under E(p) = sqrt(1+p^2)
    pk = make_gaussian(default_grid(0.5, 0.2), center=0.5, width=0.2, mass=1.0)
    disp = lambda p: np.sqrt(1.0 + p * p)
    x0 = position_mean(pk)
    x3 = position_mean(evolve_free(pk, disp, 3.0))
    assert_allclose(x3 - x0, 3.0 * VGROUP_ORACLE, rtol=1e-6)


def test_position_phase_convention():
    # translation phase exp(-i p x0) puts the packet at x0
    pk = make_gaussian(default_grid(0.0, 0.5), center=0.0, width=0.5, mass=1.0, x0=1.7)
    assert_allclose(position_mean(pk), 1.7, rtol=0, atol=1e-9)


def test_position_variance_of_minimum_uncertainty_packet():
    # Var(x) = 1/(4 Var(p)) for a real Gaussian
    pk = make_gaussian(default_grid(0.0, 0.5), center=0.0, width=0.5, mass=1.0)
    assert_allclose(position_variance(pk), 1.0, rtol=1e-6)


def test_from_function_recovers_moments():
    g = default_grid(0.3, 0.1)
    pk = from_function(g, lambda p: np.exp(-((p - 0.3) ** 2) / (4 * 0.1 ** 2)), mass=1.0)
    assert_allclose(expectation(pk, lambda p: p).real, 0.3, rtol=0, atol=1e-9)
    assert_allclose(np.sqrt(variance(pk, lambda p: p)), 0.1, rtol=1e-6)


@hyp.settings(max_examples=30, deadline=None)
@hyp.given(
    center=st.floats(-2.0, 2.0, allow_nan=False),
    width=st.floats(0.05, 1.0, allow_nan=False),
    t1=st.floats(-5.0, 5.0, allow_nan=False),
    t2=st.floats(-5.0, 5.0, allow_nan=False),
)
def test_evolution_composes_additively(center, width, t1, t2):
    pk = make_gaussian(default_grid(center, width), center=center, width=width, mass=1.0)
    disp = lambda p: np.sqrt(1.0 + p * p)
    a = evolve_free(evolve_free(pk, disp, t1), disp, t2)
    b = evolve_free(pk, disp, t1 + t2)
    assert_allclose(a.amplitudes, b.amplitudes, rtol=0, atol=1e-12)


@hyp.settings(max_examples=25, deadline=None)
@hyp.given(
    center=st.floats(-1.0, 1.0, allow_nan=False),
    width=st.floats(0.05, 0.8, allow_nan=False),
)
def test_doubling_grid_density_is_converged(center, width):
    obs = lambda p: 1.0 / np.sqrt(4.0 + p * p)
    vals = []
    for n in (2048, 4096):
        pk = make_gaussian(default_grid(center, width, n), center=center, width=width, mass=2.0)
        vals.append(expectation(pk, obs).real)
    assert abs(vals[1] - vals[0]) < 1e-3 * abs(vals[0])


# --- position space -------------------------------------------------------------

def direct_position_sum(packet, xs):
    """Oracle: the trapezoid sum of psi(x) term by term, in kernel blocks of 2**20 entries."""
    xs = np.asarray(xs, dtype=float)
    p = packet.grid.points
    weighted = trapezoid_weights(p.size, (p[-1] - p[0]) / (p.size - 1)) * packet.amplitudes
    out = np.empty(xs.size, dtype=complex)
    block = max(1, (1 << 20) // packet.grid.size)
    for start in range(0, xs.size, block):
        kernel = np.exp(1j * np.outer(xs[start:start + block], packet.grid.points))
        out[start:start + block] = kernel @ weighted
    return out / np.sqrt(2.0 * np.pi)


def _freeclock_table():
    """The free clock's MC position table: 2048 p-points, 16384 x-points over +-10 sigma_x."""
    pk = freeclock_packet(FreeClockState(0.5, 0.5, 0.2, 25.0))
    x0, sig = position_mean(pk), np.sqrt(position_variance(pk))
    return pk, np.linspace(x0 - 10 * sig, x0 + 10 * sig, 16384)


def _reduce_body(sigma_x, p, x0):
    """A measurement-reduction body: 1024 p-points, 4096 x-points over x0 +- 10."""
    width = 1.0 / (2.0 * sigma_x)
    pk = make_gaussian(default_grid(p, width, 1024), p, width, mass=1.3, x0=x0)
    return pk, np.linspace(x0 - 10.0, x0 + 10.0, 4096)


def _chirped():
    g = MomentumGrid.centered(0.5, 3.0, 2048)
    pk = from_function(g, lambda p: np.exp(-(p - 0.5) ** 2 / 0.25 + 2j * (p - 0.5) ** 2), 1.0)
    x0, sig = position_mean(pk), np.sqrt(position_variance(pk))
    return pk, np.linspace(x0 - 10 * sig, x0 + 10 * sig, 3001)


def _gaussian(n=DEFAULT_GRID_POINTS):
    return make_gaussian(default_grid(0.4, 0.5, n), 0.4, 0.5, mass=1.0, x0=-0.7)


@pytest.mark.parametrize("case", [
    _freeclock_table,
    lambda: _reduce_body(0.02, 0.7, -1.3),
    lambda: _reduce_body(1.0, -0.4, 1.9),
    _chirped,
    lambda: (_gaussian(), np.array([0.3])),
    lambda: (_gaussian(), np.array([-2.0, 1.5])),
    lambda: (_gaussian(), np.linspace(4.0, -6.0, 999)),
], ids=["freeclock-table", "reduce-narrow", "reduce-wide", "chirped", "one-x", "two-x",
        "descending"])
def test_position_wavefunction_matches_direct_sum(case):
    packet, xs = case()
    expected = direct_position_sum(packet, xs)
    got = position_wavefunction(packet, xs)
    assert got.shape == xs.shape
    assert np.max(np.abs(got - expected)) <= 1e-10 * np.max(np.abs(expected))


@pytest.mark.parametrize("n", [16, 1024, 2048, INTERP_BLOCK])
def test_position_wavefunction_matches_direct_sum_across_chunks(n):
    # psi(x) is taken L - n + 1 points at a time, L = max(INTERP_BLOCK, the power of two
    # >= 2n - 1): lattices one short of, at and one past a chunk, and three chunks and 5
    # more, ascending and descending.  The oracle reads every (n // 256)-th x and the x
    # within 2 of each chunk boundary; the worst error measured is 3.1e-13 of max|psi| at
    # n = 16 (9.9e-13 as one transform) and 1.9e-15 above it
    packet = make_gaussian(default_grid(0.4, 0.5, n), 0.4, 0.5, mass=1.0)
    chunk = max(INTERP_BLOCK, 1 << (2 * n - 2).bit_length()) - n + 1
    for m in (chunk - 1, chunk, chunk + 1, 3 * chunk + 5):
        xs = np.linspace(-10.0, 10.0, m)
        cuts = np.arange(0, m, chunk)
        near = np.concatenate([cuts, m - cuts])[:, None] + np.arange(-2, 3)
        at = np.union1d(np.arange(0, m, max(1, n // 256)), near[(near >= 0) & (near < m)])
        expected = direct_position_sum(packet, xs[at])
        for got in (position_wavefunction(packet, xs), position_wavefunction(packet, xs[::-1])[::-1]):
            assert np.max(np.abs(got[at] - expected)) <= 1e-10 * np.max(np.abs(expected))


@pytest.mark.parametrize("n", [64, 256, 1024, DEFAULT_GRID_POINTS])
def test_gaussian_position_density_is_normal(n):
    # |psi|^2 of make_gaussian(..., x0) is normal, mean x0 and sigma_x = 1/(2 sigma_p),
    # up to the +-6 sigma_p grid cut, which leaves <= 4.6e-5 of the peak pointwise
    # (measured).  Over the whole alias window x0 +- pi/dp it holds unit mass and no
    # image of psi: |psi| at the window's ends is <= 2.3e-14 of the peak.  The moments
    # are read on x0 +- 10 sigma_x, since the cut's far tails move sigma_x by 2.4e-6
    sigma_p, x0 = 0.5, -0.7
    packet = _gaussian(n)
    half = np.pi / packet.grid.spacing
    xs = np.linspace(x0 - half, x0 + half, 4097)
    psi = position_wavefunction(packet, xs)
    assert max(abs(psi[0]), abs(psi[-1])) <= 1e-12 * abs(psi[xs.size // 2])
    density = np.abs(psi) ** 2
    assert_allclose(np.sum(trapezoid_weights(xs.size, xs[1] - xs[0]) * density), 1.0,
                    rtol=0, atol=1e-8)
    normal = np.exp(-(xs - x0) ** 2 * 2 * sigma_p ** 2) * np.sqrt(2 / np.pi) * sigma_p
    assert_allclose(density, normal, rtol=0, atol=1e-4 * normal.max())
    core = np.abs(xs - x0) <= 10 / (2 * sigma_p)
    xs, density = xs[core], density[core]
    w = trapezoid_weights(xs.size, xs[1] - xs[0])
    mean = np.sum(w * density * xs)
    assert_allclose(mean, x0, rtol=0, atol=1e-8)
    assert_allclose(np.sqrt(np.sum(w * density * (xs - mean) ** 2)), 1 / (2 * sigma_p), rtol=1e-6)


def test_position_wavefunction_of_no_points_is_empty():
    assert position_wavefunction(_gaussian(), np.array([])).shape == (0,)


@pytest.mark.parametrize("xs", [
    np.array([0.0, 0.1, 0.3]),
    np.linspace(-1.0, 1.0, 64) ** 3,
    np.linspace(-1.0, 1.0, 64).reshape(8, 8),
    np.array([0.0, np.nan, 0.2]),
], ids=["uneven", "cubic", "2d", "nan"])
def test_position_wavefunction_rejects_non_uniform_xs(xs):
    with pytest.raises(NonPositiveWidth):
        position_wavefunction(_gaussian(), xs)


def test_position_table_memory_is_bounded():
    # the free clock's 16384-point table runs as three chunks of at most 8192-point FFTs:
    # measured 0.94 MiB traced (1.82 MiB as one 32768-point transform), a margin of 1.33
    packet, xs = _freeclock_table()
    tracemalloc.start()
    try:
        position_wavefunction(packet, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 2 ** 20
