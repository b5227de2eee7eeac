"""Packet construction, quadrature moments, free evolution."""

import hypothesis as hyp
import hypothesis.strategies as st
import numpy as np
import pytest
from numpy.testing import assert_allclose

from qrfsim.errors import GridTooNarrow, NonFiniteSample, NonPositiveWidth
from qrfsim.packets import (
    MomentumGrid,
    WavePacket,
    default_grid,
    evolve_free,
    expectation,
    from_function,
    make_gaussian,
    position_mean,
    position_variance,
    variance,
)

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
    assert_allclose(pk.norm(), 1.0, atol=1e-12)
    assert_allclose(expectation(pk, lambda p: p).real, 0.0, atol=1e-9)


def test_gaussian_translated_mean():
    pk = make_gaussian(default_grid(0.75, 0.01), center=0.75, width=0.01, mass=1.0)
    assert_allclose(expectation(pk, lambda p: p).real, 0.75, atol=pk.grid.spacing)


def test_gaussian_width_is_density_std():
    pk = make_gaussian(default_grid(0.0, 0.5), center=0.0, width=0.5, mass=1.0)
    assert_allclose(variance(pk, lambda p: p), 0.25, rtol=1e-2)


def test_expectation_of_unity_is_norm():
    pk = make_gaussian(default_grid(0.3, 0.2), center=0.3, width=0.2, mass=2.0)
    assert_allclose(expectation(pk, lambda p: np.ones_like(p)).real, 1.0, atol=1e-9)


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


def test_negative_width_rejected():
    with pytest.raises(NonPositiveWidth):
        make_gaussian(default_grid(0.0, 1.0), center=0.0, width=-0.1, mass=1.0)


def test_zero_width_gets_floor():
    pk = make_gaussian(default_grid(2.0, 0.0), center=2.0, width=0.0, mass=1.0)
    assert pk.width == pytest.approx(2e-3)
    assert_allclose(np.sqrt(variance(pk, lambda p: p)), 2e-3, rtol=1e-2)


def test_evolve_zero_time_is_identity():
    pk = make_gaussian(default_grid(0.2, 0.1), center=0.2, width=0.1, mass=1.0)
    out = evolve_free(pk, lambda p: p * p / 2, 0.0)
    assert_allclose(out.amplitudes, pk.amplitudes, atol=0)


def test_evolve_preserves_norm_and_density():
    pk = make_gaussian(default_grid(0.2, 0.1), center=0.2, width=0.1, mass=1.0)
    out = evolve_free(pk, lambda p: np.sqrt(1 + p * p), 17.3)
    assert_allclose(out.norm(), 1.0, atol=1e-12)
    assert_allclose(out.density(), pk.density(), atol=1e-15)


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
    assert_allclose(position_mean(pk), 1.7, atol=1e-9)


def test_position_variance_of_minimum_uncertainty_packet():
    # Var(x) = 1/(4 Var(p)) for a real Gaussian
    pk = make_gaussian(default_grid(0.0, 0.5), center=0.0, width=0.5, mass=1.0)
    assert_allclose(position_variance(pk), 1.0, rtol=1e-6)


def test_from_function_recovers_meta():
    g = default_grid(0.3, 0.1)
    pk = from_function(g, lambda p: np.exp(-((p - 0.3) ** 2) / (4 * 0.1 ** 2)), mass=1.0)
    assert_allclose(pk.center, 0.3, atol=1e-9)
    assert_allclose(pk.width, 0.1, rtol=1e-6)


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
    assert_allclose(a.amplitudes, b.amplitudes, atol=1e-12)


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
