"""Self-checks of the shared oracles in tests/oracles.py, each on a case whose answer
is known exactly."""

from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import (boost_variance, condition, correlated_draws, exchange_angle,
                     full_mesh_averages, jacobi_momentum_map, materialised_ensemble,
                     one_row_moments, trapezoid_weights)
from qrfsim.clocks import RotatorClockState
from qrfsim.frames import FrameSystem, chart_for_ordering, frame_ordering
from qrfsim.relkin import ModeSuperposition, RelClockSystem
from qrfsim.sampling import make_rng


def test_one_row_moments_of_one_to_four():
    # mean 5/2, variance 5/3, fourth central moment 41/16, all in exact arithmetic
    n, mean, s2, m4 = 4, Fraction(5, 2), Fraction(5, 3), Fraction(41, 16)
    want = [mean, s2, s2 / n, (m4 - s2 ** 2 * (n - 3) / (n - 1)) / n]
    got = one_row_moments(np.array([1.0, 2.0, 3.0, 4.0]))
    assert_allclose([got[0], got[1], got[2] ** 2, got[3] ** 2], [float(w) for w in want],
                    rtol=1e-15, atol=0)


@pytest.mark.parametrize("rho", [-1.0, 1.0])
def test_fully_correlated_draws_lie_on_one_line(rho):
    # at |rho| = 1 the offset is 40 + 2.5 rho (S - 0.8), draw by draw
    slope, offset = correlated_draws(1000, rho, seed=2)
    assert slope.shape == offset.shape == (1000,)
    assert_allclose(offset, 40.0 + 2.5 * rho * (slope - 0.8), rtol=1e-14, atol=0)
    assert np.corrcoef(slope, offset)[0, 1] == pytest.approx(rho, abs=1e-12)


def test_condition_counts_the_cancellation():
    # at tau0 = 0 nothing cancels; at tau0 = 1/2, s tau0 + t = -+1/2 against |s tau0| + |t|
    # = 3/2, a ratio of 9 in the squares and 81 in the fourth powers
    slope, offset = np.array([1.0, -1.0]), np.array([-1.0, 1.0])
    assert condition(slope, offset, 0.0).tolist() == [1.0, 1.0, 1.0, 1.0]
    assert condition(slope, offset, 0.5).tolist() == [1.0, 9.0, 9.0, 81.0]


def test_trapezoid_weights_integrate_a_line_exactly():
    # on [-1, 3] in steps of 1 the weights are 1/2, 1, 1, 1, 1/2, and the rule is exact
    # for a line: Integral dx = 4, Integral (2x + 1) dx = 12
    xs = np.linspace(-1.0, 3.0, 5)
    w = trapezoid_weights(xs.size, 1.0)
    assert w.tolist() == [0.5, 1.0, 1.0, 1.0, 0.5]
    assert [np.sum(w), np.sum(w * (2 * xs + 1))] == [4.0, 12.0]


def test_exchange_angle_closed_form():
    # equal masses turn by pi/3; (1, 2, 3) by arccos sqrt(2/20); a pair light against the rest
    # by nearly pi/2; the tail pair not at all, a pure parity
    assert_allclose(exchange_angle(1.0, 1.0, 1.0), -np.pi / 3, rtol=0, atol=1e-15)
    assert_allclose(exchange_angle(1.0, 2.0, 3.0), -np.arccos(np.sqrt(2.0 / 20.0)),
                    rtol=0, atol=1e-15)
    assert_allclose(exchange_angle(1.0, 2.0, 1e12), -np.pi / 2, rtol=0, atol=1e-6)
    assert exchange_angle(5.0, 3.0, 0.0) == 0.0


@pytest.mark.parametrize("label", [1, 2, 3, 4])
def test_jacobi_momentum_map_pairs_with_the_coordinate_map(label):
    # canonical pairing A B^T = 1: the closed-form momentum rows invert the built
    # coordinate rows of every frame chart of masses 1..4
    masses = [1.0, 2.0, 3.0, 4.0]
    ordering = frame_ordering(4, label)
    a = chart_for_ordering(FrameSystem.from_masses(masses), ordering).coord_map
    assert_allclose(a @ jacobi_momentum_map(masses, ordering).T, np.eye(4), rtol=0, atol=1e-15)


# two equally weighted momenta {0, 0.75}: B_2 is {1, 0.8} at m = 1 and {1, 0.6} at m = 0.5625
_P, _W_P, _M = np.array([0.0, 0.75]), np.array([0.5, 0.5]), np.array([1.0, 0.5625])


def test_full_mesh_averages_of_two_momenta():
    # F is the mean of each mass's pair, G its centred square: 0.01 and 0.04
    assert_allclose(full_mesh_averages(_P, _W_P, _M), [[0.9, 0.8], [0.01, 0.04]],
                    rtol=1e-15, atol=0)


def test_boost_variance_of_two_momenta():
    # at one mass the variance of {1, 0.8} is 0.01; over both masses, equally weighted, that
    # of {1, 0.8, 1, 0.6} about 0.85 is 0.11 / 4
    one = np.ones(1)
    assert_allclose(boost_variance(_P, _W_P, _M[:1], one, one), 0.01, rtol=1e-15, atol=0)
    assert_allclose(boost_variance(_P, _W_P, _M, _W_P, np.ones(2)), 0.0275, rtol=1e-15, atol=0)


def test_materialised_ensemble_of_one_mode_and_a_flat_clock():
    # one momentum 0.75 at rest mass 1 and one populated J_z level: every slope is 0.8, and
    # the flat angle density makes each offset (u - 1/2) / omega, u the uniforms [2n, 3n),
    # to 4.7e-12 of a table interpolation on offsets up to 50
    n, omega = 1000, 0.01
    sys = RelClockSystem(1.0, ModeSuperposition(np.array([0.75]), np.ones(1)),
                         RotatorClockState(1, omega, np.array([0.0, 1.0, 0.0])))
    slope, offset = materialised_ensemble(sys, n, seed=4)
    assert_allclose(slope, np.full(n, 0.8), rtol=1e-15, atol=0)
    assert_allclose(offset, (make_rng(4, 2 * n).random(n) - 0.5) / omega, rtol=0, atol=2e-11)
