"""Self-checks of the shared oracles in tests/oracles.py, each on a case whose answer
is known exactly."""

from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import (condition, correlated_draws, exchange_angle, jacobi_momentum_map,
                     one_row_moments, trapezoid_weights)
from qrfsim.frames import FrameSystem, chart_for_ordering, frame_ordering


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
