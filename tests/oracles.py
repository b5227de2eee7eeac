"""Independent oracles the tests share: each computes what the library computes by a
plainer route, and tests/test_oracles.py checks each on a case it can compute exactly.
Test modules import their shared helpers from here, never from one another."""

import math

import numpy as np


def trapezoid_weights(n, step):
    """The oracle: trapezoid weights for n samples one step apart, the step at every
    inner point and half of it at both ends."""
    w = np.full(n, float(step))
    w[0] /= 2
    w[-1] /= 2
    return w


def exchange_angle(m1, m2, m3):
    """The oracle: the turn angle beta of the exchange of a pair of masses m1, m2 with m3
    beyond it, -arccos sqrt(m1 m2 / ((m2 + m3)(m1 + m3))), in [-pi/2, 0]; 0 at the tail,
    m3 = 0.  Near beta = 0 arccos loses half its digits, and m1 m2 under- and overflows."""
    c = np.sqrt(m1 * m2 / ((m2 + m3) * (m1 + m3)))
    return float(-np.arccos(min(c, 1.0)))


def jacobi_momentum_map(masses, ordering):
    """The oracle: the Jacobi chart's momentum rows pi = B p in closed form for 1-based body
    labels in slot order, columns in body order.  Row i < n - 1 holds -mu_i / m_i at its own
    body and mu_i / tail_i at each body beyond it, mu_i = 1 / (1/m_i + 1/tail_i) with tail_i
    the mass beyond slot i; the c.m. row is all ones."""
    m = [float(masses[label - 1]) for label in ordering]
    b = np.zeros((len(m), len(m)))
    for i in range(len(m) - 1):
        tail = math.fsum(m[i + 1:])
        mu = 1.0 / (1.0 / m[i] + 1.0 / tail)
        b[i, i], b[i, i + 1:] = -mu / m[i], mu / tail
    b[-1] = 1.0
    return b[:, np.argsort(ordering)]


def one_row_moments(x):
    """The oracle: mean, ddof-1 variance and their standard errors of one row of draws,
    in two passes over that row."""
    n, d = x.size, x - x.mean()
    s2 = np.sum(d * d) / (n - 1)
    m4 = np.mean(d ** 4)
    return x.mean(), s2, np.sqrt(s2 / n), np.sqrt(max((m4 - s2 ** 2 * (n - 3) / (n - 1)) / n, 0))


def correlated_draws(n, rho, seed):
    """n draws of a slope S near 0.8 and an offset T near 40 of correlation rho: at
    rho = -0.9 the variance of S tau0 + T dips to a tenth of its uncorrelated size at
    tau0 = 2.25, next to the 2.5 of test_sampling's TAUS."""
    z = np.random.default_rng(seed).standard_normal((2, n))
    return 0.8 + 0.2 * z[0], 40.0 + 0.5 * (rho * z[0] + np.sqrt(1 - rho ** 2) * z[1])


def condition(slope, offset, tau0):
    """How much each moment of S tau0 + T cancels in its tau0 polynomial: the sums of
    (|s tau0| + |t|)^k over those of (s tau0 + t)^k, k = 2 for the variance and its
    root, 4 (or 2 twice) for the variance's standard error; 1 for the mean."""
    s, t = slope - slope.mean(), offset - offset.mean()
    c2, c4 = (np.sum((np.abs(s * tau0) + np.abs(t)) ** k) / np.sum((s * tau0 + t) ** k)
              for k in (2, 4))
    return np.array([1.0, c2, c2, max(c4, c2 ** 2)])
