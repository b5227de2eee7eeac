"""Independent oracles the tests share: each computes what the library computes by a
plainer route, and tests/test_oracles.py checks each on a case it can compute exactly.
Test modules import their shared helpers from here, never from one another."""

import math

import numpy as np

from qrfsim import relkin
from qrfsim.relkin import time_boost
from qrfsim.sampling import choice_from_weights, inverse_cdf_sample, make_rng


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


def full_mesh_averages(p, w_p, m_op, rows=256):
    """The oracle: F = sum_p w_p B_2 and G = sum_p w_p (B_2 - F / sum_p w_p)^2, centred on
    the normalised mean, of relkin._mode_averages, from B_2 = m / sqrt(m^2 + p^2) in
    numpy.longdouble on the whole (mass x momentum) mesh, 256 masses at a time, never
    interpolated."""
    p, w_p = (np.asarray(a, dtype=np.longdouble) for a in (p, w_p))
    out = np.empty((2, m_op.size))
    for i in range(0, m_op.size, rows):
        m = np.asarray(m_op[i:i + rows, None], dtype=np.longdouble)
        b = m / np.sqrt(m * m + p * p)
        mean = b @ w_p
        b -= mean[:, None] / w_p.sum()
        out[0, i:i + rows], out[1, i:i + rows] = mean, (b * b) @ w_p
    return out


def boost_variance(p, w_p, masses, w_m, f, rows=256):
    """The oracle: the variance of the slope S = f B_2 under the weights w_m w_p of the
    (mode x momentum) product, normalised, by a two-pass sum in numpy.longdouble over that
    whole product, 256 modes at a time, with B_2 = m / sqrt(m^2 + p^2)."""
    p, w_p, masses, w_m, f = (np.asarray(a, dtype=np.longdouble)
                              for a in (p, w_p, masses, w_m, f))

    def blocks():  # (weights, S) on 256 modes at a time
        for i in range(0, masses.size, rows):
            m = masses[i:i + rows, None]
            yield w_m[i:i + rows, None] * w_p, f[i:i + rows, None] * m / np.sqrt(m * m + p * p)

    total = w_m.sum() * w_p.sum()
    mean = sum(np.sum(w * s) for w, s in blocks()) / total
    return float(sum(np.sum(w * (s - mean) ** 2) for w, s in blocks()) / total)


def materialised_ensemble(sys, n, seed):
    """The oracle: (S, T) of all n draws at once, by the public samplers on one stream
    whose uniforms the momenta, the modes and the offsets read in turn."""
    rng = make_rng(seed)
    p, w_p = relkin._external_weights(sys.external)
    masses, weights, f = relkin._clock_modes(sys)
    p = p[choice_from_weights(w_p, n, rng)]
    k = choice_from_weights(weights, n, rng)
    slope = time_boost(p, masses[k]) * f[k]
    return slope, inverse_cdf_sample(*relkin._offset_law(sys), n, rng)
