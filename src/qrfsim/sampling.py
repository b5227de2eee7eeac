"""Monte-Carlo draws from grid-sampled densities.

Sampling uses the inverse-CDF method on a piecewise-linear interpolant of the
cumulative trapezoid integral (Devroye, Non-Uniform Random Variate Generation,
1986, ch. II); generators are counter-based (Philox) and keyed by the seed
alone: the key is the stream (Salmon et al., SC'11), so seeds never collide.

Both samplers invert one uniform per draw with a guide table (Chen & Asau 1974;
Devroye 1986, section III.2.4): a power-of-two table of the first CDF index above
k/K starts each lookup at most a step or two from its answer, in O(1) expected
time.  The index is searchsorted(cdf, u, "right") bit for bit, so a discrete draw
is `Generator.choice`'s and a continuous one `np.interp`'s on the same stream.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, NonFiniteSample

#: Uniforms inverted per block: the block and its lookup temporaries fit in L2.
INTERP_BLOCK = 1 << 15


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic Philox generator keyed by seed, an integer in [0, 2**64) and not a
    bool; distinct seeds are independent."""
    if isinstance(seed, bool) or not (isinstance(seed, (int, np.integer)) and 0 <= seed < 2 ** 64):
        raise ConfigError(f"a seed must be an integer in [0, 2**64), got {seed!r}")
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def _draw_count(n) -> int:
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
        raise ConfigError(f"a draw count must be a nonnegative integer, got {n!r}")
    return int(n)


def _guide_table(cdf: np.ndarray) -> np.ndarray:
    """Guide entry k of K, a power of two at least the table size: the first index
    with cdf > k/K.  Built before the uniforms are drawn, so its temporaries are
    freed by then."""
    size = 1 << (cdf.size - 1).bit_length()
    return np.searchsorted(cdf, np.arange(size) / size, "right")


def _invert(cdf: np.ndarray, guide: np.ndarray, u: np.ndarray):
    """Yield (rows, searchsorted(cdf, u[rows], "right")) block by block, for uniforms u
    in [0, 1) and a nondecreasing CDF that ends at exactly 1.  As K is a power of
    two, u K is exact, so guide entry floor(u K) never passes the answer; one step
    and a binary search of the few still short of it finish the lookup."""
    for i in range(0, u.size, INTERP_BLOCK):
        rows = slice(i, i + INTERP_BLOCK)
        block = u[rows]
        j = guide[(block * guide.size).astype(np.intp)]
        j += cdf[j] <= block
        short = np.flatnonzero(cdf[j] <= block)
        j[short] = np.searchsorted(cdf, block[short], "right")
        yield rows, j


def inverse_cdf_sample(xs: np.ndarray, density: np.ndarray, n: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Draw n samples from an unnormalised density tabulated on the grid xs."""
    n = _draw_count(n)
    xs = np.asarray(xs, dtype=float)
    d = np.asarray(density, dtype=float)
    if xs.ndim != 1 or xs.size < 2:
        raise ConfigError(f"a sampling grid needs a 1D array of at least 2 points, got shape {xs.shape}")
    if d.shape != xs.shape:
        raise ConfigError(f"density shape {d.shape} does not match grid shape {xs.shape}")
    dx = np.diff(xs)
    if not (np.all(dx > 0) or np.all(dx < 0)):
        raise ConfigError("a sampling grid must be strictly monotone")
    if np.any(d < -1e-12) or not np.all(np.isfinite(d)):
        raise NonFiniteSample("density must be finite and nonnegative")
    d = np.clip(d, 0.0, None)
    # cumulative trapezoid, zero-anchored; a descending grid integrates like an ascending one
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (d[1:] + d[:-1]) * np.abs(dx))))
    total = cdf[-1]
    if not 0 < total < np.inf:
        raise NonFiniteSample(f"density integrates to {total}, not a positive finite number")
    cdf /= total
    # np.interp's slopes; a flat segment keeps its zero, as no lookup lands on one
    slope = np.diff(cdf)
    np.divide(dx, slope, out=slope, where=slope > 0)
    guide = _guide_table(cdf)
    u = rng.random(n)
    for rows, j in _invert(cdf, guide, u):
        j -= 1
        x = cdf[j]
        np.subtract(u[rows], x, out=x)
        x *= slope[j]
        x += xs[j]
        u[rows] = x  # in place: no second array of draws
    return u


def choice_from_weights(weights: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n indices with the given (unnormalised, nonnegative) weights."""
    n = _draw_count(n)
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1:
        raise ConfigError(f"weights must be a 1D array, got shape {w.shape}")
    if np.any(w < -1e-12) or not np.all(np.isfinite(w)):
        raise NonFiniteSample("weights must be finite and nonnegative")
    w = np.clip(w, 0.0, None)
    total = w.sum()
    if not 0 < total < np.inf:
        raise NonFiniteSample(f"weights sum to {total}, not a positive finite number")
    cdf = (w / total).cumsum()  # Generator.choice's table, so its draws are choice's
    cdf /= cdf[-1]
    guide = _guide_table(cdf)
    out = np.empty(n, dtype=np.intp)
    for rows, j in _invert(cdf, guide, rng.random(n)):
        out[rows] = j
    return out


def sample_moments(slope: np.ndarray, offset: np.ndarray, tau0: float | np.ndarray):
    """Mean, ddof-1 variance and their standard errors (the variance's by the fourth
    central moment) of slope * tau0 + offset, each of tau0's shape: Horner polynomials in
    tau0 of the centred (s, t)'s co-moments to fourth order, taken in one pass (Pebay 2008),
    that lose the digits s tau0 + t cancels.  Overwrites slope and offset, 1D float arrays."""
    n, tau = slope.size, np.asarray(tau0, dtype=float)
    s_bar, t_bar = slope.mean(), offset.mean()
    slope -= s_bar
    offset -= t_bar
    ss = np.square(slope)  # the one draw-sized temporary
    st, tt = np.multiply(slope, offset, out=slope), np.square(offset, out=offset)
    # einsum, not BLAS: a BLAS dot's rounding depends on its thread count
    q4, q3, q2, q1, q0 = (np.einsum("i,i->", a, b)
                          for a, b in ((ss, ss), (ss, st), (st, st), (st, tt), (tt, tt)))
    s2 = np.maximum((ss.sum() * tau + 2 * st.sum()) * tau + tt.sum(), 0.0) / (n - 1)
    m4 = ((((q4 * tau + 4 * q3) * tau + 6 * q2) * tau + 4 * q1) * tau + q0) / n
    return (s_bar * tau + t_bar, s2, np.sqrt(s2) / np.sqrt(n),
            np.sqrt(np.maximum(m4 - s2 ** 2 * (n - 3) / (n - 1), 0.0) / n))


def variance_standard_error(samples: np.ndarray) -> float:
    """Standard error of the sample variance (via the fourth central moment).
    Unused in qrfsim; the benchmark wraps it by name, and drops it at its next change."""
    return sample_moments(np.ravel(samples).astype(float), np.zeros(np.size(samples)), 1.0)[3]
