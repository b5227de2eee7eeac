"""Monte-Carlo draws from grid-sampled densities, and their moments.

Sampling uses the inverse-CDF method on a piecewise-linear interpolant of the
cumulative trapezoid integral (Devroye, Non-Uniform Random Variate Generation,
1986, ch. II); generators are counter-based (Philox) and keyed by the seed
alone: the key is the stream (Salmon et al., SC'11), so seeds never collide, and
a generator can start at any uniform of its stream without drawing the ones before.

Each sampler is a table, built once with every check on its input, and a lookup
of one block of uniforms at a time.  The lookup inverts each uniform with a guide
table (Chen & Asau 1974; Devroye 1986, section III.2.4): a power-of-two table of
the first CDF index above k/K starts each lookup at most a step or two from its
answer, in O(1) expected time.  The index is searchsorted(cdf, u, "right") bit for
bit, so a discrete draw is `Generator.choice`'s and a continuous one `np.interp`'s
on the same stream.  `sample_moments` reduces draws block by block as well, so
neither drawing nor reducing holds an array the size of the ensemble.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import ConfigError, NonFiniteSample

#: Uniforms inverted, and draws reduced, per block, sized to a 2 MiB L2 with the offset
#: table beside a Monte-Carlo block (relkin.ensemble_bytes: 1.5 MiB for 16385 angles).
INTERP_BLOCK = 1 << 13


def _draw_count(n) -> int:
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
        raise ConfigError(f"a draw count must be a nonnegative integer, got {n!r}")
    return int(n)


def make_rng(seed: int, start: int = 0) -> np.random.Generator:
    """Deterministic Philox generator keyed by seed, an integer in [0, 2**64) and not a
    bool, whose first uniform is uniform `start` of the stream; distinct seeds are
    independent.  A counter step gives four doubles, so the counter advances
    start // 4 steps and start % 4 uniforms are discarded."""
    if isinstance(seed, bool) or not (isinstance(seed, (int, np.integer)) and 0 <= seed < 2 ** 64):
        raise ConfigError(f"a seed must be an integer in [0, 2**64), got {seed!r}")
    start = _draw_count(start)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    if start:
        rng.bit_generator.advance(start // 4)
        rng.random(start % 4)
    return rng


@dataclass(frozen=True, eq=False)
class Table:
    """A sampler's table: the normalised CDF and its guide; a density's also holds its
    grid xs and np.interp's slopes dx / dcdf, a weights table neither."""

    cdf: np.ndarray
    guide: np.ndarray
    xs: np.ndarray | None = None
    slope: np.ndarray | None = None


def _guide_table(cdf: np.ndarray) -> np.ndarray:
    """Guide entry k of K, a power of two at least the table size: the first index
    with cdf > k/K."""
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


def density_table(xs: np.ndarray, density: np.ndarray) -> Table:
    """The table of an unnormalised density tabulated on the grid xs."""
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
    return Table(cdf, _guide_table(cdf), xs, slope)


def weights_table(weights: np.ndarray) -> Table:
    """The table of indices drawn with the given (unnormalised, nonnegative) weights."""
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
    return Table(cdf, _guide_table(cdf))


def lookup(table: Table, u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Invert the uniforms u, in [0, 1), into out: indices (intp) for a weights table,
    draws (float) for a density table, where out may be u itself."""
    for rows, j in _invert(table.cdf, table.guide, u):
        if table.xs is None:
            out[rows] = j
        else:  # np.interp's value; a take into out= buffers unless clipped, and j is in range
            j -= 1
            x = table.cdf[j]
            np.subtract(u[rows], x, out=x)  # the last read of u: out may be u
            np.multiply(np.take(table.slope, j, out=out[rows], mode="clip"), x, out=out[rows])
            out[rows] += np.take(table.xs, j, out=x, mode="clip")
    return out


def inverse_cdf_sample(xs: np.ndarray, density: np.ndarray, n: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Draw n samples from an unnormalised density tabulated on the grid xs."""
    n = _draw_count(n)
    table = density_table(xs, density)
    u = rng.random(n)
    return lookup(table, u, out=u)  # in place: no second array of draws


def choice_from_weights(weights: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n indices with the given (unnormalised, nonnegative) weights."""
    n = _draw_count(n)
    table = weights_table(weights)
    return lookup(table, rng.random(n), out=np.empty(n, dtype=np.intp))


# Third- and fourth-order power sums, each the product of a second-order monomial of
# the centred (s, t) with a lower one, as (k, l) exponents of s and t.
_PRODUCTS = (((2, 0), (1, 0)), ((2, 0), (0, 1)), ((0, 2), (1, 0)), ((0, 2), (0, 1)),
             ((2, 0), (2, 0)), ((2, 0), (1, 1)), ((1, 1), (1, 1)), ((1, 1), (0, 2)),
             ((0, 2), (0, 2)))


def sample_moments(blocks, tau0: float | np.ndarray):
    """Mean, ddof-1 variance and their standard errors (the variance's by the fourth
    central moment) of slope * tau0 + offset over every draw of blocks, an iterable
    of (slope, offset) pairs of equal-length 1D float arrays, each moment of tau0's
    shape.

    One pass, INTERP_BLOCK draws at a time, takes the 14 power sums of the (s, t)
    centred on a pilot (the first block's means) to fourth order, by einsum, not a
    BLAS dot, whose rounding depends on its thread count.  They become the central
    co-moments once (Pebay 2008), and Horner polynomials in tau0 of those lose only
    the digits s tau0 + t cancels.  Centres the blocks in place."""
    tau = np.asarray(tau0, dtype=float)
    sums = np.zeros((5, 5))  # sums[k, l]: the sum of s^k t^l about the pilot, k + l <= 4
    squares, pilot = np.empty((3, 0)), None
    for slope, offset in blocks:
        for i in range(0, slope.size, INTERP_BLOCK):
            s, t = slope[i:i + INTERP_BLOCK], offset[i:i + INTERP_BLOCK]
            if pilot is None:
                pilot = s.mean(), t.mean()
            if squares.shape[1] < s.size:
                squares = np.empty((3, s.size))
            s -= pilot[0]
            t -= pilot[1]
            ss, st, tt = squares[:, :s.size]
            mono = {(1, 0): s, (0, 1): t, (2, 0): np.square(s, out=ss),
                    (1, 1): np.multiply(s, t, out=st), (0, 2): np.square(t, out=tt)}
            sums[0, 0] += s.size
            for k, m in mono.items():
                sums[k] += m.sum()
            for a, b in _PRODUCTS:
                sums[a[0] + b[0], a[1] + b[1]] += np.einsum("i,i->", mono[a], mono[b])
    n = sums[0, 0]
    if n < 2:
        raise ConfigError(f"sample moments need at least 2 draws, got {n:.0f}")
    # moved from the pilot to the means, a and b from it: c[i, j] =
    # sum_kl C(i,k) C(j,l) (-a)^(i-k) (-b)^(j-l) sums[k, l]
    shift_s, shift_t = (np.array([[comb(i, k) * (-d) ** (i - k) if k <= i else 0.0
                                   for k in range(5)] for i in range(5)])
                        for d in (sums[1, 0] / n, sums[0, 1] / n))
    c = np.einsum("ik,kl,jl->ij", shift_s, sums, shift_t)
    s_bar, t_bar = pilot[0] + sums[1, 0] / n, pilot[1] + sums[0, 1] / n
    s2 = np.maximum((c[2, 0] * tau + 2 * c[1, 1]) * tau + c[0, 2], 0.0) / (n - 1)
    m4 = ((((c[4, 0] * tau + 4 * c[3, 1]) * tau + 6 * c[2, 2]) * tau + 4 * c[1, 3]) * tau
          + c[0, 4]) / n
    return (s_bar * tau + t_bar, s2, np.sqrt(s2) / np.sqrt(n),
            np.sqrt(np.maximum(m4 - s2 ** 2 * (n - 3) / (n - 1), 0.0) / n))


def variance_standard_error(samples: np.ndarray) -> float:
    """Standard error of the sample variance (via the fourth central moment).
    Unused in qrfsim; the benchmark wraps it by name, and drops it at its next change."""
    x = np.ravel(samples).astype(float)
    return sample_moments([(x, np.zeros(x.size))], 1.0)[3]
