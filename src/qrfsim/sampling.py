"""Monte-Carlo draws from grid-sampled densities.

Sampling uses the inverse-CDF method on a piecewise-linear interpolant of the
cumulative trapezoid integral (Devroye, Non-Uniform Random Variate Generation,
1986, ch. II); generators are counter-based (Philox) and keyed by the seed
alone: the key is the stream (Salmon et al., SC'11), so seeds never collide.

Uniforms are interpolated in blocks, each visited in bucket order of its values'
leading 16 bits, so the CDF lookups run nearly in order; each draw is still
`np.interp` of its own uniform, bit-identical to plain inversion on the stream.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, NonFiniteSample

#: Uniforms interpolated per bucket-ordered block: the block and its order fit in L2.
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
    seg = 0.5 * (d[1:] + d[:-1]) * np.abs(dx)
    cdf = np.concatenate(([0.0], np.cumsum(seg)))
    total = cdf[-1]
    if total <= 0:
        raise NonFiniteSample("density integrates to zero")
    cdf /= total
    u = rng.random(n)
    for block in (u[i:i + INTERP_BLOCK] for i in range(0, n, INTERP_BLOCK)):
        # numpy radix-sorts 16-bit keys; writing into u holds no second array of draws
        order = np.argsort((block * 65536.0).astype(np.uint16), kind="stable")
        block[order] = np.interp(block[order], cdf, xs)
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
    if total <= 0:
        raise NonFiniteSample("weights sum to zero")
    return rng.choice(w.size, size=n, p=w / total)


def sample_moments(samples: np.ndarray) -> tuple[float, float, float, float]:
    """Mean, sample variance (ddof 1) and their standard errors, the variance's
    via the fourth central moment, from one mean and one centred array."""
    x = np.asarray(samples, dtype=float)
    n = x.size
    m = x.mean()
    d = x - m
    np.square(d, out=d)
    s2 = d.sum() / (n - 1)
    m4 = np.square(d, out=d).mean()  # squaring twice: ** 4 goes through pow
    var_of_var = (m4 - s2 ** 2 * (n - 3) / (n - 1)) / n
    return (float(m), float(s2), float(np.sqrt(s2) / np.sqrt(n)),
            float(np.sqrt(max(var_of_var, 0.0))))


def variance_standard_error(samples: np.ndarray) -> float:
    """Standard error of the sample variance (via the fourth central moment)."""
    return sample_moments(samples)[3]
