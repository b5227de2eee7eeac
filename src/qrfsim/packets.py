"""Momentum-space wave packets on uniform 1D grids.

All states are natively momentum-space amplitudes Phi(p); position-space
quantities come from phase derivatives or the quadrature Fourier sum psi(x)
(chirp-z on uniform x), never by FFT round trips.  Conventions (hbar = c = 1):

    psi(x) = (2*pi)**-0.5 * Integral Phi(p) exp(+i p x) dp
    x_hat  = +i d/dp      (a packet located at x0 carries the phase exp(-i p x0))

Expectations use the trapezoid rule, MomentumGrid.quad_weights, so that normalisation,
moments and Fourier sums all share one quadrature convention.  psi(x) on a grid of step
dp therefore repeats every 2 pi/dp, with no other image.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import GridTooNarrow, NonFiniteSample, NonPositiveWidth
from .sampling import INTERP_BLOCK

DispersionRelation = Callable[[np.ndarray], np.ndarray]

DEFAULT_GRID_POINTS = 2048
#: Hard floor on grid half-width in units of the packet momentum width.
MIN_HALF_WIDTH_SIGMAS = 6.0
#: Width floor used when a caller asks for a delta-like packet (width 0).
DELTA_WIDTH_FRACTION = 1e-3


def uniform_step(points: np.ndarray) -> float:
    """End-to-end step (last - first) / (n - 1) of a uniform 1D lattice (0 below 2
    points): one rounding, so a lattice and its reflection share it.  NonPositiveWidth
    if a step differs from it by more than 1e-12 * max(|first|, |last|, 1) or is NaN."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 1:
        raise NonPositiveWidth("sample points must be a 1D array")
    if pts.size < 2:
        return 0.0
    step = (pts[-1] - pts[0]) / (pts.size - 1)
    if not np.max(np.abs(np.diff(pts) - step)) <= 1e-12 * max(abs(pts[0]), abs(pts[-1]), 1.0):
        raise NonPositiveWidth("grid spacing is not uniform")
    return float(step)


@dataclass(frozen=True, eq=False)
class MomentumGrid:
    """Strictly increasing, uniform momentum lattice (collinear axis)."""

    points: np.ndarray
    spacing: float = field(init=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or pts.size < 3:
            raise NonPositiveWidth("grid must be a 1D array of at least 3 points")
        object.__setattr__(self, "spacing", uniform_step(pts))
        if not np.all(np.diff(pts) > 0):  # step by step: repeated points can pass as uniform
            raise NonPositiveWidth("grid points must be strictly increasing")

    @property
    def size(self) -> int:
        return int(self.points.size)

    @property
    def extent(self) -> tuple[float, float]:
        return float(self.points[0]), float(self.points[-1])

    def quad_weights(self) -> np.ndarray:
        """Trapezoid weights, dp inside and dp/2 at both ends: the one quadrature rule.
        Spectrally accurate for integrands that decay like a Gaussian, and
        reflection-symmetric."""
        w = np.full(self.size, self.spacing)
        w[[0, -1]] *= 0.5
        return w

    def covers(self, center: float, half_width: float) -> bool:
        lo, hi = self.extent
        slack = 1e-12 * max(abs(lo), abs(hi), 1.0)
        return lo <= center - half_width + slack and hi >= center + half_width - slack

    @classmethod
    def linspace(cls, p_min: float, p_max: float, n: int = DEFAULT_GRID_POINTS) -> "MomentumGrid":
        return cls(np.linspace(p_min, p_max, n))

    @classmethod
    def centered(cls, center: float, half_width: float, n: int = DEFAULT_GRID_POINTS) -> "MomentumGrid":
        if not half_width > 0:
            raise NonPositiveWidth("grid half-width must be positive")
        return cls(np.linspace(center - half_width, center + half_width, n))


@dataclass(frozen=True, eq=False)
class WavePacket:
    """Complex amplitude Phi(p) sampled on a MomentumGrid, unit L2 norm; every
    moment, centre and width included, is measured from Phi."""

    grid: MomentumGrid
    amplitudes: np.ndarray
    mass: float

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amp)
        if amp.shape != self.grid.points.shape:
            raise NonPositiveWidth("amplitude array does not match the grid")
        if not np.all(np.isfinite(amp.view(float))):
            raise NonFiniteSample("packet amplitudes contain NaN/inf")
        if not self.mass > 0:
            raise NonPositiveWidth("mass must be positive")
        n = self.norm()
        if not abs(n - 1.0) <= 1e-9:
            raise NonPositiveWidth(f"packet norm {n!r} differs from 1 beyond 1e-9")

    def norm(self) -> float:
        w = self.grid.quad_weights()
        return float(np.sqrt(np.sum(w * np.abs(self.amplitudes) ** 2).real))

    def density(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def with_amplitudes(self, amp: np.ndarray) -> "WavePacket":
        return replace(self, amplitudes=amp)


def packet_bytes(points: int) -> tuple[int, int]:
    """(held, work): the bytes of a packet on `points` momenta, its grid and complex amplitudes,
    and at most those of building, evolving or measuring one: four complex temporaries and a
    real one a point."""
    return 24 * points, 72 * points


def _delta_floor(center: float, width: float) -> float:
    """width, or for width = 0 (a delta-like packet) DELTA_WIDTH_FRACTION * max(|center|, 1)."""
    return width if width != 0.0 else DELTA_WIDTH_FRACTION * max(abs(center), 1.0)


def make_gaussian(grid: MomentumGrid, center: float, width: float, mass: float,
                  x0: float = 0.0) -> WavePacket:
    """Gaussian packet whose momentum *density* has standard deviation `width`.

    width = 0 requests a delta-like packet and is replaced by _delta_floor.  An optional
    position offset x0 is the translation phase exp(-i p x0); from_function normalises it.
    The psi(x) a grid of step dp holds repeats every 2 pi/dp, so dp must resolve the packet,
    dp <= width (16 points over +- 6 width, the coarsest default grid, give 0.8 width), and a
    nonzero x0 must keep x0 +- 8 sigma_x (sigma_x = 1 / (2 width)) inside +- pi/dp.
    """
    if width < 0:
        raise NonPositiveWidth("packet width must be >= 0")
    width = _delta_floor(center, width)
    if not grid.covers(center, MIN_HALF_WIDTH_SIGMAS * width):
        raise GridTooNarrow(f"grid {grid.extent} does not cover "
                            f"{center} +- {MIN_HALF_WIDTH_SIGMAS:g}*{width}")
    if grid.spacing > width:
        raise GridTooNarrow(f"grid step {grid.spacing:g} exceeds the packet width {width:g}")
    sigma_x = 1.0 / (2.0 * width)
    if x0 != 0.0 and not abs(x0) + 8.0 * sigma_x < np.pi / grid.spacing:
        raise GridTooNarrow(f"grid step {grid.spacing:g} repeats psi(x) every "
                            f"{2 * np.pi / grid.spacing:g}: it cannot hold {x0:g} +- 8*{sigma_x:g}")
    return from_function(grid, lambda p: np.exp(-((p - center) ** 2) / (4.0 * width ** 2))
                         * np.exp(-1j * p * x0), mass)


def from_function(grid: MomentumGrid, fn: Callable[[np.ndarray], np.ndarray],
                  mass: float) -> WavePacket:
    """Packet from an amplitude function, normalised on the grid: the one packet normaliser."""
    amp = np.asarray(fn(grid.points), dtype=complex)
    if not np.all(np.isfinite(amp.view(float))):
        raise NonFiniteSample("amplitude function produced NaN/inf on the grid")
    w = grid.quad_weights()
    n2 = np.sum(w * np.abs(amp) ** 2).real
    if n2 <= 0:
        raise NonPositiveWidth("amplitude function vanishes on the grid")
    return WavePacket(grid, amp / np.sqrt(n2), mass)


def default_grid(center: float, width: float, n: int = DEFAULT_GRID_POINTS) -> MomentumGrid:
    """Grid spanning center +- 6 sigma, the library default for new packets."""
    return MomentumGrid.centered(center, MIN_HALF_WIDTH_SIGMAS * _delta_floor(center, width), n)


def expectation(packet: WavePacket, f: Callable[[np.ndarray], np.ndarray]) -> complex:
    """<f(p)> over the packet's momentum density."""
    vals = np.asarray(f(packet.grid.points))
    if not np.all(np.isfinite(np.abs(vals))):
        raise NonFiniteSample("observable produced NaN/inf on the grid")
    w = packet.grid.quad_weights()
    return complex(np.sum(w * vals * packet.density()))


def variance(packet: WavePacket, f: Callable[[np.ndarray], np.ndarray]) -> float:
    """Var f(p); tiny negative round-off (> -1e-12) is clamped to zero."""
    mean = expectation(packet, f)
    var = expectation(packet, lambda p: np.abs(np.asarray(f(p)) - mean) ** 2).real
    if var < 0 and var > -1e-12:
        var = 0.0
    return float(var)


def evolve_free(packet: WavePacket, hamiltonian: DispersionRelation, t: float) -> WavePacket:
    """Apply the free phase exp(-i E(p) t) mode by mode."""
    e = np.asarray(hamiltonian(packet.grid.points), dtype=float)
    if not np.all(np.isfinite(e)):
        raise NonFiniteSample("dispersion relation produced NaN/inf on the grid")
    return packet.with_amplitudes(packet.amplitudes * np.exp(-1j * e * t))


def _derivative(values: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order central differences, second-order one-sided at the edges."""
    d = np.empty_like(values)
    d[2:-2] = (values[:-4] - 8 * values[1:-3] + 8 * values[3:-1] - values[4:]) / (12 * h)
    d[0] = (-3 * values[0] + 4 * values[1] - values[2]) / (2 * h)
    d[1] = (values[2] - values[0]) / (2 * h)
    d[-2] = (values[-1] - values[-3]) / (2 * h)
    d[-1] = (3 * values[-1] - 4 * values[-2] + values[-3]) / (2 * h)
    return d


def derivative_roughness(packet: WavePacket) -> float:
    """Relative disagreement between 2nd- and 4th-order stencils (quality gauge)."""
    h = packet.grid.spacing
    amp = packet.amplitudes
    d4 = _derivative(amp, h)
    d2 = np.gradient(amp, h)
    scale = np.linalg.norm(d4)
    if scale == 0.0:
        return 0.0
    return float(np.linalg.norm(d4 - d2) / scale)


def apply_x(values: np.ndarray, spacing: float) -> np.ndarray:
    """x_hat values = +i d(values)/dp: the one place the position operator is applied."""
    return 1j * _derivative(values, spacing)


def _x_moment(packet: WavePacket) -> tuple[np.ndarray, np.ndarray, float]:
    """(weights, x_hat Phi, <x>): the one stencil pass every position moment shares."""
    w = packet.grid.quad_weights()
    xphi = apply_x(packet.amplitudes, packet.grid.spacing)
    return w, xphi, float(np.sum(w * np.conj(packet.amplitudes) * xphi).real)


def position_mean(packet: WavePacket) -> float:
    """<x> = Re Integral Phi* (x_hat Phi) dp  (phase-derivative centroid)."""
    return _x_moment(packet)[2]


def position_variance(packet: WavePacket) -> float:
    """Var x via <x^2> = Integral |x_hat Phi|^2 dp."""
    w, xphi, mean = _x_moment(packet)
    var = float(np.sum(w * np.abs(xphi) ** 2).real) - mean ** 2
    return 0.0 if -1e-12 < var < 0 else var


def sym_xp_covariance(packet: WavePacket) -> float:
    """Symmetrised covariance <{x,p}>/2 - <x><p>; zero for real amplitudes."""
    w, xphi, mean = _x_moment(packet)
    sym = float(np.sum(w * np.conj(xphi) * packet.grid.points * packet.amplitudes).real)
    return sym - mean * expectation(packet, lambda q: q).real


def position_wavefunction(packet: WavePacket, xs: np.ndarray) -> np.ndarray:
    """psi(x) on a uniform 1D x lattice, ascending or descending.

    The same trapezoid quadrature sum, evaluated exactly as a Bluestein chirp-z
    transform: with p_j = p_c + j dp, x_k = x_c + k dx (j, k counted from the
    lattice middles) and jk = (j^2 + k^2 - (k - j)^2) / 2, the sum over j is one
    convolution, zero-padded to a linear one: no round trip, no periodic wrap.
    The lattice is transformed in chunks of L - n + 1 points for n momenta, each chunk
    about its own middle, so no FFT is longer than L = max(INTERP_BLOCK, the power of
    two >= 2n - 1) however many x there are; a shorter lattice is one transform.
    """
    xs = np.asarray(xs, dtype=float)
    a, n = packet.grid.spacing * uniform_step(xs), packet.grid.size  # one check of the lattice
    out = np.empty(xs.size, dtype=complex)
    chunk = _transform_length(n) - n + 1
    for start in range(0, xs.size, chunk):  # a chunk's temporaries go when it returns
        out[start:start + chunk] = _chirp_z(packet, xs[start:start + chunk], a)
    return out


def _transform_length(n: int) -> int:  # of position_wavefunction's FFTs, for n momenta
    return max(INTERP_BLOCK, 1 << (2 * n - 2).bit_length())


def wavefunction_bytes(points: int, xs: int) -> int:
    """Peak bytes of position_wavefunction: the result and one chunk's five complex arrays of
    the transform length (the kernel, both spectra, their product and its inverse)."""
    return 16 * xs + 80 * _transform_length(points)


def _chirp_z(packet: WavePacket, xs: np.ndarray, a: float) -> np.ndarray:
    """psi(x) on a nonempty uniform lattice xs of step a / dp, as one chirp-z transform."""
    n, m, dp = packet.grid.size, xs.size, packet.grid.spacing
    j, k = np.arange(n) - n // 2, np.arange(m) - m // 2
    chirped = packet.grid.quad_weights() * packet.amplitudes * np.exp(
        1j * (dp * xs[m // 2] * j + 0.5 * a * j * j))
    lag = np.arange(1 - n, m)  # k - j; negative lags wrap to the end
    kernel = np.zeros(1 << (n + m - 2).bit_length(), dtype=complex)
    kernel[lag] = np.exp(-0.5j * a * (lag - m // 2 + n // 2) ** 2)
    conv = np.fft.ifft(np.fft.fft(chirped, kernel.size) * np.fft.fft(kernel))[:m]
    phase = np.exp(1j * (packet.grid.points[n // 2] * xs + 0.5 * a * k * k))
    return conv * phase / np.sqrt(2.0 * np.pi)


@dataclass(frozen=True, eq=False)
class ProductState:
    """Uncorrelated multi-body state: one packet per body."""

    factors: tuple[WavePacket, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if len(self.factors) < 1:
            raise NonPositiveWidth("a product state needs at least one factor")
