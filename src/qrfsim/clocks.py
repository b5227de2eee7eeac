"""Rest-frame quantum clock models.

Two clocks: a rotator whose hand angle tracks time with N^-2 dispersion, and
a free-particle clock reading time off a path length.  The rotator's angular
moments are computed exactly as one weighted lag sum over the coefficients'
correlation, never by angular quadrature; only the main-lobe variance uses
a short Gauss-Legendre rule.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, NonPositiveWidth, ZeroMeanMomentum
from .packets import (
    WavePacket,
    default_grid,
    expectation,
    make_gaussian,
    position_mean,
    position_variance,
    sym_xp_covariance,
    variance,
)

#: Gauss-Legendre nodes for the main-lobe integral; the integrand is a
#: trigonometric polynomial of degree 2N, so this is exact up to J_z ~ 95.
_LOBE_NODES = 96


@dataclass(frozen=True, eq=False)
class RotatorClockState:
    """Rigid rotator clock; hand angle advances 2*pi*omega per unit time."""

    j_z: int
    omega: float
    coefficients: np.ndarray  # c_m for m = -J_z .. J_z
    elapsed: float = 0.0

    def __post_init__(self):
        if not (1 <= self.j_z < np.inf and int(self.j_z) == self.j_z):
            raise ConfigError(f"J_z must be a positive integer, got {self.j_z}")
        if not 0 < self.omega < np.inf:
            raise NonPositiveWidth(f"rotation frequency must be positive and finite, "
                                   f"got {self.omega}")
        c = np.asarray(self.coefficients, dtype=complex)
        object.__setattr__(self, "coefficients", c)
        if c.shape != (2 * self.j_z + 1,):
            raise ConfigError("need 2*J_z + 1 coefficients")
        if abs(np.sum(np.abs(c) ** 2) - 1.0) > 1e-12:
            raise ConfigError("rotator coefficients must be normalized")

    @property
    def n_states(self) -> int:
        return 2 * self.j_z + 1

    @property
    def period(self) -> float:
        return 1.0 / self.omega

    @property
    def m_values(self) -> np.ndarray:
        return np.arange(-self.j_z, self.j_z + 1)


@dataclass(frozen=True)
class FreeClockState:
    """Two-body bound system emitting a free particle whose path measures time."""

    m_a: float
    m_b: float
    p_bar: float
    a_x: float

    def __post_init__(self):
        if not (0 < self.m_a < np.inf and 0 < self.m_b < np.inf):
            raise NonPositiveWidth("constituent masses must be positive and finite")
        if not (self.p_bar != 0.0 and np.isfinite(self.p_bar)):
            raise ZeroMeanMomentum("free-particle clock needs a finite nonzero mean momentum")
        if not 0 < self.a_x < np.inf:
            raise NonPositiveWidth("position width a_x must be positive and finite")

    @property
    def mu_ab(self) -> float:
        return self.m_a * self.m_b / (self.m_a + self.m_b)

    @property
    def sigma_p(self) -> float:
        """Momentum width of the minimum-uncertainty packet, 1/(2 a_x)."""
        return 1.0 / (2.0 * self.a_x)


@dataclass(frozen=True)
class ClockReadout:
    mean: float
    dispersion: float
    model: str
    wrapped: bool = False

    def __post_init__(self):
        if self.dispersion < 0:
            raise ConfigError("readout dispersion cannot be negative")


def rotator_init(j_z: int, omega: float) -> RotatorClockState:
    """Flat superposition over m; the angular analog of a Gaussian packet."""
    n = 2 * j_z + 1
    return RotatorClockState(j_z, omega, np.full(n, 1.0 / np.sqrt(n), dtype=complex))


def rotator_evolve_rest(state: RotatorClockState, t: float) -> RotatorClockState:
    """Advance the hand: density translates rigidly by 2*pi*omega*t."""
    phases = np.exp(-2j * np.pi * state.omega * state.m_values * t)
    return replace(state, coefficients=state.coefficients * phases,
                   elapsed=state.elapsed + t)


def angular_density(state: RotatorClockState, thetas: np.ndarray) -> np.ndarray:
    """|phi(theta)|^2 with phi = sum c_m e^{im theta} / sqrt(2 pi)."""
    thetas = np.asarray(thetas, dtype=float)
    kernel = np.exp(1j * np.outer(thetas, state.m_values))
    return np.abs(kernel @ state.coefficients) ** 2 / (2.0 * np.pi)


@dataclass(frozen=True)
class AngleMoments:
    """Hand-angle statistics on the branch centered at the density peak."""

    peak: float           # absolute peak angle in [0, 2*pi)
    mean: float           # absolute circular mean in [0, 2*pi)
    variance_full: float  # variance over the whole recentered branch (-pi, pi]
    variance_lobe: float  # variance of the main lobe |u| <= 2*pi/N
    lobe_mass: float      # probability captured by the main lobe


def branch_forms(x: np.ndarray, y: np.ndarray) -> tuple[complex, complex]:
    """(x^H u y, x^H u^2 y) for the branch angle u in (-pi, pi], x and y in the
    m basis: one correlation over the lags k = m - m', weighted by the closed-form
    elements (-1)^k/(ik) of u (0 at k = 0) and 2(-1)^k/k^2 of u^2 (pi^2/3 at 0)."""
    r = np.correlate(y, x, "full")
    k = np.arange(1 - x.size, x.size)
    sign, k_safe = (-1.0) ** k, np.where(k == 0, 1, k)
    u = np.where(k == 0, 0.0, sign / (1j * k_safe))
    u2 = np.where(k == 0, np.pi ** 2 / 3.0, 2.0 * sign / k_safe ** 2)
    return complex(r @ u), complex(r @ u2)


def recenter(state: RotatorClockState) -> tuple[float, RotatorClockState]:
    """The one angle branch every rotator statistic uses: theta = phi + u.

    phi is the density peak, wrapped to (-pi, pi]; the returned state carries
    c~ = c e^{i m phi}, whose density is the original one translated to peak
    at u = 0, and u ranges over (-pi, pi].  Rigid translation of the density
    moves phi and leaves c~ unchanged, so moments of u are evolution-invariant.
    """
    c = state.coefficients
    a1 = np.sum(np.conj(c[:-1]) * c[1:])
    phi = float(-np.angle(a1)) if a1 != 0 else 0.0
    if phi <= -np.pi:
        phi += 2.0 * np.pi
    return phi, replace(state, coefficients=c * np.exp(1j * state.m_values * phi))


def angle_moments(state: RotatorClockState) -> AngleMoments:
    peak, centered = recenter(state)
    c = centered.coefficients
    mean_u, m2_u = (f.real for f in branch_forms(c, c))
    var_full = max(m2_u - mean_u ** 2, 0.0)

    half = 2.0 * np.pi / state.n_states
    nodes, weights = np.polynomial.legendre.leggauss(_LOBE_NODES)
    u = nodes * half
    w = weights * half
    rho = angular_density(centered, u)
    mass = float(np.sum(w * rho))
    mu_lobe = float(np.sum(w * rho * u) / mass)
    var_lobe = max(float(np.sum(w * rho * u ** 2) / mass) - mu_lobe ** 2, 0.0)

    mean_abs = (peak + mean_u) % (2.0 * np.pi)
    return AngleMoments(peak % (2.0 * np.pi), mean_abs, var_full, var_lobe, mass)


def rotator_read(state: RotatorClockState) -> ClockReadout:
    """Hand position as a time estimate, valid modulo the period."""
    mom = angle_moments(state)
    scale = 2.0 * np.pi * state.omega
    mean = mom.mean / scale
    if state.period - mean < 1e-9 * state.period:  # round-off just below a full turn
        mean = 0.0
    wrapped = not (0.0 <= state.elapsed < state.period)
    return ClockReadout(mean, mom.variance_lobe / scale ** 2, "rotator", wrapped)


def theta_matrix(n: int) -> np.ndarray:
    """Angle-operator matrix elements on the branch (-pi, pi] in the m basis.

    Row index is the bra mode m', column the ket mode m:
    <m'|theta|m> = (-1)^(m - m') / (i (m - m')), zero on the diagonal.
    """
    m = np.arange(n)
    k = m[None, :] - m[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        mat = np.where(k != 0, (-1.0) ** k / (1j * k), 0.0)
    return mat


def freeclock_packet(state: FreeClockState, n: int = 2048) -> WavePacket:
    """The emitted particle's Gaussian packet implied by the clock parameters."""
    return make_gaussian(default_grid(state.p_bar, state.sigma_p, n),
                         center=state.p_bar, width=state.sigma_p, mass=state.mu_ab)


def freeclock_read(packet: WavePacket, state: FreeClockState, t: float) -> ClockReadout:
    """Path-length time estimate mu*x(t)/p_bar from the emitted particle."""
    mu, pbar = state.mu_ab, state.p_bar
    p_mean = expectation(packet, lambda p: p).real
    p_var = variance(packet, lambda p: p)
    mean = (mu * position_mean(packet) + p_mean * t) / pbar
    cross = 2.0 * sym_xp_covariance(packet)
    disp = ((mu / pbar) ** 2 * position_variance(packet)
            + p_var * t ** 2 / pbar ** 2
            + (mu * t / pbar ** 2) * cross)
    return ClockReadout(float(mean), float(max(disp, 0.0)), "freeclock", False)
