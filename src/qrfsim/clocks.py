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
    DEFAULT_GRID_POINTS,
    WavePacket,
    default_grid,
    expectation,
    make_gaussian,
    position_mean,
    position_variance,
    sym_xp_covariance,
    variance,
)

#: Gauss-Legendre nodes for the main-lobe integral.  The lobe |u| <= 2 pi/N narrows
#: as the density's frequencies (up to 2N) grow, so on the scaled lobe they stay
#: below 4 pi: 96 nodes agree with 400 to 1.1e-13 on variance_lobe up to J_z = 8000.
_LOBE_NODES = 96


def _j_z(j_z) -> int:
    """J_z as an int: a positive integral number and not a bool, else ConfigError."""
    number = isinstance(j_z, (int, float, np.integer, np.floating)) and not isinstance(j_z, bool)
    if not (number and 1 <= j_z < np.inf and int(j_z) == j_z):
        raise ConfigError(f"J_z must be a positive integer, got {j_z!r}")
    return int(j_z)


def _reject_bools(state, *names: str) -> None:
    """ConfigError if a named field holds a bool, which would pass a range check as 0 or 1."""
    bools = [name for name in names if isinstance(getattr(state, name), (bool, np.bool_))]
    if bools:
        raise ConfigError(f"{', '.join(bools)}: expected a number, got a bool")


@dataclass(frozen=True, eq=False)
class RotatorClockState:
    """Rigid rotator clock; hand angle advances 2*pi*omega per unit time."""

    j_z: int
    omega: float
    coefficients: np.ndarray  # c_m for m = -J_z .. J_z
    elapsed: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "j_z", _j_z(self.j_z))
        _reject_bools(self, "omega")
        if not 0 < self.omega < np.inf:
            raise NonPositiveWidth(f"rotation frequency must be positive and finite, "
                                   f"got {self.omega}")
        c = np.asarray(self.coefficients, dtype=complex)
        object.__setattr__(self, "coefficients", c)
        if c.shape != (2 * self.j_z + 1,):
            raise ConfigError("need 2*J_z + 1 coefficients")
        if not abs(np.sum(np.abs(c) ** 2) - 1.0) <= 1e-12:  # NaN fails too
            raise ConfigError("rotator coefficients must be finite and normalized")

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
        _reject_bools(self, "m_a", "m_b", "p_bar", "a_x")
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
    n = 2 * _j_z(j_z) + 1
    return RotatorClockState(j_z, omega, np.full(n, 1.0 / np.sqrt(n), dtype=complex))


def rotator_evolve_rest(state: RotatorClockState, t: float) -> RotatorClockState:
    """Advance the hand: density translates rigidly by 2*pi*omega*t."""
    phases = np.exp(-2j * np.pi * state.omega * state.m_values * t)
    return replace(state, coefficients=state.coefficients * phases,
                   elapsed=state.elapsed + t)


def angular_density(state: RotatorClockState, thetas: np.ndarray) -> np.ndarray:
    """|phi(theta)|^2, phi = sum_m c_m e^{im theta} / sqrt(2 pi) = e^{-iJ theta}
    sum_k c_{k-J} z^k / sqrt(2 pi): Horner's rule in z = e^{i theta}, in place, as
    the prefactor has unit modulus.  Memory is O(thetas) whatever J_z."""
    z = np.exp(1j * np.asarray(thetas, dtype=float))
    phi = np.full(z.shape, state.coefficients[-1])
    for c_m in state.coefficients[-2::-1]:
        phi *= z
        phi += c_m
    rho = np.abs(phi)  # squared and scaled in place: one float array
    rho *= rho
    rho /= 2.0 * np.pi
    return rho


@dataclass(frozen=True)
class AngleMoments:
    """Hand-angle statistics on the branch centered at the density peak."""

    peak: float           # absolute peak angle in [0, 2*pi)
    mean: float           # absolute circular mean in [0, 2*pi)
    variance_full: float  # variance over the whole recentered branch (-pi, pi]
    variance_lobe: float  # variance of the main lobe |u| <= 2*pi/N
    lobe_mass: float      # probability captured by the main lobe


def lag_sum_bytes(modes: int) -> int:
    """Peak bytes of branch_forms on `modes` modes: eleven floats a lag, of 2 modes - 1."""
    return 88 * (2 * modes - 1)


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


def freeclock_packet(state: FreeClockState, n: int = DEFAULT_GRID_POINTS) -> WavePacket:
    """The emitted particle's Gaussian packet implied by the clock parameters."""
    return make_gaussian(default_grid(state.p_bar, state.sigma_p, n),
                         center=state.p_bar, width=state.sigma_p, mass=state.mu_ab)


def freeclock_terms(packet: WavePacket, state: FreeClockState) -> tuple[float, ...]:
    """The free clock's tau0-free terms from the emitted packet, at B = 1: mu<x>/p_bar,
    (mu/p_bar)^2 Var x, (mu/p_bar^2) 2cov(x, p) and Var p/p_bar^2.  A moving clock
    scales the third by <B> and the fourth by <B>^2 (RelClockSystem.time_operator)."""
    mu, pbar = state.mu_ab, state.p_bar
    return (mu * position_mean(packet) / pbar,
            (mu / pbar) ** 2 * position_variance(packet),
            (mu / pbar ** 2) * 2.0 * sym_xp_covariance(packet),
            variance(packet, lambda q: q) / pbar ** 2)


def freeclock_read(packet: WavePacket, state: FreeClockState, t: float) -> ClockReadout:
    """Path-length time estimate mu*x(t)/p_bar from the emitted particle at rest:
    freeclock_terms at B = 1, with mean offset + <p> t/p_bar."""
    offset, d0, cross, v = freeclock_terms(packet, state)
    mean = offset + expectation(packet, lambda p: p).real * t / state.p_bar
    disp = d0 + cross * t + v * t ** 2
    return ClockReadout(float(mean), float(max(disp, 0.0)), "freeclock", False)
