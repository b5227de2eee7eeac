"""Relativistic layer: proper-time statistics, boosted clock evolution,
two-body kinematics, Newton-Wigner coordinate, frame-to-frame maps.

Energies are square-root Klein-Gordon, E = sqrt(m^2 + p^2); boosts between
frames are realized as per-mode variable substitutions with Jacobian
amplitude factors, never as exponentiated generators.  The proper-time
observable of a moving clock decomposes as tau_2 = B_2 tau_0 + theta(0)/2piw
(rotator) or (p_x B_2 / pbar_x) tau_0 + mu x(0)/pbar_x (free clock), and all
reported statistics are exact quadrature moments of those operators.  Their
tau_0-free coefficients belong to the system: RelClockSystem.time_operator
computes them once, and proper_time_stats and mc_variance_check share them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .clocks import (
    ClockReadout,
    FreeClockState,
    RotatorClockState,
    angular_density,
    branch_forms,
    freeclock_packet,
    recenter,
    rotator_evolve_rest,
)
from .errors import (
    ClockModelMismatch,
    ConfigError,
    NonPositiveWidth,
    RoughState,
)
from .packets import (
    MomentumGrid,
    WavePacket,
    _derivative,
    derivative_roughness,
    evolve_free,
    expectation,
    from_function,
    position_mean,
    position_variance,
    position_wavefunction,
    sym_xp_covariance,
    variance,
)
from .sampling import choice_from_weights, inverse_cdf_sample, make_rng, sample_moments

#: Above this internal-to-rest energy ratio the factorized boost drifts.
ALPHA_I_WARN = 0.1

#: Angles at which the rotator's Monte-Carlo sampler tabulates its density.
ANGLE_TABLE_POINTS = 16385

#: Internal modes per block of the boost mesh that _boost_moments holds at once.
BOOST_BLOCK_ROWS = 256


def time_boost(p: np.ndarray, m2: float | np.ndarray) -> np.ndarray:
    """B_2 = m_2 / sqrt(m_2^2 + p^2), the operator-valued inverse Lorentz factor."""
    m2 = np.asarray(m2, dtype=float)
    if not np.all(m2 > 0):
        raise NonPositiveWidth("time boost needs a positive mass")
    p = np.asarray(p, dtype=float)
    return m2 / np.sqrt(m2 ** 2 + p ** 2)


@dataclass(frozen=True, eq=False)
class ModeSuperposition:
    """Discrete momentum modes sum c_l |p_l>; collinear scalars."""

    points: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        c = np.asarray(self.coeffs, dtype=complex)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "coeffs", c)
        if pts.shape != c.shape or pts.ndim != 1:
            raise ConfigError("mode points and coefficients must be matching 1D arrays")
        if len(np.unique(pts)) != pts.size:
            raise ConfigError("mode momenta must be distinct")
        if abs(np.sum(np.abs(c) ** 2) - 1.0) > 1e-12:
            raise ConfigError("mode coefficients must be normalized")

    @property
    def probabilities(self) -> np.ndarray:
        return np.abs(self.coeffs) ** 2


def _external_weights(external) -> tuple[np.ndarray, np.ndarray]:
    """(momentum values, probability weights) for packet or mode externals."""
    if isinstance(external, WavePacket):
        return external.grid.points, external.grid.quad_weights() * external.density()
    if isinstance(external, ModeSuperposition):
        return external.points, external.probabilities
    raise ConfigError(f"unsupported external state {type(external).__name__}")


@dataclass(frozen=True)
class TimeOperatorStats:
    """Mean and dispersion of another frame's proper time after observer time tau0.

    tau_2 = S tau0 + T: slope, offset, d_b, g2, d0 and the free clock's
    velocity spread v do not depend on tau0, and tau_mean, d_tau =
    d_b*tau0^2 + g2*tau0 + d0 and d_x = d0 + v*tau0^2 (free clock only) are
    evaluated from them, as floats or arrays as tau0 was given.
    """

    slope: float
    offset: float
    d_b: float
    g2: float
    d0: float
    model: str
    v: float | None = None
    tau0: float | np.ndarray = 0.0

    @property
    def tau_mean(self) -> float | np.ndarray:
        return self.slope * self.tau0 + self.offset

    @property
    def d_tau(self) -> float | np.ndarray:
        return self.d_b * self.tau0 ** 2 + self.g2 * self.tau0 + self.d0

    @property
    def d_x(self) -> float | np.ndarray | None:
        return None if self.v is None else self.d0 + self.v * self.tau0 ** 2


@dataclass(frozen=True, eq=False)
class RelClockSystem:
    """A clock-carrying body: rest mass, external momentum state, internal clock."""

    rest_mass: float
    external: WavePacket | ModeSuperposition
    clock: RotatorClockState | FreeClockState
    clock_packet: WavePacket | None = field(init=False, default=None)

    def __post_init__(self):
        if not self.rest_mass > 0:
            raise NonPositiveWidth("rest mass must be positive")
        _external_weights(self.external)  # type check
        if isinstance(self.clock, RotatorClockState):
            # the mass operator m2' + 2 pi w m must stay positive on populated modes
            populated = self.clock.m_values[np.abs(self.clock.coefficients) > 1e-15]
            m_min = self.rest_mass + 2 * np.pi * self.clock.omega * populated.min()
            if m_min <= 0:
                raise ConfigError(
                    f"mass operator reaches {m_min}; lower omega*J_z below m2'/2pi")
        elif isinstance(self.clock, FreeClockState):
            total = self.clock.m_a + self.clock.m_b
            if abs(total - self.rest_mass) > 1e-12 * total:
                raise ConfigError(
                    f"rest mass {self.rest_mass} must equal m_a + m_b = {total}")
            n = self.external.grid.size if isinstance(self.external, WavePacket) else 2048
            object.__setattr__(self, "clock_packet", freeclock_packet(self.clock, n))
        else:
            raise ClockModelMismatch(f"unknown clock model {type(self.clock).__name__}")
        if self.alpha_i > ALPHA_I_WARN:
            warnings.warn(
                f"internal energy is {self.alpha_i:.3f} of the rest mass; "
                "the factorized boosted evolution degrades beyond 0.1", stacklevel=2)

    @property
    def alpha_i(self) -> float:
        """|<internal energy>| / rest mass."""
        if isinstance(self.clock, RotatorClockState):
            w = np.abs(self.clock.coefficients) ** 2
            energy = 2 * np.pi * self.clock.omega * np.sum(w * self.clock.m_values)
        else:
            energy = expectation(self.clock_packet, lambda p: p * p).real / (2 * self.clock.mu_ab)
        return abs(float(energy)) / self.rest_mass

    @cached_property
    def time_operator(self) -> TimeOperatorStats:
        """The tau0-free coefficients of tau_2 = S tau0 + T, computed on first use
        and shared by proper_time_stats and mc_variance_check (tau0 = 0)."""
        clock = self.clock
        p, w_p = _external_weights(self.external)
        if isinstance(clock, RotatorClockState):
            b_mode, slope, d_b = _boost_moments(p, w_p, _rotator_mode_masses(self.rest_mass, clock),
                                                np.abs(clock.coefficients) ** 2)
            # theta = phi + u on the peak-centred branch; phi is a constant, so the
            # boost-angle covariance is that of u in the recentred coefficients:
            # <{B - slope, u}> = 2 Re <c|u (B - slope)|c>, as u is Hermitian
            scale = 2 * np.pi * clock.omega
            phi, centered = recenter(clock)
            c = centered.coefficients
            u_bar, u2 = (f.real for f in branch_forms(c, c))
            d0 = max(u2 - u_bar ** 2, 0.0) / scale ** 2
            g2 = 2 * branch_forms(c, (b_mode - slope) * c)[0].real / scale
            return TimeOperatorStats(slope, (phi + u_bar) / scale, d_b, g2, d0, "rotator")
        pk_x = self.clock_packet
        px = pk_x.grid.points
        wx = pk_x.grid.quad_weights() * pk_x.density()
        pbar, mu = clock.p_bar, clock.mu_ab
        b_ext, slope, d_b = _boost_moments(p, w_p, _freeclock_mass_operator(clock, px), wx,
                                           px / pbar)
        b_bar = float(wx @ b_ext)
        cross = 2.0 * sym_xp_covariance(pk_x)
        d0 = (mu / pbar) ** 2 * position_variance(pk_x)
        g2 = (mu / pbar ** 2) * b_bar * cross
        v = (variance(pk_x, lambda q: q) / pbar ** 2) * b_bar ** 2  # velocity spread
        return TimeOperatorStats(slope, mu * position_mean(pk_x) / pbar, d_b, g2, d0,
                                 "freeclock", v)


def _rotator_mode_masses(rest_mass: float, clock: RotatorClockState) -> np.ndarray:
    return rest_mass + 2 * np.pi * clock.omega * clock.m_values


def _freeclock_mass_operator(clock: FreeClockState, px: np.ndarray) -> np.ndarray:
    return clock.m_a + clock.m_b + px ** 2 / (2 * clock.mu_ab)


def _boost_moments(p, w_p, m_op, w_m, f=1.0) -> tuple[np.ndarray, float, float]:
    """B_2 on the (internal mode x momentum) mesh: its per-mode average over
    the momenta, and the mean and variance of f B_2 (f: 1 or one per mode).
    The mesh is held BOOST_BLOCK_ROWS modes at a time."""
    b_mode, b2_mode = np.empty(m_op.size), np.empty(m_op.size)
    for i in range(0, m_op.size, BOOST_BLOCK_ROWS):
        rows = slice(i, i + BOOST_BLOCK_ROWS)
        b = time_boost(p[None, :], m_op[rows, None])
        b_mode[rows] = b @ w_p
        b2_mode[rows] = (b * b) @ w_p
        del b  # else the next block is built while this one is still held
    s_bar = float(w_m @ (f * b_mode))
    s2_bar = float(w_m @ (f ** 2 * b2_mode))
    return b_mode, s_bar, max(s2_bar - s_bar ** 2, 0.0)


def proper_time_stats(sys: RelClockSystem, tau0: float | np.ndarray) -> TimeOperatorStats:
    """Proper-time statistics at observer time tau0, a float or a 1D array,
    from the system's tau0-free coefficients."""
    t = np.asarray(tau0, dtype=float)
    return replace(sys.time_operator, tau0=float(t) if t.ndim == 0 else t)


# --- boosted evolution -------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EntangledClockState:
    """Momentum-clock entangled state: one internal state per external mode."""

    modes: np.ndarray
    coeffs: np.ndarray
    phases: np.ndarray
    internal_states: tuple
    tau0: float
    model: str

    def marginal_probabilities(self) -> np.ndarray:
        return np.abs(self.coeffs) ** 2

    def hand_density(self, thetas: np.ndarray) -> np.ndarray:
        """Reduced clock-angle density; external modes are orthogonal."""
        if self.model != "rotator":
            raise ClockModelMismatch("hand density exists only for rotator clocks")
        w = self.marginal_probabilities()
        rho = np.zeros_like(np.asarray(thetas, dtype=float))
        for wl, state in zip(w, self.internal_states):
            rho += wl * angular_density(state, thetas)
        return rho


def boosted_evolve(sys: RelClockSystem, tau0: float) -> EntangledClockState:
    """Evolve mode-by-mode: internal clock at slowed time B0(p) tau0, plus
    the external phase exp(-i E(p) tau0)."""
    if not isinstance(sys.external, ModeSuperposition):
        raise ConfigError("boosted evolution needs a discrete mode superposition")
    p = sys.external.points
    b0 = time_boost(p, sys.rest_mass)
    phases = np.exp(-1j * np.sqrt(sys.rest_mass ** 2 + p ** 2) * tau0)
    if isinstance(sys.clock, RotatorClockState):
        states = tuple(rotator_evolve_rest(sys.clock, bl * tau0) for bl in b0)
        model = "rotator"
    else:
        mu = sys.clock.mu_ab
        states = tuple(
            evolve_free(sys.clock_packet, lambda q: q * q / (2 * mu), bl * tau0)
            for bl in b0)
        model = "freeclock"
    return EntangledClockState(p.copy(), sys.external.coeffs.copy(), phases,
                               states, tau0, model)


# --- Monte-Carlo oracle ------------------------------------------------------

def _ensemble(sys: RelClockSystem, n: int, seed: int, stream: int
              ) -> tuple[np.ndarray, np.ndarray]:
    """(S, T): n ensemble draws from stream (seed, stream) of the proper-time
    observable's slope and offset, tau_2 = S tau0 + T, so one ensemble serves
    every tau0.

    Momenta, clock modes and clock offsets are drawn, in that order, from their
    marginal tables; this reproduces the operator mean always and the variance
    whenever the boost-angle cross moment g2 vanishes.  Angles are drawn on the
    peak-centred branch theta = phi + u of `recenter`.
    """
    rng = make_rng(seed, stream)
    ext, clock = sys.external, sys.clock
    if isinstance(ext, WavePacket):
        p = inverse_cdf_sample(ext.grid.points, ext.density(), n, rng)
    else:
        p = ext.points[choice_from_weights(ext.probabilities, n, rng)]
    if isinstance(clock, RotatorClockState):
        phi, centered = recenter(clock)
        us = np.linspace(-np.pi, np.pi, ANGLE_TABLE_POINTS)
        # index the mode masses at once: the drawn indices are not held beside B_2
        m2 = _rotator_mode_masses(sys.rest_mass, clock)[
            choice_from_weights(np.abs(clock.coefficients) ** 2, n, rng)]
        theta = phi + inverse_cdf_sample(us, angular_density(centered, us), n, rng)
        b = time_boost(p, m2)
        return b, theta / (2 * np.pi * clock.omega)
    pk_x = sys.clock_packet
    px = inverse_cdf_sample(pk_x.grid.points, pk_x.density(), n, rng)
    sig_x = np.sqrt(position_variance(pk_x))
    x0 = position_mean(pk_x)
    xs = np.linspace(x0 - 10 * sig_x, x0 + 10 * sig_x, 16384)
    x = inverse_cdf_sample(xs, np.abs(position_wavefunction(pk_x, xs)) ** 2, n, rng)
    b = time_boost(p, _freeclock_mass_operator(clock, px))
    return px * b / clock.p_bar, clock.mu_ab * x / clock.p_bar


def sample_proper_times(sys: RelClockSystem, tau0: float, n: int,
                        seed: int, stream: int = 0) -> np.ndarray:
    """n ensemble draws of the proper time at tau0 from stream (seed, stream)."""
    slope, offset = _ensemble(sys, n, seed, stream)
    return slope * tau0 + offset


@dataclass(frozen=True)
class EnsembleCheck:
    """Sample moments, each of the shape of tau0."""

    mean: float | np.ndarray
    variance: float | np.ndarray
    stderr_mean: float | np.ndarray
    stderr_variance: float | np.ndarray


def mc_variance_check(sys: RelClockSystem, tau0: float | np.ndarray, n: int, seed: int,
                      stream: int = 0) -> EnsembleCheck:
    """Ensemble moments at tau0, a float or an array, from one ensemble of n >= 2
    draws on stream (seed, stream) that serves every tau0: the entries are
    correlated, and each entry's marginal is exact.  Refuses states with a
    boost-angle cross moment g2 it would miss."""
    if not (isinstance(n, (int, np.integer)) and n >= 2):
        raise ConfigError(f"a sample variance needs an integer of at least 2 draws, got {n!r}")
    s = sys.time_operator
    if not abs(s.g2) <= 1e-6 * 2 * np.sqrt(s.d_b * s.d0):
        raise ConfigError(f"g2 = {s.g2:.6g} correlates boost and clock offset; "
                          "the Monte-Carlo ensemble cannot check this state")
    slope, offset = _ensemble(sys, n, seed, stream)
    taus = np.asarray(tau0, dtype=float)
    # reduce each tau0's draws before the next: one row is held beside S and T
    moments = np.reshape([sample_moments(slope * float(t) + offset) for t in taus.flat],
                         taus.shape + (4,))
    return EnsembleCheck(*(col[()] for col in np.moveaxis(moments, -1, 0)))


# --- two-body kinematics -----------------------------------------------------

@dataclass(frozen=True, eq=False)
class TwoBodyKinematics:
    """Per-mode boost of particle 2's momentum into frame 1's rest frame."""

    m1: float
    m2: float
    e2: np.ndarray
    p12: np.ndarray
    e_s: np.ndarray
    s12: np.ndarray
    q12: np.ndarray

    @classmethod
    def from_momenta(cls, m1: float, m2: float, p1: np.ndarray, p2: np.ndarray) -> "TwoBodyKinematics":
        p1 = np.asarray(p1, dtype=float)
        p2 = np.asarray(p2, dtype=float)
        if p1.shape[-1] != 3 or p2.shape[-1] != 3:
            raise ConfigError("momenta must be 3-vectors (collinear scenarios use (0,0,p_z))")
        p1, p2 = np.broadcast_arrays(p1, p2)
        e1 = np.sqrt(m1 ** 2 + np.sum(p1 ** 2, axis=-1))
        e2 = np.sqrt(m2 ** 2 + np.sum(p2 ** 2, axis=-1))
        norm1 = np.linalg.norm(p1, axis=-1, keepdims=True)
        zhat = np.zeros_like(p1)
        zhat[..., 2] = 1.0
        # at p1 = 0 the direction is degenerate but multiplied by e1 - m1 = 0
        n1 = np.where(norm1 > 0, p1 / np.where(norm1 > 0, norm1, 1.0), zhat)
        radial = np.sum(n1 * p2, axis=-1, keepdims=True)
        p12 = p2 + (radial * (e1 - m1)[..., None] * n1 - e2[..., None] * p1) / m1
        e12 = np.sqrt(m2 ** 2 + np.sum(p12 ** 2, axis=-1))
        e_s = m1 + e12
        s12 = np.sqrt((e1 + e2) ** 2 - np.sum((p1 + p2) ** 2, axis=-1))
        q12 = m1 * p12 / s12[..., None]
        return cls(m1, m2, e2, p12, e_s, s12, q12)

    @classmethod
    def from_z_momenta(cls, m1: float, m2: float, p1z: np.ndarray, p2z: np.ndarray) -> "TwoBodyKinematics":
        def lift(z):
            z = np.asarray(z, dtype=float)
            out = np.zeros(z.shape + (3,))
            out[..., 2] = z
            return out
        return cls.from_momenta(m1, m2, lift(p1z), lift(p2z))

    def invariant_residual(self) -> float:
        """max |E_s^2 - p12^2 - s12^2| over all modes."""
        res = self.e_s ** 2 - np.sum(self.p12 ** 2, axis=-1) - self.s12 ** 2
        return float(np.max(np.abs(res)))


def two_body_kinematics(m1: float, packet_f1: WavePacket, packet_g2: WavePacket) -> TwoBodyKinematics:
    """Kinematics per mode of the observed packet, with the frame packet's
    momentum taken at its expectation (delta packets are width-floored)."""
    p1z = expectation(packet_f1, lambda p: p).real
    p2z = packet_g2.grid.points
    return TwoBodyKinematics.from_z_momenta(m1, packet_g2.mass,
                                            np.full_like(p2z, p1z), p2z)


def evolve_in_frame(kin: TwoBodyKinematics, packet: WavePacket, tau1: float) -> WavePacket:
    """Evolution in frame 1: phase from H1 = m1 + sqrt(m2^2 + p12^2)."""
    m1, m2 = kin.m1, kin.m2
    return evolve_free(packet, lambda p: m1 + np.sqrt(m2 ** 2 + p ** 2), tau1)


def kg_square_check(kin: TwoBodyKinematics, packet: WavePacket) -> float:
    """Residual of (E_s - m1)^2 = m2^2 + |p12|^2 over the modes the packet populates."""
    lhs = (kin.e_s - kin.m1) ** 2
    rhs = kin.m2 ** 2 + np.sum(kin.p12 ** 2, axis=-1)
    populated = packet.density() > 1e-30
    return float(np.max(np.abs(lhs[populated] - rhs[populated])))


def pair_invariant_mass(m2: float, m3: float, p2z: np.ndarray, p3z: np.ndarray) -> np.ndarray:
    e2 = np.sqrt(m2 ** 2 + np.asarray(p2z, dtype=float) ** 2)
    e3 = np.sqrt(m3 ** 2 + np.asarray(p3z, dtype=float) ** 2)
    return np.sqrt((e2 + e3) ** 2 - (p2z + p3z) ** 2)


@dataclass(frozen=True, eq=False)
class ClusterHamiltonian:
    """Two-particle cluster seen from frame 1, reduced to (s23, p23) variables."""

    s23: np.ndarray
    p23: np.ndarray
    q23: np.ndarray
    energies: np.ndarray


def cluster_hamiltonian(m1: float, packet_g2: WavePacket, packet_g3: WavePacket) -> ClusterHamiltonian:
    """H1 = m1 + sqrt(s23^2 + p23^2) on the mode-pair mesh of the two packets."""
    m2, m3 = packet_g2.mass, packet_g3.mass
    p2 = packet_g2.grid.points[:, None]
    p3 = packet_g3.grid.points[None, :]
    e2 = np.sqrt(m2 ** 2 + p2 ** 2)
    e3 = np.sqrt(m3 ** 2 + p3 ** 2)
    s23 = pair_invariant_mass(m2, m3, p2, p3)
    p23 = p2 + p3
    q23 = (p2 * e3 - p3 * e2) / s23    # pair-internal momentum, collinear form
    energies = m1 + np.sqrt(s23 ** 2 + p23 ** 2)
    return ClusterHamiltonian(s23, p23, q23, energies)


# --- Newton-Wigner coordinate ------------------------------------------------

def _nw_apply(packet: WavePacket) -> np.ndarray:
    """x12 Phi with x12 = i d/dp - i p / (2 E^2)."""
    p = packet.grid.points
    e2 = packet.mass ** 2 + p ** 2
    return (1j * _derivative(packet.amplitudes, packet.grid.spacing)
            - 1j * p / (2.0 * e2) * packet.amplitudes)


def _covariant_weights(packet: WavePacket) -> np.ndarray:
    e = np.sqrt(packet.mass ** 2 + packet.grid.points ** 2)
    return packet.grid.quad_weights() / (2.0 * e)


def newton_wigner_x(packet: WavePacket) -> float:
    """<x12> under the covariant measure dp/2E, where the operator is Hermitian."""
    rough = derivative_roughness(packet)
    if rough > 0.01:
        raise RoughState(f"derivative stencils disagree by {rough:.2%}; refine the grid")
    w = _covariant_weights(packet)
    num = np.sum(w * np.conj(packet.amplitudes) * _nw_apply(packet))
    den = np.sum(w * packet.density())
    return float((num / den).real)


def nw_commutator_residual(packet: WavePacket) -> float:
    """Relative deviation of [x12, p12] from i, spectrally on the grid interior."""
    p = packet.grid.points
    h = packet.grid.spacing
    amp = packet.amplitudes
    comm = 1j * (_derivative(p * amp, h) - p * _derivative(amp, h))
    w = _covariant_weights(packet)
    inner = slice(2, -2)  # edges use lower-order one-sided stencils
    err = np.sum(w[inner] * np.abs(comm[inner] - 1j * amp[inner]) ** 2)
    norm = np.sum(w[inner] * np.abs(amp[inner]) ** 2)
    return float(np.sqrt(err / norm))


# --- frame-to-frame map ------------------------------------------------------

def frame_to_frame(packet: WavePacket, m1: float, m2: float,
                   tau1: float, tau2: float) -> WavePacket:
    """Map the state of body 2 in frame 1 to the state of body 1 in frame 2.

    U_21(tau1, tau2) = W_2(tau2) U_21(0,0) W_1^{-1}(tau1), with U_21(0,0) the
    momentum reflection-dilatation p12 -> -(m2/m1) p21 carrying the Jacobian
    amplitude factor sqrt(m2/m1).  Frames are synchronized at tau = 0.
    """
    if not (m1 > 0 and m2 > 0):
        raise NonPositiveWidth("frame masses must be positive")
    undone = evolve_free(packet, lambda p: m1 + np.sqrt(m2 ** 2 + p ** 2), -tau1)
    pts = -(m1 / m2) * packet.grid.points[::-1]
    amps = np.sqrt(m2 / m1) * undone.amplitudes[::-1]
    mapped = WavePacket(MomentumGrid(pts), amps, m1,
                        center=-(m1 / m2) * packet.center,
                        width=(m1 / m2) * packet.width)
    return evolve_free(mapped, lambda p: m2 + np.sqrt(m1 ** 2 + p ** 2), tau2)


# --- nonrelativistic limit ---------------------------------------------------

def _pair_momentum(m1: float, m2: float, q: np.ndarray) -> np.ndarray:
    """Frame-1 momentum of body 2 for back-to-back modes (+q, -q) in the lab."""
    return q * (np.sqrt(m1 ** 2 + q ** 2) + np.sqrt(m2 ** 2 + q ** 2)) / m1


def _pair_momentum_slope(m1: float, m2: float, q: np.ndarray) -> np.ndarray:
    e1 = np.sqrt(m1 ** 2 + q ** 2)
    e2 = np.sqrt(m2 ** 2 + q ** 2)
    return (e1 + e2 + q ** 2 / e1 + q ** 2 / e2) / m1


@dataclass(frozen=True)
class NonrelRow:
    beta: float
    h_ratio: float
    x_ratio: float


def nonrel_limit_report(m1: float, m2: float, betas, n: int = 2048) -> list[NonrelRow]:
    """Convergence of the relativistic pair toward the mass-rescaled
    nonrelativistic description: H-ratio -> k_m, coordinate ratio -> 1/k_m."""
    k_m = (m1 + m2) / m1
    mu = m1 * m2 / (m1 + m2)
    rows = []
    for beta in np.asarray(betas, dtype=float):
        if not 0 < beta <= 0.1:
            raise ConfigError(f"nonrelativistic limit needs 0 < beta <= 0.1, got {beta}")
        p = beta * m2
        h_ratio = (np.sqrt(m2 ** 2 + p ** 2) - m2) / (p ** 2 / (2 * mu * k_m ** 2))

        q_bar = m2 * beta / k_m
        sig_q = q_bar / 8.0
        delta = 0.5 / sig_q
        qs = np.linspace(q_bar - 7 * sig_q, q_bar + 7 * sig_q, 16384)
        ps = _pair_momentum(m1, m2, qs)
        grid = MomentumGrid.linspace(_pair_momentum(m1, m2, q_bar - 6 * sig_q),
                                     _pair_momentum(m1, m2, q_bar + 6 * sig_q), n)

        def shifted(sign: float) -> WavePacket:
            def amp(pvals):
                q = np.interp(pvals, ps, qs)
                slope = _pair_momentum_slope(m1, m2, q)
                return (np.exp(-((q - q_bar) ** 2) / (4 * sig_q ** 2))
                        * np.exp(-1j * sign * q * delta) / np.sqrt(slope))
            return from_function(grid, amp, mass=m2)

        x_plus = newton_wigner_x(shifted(+1.0))
        x_minus = newton_wigner_x(shifted(-1.0))
        rows.append(NonrelRow(float(beta), float(h_ratio),
                              float((x_plus - x_minus) / (2 * delta))))
    return rows


def rotator_readout_boosted(sys: RelClockSystem, tau0: float) -> ClockReadout:
    """Read the clock hand after boosted evolution of a single-mode system."""
    ent = boosted_evolve(sys, tau0)
    if ent.modes.size != 1:
        raise ConfigError("direct readout needs a single external mode")
    from .clocks import rotator_read
    return rotator_read(ent.internal_states[0])
