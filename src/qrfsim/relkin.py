"""Relativistic layer: proper-time statistics, boosted clock evolution,
two-body kinematics, Newton-Wigner coordinate, frame-to-frame maps.

Energies are square-root Klein-Gordon, E = sqrt(m^2 + p^2); boosts between
frames are realized as per-mode variable substitutions with Jacobian
amplitude factors, never as exponentiated generators.  The proper-time
observable of a moving clock decomposes as tau_2 = B_2 tau_0 + theta(0)/2piw
(rotator) or (p_x B_2 / pbar_x) tau_0 + mu x(0)/pbar_x (free clock), and all
reported statistics are quadrature moments of those operators, B_2's momentum
averages interpolated in the mass to 1e-13.  B_2 acts on the clock's modes through
the mass m_2 = m_2' + H_int; _clock_modes is each clock's mode table, read by the
mass guard, the closed forms and the Monte-Carlo draws.  RelClockSystem.time_operator
computes the tau_0-free coefficients once, for proper_time_stats and mc_variance_check,
which draws S's momenta and modes and the offset T itself from tables, and reduces its
ensemble block by block, in memory that does not grow with the number of draws.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .clocks import (
    FreeClockState,
    RotatorClockState,
    angular_density,
    branch_forms,
    freeclock_packet,
    freeclock_terms,
    lag_sum_bytes,
    recenter,
    rotator_evolve_rest,
)
from .errors import (
    ConfigError,
    NonPositiveWidth,
    NumericalError,
    RoughState,
)
from .packets import (
    DEFAULT_GRID_POINTS,
    MIN_HALF_WIDTH_SIGMAS,
    MomentumGrid,
    WavePacket,
    apply_x,
    derivative_roughness,
    evolve_free,
    expectation,
    from_function,
    position_mean,
    position_variance,
    position_wavefunction,
    wavefunction_bytes,
)
from .sampling import (
    INTERP_BLOCK,
    density_table,
    lookup,
    make_rng,
    sample_moments,
    weights_table,
)

#: Above this internal-to-rest energy ratio the factorized boost drifts.
ALPHA_I_WARN = 0.1

#: Fewest angles at which the rotator's Monte-Carlo sampler tabulates its density.
ANGLE_TABLE_POINTS = 16385

#: Positions at which the free clock's Monte-Carlo sampler tabulates |psi(x)|^2.
POSITION_TABLE_POINTS = 16384

#: Chebyshev nodes of the boost moments' first level, and the most any level may have.
BOOST_FIRST_NODES, BOOST_MAX_NODES = 9, 513

#: Masses per block of the B_2 mesh that _mode_averages holds at once.
BOOST_BLOCK_ROWS = 16

#: Relative size below which the upper half of the Chebyshev coefficients ends the doubling.
BOOST_TAIL = 1e-14


def time_boost(p: np.ndarray, m2: float | np.ndarray) -> np.ndarray:
    """B_2 = 1 / sqrt(1 + (p/m_2)^2), the operator-valued inverse Lorentz factor, in
    one buffer (a float for scalars): no m_2^2 to overflow, no temporaries.  Where
    (p/m_2)^2 overflows, B_2 < 1e-154 flushes to 0, as an underflow would."""
    m2 = np.asarray(m2, dtype=float)
    if not np.all(m2 > 0):
        raise NonPositiveWidth("time boost needs a positive mass")
    p = np.asarray(p, dtype=float)
    b = np.empty(np.broadcast(p, m2).shape)
    with np.errstate(over="ignore"):
        if b.ndim < 2:
            np.divide(p, m2, out=b)
        else:  # row by row: numpy buffers both operands of a divide broadcast over two axes
            for row, p_row, m_row in zip(b, *np.broadcast_arrays(p, m2)):
                np.divide(p_row, m_row, out=row)
        b *= b
    b += 1.0
    np.sqrt(b, out=b)
    np.reciprocal(b, out=b)
    return b[()]


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
        if not np.all(np.isfinite(pts)):
            raise ConfigError("mode momenta must be finite")
        if len(np.unique(pts)) != pts.size:
            raise ConfigError("mode momenta must be distinct")
        if not abs(np.sum(np.abs(c) ** 2) - 1.0) <= 1e-12:  # NaN fails too
            raise ConfigError("mode coefficients must be finite and normalized")

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
        if not 0 < self.rest_mass < np.inf:
            raise NonPositiveWidth("rest mass must be positive and finite")
        _external_weights(self.external)  # type check
        if isinstance(self.clock, FreeClockState):
            total = self.clock.m_a + self.clock.m_b
            if abs(total - self.rest_mass) > 1e-12 * total:
                raise ConfigError(
                    f"rest mass {self.rest_mass} must equal m_a + m_b = {total}")
            n = (self.external.grid.size if isinstance(self.external, WavePacket)
                 else DEFAULT_GRID_POINTS)
            object.__setattr__(self, "clock_packet", freeclock_packet(self.clock, n))
        elif not isinstance(self.clock, RotatorClockState):
            raise ConfigError(f"unknown clock model {type(self.clock).__name__}")
        # the boost moments need a positive mass on every mode, populated or not
        m_min = _clock_modes(self)[0].min()
        if m_min <= 0:
            raise ConfigError(f"mass operator loses positivity: it reaches {m_min}; "
                              "need 2*pi*omega*J_z < rest mass")
        if self.alpha_i > ALPHA_I_WARN:  # stacklevel 3: past the generated __init__ to its caller
            warnings.warn(
                f"internal energy is {self.alpha_i:.3f} of the rest mass; "
                "the factorized boosted evolution degrades beyond 0.1", stacklevel=3)

    @property
    def alpha_i(self) -> float:
        """|<H_int>| / m_2': the mean of H_int = m_2 - m_2' over the clock's mode table."""
        masses, weights, _ = _clock_modes(self)
        return abs(float(weights @ (masses - self.rest_mass))) / self.rest_mass

    @cached_property
    def time_operator(self) -> TimeOperatorStats:
        """The tau0-free coefficients of tau_2 = S tau0 + T, computed on first use
        and shared by proper_time_stats and mc_variance_check (tau0 = 0)."""
        clock = self.clock
        p, w_p = _external_weights(self.external)
        masses, weights, f = _clock_modes(self)
        b_mode, slope, d_b = _boost_moments(p, w_p, masses, weights, f)
        if isinstance(clock, RotatorClockState):
            # theta = phi + u on the peak-centred branch; phi is a constant, so the
            # boost-angle covariance is that of u in the recentred coefficients:
            # <{B - slope, u}> = 2 Re <c|u (B - slope)|c>, as u is Hermitian
            scale = 2 * np.pi * clock.omega
            phi, centered = recenter(clock)
            c = centered.coefficients
            u_bar, u2 = (z.real for z in branch_forms(c, c))
            d0 = max(u2 - u_bar ** 2, 0.0) / scale ** 2
            g2 = 2 * branch_forms(c, (b_mode - slope) * c)[0].real / scale
            return TimeOperatorStats(slope, (phi + u_bar) / scale, d_b, g2, d0, "rotator")
        b_bar = float(weights @ b_mode)
        offset, d0, cross, v = freeclock_terms(self.clock_packet, clock)
        return TimeOperatorStats(slope, offset, d_b, b_bar * cross, d0, "freeclock",
                                 v * b_bar ** 2)


def _clock_modes(sys: RelClockSystem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(masses, weights, f) of the clock's modes: the mass operator m_2' + H_int, the
    probability and the slope factor in S = f B_2.  A rotator's modes are its J_z
    levels (f = 1), a free clock's its packet's momentum nodes p_x (f = p_x / pbar_x)."""
    clock = sys.clock
    if isinstance(clock, RotatorClockState):
        masses = sys.rest_mass + 2 * np.pi * clock.omega * clock.m_values
        return masses, np.abs(clock.coefficients) ** 2, np.ones_like(masses)
    px, wx = _external_weights(sys.clock_packet)
    return sys.rest_mass + px ** 2 / (2 * clock.mu_ab), wx, px / clock.p_bar


def _chebyshev_sum(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k c[:, k] T_k(x), one row per coefficient set, by Clenshaw's recurrence:
    it holds a few arrays the size of x, never one T_k(x) per k."""
    b1 = b2 = np.zeros((c.shape[0], x.size))
    for ck in c[:, :0:-1].T:
        b1, b2 = ck[:, None] + 2 * x * b1 - b2, b1
    return c[:, :1] + x * b1 - b2


def _mode_averages(p, w_p, m_op) -> np.ndarray:
    """F = sum_p w_p B_2(p, m) and G = sum_p w_p B_2^2 at every mass of m_op (rows 0
    and 1), from B_2 at K masses.

    F and G are analytic in s = log m within |Im s| < pi/2 (B_2 is singular at
    m = +-i p), whatever the momenta, so they are interpolated in s at the nested
    Chebyshev points s_j = cos(pi j / N) of [log m_min, log m_max], j = 0..N.  N
    doubles, each level evaluating only its new points and taking its coefficients as
    a DCT-I by one real FFT of the even extension, until the upper half of both
    coefficient sets is below BOOST_TAIL of its largest (Trefethen, Approximation
    Theory and Approximation Practice, 2013, ch. 8).  B_2 is evaluated at the masses
    themselves instead, which is exact, when their span is zero or a level would
    have as many points as there are masses or more than BOOST_MAX_NODES.  Either way
    the mesh is held BOOST_BLOCK_ROWS masses at a time, so the working set does not
    grow with K.  Every mass is positive: RelClockSystem refuses a clock otherwise."""

    def at(m):  # F and G at the masses m
        out = np.empty((2, m.size))
        for i in range(0, m.size, BOOST_BLOCK_ROWS):
            rows = slice(i, i + BOOST_BLOCK_ROWS)
            b = time_boost(p[None, :], m[rows, None])
            out[0, rows] = b @ w_p
            out[1, rows] = np.square(b, out=b) @ w_p  # squared in place: one mesh
            del b  # so that the next block's mesh is not made beside it
        return out

    def scale(m):  # B_2 and B_2^2 at the rms momentum: F and G over them stay near 1
        b = time_boost(p_rms, m)
        return np.stack((b, b * b))

    def at_nodes(j, n):  # F and G over their scale at the Chebyshev points j of level n
        m = np.exp(lo + 0.5 * (hi - lo) * (1.0 + np.cos(np.pi * j / n)))
        return at(m) / scale(m)

    s = np.log(m_op)
    lo, hi = float(s.min()), float(s.max())
    p_rms = np.sqrt((w_p @ p ** 2) / w_p.sum())
    n, values = BOOST_FIRST_NODES - 1, None
    while lo < hi and n + 1 < m_op.size and n + 1 <= BOOST_MAX_NODES:
        if values is None:
            values = at_nodes(np.arange(n + 1), n)
        else:  # level n's even points are the last level's
            doubled = np.empty((2, n + 1))
            doubled[:, ::2] = values
            doubled[:, 1::2] = at_nodes(np.arange(1, n, 2), n)
            values = doubled
        c = np.fft.rfft(np.concatenate((values, values[:, -2:0:-1]), axis=1), axis=1).real / n
        c[:, [0, n]] /= 2
        if np.all(np.abs(c[:, n // 2 + 1:]).max(axis=1) <= BOOST_TAIL * np.abs(c).max(axis=1)):
            return _chebyshev_sum(c, (2 * s - lo - hi) / (hi - lo)) * scale(m_op)
        n *= 2
    return at(m_op)


def time_operator_bytes(points: int, modes: int, rotator: bool) -> tuple[int, int]:
    """Peak bytes of time_operator's boost moments, then a rotator's lag sums, each beside the
    momentum weights and five floats a mode (the mode table, a rotator's coefficients): B_2's
    mesh of BOOST_BLOCK_ROWS masses, or the dozen floats a mode of Clenshaw's sum; the lag
    sums beside the modes' boosts and two recentred states."""
    held = 8 * (points + 5 * modes)
    boost = 8 * max(min(BOOST_BLOCK_ROWS, modes) * points, 12 * modes)
    return held + boost, (held + 40 * modes + lag_sum_bytes(modes)) if rotator else 0


def _boost_moments(p, w_p, m_op, w_m, f) -> tuple[np.ndarray, float, float]:
    """B_2's per-mode average over the momenta, F(m) of _mode_averages, and the mean
    and variance of the slope S = f B_2 on the clock's mode table (m_op, w_m, f)."""
    b_mode, b2_mode = _mode_averages(p, w_p, m_op)
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
            raise ConfigError("hand density exists only for rotator clocks")
        w = self.marginal_probabilities()
        rho = np.zeros_like(np.asarray(thetas, dtype=float))
        for wl, state in zip(w, self.internal_states):
            rho += wl * angular_density(state, thetas)
        return rho


def entangled_bytes(modes: int, clock_modes: int) -> tuple[int, int]:
    """(held, evolving): the clock and boosted_evolve's state per external mode, 16 B a clock mode
    and 512 B of objects each (traced 0.4 KiB at 25 and 401 clock modes), and 8 KiB for the
    system's, the result's and the run's other objects (traced 4.5 KiB at 2 external modes of 25
    clock modes); beside them at most five floats a clock mode while one is evolved, or 6.5 KiB
    while the modes' boosts are formed, here or for a run's predicted peaks (time_boost's
    np.broadcast traces 6.2 KiB)."""
    return (16 * clock_modes + 512) * (modes + 1) + 8192, max(40 * clock_modes, 6656)


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

def _angle_table_points(n_states: int) -> int:  # lobes are 2 pi / N wide: 2^k + 1 >= 16 N
    return max(ANGLE_TABLE_POINTS, (1 << (16 * n_states - 2).bit_length()) + 1)


def ensemble_bytes(points: int, modes: int, draws: int, rotator: bool) -> tuple[int, int]:
    """Peak bytes of mc_variance_check's phases: building the tables of the momenta, the modes
    and the offsets (each a CDF and a guide of under twice its entries, 24 bytes an entry, a
    density's also its grid and slopes, 40), from the angle density (z, phi and rho, five
    floats an angle) or psi(x) on the table's grid; then the tables and a block of draws, 13
    floats a draw (four arrays, two slopes, three squares and the lookups' temporaries)."""
    table = _angle_table_points(modes) if rotator else POSITION_TABLE_POINTS
    law = 8 * table + (40 * table if rotator else wavefunction_bytes(points, table))
    held, offsets = 24 * (points + modes), 40 * table
    return held + max(law, 2 * offsets), held + offsets + 104 * min(draws, INTERP_BLOCK)


def _offset_law(sys: RelClockSystem) -> tuple[np.ndarray, np.ndarray]:
    """(ts, density): the law of the clock's offset T, tabulated on a grid of hand
    angles u on the peak-centred branch theta = phi + u of `recenter` (rotator) or of
    positions x (free clock), turned in place into T = theta / 2 pi omega or
    mu x / pbar_x once the density is taken; it descends when pbar_x < 0."""
    clock = sys.clock
    if isinstance(clock, RotatorClockState):
        phi, centered = recenter(clock)
        us = np.linspace(-np.pi, np.pi, _angle_table_points(clock.n_states))
        density = angular_density(centered, us)
        us += phi
        us /= 2 * np.pi * clock.omega
        return us, density
    pk_x = sys.clock_packet
    sig_x = np.sqrt(position_variance(pk_x))
    x0 = position_mean(pk_x)
    xs = np.linspace(x0 - 10 * sig_x, x0 + 10 * sig_x, POSITION_TABLE_POINTS)
    density = np.abs(position_wavefunction(pk_x, xs)) ** 2
    xs *= clock.mu_ab
    xs /= clock.p_bar
    return xs, density


def _ensemble_blocks(sys: RelClockSystem, n: int, seed: int):
    """Yield (S, T) blocks of n ensemble draws in draw order, INTERP_BLOCK at a time (the
    last block shorter), from the generator keyed by seed, of the proper-time
    observable's slope and offset, tau_2 = S tau0 + T, so one ensemble serves every
    tau0.  A block's arrays are reused by the next one.

    External momenta, clock modes and clock offsets are drawn, in that order, one
    uniform per draw: momenta and modes by weight from the quadrature nodes that the
    closed forms sum over, offsets T from their own tabulated law, `_offset_law`.  They
    read uniforms [0, n), [n, 2n) and [2n, 3n) of the one stream, as a whole ensemble
    drawn at once would, from generators that `make_rng` starts there.  This
    reproduces the operator mean always and the variance whenever the boost-angle
    cross moment g2 vanishes.
    """
    streams = [make_rng(seed, start) for start in (0, n, 2 * n)]
    p, w_p = _external_weights(sys.external)
    masses, weights, f = _clock_modes(sys)
    p_table, k_table = weights_table(w_p), weights_table(weights)
    t_table = density_table(*_offset_law(sys))
    size = min(n, INTERP_BLOCK)
    u, p_k, m_k = (np.empty(size) for _ in range(3))
    k = np.empty(size, dtype=np.intp)
    for start in range(0, n, INTERP_BLOCK):
        b = min(INTERP_BLOCK, n - start)
        u_b, k_b, p_b, m_b = u[:b], k[:b], p_k[:b], m_k[:b]
        # every index is in range, and a take into out= copies through a buffer unless clipped
        np.take(p, lookup(p_table, streams[0].random(out=u_b), k_b), out=p_b, mode="clip")
        np.take(masses, lookup(k_table, streams[1].random(out=u_b), k_b), out=m_b, mode="clip")
        slope = time_boost(p_b, m_b)
        slope *= np.take(f, k_b, out=u_b, mode="clip")
        # the offsets are drawn into u, which the next block draws into again
        yield slope, lookup(t_table, streams[2].random(out=u_b), u_b)


def sample_proper_times(sys: RelClockSystem, tau0: float, n: int, seed: int) -> np.ndarray:
    """n ensemble draws of the proper time at tau0 from the generator keyed by seed."""
    rows = [slope * tau0 + offset for slope, offset in _ensemble_blocks(sys, n, seed)]
    return np.concatenate(rows) if rows else np.empty(0)


@dataclass(frozen=True)
class EnsembleCheck:
    """Sample moments, each of the shape of tau0."""

    mean: float | np.ndarray
    variance: float | np.ndarray
    stderr_mean: float | np.ndarray
    stderr_variance: float | np.ndarray


def mc_variance_check(sys: RelClockSystem, tau0: float | np.ndarray, n: int,
                      seed: int) -> EnsembleCheck:
    """Ensemble moments at tau0, a float or an array, from one ensemble of n >= 2 draws
    keyed by seed, reduced once for every tau0: the entries are correlated, and each
    entry's marginal is exact.  Refuses non-finite coefficients and a g2 it would miss."""
    if not (isinstance(n, (int, np.integer)) and n >= 2):
        raise ConfigError(f"a sample variance needs an integer of at least 2 draws, got {n!r}")
    s = sys.time_operator
    if not np.isfinite([s.slope, s.offset, s.d_b, s.g2, s.d0, s.v or 0.0]).all():
        raise NumericalError(f"non-finite proper-time coefficients: slope {s.slope:.6g}, "
                             f"d_b {s.d_b:.6g}, g2 {s.g2:.6g}, d0 {s.d0:.6g}")
    if not abs(s.g2) <= 1e-6 * 2 * np.sqrt(s.d_b * s.d0):
        raise ConfigError(f"g2 = {s.g2:.6g} correlates boost and clock offset; "
                          "the Monte-Carlo ensemble cannot check this state")
    return EnsembleCheck(*sample_moments(_ensemble_blocks(sys, n, seed), tau0))


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
        if not (0 < m1 < np.inf and 0 < m2 < np.inf):
            raise NonPositiveWidth("body masses must be positive and finite")
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

def _nw_packet(packet: WavePacket) -> WavePacket:
    """Psi = Phi / sqrt(2E) renormalised, on which Newton-Wigner's x12 is x_hat."""
    return from_function(packet.grid, lambda p: packet.amplitudes / np.sqrt(
        2.0 * np.sqrt(packet.mass ** 2 + p ** 2)), packet.mass)


def newton_wigner_x(packet: WavePacket) -> float:
    """<x12> as position_mean of Psi = Phi / sqrt(2E) (Newton & Wigner 1949); on Phi
    under dp/2E it reads i d/dp - i p/(2E^2).  RoughState past 1% stencil roughness."""
    rough = derivative_roughness(packet)
    if rough > 0.01:
        raise RoughState(f"derivative stencils disagree by {rough:.2%}; refine the grid")
    return position_mean(_nw_packet(packet))


def nw_commutator_residual(packet: WavePacket) -> float:
    """Relative deviation of [x_hat, p] Psi from i Psi, Psi = Phi / sqrt(2E),
    under the plain quadrature weights on the grid interior."""
    p, h, amp = packet.grid.points, packet.grid.spacing, _nw_packet(packet).amplitudes
    comm = apply_x(p * amp, h) - p * apply_x(amp, h)
    w = packet.grid.quad_weights()
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
    mapped = WavePacket(MomentumGrid(pts), amps, m1)
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


def nonrel_betas(betas) -> np.ndarray:
    """The velocities as an array, each in (0, 0.1], where the limit is taken."""
    betas = np.asarray(betas, dtype=float)
    for beta in betas:
        if not 0 < beta <= 0.1:
            raise ConfigError(f"nonrelativistic limit needs 0 < beta <= 0.1, got {beta}")
    return betas


def nonrel_limit_report(m1: float, m2: float, betas, n: int = DEFAULT_GRID_POINTS) -> list[NonrelRow]:
    """Convergence of the relativistic pair toward the mass-rescaled
    nonrelativistic description: H-ratio -> k_m, coordinate ratio -> 1/k_m."""
    k_m = (m1 + m2) / m1
    mu = m1 * m2 / (m1 + m2)
    rows = []
    for beta in nonrel_betas(betas):
        p = beta * m2
        h_ratio = (np.sqrt(m2 ** 2 + p ** 2) - m2) / (p ** 2 / (2 * mu * k_m ** 2))

        q_bar = m2 * beta / k_m
        sig_q = q_bar / 8.0
        delta = 0.5 / sig_q
        grid = MomentumGrid.linspace(_pair_momentum(m1, m2, q_bar - MIN_HALF_WIDTH_SIGMAS * sig_q),
                                     _pair_momentum(m1, m2, q_bar + MIN_HALF_WIDTH_SIGMAS * sig_q), n)

        def shifted(sign: float) -> WavePacket:
            def amp(pvals):
                # inverts _pair_momentum: m1 p / q = E1(q) + E2(q) = sqrt(m1^2 + m2^2 + 2 m1 E2(p))
                e2 = np.sqrt(m2 ** 2 + pvals ** 2)
                q = pvals * m1 / np.sqrt(m1 ** 2 + m2 ** 2 + 2 * m1 * e2)
                slope = _pair_momentum_slope(m1, m2, q)
                return (np.exp(-((q - q_bar) ** 2) / (4 * sig_q ** 2))
                        * np.exp(-1j * sign * q * delta) / np.sqrt(slope))
            return from_function(grid, amp, mass=m2)

        x_plus = newton_wigner_x(shifted(+1.0))
        x_minus = newton_wigner_x(shifted(-1.0))
        rows.append(NonrelRow(float(beta), float(h_ratio),
                              float((x_plus - x_minus) / (2 * delta))))
    return rows
