"""Nonrelativistic quantum reference frames.

Jacobi canonical charts per frame body, the exchange operators connecting them
(dilatation * rotation * parity * dilatation, the rotation read off mass ratios), the
infinite-mass "absolute" frame limit, internal Hamiltonians, and the
measurement-reduction density matrix for a relative-position measurement.

Charts are plain linear maps over body indices: q = A r and pi = B p with
A B^T = 1 (canonical pairing), so A^-1 = B^T.  Chart states are Gaussians: a
unitary frame change pushes one through these maps by updating its linear
map, so any chain of pushes leaves one Gaussian.  A chart's arrays are read-only,
so each system shares its frame charts: build_chart returns the one a caller still
holds, and the system's weak cache keeps none that no caller holds.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import (
    BadLabel,
    ChartMismatch,
    ConfigError,
    EmptyBin,
    NonPositiveWidth,
)
from .packets import (ProductState, position_mean, position_variance, position_wavefunction,
                      uniform_step)
from .sampling import INTERP_BLOCK

#: Mass ratio used to realize the infinite-mass frame body numerically.
ARF_MASS_RATIO = 1e8

#: Points per body of the uniform psi(x) table measurement_reduce interpolates onto its mesh.
_FINE_POINTS = 4096


@dataclass(frozen=True)
class Body:
    mass: float
    role: str = "frame"  # "frame" bodies can carry a chart; "particle" cannot

    def __post_init__(self):
        if not np.isfinite(self.mass) or self.mass <= 0:
            raise NonPositiveWidth(f"body mass must be positive and finite, got {self.mass}")
        if self.role not in ("frame", "particle"):
            raise ConfigError(f"unknown body role {self.role!r}")


@dataclass(frozen=True)
class FrameSystem:
    """Ordered collection of bodies; labels are 1-based body indices.  masses is their
    masses in label order, built once, read-only.  charts maps frame labels to the frame
    charts build_chart made that some caller still holds: weak, so it holds no chart itself.
    Each body's share of the total mass, held in the charts' c.m. row, must be a normal float."""

    bodies: tuple[Body, ...]
    masses: np.ndarray = field(init=False, repr=False, compare=False)
    charts: weakref.WeakValueDictionary = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "bodies", tuple(self.bodies))
        # one body alone is legal only as input to the infinite-mass frame limit
        if len(self.bodies) < 1:
            raise ConfigError("a frame system needs at least one body")
        masses, tiny = np.array([b.mass for b in self.bodies], dtype=float), np.finfo(float).tiny
        shares = masses / masses.max()  # over the heaviest, so that their sum cannot overflow
        if shares.min() / shares.sum() < tiny:
            raise ConfigError("the lightest body's share of the total mass underflows: "
                              f"need min(masses) / sum(masses) >= {tiny:.3g}")
        masses.flags.writeable = False
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "charts", weakref.WeakValueDictionary())

    @classmethod
    def from_masses(cls, masses: Sequence[float], roles: Sequence[str] | None = None) -> "FrameSystem":
        if roles is None:
            roles = ["frame"] * len(masses)
        elif len(roles) != len(masses):
            raise ConfigError(f"{len(roles)} roles given for {len(masses)} masses")
        return cls(tuple(Body(m, r) for m, r in zip(masses, roles)))

    @property
    def size(self) -> int:
        return len(self.bodies)

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())


@dataclass(frozen=True, eq=False)
class JacobiChart:
    """Canonical chart for one body ordering.

    ordering holds 1-based body labels, frame body first.  coord_map rows are
    chart coordinates, columns original body indices; the last row is the
    center of mass.  reduced_masses[i] weights row i's kinetic term (the last
    entry is the total mass).  The three arrays are read-only, so a chart can be shared.
    """

    ordering: tuple[int, ...]
    coord_map: np.ndarray
    momentum_map: np.ndarray
    reduced_masses: np.ndarray

    def __post_init__(self):
        for array in (self.coord_map, self.momentum_map, self.reduced_masses):
            array.setflags(write=False)

    @property
    def size(self) -> int:
        return len(self.ordering)

    def pairing_matrix(self) -> np.ndarray:
        """{q_i, pi_j} assembled numerically; identity iff canonical."""
        return self.coord_map @ self.momentum_map.T


def _reduced_masses(m_ord: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Chart weights for masses in slot order, 1 / (1/m_i + 1/tail_i) then the total, and the
    tails: the mass beyond each slot but the last."""
    tails = np.cumsum(m_ord[::-1])[::-1][1:]
    mu = np.empty(m_ord.size)
    np.divide(1.0, np.add(1.0 / m_ord[:-1], 1.0 / tails, out=mu[:-1]), out=mu[:-1])
    mu[-1] = m_ord.sum()
    return mu, tails


def _built_for(chart: JacobiChart, mu: np.ndarray, masses: np.ndarray) -> bool:
    """Whether chart has reduced masses mu and body masses (c.m. row times total), to 1e-12."""
    own = chart.reduced_masses
    return bool(np.all(np.abs(own - mu) <= 1e-12 * own)
                and np.all(np.abs(chart.coord_map[-1] * own[-1] - masses) <= 1e-12 * masses))


def chart_for_ordering(system: FrameSystem, ordering: Sequence[int]) -> JacobiChart:
    """Jacobi chart for an explicit body ordering (1-based labels)."""
    n = system.size
    ordering = tuple(int(l) for l in ordering)
    if sorted(ordering) != list(range(1, n + 1)):
        raise BadLabel(f"ordering {ordering} is not a permutation of 1..{n}")
    m_ord = system.masses[[l - 1 for l in ordering]]
    mu, tails = _reduced_masses(m_ord)

    a_ord, b_ord = np.zeros((2, n, n))
    for i in range(n - 1):
        a_ord[i, i] = -1.0
        a_ord[i, i + 1:] = m_ord[i + 1:] / tails[i]
        b_ord[i, i] = -mu[i] / m_ord[i]
        b_ord[i, i + 1:] = mu[i] / tails[i]
    a_ord[n - 1, :] = m_ord / mu[-1]
    b_ord[n - 1, :] = 1.0
    cols = np.argsort(ordering)  # column k holds body k + 1
    return JacobiChart(ordering, a_ord[:, cols], b_ord[:, cols], mu)


def frame_ordering(n: int, label: int) -> tuple[int, ...]:
    """Body ordering of frame `label`: the frame first, the rest in index order."""
    return (label,) + tuple(j for j in range(1, n + 1) if j != label)


def _check_frame_label(system: FrameSystem, label: int) -> None:
    """BadLabel unless body `label` is in 1..N and can carry a frame."""
    if not (1 <= label <= system.size):
        raise BadLabel(f"frame label {label} outside 1..{system.size}")
    if system.bodies[label - 1].role != "frame":
        raise BadLabel(f"body {label} has role 'particle' and cannot carry a frame")


def build_chart(system: FrameSystem, frame_label: int) -> JacobiChart:
    """Canonical chart attached to the given frame body: the live one if a caller still holds
    it, else a new one, which the system then shares until its last holder drops it."""
    _check_frame_label(system, frame_label)
    chart = system.charts.get(frame_label)
    if chart is None:
        chart = chart_for_ordering(system, frame_ordering(system.size, frame_label))
        system.charts[frame_label] = chart
    return chart


def _exchange_cs(m1: float, m2: float, m3: float) -> tuple[float, float]:
    """(cos beta, sin beta) of the turn swapping masses m1, m2 with m3 beyond them ((1, -0) at
    the tail, m3 = 0), as roots of mass ratios: beta is never formed, and no product of masses
    under- or overflows while each body's share of the total mass is a normal float."""
    c = math.sqrt(m1 / (m1 + m3)) * math.sqrt(m2 / (m2 + m3))
    s = -math.sqrt(m3 / (m2 + m3)) * math.sqrt((m1 + m2 + m3) / (m1 + m3))
    return c, s


@dataclass(frozen=True, eq=False)
class ChartTransform:
    """Linear coordinate map q^target = matrix q^source between two charts of one system;
    both charts are canonical, so the map is theirs: matrix = A_target B_source^T."""

    source: JacobiChart
    target: JacobiChart

    @property
    def matrix(self) -> np.ndarray:
        return self.target.coord_map @ self.source.momentum_map.T


def adjacent_exchange(system: FrameSystem, chart: JacobiChart, position: int) -> ChartTransform:
    """Exchange the bodies at ordering slots (position, position+1).

    The map is dilatation * rotation(beta) * parity * dilatation on the two affected
    coordinates, every other row identity, with cos beta and sin beta read off mass ratios;
    at the tail no mass lies beyond the pair, so the block is the pure parity of the relative
    coordinate.  Only the pair's chart rows move: A rows by the block, B rows by its inverse
    transpose.
    """
    n = chart.size
    if not (0 <= position <= n - 2):
        raise BadLabel(f"swap position {position} outside 0..{n - 2}")
    if n != system.size:
        raise ChartMismatch(f"chart of {n} bodies given for a system of {system.size}")
    m_ord = system.masses[[l - 1 for l in chart.ordering]]
    if not _built_for(chart, _reduced_masses(m_ord)[0], system.masses):
        raise ChartMismatch("chart was built for other body masses than this system's")
    return _exchange(chart, position, m_ord)


def _exchange(chart: JacobiChart, position: int, m_ord: np.ndarray) -> ChartTransform:
    """adjacent_exchange, unchecked, of a chart built for the masses m_ord in slot order,
    which are swapped in place into the target chart's slot order."""
    mu, pair = chart.reduced_masses, slice(position, position + 2)
    c, s = _exchange_cs(*m_ord[pair].tolist(), float(m_ord[position + 2:].sum()))
    ordering = list(chart.ordering)
    ordering[pair], m_ord[pair] = ordering[pair][::-1], m_ord[pair][::-1]
    target_mu = _reduced_masses(m_ord)[0]
    pre, root = np.sqrt(mu[pair]), np.sqrt(target_mu[pair])
    turn = np.array([[-c, -s], [-s, c]])  # rotation(beta) times the parity diag(-1, 1)
    block = (1.0 / root)[:, None] * turn * pre
    a, b = chart.coord_map.copy(), chart.momentum_map.copy()
    # block^-T is the same turn with the two dilatations swapped
    a[pair], b[pair] = block @ a[pair], (root[:, None] * turn / pre) @ b[pair]
    return ChartTransform(chart, JacobiChart(tuple(ordering), a, b, target_mu))


def exchange_chain(system: FrameSystem, to_label: int) -> list[ChartTransform]:
    """Adjacent exchanges carrying frame 1's chart into frame `to_label`'s; the charts are
    the chain's own, so no exchange checks them again."""
    _check_frame_label(system, to_label)
    ops: list[ChartTransform] = []
    chart, m_ord = build_chart(system, 1), system.masses.copy()  # frame 1's slots: bodies 1..N
    for pos in range(to_label - 2, -1, -1):  # bubble the body to the front
        ops.append(_exchange(chart, pos, m_ord))
        chart = ops[-1].target
    return ops


def chart_bytes(bodies: int) -> int:
    """A chart's bytes: two n x n maps, 16 n of masses and ordering, 1 KiB with its transform."""
    return 16 * bodies * (bodies + 1) + 1024


def exchange_chain_bytes(bodies: int) -> int:
    """Bytes exchange_chain holds at most: n - 1 target charts and the one they start from."""
    return bodies * chart_bytes(bodies)


def compose_transform(system: FrameSystem, from_label: int, to_label: int) -> ChartTransform:
    """Coordinate map q^to = U q^from between frame charts: U = A_to B_from^T."""
    return ChartTransform(build_chart(system, from_label), build_chart(system, to_label))


def arf_limit_chart(system: FrameSystem, mass_ratio: float = ARF_MASS_RATIO) -> JacobiChart:
    """Chart of an appended near-infinite-mass frame body (label N+1)."""
    m_a = mass_ratio * float(system.masses.max())
    extended = FrameSystem(system.bodies + (Body(m_a, "frame"),))
    return build_chart(extended, system.size + 1)


@dataclass(frozen=True, eq=False)
class ChartGaussian:
    """norm * exp(-|q @ factor - center|^2) at chart points q (..., N), of shape q.shape[:-1].

    Evaluated INTERP_BLOCK points at a time, coordinate-major: each block's z = factor^T q^T
    is written into one (N, block) buffer reused for every block, so beyond the result the
    working set is 8 N min(INTERP_BLOCK, M) bytes for M points.  The bound holds for
    C-contiguous float input; input that is not float, or that reshape cannot view as
    (M, N), is first copied once, whole, by asarray or reshape."""

    factor: np.ndarray
    center: np.ndarray
    norm: float

    def __call__(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        n = self.center.size
        if q.shape[-1:] != self.center.shape:
            raise ConfigError(f"points need a last axis of N = {n}, got {q.shape}")
        pts = q.reshape(-1, n)
        r, buf = np.empty(len(pts)), np.empty(n * min(INTERP_BLOCK, len(pts)))
        for a in range(0, len(pts), INTERP_BLOCK):
            block = pts[a:a + INTERP_BLOCK]
            z = buf[:block.size].reshape(n, -1)  # flat prefix: a short last block stays dense
            np.matmul(self.factor.T, block.T, out=z)
            z -= self.center[:, None]
            np.einsum("ij,ij->j", z, z, out=r[a:a + INTERP_BLOCK])
        np.exp(np.negative(r, out=r), out=r)
        r *= self.norm
        return r.reshape(q.shape[:-1])


@dataclass(frozen=True, eq=False)
class ChartState:
    """Amplitude over chart coordinates: amplitude(Q) with Q.shape == (..., N)."""

    chart: JacobiChart
    amplitude: ChartGaussian


def gaussian_chart_state(chart: JacobiChart, means: Sequence[float],
                         widths: Sequence[float]) -> ChartState:
    """Product of normalized 1D Gaussians, one per chart coordinate."""
    mu = np.asarray(means, dtype=float)
    sig = np.asarray(widths, dtype=float)
    if mu.shape != (chart.size,) or sig.shape != (chart.size,):
        raise ConfigError("need one mean and one width per chart coordinate")
    if not np.all(np.isfinite(mu)):
        raise ConfigError("chart-state means must be finite")
    if not np.all((sig > 0) & np.isfinite(sig)):
        raise NonPositiveWidth("chart-state widths must be positive and finite")
    norm = np.prod((2.0 * np.pi * sig ** 2) ** -0.25)
    return ChartState(chart, ChartGaussian(np.diag(1.0 / (2.0 * sig)), mu / (2.0 * sig), norm))


def apply_transform(state: ChartState, op: ChartTransform) -> ChartState:
    """Push through q' = U q: the factor becomes U^-T factor = B_target A_source^T factor.
    The norm is kept: maps between one system's Jacobi charts have |det U| = 1 (each exchange
    turns between dilatations whose determinants cancel), so |det U|^(-1/2) is exactly 1.
    A state on another chart than op.source must match its ordering and masses."""
    own, source = state.chart, op.source
    if own is not source and (tuple(own.ordering) != tuple(source.ordering) or not _built_for(
            own, source.reduced_masses, source.coord_map[-1] * source.reduced_masses[-1])):
        raise ChartMismatch(f"state on ordering {own.ordering} fed to a transform from "
                            f"{source.ordering}, or on a chart of other body masses")
    g = state.amplitude
    factor = op.target.momentum_map @ (op.source.coord_map.T @ g.factor)
    return ChartState(op.target, ChartGaussian(factor, g.center, g.norm))


@dataclass(frozen=True, eq=False)
class InternalHamiltonian:
    """Kinetic quadratic forms in the original single-body momenta.

    internal_form excludes the center-of-mass term; cm_form is that term
    alone.  Their sum reproduces sum(p_j^2 / 2 m_j) identically.
    """

    chart: JacobiChart
    internal_form: np.ndarray
    cm_form: np.ndarray

    def internal_energy(self, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        return np.einsum("...i,ij,...j->...", p, self.internal_form, p)

    def mode_energies(self, pi_internal: np.ndarray) -> np.ndarray:
        """Energy from internal chart momenta directly: sum pi_i^2 / 2 mu_i."""
        pi = np.asarray(pi_internal, dtype=float)
        mu = self.chart.reduced_masses[:-1]
        return np.sum(pi ** 2 / (2.0 * mu), axis=-1)


def internal_hamiltonian(chart: JacobiChart) -> InternalHamiltonian:
    pairing = chart.pairing_matrix()
    if np.max(np.abs(pairing - np.eye(chart.size))) > 1e-10:
        raise ChartMismatch("chart is not canonical; refusing to build a Hamiltonian on it")
    b = chart.momentum_map
    mu = chart.reduced_masses
    internal = (b[:-1].T / (2.0 * mu[:-1])) @ b[:-1]
    cm = np.outer(b[-1], b[-1]) / (2.0 * mu[-1])
    return InternalHamiltonian(chart, internal, cm)


# --- measurement reduction -------------------------------------------------

@dataclass(frozen=True, eq=False)
class ReducedDensityMatrix:
    """Post-measurement state over a discretized relative coordinate.

    rho(delta_a, delta_b) is chi[a:b] chi[a:b]^dagger on each kept cell (a row range that no bin
    split), zero elsewhere; chi, scale times source's amplitude on the (delta_grid, cm_grid)
    mesh, is formed only when matrix is read, one cell at a time.  No cut changes row_moments,
    each delta row's probability and first two moments of x_n: trace, weights and widths (spread
    of x_n) per kept bin are read off them."""

    delta_grid: np.ndarray
    source: ProductState
    cm_grid: np.ndarray
    scale: float
    row_moments: np.ndarray
    bin_edges: np.ndarray  # these five are what a cut sets
    cells: tuple[tuple[int, int], ...]
    weights: np.ndarray
    widths: np.ndarray
    dropped_bins: tuple[int, ...]

    @property
    def delta_spacing(self) -> float:
        return uniform_step(self.delta_grid)

    @property
    def matrix(self) -> np.ndarray:
        rows = _amplitude_rows(self.source, self.delta_grid, self.cm_grid)
        out = np.zeros((self.delta_grid.size,) * 2, dtype=complex)
        for a, b in self.cells:
            chi = rows(a, b) * self.scale
            np.matmul(chi, chi.conj().T, out=out[a:b, a:b])
        return out

    def trace(self) -> float:
        return float(sum(self.row_moments[0, a:b].sum() for a, b in self.cells))


def _amplitude_rows(state: ProductState, delta: np.ndarray, xcm: np.ndarray):
    """rows(a, b) -> rows a:b of the unnormalised (delta, cm) amplitude, read off one psi table
    of _FINE_POINTS per body over the whole mesh; rounding is monotone, so its corners bound it."""
    pk_n, pk_1 = state.factors
    m_tot, tables = pk_n.mass + pk_1.mass, []
    # body positions on the (delta, cm) mesh; jacobian of (x_n, x_1) -> (delta, cm) is 1
    for packet, shift in ((pk_n, pk_1.mass / m_tot), (pk_1, -(pk_n.mass / m_tot))):
        corners = xcm[[0, -1, 0, -1]] + shift * delta[[0, 0, -1, -1]]
        fine = np.linspace(corners.min() - 1e-9, corners.max() + 1e-9, _FINE_POINTS)
        tables.append((shift, fine, position_wavefunction(packet, fine)))

    def rows(a: int, b: int) -> np.ndarray:
        chi_n, chi_1 = (np.interp(xcm + shift * delta[a:b, None], fine, psi)
                        for shift, fine, psi in tables)
        return np.multiply(chi_n, chi_1, out=chi_n)
    return rows


def _project(delta: np.ndarray, bins, row_moments: np.ndarray, cells):
    """Cut the cells (row ranges of the sorted mesh) by half-open bins (e_{j-1}, e_j], the
    first closed on the left, into the fields the cut sets.  Bin j is rows a:b; its weight and
    width are read off row_moments summed over its pieces of the cells, which it keeps."""
    edges = np.asarray(bins, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or not np.all(np.diff(edges) > 0):
        raise ConfigError("bins must be a strictly increasing edge array of length >= 2")
    if not (edges[0] <= delta[0] and delta[-1] <= edges[-1]):
        raise ConfigError(f"bins [{edges[0]}, {edges[-1]}] do not cover the "
                          f"relative-coordinate range [{delta[0]}, {delta[-1]}]")
    bounds = [0, *np.searchsorted(delta, edges[1:], side="right").tolist()]
    pieces = [[(max(a, c), min(b, d)) for c, d in cells if max(a, c) < min(b, d)]
              for a, b in zip(bounds[:-1], bounds[1:])]
    sums = np.array([sum((row_moments[:, a:b].sum(axis=1) for a, b in p), np.zeros(3))
                     for p in pieces])
    keep = sums[:, 0] > 1e-14
    if not keep.any():
        raise EmptyBin("every bin captured zero probability")
    m0, m1, m2 = sums[keep].T
    return dict(bin_edges=edges, cells=tuple(c for p, k in zip(pieces, keep) if k for c in p),
                weights=m0, widths=np.sqrt(np.maximum(m2 / m0 - (m1 / m0) ** 2, 0.0)),
                dropped_bins=tuple(int(j) for j in np.flatnonzero(~keep)))


def measurement_reduce(state: ProductState | ReducedDensityMatrix, bins,
                       mesh_points: int = 384) -> ReducedDensityMatrix:
    """Reduce a two-body product state over a binned relative-position measurement.

    The relative coordinate is delta = x_n - x_1 with the measured particle
    first and the frame body second.  Each bin's projector cuts the cells of the
    (delta, cm) amplitude (a product state's mesh is one cell) and erases cross-cell
    coherences; rho is read from the amplitude, which a re-reduction shares.  Bins that
    capture no probability are dropped and recorded, not errors, unless every bin is empty.
    chi is never formed on the whole mesh: |chi|^2 is read INTERP_BLOCK // mesh_points rows
    (at least one; 21 at the default mesh) at a time, each row reduced to its mass and the
    first two moments of x_n, so the working set is O(INTERP_BLOCK + mesh_points), not
    O(mesh_points^2).
    """
    if not (isinstance(mesh_points, (int, np.integer)) and mesh_points >= 2):
        raise ConfigError(f"mesh_points must be an integer of at least 2, got {mesh_points!r}")
    if isinstance(state, ReducedDensityMatrix):
        return replace(state, **_project(state.delta_grid, bins, state.row_moments, state.cells))
    if len(state.factors) != 2:
        raise ConfigError("measurement reduction expects exactly two bodies")
    pk_n, pk_1 = state.factors
    m_n, m_1 = pk_n.mass, pk_1.mass
    m_tot = m_n + m_1

    xbar_n, sig_n = position_mean(pk_n), np.sqrt(position_variance(pk_n))
    xbar_1, sig_1 = position_mean(pk_1), np.sqrt(position_variance(pk_1))
    sig_d = np.hypot(sig_n, sig_1)
    sig_x = np.hypot(m_n * sig_n, m_1 * sig_1) / m_tot
    xbar_d, xbar_cm = xbar_n - xbar_1, (m_n * xbar_n + m_1 * xbar_1) / m_tot
    delta, dd = np.linspace(xbar_d - 8 * sig_d, xbar_d + 8 * sig_d, mesh_points, retstep=True)
    xcm, dx = np.linspace(xbar_cm - 8 * sig_x, xbar_cm + 8 * sig_x, mesh_points, retstep=True)

    # per row of |chi|^2: its mass and the first two moments of x_n - xbar_n = u + v, centred on
    # the means so the variances lose no digits; chi is read one block of rows at a time
    rows, step = _amplitude_rows(state, delta, xcm), max(1, INTERP_BLOCK // mesh_points)
    u, v = xcm - xbar_cm, (m_1 / m_tot) * (delta - xbar_d)
    powers, sums = np.stack([np.ones(mesh_points), u, u * u], axis=1), np.empty((mesh_points, 3))
    for a in range(0, mesh_points, step):
        chi = rows(a, a + step)
        np.matmul(chi.real ** 2 + chi.imag ** 2, powers, out=sums[a:a + step])
    mass, s1, s2 = sums.T
    moments = np.stack([mass, s1 + v * mass, s2 + v * (2.0 * s1 + v * mass)])
    norm2 = mass.sum() * dd * dx
    if not norm2 > 0:
        raise EmptyBin("joint amplitude vanishes on the mesh")
    scale = float(np.sqrt(dx / norm2))  # rho's blocks are chi's Gram blocks; its trace is 1
    moments *= dd * dx / norm2
    return ReducedDensityMatrix(delta, state, xcm, scale, moments,
                                **_project(delta, bins, moments, ((0, mesh_points),)))
