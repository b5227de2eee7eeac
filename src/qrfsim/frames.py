"""Nonrelativistic quantum reference frames.

Jacobi canonical charts per frame body, the exchange operators connecting
them (dilatation * rotation * parity * dilatation), the infinite-mass
"absolute" frame limit, internal Hamiltonians, and the measurement-reduction
density matrix for a relative-position measurement.

Charts are plain linear maps over body indices: q = A r and pi = B p with
A B^T = 1 (canonical pairing).  Chart states are Gaussians: a unitary frame
change pushes one through these maps with the |det|^(-1/2) Jacobian factor by
updating its linear map and norm, so any chain of pushes leaves one Gaussian.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    BadLabel,
    ChartMismatch,
    ConfigError,
    EmptyBin,
    NonPositiveWidth,
)
from .packets import ProductState, position_mean, position_variance, position_wavefunction

#: Mass ratio used to realize the infinite-mass frame body numerically.
ARF_MASS_RATIO = 1e8

#: Uniform x points per body where measurement_reduce samples psi(x) to interpolate.
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
    """Ordered collection of bodies; labels are 1-based body indices."""

    bodies: tuple[Body, ...]

    def __post_init__(self):
        object.__setattr__(self, "bodies", tuple(self.bodies))
        # one body alone is legal only as input to the infinite-mass frame limit
        if len(self.bodies) < 1:
            raise ConfigError("a frame system needs at least one body")

    @classmethod
    def from_masses(cls, masses: Sequence[float], roles: Sequence[str] | None = None) -> "FrameSystem":
        roles = roles or ["frame"] * len(masses)
        return cls(tuple(Body(m, r) for m, r in zip(masses, roles)))

    @property
    def size(self) -> int:
        return len(self.bodies)

    @property
    def masses(self) -> np.ndarray:
        return np.array([b.mass for b in self.bodies])

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())


@dataclass(frozen=True, eq=False)
class JacobiChart:
    """Canonical chart for one body ordering.

    ordering holds 1-based body labels, frame body first.  coord_map rows are
    chart coordinates, columns original body indices; the last row is the
    center of mass.  reduced_masses[i] weights row i's kinetic term (the last
    entry is the total mass).
    """

    ordering: tuple[int, ...]
    coord_map: np.ndarray
    momentum_map: np.ndarray
    reduced_masses: np.ndarray

    @property
    def size(self) -> int:
        return len(self.ordering)

    def pairing_matrix(self) -> np.ndarray:
        """{q_i, pi_j} assembled numerically; identity iff canonical."""
        return self.coord_map @ self.momentum_map.T


def chart_for_ordering(system: FrameSystem, ordering: Sequence[int]) -> JacobiChart:
    """Jacobi chart for an explicit body ordering (1-based labels)."""
    n = system.size
    ordering = tuple(int(l) for l in ordering)
    if sorted(ordering) != list(range(1, n + 1)):
        raise BadLabel(f"ordering {ordering} is not a permutation of 1..{n}")
    masses = system.masses
    m_ord = masses[[l - 1 for l in ordering]]
    tails = np.concatenate((np.cumsum(m_ord[::-1])[::-1][1:], [0.0]))  # mass after position i
    total = float(m_ord.sum())

    a_ord = np.zeros((n, n))
    b_ord = np.zeros((n, n))
    mu = np.zeros(n)
    for i in range(n - 1):
        mu[i] = 1.0 / (1.0 / m_ord[i] + 1.0 / tails[i])
        a_ord[i, i] = -1.0
        a_ord[i, i + 1:] = m_ord[i + 1:] / tails[i]
        b_ord[i, i] = -mu[i] / m_ord[i]
        b_ord[i, i + 1:] = mu[i] / tails[i]
    mu[n - 1] = total
    a_ord[n - 1, :] = m_ord / total
    b_ord[n - 1, :] = 1.0

    cols = [l - 1 for l in ordering]
    a = np.zeros((n, n))
    b = np.zeros((n, n))
    a[:, cols] = a_ord
    b[:, cols] = b_ord
    return JacobiChart(ordering, a, b, mu)


def frame_ordering(n: int, label: int) -> tuple[int, ...]:
    """Body ordering of frame `label`: the frame first, the rest in index order."""
    return (label,) + tuple(j for j in range(1, n + 1) if j != label)


def build_chart(system: FrameSystem, frame_label: int) -> JacobiChart:
    """Canonical chart attached to the given frame body."""
    n = system.size
    if not (1 <= frame_label <= n):
        raise BadLabel(f"frame label {frame_label} outside 1..{n}")
    if system.bodies[frame_label - 1].role != "frame":
        raise BadLabel(f"body {frame_label} has role 'particle' and cannot carry a frame")
    return chart_for_ordering(system, frame_ordering(n, frame_label))


def exchange_angle(m1: float, m2: float, m3: float) -> float:
    """Rotation angle of the two-coordinate exchange block.

    m1, m2 are the swapped pair's masses; m3 is the total mass beyond the
    pair (0 when the pair sits at the tail, giving a pure parity).  Always
    in [-pi/2, 0].
    """
    if m1 <= 0 or m2 <= 0 or m3 < 0:
        raise NonPositiveWidth("exchange angle needs positive pair masses, nonnegative rest mass")
    c = np.sqrt(m2 * m1 / ((m3 + m2) * (m1 + m3)))
    return float(-np.arccos(np.clip(c, -1.0, 1.0)))


@dataclass(frozen=True, eq=False)
class ChartTransform:
    """Linear coordinate map q^target = matrix q^source between two charts of one system."""

    source: JacobiChart
    target: JacobiChart
    matrix: np.ndarray


def adjacent_exchange(system: FrameSystem, chart: JacobiChart, position: int) -> ChartTransform:
    """Exchange the bodies at ordering slots (position, position+1).

    The map is dilatation * rotation * parity * dilatation on the two affected
    coordinates; every other row is identity.
    """
    n = chart.size
    if not (0 <= position <= n - 2):
        raise BadLabel(f"swap position {position} outside 0..{n - 2}")
    new_ordering = list(chart.ordering)
    new_ordering[position], new_ordering[position + 1] = (
        new_ordering[position + 1], new_ordering[position])
    target = chart_for_ordering(system, new_ordering)

    pre = np.sqrt(chart.reduced_masses[position:position + 2])
    post = 1.0 / np.sqrt(target.reduced_masses[position:position + 2])
    full = np.eye(n)
    if position == n - 2:
        # tail pair: the single relative coordinate just flips sign
        full[position, position] = -post[0] * pre[0]  # == -1, mu is pair-symmetric
    else:
        m_ord = system.masses[[l - 1 for l in chart.ordering]]
        beta = exchange_angle(m_ord[position], m_ord[position + 1],
                              float(m_ord[position + 2:].sum()))
        rot = np.array([[np.cos(beta), -np.sin(beta)], [np.sin(beta), np.cos(beta)]])
        block = np.diag(post) @ rot @ np.diag([-1.0, 1.0]) @ np.diag(pre)
        full[position:position + 2, position:position + 2] = block
    return ChartTransform(chart, target, full)


def exchange_chain(system: FrameSystem, to_label: int) -> list[ChartTransform]:
    """Adjacent exchanges carrying frame 1's chart into frame `to_label`'s."""
    n = system.size
    if not (1 <= to_label <= n):
        raise BadLabel(f"frame label {to_label} outside 1..{n}")
    ops: list[ChartTransform] = []
    chart = build_chart(system, 1)
    for pos in range(to_label - 2, -1, -1):  # bubble the body to the front
        op = adjacent_exchange(system, chart, pos)
        ops.append(op)
        chart = op.target
    return ops


def compose_transform(system: FrameSystem, from_label: int, to_label: int) -> ChartTransform:
    """Coordinate map q^to = U q^from between frame charts."""
    src = build_chart(system, from_label)
    dst = build_chart(system, to_label)
    u = dst.coord_map @ np.linalg.inv(src.coord_map)
    return ChartTransform(src, dst, u)


def arf_limit_chart(system: FrameSystem, mass_ratio: float = ARF_MASS_RATIO) -> JacobiChart:
    """Chart of an appended near-infinite-mass frame body (label N+1)."""
    m_a = mass_ratio * float(system.masses.max())
    extended = FrameSystem(system.bodies + (Body(m_a, "frame"),))
    return build_chart(extended, system.size + 1)


@dataclass(frozen=True, eq=False)
class ChartGaussian:
    """Amplitude norm * exp(-|q @ factor - center|^2) over chart coordinates q."""

    factor: np.ndarray
    center: np.ndarray
    norm: float

    def __call__(self, q: np.ndarray) -> np.ndarray:
        z = np.asarray(q, dtype=float) @ self.factor  # the one (..., N) temporary
        z -= self.center
        return self.norm * np.exp(-np.einsum("...i,...i->...", z, z))


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
    """Push through q' = U q: the factor becomes U^-T factor, the norm gains |det U|^(-1/2)."""
    if state.chart is not op.source and tuple(state.chart.ordering) != tuple(op.source.ordering):
        raise ChartMismatch(
            f"state on ordering {state.chart.ordering} fed to a transform from {op.source.ordering}")
    g = state.amplitude
    return ChartState(op.target, ChartGaussian(np.linalg.inv(op.matrix).T @ g.factor, g.center,
                                               g.norm * abs(np.linalg.det(op.matrix)) ** -0.5))


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


def internal_hamiltonian(system: FrameSystem, chart: JacobiChart) -> InternalHamiltonian:
    pairing = chart.pairing_matrix()
    if np.max(np.abs(pairing - np.eye(chart.size))) > 1e-10:
        raise ChartMismatch("chart is not canonical; refusing to build a Hamiltonian on it")
    b = chart.momentum_map
    mu = chart.reduced_masses
    internal = sum(np.outer(b[i], b[i]) / (2.0 * mu[i]) for i in range(chart.size - 1))
    cm = np.outer(b[-1], b[-1]) / (2.0 * mu[-1])
    return InternalHamiltonian(chart, np.asarray(internal), cm)


# --- measurement reduction -------------------------------------------------

@dataclass(frozen=True, eq=False)
class ReducedDensityMatrix:
    """Post-measurement state over a discretized relative coordinate.

    matrix is a density kernel rho(delta_a, delta_b); the trace carries the
    grid measure, trace = sum(diag) * delta_spacing.  weights are the kept
    bins' branch probabilities.
    """

    delta_grid: np.ndarray
    bin_edges: np.ndarray
    weights: np.ndarray
    matrix: np.ndarray
    widths: np.ndarray
    dropped_bins: tuple[int, ...]

    @property
    def delta_spacing(self) -> float:
        return float(self.delta_grid[1] - self.delta_grid[0])

    def trace(self) -> float:
        return float(np.sum(np.diag(self.matrix)).real * self.delta_spacing)


def _project(kernel: np.ndarray, delta: np.ndarray, bins):
    """Keep the kernel's diagonal blocks of half-open bins (e_{j-1}, e_j], the
    first closed on the left: (edges, matrix, masks, weights, dropped), with the
    kept bins' probabilities read off the projected diagonal."""
    edges = np.asarray(bins, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or not np.all(np.diff(edges) > 0):
        raise ConfigError("bins must be a strictly increasing edge array of length >= 2")
    if not (edges[0] <= delta[0] and delta[-1] <= edges[-1]):
        raise ConfigError(f"bins [{edges[0]}, {edges[-1]}] do not cover the "
                          f"relative-coordinate range [{delta[0]}, {delta[-1]}]")
    idx = np.searchsorted(edges, delta, side="left") - 1
    idx[delta <= edges[0]] = 0
    masks = [idx == j for j in range(len(edges) - 1)]
    matrix = np.where(idx[:, None] == idx[None, :], kernel, 0.0)
    diag = np.diag(matrix).real * (delta[1] - delta[0])
    weights = np.array([diag[m].sum() for m in masks])
    keep = weights > 1e-14
    if not keep.any():
        raise EmptyBin("every bin captured zero probability")
    return (edges, matrix, tuple(m for m, k in zip(masks, keep) if k), weights[keep],
            tuple(int(j) for j in np.flatnonzero(~keep)))


def measurement_reduce(state: ProductState | ReducedDensityMatrix, bins,
                       mesh_points: int = 384) -> ReducedDensityMatrix:
    """Reduce a two-body product state over a binned relative-position measurement.

    The relative coordinate is delta = x_n - x_1 with the measured particle
    first and the frame body second.  Each bin's projector keeps its block of
    the (delta, cm) amplitude; cross-bin coherences are erased.  Bins that
    capture no probability are dropped and recorded, not errors, unless every
    bin is empty.
    """
    if not (isinstance(mesh_points, (int, np.integer)) and mesh_points >= 2):
        raise ConfigError(f"mesh_points must be an integer of at least 2, got {mesh_points!r}")
    if isinstance(state, ReducedDensityMatrix):
        edges, matrix, _, weights, dropped = _project(state.matrix, state.delta_grid, bins)
        same = edges.size == state.bin_edges.size and np.allclose(edges, state.bin_edges)
        return ReducedDensityMatrix(state.delta_grid, edges, weights, matrix,
                                    state.widths if same else np.array([]), dropped)
    if len(state.factors) != 2:
        raise ConfigError("measurement reduction expects exactly two bodies")
    pk_n, pk_1 = state.factors
    m_n, m_1 = pk_n.mass, pk_1.mass
    m_tot = m_n + m_1

    xbar_n, sig_n = position_mean(pk_n), np.sqrt(position_variance(pk_n))
    xbar_1, sig_1 = position_mean(pk_1), np.sqrt(position_variance(pk_1))
    sig_d = np.hypot(sig_n, sig_1)
    sig_x = np.hypot(m_n * sig_n, m_1 * sig_1) / m_tot

    delta = np.linspace(xbar_n - xbar_1 - 8 * sig_d, xbar_n - xbar_1 + 8 * sig_d, mesh_points)
    xbar_cm = (m_n * xbar_n + m_1 * xbar_1) / m_tot
    xcm = np.linspace(xbar_cm - 8 * sig_x, xbar_cm + 8 * sig_x, mesh_points)
    dd = delta[1] - delta[0]
    dx = xcm[1] - xcm[0]

    # body positions on the (delta, cm) mesh; jacobian of (x_n, x_1) -> (delta, cm) is 1
    xn_mesh = xcm[None, :] + (m_1 / m_tot) * delta[:, None]
    x1_mesh = xcm[None, :] - (m_n / m_tot) * delta[:, None]

    def on_mesh(packet, mesh):
        fine = np.linspace(mesh.min() - 1e-9, mesh.max() + 1e-9, _FINE_POINTS)
        psi = position_wavefunction(packet, fine)
        return (np.interp(mesh, fine, psi.real) + 1j * np.interp(mesh, fine, psi.imag))

    chi = on_mesh(pk_n, xn_mesh) * on_mesh(pk_1, x1_mesh)
    norm2 = np.sum(np.abs(chi) ** 2) * dd * dx
    if norm2 <= 0:
        raise EmptyBin("joint amplitude vanishes on the mesh")
    chi = chi / np.sqrt(norm2)  # trace is now exactly 1 on the mesh

    gram = (chi @ chi.conj().T) * dx  # rho(delta_a, delta_b) before projection
    edges, matrix, masks, weights, dropped = _project(gram, delta, bins)
    prob = np.abs(chi) ** 2 * dd * dx
    widths = []
    for m, w in zip(masks, weights):
        pj = prob[m, :] / w
        mean = np.sum(pj * xn_mesh[m, :])
        widths.append(np.sqrt(max(np.sum(pj * (xn_mesh[m, :] - mean) ** 2), 0.0)))
    return ReducedDensityMatrix(delta, edges, weights, matrix, np.array(widths), dropped)
