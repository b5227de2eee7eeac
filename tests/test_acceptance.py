"""Acceptance gate: one test per shipped criterion, one printed line each.

Each test times its own workload where the criterion carries a runtime bound
and prints PASS/FAIL with the measured numbers before asserting.
"""

import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from qrfsim import cli
from qrfsim.clocks import (
    FreeClockState,
    angle_moments,
    freeclock_packet,
    freeclock_read,
    rotator_evolve_rest,
    rotator_init,
    rotator_read,
)
from qrfsim.frames import (
    FrameSystem,
    adjacent_exchange,
    apply_transform,
    build_chart,
    compose_transform,
    gaussian_chart_state,
    measurement_reduce,
)
from qrfsim.packets import (
    MomentumGrid,
    ProductState,
    default_grid,
    evolve_free,
    from_function,
    make_gaussian,
    position_variance,
    variance,
)
from qrfsim.relkin import (
    ModeSuperposition,
    RelClockSystem,
    TwoBodyKinematics,
    boosted_evolve,
    frame_to_frame,
    kg_square_check,
    mc_variance_check,
    nonrel_limit_report,
    nw_commutator_residual,
    proper_time_stats,
    time_boost,
    two_body_kinematics,
)

SCENARIO_DIR = Path(cli.__file__).parent / "scenarios"


@pytest.fixture
def report(capsys):
    def _report(criterion, ok, detail):
        with capsys.disabled():
            print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
        assert ok, f"{criterion}: {detail}"
    return _report


def test_ac01_classical_boost_recovery(report):
    start = time.perf_counter()
    packet = make_gaussian(default_grid(0.75, 1e-3), 0.75, 1e-3, mass=1.0)
    system = RelClockSystem(1.0, packet, rotator_init(2, 1e-3))
    stats = proper_time_stats(system, 10.0)
    elapsed = time.perf_counter() - start
    err = abs(stats.tau_mean - 8.0)
    report("AC-01 classical boost recovery",
           err <= 1e-3 and elapsed < 1.0,
           f"tau_mean={stats.tau_mean:.6f}, |err|={err:.2e} (tol 1e-3), {elapsed:.2f}s")


def test_ac02_dispersion_law_vs_monte_carlo(report):
    start = time.perf_counter()
    packet = make_gaussian(default_grid(0.75, 0.1), 0.75, 0.1, mass=1.0)
    system = RelClockSystem(1.0, packet, rotator_init(4, 0.02))
    taus = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
    s = proper_time_stats(system, taus)
    chk = mc_variance_check(system, taus, 1_000_000, seed=20260819)
    worst_z = float(np.max(np.abs(chk.variance - s.d_tau) / chk.stderr_variance))
    fit = np.polyfit(taus, s.d_tau, 2)
    scale_g2 = max(abs(s.g2), np.sqrt(s.d_b * s.d0))
    fit_ok = (abs(fit[0] - s.d_b) <= 0.01 * s.d_b
              and abs(fit[1] - s.g2) <= 0.01 * scale_g2
              and abs(fit[2] - s.d0) <= 0.01 * s.d0)
    elapsed = time.perf_counter() - start
    report("AC-02 dispersion law vs Monte Carlo",
           worst_z < 3.0 and fit_ok and elapsed < 30.0,
           f"worst |z|={worst_z:.2f} (one 10^6-sample ensemble shared by 6 tau0), "
           f"fit d_b={fit[0]:.4e}/{s.d_b:.4e}, g2={fit[1]:.1e}, "
           f"d0={fit[2]:.4f}/{s.d0:.4f}, {elapsed:.1f}s")


def test_ac03_rotator_clock_fidelity(report):
    start = time.perf_counter()
    omega, j_z = 1.0, 8
    clock = rotator_init(j_z, omega)
    n = clock.n_states
    bound = np.pi / (2 * np.pi * omega * n)
    worst = 0.0
    for t in np.linspace(0.05, 0.95, 12) * clock.period:
        out = rotator_read(rotator_evolve_rest(clock, t))
        worst = max(worst, abs(out.mean - t))
    sizes, disps = [], []
    for jz in (4, 8, 16, 32):
        c = rotator_init(jz, omega)
        disps.append(rotator_read(c).dispersion)
        sizes.append(c.n_states)
    slope = np.polyfit(np.log(sizes), np.log(disps), 1)[0]
    elapsed = time.perf_counter() - start
    report("AC-03 rotator clock fidelity",
           worst <= bound and abs(slope + 2.0) <= 0.1 and elapsed < 5.0,
           f"worst |mean-t|={worst:.1e} (bound {bound:.4f}), "
           f"dispersion slope={slope:.3f} (want -2 +- 0.1), {elapsed:.2f}s")


def test_ac04_freeclock_unbiased_and_dispersion(report):
    clock = FreeClockState(0.5, 0.5, 0.2, 25.0)
    packet = freeclock_packet(clock)
    mu, pbar = clock.mu_ab, clock.p_bar
    bias = max(abs(freeclock_read(packet, clock, t).mean - t) / t
               for t in (1.0, 5.0, 10.0))
    d0 = freeclock_read(packet, clock, 0.0).dispersion
    d0_err = abs(d0 - (mu * 25.0 / pbar) ** 2) / (mu * 25.0 / pbar) ** 2
    # Heisenberg oracle: evolve the packet, measure the position spread
    t = 10.0
    evolved = evolve_free(packet, lambda p: p ** 2 / (2 * mu), t)
    oracle = (mu / pbar) ** 2 * position_variance(evolved)
    disp = freeclock_read(packet, clock, t).dispersion
    osc_err = abs(disp - oracle) / oracle
    vel_term = variance(packet, lambda p: p) * t ** 2 / pbar ** 2
    vel_err = abs((disp - d0) - vel_term) / vel_term
    ok = bias <= 5e-3 and d0_err <= 0.01 and osc_err <= 0.01 and vel_err <= 0.01
    report("AC-04 free-particle clock calibration", ok,
           f"max rel bias={bias:.2e} (tol 5e-3), D0 err={d0_err:.2e}, "
           f"Heisenberg-oracle err={osc_err:.2e}, velocity-term err={vel_err:.2e}")


def test_ac05_boosted_evolution_identity_and_peaks(report):
    omega, j_z, tau0 = 0.01, 12, 50.0
    modes = ModeSuperposition(np.array([0.0, 0.75]), np.array([1.0, 1.0]) / np.sqrt(2))
    system = RelClockSystem(1.0, modes, rotator_init(j_z, omega))
    ent = boosted_evolve(system, tau0)
    b0 = time_boost(modes.points, 1.0)
    m_vals = system.clock.m_values
    worst_coeff = 0.0
    for state, b in zip(ent.internal_states, b0):
        # independent phase computation, not the library evolution route
        want = system.clock.coefficients * np.exp(-2j * np.pi * omega * m_vals * b * tau0)
        worst_coeff = max(worst_coeff, float(np.max(np.abs(state.coefficients - want))))
    thetas = np.linspace(0, 2 * np.pi, 2881, endpoint=False)
    rho = ent.hand_density(thetas)
    local_max = (rho > np.roll(rho, 1)) & (rho > np.roll(rho, -1))
    peaks = np.sort(thetas[local_max & (rho > 0.5 * rho.max())])
    predicted = np.sort(2 * np.pi * omega * b0 * tau0 % (2 * np.pi))
    tol = np.pi / system.clock.n_states
    peaks_ok = (peaks.size == 2
                and np.all(np.abs(peaks - predicted) <= tol))
    report("AC-05 boosted evolution identity and entangled peaks",
           worst_coeff <= 1e-12 and peaks_ok,
           f"per-coefficient err={worst_coeff:.1e} (tol 1e-12), "
           f"peaks={np.round(peaks, 4).tolist()} vs predicted="
           f"{np.round(predicted, 4).tolist()} (tol {tol:.4f})")


def test_ac06_jacobi_algebra(report):
    rng = np.random.default_rng(2718)
    worst_pairing = 0.0
    for n in range(2, 6):
        for _ in range(20):
            system = FrameSystem.from_masses(rng.uniform(0.1, 10.0, size=n))
            for label in range(1, n + 1):
                res = np.max(np.abs(build_chart(system, label).pairing_matrix()
                                    - np.eye(n)))
                worst_pairing = max(worst_pairing, float(res))
    system = FrameSystem.from_masses(rng.uniform(0.5, 5.0, size=4))
    worst_comp = 0.0
    for j, k, l in itertools.product(range(1, 5), repeat=3):
        lhs = (compose_transform(system, k, l).matrix
               @ compose_transform(system, j, k).matrix)
        res = np.max(np.abs(lhs - compose_transform(system, j, l).matrix))
        worst_comp = max(worst_comp, float(res))
    two = FrameSystem.from_masses([1.0, 3.0])
    chart = build_chart(two, 1)
    op = adjacent_exchange(two, chart, 0)
    double = np.max(np.abs(op.matrix @ op.matrix - np.eye(2)))
    # norm preservation through an exchange of a three-body Gaussian state
    three = FrameSystem.from_masses([1.0, 2.0, 3.0])
    state = gaussian_chart_state(build_chart(three, 1), [0.3, -0.2, 0.1],
                                 [0.7, 1.1, 0.9])
    moved = apply_transform(state, compose_transform(three, 1, 2))
    axis = np.linspace(-8, 8, 96)
    mesh = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
    dv = (axis[1] - axis[0]) ** 3
    norm = float(np.sum(np.abs(moved.amplitude(mesh)) ** 2) * dv)
    ok = (worst_pairing <= 1e-12 and worst_comp <= 1e-12
          and double <= 1e-12 and abs(norm - 1.0) <= 1e-9)
    report("AC-06 Jacobi algebra", ok,
           f"pairing={worst_pairing:.1e}, composition={worst_comp:.1e}, "
           f"double exchange={double:.1e} (tol 1e-12), |norm-1|={abs(norm-1):.1e} (tol 1e-9)")


def test_ac07_kinematic_identities(report):
    rng = np.random.default_rng(31)
    p1 = rng.normal(scale=2.0, size=(10_000, 3))
    p2 = rng.normal(scale=2.0, size=(10_000, 3))
    inv = TwoBodyKinematics.from_momenta(1.3, 0.7, p1, p2).invariant_residual()
    f1 = make_gaussian(default_grid(0.2, 0.02), 0.2, 0.02, mass=1.3)
    g2 = make_gaussian(default_grid(0.5, 0.05), 0.5, 0.05, mass=0.7)
    kg = kg_square_check(two_body_kinematics(1.3, f1, g2), g2)
    comm = max(
        nw_commutator_residual(make_gaussian(default_grid(c, w), c, w, mass=m, x0=x0))
        for c, w, m, x0 in [(0.5, 0.05, 0.7, 0.0), (0.0, 0.2, 1.0, 1.5),
                            (-1.0, 0.1, 2.0, -0.4)])
    ok = inv <= 1e-10 and kg <= 1e-10 and comm <= 1e-6
    report("AC-07 kinematic identities", ok,
           f"invariant residual={inv:.1e} on 10^4 pairs (tol 1e-10), "
           f"kg residual={kg:.1e} (tol 1e-10), NW commutator={comm:.1e} (tol 1e-6)")


def test_ac08_nonrelativistic_limit(report):
    details = []
    ok = True
    for m1, m2 in ((1.0, 1.0), (1.0, 3.0), (10.0, 1.0)):
        rows = nonrel_limit_report(m1, m2, [0.08, 0.04])
        k_m = (m1 + m2) / m1
        rh = (k_m - rows[0].h_ratio) / (k_m - rows[1].h_ratio)
        rx = (rows[0].x_ratio - 1 / k_m) / (rows[1].x_ratio - 1 / k_m)
        ok = ok and abs(rh - 4.0) <= 0.5 and abs(rx - 4.0) <= 0.5
        details.append(f"({m1:g},{m2:g}): H {rh:.2f}, x {rx:.2f}")
    report("AC-08 nonrelativistic limit O(beta^2)", ok,
           "residual halving ratios (want 4 +- 0.5) " + "; ".join(details))


def test_ac09_frame_round_trip(report):
    rng = np.random.default_rng(17)
    worst = 0.0
    for tau1, tau2 in ((0.0, 0.0), (1.7, 2.9), (-3.1, 0.6)):
        center = rng.uniform(0.2, 0.8)
        width = rng.uniform(0.03, 0.08)
        a, b = rng.uniform(-2, 2, size=2)
        grid = default_grid(center, width)

        def amp(p):
            return (np.exp(-((p - center) ** 2) / (4 * width ** 2))
                    * (1 + 0.3 * np.cos(a * p)) * np.exp(1j * b * p))

        packet = from_function(grid, amp, mass=0.7)
        there = frame_to_frame(packet, 1.3, 0.7, tau1, tau2)
        back = frame_to_frame(there, 0.7, 1.3, tau2, tau1)
        worst = max(worst, float(np.max(np.abs(back.amplitudes - packet.amplitudes))))
    report("AC-09 frame-to-frame round trip",
           worst <= 1e-9,
           f"max amplitude error={worst:.1e} over 3 (tau1, tau2) pairs (tol 1e-9)")


def test_ac10_measurement_reduction(report):
    sigma_n, sigma_1 = 0.02, 1.0
    grids = [default_grid(0.0, 1 / (2 * sigma_n), 1024),
             default_grid(0.0, 1 / (2 * sigma_1), 1024)]
    state = ProductState((
        make_gaussian(grids[0], 0.0, 1 / (2 * sigma_n), mass=1.0),
        make_gaussian(grids[1], 0.0, 1 / (2 * sigma_1), mass=1.0)))
    rho = measurement_reduce(state, np.linspace(-12.0, 12.0, 5))
    trace_err = abs(rho.trace() - 1.0)
    widths = [w for w, kept in zip(rho.widths, rho.weights) if kept > 0.05]
    width_ok = all(abs(w - sigma_n) <= 0.2 * sigma_n for w in widths)
    report("AC-10 measurement reduction",
           trace_err <= 1e-9 and width_ok,
           f"|trace-1|={trace_err:.1e} (tol 1e-9), branch widths="
           f"{[float(round(w, 4)) for w in widths]} vs sigma_n={sigma_n} (tol 20%)")


def test_ac11_reproducibility_of_shipped_suite(report, tmp_path):
    start = time.perf_counter()
    outputs = {}
    for run in ("a", "b"):
        out = tmp_path / run
        for sc_path in sorted(SCENARIO_DIR.glob("*.json")):
            rc = cli.main(["run", "--scenario", str(sc_path), "--out", str(out)])
            assert rc == 0, sc_path
        outputs[run] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    elapsed = time.perf_counter() - start
    identical = outputs["a"] == outputs["b"]
    report("AC-11 reproducibility",
           identical and elapsed / 2 < 120.0,
           f"{len(outputs['a'])} files byte-identical across reruns={identical}, "
           f"suite time={elapsed / 2:.1f}s (bound 120s)")


def test_ac11_bytes_do_not_depend_on_blas_threads(report, tmp_path):
    # one interpreter per thread count, so the variables are set before numpy loads
    shipped = [str(p) for p in sorted(SCENARIO_DIR.glob("*.json"))]
    script = ("import sys; from qrfsim import cli; sys.exit(max(cli.main(["
              "'run', '--scenario', p, '--out', sys.argv[1]]) for p in sys.argv[2:]))")
    path = os.pathsep.join(filter(None, [str(SCENARIO_DIR.parents[1]),
                                         os.environ.get("PYTHONPATH")]))
    outputs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        out = tmp_path / threads
        subprocess.run([sys.executable, "-c", script, str(out), *shipped], env=env,
                       check=True, capture_output=True)
        outputs[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    identical = outputs["1"] == outputs["2"]
    report("AC-11 under BLAS threads", identical and len(outputs["1"]) == 2 * len(shipped),
           f"{len(outputs['1'])} files byte-identical under 1 and 2 BLAS threads={identical}")
