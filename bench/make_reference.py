#!/usr/bin/env python3
"""Write ``reference.json``: the outputs that define "correct" for the benchmark.

Run from the repository root, only at a commit whose outputs are trusted
(a perf change must be checked against the old reference, not a new one):

    python3 bench/make_reference.py

It records, with the commit it ran at:

- suite: every shipped scenario's CSV at benchmark seeds 0..SUITE_SEEDS-1;
  tables without Monte-Carlo columns are seed-independent and stored once;
- tau-scan: the tau0-independent coefficients of every combination the
  seed can pick (a_x x p_bar x packet centre x width for the free clock,
  J_z x omega x centre x width for the rotator);
- reduce: weights, widths and dropped bins of every pool configuration.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import tempfile
from pathlib import Path

import run

SUITE_SEEDS = 20


def suite_reference(workdir: Path) -> dict:
    import workloads

    by_seed = {}
    for seed in range(SUITE_SEEDS):
        wl = workloads.Suite(run.ROOT, seed, workdir / str(seed), smoke=False)
        bad = [op for op in wl.run_pass().ops if not op.ok]
        if bad:
            raise RuntimeError(f"seed {seed}: {bad}")
        # bytes, not read_text: universal newlines would drop the CSV's CRLF
        by_seed[seed] = {name: (wl.out / f"{name}.csv").read_bytes().decode("utf-8")
                         for name, _ in wl.scenarios}
    static, seeded = {}, {str(s): {} for s in by_seed}
    for name, text in by_seed[0].items():
        if all(tables[name] == text for tables in by_seed.values()):
            static[name] = text
        else:
            for seed, tables in by_seed.items():
                seeded[str(seed)][name] = tables[name]
    return {"static": static, "seeded": seeded}


def tau_scan_reference() -> dict:
    import workloads
    from qrfsim import FreeClockState, RelClockSystem, default_grid, make_gaussian, rotator_init
    from qrfsim.relkin import proper_time_stats

    def coefficients(system, free: bool) -> list[float]:
        s0, s1 = proper_time_stats(system, 0.0), proper_time_stats(system, 1.0)
        out = [s1.tau_mean - s0.tau_mean, s0.tau_mean, s0.d_b, s0.g2, s0.d0]
        return out + [s1.d_x - s0.d_x] if free else out

    def packet(center, width, mass):
        return make_gaussian(default_grid(center, width, 2048), center, width, mass=mass)

    freeclock, rotator = {}, {}
    for a_x, p_bar, center, width in itertools.product(
            workloads.A_X_POOL, workloads.P_BARS, workloads.CENTER_POOL, workloads.WIDTH_POOL):
        system = RelClockSystem(1.0, packet(center, width, 1.0),
                                FreeClockState(0.5, 0.5, p_bar, a_x))
        key = workloads.freeclock_key({"a_x": a_x, "p_bar": p_bar,
                                       "packet_center": center, "packet_width": width})
        freeclock[key] = coefficients(system, True)
    for j_z, omega, center, width in itertools.product(
            workloads.J_ZS, workloads.OMEGAS, workloads.CENTER_POOL, workloads.WIDTH_POOL):
        system = RelClockSystem(1.0, packet(center, width, 1.0), rotator_init(j_z, omega))
        key = workloads.rotator_key({"j_z": j_z, "omega": omega,
                                     "packet_center": center, "packet_width": width})
        rotator[key] = coefficients(system, False)
    return {"freeclock": freeclock, "rotator": rotator}


def reduce_reference() -> dict:
    import workloads

    pool = workloads.reduce_pool()
    results = []
    for cfg in pool:
        rho, fine = workloads.reduce_op(*workloads.reduce_inputs(cfg))
        results.append({
            "coarse_weights": rho.weights.tolist(),
            "coarse_widths": rho.widths.tolist(),
            "coarse_dropped": list(rho.dropped_bins),
            "fine_weights": fine.weights.tolist(),
            "fine_dropped": list(fine.dropped_bins),
        })
    return {"pool": pool, "results": results}


def main() -> None:
    run.bootstrap()
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True,
                            text=True, check=True).stdout.strip()
    run.WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="reference-", dir=run.WORK))
    try:
        reference = {
            "commit": commit,
            "suite": suite_reference(workdir),
            "tau-scan": tau_scan_reference(),
            "reduce": reduce_reference(),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = run.BENCH / "reference.json"
    path.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
