"""Scenario-driven batch runner.

Scenario files are flat JSON objects; results land as RFC-4180 CSV plus a
JSON provenance sidecar (scenario hash, seed, grid resolution, code version).
Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import itertools
import json
import math
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from .clocks import FreeClockState, rotator_init
from .errors import ConfigError, NumericalError, ScenarioParseError
from .frames import FrameSystem, build_chart, chart_bytes, exchange_chain, exchange_chain_bytes
from .packets import (DEFAULT_GRID_POINTS, MomentumGrid, WavePacket, default_grid, expectation,
                      make_gaussian, packet_bytes)
from .relkin import (
    ModeSuperposition,
    RelClockSystem,
    boosted_evolve,
    ensemble_bytes,
    entangled_bytes,
    frame_to_frame,
    mc_variance_check,
    nonrel_betas,
    nonrel_limit_report,
    proper_time_stats,
    time_boost,
    time_operator_bytes,
)

_DEFAULTS = {"grid_points": DEFAULT_GRID_POINTS, "mc_samples": 0, "seed": 0, "histogram_bins": 720}

#: Largest working set, in bytes, one scenario may need (see README).
MAX_WORKING_SET = 2 * 2 ** 30

#: Most Monte-Carlo draws a scenario may take: 2^26, where the ensemble's 32 bytes
#: per draw met MAX_WORKING_SET before it was drawn and reduced block by block.
MAX_MC_SAMPLES = 2 ** 26


# --- scenario loading and validation ------------------------------------------

def load_scenario(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
    except json.JSONDecodeError as e:
        raise ScenarioParseError(e.msg, line=e.lineno, column=e.colno) from e
    except (ValueError, RecursionError) as e:  # not UTF-8, too deep, an over-long integer
        raise ScenarioParseError(f"cannot parse scenario file: {e}") from e
    except OSError as e:
        raise ScenarioParseError(f"cannot read scenario file: {e}") from e
    if not isinstance(raw, dict):
        raise ScenarioParseError("scenario file must contain a JSON object")
    sc = dict(raw)
    sc.setdefault("name", os.path.splitext(os.path.basename(path))[0])
    for key, value in _DEFAULTS.items():
        sc.setdefault(key, value)
    return sc


@dataclass(frozen=True)
class Diagnostic:
    field: str
    error: str
    message: str

    def __str__(self):
        return f"{self.field}: {self.error}: {self.message}"


@dataclass(frozen=True)
class Field:
    """One scenario key: its type and at most one bound.

    type is "number", "integer" (an integral number) or "list" (a nonempty
    list of numbers); every number must be finite.  bound is a key of
    _BOUNDS, applied to every list entry, or a number, the minimum.
    """

    name: str
    type: str = "number"
    bound: str | float | None = None
    required: bool = True


# bound -> (test, error code, what a value must be)
_BOUNDS = {
    "positive": (lambda x: x > 0, "NonPositiveWidth", "> 0"),
    "nonzero": (lambda x: x != 0, "ZeroMeanMomentum", "nonzero"),
    "nonnegative": (lambda x: x >= 0, "ConfigError", ">= 0"),
    # 32 bits, as np.random.seed and most seeders take; the Philox key itself takes 64
    "seed": (lambda x: 0 <= x < 2 ** 32, "ConfigError", "in [0, 2**32)"),
    # a sample variance needs two draws
    "mc_samples": (lambda x: x == 0 or 2 <= x <= MAX_MC_SAMPLES, "ConfigError",
                   "0 (off) or in [2, 2**26]"),
}


@dataclass(frozen=True)
class Kind:
    """What a scenario of one kind contains, and how it runs.

    estimate maps the scenario to the bytes its runner holds at its peak, keyed by the
    field that sizes them.  builds maps fields to a call the runner makes, blamed on the
    first of them the scenario gives; each rule that relates several fields is raised
    there, by the call that needs it.  A build repeats those before it, so validate_scenario
    stops at the first that fails.  runner and the builds take the scenario with its
    integer fields as int; runner returns a ResultTable.
    """

    fields: tuple[Field, ...]
    estimate: object
    builds: dict
    runner: object


def _finite_number(v) -> bool:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    return isinstance(v, int) or bool(np.isfinite(v))


def _check_field(spec: Field, v) -> Diagnostic | None:
    def flag(error, message):
        return Diagnostic(spec.name, error, message)

    if v is None:
        return flag("ConfigError", "required field is missing") if spec.required else None
    if spec.type == "list":
        if not (isinstance(v, list) and v and all(_finite_number(x) for x in v)):
            return flag("ConfigError", "expected a nonempty list of finite numbers")
    elif not _finite_number(v):
        return flag("ConfigError", f"expected a finite number, got {v!r}")
    elif spec.type == "integer" and int(v) != v:
        return flag("ConfigError", f"expected an integer, got {v!r}")
    if spec.bound is None:
        return None
    test, error, text = _BOUNDS.get(spec.bound) or (
        lambda x: x >= spec.bound, "ConfigError", f">= {spec.bound}")
    if not all(test(x) for x in (v if spec.type == "list" else [v])):
        return flag(error, ("all entries must be " if spec.type == "list" else "must be ") + text)
    return None


def _check_name(name) -> Diagnostic | None:
    """The name is the output file stem: one nonempty path component."""
    if isinstance(name, str) and name not in ("", ".", "..") and not set(name) & set("/\\\0"):
        return None
    return Diagnostic("name", "ConfigError",
                      f"must be a file name without '/', '\\' or NUL, got {name!r}")


_SEED = Field("seed", "integer", "seed")
_COMMON = (Field("grid_points", "integer", 16), Field("mc_samples", "integer", "mc_samples"), _SEED)
_PACKET = (Field("packet_center"), Field("packet_width", bound="positive"),
           Field("grid_min", required=False), Field("grid_max", required=False))
_ROTATOR = (Field("omega", bound="positive"), Field("j_z", "integer", 1))


# Working-set estimates: bytes a runner holds at its peak, keyed by the field that sizes them,
# from the declarations beside the loops it runs: what it carries throughout, plus the largest
# of the phases it goes through one after another.
def _peak(carried: dict, *phases: tuple[str, int]) -> dict:
    field, most = max(phases, key=lambda phase: phase[1])
    return {**carried, field: carried.get(field, 0) + most}


def _row_bytes(rows: int, cells: int) -> int:
    """At most the bytes of a result table's rows: a list slot, a tuple and a float a cell."""
    return rows * (8 + sys.getsizeof((0.0,) * cells) + cells * sys.getsizeof(0.0))


def _dilation_bytes(sc: dict, rotator: bool) -> dict:
    """A rotator's modes are its 2 J_z + 1 levels; a free clock's, its own packet's momenta."""
    n, mc = int(sc["grid_points"]), int(sc["mc_samples"])
    modes, sized = (2 * int(sc["j_z"]) + 1, "j_z") if rotator else (n, "grid_points")
    (held, work), (boost, lags) = packet_bytes(n), time_operator_bytes(n, modes, rotator)
    tables, block = ensemble_bytes(n, modes, mc, rotator) if mc > 0 else (0, 0)
    return _peak({"grid_points": (1 if rotator else 2) * held}, ("grid_points", work),
                 ("grid_points", boost), (sized, lags), (sized, tables), ("mc_samples", block))


def _entangled_bytes(sc):
    """The clock's states; then one state evolved or the boosts formed, or the rows beside the
    angles and densities."""
    bins = int(sc["histogram_bins"])
    held, evolving = entangled_bytes(len(sc["mode_momenta"]), 2 * int(sc["j_z"]) + 1)
    rows = _row_bytes(bins, 2) + 16 * bins
    return _peak({"j_z": held}, ("j_z", evolving), ("histogram_bins", rows))


def _jacobi_bytes(sc):
    """The rows, and one frame's exchange chain beside the chart its end is checked on."""
    n = len(sc["masses"])
    return {"masses": _row_bytes(n * n, 5) + exchange_chain_bytes(n) + chart_bytes(n)}


def _packet_bytes(sc, copies: int):
    held, work = packet_bytes(int(sc["grid_points"]))
    return {"grid_points": copies * held + work}


def _typed(sc: dict, kind: Kind) -> dict:
    return {**sc, **{f.name: int(sc[f.name]) for f in _COMMON + kind.fields if f.type == "integer"}}


def validate_scenario(sc: dict) -> list[Diagnostic]:
    """What run_scenario would refuse, in three steps, each only if those before find
    nothing: every violated field rule; the working-set cap; the first of the kind's
    builds that refuses.  A floating-point failure in a build is left to run_scenario,
    which reports it."""
    name = sc.get("kind")
    kind = SCENARIOS.get(name) if isinstance(name, str) else None
    if kind is None:
        return [Diagnostic("kind", "ConfigError", f"must be one of {', '.join(SCENARIOS)}")]
    checked = [_check_name(sc.get("name"))] + [_check_field(spec, sc.get(spec.name))
                                               for spec in _COMMON + kind.fields]
    diags = [d for d in checked if d is not None]
    if diags:
        return diags
    shares = kind.estimate(sc)
    need = sum(shares.values())
    if need > MAX_WORKING_SET:  # nothing is built over the cap
        return [Diagnostic(max(shares, key=shares.get), "ConfigError",
                           f"needs a working set of about {need >> 20} MiB; "
                           f"the cap is {MAX_WORKING_SET >> 20} MiB")]
    typed = _typed(sc, kind)
    for blamed, build in kind.builds.items():
        try:
            with np.errstate(all="ignore"):  # an overflowing grid fails its rule, silently
                build(typed)
        except ConfigError as e:
            field = next(f for f in blamed if sc.get(f) is not None)
            return [Diagnostic(field, type(e).__name__, str(e))]
        except (ArithmeticError, NumericalError):
            return []  # run_scenario reports it, with exit 3
    return []


# --- result tables -------------------------------------------------------------

@dataclass(frozen=True)
class ResultTable:
    name: str
    columns: tuple[tuple[str, str], ...]  # (name, unit)
    rows: list[tuple]
    summary: dict


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def render_csv(table: ResultTable) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)  # RFC-4180: minimal quoting, CRLF terminators
    writer.writerow([name for name, _ in table.columns])
    for row in table.rows:
        writer.writerow([_cell(v) for v in row])
    return buf.getvalue()


def scenario_hash(sc: dict) -> str:
    canon = json.dumps(sc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def render_sidecar(sc: dict, table: ResultTable) -> str:
    prov = {
        "code_version": __version__,
        "columns": [{"name": n, "unit": u} for n, u in table.columns],
        "grid_points": sc["grid_points"],
        "kind": sc["kind"],
        "mc_samples": sc["mc_samples"],
        "name": table.name,
        "rows": len(table.rows),
        "scenario_hash": scenario_hash(sc),
        "seed": sc["seed"],
        "summary": table.summary,
    }
    return json.dumps(prov, sort_keys=True, indent=2) + "\n"


def _atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# --- scenario runners ----------------------------------------------------------

def _frame_system(sc: dict) -> FrameSystem:
    """The bodies of masses: at least two (FrameSystem refuses a share that underflows)."""
    if len(sc["masses"]) < 2:
        raise ConfigError("expected a list of at least 2 numbers")
    return FrameSystem.from_masses(sc["masses"])


def _run_jacobi_demo(sc: dict) -> ResultTable:
    system = _frame_system(sc)
    n = system.size
    first = build_chart(system, 1)
    b_1, rows = first.momentum_map, []
    for label in range(1, n + 1):
        chart = build_chart(system, label)
        pairing = float(np.max(np.abs(chart.pairing_matrix() - np.eye(n))))
        ops = exchange_chain(system, label)  # frame 1's rows moved to the end: A_end B_1^T
        end = ops[-1].target if ops else first
        chain_res = float(np.max(np.abs((end.coord_map - chart.coord_map) @ b_1.T)))
        del ops, end  # so that the next frame's chain is not built beside this one
        for i, mu in enumerate(chart.reduced_masses):
            rows.append((label, i, float(mu), pairing, chain_res))
    columns = (("frame", "1"), ("coord", "1"), ("reduced_mass", "mass"),
               ("pairing_residual", "1"), ("chain_residual", "1"))
    worst = max(r[3] for r in rows)
    return ResultTable(sc["name"], columns, rows,
                       {"bodies": n, "worst_pairing_residual": worst})


def _packet(sc: dict, mass: float) -> WavePacket:
    """The scenario's Gaussian packet on grid_min..grid_max when both are given, else on
    the default grid around packet_center."""
    center, width, n = sc["packet_center"], sc["packet_width"], int(sc["grid_points"])
    lo, hi = sc.get("grid_min"), sc.get("grid_max")
    if (lo is None) != (hi is None):
        raise ConfigError("give both grid_min and grid_max, or neither")
    grid = default_grid(center, width, n) if lo is None else MomentumGrid.linspace(lo, hi, n)
    return make_gaussian(grid, center, width, mass=mass)


def _dilation_table(sc: dict, sys_: RelClockSystem) -> ResultTable:
    taus = np.asarray(sc["tau_grid"], dtype=float)
    s = proper_time_stats(sys_, taus)
    mc = itertools.repeat((None,) * 4)
    if sc["mc_samples"] > 0:
        chk = mc_variance_check(sys_, taus, sc["mc_samples"], sc["seed"])
        mc = zip(chk.mean, chk.variance, chk.stderr_mean, chk.stderr_variance)
    d_x = itertools.repeat(None) if s.d_x is None else s.d_x
    rows = [(t, mean, d_tau, s.d_b, s.g2, s.d0, dx) + row
            for t, mean, d_tau, dx, row in zip(taus, s.tau_mean, s.d_tau, d_x, mc)]
    columns = (("tau0", "time"), ("tau_mean", "time"), ("d_tau", "time^2"),
               ("d_b", "1"), ("g2", "time"), ("d0", "time^2"), ("d_x", "time^2"),
               ("mc_mean", "time"), ("mc_variance", "time^2"),
               ("mc_stderr_mean", "time"), ("mc_stderr_variance", "time^2"))
    return ResultTable(sc["name"], columns, rows,
                       {"model": s.model, "alpha_i": sys_.alpha_i})


def _rotator_system(sc: dict) -> RelClockSystem:
    clock = rotator_init(sc["j_z"], sc["omega"])
    return RelClockSystem(sc["rest_mass"], _packet(sc, sc["rest_mass"]), clock)


def _freeclock_system(sc: dict) -> RelClockSystem:
    mass = sc["m_a"] + sc["m_b"]
    clock = FreeClockState(sc["m_a"], sc["m_b"], sc["p_bar"], sc["a_x"])
    return RelClockSystem(mass, _packet(sc, mass), clock)


def _modes(sc: dict) -> ModeSuperposition:
    weights = np.asarray(sc["mode_weights"], dtype=float)
    return ModeSuperposition(np.asarray(sc["mode_momenta"], dtype=float),
                             np.sqrt(weights / weights.sum()))


def _entangled_system(sc: dict) -> RelClockSystem:
    return RelClockSystem(sc["rest_mass"], _modes(sc), rotator_init(sc["j_z"], sc["omega"]))


def _run_entangled(sc: dict) -> ResultTable:
    sys_ = _entangled_system(sc)
    modes = sys_.external
    tau0 = float(sc["tau0"])
    ent = boosted_evolve(sys_, tau0)
    predicted = np.sort(  # before the rows, so that its work is not done beside them
        (2 * np.pi * sc["omega"] * time_boost(modes.points, sc["rest_mass"]) * tau0)
        % (2 * np.pi))
    bins = sc["histogram_bins"]
    thetas = (np.arange(bins) + 0.5) * 2 * np.pi / bins
    density = ent.hand_density(thetas)
    rows = [(float(t), float(d)) for t, d in zip(thetas, density)]
    return ResultTable(sc["name"], (("theta", "rad"), ("density", "1/rad")), rows,
                       {"predicted_peaks": [float(p) for p in predicted],
                        "tau0": tau0, "modes": len(modes.coeffs)})


def _round_trip(sc: dict) -> tuple[WavePacket, WavePacket, WavePacket]:
    """The packet in frame 1, its image in frame 2, and that image mapped back."""
    m1, m2 = sc["m1"], sc["m2"]
    packet = _packet(sc, m2)
    mapped = frame_to_frame(packet, m1, m2, sc["tau1"], sc["tau2"])
    return packet, mapped, frame_to_frame(mapped, m2, m1, sc["tau2"], sc["tau1"])


def _run_frame_transform(sc: dict) -> ResultTable:
    m1, m2 = sc["m1"], sc["m2"]
    packet, mapped, back = _round_trip(sc)
    b_12 = expectation(packet, lambda p: time_boost(p, m2)).real
    b_21 = expectation(mapped, lambda p: time_boost(p, m1)).real
    center = -(m1 / m2) * sc["packet_center"]  # nominal, as is the width: packets store neither
    rows = [
        ("input_center", sc["packet_center"]),
        ("mapped_center", center),
        ("expected_center", center),
        ("mapped_width", (m1 / m2) * sc["packet_width"]),
        ("mapped_norm", mapped.norm()),
        ("boost_mean_frame1", b_12),
        ("boost_mean_frame2", b_21),
        ("round_trip_error", float(np.max(np.abs(back.amplitudes - packet.amplitudes)))),
    ]
    return ResultTable(sc["name"], (("quantity", "label"), ("value", "mixed")), rows,
                       {"m1": m1, "m2": m2})


def _run_nonrel_limit(sc: dict) -> ResultTable:
    betas = sorted(sc["betas"], reverse=True)  # final row is the most converged
    report = nonrel_limit_report(sc["m1"], sc["m2"], betas, n=sc["grid_points"])
    k_m = (sc["m1"] + sc["m2"]) / sc["m1"]
    rows = [(r.beta, r.h_ratio, r.x_ratio, k_m, 1.0 / k_m) for r in report]
    columns = (("beta", "1"), ("h_ratio", "1"), ("x_ratio", "1"),
               ("k_m", "1"), ("inv_k_m", "1"))
    return ResultTable(sc["name"], columns, rows, {"k_m": k_m})


_ON_GRID = ("grid_min", "grid_max", "packet_width")

SCENARIOS = {
    "jacobi-demo": Kind(
        (Field("masses", "list", "positive"),), _jacobi_bytes, {("masses",): _frame_system},
        _run_jacobi_demo),
    "rotator-dilation": Kind(
        (Field("rest_mass", bound="positive"), *_PACKET, *_ROTATOR,
         Field("tau_grid", "list", "nonnegative")), lambda sc: _dilation_bytes(sc, True),
        {_ON_GRID: lambda sc: _packet(sc, sc["rest_mass"]), ("omega",): _rotator_system},
        lambda sc: _dilation_table(sc, _rotator_system(sc))),
    "freeclock-dilation": Kind(
        (Field("m_a", bound="positive"), Field("m_b", bound="positive"),
         Field("p_bar", bound="nonzero"), Field("a_x", bound="positive"), *_PACKET,
         Field("tau_grid", "list", "nonnegative")),
        lambda sc: _dilation_bytes(sc, False),
        {_ON_GRID: lambda sc: _packet(sc, sc["m_a"] + sc["m_b"]), ("a_x",): _freeclock_system},
        lambda sc: _dilation_table(sc, _freeclock_system(sc))),
    "entangled-clock": Kind(
        (Field("rest_mass", bound="positive"), Field("mode_momenta", "list"),
         Field("mode_weights", "list", "positive"), *_ROTATOR, Field("tau0", bound=0),
         Field("histogram_bins", "integer", 8)), _entangled_bytes,
        {("mode_momenta",): _modes, ("omega",): _entangled_system}, _run_entangled),
    "frame-transform": Kind(
        (Field("m1", bound="positive"), Field("m2", bound="positive"), *_PACKET,
         Field("tau1"), Field("tau2")), lambda sc: _packet_bytes(sc, 3),
        {_ON_GRID: lambda sc: _packet(sc, sc["m2"]), ("m1",): _round_trip},
        _run_frame_transform),
    "nonrel-limit": Kind(
        (Field("m1", bound="positive"), Field("m2", bound="positive"),
         Field("betas", "list", "positive")), lambda sc: _packet_bytes(sc, 1),
        {("betas",): lambda sc: nonrel_betas(sc["betas"])}, _run_nonrel_limit),
}


def _finite(v) -> bool:
    """Every float in v, a cell or a nested list or tuple of cells, is finite."""
    if isinstance(v, (list, tuple)):
        return all(_finite(x) for x in v)
    return not isinstance(v, (float, np.floating)) or math.isfinite(v)


def _nonfinite_fields(table: ResultTable) -> list[str]:
    """The columns and summary keys that hold an inf or a NaN, each named once."""
    cells = ((name, v) for row in table.rows for (name, _), v in zip(table.columns, row))
    return list(dict.fromkeys(name for name, v in itertools.chain(cells, table.summary.items())
                              if not _finite(v)))


def run_scenario(sc: dict) -> ResultTable:
    """Validate and run one scenario; any floating-point failure, and any inf or
    NaN in the result, is a NumericalError (the errstate is set here, so sweep
    worker threads get it too)."""
    diags = validate_scenario(sc)
    if diags:
        raise ConfigError("; ".join(str(d) for d in diags))
    kind = SCENARIOS[sc["kind"]]
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            table = kind.runner(_typed(sc, kind))
    except ArithmeticError as e:
        raise NumericalError(f"{type(e).__name__}: {e}") from e
    bad = _nonfinite_fields(table)
    if bad:  # an overflow inside a BLAS call or einsum escapes the errstate
        raise NumericalError(f"non-finite result in {', '.join(bad)}")
    return table


def write_results(sc: dict, table: ResultTable, out_dir: str) -> str:
    csv_path = os.path.join(out_dir, f"{table.name}.csv")
    try:
        os.makedirs(out_dir, exist_ok=True)
        _atomic_write(csv_path, render_csv(table))
        _atomic_write(os.path.join(out_dir, f"{table.name}.provenance.json"),
                      render_sidecar(sc, table))
    except OSError as e:
        raise ConfigError(f"cannot write results to {out_dir}: {e}") from e
    return csv_path


# --- sweep expansion -----------------------------------------------------------

def expand_sweep(sc: dict) -> list[dict]:
    grid = sc.get("sweep")
    if not isinstance(grid, dict) or not grid:
        raise ConfigError("sweep scenarios need a nonempty 'sweep' object")
    for key, values in grid.items():
        if not isinstance(values, list) or not values:
            raise ConfigError(f"sweep.{key}: expected a nonempty list of values")
    for bad in (_check_name(sc.get("name")), _check_field(_SEED, sc.get("seed"))):
        if bad is not None:
            raise ConfigError(str(bad))
    base = {k: v for k, v in sc.items() if k != "sweep"}
    keys = sorted(grid)
    out = []
    for index, combo in enumerate(itertools.product(*(grid[k] for k in keys))):
        child = dict(base)
        child.update(dict(zip(keys, combo)))
        child["name"] = f"{base['name']}-{index:03d}"
        child["seed"] = int(base["seed"]) + index  # per-scenario RNG stream
        out.append(child)
    return out


def _worker_count(n_jobs: int) -> int:
    cap = os.environ.get("QRF_THREADS")
    workers = min(n_jobs, os.cpu_count() or 1)
    if cap:
        try:
            workers = min(workers, max(1, int(cap)))
        except ValueError:
            raise ConfigError(f"QRF_THREADS must be an integer, got {cap!r}") from None
    return max(1, workers)


def run_sweep(sc: dict, out_dir: str) -> list[str]:
    children = expand_sweep(sc)
    for child in children:
        diags = validate_scenario(child)
        if diags:
            raise ConfigError(f"{child['name']}: " + "; ".join(str(d) for d in diags))

    def job(child):
        return write_results(child, run_scenario(child), out_dir)

    with ThreadPoolExecutor(max_workers=_worker_count(len(children))) as pool:
        return list(pool.map(job, children))


# --- entry point ---------------------------------------------------------------

def _apply_overrides(sc: dict, args) -> dict:
    sc = dict(sc)
    for field in ("seed", "grid_points", "mc_samples"):
        value = getattr(args, field)
        if value is not None:
            sc[field] = value
    return sc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrfsim",
        description="Run quantum-reference-frame scenarios and emit CSV tables.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (("run", "execute one scenario"),
                       ("validate", "check a scenario without executing it"),
                       ("sweep", "execute the cartesian expansion of a scenario")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--scenario", required=True, help="path to a scenario JSON file")
        if name != "validate":
            p.add_argument("--out", default=".", help="output directory")
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--grid-points", type=int, default=None, dest="grid_points")
            p.add_argument("--mc-samples", type=int, default=None, dest="mc_samples")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        sc = load_scenario(args.scenario)
        if args.command == "validate":
            diags = validate_scenario(sc)
            print("\n".join(map(str, diags)) or "ok")
            return 2 if diags else 0
        sc = _apply_overrides(sc, args)
        if args.command == "run":
            path = write_results(sc, run_scenario(sc), args.out)
            print(f"wrote {path}")
        else:
            for path in run_sweep(sc, args.out):
                print(f"wrote {path}")
        return 0
    except ConfigError as e:  # ScenarioParseError included
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
