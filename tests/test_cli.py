"""CLI: scenario validation, result tables, reproducibility, sweeps."""

import contextlib
import csv
import gc
import io
import json
import math
import os
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import hypothesis as hyp
import hypothesis.strategies as st
import numpy as np
import pytest
from numpy.testing import assert_allclose

from qrfsim import cli, clocks, frames, packets, relkin
from qrfsim.errors import ChartMismatch, ConfigError, NumericalError, QrfError, ScenarioParseError

SCENARIO_DIR = Path(cli.__file__).parent / "scenarios"
SHIPPED = sorted(SCENARIO_DIR.glob("*.json"))


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def write_scenario(tmp_path, payload, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


class TestValidate:
    @pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
    def test_shipped_scenarios_are_clean(self, path):
        assert cli.validate_scenario(cli.load_scenario(str(path))) == []

    def test_zero_width_is_flagged_at_field(self, tmp_path):
        sc = cli.load_scenario(str(SCENARIO_DIR / "rotator-dilation.json"))
        sc["packet_width"] = 0.0
        diags = cli.validate_scenario(sc)
        assert len(diags) == 1
        assert diags[0].field == "packet_width"
        assert diags[0].error == "NonPositiveWidth"

    def test_narrow_explicit_grid_is_flagged(self, tmp_path):
        sc = cli.load_scenario(str(SCENARIO_DIR / "rotator-dilation.json"))
        sc["grid_min"], sc["grid_max"] = 0.5, 1.0  # needs 0.75 +- 0.6
        diags = cli.validate_scenario(sc)
        assert [d.error for d in diags] == ["GridTooNarrow"]

    def test_every_violation_is_listed(self):
        sc = {"kind": "rotator-dilation", "name": "x", "rest_mass": -1.0,
              "packet_center": 0.0, "packet_width": 0.0, "omega": 0.0,
              "j_z": 0, "tau_grid": [], **{"grid_points": 2048,
                                           "mc_samples": 0, "seed": 0}}
        fields = {d.field for d in cli.validate_scenario(sc)}
        assert {"rest_mass", "packet_width", "omega", "j_z", "tau_grid"} <= fields

    def test_grid_at_the_coverage_slack_is_clean(self, tmp_path, capsys):
        # 1e-14 inside +- 6 sigma is within the slack make_gaussian allows, and validate
        # asks of the grid only what make_gaussian asks
        path = write_scenario(tmp_path, _edited("rotator-dilation", grid_min=0.15 + 1e-14,
                                                grid_max=1.35, mc_samples=0, grid_points=256))
        assert cli.main(["validate", "--scenario", path]) == 0
        assert capsys.readouterr().out.strip() == "ok"
        assert cli.main(["run", "--scenario", path, "--out", str(tmp_path / "out")]) == 0

    def test_mass_positivity_cross_check(self):
        sc = cli.load_scenario(str(SCENARIO_DIR / "rotator-dilation.json"))
        sc["omega"], sc["j_z"] = 0.05, 16  # 2 pi w J_z > 1
        diags = cli.validate_scenario(sc)
        assert any("positivity" in d.message for d in diags)

    def test_negative_tau_rejected(self):
        sc = cli.load_scenario(str(SCENARIO_DIR / "rotator-dilation.json"))
        sc["tau_grid"] = [1.0, -2.0]
        assert any(d.field == "tau_grid" for d in cli.validate_scenario(sc))

    def test_unknown_kind(self):
        diags = cli.validate_scenario({"kind": "warp-drive"})
        assert diags[0].field == "kind"

    def test_parse_error_carries_location(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"kind": "jacobi-demo",\n  "masses": [1.0,]\n}')
        with pytest.raises(ScenarioParseError) as err:
            cli.load_scenario(str(p))
        assert err.value.line == 2

    def test_validate_command_exit_codes(self, tmp_path, capsys):
        good = str(SCENARIO_DIR / "jacobi-demo.json")
        assert cli.main(["validate", "--scenario", good]) == 0
        assert capsys.readouterr().out.strip() == "ok"
        bad = write_scenario(tmp_path, {"kind": "jacobi-demo", "masses": [1.0, -2.0]})
        assert cli.main(["validate", "--scenario", bad]) == 2
        assert "masses" in capsys.readouterr().out


class TestExitCodes:
    @pytest.mark.parametrize("raw, says", [
        (b"not json at all {", "line"),
        (b'{"kind": "jacobi-demo", "name": "\xff"}', "utf-8"),
        (b"[" * 100000, "recursion"),
        (b'{"seed": ' + b"1" * 5000 + b"}", "digits"),
    ], ids=["not-json", "not-utf8", "nested-past-the-recursion-limit",
            "integer-past-the-digit-limit"])
    def test_parse_failure_returns_2(self, tmp_path, capsys, raw, says):
        p = tmp_path / "broken.json"
        p.write_bytes(raw)
        assert cli.main(["run", "--scenario", str(p), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and says in err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_out_that_is_a_file_returns_2(self, tmp_path, capsys, command):
        sc = json.loads((SCENARIO_DIR / "jacobi-demo.json").read_text())
        path = write_scenario(tmp_path, dict(sc, sweep={"seed": [0]}))
        out = tmp_path / "taken"
        out.write_text("not a directory")
        assert cli.main([command, "--scenario", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: cannot write results")
        assert out.read_text() == "not a directory"

    def test_config_failure_returns_2(self, tmp_path, capsys):
        bad = write_scenario(tmp_path, {"kind": "nonrel-limit", "m1": 1.0,
                                        "m2": 1.0, "betas": [0.9]})
        assert cli.main(["run", "--scenario", bad, "--out", str(tmp_path)]) == 2

    def test_every_library_error_has_an_exit_code(self):
        # main maps ConfigError to 2 and NumericalError to 3; an error of neither
        # kind would end a run in a traceback with exit 1
        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        assert [cls.__name__ for cls in subclasses(QrfError)
                if not issubclass(cls, (ConfigError, NumericalError))] == []

    def test_numerical_failure_returns_3(self, tmp_path, capsys, monkeypatch):
        def boom(sc):
            raise NumericalError("synthetic blow-up")
        monkeypatch.setitem(cli.SCENARIOS, "jacobi-demo",
                            replace(cli.SCENARIOS["jacobi-demo"], runner=boom))
        good = str(SCENARIO_DIR / "jacobi-demo.json")
        assert cli.main(["run", "--scenario", good, "--out", str(tmp_path)]) == 3
        assert "synthetic" in capsys.readouterr().err


def _edited(name, **changes):
    sc = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
    sc.update(changes)
    return sc


# valid scenarios that validate once passed and run refused
_FREE_CLOCK = {"kind": "freeclock-dilation", "name": "probe", "m_a": 1.0, "m_b": 1.0,
               "p_bar": -1.0, "a_x": 1.0, "packet_center": -1.0, "packet_width": 1.0,
               "grid_points": 16, "mc_samples": 0, "seed": 0, "tau_grid": [0.0]}
# sigma_p = 5e-17 collapses the free clock's own packet grid onto repeated points
_CLOCK_GRID_COLLAPSES = dict(_FREE_CLOCK, a_x=1e16)
# a packet 1e-4 wide falls between the points of a 16-point grid over [-1, 0], 667 widths apart
_PACKET_VANISHES = dict(_FREE_CLOCK, packet_center=-0.1, packet_width=1e-4,
                        grid_min=-1.0, grid_max=0.0)
# the proper-time coefficients overflow inside BLAS: g2 is NaN and d0 inf
_COEFFICIENTS_OVERFLOW = dict(_FREE_CLOCK, m_a=10.0, m_b=1e308, mc_samples=2)
# frame_to_frame refuses the mapped packet, which validate once did not build
_FRAME = {"kind": "frame-transform", "name": "probe", "mc_samples": 0, "seed": 0}
# the mapped grid, -(m1/m2) times the input one, collapses onto repeated points
_MAPPED_GRID_COLLAPSES = dict(_FRAME, m1=3.098941331589392e-246, m2=7.008889804472171e79,
                              packet_center=2.2495762172726526e-235, packet_width=1.0,
                              grid_points=28, tau1=0.28370621708626387, tau2=1.0)


@pytest.mark.parametrize("payload", [
    _edited("rotator-dilation", mc_samples=0, rest_mass=float("nan")),
    _edited("rotator-dilation", mc_samples=0, tau_grid=[float("nan")]),
    _edited("rotator-dilation", mc_samples=0, j_z=float("nan")),
    _edited("rotator-dilation", mc_samples=0, grid_min="a", grid_max=2.0),
    _edited("rotator-dilation", mc_samples=0, grid_min=0.0),
    _edited("frame-transform", tau1=float("inf")),
    _edited("frame-transform", m1=float("nan")),
    _edited("jacobi-demo", kind=["jacobi-demo"]),
    _edited("rotator-dilation", mc_samples=1000, seed="x"),
    _edited("rotator-dilation", mc_samples=1000, seed=1.5),
    _edited("rotator-dilation", mc_samples=1000, seed=-1),
    _edited("rotator-dilation", mc_samples=1000, seed=2 ** 32),
    _edited("rotator-dilation", mc_samples=1000, seed=2 ** 64),
    _edited("rotator-dilation", mc_samples=1000, seed=1e300),
    # the name is the output file stem: it must not leave --out, hide or break the file
    *(dict(_edited("jacobi-demo"), name=name) for name in ("../escaped", "a\x00b", "", 42, ["x"])),
    # a body whose share of the total mass underflows drops out of the chart's c.m. row
    _edited("jacobi-demo", masses=[1e150, 1e-300, 3.0, 4.0]),
    _edited("jacobi-demo", masses=[2.342470629132774e-202, 8.340899392648942e+286]),
], ids=["rest_mass-nan", "tau_grid-nan", "j_z-nan", "grid_min-string", "grid_min-alone",
        "tau1-inf", "m1-nan", "kind-list", "seed-string", "seed-fraction", "seed-negative",
        "seed-2^32", "seed-2^64", "seed-1e300", "name-parent", "name-nul", "name-empty",
        "name-number", "name-list", "masses-share-1e-450", "masses-share-2.8e-489"])
def test_bad_input_fails_closed(tmp_path, capsys, payload):
    path = write_scenario(tmp_path, payload)
    assert cli.main(["validate", "--scenario", path]) == 2
    assert len(capsys.readouterr().out.splitlines()) == 1
    out = tmp_path / "out"
    sweep = write_scenario(tmp_path, dict(payload, sweep={"mc_samples": [0]}), "sweep.json")
    for argv in (["run", "--scenario", path], ["sweep", "--scenario", sweep]):
        assert cli.main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert not out.exists()
    assert sorted(os.listdir(tmp_path)) == ["scenario.json", "sweep.json"]


# a grid step of 4.6 packet widths: psi(x) would overlap its own images 2.7 sigma_x apart
_UNRESOLVED_PACKET = dict(_FRAME, m1=66.49577708333578, m2=1.0,
                          grid_min=-66.49577708333578, grid_max=66.49577708333578,
                          grid_points=30, packet_center=-0.29267844943705895,
                          packet_width=1.0, tau1=0.0, tau2=-66.49577708333578)
_TINY_PACKET = {"packet_width": 1e-323, "m1": 0.0819, "m2": 1, "packet_center": -0.0892,
                "grid_points": 39}


@pytest.mark.parametrize("payload, says", [
    (_edited("frame-transform", **_TINY_PACKET), "packet_width: NonPositiveWidth: "),
    (_edited("frame-transform", **_TINY_PACKET, grid_min=-0.0892, grid_max=-0.0892),
     "grid_min: NonPositiveWidth: "),
    (_edited("frame-transform", **dict(_TINY_PACKET, packet_width=1e308)),
     "packet_width: NonPositiveWidth: "),
    (_CLOCK_GRID_COLLAPSES, "a_x: NonPositiveWidth: grid points must be strictly increasing"),
    (_PACKET_VANISHES, "grid_min: GridTooNarrow: grid step 0.0666667 exceeds"),
    (_UNRESOLVED_PACKET, "grid_min: GridTooNarrow: grid step 4.58592 exceeds"),
    (_MAPPED_GRID_COLLAPSES, "m1: NonPositiveWidth: grid points must be strictly increasing"),
], ids=["default-grid", "explicit-grid", "overflowing-grid", "clock-grid-collapses",
        "packet-vanishes", "unresolved-packet", "mapped-grid-collapses"])
def test_grid_the_packet_cannot_have_fails_validation(tmp_path, capsys, payload, says):
    # at 1e-323, packet_center +- 6 packet_width rounds to packet_center and every grid
    # point is the same number; at 1e308 the grid's ends overflow.  validate makes each
    # build its kind declares, a call of the runner's own, so it refuses what run would
    # refuse, and names the field
    path = write_scenario(tmp_path, payload)
    assert cli.main(["validate", "--scenario", path]) == 2
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 and out[0].startswith(says)
    assert cli.main(["run", "--scenario", path, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: " + says)
    assert not (tmp_path / "out").exists()


# valid frame transforms that validate and run once refused, as a mapped norm off 1
# an even-count grid reflected by the map, its step 4.59 resolving a packet 5 wide
_REFLECTED_EVEN_GRID = dict(_UNRESOLVED_PACKET, packet_width=5.0)
# a grid 1.2e-8 wide at p = -1: points[1] - points[0] of it and of its reflection
# differ by 1.4e-7 relative, the end-to-end step not at all
_NARROW_PACKET_EQUAL_MASSES = dict(_FRAME, m1=1.0, m2=1.0, packet_center=-1.0,
                                   packet_width=1e-9, grid_points=16, tau1=-1.0, tau2=-1.0)


@pytest.mark.parametrize("payload", [_REFLECTED_EVEN_GRID, _NARROW_PACKET_EQUAL_MASSES],
                         ids=["reflected-even-grid", "narrow-packet-equal-masses"])
def test_frame_transform_maps_the_grids_it_validates(tmp_path, payload):
    # measured: round_trip_error 5.6e-17 and 2.7e-12
    path = write_scenario(tmp_path, payload)
    assert cli.main(["validate", "--scenario", path]) == 0
    assert cli.main(["run", "--scenario", path, "--out", str(tmp_path)]) == 0
    rows = {row["quantity"]: float(row["value"]) for row in read_rows(tmp_path / "probe.csv")}
    assert abs(rows["mapped_norm"] - 1.0) <= 1e-9
    assert rows["round_trip_error"] <= 1e-10


@pytest.mark.parametrize("error", [FloatingPointError, NumericalError])
def test_numerical_failure_in_a_packet_is_left_to_run(monkeypatch, error):
    def build(sc):
        raise error("synthetic overflow")

    # the runner makes the same call, and run_scenario reports its failure as numerical
    monkeypatch.setitem(cli.SCENARIOS, "frame-transform", replace(
        cli.SCENARIOS["frame-transform"], builds={("m1",): build}, runner=build))
    sc = cli.load_scenario(str(SCENARIO_DIR / "frame-transform.json"))
    assert cli.validate_scenario(sc) == []
    with pytest.raises(NumericalError, match="synthetic overflow"):
        cli.run_scenario(sc)


@pytest.mark.parametrize("payload, field", [
    (_edited("freeclock-dilation", grid_points=2 ** 24), "grid_points"),
    (_edited("rotator-dilation", mc_samples=10 ** 10), "mc_samples"),
    (_edited("rotator-dilation", j_z=10 ** 9, omega=1e-11, mc_samples=0), "j_z"),
    (_edited("entangled-clock", j_z=10 ** 9, omega=1e-11), "j_z"),
    (_edited("entangled-clock", histogram_bins=10 ** 8), "histogram_bins"),
    (_edited("jacobi-demo", masses=[1.0] * 600), "masses"),
], ids=["freeclock-grid_points-2^24", "mc_samples-1e10", "rotator-j_z-1e9",
        "entangled-j_z-1e9", "histogram_bins-1e8", "jacobi-masses-600"])
def test_working_set_over_the_cap_fails_closed(tmp_path, capsys, monkeypatch, payload, field):
    def never(sc):
        raise AssertionError("a scenario over the cap reached its runner or a packet")

    # the runners and builds are replaced, so a missing check cannot allocate
    # the extreme case
    monkeypatch.setattr(cli, "SCENARIOS", {
        name: replace(kind, runner=never, builds=dict.fromkeys(kind.builds, never))
        for name, kind in cli.SCENARIOS.items()})
    path = write_scenario(tmp_path, payload)
    assert cli.main(["validate", "--scenario", path]) == 2
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 and out[0].startswith(f"{field}: ConfigError: ")
    sweep = write_scenario(tmp_path, dict(payload, sweep={"tau_grid": [[1.0], [2.0]]}),
                           "sweep.json")
    for argv in (["run", "--scenario", path], ["sweep", "--scenario", sweep]):
        assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["rotator-dilation", "freeclock-dilation"])
def test_one_monte_carlo_draw_fails_closed(tmp_path, capsys, name):
    # a sample variance needs two draws; one draw would write NaN columns
    payload = _edited(name, mc_samples=1, grid_points=256)
    path = write_scenario(tmp_path, payload)
    assert cli.main(["validate", "--scenario", path]) == 2
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 and out[0].startswith("mc_samples: ConfigError: ")
    sweep = write_scenario(tmp_path, dict(payload, sweep={"tau_grid": [[1.0], [2.0]]}),
                           "sweep.json")
    shipped = str(SCENARIO_DIR / f"{name}.json")
    for argv in (["run", "--scenario", path], ["sweep", "--scenario", sweep],
                 ["run", "--scenario", shipped, "--mc-samples", "1"]):
        assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "mc_samples: ConfigError: " in err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("payload, field", [
    (_edited("rotator-dilation", tau_grid=[1e200], mc_samples=0, grid_points=256), "tau_grid"),
    (_edited("rotator-dilation", tau_grid=[1e200], mc_samples=4000, grid_points=256),
     "tau_grid"),
    (_edited("freeclock-dilation", tau_grid=[1e200], mc_samples=0, grid_points=256),
     "tau_grid"),
    (_edited("freeclock-dilation", tau_grid=[1e200], mc_samples=4000, grid_points=256),
     "tau_grid"),
    (_edited("rotator-dilation", omega=1e-200, mc_samples=0, grid_points=256), "omega"),
    (_edited("freeclock-dilation", p_bar=1e-200, mc_samples=0, grid_points=256), "p_bar"),
    (_edited("freeclock-dilation", a_x=1e-200, mc_samples=0, grid_points=256), "a_x"),
    (_edited("nonrel-limit", m1=1e-300, grid_points=256), "m1"),
    # the Monte-Carlo moments overflow inside einsum, which the errstate does not see
    (_edited("rotator-dilation", omega=2e-152, grid_points=64, mc_samples=2), "omega"),
    # a NaN g2 is an overflow, not a state the ensemble cannot check
    (_COEFFICIENTS_OVERFLOW, "m_b"),
    (dict(_COEFFICIENTS_OVERFLOW, mc_samples=0), "m_b"),
], ids=["rotator-tau-1e200", "rotator-tau-1e200-mc", "freeclock-tau-1e200",
        "freeclock-tau-1e200-mc", "omega-1e-200", "p_bar-1e-200", "a_x-1e-200", "m1-1e-300",
        "omega-2e-152-mc", "m_b-1e308-mc", "m_b-1e308"])
def test_floating_point_failure_exits_3(tmp_path, capsys, payload, field):
    # valid scenarios whose arithmetic overflows or divides by zero: inf/nan
    # columns with exit 0, or a traceback with exit 1, before run_scenario's errstate
    # and its finiteness gate
    path = write_scenario(tmp_path, payload)
    sweep = write_scenario(tmp_path, dict(payload, sweep={field: [payload[field]]}),
                           "sweep.json")
    out = tmp_path / "out"
    for argv in (["run", "--scenario", path], ["sweep", "--scenario", sweep]):
        assert cli.main(argv + ["--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("numerical failure: ")
        assert not out.exists()


# most each size may take in the property test below, so that a run stays fast
_SMALL = {"grid_points": 64, "mc_samples": 100, "j_z": 6, "histogram_bins": 64}
# log-uniform over every finite size, or over 1e-3..1e3, where more runs get to write
_MAGNITUDE = (st.floats(-323.0, 308.0) | st.floats(-3.0, 3.0)).map(lambda e: 10.0 ** e)


def _field_values(spec):
    """Values of one scenario key from its Field: its type, its bound, small sizes."""
    if spec.bound == "mc_samples":
        return st.just(0) | st.integers(2, _SMALL["mc_samples"])
    if spec.type == "integer":
        low = spec.bound if isinstance(spec.bound, (int, float)) else 0
        return st.integers(low, _SMALL.get(spec.name, 2 ** 32 - 1))
    signs = {"positive": [1.0], "nonnegative": [0.0, 1.0], "nonzero": [-1.0, 1.0],
             None: [-1.0, 0.0, 1.0]}.get(spec.bound, [1.0])
    number = st.builds(lambda sign, size: sign * size, st.sampled_from(signs), _MAGNITUDE)
    return st.lists(number, min_size=1, max_size=5) if spec.type == "list" else number


def _scenarios_of(name, kind):
    specs = cli._COMMON + kind.fields
    return st.fixed_dictionaries(
        {"kind": st.just(name), "name": st.just("probe"),
         **{spec.name: _field_values(spec) for spec in specs if spec.required}},
        optional={spec.name: _field_values(spec) for spec in specs if not spec.required})


_SCENARIOS = st.one_of([_scenarios_of(name, kind) for name, kind in cli.SCENARIOS.items()])


def _numbers(v):
    if isinstance(v, dict):
        v = list(v.values())
    if isinstance(v, list):
        return [x for item in v for x in _numbers(item)]
    return [v] if isinstance(v, (int, float)) else []


@pytest.mark.filterwarnings("ignore:internal energy")
@hyp.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hyp.example(_edited("jacobi-demo", masses=[1e150, 1e-300, 3.0, 4.0]))
@hyp.example(_edited("jacobi-demo", masses=[2.342470629132774e-202, 8.340899392648942e+286]))
@hyp.example(_edited("rotator-dilation", omega=2e-152, grid_points=64, mc_samples=2))
@hyp.example(_CLOCK_GRID_COLLAPSES)
@hyp.example(_PACKET_VANISHES)
@hyp.example(_COEFFICIENTS_OVERFLOW)
@hyp.example(_MAPPED_GRID_COLLAPSES)
@hyp.example(_REFLECTED_EVEN_GRID)
@hyp.example(_NARROW_PACKET_EQUAL_MASSES)
@hyp.given(_SCENARIOS)
def test_every_scenario_succeeds_finite_or_fails_closed(sc):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = write_scenario(Path(tmp), sc), os.path.join(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main(["run", "--scenario", path, "--out", out])
        assert rc in (0, 2, 3)
        if rc:
            assert len(err.getvalue().splitlines()) == 1 and not os.path.exists(out)
            # validate passes nothing that run refuses as a config error
            assert rc == 3 or cli.validate_scenario(cli.load_scenario(path))
            return
        with open(os.path.join(out, "probe.csv"), newline="") as f:
            cells = [cell for row in list(csv.reader(f))[1:] for cell in row]
        with open(os.path.join(out, "probe.provenance.json")) as f:
            numbers = _numbers(json.load(f))
        for cell in cells:
            try:
                numbers.append(float(cell))
            except ValueError:  # an empty cell or a label
                pass
        assert all(math.isfinite(x) for x in numbers)


def test_heavy_rotator_runs_at_its_rest_rate(tmp_path):
    # at rest_mass 1e300, m2^2 used to overflow and every tau_mean read 0
    path = write_scenario(tmp_path, _edited("rotator-dilation", rest_mass=1e300,
                                            mc_samples=0, grid_points=256))
    assert cli.main(["run", "--scenario", path, "--out", str(tmp_path)]) == 0
    rows = read_rows(tmp_path / "rotator-dilation.csv")
    tau0 = np.array([float(r["tau0"]) for r in rows])
    assert_allclose([float(r["tau_mean"]) for r in rows], tau0, rtol=1e-12, atol=0)


@pytest.mark.parametrize("payload", [
    _edited("freeclock-dilation", mc_samples=0),
    *(_edited("rotator-dilation", mc_samples=0, j_z=j_z, omega=0.004) for j_z in (4, 12, 24)),
], ids=["freeclock", "rotator-4", "rotator-12", "rotator-24"])
def test_benchmark_tau_scan_sizes_are_under_the_cap(payload):
    assert cli.validate_scenario(payload) == []


@pytest.mark.parametrize("payload", [
    _edited("freeclock-dilation", grid_points=1024, mc_samples=0),
    _edited("freeclock-dilation", grid_points=1024, mc_samples=0, a_x=5.0),
    _edited("rotator-dilation", grid_points=256, mc_samples=200000, tau_grid=[1.0]),
    _edited("rotator-dilation", j_z=1000, omega=1e-5, mc_samples=0),
    _edited("rotator-dilation", j_z=1000, omega=0.999 / (2000 * np.pi), mc_samples=0),
    _edited("rotator-dilation", j_z=1000, omega=1e-5, grid_points=16, mc_samples=2,
            tau_grid=[1.0]),
    _edited("entangled-clock", j_z=2000, omega=1e-5, grid_points=2048, mc_samples=0),
    _edited("jacobi-demo", masses=[1.0 + 0.1 * i for i in range(24)], grid_points=2048,
            mc_samples=0, seed=0),
    # two draws: the offset table's build, not the block, sets the peak
    _edited("rotator-dilation", grid_points=256, mc_samples=2),
    _edited("freeclock-dilation", grid_points=256, mc_samples=2),
    _edited("freeclock-dilation", grid_points=2048, mc_samples=2),
    _edited("rotator-dilation"),
    _edited("freeclock-dilation"),
    cli.load_scenario(str(SCENARIO_DIR / "entangled-clock.json")),  # with the run defaults
], ids=["freeclock-mesh", "freeclock-wide-span", "rotator-mc", "rotator-modes",
        "rotator-wide-span", "rotator-angle-table", "entangled-modes", "jacobi-chains",
        "rotator-two-draws", "freeclock-two-draws", "freeclock-mesh-two-draws",
        "shipped-rotator-dilation", "shipped-freeclock-dilation", "shipped-entangled-clock"])
def test_working_set_estimate_tracks_the_traced_peak(payload):
    estimate = cli.SCENARIOS[payload["kind"]].estimate
    peak = _traced_peak(lambda: cli.run_scenario(payload))
    assert 0.5 < sum(estimate(payload).values()) / peak < 2.0


def _traced_peak(call):
    """Bytes call allocates at its peak, traced on a second call: one-off lazy imports and
    caches of the first are not its working set."""
    call()
    gc.collect()  # a full collection empties CPython's free lists, so small tuples are traced
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _packet(n):
    return packets.make_gaussian(packets.default_grid(0.75, 0.1, n), 0.75, 0.1, 1.0)


def _kernel_cases():
    """(id, declared bytes, the kernel alone) at sizes where arrays, not a few KiB of Python
    objects, set the peak; a kernel of two phases declares the larger."""
    tau, cases = np.array([1.0, 2.0]), []
    for n in (2048, 8192):
        held, work = packets.packet_bytes(n)
        pk, xs = _packet(n), np.linspace(-50.0, 50.0, relkin.POSITION_TABLE_POINTS)
        cases += [(f"packet-build-{n}", held + work, lambda n=n: _packet(n)),
                  (f"packet-moment-{n}", work, lambda pk=pk: packets.position_variance(pk)),
                  (f"psi-chunks-{n}", packets.wavefunction_bytes(n, xs.size),
                   lambda pk=pk, xs=xs: packets.position_wavefunction(pk, xs))]
    for modes in (2001, 8001):
        c = clocks.rotator_init((modes - 1) // 2, 0.01).coefficients
        cases.append((f"lag-sums-{modes}", clocks.lag_sum_bytes(modes),
                      lambda c=c: clocks.branch_forms(c, c)))
    rotator, free = clocks.rotator_init, clocks.FreeClockState
    for name, n, clock, draws in (
            ("rotator", 2048, rotator(4, 0.02), (2, 10 ** 5)),
            ("rotator-modes", 2048, rotator(1000, 1e-5), ()),
            ("rotator-wide-span", 2048, rotator(1000, 0.999 / (2000 * np.pi)), ()),
            ("rotator-angle-table", 16, rotator(1000, 1e-5), (2,)),
            ("rotator-mesh", 8192, rotator(2, 1e-3), ()),
            ("freeclock", 2048, free(0.5, 0.5, 0.2, 25.0), (2, 10 ** 5)),
            ("freeclock-wide-span", 1024, free(0.5, 0.5, 0.2, 5.0), (2,))):
        system = relkin.RelClockSystem(1.0, _packet(n), clock)
        is_rotator = isinstance(clock, clocks.RotatorClockState)
        modes = clock.n_states if is_rotator else n
        cases.append((f"time-operator-{name}", max(relkin.time_operator_bytes(n, modes, is_rotator)),
                      lambda s=system: type(s).time_operator.func(s)))
        system.time_operator  # cached: the draws alone are traced
        cases += [(f"ensemble-{name}-{d}", max(relkin.ensemble_bytes(n, modes, d, is_rotator)),
                   lambda s=system, d=d: relkin.mc_variance_check(s, tau, d, 0)) for d in draws]
    for external, j_z in ((2, 2000), (8, 500)):
        modes = relkin.ModeSuperposition(np.linspace(0.0, 0.75, external),
                                         np.full(external, external ** -0.5))
        cases.append((f"entangled-{external}x{2 * j_z + 1}",
                      sum(relkin.entangled_bytes(external, 2 * j_z + 1)),
                      lambda m=modes, j=j_z: relkin.boosted_evolve(
                          relkin.RelClockSystem(1.0, m, clocks.rotator_init(j, 1e-5)), 50.0)))
    for bodies in (24, 80):
        system = frames.FrameSystem.from_masses([1.0 + 0.1 * i for i in range(bodies)])
        cases.append((f"exchange-chain-{bodies}", frames.exchange_chain_bytes(bodies),
                      lambda s=system, b=bodies: frames.exchange_chain(s, b)))
    return cases


_KERNELS = _kernel_cases()


@pytest.mark.parametrize("declared, kernel", [case[1:] for case in _KERNELS],
                         ids=[case[0] for case in _KERNELS])
def test_each_kernel_declares_its_traced_peak(declared, kernel):
    # measured declared / traced: 0.95 (the rotator's boost moments and its two-draw ensemble)
    # to 1.34 (the free clock's boost moments, declared at BOOST_BLOCK_ROWS masses a mesh where
    # its Chebyshev levels take 9); the bounds add about 15% on either side
    assert 0.75 < declared / _traced_peak(kernel) < 1.55


@st.composite
def _log_uniform_masses(draw):
    """2 to 8 masses log-uniform inside 1e-300..1e300, the lightest and the heaviest up to
    320 decades apart, so some lists cross the share bound of frames.FrameSystem."""
    low = draw(st.floats(-300.0, 300.0))
    high = min(low + draw(st.floats(0.0, 320.0)), 300.0)
    inner = draw(st.lists(st.floats(low, high), max_size=6))
    return [10.0 ** e for e in draw(st.permutations([low, high, *inner]))]


@hyp.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hyp.example([1.0, 2.0, 3.0, 1e-6])
@hyp.example([1.0, 2.0, 3.0, 1e-12])
@hyp.example([1e-300, 1e-300, 3.0, 4.0])
@hyp.example([1.0, 1e-100, 1.0, 1e100])
@hyp.example([1e-150, 1.0, 1e150, 2.0])
@hyp.example([float(m) for m in range(1, 41)])
@hyp.given(_log_uniform_masses())
def test_every_admitted_mass_list_chains_exactly(masses):
    # every mass list validate admits runs, and each frame's exchange chain lands on its
    # chart to rounding: measured worst 2.1e-15 over 3000 of these lists, so 1e-14 leaves
    # a margin of 4.7.  An exchange turn read off an angle gave exit 3 on 118 of 200 such
    # lists and residuals up to 3.2e108 on the rest
    sc = _edited("jacobi-demo", masses=masses, grid_points=2048, mc_samples=0)
    hyp.assume(cli.validate_scenario(sc) == [])
    table = cli.run_scenario(sc)
    col = [name for name, _ in table.columns].index("chain_residual")
    assert max(row[col] for row in table.rows) <= 1e-14


@pytest.mark.parametrize("tail", [False, True], ids=["inner-angles", "every-angle"])
def test_jacobi_chain_residual_sees_a_wrong_exchange(monkeypatch, tail):
    def chain_residuals():
        table = cli.run_scenario(_edited("jacobi-demo", grid_points=2048, mc_samples=0))
        col = [name for name, _ in table.columns].index("chain_residual")
        return {row[0]: row[col] for row in table.rows}

    def turned(m1, m2, m3):  # (cos, sin) of beta + eps
        c, s = original(m1, m2, m3)
        eps = 1e-9 if m3 > 0 or tail else 0.0
        return c * np.cos(eps) - s * np.sin(eps), s * np.cos(eps) + c * np.sin(eps)

    assert max(chain_residuals().values()) <= 1e-15
    original = frames._exchange_cs
    monkeypatch.setattr(frames, "_exchange_cs", turned)
    # the chain does not check the charts it made itself: its residual sees a wrong exchange
    residuals = chain_residuals()
    assert residuals[1] == 0.0  # frame 1's chain is empty
    assert all(residuals[label] > 1e-10 for label in (2, 3, 4))
    if tail:  # a tail exchange turns the c.m. row, which the public exchange refuses
        system = frames.FrameSystem.from_masses([1.0, 2.0, 3.0, 4.0])
        chart = frames.adjacent_exchange(system, frames.build_chart(system, 1), 2).target
        with pytest.raises(ChartMismatch):
            frames.adjacent_exchange(system, chart, 1)


def test_freeclock_table_builds_its_position_table_once(tmp_path, monkeypatch):
    calls = []
    original = relkin.position_wavefunction

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(relkin, "position_wavefunction", counted)
    sc = _edited("freeclock-dilation", mc_samples=1000, grid_points=256)
    assert len(sc["tau_grid"]) == 3
    path = write_scenario(tmp_path, sc)
    assert cli.main(["run", "--scenario", path, "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


def test_dilation_table_computes_its_coefficients_once(tmp_path, monkeypatch):
    calls = []
    original = relkin._boost_moments

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(relkin, "_boost_moments", counted)
    for name in ("freeclock-dilation", "rotator-dilation"):
        path = write_scenario(tmp_path, _edited(name, mc_samples=1000, grid_points=256))
        assert cli.main(["run", "--scenario", path, "--out", str(tmp_path)]) == 0
    assert len(calls) == 2


def test_freeclock_monte_carlo_agrees_with_its_analytic_columns(tmp_path):
    path = write_scenario(tmp_path, _edited("freeclock-dilation", grid_points=256,
                                            mc_samples=20000))
    assert cli.main(["run", "--scenario", path, "--out", str(tmp_path)]) == 0
    rows = read_rows(tmp_path / "freeclock-dilation.csv")
    assert len(rows) == 3
    for row in rows:
        r = {k: float(v) for k, v in row.items()}
        assert abs(r["mc_mean"] - r["tau_mean"]) < 5 * r["mc_stderr_mean"]
        assert abs(r["mc_variance"] - r["d_tau"]) < 5 * r["mc_stderr_variance"]


def _freeclock_at_rest(grid_points):
    """The shipped free clock's tau0 = 0 row at 4e5 draws, as {column: value}."""
    table = cli.run_scenario(_edited("freeclock-dilation", grid_points=grid_points,
                                     mc_samples=400000, tau_grid=[0.0]))
    return dict(zip([name for name, _ in table.columns], table.rows[0]))


def test_freeclock_monte_carlo_variance_is_the_same_on_every_grid():
    # the draws' position table is |psi|^2 over x +- 10 sigma_x; an image of psi inside
    # it once read 11606 at 16 points and 9142 at 20, against 977.7.  Measured: 977.6648
    # at 16 and 20 points against 977.6645 at 2048, 3.1e-7 relative
    fine = _freeclock_at_rest(2048)["mc_variance"]
    for n in (16, 20):
        assert_allclose(_freeclock_at_rest(n)["mc_variance"], fine, rtol=1e-6, atol=0)


@pytest.mark.xfail(strict=True, reason="the closed-form d0 applies the 4th-order stencil, "
                   "inaccurate on a 16-point grid: d_tau reads 955.1 against the draws' "
                   "977.7, z = +10.3")
def test_freeclock_closed_form_variance_agrees_on_the_coarsest_grid():
    row = _freeclock_at_rest(16)
    assert abs(row["mc_variance"] - row["d_tau"]) < 5 * row["mc_stderr_variance"]


def test_freeclock_packet_follows_grid_points(tmp_path, monkeypatch):
    sizes = []
    original = relkin.freeclock_packet

    def recorded(*args):
        packet = original(*args)
        sizes.append(packet.grid.size)
        return packet

    monkeypatch.setattr(relkin, "freeclock_packet", recorded)
    rows = {}
    for n in (256, 2048):
        path = write_scenario(tmp_path, _edited("freeclock-dilation", mc_samples=0,
                                                grid_points=n), f"{n}.json")
        assert cli.main(["run", "--scenario", path, "--out", str(tmp_path / str(n))]) == 0
        rows[n] = read_rows(tmp_path / str(n) / "freeclock-dilation.csv")
    assert sizes == [256, 256, 2048, 2048]  # validate builds the clock system, then run
    for coarse, fine in zip(rows[256], rows[2048]):
        for column in ("tau_mean", "d_tau", "d_b", "d0", "d_x"):
            assert_allclose(float(coarse[column]), float(fine[column]), rtol=1e-5)


def test_largest_seed_runs(tmp_path):
    sc = _edited("rotator-dilation", mc_samples=1000, seed=2 ** 32 - 1, tau_grid=[1.0])
    path = write_scenario(tmp_path, sc)
    sweep = write_scenario(tmp_path, dict(sc, sweep={"omega": [0.02]}), "sweep.json")
    assert cli.main(["run", "--scenario", path, "--out", str(tmp_path / "run")]) == 0
    assert cli.main(["sweep", "--scenario", sweep, "--out", str(tmp_path / "sweep")]) == 0


def test_integral_float_counts_are_read_as_integers(tmp_path):
    for tag, n in (("int", 2048), ("float", 2048.0)):
        path = write_scenario(tmp_path, _edited("rotator-dilation", mc_samples=0,
                                                grid_points=n), f"{tag}.json")
        assert cli.main(["validate", "--scenario", path]) == 0
        assert cli.main(["run", "--scenario", path, "--out", str(tmp_path / tag)]) == 0
    assert (tmp_path / "int" / "rotator-dilation.csv").read_bytes() == \
           (tmp_path / "float" / "rotator-dilation.csv").read_bytes()


@pytest.mark.parametrize("name", ["rotator-dilation", "frame-transform"])
def test_explicit_grid_is_honoured(tmp_path, name):
    sc = _edited(name, mc_samples=0)
    center, width = sc["packet_center"], sc["packet_width"]
    wide = dict(sc, grid_min=center - 8 * width, grid_max=center + 8 * width)
    for tag, payload in (("default", sc), ("wide", wide)):
        path = write_scenario(tmp_path, payload, f"{tag}.json")
        assert cli.main(["run", "--scenario", path, "--out", str(tmp_path / tag)]) == 0
    a, b = (tmp_path / "default" / f"{name}.csv"), (tmp_path / "wide" / f"{name}.csv")
    assert a.read_bytes() != b.read_bytes()
    for row_a, row_b in zip(read_rows(a), read_rows(b)):
        for col, cell in row_a.items():
            if cell == "" or col.startswith("mc_"):
                continue
            try:
                x, y = float(cell), float(row_b[col])
            except ValueError:
                assert cell == row_b[col]
                continue
            assert abs(x - y) <= 1e-3 * max(abs(x), abs(y)) + 1e-12, col


class TestRunOutputs:
    def test_classical_boost_recovers_lorentz_factor(self, tmp_path):
        rc = cli.main(["run", "--scenario", str(SCENARIO_DIR / "classical-boost.json"),
                       "--out", str(tmp_path)])
        assert rc == 0
        rows = read_rows(tmp_path / "classical-boost.csv")
        assert float(rows[0]["tau_mean"]) == pytest.approx(8.0, abs=1e-3)
        prov = json.loads((tmp_path / "classical-boost.provenance.json").read_text())
        assert prov["seed"] == 11 and prov["grid_points"] == 2048
        assert len(prov["scenario_hash"]) == 64

    def test_nonrel_final_row_reaches_mass_ratio(self, tmp_path):
        cli.main(["run", "--scenario", str(SCENARIO_DIR / "nonrel-limit.json"),
                  "--out", str(tmp_path)])
        rows = read_rows(tmp_path / "nonrel-limit.csv")
        assert float(rows[-1]["h_ratio"]) == pytest.approx(2.0, abs=1e-3)

    def test_entangled_histogram_shows_predicted_peaks(self, tmp_path):
        cli.main(["run", "--scenario", str(SCENARIO_DIR / "entangled-clock.json"),
                  "--out", str(tmp_path)])
        rows = read_rows(tmp_path / "entangled-clock.csv")
        theta = np.array([float(r["theta"]) for r in rows])
        rho = np.array([float(r["density"]) for r in rows])
        peaks = theta[(rho > np.roll(rho, 1)) & (rho > np.roll(rho, -1))
                      & (rho > 0.5 * rho.max())]
        prov = json.loads((tmp_path / "entangled-clock.provenance.json").read_text())
        predicted = prov["summary"]["predicted_peaks"]
        assert len(peaks) == len(predicted) == 2
        for found, want in zip(np.sort(peaks), predicted):
            assert found == pytest.approx(want, abs=np.pi / 25)

    def test_no_temp_files_left_behind(self, tmp_path):
        cli.main(["run", "--scenario", str(SCENARIO_DIR / "jacobi-demo.json"),
                  "--out", str(tmp_path)])
        assert not [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]

    def test_missing_mc_columns_are_empty(self, tmp_path):
        cli.main(["run", "--scenario", str(SCENARIO_DIR / "classical-boost.json"),
                  "--out", str(tmp_path)])
        rows = read_rows(tmp_path / "classical-boost.csv")
        assert rows[0]["mc_mean"] == "" and rows[0]["d_x"] == ""

    def test_crlf_line_endings(self, tmp_path):
        cli.main(["run", "--scenario", str(SCENARIO_DIR / "jacobi-demo.json"),
                  "--out", str(tmp_path)])
        raw = (tmp_path / "jacobi-demo.csv").read_bytes()
        assert raw.count(b"\r\n") == raw.count(b"\n")


class TestReproducibility:
    def test_same_seed_gives_identical_bytes(self, tmp_path):
        args = ["run", "--scenario", str(SCENARIO_DIR / "rotator-dilation.json"),
                "--mc-samples", "20000"]
        cli.main(args + ["--out", str(tmp_path / "a")])
        cli.main(args + ["--out", str(tmp_path / "b")])
        for name in ("rotator-dilation.csv", "rotator-dilation.provenance.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    def test_seed_override_changes_mc_but_not_quadrature(self, tmp_path):
        base = ["run", "--scenario", str(SCENARIO_DIR / "rotator-dilation.json"),
                "--mc-samples", "20000"]
        cli.main(base + ["--out", str(tmp_path / "a")])
        cli.main(base + ["--seed", "999", "--out", str(tmp_path / "b")])
        ra = read_rows(tmp_path / "a" / "rotator-dilation.csv")
        rb = read_rows(tmp_path / "b" / "rotator-dilation.csv")
        assert ra[0]["mc_mean"] != rb[0]["mc_mean"]
        assert ra[0]["tau_mean"] == rb[0]["tau_mean"]

    @pytest.mark.parametrize("name", ["classical-boost", "freeclock-dilation",
                                      "nonrel-limit"])
    def test_doubling_grid_moves_quadrature_under_a_tenth_percent(self, tmp_path, name):
        sc_path = str(SCENARIO_DIR / f"{name}.json")
        cli.main(["run", "--scenario", sc_path, "--mc-samples", "0",
                  "--out", str(tmp_path / "lo")])
        cli.main(["run", "--scenario", sc_path, "--mc-samples", "0",
                  "--grid-points", "4096", "--out", str(tmp_path / "hi")])
        lo = read_rows(tmp_path / "lo" / f"{name}.csv")
        hi = read_rows(tmp_path / "hi" / f"{name}.csv")
        for row_lo, row_hi in zip(lo, hi):
            for col, cell in row_lo.items():
                if cell == "" or col.startswith("mc_"):
                    continue
                a, b = float(cell), float(row_hi[col])
                assert abs(a - b) <= 1e-3 * max(abs(a), abs(b)) + 1e-12, col


class TestSweep:
    def make_sweep(self, tmp_path):
        sc = cli.load_scenario(str(SCENARIO_DIR / "classical-boost.json"))
        sc["name"] = "boost-sweep"
        sc["seed"] = 100
        sc["sweep"] = {"omega": [0.001, 0.002], "j_z": [2, 3]}
        return write_scenario(tmp_path, sc, "sweep.json")

    def test_cartesian_expansion_and_derived_seeds(self, tmp_path):
        path = self.make_sweep(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["sweep", "--scenario", path, "--out", str(out)]) == 0
        names = sorted(p.name for p in out.glob("*.csv"))
        assert names == [f"boost-sweep-{i:03d}.csv" for i in range(4)]
        seeds = []
        for i in range(4):
            prov = json.loads((out / f"boost-sweep-{i:03d}.provenance.json").read_text())
            seeds.append(prov["seed"])
        assert seeds == [100, 101, 102, 103]

    def test_thread_cap_respected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QRF_THREADS", "1")
        assert cli._worker_count(8) == 1
        monkeypatch.setenv("QRF_THREADS", "banana")
        with pytest.raises(ConfigError):
            cli._worker_count(8)

    def test_sweep_requires_sweep_block(self, tmp_path):
        plain = str(SCENARIO_DIR / "jacobi-demo.json")
        assert cli.main(["sweep", "--scenario", plain, "--out", str(tmp_path)]) == 2

    def test_sweep_validates_children_before_running(self, tmp_path):
        sc = cli.load_scenario(str(SCENARIO_DIR / "classical-boost.json"))
        sc["sweep"] = {"omega": [0.001, -1.0]}
        path = write_scenario(tmp_path, sc, "bad-sweep.json")
        out = tmp_path / "out"
        assert cli.main(["sweep", "--scenario", path, "--out", str(out)]) == 2
        assert not out.exists() or not list(out.glob("*.csv"))
