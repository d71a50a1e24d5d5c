import copy
import csv
import json
import os
import re
import shlex
import signal
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

import uavrelay
from uavrelay.cli import GAMMA, main, parse_scenario
from uavrelay.errors import SchemaError
from uavrelay.stochastic import BetaField, DeterministicField

from conftest import C_LOS, C_NLOS, write_scenario_yaml


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def scenario_file(tmp_path):
    return write_scenario_yaml(tmp_path / "scenario.yaml", d_min=4.0)


def test_cli_import_leaves_scipy_out():
    """scipy is a test-only dependency: importing the CLI must not load it."""
    env = dict(os.environ)
    package_root = str(Path(uavrelay.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    code = "import sys, uavrelay.cli; print('scipy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


# ------------------------------------------------------------------- parsing

def test_parse_scenario_round_trip(scenario_file):
    s, sources, model = parse_scenario(str(scenario_file))
    assert s.distance_tx_rx == 1000.0
    assert s.msi_x == 500.0 and s.msi_y == 400.0
    assert s.d_min == 4.0
    assert sources == [] and model is None


def test_parse_scenario_rejects_unknown_keys(tmp_path):
    path = write_scenario_yaml(tmp_path / "s.yaml")
    text = path.read_text().replace("d_m: 1000.0", "d_m: 1000.0\n  d: 5")
    path.write_text(text)
    with pytest.raises(SchemaError, match="unknown key"):
        parse_scenario(str(path))


def test_parse_scenario_requires_unit_suffixes(tmp_path):
    path = tmp_path / "s.yaml"
    path.write_text(
        "channel: {carrier_frequency_hz: 2.0e9, c_los: 1.0, c_nlos: 100.0}\n"
        "geometry: {d: 1000, msi_x_m: 500, msi_y_m: 400, h_min_m: 5, h_max_m: 400}\n"
        "powers: {p_tx_w: 80, p_uav_w: 1, p_msi_w: 80}\n")
    with pytest.raises(SchemaError):
        parse_scenario(str(path))


def test_parse_scenario_missing_file():
    with pytest.raises(SchemaError, match="not found"):
        parse_scenario("/nonexistent/path.yaml")


def test_parse_scenario_with_sources(tmp_path):
    path = write_scenario_yaml(
        tmp_path / "s.yaml",
        extra="sources:\n  - {x_m: 100.0, y_m: 50.0, p_w: 2.0}\n"
              "  - {x_m: 400.0, y_m: 20.0, p_w: 3.0}")
    _, sources, _ = parse_scenario(str(path))
    assert len(sources) == 2
    assert sources[1].power == 3.0


def test_parse_field_variants(tmp_path):
    beta = write_scenario_yaml(
        tmp_path / "beta.yaml",
        extra="interference_field:\n  variant: beta\n  alpha: 3.0\n"
              "  beta: 1.0\n  i_max_w: 2.0\n  altitude_m: 100.0")
    _, _, model = parse_scenario(str(beta))
    assert isinstance(model, BetaField)
    assert model.upsilon_at(10.0) == pytest.approx(1.5 / 2.0)

    tab = write_scenario_yaml(
        tmp_path / "tab.yaml",
        extra="interference_field:\n  variant: tabulated_upsilon\n"
              "  x_m: [0.0, 1000.0]\n  upsilon: [2.0, 4.0]\n"
              "  altitude_m: 100.0")
    _, _, model = parse_scenario(str(tab))
    assert isinstance(model, DeterministicField)
    assert model.upsilon_at(500.0) == pytest.approx(3.0)

    knots = write_scenario_yaml(
        tmp_path / "knots.yaml",
        extra="interference_field:\n  variant: beta_knots\n"
              "  x_m: [0.0, 1000.0]\n  alpha: [2.0, 4.0]\n"
              "  beta: [1.0, 1.0]\n  i_max_w: 1.0\n  altitude_m: 100.0")
    _, _, model = parse_scenario(str(knots))
    assert model.upsilon_at(0.0) == pytest.approx(2.0)
    assert model.upsilon_at(1000.0) == pytest.approx(4.0 / 3.0)


def test_parse_field_rejects_unsorted_knots(runner, tmp_path):
    path = write_scenario_yaml(
        tmp_path / "s.yaml",
        extra="interference_field:\n  variant: tabulated_upsilon\n"
              "  x_m: [0.0, 1000.0, 500.0]\n  upsilon: [2.0, 4.0, 3.0]\n"
              "  altitude_m: 100.0")
    with pytest.raises(SchemaError, match="strictly increasing"):
        parse_scenario(str(path))
    result = runner.invoke(main, ["stochastic-single", str(path), "--h", "20"])
    assert result.exit_code == 2


def test_parse_field_bad_variant(tmp_path):
    path = write_scenario_yaml(
        tmp_path / "s.yaml",
        extra="interference_field:\n  variant: gaussian\n  power_w: 1.0")
    with pytest.raises(SchemaError, match="variant"):
        parse_scenario(str(path))


#: A valid scenario naming every section; FIELDS holds one field per variant.
BASE_DOC = {
    "channel": {"carrier_frequency_hz": 2.0e9, "c_los": C_LOS,
                "c_nlos": C_NLOS},
    "geometry": {"d_m": 1000.0, "msi_x_m": 500.0, "msi_y_m": 400.0,
                 "h_min_m": 5.0, "h_max_m": 400.0},
    "powers": {"p_tx_w": 80.0, "p_uav_w": 1.0, "p_msi_w": 80.0},
    "sources": [{"x_m": 100.0, "y_m": 50.0, "p_w": 2.0}],
}
FIELDS = {
    "deterministic": {"power_w": 1.0, "altitude_m": 100.0},
    "beta": {"alpha": 3.0, "beta": 1.0, "i_max_w": 1.0, "altitude_m": 100.0},
    "beta_knots": {"x_m": [0.0, 1000.0], "alpha": [2.0, 4.0],
                   "beta": [1.0, 1.0], "i_max_w": 1.0, "altitude_m": 100.0},
    "tabulated_upsilon": {"x_m": [0.0, 1000.0], "upsilon": [2.0, 4.0],
                          "altitude_m": 100.0},
}
DROP = object()

#: name -> (field variant or None, path to a mapping or list, key (None: the
#: mapping's last key), new value or DROP).
SCHEMA_FAULTS = {
    "no-geometry-section": (None, (), "geometry", DROP),
    "powers-not-a-mapping": (None, (), "powers", [80.0, 1.0, 80.0]),
    "sources-not-a-list": (None, (), "sources", {"x_m": 1.0}),
    "source-not-a-mapping": (None, ("sources",), 0, 5.0),
    "field-not-a-mapping": ("beta", (), "interference_field", "beta"),
    "field-without-variant": ("beta", ("interference_field",), "variant",
                              DROP),
    "unknown-variant": ("beta", ("interference_field",), "variant",
                        "gaussian"),
    "bool-for-number": (None, ("geometry",), "d_m", True),
    "string-for-number": (None, ("powers",), "p_tx_w", "80 W"),
    "string-for-source-number": (None, ("sources", 0), "x_m", "east"),
    "bool-for-field-number": ("beta", ("interference_field",), "alpha", True),
    "scalar-for-list": ("tabulated_upsilon", ("interference_field",), "x_m",
                        500.0),
    "empty-list": ("beta_knots", ("interference_field",), "beta", []),
    "string-in-list": ("beta_knots", ("interference_field",), "alpha",
                       [2.0, "4"]),
    "unequal-knots": ("tabulated_upsilon", ("interference_field",),
                      "upsilon", [2.0, 3.0, 4.0]),
}
for _name, _variant, _path in [
        ("channel", None, ("channel",)), ("geometry", None, ("geometry",)),
        ("powers", None, ("powers",)), ("source", None, ("sources", 0)),
        *[(v, v, ("interference_field",)) for v in FIELDS]]:
    SCHEMA_FAULTS[f"{_name}-unknown-key"] = (_variant, _path, "extra_m", 1.0)
    SCHEMA_FAULTS[f"{_name}-missing-key"] = (_variant, _path, None, DROP)


def write_fault(path, variant, where, key, value):
    """Write BASE_DOC, with a field of `variant`, after setting `key` (None:
    the last key) of the mapping or list at path `where` to `value`."""
    doc = copy.deepcopy(BASE_DOC)
    if variant:
        doc["interference_field"] = {"variant": variant, **FIELDS[variant]}
    target = doc
    for step in where:
        target = target[step]
    key = list(target)[-1] if key is None else key
    if value is DROP:
        del target[key]
    else:
        target[key] = value
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    return path


def assert_schema_error(runner, path, out):
    with pytest.raises(SchemaError):
        parse_scenario(str(path))
    result = runner.invoke(main, ["dualhop-opt", str(path), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert not Path(f"{out}.json").exists()


@pytest.mark.parametrize("case", sorted(SCHEMA_FAULTS))
def test_schema_faults_exit_2(runner, tmp_path, case):
    """Each malformed section, source entry and field variant is a schema
    error, and the CLI exits 2 on it without a traceback."""
    path = write_fault(tmp_path / "s.yaml", *SCHEMA_FAULTS[case])
    assert_schema_error(runner, path, tmp_path / "o")


@pytest.mark.parametrize("fault", [
    (None, (), 7, 1.0), (None, ("geometry",), 1, 5.0),
    ("beta", ("interference_field",), "variant", ["beta"])],
    ids=["integer-top-level-key", "integer-geometry-key", "list-variant"])
def test_keys_and_variants_of_any_type_are_schema_errors(runner, tmp_path,
                                                         fault):
    path = write_fault(tmp_path / "s.yaml", *fault)
    assert_schema_error(runner, path, tmp_path / "o")


def upsilon_scenario(tmp_path, knots):
    return write_scenario_yaml(
        tmp_path / "s.yaml",
        extra="interference_field:\n  variant: tabulated_upsilon\n"
              f"  x_m: [0.0, 1000.0]\n  upsilon: {knots}\n"
              "  altitude_m: 100.0")


@pytest.mark.parametrize("knots", ["[0.0, 4.0]", "[-1.0, 4.0]", "[2.0, .inf]",
                                   "[2.0, .nan]"])
def test_tabulated_upsilon_knots_must_be_positive_and_finite(tmp_path, knots):
    with pytest.raises(SchemaError, match="upsilon"):
        parse_scenario(str(upsilon_scenario(tmp_path, knots)))


@pytest.mark.parametrize("args", [
    ["stochastic-design", "--gamma", "1e-7", "--h", "20"],
    ["oracle-exhaustive", "--kind", "stochastic", "--gamma", "1e-7",
     "--h", "20"],
    ["stochastic-single", "--h", "20"]])
def test_zero_upsilon_knot_exits_2(runner, tmp_path, args):
    path = upsilon_scenario(tmp_path, "[0.0, 4.0]")
    result = runner.invoke(main, [args[0], str(path), *args[1:]])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output


def test_readme_scenario_parses(tmp_path):
    """The README's scenario block parses, and so does each field example
    put in place of its interference_field."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    first, *fields = re.findall(r"```yaml\n(.*?)```", readme.read_text(),
                                re.S)
    path = tmp_path / "s.yaml"
    path.write_text(first)
    s, sources, model = parse_scenario(str(path))
    assert (s.distance_tx_rx, s.d_min, len(sources)) == (1000.0, 4.0, 1)
    assert isinstance(model, BetaField)
    assert fields
    for text in fields:
        path.write_text(first.split("interference_field:")[0] + text)
        _, _, model = parse_scenario(str(path))
        assert model.upsilon_at(500.0) > 0.0


def test_gamma_flag_parsing():
    assert GAMMA.convert("x12.5", None, None) == pytest.approx(12.5)
    assert GAMMA.convert("11db", None, None) == pytest.approx(10.0 ** 1.1)
    assert GAMMA.convert("3.5", None, None) == pytest.approx(3.5)
    with pytest.raises(Exception):
        GAMMA.convert("twelve", None, None)


# ------------------------------------------------------------------ commands

def run_ok(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


def test_dualhop_opt_writes_record(runner, scenario_file, tmp_path):
    out = tmp_path / "opt"
    doc = run_ok(runner, ["dualhop-opt", str(scenario_file), "--out", str(out)])
    assert set(doc) == {"command", "parameters", "outputs", "provenance"}
    assert 0.0 <= doc["outputs"]["x_m"] <= 1000.0
    assert (tmp_path / "opt.json").exists()
    csv_text = (tmp_path / "opt.csv").read_text()
    assert csv_text.splitlines()[0] == "x_m,h_m,sir_system"


def test_dualhop_locus(runner, scenario_file, tmp_path):
    out = tmp_path / "locus"
    doc = run_ok(runner, ["dualhop-locus", str(scenario_file),
                          "--samples", "64", "--out", str(out)])
    assert doc["outputs"]["samples"] == 64
    lines = (tmp_path / "locus.csv").read_text().splitlines()
    assert len(lines) == 65


def test_dualhop_locus_last_sample_is_d(runner, tmp_path):
    # D * 399 / 399 rounds above this D, which put the last sample past D.
    d = 994.9141357377096
    path = write_scenario_yaml(tmp_path / "s.yaml", d=d)
    out = tmp_path / "locus"
    run_ok(runner, ["dualhop-locus", str(path), "--samples", "400",
                    "--out", str(out)])
    last = (tmp_path / "locus.csv").read_text().splitlines()[-1]
    assert float(last.split(",")[0]) == d


def test_dualhop_locus_needs_two_samples(runner, scenario_file):
    for samples in ("1", "0"):
        result = runner.invoke(main, ["dualhop-locus", str(scenario_file),
                                      "--samples", samples])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)


def test_non_finite_inputs_exit_2(runner, scenario_file, tmp_path):
    for gamma in ("nan", "inf", "x-1", "nandb"):
        result = runner.invoke(main, ["multihop-design", str(scenario_file),
                                      "--gamma", gamma, "--h", "20"])
        assert result.exit_code == 2, (gamma, result.output)
        assert "NaN" not in result.output
    for axis in ("gamma=nan", "gamma=-1", "epsilon=nan"):
        result = runner.invoke(main, ["sweep", str(scenario_file),
                                      "multihop-distributed", "--param", axis,
                                      "--n-uavs", "2", "--h", "20"])
        assert result.exit_code == 2, (axis, result.output)
    result = runner.invoke(main, ["sweep", str(scenario_file),
                                  "multihop-design", "--param", "gamma=nan",
                                  "--h", "20"])
    assert result.exit_code == 2, result.output
    result = runner.invoke(main, ["sweep", str(scenario_file),
                                  "multihop-distributed", "--param", "h=20",
                                  "--n-uavs", "2", "--epsilon", "nan"])
    assert result.exit_code == 2, result.output
    path = write_scenario_yaml(tmp_path / "s.yaml", msi_y=".nan")
    result = runner.invoke(main, ["dualhop-opt", str(path)])
    assert result.exit_code == 2, result.output
    path = write_scenario_yaml(
        tmp_path / "s.yaml",
        extra="sources:\n  - {x_m: 200.0, y_m: 50.0, p_w: .nan}")
    result = runner.invoke(main, ["msi-fit", str(path)])
    assert result.exit_code == 2, result.output


def test_counts_below_their_minimum_exit_2(runner, scenario_file):
    for args in (["oracle-exhaustive", "--gamma", "x5", "--h", "20",
                  "--per-hop-grid", "-1"],
                 ["oracle-exhaustive", "--gamma", "x5", "--h", "20",
                  "--n-max", "0"],
                 ["oracle-exhaustive", "--gamma", "x5", "--h", "20",
                  "--n-max", "-3"],
                 ["refine-altitudes", "--n-uavs", "3", "--h", "20",
                  "--iterations", "-1"],
                 ["baseline-random", "--n-uavs", "3", "--seed", "-1"]):
        result = runner.invoke(main, [args[0], str(scenario_file), *args[1:]])
        assert result.exit_code == 2, (args, result.output)


def test_baseline_without_a_separated_split_exits_3(runner, tmp_path):
    path = write_scenario_yaml(tmp_path / "s.yaml", d_min=2000.0)
    out = tmp_path / "bl"
    result = runner.invoke(main, ["baseline-random", str(path), "--n-uavs",
                                  "3", "--trials", "5", "--out", str(out)])
    assert result.exit_code == 3, result.output
    assert "d_min" in result.output
    assert not (tmp_path / "bl.json").exists()


@pytest.mark.parametrize("grid", ["0x5", "5x0", "-3x5"])
def test_msi_fit_empty_grid_exits_2(runner, tmp_path, grid):
    path = write_scenario_yaml(
        tmp_path / "s.yaml",
        extra="sources:\n  - {x_m: 200.0, y_m: 50.0, p_w: 2.0}")
    result = runner.invoke(main, ["msi-fit", str(path), "--grid", grid])
    assert result.exit_code == 2, result.output


#: Every command that takes --h, with the other flags it needs.
ALTITUDE_COMMANDS = {
    "multihop-design": ["--gamma", "x5"],
    "multihop-distributed": ["--n-uavs", "3"],
    "refine-altitudes": ["--n-uavs", "3", "--iterations", "1"],
    "stochastic-single": ["--epsilon", "1e-9"],
    "stochastic-design": ["--gamma", "1e-7"],
    "stochastic-distributed": ["--n-uavs", "3", "--epsilon", "1e-9"],
    "oracle-exhaustive": ["--gamma", "x5", "--per-hop-grid", "8"],
    "oracle-exhaustive-stochastic": ["--gamma", "1e-7", "--kind", "stochastic",
                                     "--per-hop-grid", "8"],
    "dualhop-case": [],
}


@pytest.mark.parametrize("h", ["nan", "0", "2", "1e6"])
@pytest.mark.parametrize("name", sorted(ALTITUDE_COMMANDS))
def test_altitude_outside_band_exits_2(runner, tmp_path, name, h):
    """The band is [5, 400]: NaN, zero, below and far above all exit 2."""
    path = write_scenario_yaml(
        tmp_path / "s.yaml", d_min=4.0,
        extra="interference_field:\n  variant: beta\n  alpha: 3.0\n"
              "  beta: 1.0\n  i_max_w: 1.0\n  altitude_m: 100.0")
    command = name.removesuffix("-stochastic")
    result = runner.invoke(main, [command, str(path), "--h", h,
                                  *ALTITUDE_COMMANDS[name]])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "h outside [h_min, h_max]" in result.output
    assert "Traceback" not in result.output


#: Commands run on powers of 1e300 W against 1e-10 W, with their exit code:
#: the start target of the deterministic scan overflows to inf (4), and the
#: default epsilon of 0.1 is below the float spacing at the start target of
#: the stochastic scans (2).
EXTREME_POWER_COMMANDS = {
    "multihop-distributed": (["--n-uavs", "3"], 4),
    "stochastic-single": ([], 2),
    "stochastic-distributed": (["--n-uavs", "3"], 2),
}


@pytest.mark.parametrize("name", sorted(EXTREME_POWER_COMMANDS))
def test_extreme_powers_exit_with_a_documented_code(runner, tmp_path, name):
    path = write_scenario_yaml(
        tmp_path / "s.yaml", p_tx="1.0e+300", p_uav="1.0e+300",
        p_msi="1.0e-10",
        extra="interference_field:\n  variant: beta\n  alpha: 3.0\n"
              "  beta: 1.0\n  i_max_w: 1.0\n  altitude_m: 100.0")
    flags, code = EXTREME_POWER_COMMANDS[name]

    def stuck(signum, frame):
        raise TimeoutError(f"{name} still running after 10 s")

    previous = signal.signal(signal.SIGALRM, stuck)
    signal.setitimer(signal.ITIMER_REAL, 10.0)
    try:
        result = runner.invoke(main, [name, str(path), "--h", "20", *flags])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert result.exit_code == code, (result.output, result.exception)
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output


#: Scenarios whose oracle grid's best system SIR is not finite: powers of
#: 1e305 W on a 30 km span (inf / inf, NaN), and a subnormal interferer
#: power on a centimetre span (a denominator that underflows, inf).
NON_FINITE_GRIDS = {
    "nan": dict(d=30000.0, msi_x=20000.0, p_tx="1.0e+305", p_msi="1.0e+305"),
    "inf": dict(d=0.155767272433976, msi_x=0.13160014967889908,
                msi_y=0.044954035344530886, p_tx=1.153639606816173,
                p_uav=0.1155807942460021, p_msi="6.1e-322",
                h_min=0.0010901731210811885, h_max=7.861318924085124),
}


@pytest.mark.parametrize("best", sorted(NON_FINITE_GRIDS))
def test_oracle_grid_with_a_non_finite_best_exits_4(runner, tmp_path, best):
    path = write_scenario_yaml(tmp_path / "s.yaml", **NON_FINITE_GRIDS[best])
    out = tmp_path / "grid"
    result = runner.invoke(main, ["oracle-grid", str(path), "--out", str(out)])
    assert result.exit_code == 4, (result.output, result.exception)
    assert isinstance(result.exception, SystemExit)
    assert f"the grid's best system SIR is {best}" in result.output
    assert "Traceback" not in result.output
    assert not out.with_suffix(".json").exists()


def test_sweep_point_with_a_non_finite_grid_best_fails(runner, tmp_path):
    path = write_scenario_yaml(tmp_path / "s.yaml", **NON_FINITE_GRIDS["nan"])
    result = runner.invoke(main, ["sweep", str(path), "oracle-grid",
                                  "--param", "powers.p_tx_w=1:1e305:2",
                                  "--grid", "50x50",
                                  "--out", str(tmp_path / "sweep")])
    assert result.exit_code == 0, (result.output, result.exception)
    doc = json.loads((tmp_path / "sweep.json").read_text())
    assert doc["outputs"] == {"ok": 1, "failed": 1}
    rows = list(csv.DictReader((tmp_path / "sweep.csv").open()))
    assert rows[0]["status"] == "ok"
    assert rows[1]["status"].startswith("error: the grid's best system SIR is nan")


def test_dualhop_opt_with_an_overflowing_quartic_exits_4(runner, tmp_path):
    """Draw "extreme powers 20" of the answer comparison's dualhop corpus:
    the locus quartic's coefficients overflow to inf and NaN."""
    path = write_scenario_yaml(
        tmp_path / "s.yaml", d=7702.964478090886, msi_x=2458.3175271542386,
        msi_y=7318.1175013629645, p_tx="6.268543075210559e+303",
        p_uav="1.941432912883362e+305", p_msi="4.937560383640017e-305",
        h_min=0.0003525440095602834, h_max=0.36475752812004547)
    result = runner.invoke(main, ["dualhop-opt", str(path),
                                  "--out", str(tmp_path / "opt")])
    assert result.exit_code == 4, (result.output, result.exception)
    assert isinstance(result.exception, SystemExit)
    assert "the locus quartic" in result.output
    assert "Traceback" not in result.output


def test_oracle_exhaustive_with_an_overflowing_altitude_square_exits_4(
        runner, tmp_path):
    """The README scenario with a band up to 1e200 m: h = 1e160 is in the
    band, but h ** 2 overflows a float."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    first = re.findall(r"```yaml\n(.*?)```", readme.read_text(), re.S)[0]
    path = tmp_path / "s.yaml"
    path.write_text(first.replace("h_max_m: 400.0", "h_max_m: 1.0e+200"))
    result = runner.invoke(main, ["oracle-exhaustive", str(path),
                                  "--gamma", "x5", "--h", "1e160",
                                  "--out", str(tmp_path / "ex")])
    assert result.exit_code == 4, (result.output, result.exception)
    assert isinstance(result.exception, SystemExit)
    assert "the altitude's square overflows" in result.output
    assert "Traceback" not in result.output


def _readme_scenario(tmp_path, **values):
    """The README's first scenario file with some `key: value` lines replaced."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = re.findall(r"```yaml\n(.*?)```", readme.read_text(), re.S)[0]
    for key, value in values.items():
        text, count = re.subn(rf"({key}: )\S+", rf"\g<1>{value}", text)
        assert count == 1, key
    path = tmp_path / "s.yaml"
    path.write_text(text)
    return path


def test_oracle_exhaustive_with_an_overflowing_interferer_offset_exits_4(
        runner, tmp_path):
    """msi_y = 1e160: Y ** 2 of the deterministic oracle overflows a float."""
    path = _readme_scenario(tmp_path, msi_y_m="1.0e+160")
    result = runner.invoke(main, ["oracle-exhaustive", str(path),
                                  "--gamma", "5", "--h", "20",
                                  "--out", str(tmp_path / "ex")])
    assert result.exit_code == 4, (result.output, result.exception)
    assert isinstance(result.exception, SystemExit)
    assert "square out of the float range" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("command", ["multihop-distributed", "refine-altitudes"])
def test_distributed_round_out_of_the_float_range_exits_4(runner, tmp_path, command):
    """A UAV power of 2.25e303 W: a middle hop's (q * span) ** 2 overflows
    in a round of the epsilon scan, which is a numeric failure."""
    path = _readme_scenario(
        tmp_path, d_m=1283.51, msi_x_m=949.67, msi_y_m=1183.82, h_min_m=0.001,
        h_max_m=100.0, p_tx_w=3.894, p_uav_w="2.25e+303", p_msi_w=7.672)
    result = runner.invoke(main, [command, str(path), "--n-uavs", "9",
                                  "--h", "20", "--out", str(tmp_path / "d")])
    assert result.exit_code == 4, (result.output, result.exception)
    assert isinstance(result.exception, SystemExit)
    assert "leaves the float range" in result.output
    assert "Traceback" not in result.output
    assert not list(tmp_path.glob("d*"))


def test_refine_eps_h_nan_exits_2(runner, scenario_file):
    result = runner.invoke(main, ["refine-altitudes", str(scenario_file),
                                  "--n-uavs", "3", "--h", "20",
                                  "--iterations", "1", "--eps-h", "nan"])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "eps_h must be finite" in result.output
    assert "Traceback" not in result.output



def test_msi_fit_source_far_off_the_axis_exits_2(runner, tmp_path):
    path = write_scenario_yaml(
        tmp_path / "s.yaml",
        extra="sources:\n  - {x_m: 1.0, y_m: 1.0e+200, p_w: 1.0}")
    result = runner.invoke(main, ["msi-fit", str(path)])
    assert result.exit_code == 2, (result.output, result.exception)
    assert isinstance(result.exception, SystemExit)
    assert "overflows" in result.output
    assert "Traceback" not in result.output

def test_multihop_design(runner, scenario_file, tmp_path):
    out = tmp_path / "design"
    doc = run_ok(runner, ["multihop-design", str(scenario_file),
                          "--gamma", "x5", "--h", "20", "--out", str(out)])
    assert doc["outputs"]["n_uavs"] >= 1
    assert doc["outputs"]["system_sir"] >= 5.0 * (1.0 - 1e-9)


def test_multihop_design_infeasible_exit_code(runner, scenario_file):
    result = runner.invoke(main, ["multihop-design", str(scenario_file),
                                  "--gamma", "x1e9", "--h", "20"])
    assert result.exit_code == 3


def test_schema_error_exit_code(runner, tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("nope: 1\n")
    result = runner.invoke(main, ["dualhop-opt", str(bad)])
    assert result.exit_code == 2


def test_multihop_distributed(runner, scenario_file, tmp_path):
    out = tmp_path / "dist"
    doc = run_ok(runner, ["multihop-distributed", str(scenario_file),
                          "--n-uavs", "5", "--h", "20", "--out", str(out)])
    assert doc["outputs"]["gamma_final"] > 0.0
    assert len(doc["outputs"]["hops_m"]) == 6


def test_stochastic_commands(runner, tmp_path):
    path = write_scenario_yaml(
        tmp_path / "s.yaml", d=300.0, msi_x=150.0, msi_y=100.0,
        extra="interference_field:\n  variant: beta\n  alpha: 3.0\n"
              "  beta: 1.0\n  i_max_w: 1.0\n  altitude_m: 100.0")
    out = tmp_path / "single"
    doc = run_ok(runner, ["stochastic-single", str(path), "--h", "20",
                          "--epsilon", "1e-9", "--out", str(out)])
    assert 0.0 <= doc["outputs"]["x_m"] <= 300.0

    out2 = tmp_path / "design"
    doc2 = run_ok(runner, ["stochastic-design", str(path),
                           "--gamma", "1e-7", "--h", "20",
                           "--out", str(out2)])
    assert doc2["outputs"]["n_uavs"] >= 1

    out3 = tmp_path / "dist"
    doc3 = run_ok(runner, ["stochastic-distributed", str(path),
                           "--n-uavs", "3", "--h", "20",
                           "--epsilon", "1e-9", "--out", str(out3)])
    assert len(doc3["outputs"]["hops_m"]) == 4


def test_stochastic_needs_field(runner, scenario_file):
    result = runner.invoke(main, ["stochastic-single", str(scenario_file),
                                  "--h", "20"])
    assert result.exit_code == 2


def test_msi_fit_command(runner, tmp_path):
    path = write_scenario_yaml(
        tmp_path / "s.yaml",
        extra="sources:\n  - {x_m: 200.0, y_m: 50.0, p_w: 2.0}")
    doc = run_ok(runner, ["msi-fit", str(path), "--out",
                          str(tmp_path / "fit")])
    assert doc["outputs"]["x_h_m"] == pytest.approx(200.0, abs=1e-4)


def test_oracle_and_baseline_commands(runner, scenario_file, tmp_path):
    doc = run_ok(runner, ["oracle-grid", str(scenario_file),
                          "--grid", "80x40", "--out", str(tmp_path / "og")])
    assert doc["outputs"]["sir_system"] > 0.0

    doc2 = run_ok(runner, ["oracle-exhaustive", str(scenario_file),
                           "--gamma", "x5", "--h", "20",
                           "--per-hop-grid", "16",
                           "--out", str(tmp_path / "oe")])
    assert doc2["outputs"]["n_uavs"] != 0

    doc3 = run_ok(runner, ["baseline-random", str(scenario_file),
                           "--n-uavs", "3", "--trials", "20", "--seed", "5",
                           "--out", str(tmp_path / "bl")])
    assert doc3["outputs"]["min"] <= doc3["outputs"]["mean"]


def test_dualhop_case_command(runner, scenario_file, tmp_path):
    doc = run_ok(runner, ["dualhop-case", str(scenario_file), "--h", "50",
                          "--out", str(tmp_path / "case")])
    assert doc["outputs"]["case"] in (1, 2, 3, 4, 5)


def test_sweep_product_and_failures(runner, scenario_file, tmp_path):
    out = tmp_path / "sw"
    doc = run_ok(runner, [
        "sweep", str(scenario_file), "multihop-design",
        "--param", "powers.p_uav_w=0.5:2:2",
        "--param", "geometry.msi_y_m=100:400:2",
        "--gamma", "x5", "--h", "20", "--out", str(out)])
    assert doc["parameters"]["points"] == 4
    lines = (tmp_path / "sw.csv").read_text().splitlines()
    assert len(lines) == 5
    assert "status" in lines[0]


def test_sweep_zip_requires_equal_lengths(runner, scenario_file):
    result = runner.invoke(main, [
        "sweep", str(scenario_file), "dualhop-opt",
        "--param", "powers.p_uav_w=1:2:2",
        "--param", "geometry.msi_y_m=100:400:3", "--zip"])
    assert result.exit_code == 2


def test_sweep_integer_flag_axis(runner, scenario_file, tmp_path):
    doc = run_ok(runner, [
        "sweep", str(scenario_file), "multihop-distributed",
        "--param", "n-uavs=2:4:3", "--h", "20",
        "--out", str(tmp_path / "sw")])
    assert doc["outputs"] == {"ok": 3, "failed": 0}
    result = runner.invoke(main, [
        "sweep", str(scenario_file), "multihop-distributed",
        "--param", "n-uavs=2:4:4", "--h", "20"])
    assert result.exit_code == 2, result.output
    assert "integers" in result.output


#: Sweep command lines the subcommand cannot run: a missing flag, a flag or
#: axis the subcommand does not take, an unparsable grid.
BAD_SWEEPS = {
    "missing-gamma-and-h": ["multihop-design",
                            "--param", "powers.p_uav_w=1:2:2"],
    "missing-n-uavs": ["multihop-distributed", "--param", "h=20:40:2"],
    "unparsable-grid": ["oracle-grid", "--param", "powers.p_uav_w=1:2:2",
                        "--grid", "bad"],
    "foreign-axis": ["dualhop-opt", "--param", "h=10:20:2"],
    "foreign-flag": ["dualhop-opt", "--param", "powers.p_uav_w=1:2:2",
                     "--h", "20"],
    "foreign-epsilon": ["multihop-design", "--param", "gamma=5", "--h", "20",
                        "--epsilon", "nan"],
}


@pytest.mark.parametrize("case", sorted(BAD_SWEEPS))
def test_sweep_rejects_its_command_line_before_the_first_point(
        runner, scenario_file, tmp_path, case):
    result = runner.invoke(main, ["sweep", str(scenario_file),
                                  *BAD_SWEEPS[case],
                                  "--out", str(tmp_path / "sw")])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert not (tmp_path / "sw.json").exists()


#: A two-point sweep of each sweepable subcommand: its flags and its axis.
SWEEP_POINTS = {
    "dualhop-opt": ([], "powers.p_uav_w=0.5:2:2"),
    "oracle-grid": (["--grid", "40x20"], "geometry.msi_y_m=100:400:2"),
    "multihop-design": (["--h", "20"], "gamma=3:5:2"),
    "multihop-distributed": (["--h", "20"], "n-uavs=2:3:2"),
}

#: The conftest YAML keyword of each scenario axis above.
YAML_KEYWORDS = {"powers.p_uav_w": "p_uav", "geometry.msi_y_m": "msi_y"}


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("name", sorted(SWEEP_POINTS))
def test_sweep_point_equals_the_single_command(runner, tmp_path, name):
    """Each sweep column repeats, by repr, the single run's record or CSV."""
    flags, axis = SWEEP_POINTS[name]
    axis_name = axis.split("=")[0]
    path = write_scenario_yaml(tmp_path / "s.yaml", d_min=4.0)
    doc = run_ok(runner, ["sweep", str(path), name, "--param", axis, *flags,
                          "--out", str(tmp_path / "sw")])
    assert doc["outputs"] == {"ok": 2, "failed": 0}
    for i, point in enumerate(read_csv(tmp_path / "sw.csv")):
        value = float(point[axis_name])
        if axis_name in YAML_KEYWORDS:
            single_path = write_scenario_yaml(
                tmp_path / f"s{i}.yaml", d_min=4.0,
                **{YAML_KEYWORDS[axis_name]: value})
            point_flags = flags
        else:
            single_path = path
            text = str(int(value)) if axis_name == "n-uavs" else repr(value)
            point_flags = [*flags, f"--{axis_name}", text]
        prefix = tmp_path / f"single{i}"
        outputs = run_ok(runner, [name, str(single_path), *point_flags,
                                  "--out", str(prefix)])["outputs"]
        last_row = read_csv(f"{prefix}.csv")[-1]
        columns = set(point) - {"index", axis_name, "status"}
        assert columns
        for column in columns:
            found = [v for v in (outputs.get(column), last_row.get(column))
                     if v is not None]
            assert found, column
            for v in found:
                assert repr(float(v)) == repr(float(point[column])), column


def test_readme_commands_use_registered_options():
    """The README's command block names every subcommand once and passes
    each only options it defines; sweep passes only its subcommand's flags."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"```sh\n(.*?)```", readme.read_text(), re.S)
    block = next(b for b in blocks if b.startswith("uavrelay "))
    lines = block.replace("\\\n", " ").splitlines()
    names = []
    for line in lines:
        program, name, *args = shlex.split(line)
        assert program == "uavrelay", line
        assert name in main.commands, line
        names.append(name)
        command = main.commands[name]
        defined = {opt for p in command.params for opt in p.opts}
        flags = [a for a in args if a.startswith("--")]
        assert set(flags) <= defined, line
        command.make_context(name, list(args))
        if name == "sweep":
            sub = main.commands[args[1]]
            taken = {opt for p in sub.params for opt in p.opts}
            assert set(flags) - {"--param", "--zip", "--out"} <= taken, line
    assert sorted(names) == sorted(main.commands)


def test_sweep_applies_a_points_axes_together(runner, scenario_file,
                                              tmp_path):
    """A point's scenario axes are set at once, so their order cannot make
    a valid point invalid; a point invalid after all of them still exits 2
    before the first point runs."""
    axes = ["geometry.h_max_m=600", "geometry.h_min_m=500"]
    rows = []
    for i, order in enumerate((axes, axes[::-1])):
        out = tmp_path / f"sw{i}"
        doc = run_ok(runner, ["sweep", str(scenario_file), "dualhop-opt",
                              "--zip", "--param", order[0],
                              "--param", order[1], "--out", str(out)])
        assert doc["outputs"] == {"ok": 1, "failed": 0}
        rows.append({k: v for k, v in read_csv(f"{out}.csv")[0].items()
                     if k != "index"})
    assert rows[0] == rows[1]
    assert 500.0 <= float(rows[0]["h_m"]) <= 600.0
    result = runner.invoke(main, [
        "sweep", str(scenario_file), "dualhop-opt",
        "--param", "geometry.h_min_m=10:500:2",
        "--param", "geometry.h_max_m=450", "--out", str(tmp_path / "bad")])
    assert result.exit_code == 2, result.output
    assert "need h_min <= h_max" in result.output
    assert not (tmp_path / "bad.json").exists()


def test_sweep_continues_past_infeasible_points(runner, scenario_file,
                                                tmp_path):
    out = tmp_path / "sw2"
    doc = run_ok(runner, [
        "sweep", str(scenario_file), "multihop-design",
        "--param", "powers.p_msi_w=80:8e6:3",
        "--gamma", "x5", "--h", "20", "--out", str(out)])
    assert doc["outputs"]["ok"] >= 1
    assert doc["outputs"]["failed"] >= 1


def test_json_has_no_timestamps(runner, scenario_file, tmp_path):
    doc = run_ok(runner, ["dualhop-opt", str(scenario_file),
                          "--out", str(tmp_path / "a")])
    text = json.dumps(doc)
    assert "time" not in text.lower()
    assert "date" not in text.lower()
