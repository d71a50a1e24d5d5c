import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import uavrelay
from uavrelay.cli import GAMMA, main, parse_scenario
from uavrelay.errors import SchemaError
from uavrelay.stochastic import BetaField, DeterministicField

from conftest import write_scenario_yaml


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
                 ["baseline-random", "--n-uavs", "3", "--seed", "-1"]):
        result = runner.invoke(main, [args[0], str(scenario_file), *args[1:]])
        assert result.exit_code == 2, (args, result.output)


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


def test_refine_eps_h_nan_exits_2(runner, scenario_file):
    result = runner.invoke(main, ["refine-altitudes", str(scenario_file),
                                  "--n-uavs", "3", "--h", "20",
                                  "--iterations", "1", "--eps-h", "nan"])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "eps_h must be finite" in result.output
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
