import json

import pytest
from click.testing import CliRunner

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
