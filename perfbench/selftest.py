"""Tests of the benchmark itself: its formulas, its checks and its workloads.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the project's own test run; the smoke runs at
the end start the benchmark as a subprocess, one round of each workload on
two seeds (about two minutes in all).
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import numpy as np  # noqa: E402
from scipy import integrate, stats  # noqa: E402

import cli_workload  # noqa: E402
import reference as ref  # noqa: E402
import workloads as W  # noqa: E402
from tracer import Tracer  # noqa: E402
from uavrelay.channel import ChannelParams, Scenario  # noqa: E402
from uavrelay.multisource import InterferenceSource  # noqa: E402

TR = Tracer(False)
UNIT = ChannelParams.from_coefficients(1.0, 1.0, eta_nlos=1.0)


def unit_scenario(d=100.0, x=40.0, y=0.0, h_min=1.0, h_max=50.0, **powers):
    p = {"p_tx": 1.0, "p_uav": 1.0, "p_msi": 1.0, **powers}
    return Scenario(d, x, y, p["p_tx"], p["p_uav"], p["p_msi"], h_min, h_max, UNIT)


# ------------------------------------------------------ independent formulas

def test_dual_links_equal_on_flat_interferer_locus():
    """Criterion 01's special case: with Y=0, unit powers and matched
    coefficients the two SIRs are equal on h**2 = -x**2 + 2xD - DX."""
    rng = random.Random(1)
    for _ in range(200):
        d = rng.uniform(10.0, 2000.0)
        s = unit_scenario(d, rng.uniform(0.0, d), h_min=0.1, h_max=1e6)
        x = rng.uniform(0.0, d)
        lam = -x * x + 2.0 * x * d - d * s.msi_x
        if lam > 1e-6 * d * d:
            up, down = ref.dual_links(s, x, math.sqrt(lam))
            assert ref.close(float(up), float(down), 1e-9)


def test_chain_links_hand_values():
    s = unit_scenario(d=30.0, x=10.0, y=0.0, h_min=1.0, h_max=10.0)
    # Tx -> (10, 3): interferer right below the UAV.
    # (10, 3) -> (20, 7): 3-D distance**2 = 100 + 16, receiver sees the
    # interferer at distance**2 = 100 + 49.  (20, 7) -> Rx at 30: the ground
    # interferer is 20 away from the Rx, the UAV sqrt(100 + 49).
    links = ref.chain_links(s, [10.0, 10.0, 10.0], [3.0, 7.0])
    assert links == pytest.approx([9.0 / 109.0, 149.0 / 116.0, 400.0 / 149.0],
                                  rel=1e-12)


def test_one_uav_chain_is_the_dual_hop_link():
    s = W.conftest_scenario(random.Random(4), W.readme_channel())
    x, h = 0.3 * s.distance_tx_rx, s.h_min
    chain = ref.uniform_chain_links(s, [x, s.distance_tx_rx - x], h)
    assert chain == pytest.approx(list(map(float, ref.dual_links(s, x, h))), rel=1e-12)


def test_start_target_is_the_weaker_boundary_link():
    s = W.conftest_scenario(random.Random(5), W.readme_channel())
    h = 30.0
    tx_cap = float(ref.dual_links(s, 0.0, h)[0])
    rx_cap = float(ref.dual_links(s, s.distance_tx_rx, h)[1])
    assert ref.start_target(s, h) == pytest.approx(min(tx_cap, rx_cap), rel=1e-12)


def test_rounds_match_counts_lattice_steps():
    gamma, steps = 1.0, 0
    while steps < 9:
        gamma -= 0.1
        steps += 1
    assert ref.rounds_match(10, 1.0, gamma, 0.1)
    assert not ref.rounds_match(11, 1.0, gamma, 0.1)


def test_upsilon_closed_forms_match_quadrature():
    a, b, i_max = 3.5, 2.0, 0.7
    beta_mean = integrate.quad(lambda u: stats.beta.pdf(u, a, b) / (i_max * u),
                               0.0, 1.0)[0]
    assert ref.beta_upsilon(a, b, i_max) == pytest.approx(beta_mean, rel=1e-8)
    k, theta = 3.3, 0.02
    gamma_mean = integrate.quad(lambda v: stats.gamma.pdf(v, k, scale=theta) / v,
                                0.0, np.inf)[0]
    assert ref.gamma_upsilon(theta, k) == pytest.approx(gamma_mean, rel=1e-8)


def test_grid_max_and_slack_on_two_by_two_grid():
    s = unit_scenario(d=10.0, x=4.0, y=3.0, h_min=1.0, h_max=5.0)
    corners = [[float(ref.dual_sir(s, x, h)) for h in (1.0, 5.0)] for x in (0.0, 10.0)]
    best, slack = ref.grid_max_and_slack(s, 2, 2)
    slope = max(abs(corners[1][j] - corners[0][j]) / 10.0 for j in (0, 1))
    slope = max(slope, max(abs(row[1] - row[0]) / 4.0 for row in corners))
    assert best == max(max(row) for row in corners)
    assert slack == pytest.approx(math.hypot(10.0, 4.0) * slope, rel=1e-12)


def test_fit_objective_zero_at_the_source_and_centroid():
    s = unit_scenario(d=500.0, x=100.0, y=50.0, h_min=5.0, h_max=100.0)
    src = InterferenceSource(120.0, 40.0, 3.0)
    assert ref.fit_objective([src], s, (32, 8), src.x, src.y, src.power) == 0.0
    pair = [InterferenceSource(0.0, 10.0, 1.0), InterferenceSource(30.0, 40.0, 2.0)]
    assert ref.power_centroid(pair) == pytest.approx((20.0, 30.0, 3.0))
    assert ref.field_mass(pair, s, (32, 8)) > 0.0


# --------------------------------------------- checks reject wrong answers

def perturbed(values, i, factor):
    values = list(values)
    values[i] = values[i] * factor
    return tuple(values)


def test_dualhop_check_rejects_wrong_answers():
    rng = random.Random(3)
    s = W.conftest_scenario(rng, W.readme_channel())
    op = W.dualhop_op(s, s.h_min, 0.5 * s.distance_tx_rx)
    out = op.run(TR)
    assert op.check(out) == []
    x, h, sir, x_fix, h_fix, best, slack, sirs = out
    assert op.check(perturbed(out, 2, 1.001))  # reported SIR
    assert op.check(perturbed(out, 5, 1.001))  # grid best
    assert op.check(perturbed(out, 6, 1.5))  # slack
    worst = min(((0.0, s.h_max), (s.distance_tx_rx, s.h_max), (0.0, s.h_min)),
                key=lambda p: float(ref.dual_sir(s, *p)))
    wrong_sir = float(ref.dual_sir(s, *worst))
    wrong = (worst[0], worst[1], wrong_sir, x_fix, h_fix, best, slack,
             [wrong_sir] + sirs[1:])
    assert W.JOINT_BELOW_GRID in op.check(wrong)


def test_fault_instance_fails_with_the_named_fault():
    fault = Scenario(channel=W.readme_channel(), **W.FAULT_SCENARIO)
    op = W.dualhop_op(fault, 200.0, 100.0)
    assert op.check(op.run(TR)) == [W.JOINT_BELOW_GRID]


def test_design_check_rejects_wrong_answers():
    s, h, gamma = W.criterion04_draw(random.Random(8), W.readme_channel())
    op = W.design_op(s, h, gamma)
    hops, links, oracle_n = out = op.run(TR)
    assert op.check(out) == []
    assert op.check((perturbed(hops, 0, 1.01), links, oracle_n))
    assert op.check((hops, perturbed(links, 0, 1.01), oracle_n))
    assert op.check((hops, links, len(hops) - 2))


def test_distributed_check_rejects_wrong_answers():
    s, h = W.fleet_draw(random.Random(2), W.readme_channel(), 4, (10.0, 30.0), 300)
    op = W.distributed_op("distributed_short_fleet", s, h, 4, 300)
    gamma, hops, rounds = out = op.run(TR)
    assert op.check(out) == []
    assert op.check((gamma, hops, rounds + 1))
    assert op.check((gamma * 1.5, hops, rounds))
    assert op.check((gamma, perturbed(hops, 1, 1.01), rounds))


def test_refine_check_rejects_wrong_answers():
    s, h = W.fleet_draw(random.Random(6), W.readme_channel(), 5, (100.0, 300.0))
    op = W.refine_op(s, 5, h)
    placement, history = op.run(TR)
    assert op.check((placement, history)) == []
    assert op.check((placement, [history[-1] * 2.0] + history[1:]))
    assert op.check((placement, history[:-1] + [history[-1] * 1.01]))


def test_fit_check_rejects_wrong_answers():
    from dataclasses import replace

    s = unit_scenario(d=400.0, x=100.0, y=50.0, h_min=5.0, h_max=100.0)
    src = InterferenceSource(150.0, 60.0, 2.0)
    op = W.fit_op(s, [src])
    fit = op.run(TR)
    assert op.check(fit) == []
    assert op.check(replace(fit, residual=fit.residual + 1.0))
    assert op.check(replace(fit, x_h=fit.x_h + 1.0,
                            residual=ref.fit_objective([src], s, W.FIT_GRID,
                                                       fit.x_h + 1.0, fit.y_h,
                                                       fit.p_h)))
    pair = [src, InterferenceSource(300.0, 30.0, 1.0)]
    op = W.fit_op(s, pair)
    fit = op.run(TR)
    assert op.check(fit) == []
    far = (0.0, 300.0, 0.01)
    assert op.check(replace(fit, x_h=far[0], y_h=far[1], p_h=far[2],
                            residual=ref.fit_objective(pair, s, W.FIT_GRID, *far)))


def test_stochastic_checks_reject_wrong_answers():
    rng = random.Random(9)
    s = W.field_scenario(rng, W.readme_channel())
    model, ups = W.gamma_field(rng, s.distance_tx_rx)
    op = W.stochastic_single_op("single_mgf", s, model, ups, 20.0, 30)
    x, esir, rounds, gamma_last, ups_d = out = op.run(TR)
    assert op.check(out) == []
    assert op.check((x, esir * 1.001, rounds, gamma_last, ups_d))
    assert op.check((x, esir, rounds + 1, gamma_last, ups_d))
    assert op.check((x, esir, rounds, gamma_last, ups_d * 1.001))
    beta = W.BetaField(2.5, 1.5, 0.8, 100.0)
    value = ref.beta_upsilon(2.5, 1.5, 0.8)
    op = W.esir_op("distributed_max_esir_beta", s, beta, lambda _x: value, 20.0, 3, 300)
    gamma, hops, rounds = out = op.run(TR)
    assert op.check(out) == []
    assert W.ESIR_BELOW_TARGET in op.check((gamma * 1.5, hops, rounds))
    assert op.check((gamma, hops, rounds + 1))
    assert op.check((gamma, perturbed(hops, 1, 1.01), rounds))
    s, h, model, value, gamma = W.criterion09_draw(random.Random(12),
                                                   W.readme_channel())
    op = W.stochastic_design_op(s, h, model, value, gamma)
    hops, oracle_n = op.run(TR)
    assert op.check((hops, oracle_n)) == []
    assert op.check((hops, len(hops) - 2))
    assert op.check((perturbed(hops, 0, 1.01), oracle_n))


def test_cli_checks_reject_wrong_records(tmp_path):
    inp = cli_workload.CliInputs(4, tmp_path)
    kinds = {kind: (args, check) for kind, args, check in cli_workload.commands(inp)}
    op = W.Op("cli", None, None)
    for kind in ("dualhop-opt", "multihop-design", "oracle-grid"):
        args, check = kinds[kind]
        assert cli_workload.run_in_process(args) == 0
        prefix = cli_workload.out_prefix(args)
        assert check(inp, op, prefix) == []
        record = json.loads(Path(prefix + ".json").read_text())
        key = {"dualhop-opt": "sir_system", "multihop-design": "system_sir",
               "oracle-grid": "sir_system"}[kind]
        record["outputs"][key] *= 1.001
        Path(prefix + ".json").write_text(json.dumps(record))
        assert check(inp, op, prefix), kind


def test_replay_check_rejects_changed_bytes(tmp_path):
    inp = cli_workload.CliInputs(5, tmp_path)
    args = next(a for k, a, _ in cli_workload.commands(inp) if k == "baseline-random")
    assert cli_workload.run_in_process(args) == 0
    saved = {}
    op = cli_workload.replay_op(inp, [], saved)
    assert op.check(op.run(TR)) == []
    saved[".csv"] += b" "
    assert op.check(0)


# ---------------------------------------------------------------- smoke runs

def run_bench(*args) -> dict:
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["dualhop_oracle", "fleets_and_fields",
                                      "cli_cold"])
def test_smoke_run(workload):
    """One round on each of two seeds: both correct, with the same share of
    failed operations (the known faults only meet seed-independent inputs)."""
    results = [run_bench("--workload", workload, "--seed", str(seed), "--seconds",
                         "0.1", "--trace", "0") for seed in (2, 3)]
    for result in results:
        assert result["correct"] and result["attempted"] >= 1
        assert set(result["metrics"]) == {"ops_per_s", "op_p50_ms", "setup_s",
                                          "peak_rss_mb"}
    one, two = results
    assert one["failed"] * two["attempted"] == two["failed"] * one["attempted"]


def test_self_time_excludes_child_spans():
    tr = Tracer(True)

    def inner():
        return sum(range(20000))

    traced_inner = tr._wrap("channel.inner", inner)

    def outer():
        return sum(range(20000)) + traced_inner()

    tr.begin_op("nested")
    tr.call("dualhop.outer", outer)
    tr.end_op()
    names = [s[0] for s in tr.spans]
    assert names == ["op.nested", "dualhop.outer", "channel.inner"]
    assert [s[3] for s in tr.spans] == [None, 0, 1]
    dur = [s[2] - s[1] for s in tr.spans]
    report = tr.layer_report()
    assert report["channel"] == (pytest.approx(dur[2], abs=1e-12), 1)
    assert report["dualhop"] == (pytest.approx(dur[1] - dur[2], abs=1e-12), 1)
    assert tr.mean_ms("dualhop.outer") >= 1e3 * dur[1]


def test_traced_smoke_run_reports_every_layer():
    result = run_bench("--workload", "dualhop_oracle", "--seed", "2",
                       "--seconds", "0.1", "--trace", "1")
    listed = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    assert all(v["value"] > 0.0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for f in BENCH.glob("*.py"):
        (copy / f.name).write_text(f.read_text())
    done = subprocess.run([sys.executable, str(copy / "run.py"), "--workload",
                           "dualhop_oracle", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], capture_output=True, text=True,
                          cwd=tmp_path, timeout=60)
    assert done.returncode != 0 and done.stdout == ""
