"""End-to-end acceptance suite: one test and one pass/fail line per criterion.

Each test prints "criterion NN: PASS" (or FAIL) so a plain pytest -s run
doubles as the acceptance report.  Tolerances and runtime budgets are part of
the assertions.
"""

import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import betaln

import uavrelay
from uavrelay.channel import (ChannelParams, Scenario, multihop_link_sirs,
                              sir_rx_link, sir_system_dual, sir_tx_link)
from uavrelay.dualhop import (classify_case_fixed_h, locus_coefficients,
                              locus_discriminant, optimal_h_fixed_x,
                              optimal_position, optimal_x_fixed_h,
                              quartic_roots_fixed_h)
from uavrelay.errors import InfeasibleError
from uavrelay.multihop import (design_min_uavs, distributed_max_sir,
                               feasibility_bound, refine_altitudes)
from uavrelay.multisource import InterferenceSource, fit_hypothetical_msi
from uavrelay.oracle import (GridSpec, exhaustive_min_uavs, grid_search_dual,
                             lipschitz_slack, random_placement_baseline)
from uavrelay.stochastic import (BetaField, beta_upsilon,
                                 design_min_uavs_stochastic)

from conftest import (forward_chain, make_scenario, random_scenario,
                      write_scenario_yaml)


def report(num: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d}: {status}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_flat_interferer_identity(channel):
    """With Y=0, matched coefficients and unit powers the locus collapses to
    closed forms: discriminant 4x^2(D-X)^2 and upper branch -x^2+2xD-DX."""
    ch = ChannelParams.from_coefficients(1.0, 1.0, eta_nlos=1.0)
    rng = random.Random(1)
    t0 = time.time()
    worst_disc = worst_branch = 0.0
    for _ in range(1000):
        d = rng.uniform(10.0, 2000.0)
        x_msi = rng.uniform(0.0, d)
        x = rng.uniform(0.0, d)
        s = Scenario(d, x_msi, 0.0, 1.0, 1.0, 1.0, 0.1, 1e6, ch)
        disc = locus_discriminant(s, x)
        disc_ref = 4.0 * x * x * (d - x_msi) ** 2
        if disc_ref > 0.0:
            worst_disc = max(worst_disc, abs(disc - disc_ref) / disc_ref)
        a, b, _ = locus_coefficients(s, x)
        branch = (-b + math.sqrt(max(disc, 0.0))) / (2.0 * a)
        branch_ref = -x * x + 2.0 * x * d - d * x_msi
        if branch_ref != 0.0:
            worst_branch = max(worst_branch,
                               abs(branch - branch_ref) / abs(branch_ref))
    elapsed = time.time() - t0
    report(1, worst_disc < 1e-9 and worst_branch < 1e-9 and elapsed < 1.0,
           f"disc rel {worst_disc:.2e}, branch rel {worst_branch:.2e}, "
           f"{elapsed:.2f}s")


def test_criterion_02_planners_match_oracles(channel):
    """Joint planner vs a 500x500 grid with Lipschitz slack, and both
    fixed-coordinate planners vs 1e4-point line scans, on 200 scenarios."""
    rng = random.Random(2)
    t0 = time.time()
    failures = []
    grid = GridSpec(500, 500)
    for i in range(200):
        s = random_scenario(rng, channel)
        _, _, rep = optimal_position(s)
        _, _, grid_best = grid_search_dual(s, grid)
        slack = lipschitz_slack(s, grid)
        if rep.system_sir < grid_best - slack:
            failures.append(("joint", i))

        h_hat = rng.uniform(s.h_min, s.h_max)
        xs = np.linspace(0.0, s.distance_tx_rx, 10000)
        vals = np.minimum(sir_tx_link(s, xs, h_hat),
                          sir_rx_link(s, s.distance_tx_rx - xs, h_hat))
        x_best = optimal_x_fixed_h(s, h_hat)
        line_slack = float(np.abs(np.diff(vals)).max())
        if (sir_system_dual(s, x_best, h_hat).system_sir
                < vals.max() - line_slack):
            failures.append(("fixed-h", i))

        x_hat = rng.uniform(0.0, s.distance_tx_rx)
        hs = np.linspace(s.h_min, s.h_max, 10000)
        vals = np.minimum(sir_tx_link(s, x_hat, hs),
                          sir_rx_link(s, s.distance_tx_rx - x_hat, hs))
        h_best = optimal_h_fixed_x(s, x_hat)
        line_slack = float(np.abs(np.diff(vals)).max())
        if (sir_system_dual(s, x_hat, h_best).system_sir
                < vals.max() - line_slack):
            failures.append(("fixed-x", i))
    elapsed = time.time() - t0
    report(2, not failures and elapsed < 60.0,
           f"{len(failures)} failures, {elapsed:.1f}s")


def test_criterion_03_case_labels_match_root_counts(channel):
    """Case 1 and 3 admit no equal-SIR crossing, case 2 exactly one and
    case 4 at least one; near-boundary power ratios are filtered out."""
    rng = random.Random(3)
    checked = 0
    mismatches = []
    while checked < 1000:
        s = random_scenario(rng, channel)
        h_hat = rng.uniform(s.h_min, s.h_max)
        label = classify_case_fixed_h(s, h_hat)
        ratio = s.p_tx / s.p_uav
        thresholds = [c for c in (label.c1, label.c2, label.c3)
                      if c is not None]
        if any(abs(ratio - c) <= 1e-9 * max(ratio, c) for c in thresholds):
            continue
        n_roots = len(quartic_roots_fixed_h(s, h_hat))
        expected = {1: n_roots == 0, 2: n_roots == 1, 3: n_roots == 0,
                    4: n_roots >= 1, 5: True}
        if not expected[label.case_id]:
            mismatches.append((label.case_id, n_roots))
        checked += 1
    report(3, not mismatches, f"{len(mismatches)} mismatches in {checked}")


def test_criterion_04_design_valid_and_minimal(channel):
    """On 50 small instances the designed chain meets every per-link target
    and uses exactly as many UAVs as exhaustive search."""
    rng = random.Random(2024)
    t0 = time.time()
    done = 0
    bad_links = mismatches = 0
    while done < 50:
        d_min = rng.uniform(1.0, 5.0)
        d = rng.uniform(10.0, 30.0) * d_min
        h_hi = max(2.0, 0.5 * d)
        h = min(max(rng.uniform(2.0, 0.3 * d), 1.0), h_hi)
        s = Scenario(d, rng.uniform(0.0, d), rng.uniform(0.2 * d, 1.5 * d),
                     10.0 ** rng.uniform(-1.0, 2.0),
                     10.0 ** rng.uniform(-1.0, 2.0),
                     10.0 ** rng.uniform(-1.0, 2.0),
                     1.0, h_hi, channel, d_min=d_min)
        gamma = feasibility_bound(s, h) * rng.uniform(0.2, 0.8)
        try:
            result = design_min_uavs(s, h, gamma)
        except InfeasibleError:
            continue
        n = result.placement.uav_count
        if n > 8:
            continue
        links = multihop_link_sirs(s, result.placement.hop_distances, h)
        if min(links) < gamma * (1.0 - 1e-9):
            bad_links += 1
        oracle = exhaustive_min_uavs("deterministic", s, h, gamma, n_max=8)
        if oracle != n:
            mismatches += 1
        done += 1
    elapsed = time.time() - t0
    report(4, bad_links == 0 and mismatches == 0 and elapsed < 120.0,
           f"{bad_links} link violations, {mismatches} minimality "
           f"mismatches, {elapsed:.1f}s")


def test_criterion_05_distributed_near_centralized(channel):
    """The iterative lowering stops within epsilon of a centralized sweep
    and within its iteration budget; fleet growth never hurts the target."""
    rng = random.Random(77)
    epsilon = 0.1
    violations = []
    for i in range(30):
        d = rng.uniform(200.0, 1500.0)
        s = Scenario(d, rng.uniform(0.0, d), rng.uniform(50.0, d),
                     10.0 ** rng.uniform(0.0, 2.0),
                     10.0 ** rng.uniform(-1.0, 1.0),
                     10.0 ** rng.uniform(0.0, 2.0),
                     1.0, 500.0, channel)
        h = rng.uniform(10.0, 100.0)
        n = rng.randint(2, 20)
        gamma_final, _, trace = distributed_max_sir(s, h, n, epsilon)
        gamma0 = trace.gammas[0]
        if len(trace.gammas) > math.floor(gamma0 / epsilon):
            violations.append(("iterations", i))
        best = 0.0
        for g in np.linspace(gamma0, gamma0 / 2000.0, 2000):
            result = forward_chain(s, h, float(g), n)
            if result is None:
                continue
            _, consumed, d_max = result
            if d - consumed <= d_max:
                best = float(g)
                break
        if gamma_final < best - epsilon - 1e-9:
            violations.append(("gap", i, gamma_final, best))

    s5 = make_scenario(channel)  # D=1000, X=500, Y=400, 80/1/80 W
    finals = [distributed_max_sir(s5, 20.0, n, epsilon)[0]
              for n in (10, 25, 50)]
    monotone = all(b >= a for a, b in zip(finals, finals[1:]))
    report(5, not violations and monotone,
           f"{len(violations)} violations, fleet sweep {finals}")


def test_criterion_06_figure_shapes(channel):
    """(a) moving the interferer from midspan toward either terminal raises
    the required fleet, (b) more UAV power never needs more UAVs, (c) the
    terminal target vs shared altitude rises first and falls last."""
    gamma = 5.0

    def fleet(msi_x, msi_y):
        s = make_scenario(channel, msi_x=msi_x, msi_y=msi_y)
        return design_min_uavs(s, 20.0, gamma).placement.uav_count

    toward_tx = [fleet(500.0, 400.0), fleet(300.0, 240.0), fleet(100.0, 80.0)]
    toward_rx = [fleet(500.0, 400.0), fleet(700.0, 240.0), fleet(900.0, 80.0)]
    shape_a = (all(b > a for a, b in zip(toward_tx, toward_tx[1:]))
               and all(b > a for a, b in zip(toward_rx, toward_rx[1:])))

    counts = []
    for p_uav in (0.5, 1.0, 2.0, 4.0):
        s = make_scenario(channel, p_uav=p_uav)
        counts.append(design_min_uavs(s, 20.0, gamma).placement.uav_count)
    shape_b = all(b <= a for a, b in zip(counts, counts[1:]))

    s_alt = make_scenario(channel, msi_y=150.0)
    sirs = [distributed_max_sir(s_alt, h, 50, 0.1)[0]
            for h in (20.0, 70.0, 120.0, 170.0, 220.0, 270.0, 320.0)]
    shape_c = sirs[1] > sirs[0] and sirs[-1] < sirs[-2]

    report(6, shape_a and shape_b and shape_c,
           f"a: {toward_tx}/{toward_rx}, b: {counts}, "
           f"c: {[round(v, 2) for v in sirs]}")


def test_criterion_07_refinement_improves_placement(channel):
    """Per-UAV local exploration lifts the bottleneck SIR monotonically and
    by at least 15% over 30 iterations from the message-passing start."""
    s = make_scenario(channel, msi_y=150.0, d_min=4.0)
    t0 = time.time()
    _, start, _ = distributed_max_sir(s, 220.0, 50, 0.1)
    _, history = refine_altitudes(s, start, 30.0, 30)
    elapsed = time.time() - t0
    monotone = all(b >= a - 1e-12 for a, b in zip(history, history[1:]))
    gain = (history[-1] - history[0]) / history[0]
    report(7, monotone and gain >= 0.15 and len(history) == 31
           and elapsed < 300.0,
           f"gain {gain:.1%}, {len(history) - 1} iterations, {elapsed:.0f}s")


def test_criterion_08_beta_closed_form_vs_quadrature():
    """The closed-form expected reciprocal of a scaled Beta variable matches
    numerical integration; two hand-checked values are exact."""
    assert beta_upsilon(2.0, 1.0, 1.0) == pytest.approx(2.0, rel=1e-12)
    assert beta_upsilon(3.0, 1.0, 1.0) == pytest.approx(1.5, rel=1e-12)
    rng = random.Random(8)
    worst = 0.0
    for _ in range(50):
        a = rng.uniform(1.1, 20.0)
        b = rng.uniform(0.2, 20.0)
        i_max = 10.0 ** rng.uniform(-2.0, 1.0)
        logb = betaln(a, b)

        def integrand(y, a=a, b=b, logb=logb, i_max=i_max):
            return math.exp((a - 2.0) * math.log(y)
                            + (b - 1.0) * math.log1p(-y) - logb) / i_max

        ref, _ = quad(integrand, 0.0, 1.0)
        worst = max(worst, abs(beta_upsilon(a, b, i_max) - ref) / abs(ref))
    report(8, worst < 1e-6, f"worst rel err {worst:.2e}")


def test_criterion_09_stochastic_design_minimal(channel):
    """On 20 random Beta-field instances the stochastic designer uses exactly
    the exhaustive-search minimum number of UAVs."""
    rng = random.Random(99)
    done = mismatches = 0
    while done < 20:
        d = rng.uniform(50.0, 300.0)
        s = Scenario(d, rng.uniform(0.0, d), rng.uniform(10.0, d),
                     10.0 ** rng.uniform(0.0, 2.0),
                     10.0 ** rng.uniform(-1.0, 1.0),
                     1.0, 1.0, 100.0, channel,
                     d_min=rng.uniform(0.5, 3.0))
        h = rng.uniform(3.0, 40.0)
        alpha = rng.uniform(1.5, 8.0)
        beta = rng.uniform(0.5, 8.0)
        i_max = 10.0 ** rng.uniform(-2.0, 1.0)
        model = BetaField(alpha, beta, i_max, 100.0)
        cap = (beta_upsilon(alpha, beta, i_max) * s.p_uav
               / (channel.eta_nlos * h ** 2))
        gamma = cap * rng.uniform(0.05, 0.8)
        try:
            n = design_min_uavs_stochastic(model, s, h,
                                           gamma).placement.uav_count
        except InfeasibleError:
            continue
        if n > 8:
            continue
        oracle = exhaustive_min_uavs("stochastic", s, h, gamma, n_max=8,
                                     per_hop_grid=256, model=model)
        if oracle != n:
            mismatches += 1
        done += 1
    report(9, mismatches == 0, f"{mismatches} mismatches in {done}")


def test_criterion_10_planner_dominates_random_baseline(channel):
    """Across the low-altitude sweep the analytic single-relay position beats
    the best of 1000 seeded random drops at every altitude."""
    beaten = True
    gains = []
    for i in range(9):
        h = 10.0 + 5.0 * i
        s = Scenario(35.0, 30.0, 30.0, 1.0, 1.0, 20.0, h, h, channel)
        _, _, rep = optimal_position(s)
        stats = random_placement_baseline(s, 1, 1000, seed=123 + i)
        if rep.system_sir < stats.max * (1.0 - 1e-9):
            beaten = False
        gains.append(rep.system_sir - stats.mean)
    mean_gain = sum(gains) / len(gains)
    report(10, beaten and mean_gain > 0.0, f"mean gain {mean_gain:.4f}")


def test_criterion_11_hypothetical_interferer_fit(channel):
    """A single source is recovered exactly, co-located sources merge their
    powers, and the fit degrades monotonically as a pair separates."""
    s = make_scenario(channel, msi_y=100.0)
    src = InterferenceSource(317.3, 84.2, 12.5)
    fit = fit_hypothetical_msi([src], s)
    single_ok = (abs(fit.x_h - src.x) < 1e-6 and abs(fit.y_h - src.y) < 1e-6
                 and abs(fit.p_h - src.power) < 1e-9 * src.power
                 and fit.residual <= 1e-9 * max(1.0, fit.p_h))

    pair = [InterferenceSource(300.0, 60.0, 5.0),
            InterferenceSource(300.0, 60.0, 7.5)]
    merged = fit_hypothetical_msi(pair, s)
    merged_ok = abs(merged.p_h - 12.5) < 1e-6 * 12.5

    residuals = []
    for sep in (40.0, 20.0, 10.0, 5.0, 2.5):
        sources = [InterferenceSource(300.0 - sep / 2.0, 60.0, 5.0),
                   InterferenceSource(300.0 + sep / 2.0, 60.0, 5.0)]
        residuals.append(fit_hypothetical_msi(sources, s).residual)
    homotopy_ok = all(b < a for a, b in zip(residuals, residuals[1:]))

    report(11, single_ok and merged_ok and homotopy_ok,
           f"single {single_ok}, merged {merged_ok}, homotopy {homotopy_ok}")


def test_criterion_12_seeded_replay_is_bit_identical(tmp_path):
    """Replaying the seeded baseline command recorded in its own JSON output
    reproduces both artifacts byte for byte."""
    first = tmp_path / "first"
    second = tmp_path / "second"
    first.mkdir()
    second.mkdir()
    for d in (first, second):
        write_scenario_yaml(d / "scenario.yaml", d_min=4.0)
    # The CLI runs from a fresh directory, where a relative PYTHONPATH (such
    # as the "src" of the Tier-1 command) no longer resolves.  Put the
    # directory holding the imported package first, as an absolute path.
    env = dict(os.environ)
    package_root = str(Path(uavrelay.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)

    def run_cli(cli_args, cwd):
        done = subprocess.run([sys.executable, "-m", "uavrelay.cli"] + cli_args,
                              cwd=cwd, env=env, capture_output=True, text=True)
        assert done.returncode == 0, (
            f"uavrelay {' '.join(cli_args)} exited {done.returncode}:\n"
            f"{done.stderr}")

    args = ["baseline-random", "scenario.yaml", "--n-uavs", "3",
            "--trials", "200", "--seed", "11", "--out", "run"]
    run_cli(args, first)
    recorded = json.loads((first / "run.json").read_text())["command"]
    run_cli(recorded, second)
    same_json = (first / "run.json").read_bytes() == \
        (second / "run.json").read_bytes()
    same_csv = (first / "run.csv").read_bytes() == \
        (second / "run.csv").read_bytes()
    report(12, same_json and same_csv,
           f"json identical {same_json}, csv identical {same_csv}")
