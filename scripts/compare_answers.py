#!/usr/bin/env python3
"""Compare the planners' answers of two source trees, answer by answer.

    python3 scripts/compare_answers.py TREE_A TREE_B [--planner NAME] [--draws N]
        [--expect FILE]

Each tree runs the same fixed corpus in its own Python process, with
PYTHONPATH set to the tree's `src`.  The `repr` of every answer, and of
every error a planner raises, is diffed between the two trees; the script
prints each differing label with both answers, then the counts, and exits 1
when any answer differs.  It is the check behind a claim that a change
keeps the planners' answers bit for bit.  Warnings are not answers: the
corpus runs with them silenced.

A change that alters answers on purpose lists them in an `--expect` file,
JSON of the form {"base": COMMIT, "differ": {PLANNER: [LABEL, ...]}}.  The
script then exits 0 only when the differing labels are exactly those
listed for the planner.  The file holds only where COMMIT is the commit
that TREE_A has checked out (`git rev-parse HEAD`): a file left behind by
an earlier change names another commit, so it allows no difference and
demands none.  `scripts/changed_answers.json` is the file of the latest
change that altered answers.

The `refine_altitudes` corpus (the default) holds the 30 refinements of
the benchmark's `fleets_and_fields` workload (seeds 1501-1510, n = 20, 35,
50), a chain whose first hop is -0.0, and random draws.  The draws have 1
to 12 UAVs, eps_h in {0, 1, 10, 50}, d_min > 0 on a third of them, h_min =
h_max on a tenth, start altitudes outside the band on a tenth, and starts
both uniform and from `distributed_max_sir`.

The `dualhop` corpus asks the single-relay planners and their oracles
(`optimal_position`, `_locus_argmax`, `optimal_x_fixed_h`,
`optimal_h_fixed_x`, `locus_heights`, `grid_search_dual` and
`lipschitz_slack`) about the 49 scenarios of the benchmark's
`dualhop_oracle` workload, 300 conftest-style draws, 50 flat-interferer
scenarios of criterion 01 (where the exact discriminant runs), 100 draws
with powers near the ends of the float range, 50 centimetre spans with a
subnormal interferer power, and the grid shapes of `DUALHOP_GRIDS`.
Odd-numbered scenarios ask `lipschitz_slack` before `grid_search_dual`, so
that an answer taken from the wrong grid pass differs in either order.

The `exhaustive` corpus asks the minimum-fleet oracle `exhaustive_min_uavs`
the benchmark's criterion-04 and criterion-09 questions (each design
operation of `fleets_and_fields` on seeds 1501-1510, with the arguments
the benchmark passes), 300 random draws and 20 subnormal spans whose grid
repeats positions.  A draw is a conftest-style or `edge_scenario` scenario
(tests/conftest.py), d_min > 0 on half of them, either kind, per_hop_grid
in `EXHAUSTIVE_GRIDS`, n_max in 1-8, a target at the single-link cap, a
share of it, 1e-300 or 1e300, and a Beta, x-varying Beta, deterministic or
(on small grids) Gamma MGF field.

The `distributed` corpus runs `distributed_max_sir`'s epsilon scans: the
short, long and fine scans of the benchmark's `fleets_and_fields` workload
(seeds 1501-1510, with the arguments the benchmark passes), the conftest
draws of `scan_draws` (tests/conftest.py, seed 10: the interferer at 0 or
D on a fifth of them, epsilons that divide gamma0 exactly, fleets of 1 to
52 UAVs), criterion-05-style draws (one per seed) and criterion 05's fleet
sweep, both at epsilon = 0.1, and the `edge_scan_draws` of `edge_scenario`
seeds 0 to N - 1 whose start target is finite, where rounds leave the
float range.  An answer is the target, the placement, the round count and
the SHA-256 of the trace rows.

The `stochastic` corpus asks `single_uav_position`,
`design_min_uavs_stochastic` and `distributed_max_esir` (answered as the
`distributed` corpus answers, the trace rows by SHA-256),
`expected_multihop_link_sirs` and `upsilon` at six positions.  It takes the
benchmark's stochastic operations (`interference_fields`, seeds 1501-1510,
with the arguments the benchmark passes), criterion-09-style draws and
`edge_scenario` draws, each under the next field of `FIELD_KINDS` (the
CLI's knot fields built by `cli._parse_field`), with a target at a share
of the Rx-side cap, epsilon = cap / k and 1 to 12 UAVs (MGF fields: 5-40
rounds and 1-4 UAVs), and one design that no chain within the UAV cap
closes.

`--draws N` takes at most N refinements or scenarios from each part of the
corpus, and the benchmark designs or scans of at most N seeds.
"""

import argparse
import dataclasses
import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
BENCH_SEEDS = range(1501, 1511)
DEFAULT_DRAWS = 300


def refine_corpus(draws: int):
    """(label, thunk) pairs; each thunk runs one refinement."""
    sys.path.insert(0, str(REPO / "perfbench"))
    import workloads
    from tracer import Tracer
    from uavrelay.channel import ChannelParams, Scenario
    from uavrelay.multihop import (Placement, distributed_max_sir,
                                   feasibility_bound, refine_altitudes)

    tracer = Tracer(False)
    bench = []
    for seed in BENCH_SEEDS:
        if len(bench) >= draws:
            break
        ops = [op for op in workloads.multihop_fleet(seed) if op.kind == "refine"]
        bench += [(f"benchmark seed {seed} refinement {k}",
                   lambda op=op: op.run(tracer)) for k, op in enumerate(ops)]
    yield from bench[:draws]

    ch = ChannelParams.from_carrier(2.0e9, 10 ** 0.01, 10 ** 2.1)

    def signed_zero():
        # distributed_max_sir puts this chain's only UAV at d_1 = -0.0, and
        # the refinement keeps the -0.0 while it lowers the UAV.
        s = Scenario(537.8358098432572, 165.4427943144502, 187.07088954706174,
                     0.10284466462852018, 0.06058150978382607,
                     1.6777981588491357, 15.865627163491967,
                     194.15133747824385, ch)
        _, start, _ = distributed_max_sir(s, 150.16280590224451, 1, 0.05)
        return start, refine_altitudes(s, start, 10.0, 2, 1)

    yield "signed-zero first hop", signed_zero

    def draw(k: int):
        rng = random.Random(k)
        n = rng.randint(1, 12)
        d = rng.uniform(50.0, 2000.0)
        h_min = rng.uniform(1.0, 20.0)
        h_max = h_min if rng.random() < 0.1 else rng.uniform(40.0, 500.0)
        d_min = rng.uniform(0.1, 1.0) * d / (n + 1) if rng.random() < 1 / 3 else 0.0
        s = Scenario(d, rng.uniform(0.0, d), rng.uniform(0.0, d),
                     10.0 ** rng.uniform(-1.5, 1.5), 10.0 ** rng.uniform(-1.5, 1.5),
                     10.0 ** rng.uniform(-1.5, 1.5), h_min, h_max, ch, d_min)
        h = rng.uniform(h_min, h_max)
        eps_h = rng.choice((0.0, 1.0, 10.0, 50.0))
        iterations, passes = rng.choice((1, 2)), rng.choice((1, 3))
        if rng.random() < 0.5:
            _, start, _ = distributed_max_sir(
                s, h, n, feasibility_bound(s, h) / rng.choice((20, 200)))
        else:
            start = Placement.uniform([d / (n + 1)] * (n + 1), h)
        if rng.random() < 0.1:
            alts = list(start.altitudes)
            alts[rng.randrange(n)] = h_max + rng.uniform(1.0, 2.0 * eps_h + 1.0)
            start = Placement(start.hop_distances, tuple(alts))
        return start, refine_altitudes(s, start, eps_h, iterations, passes)

    for k in range(draws):
        yield f"random draw {k}", lambda k=k: draw(k)


#: Oracle grids of the dualhop corpus's grid part: the smallest grids, the
#: benchmark's and a larger one, a row count that no block height divides,
#: and more columns than a block holds cells (one row per block).  The part
#: ends with a grid whose altitude band is a single value: whole columns tie.
DUALHOP_GRIDS = ((2, 2), (3, 7), (500, 500), (1000, 1000), (997, 311),
                 (5, 20_011), (41, 17))
#: The oracle grid of the other parts: small, but several row blocks.
DUALHOP_GRID = (1000, 100)


def dualhop_corpus(draws: int):
    """(label, thunk) pairs; each thunk asks one single-relay question."""
    sys.path.insert(0, str(REPO / "perfbench"))
    import workloads
    from uavrelay.channel import ChannelParams, Scenario
    from uavrelay.dualhop import (_locus_argmax, locus_heights,
                                  optimal_h_fixed_x, optimal_position,
                                  optimal_x_fixed_h)
    from uavrelay.oracle import GridSpec, grid_search_dual, lipschitz_slack

    scenario_numbers = itertools.count()

    def questions(label, s, rng, grid):
        """The planners and oracles at one scenario; rng draws the fixed
        coordinates."""
        h_hat = rng.uniform(s.h_min, s.h_max)
        x_hat = rng.uniform(0.0, s.distance_tx_rx)
        grid = GridSpec(*grid)
        oracles = (("grid_search_dual", grid_search_dual, (grid,)),
                   ("lipschitz_slack", lipschitz_slack, (grid,)))
        if next(scenario_numbers) % 2:
            oracles = oracles[::-1]
        calls = (("optimal_position", optimal_position, ()),
                 ("_locus_argmax", _locus_argmax, ()),
                 ("optimal_x_fixed_h", optimal_x_fixed_h, (h_hat,)),
                 ("optimal_h_fixed_x", optimal_h_fixed_x, (x_hat,)),
                 ("locus_heights", locus_heights, (x_hat,))) + oracles
        for name, f, args in calls:
            yield f"{label}: {name}", lambda f=f, args=args: f(s, *args)

    ch = workloads.readme_channel()
    fixed, rng = random.Random(workloads.FIXED_STREAM), random.Random(BENCH_SEEDS[0])
    bench = [Scenario(channel=ch, **workloads.FAULT_SCENARIO)]
    bench += [workloads.conftest_scenario(fixed, ch)
              for _ in range(workloads.DUALHOP_DRAWS)]
    for k, s in enumerate(bench[:draws]):
        yield from questions(f"benchmark scenario {k}", s, rng,
                             (workloads.GRID.nx, workloads.GRID.nh))

    for k in range(draws):
        rng = random.Random(k)
        s = workloads.conftest_scenario(rng, ch)
        yield from questions(f"conftest draw {k}", s, rng, DUALHOP_GRID)

    # Criterion 01's flat interferer: the exact discriminant fires.
    flat = ChannelParams.from_coefficients(1.0, 1.0, eta_nlos=1.0)
    for k in range(min(draws, 50)):
        rng = random.Random(k)
        d = rng.uniform(10.0, 2000.0)
        s = Scenario(d, rng.uniform(0.0, d), 0.0, 1.0, 1.0, 1.0, 0.1, 1e6, flat)
        yield from questions(f"flat interferer {k}", s, rng, DUALHOP_GRID)

    # Powers near the ends of the float range, spans from 1 cm to 30 km:
    # the grids hold inf and NaN, and a denominator can underflow to zero.
    for k in range(min(draws, 100)):
        rng = random.Random(k)
        d = 10.0 ** rng.uniform(-2.0, 4.5)
        powers = [10.0 ** rng.choice((rng.uniform(-323.5, -290.0),
                                      rng.uniform(290.0, 308.0),
                                      rng.uniform(-1.5, 1.5)))
                  for _ in range(3)]
        h_min = 10.0 ** rng.uniform(-4.0, 1.3)
        s = Scenario(d, rng.uniform(0.0, d), rng.uniform(0.0, d), *powers,
                     h_min, h_min + 10.0 ** rng.uniform(-3.0, 2.7), ch)
        yield from questions(f"extreme powers {k}", s, rng, DUALHOP_GRID)

    # Centimetre spans and a subnormal interferer power: the Tx-side SIR's
    # denominator underflows to zero on the locus itself.
    for k in range(min(draws, 50)):
        rng = random.Random(k)
        d = 10.0 ** rng.uniform(-3.0, 1.0)
        h_min = 10.0 ** rng.uniform(-4.0, -1.0)
        s = Scenario(d, rng.uniform(0.0, d), rng.uniform(0.0, d),
                     10.0 ** rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-3.0, 3.0),
                     10.0 ** rng.uniform(-323.5, -318.0), h_min,
                     h_min + 10.0 ** rng.uniform(-3.0, 1.0), ch)
        yield from questions(f"subnormal interferer {k}", s, rng, DUALHOP_GRID)

    rng = random.Random(0)
    for nx, nh in DUALHOP_GRIDS[:draws]:
        s = workloads.conftest_scenario(rng, ch)
        yield from questions(f"grid {nx}x{nh}", s, rng, (nx, nh))
    s = workloads.conftest_scenario(rng, ch)
    s = dataclasses.replace(s, h_max=s.h_min)
    yield from questions("grid 64x8, h_min = h_max", s, rng, (64, 8))


#: Position grids of the exhaustive corpus's random parts (per_hop_grid;
#: the grid holds 8 * per_hop_grid + 1 positions).  MGF fields, whose
#: Upsilon is a 289-node quadrature per position, take the small ones only.
EXHAUSTIVE_GRIDS = (1, 2, 3, 7, 64, 256)
MGF_GRIDS = EXHAUSTIVE_GRIDS[:4]


class _Called(Exception):
    """Raised by `_CallArgs` with the arguments of the call it stops at."""


class _CallArgs:
    """A stand-in tracer: it runs a benchmark operation's calls and stops
    the operation at its call of `target`, raising that call's arguments."""

    def __init__(self, target):
        self.target = target

    def call(self, label, fn, *args, **kwargs):
        if fn is self.target:
            raise _Called(args, kwargs)
        return fn(*args, **kwargs)


def benchmark_calls(workload, kind: str, target, seeds):
    """(label, args, kwargs) of each call of target that the benchmark
    operations of this kind make, on the workload's seeds."""
    capture = _CallArgs(target)
    for seed in seeds:
        ops = [op for op in workload(seed) if op.kind == kind]
        for k, op in enumerate(ops):
            try:
                op.run(capture)
            except _Called as call:
                yield f"benchmark seed {seed} {kind} {k}", *call.args


def exhaustive_corpus(draws: int):
    """(label, thunk) pairs; each thunk asks the minimum-fleet oracle once."""
    sys.path.insert(0, str(REPO / "perfbench"))
    sys.path.insert(0, str(REPO / "tests"))
    import workloads
    from conftest import edge_scenario
    from uavrelay.channel import Scenario
    from uavrelay.multihop import feasibility_bound
    from uavrelay.oracle import exhaustive_min_uavs
    from uavrelay.stochastic import BetaField, DeterministicField, upsilon

    def asked(label, args, kwargs):
        return label, lambda: exhaustive_min_uavs(*args, **kwargs)

    # The benchmark's criterion-04 and criterion-09 designs, as it asks them.
    for seed in BENCH_SEEDS[:draws]:
        for kind, workload in (("design", workloads.multihop_fleet),
                               ("stochastic_design", workloads.interference_fields)):
            for call in benchmark_calls(workload, kind, exhaustive_min_uavs, [seed]):
                yield asked(*call)

    ch = workloads.readme_channel()

    def field(rng, span, grid):
        """Beta, Beta with alpha rising along x, deterministic, or (on the
        small grids) the benchmark's Gamma MGF field."""
        variant = rng.randrange(4 if grid in MGF_GRIDS else 3)
        if variant == 0:
            return BetaField(rng.uniform(1.5, 8.0), rng.uniform(0.5, 8.0),
                             10.0 ** rng.uniform(-2.0, 1.0), 100.0)
        if variant == 1:
            a0, a1 = rng.uniform(1.5, 4.0), rng.uniform(0.0, 4.0)
            return BetaField(lambda x: a0 + a1 * x / span, rng.uniform(0.5, 8.0),
                             10.0 ** rng.uniform(-2.0, 1.0), 100.0)
        if variant == 2:
            return DeterministicField(10.0 ** rng.uniform(-3.0, 3.0), 100.0)
        return workloads.gamma_field(rng, span)[0]

    def question(rng, s):
        """The oracle's arguments at scenario s: either kind, a target at
        the single-link cap, a share of it, near 0 or far above it."""
        h = rng.uniform(s.h_min, s.h_max)
        grid = rng.choice(EXHAUSTIVE_GRIDS)
        model = field(rng, s.distance_tx_rx, grid)
        kind = rng.choice(("deterministic", "stochastic"))
        try:
            if kind == "deterministic":
                cap = feasibility_bound(s, h)
            else:
                cap = (upsilon(model, s.distance_tx_rx) * s.p_uav
                       / (s.channel.eta_nlos * h ** 2))
        except Exception:  # a scenario whose cap fails gets a plain target
            cap = 1.0
        gamma = rng.choice((cap, cap * rng.uniform(0.05, 0.8), 1e-300, 1e300))
        if not gamma > 0.0:  # a cap that underflowed: the oracle needs > 0
            gamma = 1.0
        return (kind, s, h, gamma, rng.randint(1, 8), grid), {"model": model}

    for k in range(draws):
        rng = random.Random(k)
        s = edge_scenario(rng, ch) if k % 2 else workloads.conftest_scenario(rng, ch)
        if rng.random() < 0.5:
            s = dataclasses.replace(s, d_min=s.distance_tx_rx
                                    * rng.choice((1e-3, 0.02, 0.1, 0.3)))
        yield asked(f"random draw {k}", *question(rng, s))

    # Subnormal spans: linspace repeats positions or puts some above D, and
    # every square underflows to 0.
    for k in range(min(draws, 20)):
        rng = random.Random(k)
        d = rng.choice((5e-324, 1e-322, 3e-320, 2e-310))
        s = Scenario(d, rng.choice((0.0, d)), rng.uniform(0.0, 1.0),
                     10.0 ** rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-3.0, 3.0),
                     10.0 ** rng.uniform(-3.0, 3.0), 1e-3, 1.0, ch)
        yield asked(f"subnormal span {k}", *question(rng, s))


def distributed_corpus(draws: int):
    """(label, thunk) pairs; each thunk runs one epsilon scan of
    `distributed_max_sir` and answers its target, placement, round count
    and the SHA-256 of its trace rows' repr."""
    sys.path.insert(0, str(REPO / "perfbench"))
    sys.path.insert(0, str(REPO / "tests"))
    import workloads
    from conftest import edge_scan_draws, scan_draws
    from uavrelay.channel import Scenario
    from uavrelay.multihop import distributed_max_sir

    def scan(s, h, n, epsilon):
        gamma, placement, trace = distributed_max_sir(s, h, n, epsilon)
        rows = repr((trace.gammas, trace.first_hops, trace.system_sirs))
        return (gamma, placement, len(trace.gammas),
                hashlib.sha256(rows.encode()).hexdigest())

    def asked(label, args, kwargs):
        return label, lambda: scan(*args, **kwargs)

    # The benchmark's short, long and fine scans, as it asks them.
    for kind in ("distributed_short_fleet", "distributed_long_fleet",
                 "distributed_fine_scan"):
        for call in benchmark_calls(workloads.multihop_fleet, kind,
                                    distributed_max_sir, BENCH_SEEDS[:draws]):
            yield asked(*call)

    ch = workloads.readme_channel()
    for k, args in enumerate(scan_draws(ch, 10, draws)):
        yield asked(f"conftest draw {k}", args, {})

    # Criterion 05's distributions at epsilon = 0.1, and its fleet sweep.
    for k in range(draws):
        rng = random.Random(k)
        d = rng.uniform(200.0, 1500.0)
        s = Scenario(d, rng.uniform(0.0, d), rng.uniform(50.0, d),
                     10.0 ** rng.uniform(0.0, 2.0), 10.0 ** rng.uniform(-1.0, 1.0),
                     10.0 ** rng.uniform(0.0, 2.0), 1.0, 500.0, ch)
        args = (s, rng.uniform(10.0, 100.0), rng.randint(2, 20), 0.1)
        yield asked(f"criterion 05 draw {k}", args, {})
    s = Scenario(1000.0, 500.0, 400.0, 80.0, 1.0, 80.0, 5.0, 400.0, ch)
    for n in (10, 25, 50):
        yield asked(f"criterion 05 fleet of {n}", (s, 20.0, n, 0.1), {})

    # Edge scenarios whose start target is finite.
    for k in range(draws):
        for args in edge_scan_draws(ch, [k]):
            yield asked(f"edge draw {k}", args, {})


def trace_rows(trace):
    """The round count and the SHA-256 of a planner trace's rows' repr."""
    rows = repr((trace.gammas, trace.first_hops, trace.system_sirs))
    return len(trace.gammas), hashlib.sha256(rows.encode()).hexdigest()


#: Interference fields of the stochastic corpus's draws, one per draw in turn.
FIELD_KINDS = ("beta", "beta rising", "deterministic", "deterministic callable",
               "gamma mgf", "beta_knots", "tabulated_upsilon")


def stochastic_corpus(draws: int):
    """(label, thunk) pairs; each thunk asks one stochastic planner, the
    expected link SIRs or Upsilon itself one question."""
    sys.path.insert(0, str(REPO / "perfbench"))
    sys.path.insert(0, str(REPO / "tests"))
    import workloads
    from conftest import edge_scenario
    from uavrelay.channel import ChannelParams, Scenario
    from uavrelay.cli import _parse_field
    from uavrelay.stochastic import (BetaField, DeterministicField,
                                     design_min_uavs_stochastic,
                                     distributed_max_esir,
                                     expected_multihop_link_sirs,
                                     single_uav_position, upsilon)

    def single(model, s, h, epsilon):
        x, esir, trace = single_uav_position(model, s, h, epsilon)
        return (x, esir) + trace_rows(trace)

    def esir(model, s, h, n, epsilon):
        gamma, placement, trace = distributed_max_esir(model, s, h, n, epsilon)
        return (gamma, placement) + trace_rows(trace)

    def asked(label, fn, *args):
        return label, lambda: fn(*args)

    # The benchmark's stochastic operations, as it asks them.
    for kind, target, ask in (("single_beta", single_uav_position, single),
                              ("single_mgf", single_uav_position, single),
                              ("distributed_max_esir_beta", distributed_max_esir, esir),
                              ("distributed_max_esir_mgf", distributed_max_esir, esir),
                              ("stochastic_design", design_min_uavs_stochastic,
                               design_min_uavs_stochastic)):
        for label, args, _ in benchmark_calls(workloads.interference_fields, kind,
                                              target, BENCH_SEEDS[:draws]):
            yield asked(label, ask, *args)

    def field(rng, span, kind):
        if kind == "beta":
            return BetaField(rng.uniform(1.5, 8.0), rng.uniform(0.5, 8.0),
                             10.0 ** rng.uniform(-2.0, 1.0), 100.0)
        if kind == "beta rising":
            a0, a1 = rng.uniform(1.5, 4.0), rng.uniform(0.0, 4.0)
            return BetaField(lambda x: a0 + a1 * x / span, rng.uniform(0.5, 8.0),
                             10.0 ** rng.uniform(-2.0, 1.0), 100.0)
        if kind == "deterministic":
            return DeterministicField(10.0 ** rng.uniform(-3.0, 3.0), 100.0)
        if kind == "deterministic callable":
            c0, c1 = 10.0 ** rng.uniform(-3.0, 3.0), rng.uniform(-0.5, 2.0)
            return DeterministicField(lambda x: c0 * (1.0 + c1 * x / span), 100.0)
        if kind == "gamma mgf":
            return workloads.gamma_field(rng, span)[0]
        knots = sorted(rng.uniform(0.0, span) for _ in range(rng.randint(0, 3)))
        x_m = [0.0] + knots + [span]
        if kind == "beta_knots":
            return _parse_field({
                "variant": kind, "x_m": x_m, "i_max_w": 10.0 ** rng.uniform(-2.0, 1.0),
                "alpha": [rng.uniform(1.5, 8.0) for _ in x_m],
                "beta": [rng.uniform(0.5, 8.0) for _ in x_m], "altitude_m": 100.0})
        return _parse_field({
            "variant": kind, "x_m": x_m, "altitude_m": 100.0,
            "upsilon": [10.0 ** rng.uniform(-3.0, 3.0) for _ in x_m]})

    def questions(label, rng, s, h, kind):
        """Upsilon, the three planners and the expected links at scenario
        s and altitude h, under a field of this kind.  The MGF field's
        Upsilon is a 289-node quadrature per position, so its scans are
        short."""
        D = s.distance_tx_rx
        model = field(rng, D, kind)
        label = f"{label} ({kind})"
        try:
            cap = upsilon(model, D) * s.p_uav / (s.channel.eta_nlos * h ** 2)
        except Exception:  # a scenario whose cap fails gets a plain target
            cap = 1.0
        if not 0.0 < cap < math.inf:
            cap = 1.0
        rounds = rng.randint(5, 40 if kind == "gamma mgf" else 300)
        n = rng.randint(1, 4 if kind == "gamma mgf" else 12)
        hops = [D * w for w in (rng.random() for _ in range(n + 1))]
        hops = [d * D / sum(hops) for d in hops]
        if n > 1 and rng.random() < 0.1:
            hops[rng.randint(1, n - 1)] = 0.0  # a middle hop of length zero
        xs = (0.0, D / 3.0, D, rng.uniform(0.0, D), -D, 2.0 * D)
        yield asked(f"{label}: upsilon", lambda: [upsilon(model, x) for x in xs])
        yield asked(f"{label}: design_min_uavs_stochastic",
                    design_min_uavs_stochastic, model, s, h,
                    cap * rng.uniform(0.05, 1.0))
        yield asked(f"{label}: single_uav_position", single, model, s, h,
                    cap / rounds)
        yield asked(f"{label}: distributed_max_esir", esir, model, s, h, n,
                    cap / rounds)
        yield asked(f"{label}: expected_multihop_link_sirs",
                    expected_multihop_link_sirs, model, s, hops, h)

    ch = workloads.readme_channel()
    kinds = itertools.cycle(FIELD_KINDS)
    for k in range(draws):
        rng = random.Random(k)
        s, h = workloads.criterion09_draw(rng, ch)[:2]
        yield from questions(f"criterion 09 draw {k}", rng, s, h, next(kinds))

    for k in range(draws):
        rng = random.Random(k)
        s = edge_scenario(rng, ch)
        h = rng.uniform(s.h_min, s.h_max)
        yield from questions(f"edge draw {k}", rng, s, h, next(kinds))

    # A design that no chain within the UAV cap closes: every n and rho runs.
    s = Scenario(300.0, 150.0, 50.0, 1.0, 1.0, 1.0, 1.0, 100.0,
                 ChannelParams.from_carrier(2.4e9, 1.0, 10.0))
    model = BetaField(lambda x: 2.0 + x / 300.0, 2.0, 1.0, 100.0)
    gamma = (0.999 * upsilon(model, 300.0) * s.p_uav
             / (s.channel.eta_nlos * 10.0 ** 2))
    yield asked("design past the UAV cap", design_min_uavs_stochastic,
                model, s, 10.0, gamma)


CORPORA = {"refine_altitudes": refine_corpus, "dualhop": dualhop_corpus,
           "exhaustive": exhaustive_corpus, "distributed": distributed_corpus,
           "stochastic": stochastic_corpus}


def emit(planner: str, draws: int) -> None:
    """Child side: one JSON line [label, repr] per answer or raised error."""
    warnings.simplefilter("ignore")
    for label, thunk in CORPORA[planner](draws):
        try:
            answer = repr(thunk())
        except Exception as exc:  # an error is an answer to compare
            answer = f"raised {exc!r}"
        print(json.dumps([label, answer]), flush=True)


def answers(tree: Path, planner: str, draws: int) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"))
    return subprocess.Popen(
        [sys.executable, __file__, "--emit", planner, str(draws)],
        env=env, stdout=subprocess.PIPE, text=True)


def expected_labels(path: Path, tree_a: Path, planner: str) -> set:
    """The labels of planner's corpus that the --expect file allows to
    differ, or none when the file is for another base than TREE_A."""
    spec = json.loads(path.read_text())
    head = subprocess.run(["git", "-C", str(tree_a), "rev-parse", "HEAD"],
                          capture_output=True, text=True).stdout.strip()
    if spec["base"] != head:
        print(f"{path} is for base {spec['base']}, not {head or 'an unknown'}"
              " commit: no answer may differ")
        return set()
    return set(spec["differ"].get(planner, ()))


def main() -> int:
    if sys.argv[1:2] == ["--emit"]:
        emit(sys.argv[2], int(sys.argv[3]))
        return 0
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("--planner", choices=sorted(CORPORA),
                        default="refine_altitudes")
    parser.add_argument("--draws", type=int, default=DEFAULT_DRAWS)
    parser.add_argument("--expect", type=Path,
                        help="JSON file of the labels allowed to differ")
    args = parser.parse_args()
    expected = (expected_labels(args.expect, args.tree_a, args.planner)
                if args.expect else set())
    children = [answers(tree, args.planner, args.draws)
                for tree in (args.tree_a, args.tree_b)]
    sides = []
    for child, tree in zip(children, (args.tree_a, args.tree_b)):
        out, _ = child.communicate()
        if child.returncode != 0:
            print(f"{tree}: the corpus run exited {child.returncode}")
            return 2
        sides.append([json.loads(line) for line in out.splitlines()])
    a, b = sides
    if [label for label, _ in a] != [label for label, _ in b]:
        print("the two trees ran different corpora")
        return 2
    differ = []
    for (label, x), (_, y) in zip(a, b):
        if x != y:
            differ.append(label)
            print(f"differs{' as expected' if label in expected else ''}: {label}")
            print(f"  {args.tree_a}: {x[:300]}\n  {args.tree_b}: {y[:300]}")
    for label in sorted(expected - set(differ)):
        print(f"expected to differ, but does not: {label}")
    raised = sum(answer.startswith("raised ") for _, answer in a)
    print(f"{args.planner}: {len(a)} answers ({raised} raised errors), "
          f"{len(differ)} differ" + (f", {len(expected)} expected to"
                                     if args.expect else ""))
    return 0 if set(differ) == expected else 1


if __name__ == "__main__":
    sys.exit(main())
