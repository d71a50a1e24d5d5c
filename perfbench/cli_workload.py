"""The cli_cold workload: one `python -m uavrelay.cli <cmd>` process per
operation, cycling through the README commands on small seeded scenarios.

Each command's JSON record (and CSV where it carries the result) is checked
with the same independent formulas as the in-process workloads.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from uavrelay.channel import Scenario
from uavrelay.errors import InfeasibleError
from uavrelay.multihop import design_min_uavs

import reference as ref
from workloads import ESIR_BELOW_TARGET, JOINT_BELOW_GRID, Op, readme_channel

C_LOS = 10 ** 0.01
C_NLOS = 10 ** 2.1
FIT_GRID = (64, 16)
BASELINE_TRIALS = 1000
DISTRIBUTED_ROUNDS = 2000
DISTRIBUTED_UAVS = 30
REFINE_ROUNDS = 100
ESIR_ROUNDS = 300
#: The README's sample count.  dualhop-locus samples x = D * i / (samples - 1),
#: and with 400 samples the last x rounds above D for about 1 distance in 15:
#: the command exits 2 ("x outside [0, D]").
LOCUS_SAMPLES = 400
#: The span of the scenario file, the same on every seed, since the locus
#: fault depends on D alone.  It is a span the fault hits (drawn in
#: [900, 1100] on one seed), so dualhop-locus fails in every round until the
#: fault is mended.
SPAN = 994.9141357377096
H = 20.0
REFINE_H = 220.0
#: README targets: x5 needs 16 to 33 UAVs on these scenarios; the exhaustive
#: oracle searches at most 8, so it gets the smaller target x2.
DESIGN_GAMMA = 5.0
ORACLE_GAMMA = 2.0


class CliInputs:
    """A seeded README-like scenario file and the command lines run on it."""

    def __init__(self, seed: int, work: Path):
        rng = random.Random(seed)
        d = SPAN
        self.s = Scenario(d, d * rng.uniform(0.4, 0.6), rng.uniform(300.0, 500.0),
                          80.0 * rng.uniform(0.8, 1.2), rng.uniform(0.8, 1.2),
                          80.0 * rng.uniform(0.8, 1.2), 5.0, 400.0,
                          readme_channel(), d_min=4.0)
        self.sources = [(rng.uniform(0.0, d), rng.uniform(20.0, 0.5 * d),
                         10.0 ** rng.uniform(-1.0, 1.0)) for _ in range(3)]
        self.alpha = rng.uniform(2.0, 5.0)
        self.beta = rng.uniform(0.5, 3.0)
        self.i_max = rng.uniform(0.5, 2.0)
        self.baseline_seed = rng.randrange(1000)
        self.work = work
        self.path = str(work / "scenario.yaml")
        with open(self.path, "w") as fh:
            fh.write(self.yaml())
        self.ups = ref.beta_upsilon(self.alpha, self.beta, self.i_max)
        eta = self.s.channel.eta_nlos
        self.esir_cap = self.ups * self.s.p_uav / (eta * H ** 2)
        self.eps_distributed = ref.start_target(self.s, H) / DISTRIBUTED_ROUNDS
        self.eps_refine = ref.start_target(self.s, REFINE_H) / REFINE_ROUNDS
        self.eps_esir = self.esir_cap / ESIR_ROUNDS
        self.esir_gamma = 0.2 * self.esir_cap

    def yaml(self) -> str:
        s = self.s
        lines = ["channel:", "  carrier_frequency_hz: 2.0e+9",
                 f"  c_los: {C_LOS!r}", f"  c_nlos: {C_NLOS!r}",
                 "geometry:", f"  d_m: {s.distance_tx_rx!r}",
                 f"  msi_x_m: {s.msi_x!r}", f"  msi_y_m: {s.msi_y!r}",
                 f"  h_min_m: {s.h_min!r}", f"  h_max_m: {s.h_max!r}",
                 f"  d_min_m: {s.d_min!r}",
                 "powers:", f"  p_tx_w: {s.p_tx!r}", f"  p_uav_w: {s.p_uav!r}",
                 f"  p_msi_w: {s.p_msi!r}", "sources:"]
        lines += [f"  - {{x_m: {x!r}, y_m: {y!r}, p_w: {p!r}}}"
                  for x, y, p in self.sources]
        lines += ["interference_field:", "  variant: beta",
                  f"  alpha: {self.alpha!r}", f"  beta: {self.beta!r}",
                  f"  i_max_w: {self.i_max!r}", "  altitude_m: 100.0"]
        return "\n".join(lines) + "\n"

    def out(self, name: str) -> str:
        return str(self.work / name)


# --------------------------------------------------------------- processes

def child_env() -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list[str], work: Path) -> tuple[int, int]:
    """Run a child to completion; returns (exit code, its peak RSS in KiB).
    Its standard error is left in work/stderr.txt."""
    with open(work / "stderr.txt", "wb") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err,
                                env=child_env(), cwd=work)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def exit_failure(work: Path, code: int) -> list[str]:
    """The failure code of a child that exited non-zero: its exit code and
    the last line it wrote to standard error."""
    lines = (work / "stderr.txt").read_text(errors="replace").strip().splitlines()
    return [f"exit code {code}: {lines[-1] if lines else ''}"]


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "uavrelay.cli", *args]


def run_in_process(args: list[str]) -> int:
    """The same command without a new interpreter: the cli layer alone."""
    from uavrelay.cli import main

    saved = sys.argv
    sys.argv = ["uavrelay", *args]
    try:
        with redirect_stdout(io.StringIO()):
            main.main(args=args, prog_name="uavrelay", standalone_mode=False)
        return 0
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.argv = saved


# ------------------------------------------------------------------ checks

def read_record(prefix: str) -> dict:
    with open(prefix + ".json") as fh:
        return json.load(fh)["outputs"]


def read_rows(prefix: str) -> list[dict]:
    with open(prefix + ".csv", newline="") as fh:
        return list(csv.DictReader(fh))


def check_dualhop_opt(inp, op, prefix):
    rec = read_record(prefix)
    own = float(ref.dual_sir(inp.s, rec["x_m"], rec["h_m"]))
    best, slack = op.reference("grid", lambda: ref.grid_max_and_slack(inp.s, 500, 500))
    fails = []
    if not ref.close(rec["sir_system"], own):
        fails.append("reported SIR differs from the link formulas")
    if own < best - slack:
        fails.append(JOINT_BELOW_GRID)
    return fails


def check_locus(inp, op, prefix):
    on_locus = 0
    for row in read_rows(prefix):
        hs = [float(row[k]) for k in ("h_plus_m", "h_minus_m")]
        hs = [h for h in hs if not math.isnan(h)]
        on_locus += bool(hs)
        for h in hs:
            up, down = ref.dual_links(inp.s, float(row["x_m"]), h)
            if not (ref.close(float(up), float(down), 1e-6)
                    and inp.s.h_min <= h <= inp.s.h_max):
                return ["locus point where the two SIRs differ"]
    if on_locus != read_record(prefix)["points_on_locus"]:
        return ["points_on_locus differs from the CSV"]
    return []


def check_case(inp, op, prefix):
    rec = read_record(prefix)
    s = inp.s
    X, Y, D, h2 = s.msi_x, s.msi_y, s.distance_tx_rx, 50.0 ** 2
    c1 = (s.channel.mu_nlos / s.channel.eta_nlos * (Y ** 2 + (D - X) ** 2) * h2
          / ((X ** 2 + Y ** 2 + h2) * (D ** 2 + h2)))
    fails = []
    if not ref.close(rec["c1"], c1):
        fails.append("case threshold c1 differs from its closed form")
    if (rec["case"] == 1) != (s.p_tx / s.p_uav < c1):
        fails.append("case 1 label disagrees with the power ratio")
    return fails


def check_design(inp, op, prefix):
    rec = read_record(prefix)
    own = ref.uniform_chain_links(inp.s, rec["hops_m"], H)
    fails = []
    if not ref.spans_distance(inp.s, rec["hops_m"]):
        fails.append("designed hops do not sum to D")
    if not ref.meets_target(own, DESIGN_GAMMA):
        fails.append("a designed link is below gamma")
    if not ref.close(rec["system_sir"], float(own.min())):
        fails.append("reported system SIR differs from the link formulas")
    return fails


def check_distributed(inp, op, prefix):
    rec = read_record(prefix)
    gamma, hops = rec["gamma_final"], rec["hops_m"]
    fails = []
    if not ref.spans_distance(inp.s, hops):
        fails.append("distributed hops do not sum to D")
    if not ref.meets_target(ref.uniform_chain_links(inp.s, hops, H), gamma):
        fails.append("a distributed link is below the final target")
    if not ref.rounds_match(rec["iterations"], ref.start_target(inp.s, H), gamma,
                            inp.eps_distributed):
        fails.append("round count differs from (gamma0 - gamma)/epsilon + 1")
    return fails


def check_refine(inp, op, prefix):
    rec = read_record(prefix)
    history = [float(r["sir_system"]) for r in read_rows(prefix)]
    own = float(ref.chain_links(inp.s, rec["hops_m"], rec["altitudes_m"]).min())
    fails = []
    if any(b < a for a, b in zip(history, history[1:])):
        fails.append("refine_altitudes history decreases")
    if not ref.close(rec["sir_final"], own):
        fails.append("refined system SIR differs from the 3-D link formulas")
    if not ref.spans_distance(inp.s, rec["hops_m"]):
        fails.append("refined hops do not sum to D")
    return fails


def check_fit(inp, op, prefix):
    from uavrelay.multisource import InterferenceSource

    rec = read_record(prefix)
    sources = [InterferenceSource(*src) for src in inp.sources]
    mass = op.reference("mass", lambda: ref.field_mass(sources, inp.s, FIT_GRID))
    centroid = op.reference("centroid", lambda: ref.fit_objective(
        sources, inp.s, FIT_GRID, *ref.power_centroid(sources)))
    own = ref.fit_objective(sources, inp.s, FIT_GRID, rec["x_h_m"], rec["y_h_m"],
                            rec["p_h_w"])
    fails = []
    if abs(rec["residual"] - own) > ref.SAME_FORMULA_RTOL * mass:
        fails.append("fit residual differs from the L1 objective")
    if rec["residual"] > centroid + ref.FIT_RTOL * mass:
        fails.append("fit worse than the power-weighted centroid stand-in")
    return fails


def check_stochastic_single(inp, op, prefix):
    rec = read_record(prefix)
    own = ref.expected_dual(lambda _x: inp.ups, inp.s, rec["x_m"], H)
    if not ref.close(rec["expected_sir"], own):
        return ["expected SIR differs from the expected-link formulas"]
    return []


def check_stochastic_design(inp, op, prefix):
    rec = read_record(prefix)
    own = ref.expected_links(lambda _x: inp.ups, inp.s, rec["hops_m"], H)
    fails = []
    if not ref.spans_distance(inp.s, rec["hops_m"]):
        fails.append("designed hops do not sum to D")
    if not ref.meets_target(own, inp.esir_gamma):
        fails.append("a designed expected link is below gamma")
    if not ref.close(rec["expected_system_sir"], float(own.min())):
        fails.append("reported expected SIR differs from the formulas")
    return fails


def check_stochastic_distributed(inp, op, prefix):
    rec = read_record(prefix)
    gamma, hops = rec["gamma_final"], rec["hops_m"]
    fails = []
    if not ref.spans_distance(inp.s, hops):
        fails.append("distributed hops do not sum to D")
    if not ref.meets_target(ref.expected_links(lambda _x: inp.ups, inp.s, hops, H),
                            gamma):
        fails.append(ESIR_BELOW_TARGET)
    if not ref.rounds_match(rec["iterations"], inp.esir_cap, gamma, inp.eps_esir):
        fails.append("round count differs from (gamma0 - gamma)/epsilon + 1")
    return fails


def check_oracle_grid(inp, op, prefix):
    rec = read_record(prefix)
    best, _ = op.reference("grid", lambda: ref.grid_max_and_slack(inp.s, 500, 500))
    if not ref.close(rec["sir_system"], best):
        return ["oracle-grid best differs from own grid maximum"]
    return []


def check_oracle_exhaustive(inp, op, prefix):
    rec = read_record(prefix)
    n = op.reference("design", lambda: design_min_uavs(
        inp.s, H, ORACLE_GAMMA).placement.uav_count)
    found = rec["n_uavs"]
    if not ref.within_oracle(n, None if found == "unknown-above-n-max" else found):
        return ["design larger than the exhaustive grid minimum"]
    return []


def own_baseline(inp, n_uavs: int, trials: int, seed: int) -> tuple[float, float, float]:
    """Symmetric-Dirichlet hop splits and a uniform shared altitude, one child
    PCG64 stream per trial, as the baseline documents its sampling."""
    s = inp.s
    sirs = []
    for ss in np.random.SeedSequence(seed).spawn(trials):
        rng = np.random.Generator(np.random.PCG64(ss))
        for _ in range(1000):
            hops = rng.dirichlet(np.ones(n_uavs + 1)) * s.distance_tx_rx
            if n_uavs == 1 or np.all(hops[1:-1] >= s.d_min):
                break
        h = rng.uniform(s.h_min, s.h_max)
        sirs.append(float(ref.uniform_chain_links(s, hops, h).min()))
    return float(np.mean(sirs)), max(sirs), min(sirs)


def check_baseline(inp, op, prefix):
    rec = read_record(prefix)
    mean, hi, lo = op.reference("stats", lambda: own_baseline(
        inp, 3, BASELINE_TRIALS, inp.baseline_seed))
    if not (ref.close(rec["mean"], mean) and ref.close(rec["max"], hi)
            and ref.close(rec["min"], lo)):
        return ["baseline statistics differ from own sampling"]
    return []


def check_sweep(inp, op, prefix):
    import dataclasses

    def designed(p_uav, msi_y):
        s = dataclasses.replace(inp.s, p_uav=p_uav, msi_y=msi_y)
        try:
            return str(design_min_uavs(s, H, DESIGN_GAMMA).placement.uav_count)
        except InfeasibleError:
            return "infeasible"

    for row in read_rows(prefix):
        n = op.reference(row["index"], lambda: designed(
            float(row["powers.p_uav_w"]), float(row["geometry.msi_y_m"])))
        got = row["n_uavs"] if row["status"] == "ok" else row["status"].split(":")[0]
        if got != n:
            return ["sweep point differs from the single-point design"]
    return []


# -------------------------------------------------------------- operations

def commands(inp: CliInputs) -> list[tuple[str, list[str], object]]:
    """(kind, argv after `uavrelay`, check) for each README command."""
    p = inp.path
    o = inp.out
    g = repr
    return [
        ("dualhop-opt", ["dualhop-opt", p, "--out", o("opt")], check_dualhop_opt),
        ("dualhop-locus", ["dualhop-locus", p, "--samples", str(LOCUS_SAMPLES),
                           "--out", o("locus")],
         check_locus),
        ("dualhop-case", ["dualhop-case", p, "--h", "50", "--out", o("case")],
         check_case),
        ("multihop-design", ["multihop-design", p, "--gamma", g(DESIGN_GAMMA), "--h", g(H),
                             "--out", o("design")], check_design),
        ("multihop-distributed", ["multihop-distributed", p, "--n-uavs",
                                  str(DISTRIBUTED_UAVS),
                                  "--h", g(H), "--epsilon", g(inp.eps_distributed),
                                  "--out", o("dist")], check_distributed),
        ("refine-altitudes", ["refine-altitudes", p, "--n-uavs", "8", "--h",
                              g(REFINE_H), "--epsilon", g(inp.eps_refine),
                              "--iterations", "2", "--out", o("refine")],
         check_refine),
        ("msi-fit", ["msi-fit", p, "--grid", "%dx%d" % FIT_GRID, "--out", o("fit")],
         check_fit),
        ("stochastic-single", ["stochastic-single", p, "--h", g(H), "--epsilon",
                               g(inp.eps_esir), "--out", o("ssingle")],
         check_stochastic_single),
        ("stochastic-design", ["stochastic-design", p, "--gamma", g(inp.esir_gamma),
                               "--h", g(H), "--out", o("sdesign")],
         check_stochastic_design),
        ("stochastic-distributed", ["stochastic-distributed", p, "--n-uavs", "3",
                                    "--h", g(H), "--epsilon", g(inp.eps_esir),
                                    "--out", o("sdist")],
         check_stochastic_distributed),
        ("oracle-grid", ["oracle-grid", p, "--grid", "500x500", "--out", o("grid")],
         check_oracle_grid),
        ("oracle-exhaustive", ["oracle-exhaustive", p, "--gamma", g(ORACLE_GAMMA), "--h", g(H),
                               "--out", o("exh")], check_oracle_exhaustive),
        ("baseline-random", ["baseline-random", p, "--n-uavs", "3", "--trials",
                             str(BASELINE_TRIALS), "--seed", str(inp.baseline_seed),
                             "--out", o("base")], check_baseline),
        ("sweep", ["sweep", p, "multihop-design", "--param",
                   "powers.p_uav_w=0.5:4:4", "--param", "geometry.msi_y_m=100:400:2",
                   "--gamma", g(DESIGN_GAMMA), "--h", g(H), "--out", o("sweep")],
         check_sweep),
    ]


def out_prefix(args: list[str]) -> str:
    return args[args.index("--out") + 1]


def command_op(inp: CliInputs, kind: str, args: list[str], check, peaks: list) -> Op:
    prefix = out_prefix(args)

    def run(tr):
        code, rss = tr.call("cli.process", spawn, cli_argv(args), inp.work)
        peaks.append(rss)
        return code

    def check_out(code):
        if code != 0:
            return exit_failure(inp.work, code)
        return check(inp, op, prefix)

    op = Op(kind, run, check_out)
    return op


def replay_op(inp: CliInputs, peaks: list, saved: dict) -> Op:
    """Replays the baseline-random command recorded in its own JSON record;
    the outputs must match the first run byte for byte."""
    prefix = inp.out("base")

    def run(tr):
        with open(prefix + ".json") as fh:
            recorded = json.load(fh)["command"]
        for ext in (".json", ".csv"):
            with open(prefix + ext, "rb") as fh:
                saved[ext] = fh.read()
        code, rss = tr.call("cli.process", spawn, cli_argv(recorded), inp.work)
        peaks.append(rss)
        return code

    def check(code):
        if code != 0:
            return exit_failure(inp.work, code)
        for ext, before in saved.items():
            with open(prefix + ext, "rb") as fh:
                if fh.read() != before:
                    return [f"baseline-random replay differs in {ext}"]
        return []

    return Op("baseline-replay", run, check)


def cli_cold(seed: int, work: Path, peaks: list) -> list[Op]:
    """One process per README command, plus the replay of baseline-random;
    each child's peak RSS is appended to `peaks`."""
    inp = CliInputs(seed, work)
    ops = [command_op(inp, kind, args, check, peaks)
           for kind, args, check in commands(inp)]
    ops.insert([op.kind for op in ops].index("baseline-random") + 1,
               replay_op(inp, peaks, {}))
    return ops
