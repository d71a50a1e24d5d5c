"""Benchmark of the uavrelay planners, their oracles and the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process, on one thread, for S seconds of whole
rounds, and prints one JSON object as the last line of standard output:
`correct`, `attempted`, `failed` and `metrics`.  With --trace 0 the metrics
are the end-to-end ones (ops_per_s, op_p50_ms, setup_s, peak_rss_mb); with
--trace 1 they are the per-layer ones, taken from spans recorded around every
call into the program.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported here or in a child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOAD_NAMES = ("dualhop_oracle", "fleets_and_fields", "cli_cold")
#: Set-up is timed in this many fresh interpreters; the median is reported.
SETUP_SAMPLES = 3
#: Child processes timed for the interpreter floor and the CLI import.
CLI_PROBES = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import and generate the inputs, then exit "
                        "(how set-up is timed)")
    return p.parse_args(argv)


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


class Inputs:
    """A workload's operations; for cli_cold also the children's peak RSS
    (KiB)."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.peaks: list[int] = []
        if workload == "cli_cold":
            from cli_workload import cli_cold

            self.ops = cli_cold(seed, work, self.peaks)
        else:
            import workloads

            self.ops = workloads.WORKLOADS[workload](seed)


def make_work_dir() -> Path:
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    return work


def run_op(op, tr) -> tuple[float, list[str]]:
    """Time one operation from outside, then check its outputs."""
    tr.begin_op(op.kind)
    start = perf_counter()
    try:
        out = op.run(tr)
    except Exception as exc:  # the run goes on; the op counts as failed
        elapsed = perf_counter() - start
        tr.end_op()
        log(f"{op.kind}: {type(exc).__name__}: {exc}\n{traceback.format_exc()}")
        return elapsed, [f"{type(exc).__name__}: {exc}"]
    elapsed = perf_counter() - start
    tr.end_op()
    return elapsed, op.check(out)


def warm_up(inputs: Inputs, tr) -> None:
    """One untimed pass over the first operation of each kind, so lazy
    imports and first-call costs fall here (cli_cold: one process, which
    warms the file cache)."""
    seen = set()
    for op in inputs.ops:
        if op.kind not in seen:
            seen.add(op.kind)
            run_op(op, tr)
            if inputs.workload == "cli_cold":
                return


def is_known_fault(fails: list[str]) -> bool:
    from workloads import KNOWN_FAULTS

    return all(any(k in f for k in KNOWN_FAULTS) for f in fails)


def timed_rounds(ops, tr, seconds: float):
    """Whole rounds until `seconds` have passed; per-op and per-round times."""
    times: list[float] = []
    round_times: list[float] = []
    failed = 0
    unexpected = []
    start = perf_counter()
    while True:
        round_start = len(times)
        for op in ops:
            elapsed, fails = run_op(op, tr)
            times.append(elapsed)
            if fails:
                failed += 1
                if not is_known_fault(fails):
                    unexpected.append((op.kind, fails))
        round_times.append(sum(times[round_start:]))
        if perf_counter() - start >= seconds:
            return times, round_times, failed, unexpected


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of fresh interpreters that import and build inputs."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
        samples.append(perf_counter() - start)
    return statistics.median(samples)


# ------------------------------------------------------------------ traced

def probe_other_layers(workload: str, seed: int, work: Path, tr) -> None:
    """Run one operation of each kind of the other workloads, and the CLI
    probes, so that a traced run reports every layer metric."""
    import cli_workload
    import workloads

    for name, build in workloads.WORKLOADS.items():
        if name == workload:
            continue
        seen = set()
        for op in build(seed):
            if op.kind not in seen:
                seen.add(op.kind)
                run_op(op, tr)
    from uavrelay.cli import parse_scenario

    inp = cli_workload.CliInputs(seed, work)
    for _ in range(CLI_PROBES):
        start = perf_counter()
        cli_workload.spawn([sys.executable, "-c", "pass"], work)
        tr.record("cli.interpreter", perf_counter() - start)
    import_probe = ("import time; t = time.perf_counter(); import uavrelay.cli; "
                    "print(time.perf_counter() - t)")
    for _ in range(CLI_PROBES):
        done = subprocess.run([sys.executable, "-c", import_probe], check=True,
                              capture_output=True, text=True,
                              env=cli_workload.child_env(), cwd=work)
        tr.record("cli.import", float(done.stdout))
    for kind, args, _ in cli_workload.commands(inp):
        tr.begin_op("cli_in_process")
        tr.call("cli.parse_scenario", parse_scenario, inp.path)
        code = tr.call("cli.command", cli_workload.run_in_process, args)
        tr.end_op()
        if code != 0:
            log(f"in-process {kind} exited {code}")


def layer_metrics(tr, ops_per_s: float, timed_s: float, timed_spans: int) -> dict:
    from tracer import span_cost_s

    rounds = tr.counters["multihop.distributed_rounds"][0]
    m = {
        "dualhop.optimal_position_ms": tr.mean_ms("dualhop.optimal_position"),
        "dualhop.fixed_coordinate_ms": tr.mean_ms("dualhop.optimal_x_fixed_h",
                                                  "dualhop.optimal_h_fixed_x"),
        "channel.sir_system_dual_us": 1e3 * tr.mean_ms("channel.sir_system_dual"),
        "oracle.grid_search_dual_ms": tr.mean_ms("oracle.grid_search_dual"),
        "oracle.lipschitz_slack_ms": tr.mean_ms("oracle.lipschitz_slack"),
        "multihop.distributed_short_fleet_ms":
            tr.mean_ms("multihop.distributed_short_fleet"),
        "multihop.distributed_long_fleet_ms":
            tr.mean_ms("multihop.distributed_long_fleet"),
        "multihop.distributed_us_per_round":
            1e6 * tr.total_s("multihop.distributed_") / rounds,
        "multihop.distributed_rounds": tr.mean_count("multihop.distributed_rounds"),
        "multihop.design_min_uavs_ms": tr.mean_ms("multihop.design_min_uavs"),
        "multihop.refine_altitudes_ms": tr.mean_ms("multihop.refine_altitudes"),
        "channel.multihop_link_sirs_us": 1e3 * tr.mean_ms("channel.multihop_link_sirs"),
        "oracle.exhaustive_min_uavs_ms": tr.mean_ms("oracle.exhaustive_min_uavs"),
        "multisource.fit_hypothetical_msi_ms":
            tr.mean_ms("multisource.fit_hypothetical_msi"),
        "stochastic.upsilon_mgf_us": 1e3 * tr.mean_ms("stochastic.upsilon_mgf"),
        "stochastic.single_uav_position_ms":
            tr.mean_ms("stochastic.single_uav_position"),
        "stochastic.distributed_max_esir_beta_ms":
            tr.mean_ms("stochastic.distributed_max_esir_beta"),
        "stochastic.distributed_max_esir_mgf_ms":
            tr.mean_ms("stochastic.distributed_max_esir_mgf"),
        "stochastic.esir_rounds": tr.mean_count("stochastic.esir_rounds"),
        "stochastic.design_min_uavs_stochastic_ms":
            tr.mean_ms("stochastic.design_min_uavs_stochastic"),
        "oracle.exhaustive_min_uavs_stochastic_ms":
            tr.mean_ms("oracle.exhaustive_min_uavs_stochastic"),
        "cli.interpreter_ms": tr.mean_ms("cli.interpreter"),
        "cli.import_ms": tr.mean_ms("cli.import"),
        "cli.parse_scenario_ms": tr.mean_ms("cli.parse_scenario"),
        "cli.command_ms": tr.mean_ms("cli.command"),
    }
    for layer, (self_s, calls) in tr.layer_report().items():
        m[f"{layer}.self_ms_per_op"] = 1e3 * self_s / tr.op_count
        m[f"{layer}.calls_per_op"] = calls / tr.op_count
    m["trace.ops_per_s"] = ops_per_s
    m["trace.overhead_pct"] = 100.0 * span_cost_s() * timed_spans / timed_s
    return m


def metric_units() -> dict[str, str]:
    """Every metric's unit, from the benchmark's own definition file."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


# -------------------------------------------------------------------- main

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "uavrelay" / "__init__.py").is_file():
        log(f"error: the uavrelay sources are not at {SRC}")
        return 2
    sys.path.insert(0, str(SRC))
    from tracer import Tracer

    units = metric_units()

    work = make_work_dir()
    try:
        inputs = Inputs(args.workload, args.seed, work)
        if args.setup_only:
            return 0
        tr = Tracer(bool(args.trace))
        tr.instrument()
        warm_up(inputs, tr)
        spans_before = tr.entered
        times, round_times, failed, unexpected = timed_rounds(inputs.ops, tr,
                                                              args.seconds)
        # The median round resists the bursts of a shared machine.
        ops_per_s = len(inputs.ops) / statistics.median(round_times)
        timed_spans = tr.entered - spans_before
        peak_kib = (max(inputs.peaks) if args.workload == "cli_cold"
                    else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        for kind, fails in unexpected[:5]:
            log(f"unexpected failure in {kind}: {fails}")
        if args.trace:
            probe_other_layers(args.workload, args.seed, work, tr)
            metrics = layer_metrics(tr, ops_per_s, sum(times), timed_spans)
            tr.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
            log(f"{tr.entered} spans, {tr.dropped} of them counted but not kept")
        else:
            metrics = {
                "ops_per_s": ops_per_s,
                "op_p50_ms": 1e3 * statistics.median(times),
                "setup_s": setup_seconds(args.workload, args.seed),
                "peak_rss_mb": peak_kib / 1024.0,
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": not unexpected,
        "attempted": len(times),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
