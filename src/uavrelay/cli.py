"""Command line front end: scenario files, planner subcommands, sweeps.

Scenario files are YAML with unit-suffixed keys (see `parse_scenario`).
Every subcommand writes a JSON result record plus a CSV table meant for
direct plotting.  All SIR values are linear inside; dB appears only at the
flag boundary (`--gamma 11db`).

Exit codes: 0 ok, 2 schema or input error, 3 infeasible target,
4 numeric failure.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
import math
import sys
from typing import Optional

import click
import numpy as np
import yaml

from . import __version__
from .channel import ChannelParams, Scenario, require_positive
from .dualhop import classify_case_fixed_h, locus_heights, optimal_position
from .errors import (DomainError, InfeasibleError, NumericError, PlanningError,
                     SchemaError)
from .multihop import design_min_uavs, distributed_max_sir, refine_altitudes
from .multisource import InterferenceSource, fit_hypothetical_msi
from .oracle import (GridSpec, exhaustive_min_uavs, grid_search_dual,
                     random_placement_baseline)
from .stochastic import (BetaField, DeterministicField, InterferenceModel,
                         design_min_uavs_stochastic, distributed_max_esir,
                         expected_multihop_link_sirs, single_uav_position)

EXIT_SCHEMA = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERIC = 4


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


# ---------------------------------------------------------------- scenario IO

_CHANNEL_KEYS = {"carrier_frequency_hz", "c_los", "c_nlos", "eta_nlos"}
_GEOMETRY_KEYS = {"d_m", "msi_x_m", "msi_y_m", "h_min_m", "h_max_m", "d_min_m"}
_POWER_KEYS = {"p_tx_w", "p_uav_w", "p_msi_w"}
_SOURCE_KEYS = {"x_m", "y_m", "p_w"}
_FIELD_VARIANTS = {"deterministic", "beta", "beta_knots", "tabulated_upsilon"}


def _require_section(doc: dict, name: str, allowed: set[str],
                     required: set[str]) -> dict:
    if name not in doc:
        raise SchemaError(f"missing section {name!r}")
    section = doc[name]
    if not isinstance(section, dict):
        raise SchemaError(f"section {name!r} must be a mapping")
    unknown = set(section) - allowed
    if unknown:
        raise SchemaError(
            f"unknown key(s) in {name!r}: {', '.join(sorted(unknown))} "
            "(unit suffixes are mandatory)")
    missing = required - set(section)
    if missing:
        raise SchemaError(f"missing key(s) in {name!r}: {', '.join(sorted(missing))}")
    return section


def _number(section: dict, sec_name: str, key: str) -> float:
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{sec_name}.{key} must be a number, got {value!r}")
    return float(value)


def _parse_field(raw: dict) -> InterferenceModel:
    if "variant" not in raw:
        raise SchemaError("interference_field needs a 'variant' key")
    variant = raw["variant"]
    if variant not in _FIELD_VARIANTS:
        raise SchemaError(f"unknown interference_field variant {variant!r}")
    sec = "interference_field"

    def num(key):
        if key not in raw:
            raise SchemaError(f"missing key(s) in {sec!r}: {key}")
        return _number(raw, sec, key)

    def arr(key):
        if key not in raw or not isinstance(raw[key], list) or not raw[key]:
            raise SchemaError(f"{sec}.{key} must be a non-empty list")
        return np.array([_number(raw[key], f"{sec}.{key}", i)
                         for i in range(len(raw[key]))])

    def knots(values_key):
        """Knot positions and values of a piecewise-linear profile in x."""
        xs, values = arr("x_m"), arr(values_key)
        if len(xs) != len(values):
            raise SchemaError(f"{variant} arrays must share one length")
        if not np.all(xs[1:] > xs[:-1]):
            raise SchemaError(f"{sec}.x_m must be strictly increasing")
        return xs, values

    def check_keys(allowed):
        unknown = set(raw) - allowed - {"variant"}
        if unknown:
            raise SchemaError(
                f"unknown key(s) in {sec!r}: {', '.join(sorted(unknown))}")

    if variant == "deterministic":
        check_keys({"power_w", "altitude_m"})
        return DeterministicField(num("power_w"), num("altitude_m"))
    if variant == "beta":
        check_keys({"alpha", "beta", "i_max_w", "altitude_m"})
        return BetaField(num("alpha"), num("beta"), num("i_max_w"),
                         num("altitude_m"))
    if variant == "beta_knots":
        check_keys({"x_m", "alpha", "beta", "i_max_w", "altitude_m"})
        xs, al = knots("alpha")
        _, be = knots("beta")

        def interp(values):
            return lambda x: float(np.interp(x, xs, values))

        return BetaField(interp(al), interp(be), num("i_max_w"),
                         num("altitude_m"))
    # tabulated_upsilon: store as a deterministic level 1/Upsilon(x), which
    # reproduces the same expected SIRs.
    check_keys({"x_m", "upsilon", "altitude_m"})
    xs, ups = knots("upsilon")
    return DeterministicField(lambda x: 1.0 / float(np.interp(x, xs, ups)),
                              num("altitude_m"))


def parse_scenario(path: str) -> tuple[Scenario, list[InterferenceSource],
                                       Optional[InterferenceModel]]:
    """Load and validate a YAML scenario file.

    Returns the scenario plus any explicit interferer list and stochastic
    interference model.  Unknown keys anywhere are schema errors.
    """
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except FileNotFoundError:
        raise SchemaError(f"scenario file not found: {path}")
    except yaml.YAMLError as exc:
        raise SchemaError(f"invalid YAML in {path}: {exc}")
    if not isinstance(doc, dict):
        raise SchemaError("scenario document must be a mapping")
    unknown = set(doc) - {"channel", "geometry", "powers", "sources",
                          "interference_field"}
    if unknown:
        raise SchemaError(f"unknown top-level key(s): {', '.join(sorted(unknown))}")

    ch_raw = _require_section(doc, "channel", _CHANNEL_KEYS,
                              {"carrier_frequency_hz", "c_los", "c_nlos"})
    geo = _require_section(doc, "geometry", _GEOMETRY_KEYS,
                           {"d_m", "msi_x_m", "msi_y_m", "h_min_m", "h_max_m"})
    pw = _require_section(doc, "powers", _POWER_KEYS, _POWER_KEYS)

    channel = ChannelParams.from_carrier(
        _number(ch_raw, "channel", "carrier_frequency_hz"),
        _number(ch_raw, "channel", "c_los"),
        _number(ch_raw, "channel", "c_nlos"),
        eta_nlos=(_number(ch_raw, "channel", "eta_nlos")
                  if "eta_nlos" in ch_raw else None))
    try:
        scenario = Scenario(
            distance_tx_rx=_number(geo, "geometry", "d_m"),
            msi_x=_number(geo, "geometry", "msi_x_m"),
            msi_y=_number(geo, "geometry", "msi_y_m"),
            p_tx=_number(pw, "powers", "p_tx_w"),
            p_uav=_number(pw, "powers", "p_uav_w"),
            p_msi=_number(pw, "powers", "p_msi_w"),
            h_min=_number(geo, "geometry", "h_min_m"),
            h_max=_number(geo, "geometry", "h_max_m"),
            channel=channel,
            d_min=(_number(geo, "geometry", "d_min_m")
                   if "d_min_m" in geo else 0.0))
    except DomainError as exc:
        raise SchemaError(f"scenario range violation: {exc}")

    sources = []
    if "sources" in doc:
        if not isinstance(doc["sources"], list):
            raise SchemaError("'sources' must be a list")
        for i, raw in enumerate(doc["sources"]):
            if not isinstance(raw, dict) or set(raw) != _SOURCE_KEYS:
                raise SchemaError(
                    f"sources[{i}] must have exactly keys x_m, y_m, p_w")
            sources.append(InterferenceSource(
                _number(raw, f"sources[{i}]", "x_m"),
                _number(raw, f"sources[{i}]", "y_m"),
                _number(raw, f"sources[{i}]", "p_w")))

    model = None
    if "interference_field" in doc:
        raw = doc["interference_field"]
        if not isinstance(raw, dict):
            raise SchemaError("'interference_field' must be a mapping")
        model = _parse_field(raw)
    return scenario, sources, model


# ------------------------------------------------------------- record output

@dataclasses.dataclass
class ResultRecord:
    """Self-describing output of one subcommand run."""

    command: list[str]
    parameters: dict
    outputs: dict
    provenance: dict

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True, indent=2)


def _emit(record: ResultRecord, rows: list[dict], out: Optional[str],
          default_name: str) -> None:
    prefix = out if out else default_name
    with open(prefix + ".json", "w") as fh:
        fh.write(record.to_json() + "\n")
    if rows:
        with open(prefix + ".csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            for row in rows:
                writer.writerow({k: (_fmt(v) if isinstance(v, float) else v)
                                 for k, v in row.items()})
    click.echo(record.to_json())


class GammaType(click.ParamType):
    """Target SIR: `x12.5` linear, `11db` in decibels, bare number linear."""

    name = "gamma"

    def convert(self, value, param, ctx):
        if isinstance(value, float):
            return value
        text = str(value).strip().lower()
        try:
            if text.startswith("x"):
                gamma = float(text[1:])
            elif text.endswith("db"):
                gamma = 10.0 ** (float(text[:-2]) / 10.0)
            else:
                gamma = float(text)
            require_positive("gamma", gamma)
        except (ValueError, OverflowError, DomainError) as exc:
            self.fail(f"cannot use gamma {value!r} (use x12.5 or 11db): {exc}",
                      param, ctx)
        return gamma


GAMMA = GammaType()


def planner_errors(fn):
    """Map planner exceptions onto the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (SchemaError, DomainError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_SCHEMA)
        except InfeasibleError as exc:
            click.echo(f"infeasible: {exc}", err=True)
            sys.exit(EXIT_INFEASIBLE)
        except (NumericError, PlanningError) as exc:
            click.echo(f"numeric failure: {exc}", err=True)
            sys.exit(EXIT_NUMERIC)

    return wrapper


def _provenance(**extra) -> dict:
    base = {"tool": "uavrelay", "version": __version__}
    base.update(extra)
    return base


def _scenario_params(s: Scenario) -> dict:
    return {
        "d_m": s.distance_tx_rx, "msi_x_m": s.msi_x, "msi_y_m": s.msi_y,
        "p_tx_w": s.p_tx, "p_uav_w": s.p_uav, "p_msi_w": s.p_msi,
        "h_min_m": s.h_min, "h_max_m": s.h_max, "d_min_m": s.d_min,
        "mu_los": s.channel.mu_los, "mu_nlos": s.channel.mu_nlos,
        "eta_nlos": s.channel.eta_nlos,
    }


def _need_model(model) -> InterferenceModel:
    if model is None:
        raise SchemaError("this subcommand needs an interference_field section")
    return model


@click.group()
@click.version_option(version=__version__)
def main():
    """Interference-aware UAV relay placement planners and oracles."""


def scenario_argument(fn):
    return click.argument("scenario", type=click.Path())(fn)


out_option = click.option("--out", default=None, help="Output path prefix.")


# ----------------------------------------------------------------- commands

@main.command("dualhop-opt")
@scenario_argument
@out_option
@planner_errors
def dualhop_opt(scenario, out):
    """Optimal single-UAV position (joint x, h)."""
    s, _, _ = parse_scenario(scenario)
    x, h, report = optimal_position(s)
    record = ResultRecord(
        command=sys.argv[1:], parameters=_scenario_params(s),
        outputs={"x_m": x, "h_m": h, "sir_system": report.system_sir,
                 "sir_links": list(report.per_link),
                 "bottleneck": report.bottleneck_index},
        provenance=_provenance())
    _emit(record, [{"x_m": x, "h_m": h, "sir_system": report.system_sir}],
          out, "dualhop_opt")


@main.command("dualhop-locus")
@scenario_argument
@click.option("--samples", type=click.IntRange(min=2), default=256,
              show_default=True)
@out_option
@planner_errors
def dualhop_locus(scenario, samples, out):
    """Equal-SIR locus h(x) sampled over [0, D]."""
    s, _, _ = parse_scenario(scenario)
    rows = []
    for x in np.linspace(0.0, s.distance_tx_rx, samples).tolist():
        points = locus_heights(s, x)
        row = {"x_m": x, "h_plus_m": float("nan"), "h_minus_m": float("nan")}
        for p in points:
            row["h_plus_m" if p.branch == "plus" else "h_minus_m"] = p.h
        rows.append(row)
    record = ResultRecord(
        command=sys.argv[1:], parameters=_scenario_params(s),
        outputs={"samples": samples,
                 "points_on_locus": sum(
                     1 for r in rows
                     if not (math.isnan(r["h_plus_m"])
                             and math.isnan(r["h_minus_m"])))},
        provenance=_provenance())
    _emit(record, rows, out, "dualhop_locus")


@main.command("multihop-design")
@scenario_argument
@click.option("--gamma", type=GAMMA, required=True)
@click.option("--h", "altitude", type=float, required=True)
@out_option
@planner_errors
def multihop_design(scenario, gamma, altitude, out):
    """Minimum chain of UAVs meeting --gamma at altitude --h."""
    s, _, _ = parse_scenario(scenario)
    result = design_min_uavs(s, altitude, gamma)
    placement = result.placement
    from .channel import multihop_link_sirs
    links = multihop_link_sirs(s, list(placement.hop_distances), altitude)
    rows = [{"hop": i, "distance_m": d,
             "position_m": sum(placement.hop_distances[:i + 1]),
             "link_sir": links[i]}
            for i, d in enumerate(placement.hop_distances)]
    record = ResultRecord(
        command=sys.argv[1:],
        parameters={**_scenario_params(s), "gamma": gamma, "h_m": altitude},
        outputs={"n_uavs": placement.uav_count,
                 "hops_m": list(placement.hop_distances),
                 "system_sir": min(links), "branches": list(result.trace)},
        provenance=_provenance())
    _emit(record, rows, out, "multihop_design")


@main.command("multihop-distributed")
@scenario_argument
@click.option("--n-uavs", type=int, required=True)
@click.option("--h", "altitude", type=float, required=True)
@click.option("--epsilon", type=float, default=0.1, show_default=True)
@out_option
@planner_errors
def multihop_distributed(scenario, n_uavs, altitude, epsilon, out):
    """Forward-propagation distributed placement for a fixed fleet."""
    s, _, _ = parse_scenario(scenario)
    gamma, placement, trace = distributed_max_sir(s, altitude, n_uavs, epsilon)
    rows = [{"iteration": i, "gamma": g, "sir_system": v}
            for i, (g, v) in enumerate(zip(trace.gammas, trace.system_sirs))]
    record = ResultRecord(
        command=sys.argv[1:],
        parameters={**_scenario_params(s), "n_uavs": n_uavs, "h_m": altitude,
                    "epsilon": epsilon},
        outputs={"gamma_final": gamma, "hops_m": list(placement.hop_distances),
                 "iterations": len(trace.gammas)},
        provenance=_provenance())
    _emit(record, rows, out, "multihop_distributed")


@main.command("refine-altitudes")
@scenario_argument
@click.option("--n-uavs", type=int, required=True)
@click.option("--h", "altitude", type=float, required=True)
@click.option("--epsilon", type=float, default=0.1, show_default=True)
@click.option("--eps-h", type=float, default=10.0, show_default=True)
@click.option("--iterations", type=int, default=30, show_default=True)
@out_option
@planner_errors
def refine_altitudes_cmd(scenario, n_uavs, altitude, epsilon, eps_h,
                         iterations, out):
    """Run the distributed planner, then the joint x/h refinement rounds."""
    s, _, _ = parse_scenario(scenario)
    _, placement, _ = distributed_max_sir(s, altitude, n_uavs, epsilon)
    refined, history = refine_altitudes(s, placement, eps_h, iterations)
    rows = [{"iteration": i, "sir_system": v} for i, v in enumerate(history)]
    record = ResultRecord(
        command=sys.argv[1:],
        parameters={**_scenario_params(s), "n_uavs": n_uavs, "h_m": altitude,
                    "epsilon": epsilon, "eps_h": eps_h,
                    "iterations": iterations},
        outputs={"sir_start": history[0], "sir_final": history[-1],
                 "hops_m": list(refined.hop_distances),
                 "altitudes_m": list(refined.altitudes)},
        provenance=_provenance())
    _emit(record, rows, out, "refine_altitudes")


@main.command("stochastic-single")
@scenario_argument
@click.option("--h", "altitude", type=float, required=True)
@click.option("--epsilon", type=float, default=0.1, show_default=True)
@out_option
@planner_errors
def stochastic_single(scenario, altitude, epsilon, out):
    """Single-UAV position under the scenario's interference field."""
    s, _, model = parse_scenario(scenario)
    model = _need_model(model)
    x, esir, trace = single_uav_position(model, s, altitude, epsilon)
    rows = [{"iteration": i, "gamma": g, "x_m": p.hop_distances[0],
             "expected_sir": v}
            for i, (g, p, v) in enumerate(zip(trace.gammas, trace.placements,
                                              trace.system_sirs))]
    record = ResultRecord(
        command=sys.argv[1:],
        parameters={**_scenario_params(s), "h_m": altitude, "epsilon": epsilon},
        outputs={"x_m": x, "expected_sir": esir,
                 "iterations": len(trace.gammas)},
        provenance=_provenance())
    _emit(record, rows, out, "stochastic_single")


@main.command("stochastic-design")
@scenario_argument
@click.option("--gamma", type=GAMMA, required=True)
@click.option("--h", "altitude", type=float, required=True)
@out_option
@planner_errors
def stochastic_design(scenario, gamma, altitude, out):
    """Minimum chain meeting an expected-SIR target under the field."""
    s, _, model = parse_scenario(scenario)
    model = _need_model(model)
    result = design_min_uavs_stochastic(model, s, altitude, gamma)
    placement = result.placement
    esirs = expected_multihop_link_sirs(model, s, placement.hop_distances,
                                        altitude)
    rows = [{"hop": i, "distance_m": d, "expected_link_sir": esirs[i]}
            for i, d in enumerate(placement.hop_distances)]
    record = ResultRecord(
        command=sys.argv[1:],
        parameters={**_scenario_params(s), "gamma": gamma, "h_m": altitude},
        outputs={"n_uavs": placement.uav_count,
                 "hops_m": list(placement.hop_distances),
                 "expected_system_sir": min(esirs)},
        provenance=_provenance())
    _emit(record, rows, out, "stochastic_design")


@main.command("stochastic-distributed")
@scenario_argument
@click.option("--n-uavs", type=int, required=True)
@click.option("--h", "altitude", type=float, required=True)
@click.option("--epsilon", type=float, default=0.1, show_default=True)
@out_option
@planner_errors
def stochastic_distributed(scenario, n_uavs, altitude, epsilon, out):
    """Backward-propagation distributed placement under the field."""
    s, _, model = parse_scenario(scenario)
    model = _need_model(model)
    gamma, placement, trace = distributed_max_esir(model, s, altitude,
                                                   n_uavs, epsilon)
    rows = [{"iteration": i, "gamma": g, "expected_system_sir": v}
            for i, (g, v) in enumerate(zip(trace.gammas, trace.system_sirs))]
    record = ResultRecord(
        command=sys.argv[1:],
        parameters={**_scenario_params(s), "n_uavs": n_uavs, "h_m": altitude,
                    "epsilon": epsilon},
        outputs={"gamma_final": gamma, "hops_m": list(placement.hop_distances),
                 "iterations": len(trace.gammas)},
        provenance=_provenance())
    _emit(record, rows, out, "stochastic_distributed")


@main.command("msi-fit")
@scenario_argument
@click.option("--grid", default="128x32", show_default=True,
              help="Objective grid as NXxNH.")
@out_option
@planner_errors
def msi_fit(scenario, grid, out):
    """Fit one hypothetical interferer to the scenario's source list."""
    s, sources, _ = parse_scenario(scenario)
    if not sources:
        raise SchemaError("msi-fit needs a 'sources' section")
    nx, nh = _parse_grid(grid)
    fit = fit_hypothetical_msi(sources, s, (nx, nh))
    record = ResultRecord(
        command=sys.argv[1:],
        parameters={**_scenario_params(s), "grid": [nx, nh],
                    "n_sources": len(sources)},
        outputs={"x_h_m": fit.x_h, "y_h_m": fit.y_h, "p_h_w": fit.p_h,
                 "residual": fit.residual},
        provenance=_provenance())
    _emit(record, [{"x_h_m": fit.x_h, "y_h_m": fit.y_h, "p_h_w": fit.p_h,
                    "residual": fit.residual}], out, "msi_fit")


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        nx, nh = text.lower().split("x")
        return int(nx), int(nh)
    except ValueError:
        raise SchemaError(f"cannot parse grid {text!r} (expected NXxNH)")


@main.command("oracle-grid")
@scenario_argument
@click.option("--grid", default="500x500", show_default=True)
@out_option
@planner_errors
def oracle_grid(scenario, grid, out):
    """Brute-force grid argmax of the dual-hop system SIR."""
    s, _, _ = parse_scenario(scenario)
    nx, nh = _parse_grid(grid)
    x, h, sir = grid_search_dual(s, GridSpec(nx, nh))
    record = ResultRecord(
        command=sys.argv[1:],
        parameters={**_scenario_params(s), "grid": [nx, nh]},
        outputs={"x_m": x, "h_m": h, "sir_system": sir},
        provenance=_provenance())
    _emit(record, [{"x_m": x, "h_m": h, "sir_system": sir}], out, "oracle_grid")


@main.command("oracle-exhaustive")
@scenario_argument
@click.option("--gamma", type=GAMMA, required=True)
@click.option("--h", "altitude", type=float, required=True)
@click.option("--kind", type=click.Choice(["deterministic", "stochastic"]),
              default="deterministic", show_default=True)
@click.option("--n-max", type=int, default=8, show_default=True)
@click.option("--per-hop-grid", type=int, default=64, show_default=True)
@out_option
@planner_errors
def oracle_exhaustive(scenario, gamma, altitude, kind, n_max, per_hop_grid,
                      out):
    """Exhaustive minimum chain size over a dense position grid."""
    s, _, model = parse_scenario(scenario)
    if kind == "stochastic":
        model = _need_model(model)
    n = exhaustive_min_uavs(kind, s, altitude, gamma, n_max, per_hop_grid,
                            model=model if kind == "stochastic" else None)
    record = ResultRecord(
        command=sys.argv[1:],
        parameters={**_scenario_params(s), "gamma": gamma, "h_m": altitude,
                    "kind": kind, "n_max": n_max,
                    "per_hop_grid": per_hop_grid},
        outputs={"n_uavs": n if n is not None else "unknown-above-n-max"},
        provenance=_provenance())
    _emit(record, [{"n_uavs": n if n is not None else -1}], out,
          "oracle_exhaustive")


@main.command("baseline-random")
@scenario_argument
@click.option("--n-uavs", type=int, required=True)
@click.option("--trials", type=int, default=1000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@out_option
@planner_errors
def baseline_random(scenario, n_uavs, trials, seed, out):
    """Monte-Carlo random-placement baseline (seeded, reproducible)."""
    s, _, _ = parse_scenario(scenario)
    stats = random_placement_baseline(s, n_uavs, trials, seed)
    record = ResultRecord(
        command=sys.argv[1:],
        parameters={**_scenario_params(s), "n_uavs": n_uavs,
                    "trials": trials, "seed": seed},
        outputs={"mean": stats.mean, "max": stats.max, "min": stats.min,
                 "distribution": "symmetric Dirichlet over hop distances, "
                                 "uniform shared altitude"},
        provenance=_provenance(seed=seed, generator="PCG64/SeedSequence"))
    _emit(record, [{"mean": stats.mean, "max": stats.max, "min": stats.min}],
          out, "baseline_random")


@main.command("dualhop-case")
@scenario_argument
@click.option("--h", "altitude", type=float, required=True)
@out_option
@planner_errors
def dualhop_case(scenario, altitude, out):
    """Fixed-altitude case classification of the dual-hop problem."""
    s, _, _ = parse_scenario(scenario)
    label = classify_case_fixed_h(s, altitude)
    record = ResultRecord(
        command=sys.argv[1:],
        parameters={**_scenario_params(s), "h_m": altitude},
        outputs={"case": label.case_id, "c1": label.c1, "c2": label.c2,
                 "c3": label.c3},
        provenance=_provenance())
    _emit(record, [{"case": label.case_id}], out, "dualhop_case")


# -------------------------------------------------------------------- sweep

_SWEEPABLE_COMMANDS = {
    "dualhop-opt", "multihop-design", "multihop-distributed", "oracle-grid",
}


def _set_scenario_field(s: Scenario, dotted: str, value: float) -> Scenario:
    mapping = {
        "geometry.d_m": "distance_tx_rx", "geometry.msi_x_m": "msi_x",
        "geometry.msi_y_m": "msi_y", "geometry.h_min_m": "h_min",
        "geometry.h_max_m": "h_max", "geometry.d_min_m": "d_min",
        "powers.p_tx_w": "p_tx", "powers.p_uav_w": "p_uav",
        "powers.p_msi_w": "p_msi",
    }
    if dotted not in mapping:
        raise SchemaError(f"cannot sweep field {dotted!r}")
    return dataclasses.replace(s, **{mapping[dotted]: value})


def _parse_range(spec: str) -> tuple[str, list[float]]:
    try:
        name, rng = spec.split("=", 1)
        parts = rng.split(":")
        if len(parts) == 1:
            values = [float(parts[0])]
        else:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
            if count < 1:
                raise ValueError
            step = (stop - start) / (count - 1) if count > 1 else 0.0
            values = [start + i * step for i in range(count)]
    except (ValueError, IndexError):
        raise SchemaError(
            f"cannot parse sweep parameter {spec!r} (expected name=a:b:n)")
    return name, values


@main.command("sweep")
@scenario_argument
@click.argument("subcommand",
                type=click.Choice(sorted(_SWEEPABLE_COMMANDS)))
@click.option("--param", "params", multiple=True, required=True,
              help="Sweep axis, e.g. powers.p_uav_w=1:8:4 or h=10:50:9.")
@click.option("--zip", "zipped", is_flag=True,
              help="Zip the axes instead of taking their product.")
@click.option("--gamma", type=GAMMA, default=None)
@click.option("--h", "altitude", type=float, default=None)
@click.option("--n-uavs", type=int, default=None)
@click.option("--epsilon", type=float, default=0.1, show_default=True)
@click.option("--grid", default="500x500", show_default=True)
@out_option
@planner_errors
def sweep(scenario, subcommand, params, zipped, gamma, altitude, n_uavs,
          epsilon, grid, out):
    """Run one subcommand over a grid of scenario fields or flags.

    Per-point failures are recorded (status column) and the batch continues.
    """
    base, _, _ = parse_scenario(scenario)
    axes = [_parse_range(p) for p in params]
    if zipped:
        lengths = {len(vals) for _, vals in axes}
        if len(lengths) != 1:
            raise SchemaError("zipped sweep axes must share one length")
        points = [dict(zip([n for n, _ in axes], combo))
                  for combo in zip(*[vals for _, vals in axes])]
    else:
        points = [{}]
        for name, vals in axes:
            points = [{**pt, name: v} for pt in points for v in vals]

    rows = []
    for idx, pt in enumerate(points):
        s = base
        flags = {"gamma": gamma, "h": altitude, "n_uavs": n_uavs,
                 "epsilon": epsilon}
        for name, value in pt.items():
            key = name.replace("-", "_")
            if "." in name:
                s = _set_scenario_field(s, name, value)
                continue
            if key not in flags:
                raise SchemaError(f"cannot sweep parameter {name!r}")
            if key == "n_uavs":
                if not value.is_integer():
                    raise SchemaError(
                        f"sweep parameter {name!r} takes integers, got {value}")
                value = int(value)
            flags[key] = value
        for key in ("gamma", "epsilon"):
            if flags[key] is not None:
                require_positive(key, flags[key])
        row = {"index": idx, **{k: v for k, v in pt.items()}}
        try:
            row.update(_run_sweep_point(s, subcommand, flags, grid))
            row["status"] = "ok"
        except InfeasibleError as exc:
            row["status"] = f"infeasible: {exc}"
        except PlanningError as exc:
            row["status"] = f"error: {exc}"
        rows.append(row)

    keys: list[str] = []
    for row in rows:
        for k in row:
            if k not in keys:
                keys.append(k)
    rows = [{k: row.get(k, "") for k in keys} for row in rows]
    record = ResultRecord(
        command=sys.argv[1:],
        parameters={**_scenario_params(base), "subcommand": subcommand,
                    "axes": [n for n, _ in axes], "points": len(points)},
        outputs={"ok": sum(1 for r in rows if r["status"] == "ok"),
                 "failed": sum(1 for r in rows if r["status"] != "ok")},
        provenance=_provenance())
    _emit(record, rows, out, "sweep")


def _run_sweep_point(s: Scenario, subcommand: str, flags: dict,
                     grid: str) -> dict:
    if subcommand == "dualhop-opt":
        x, h, report = optimal_position(s)
        return {"x_m": x, "h_m": h, "sir_system": report.system_sir}
    if subcommand == "oracle-grid":
        nx, nh = _parse_grid(grid)
        x, h, sir = grid_search_dual(s, GridSpec(nx, nh))
        return {"x_m": x, "h_m": h, "sir_system": sir}
    if subcommand == "multihop-design":
        if flags["gamma"] is None or flags["h"] is None:
            raise SchemaError("multihop-design sweep needs --gamma and --h")
        result = design_min_uavs(s, flags["h"], flags["gamma"])
        return {"n_uavs": result.placement.uav_count}
    if subcommand == "multihop-distributed":
        if flags["n_uavs"] is None or flags["h"] is None:
            raise SchemaError(
                "multihop-distributed sweep needs --n-uavs and --h")
        g, placement, trace = distributed_max_sir(
            s, flags["h"], flags["n_uavs"], flags["epsilon"])
        return {"gamma_final": g, "sir_system": trace.system_sirs[-1],
                "iterations": len(trace.gammas)}
    raise SchemaError(f"unsupported sweep subcommand {subcommand!r}")


if __name__ == "__main__":
    main()
