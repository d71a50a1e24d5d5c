"""Command line front end: scenario files, planner subcommands, sweeps.

Scenario files are YAML with unit-suffixed keys.  `_SCHEMA` names every key
of the numeric sections, `_FIELD_KEYS` those of each interference_field variant,
and one checker, `_section`, validates each mapping of the file against them.
Every subcommand writes a JSON result record plus a CSV table meant for
direct plotting.  All SIR values are linear inside; dB appears only at the
flag boundary (`--gamma 11db`).

Each subcommand is one planner step registered with its options by
`command`.  `sweep` runs the step of `dualhop-opt`, `oracle-grid`,
`multihop-design` or `multihop-distributed` at every point of its axes.  It
passes on only the flags that subcommand takes, and it exits 2 before the
first point when a flag or axis is foreign to the subcommand, a required one
is missing, or a value is invalid.

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
from typing import Callable, Optional

import click
import numpy as np
import yaml

from . import __version__
from .channel import (ChannelParams, Scenario, multihop_link_sirs,
                      require_positive)
from .dualhop import classify_case_fixed_h, locus_sweep, optimal_position
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

#: The scenario file's numeric sections: file key -> keyword of
#: `ChannelParams.from_carrier` (channel) or field of `Scenario`.
_SCHEMA = {
    "channel": {"carrier_frequency_hz": "carrier_frequency",
                "c_los": "excess_loss_los", "c_nlos": "excess_loss_nlos",
                "eta_nlos": "eta_nlos"},
    "geometry": {"d_m": "distance_tx_rx", "msi_x_m": "msi_x",
                 "msi_y_m": "msi_y", "h_min_m": "h_min", "h_max_m": "h_max",
                 "d_min_m": "d_min"},
    "powers": {"p_tx_w": "p_tx", "p_uav_w": "p_uav", "p_msi_w": "p_msi"},
}
#: Keys a file may leave out; the built object's default applies.
_OPTIONAL = ("eta_nlos", "d_min_m")
#: interference_field variant -> (number keys, list keys) beside `variant`.
_FIELD_KEYS = {
    "deterministic": (("power_w", "altitude_m"), ()),
    "beta": (("alpha", "beta", "i_max_w", "altitude_m"), ()),
    "beta_knots": (("i_max_w", "altitude_m"), ("x_m", "alpha", "beta")),
    "tabulated_upsilon": (("altitude_m",), ("x_m", "upsilon")),
}


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where} must be a number, got {value!r}")
    return float(value)


def _section(raw, name: str, numbers, lists=(), optional=()) -> dict:
    """Check one mapping of the file and return its values by key: a float
    per key of `numbers`, a float array per key of `lists`.  Unknown keys,
    missing keys (except those in `optional`) and non-numbers are errors."""
    if not isinstance(raw, dict):
        raise SchemaError(f"{name!r} must be a mapping")
    given = set(map(str, raw))
    unknown = ", ".join(sorted(given - {*numbers, *lists}))
    if unknown:
        raise SchemaError(f"unknown key(s) in {name!r}: {unknown} "
                          "(unit suffixes are mandatory)")
    missing = ", ".join(sorted({*numbers, *lists} - given - {*optional}))
    if missing:
        raise SchemaError(f"missing key(s) in {name!r}: {missing}")
    values = {k: _number(raw[k], f"{name}.{k}") for k in numbers if k in raw}
    for k in lists:
        if not isinstance(raw[k], list) or not raw[k]:
            raise SchemaError(f"{name}.{k} must be a non-empty list")
        values[k] = np.array([_number(v, f"{name}.{k}.{i}")
                              for i, v in enumerate(raw[k])])
    return values


def _parse_field(raw) -> InterferenceModel:
    name = "interference_field"
    if not isinstance(raw, dict):
        raise SchemaError(f"{name!r} must be a mapping")
    if "variant" not in raw:
        raise SchemaError(f"{name} needs a 'variant' key")
    variant = raw["variant"]
    if not isinstance(variant, str) or variant not in _FIELD_KEYS:
        raise SchemaError(f"unknown {name} variant {variant!r}")
    v = _section({k: x for k, x in raw.items() if k != "variant"}, name,
                 *_FIELD_KEYS[variant])
    if variant == "deterministic":
        return DeterministicField(v["power_w"], v["altitude_m"])
    if variant == "beta":
        return BetaField(v["alpha"], v["beta"], v["i_max_w"], v["altitude_m"])
    # The knot variants: piecewise-linear profiles in x.
    xs = v["x_m"]
    if any(len(v[k]) != len(xs) for k in _FIELD_KEYS[variant][1]):
        raise SchemaError(f"{variant} arrays must share one length")
    if not np.all(xs[1:] > xs[:-1]):
        raise SchemaError(f"{name}.x_m must be strictly increasing")
    if variant == "beta_knots":
        alpha, beta = v["alpha"], v["beta"]
        return BetaField(lambda x: np.interp(x, xs, alpha),
                         lambda x: np.interp(x, xs, beta),
                         v["i_max_w"], v["altitude_m"])
    # tabulated_upsilon: store as a deterministic level 1/Upsilon(x), which
    # reproduces the same expected SIRs.  Upsilon = E(1/I) is finite and > 0.
    ups = v["upsilon"]
    if not np.all((ups > 0.0) & np.isfinite(ups)):
        raise SchemaError(f"{name}.upsilon knots must be finite and > 0")
    return DeterministicField(lambda x: 1.0 / np.interp(x, xs, ups),
                              v["altitude_m"])


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
    unknown = set(map(str, doc)) - {*_SCHEMA, "sources", "interference_field"}
    if unknown:
        raise SchemaError(f"unknown top-level key(s): {', '.join(sorted(unknown))}")

    fields = {}
    for name, keys in _SCHEMA.items():
        if name not in doc:
            raise SchemaError(f"missing section {name!r}")
        values = _section(doc[name], name, keys, optional=_OPTIONAL)
        fields[name] = {keys[k]: value for k, value in values.items()}
    try:
        scenario = Scenario(
            channel=ChannelParams.from_carrier(**fields["channel"]),
            **fields["geometry"], **fields["powers"])
    except DomainError as exc:
        raise SchemaError(f"scenario range violation: {exc}")

    if not isinstance(doc.get("sources", []), list):
        raise SchemaError("'sources' must be a list")
    sources = []
    for i, raw in enumerate(doc.get("sources", [])):
        v = _section(raw, f"sources[{i}]", ("x_m", "y_m", "p_w"))
        sources.append(InterferenceSource(v["x_m"], v["y_m"], v["p_w"]))
    model = (_parse_field(doc["interference_field"])
             if "interference_field" in doc else None)
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


def _scenario_params(s: Scenario) -> dict:
    return {**{key: getattr(s, field) for name in ("geometry", "powers")
               for key, field in _SCHEMA[name].items()},
            **dataclasses.asdict(s.channel)}


def _need_model(model) -> InterferenceModel:
    if model is None:
        raise SchemaError("this subcommand needs an interference_field section")
    return model


@click.group()
@click.version_option(version=__version__)
def main():
    """Interference-aware UAV relay placement planners and oracles."""


class Subcommand(click.Command):
    """A subcommand defined by one planner step.

    `step(s, sources, model, **flags)` returns the record's parameters (added
    to the scenario's), its outputs and the CSV rows.  The command parses the
    scenario, calls `step` and writes the record under `--out`, by default
    its name with underscores.  `sweep_columns` names the values, from the
    outputs or else the last row, that a sweep point reports; a command
    without them cannot be swept.  `provenance` maps the flags to extra
    provenance entries.
    """

    def __init__(self, name: str, step: Callable, options: tuple,
                 sweep_columns: tuple[str, ...] = (),
                 provenance: Callable[[dict], dict] = lambda flags: {}):
        self.step = step
        self.options = options
        self.sweep_columns = sweep_columns

        @planner_errors
        def callback(scenario, out, **flags):
            s, sources, model = parse_scenario(scenario)
            parameters, outputs, rows = step(s, sources, model, **flags)
            record = ResultRecord(
                command=sys.argv[1:],
                parameters={**_scenario_params(s), **parameters},
                outputs=outputs,
                provenance={"tool": "uavrelay", "version": __version__,
                            **provenance(flags)})
            _emit(record, rows, out, name.replace("-", "_"))

        super().__init__(name, callback=callback, help=step.__doc__, params=[
            click.Argument(["scenario"], type=click.Path()), *options,
            click.Option(["--out"], default=None, help="Output path prefix.")])


def command(name: str, *options: click.Parameter, **kwargs):
    """Register the decorated planner step as subcommand `name`."""

    def register(step):
        main.add_command(Subcommand(name, step, options, **kwargs))
        return step

    return register


_GAMMA = click.Option(["--gamma"], type=GAMMA, required=True)
_H = click.Option(["--h", "altitude"], type=float, required=True)
_N_UAVS = click.Option(["--n-uavs"], type=int, required=True)
_EPSILON = click.Option(["--epsilon"], type=float, default=0.1,
                        show_default=True)


# ----------------------------------------------------------------- commands

@command("dualhop-opt", sweep_columns=("x_m", "h_m", "sir_system"))
def dualhop_opt(s, sources, model):
    """Optimal single-UAV position (joint x, h)."""
    x, h, report = optimal_position(s)
    return ({},
            {"x_m": x, "h_m": h, "sir_system": report.system_sir,
             "sir_links": list(report.per_link),
             "bottleneck": report.bottleneck_index},
            [{"x_m": x, "h_m": h, "sir_system": report.system_sir}])


@command("dualhop-locus",
         click.Option(["--samples"], type=click.IntRange(min=2), default=256,
                      show_default=True))
def dualhop_locus(s, sources, model, samples):
    """Equal-SIR locus h(x) sampled over [0, D]."""
    xs = np.linspace(0.0, s.distance_tx_rx, samples)
    plus, minus = locus_sweep(s, xs)
    rows = [{"x_m": x, "h_plus_m": hp, "h_minus_m": hm}
            for x, hp, hm in zip(xs.tolist(), plus.tolist(), minus.tolist())]
    on_locus = sum(1 for r in rows if not (math.isnan(r["h_plus_m"])
                                          and math.isnan(r["h_minus_m"])))
    return {}, {"samples": samples, "points_on_locus": on_locus}, rows


@command("multihop-design", _GAMMA, _H, sweep_columns=("n_uavs",))
def multihop_design(s, sources, model, gamma, altitude):
    """Minimum chain of UAVs meeting --gamma at altitude --h."""
    result = design_min_uavs(s, altitude, gamma)
    placement = result.placement
    links = multihop_link_sirs(s, list(placement.hop_distances), altitude)
    rows = [{"hop": i, "distance_m": d,
             "position_m": sum(placement.hop_distances[:i + 1]),
             "link_sir": links[i]}
            for i, d in enumerate(placement.hop_distances)]
    return ({"gamma": gamma, "h_m": altitude},
            {"n_uavs": placement.uav_count,
             "hops_m": list(placement.hop_distances),
             "system_sir": min(links), "branches": list(result.trace)},
            rows)


@command("multihop-distributed", _N_UAVS, _H, _EPSILON,
         sweep_columns=("gamma_final", "sir_system", "iterations"))
def multihop_distributed(s, sources, model, n_uavs, altitude, epsilon):
    """Forward-propagation distributed placement for a fixed fleet."""
    gamma, placement, trace = distributed_max_sir(s, altitude, n_uavs, epsilon)
    rows = [{"iteration": i, "gamma": g, "sir_system": v}
            for i, (g, v) in enumerate(zip(trace.gammas, trace.system_sirs))]
    return ({"n_uavs": n_uavs, "h_m": altitude, "epsilon": epsilon},
            {"gamma_final": gamma, "hops_m": list(placement.hop_distances),
             "iterations": len(trace.gammas)},
            rows)


@command("refine-altitudes", _N_UAVS, _H, _EPSILON,
         click.Option(["--eps-h"], type=float, default=10.0,
                      show_default=True),
         click.Option(["--iterations"], type=int, default=30,
                      show_default=True))
def refine_altitudes_cmd(s, sources, model, n_uavs, altitude, epsilon, eps_h,
                         iterations):
    """Run the distributed planner, then the joint x/h refinement rounds."""
    _, placement, _ = distributed_max_sir(s, altitude, n_uavs, epsilon)
    refined, history = refine_altitudes(s, placement, eps_h, iterations)
    rows = [{"iteration": i, "sir_system": v} for i, v in enumerate(history)]
    return ({"n_uavs": n_uavs, "h_m": altitude, "epsilon": epsilon,
             "eps_h": eps_h, "iterations": iterations},
            {"sir_start": history[0], "sir_final": history[-1],
             "hops_m": list(refined.hop_distances),
             "altitudes_m": list(refined.altitudes)},
            rows)


@command("stochastic-single", _H, _EPSILON)
def stochastic_single(s, sources, model, altitude, epsilon):
    """Single-UAV position under the scenario's interference field."""
    x, esir, trace = single_uav_position(_need_model(model), s, altitude,
                                         epsilon)
    rows = [{"iteration": i, "gamma": g, "x_m": x_i, "expected_sir": v}
            for i, (g, x_i, v) in enumerate(zip(trace.gammas, trace.first_hops,
                                                trace.system_sirs))]
    return ({"h_m": altitude, "epsilon": epsilon},
            {"x_m": x, "expected_sir": esir, "iterations": len(trace.gammas)},
            rows)


@command("stochastic-design", _GAMMA, _H)
def stochastic_design(s, sources, model, gamma, altitude):
    """Minimum chain meeting an expected-SIR target under the field."""
    model = _need_model(model)
    result = design_min_uavs_stochastic(model, s, altitude, gamma)
    placement = result.placement
    esirs = expected_multihop_link_sirs(model, s, placement.hop_distances,
                                        altitude)
    rows = [{"hop": i, "distance_m": d, "expected_link_sir": esirs[i]}
            for i, d in enumerate(placement.hop_distances)]
    return ({"gamma": gamma, "h_m": altitude},
            {"n_uavs": placement.uav_count,
             "hops_m": list(placement.hop_distances),
             "expected_system_sir": min(esirs)},
            rows)


@command("stochastic-distributed", _N_UAVS, _H, _EPSILON)
def stochastic_distributed(s, sources, model, n_uavs, altitude, epsilon):
    """Backward-propagation distributed placement under the field."""
    gamma, placement, trace = distributed_max_esir(_need_model(model), s,
                                                   altitude, n_uavs, epsilon)
    rows = [{"iteration": i, "gamma": g, "expected_system_sir": v}
            for i, (g, v) in enumerate(zip(trace.gammas, trace.system_sirs))]
    return ({"n_uavs": n_uavs, "h_m": altitude, "epsilon": epsilon},
            {"gamma_final": gamma, "hops_m": list(placement.hop_distances),
             "iterations": len(trace.gammas)},
            rows)


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        nx, nh = text.lower().split("x")
        return int(nx), int(nh)
    except ValueError:
        raise SchemaError(f"cannot parse grid {text!r} (expected NXxNH)")


@command("msi-fit",
         click.Option(["--grid"], default="128x32", show_default=True,
                      help="Objective grid as NXxNH."))
def msi_fit(s, sources, model, grid):
    """Fit one hypothetical interferer to the scenario's source list.

    The fitted x_h stays in [0, D], so a lone source beyond the Tx-Rx span
    is not recovered.
    """
    if not sources:
        raise SchemaError("msi-fit needs a 'sources' section")
    nx, nh = _parse_grid(grid)
    fit = fit_hypothetical_msi(sources, s, (nx, nh))
    values = {"x_h_m": fit.x_h, "y_h_m": fit.y_h, "p_h_w": fit.p_h,
              "residual": fit.residual}
    return {"grid": [nx, nh], "n_sources": len(sources)}, values, [values]


@command("oracle-grid",
         click.Option(["--grid"], default="500x500", show_default=True),
         sweep_columns=("x_m", "h_m", "sir_system"))
def oracle_grid(s, sources, model, grid):
    """Brute-force grid argmax of the dual-hop system SIR."""
    nx, nh = _parse_grid(grid)
    x, h, sir = grid_search_dual(s, GridSpec(nx, nh))
    if not math.isfinite(sir):
        raise NumericError(f"the grid's best system SIR is {sir!r}: the "
                           f"link SIRs leave the float range")
    values = {"x_m": x, "h_m": h, "sir_system": sir}
    return {"grid": [nx, nh]}, values, [values]


@command("oracle-exhaustive", _GAMMA, _H,
         click.Option(["--kind"],
                      type=click.Choice(["deterministic", "stochastic"]),
                      default="deterministic", show_default=True),
         click.Option(["--n-max"], type=int, default=8, show_default=True),
         click.Option(["--per-hop-grid"], type=int, default=64,
                      show_default=True))
def oracle_exhaustive(s, sources, model, gamma, altitude, kind, n_max,
                      per_hop_grid):
    """Exhaustive minimum chain size over a dense position grid."""
    model = _need_model(model) if kind == "stochastic" else None
    n = exhaustive_min_uavs(kind, s, altitude, gamma, n_max, per_hop_grid,
                            model=model)
    return ({"gamma": gamma, "h_m": altitude, "kind": kind, "n_max": n_max,
             "per_hop_grid": per_hop_grid},
            {"n_uavs": n if n is not None else "unknown-above-n-max"},
            [{"n_uavs": n if n is not None else -1}])


@command("baseline-random", _N_UAVS,
         click.Option(["--trials"], type=int, default=1000, show_default=True),
         click.Option(["--seed"], type=int, default=0, show_default=True),
         provenance=lambda flags: {"seed": flags["seed"],
                                   "generator": "PCG64/SeedSequence"})
def baseline_random(s, sources, model, n_uavs, trials, seed):
    """Monte-Carlo random-placement baseline (seeded, reproducible)."""
    stats = random_placement_baseline(s, n_uavs, trials, seed)
    return ({"n_uavs": n_uavs, "trials": trials, "seed": seed},
            {"mean": stats.mean, "max": stats.max, "min": stats.min,
             "distribution": "symmetric Dirichlet over hop distances, "
                             "uniform shared altitude"},
            [{"mean": stats.mean, "max": stats.max, "min": stats.min}])


@command("dualhop-case", _H)
def dualhop_case(s, sources, model, altitude):
    """Fixed-altitude case classification of the dual-hop problem."""
    label = classify_case_fixed_h(s, altitude)
    return ({"h_m": altitude},
            {"case": label.case_id, "c1": label.c1, "c2": label.c2,
             "c3": label.c3},
            [{"case": label.case_id}])


# -------------------------------------------------------------------- sweep

#: Scenario fields a sweep axis may set, by their scenario-file names.
_SWEEP_FIELDS = {f"{name}.{key}": field for name in ("geometry", "powers")
                 for key, field in _SCHEMA[name].items()}


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


def _axis_value(option: click.Option, name: str, value: float):
    """A flag axis value as the option's type takes it."""
    if option.type is click.INT:
        if not value.is_integer():
            raise SchemaError(
                f"sweep parameter {name!r} takes integers, got {value}")
        return int(value)
    if option.type not in (click.FLOAT, GAMMA):
        raise SchemaError(f"cannot sweep parameter {name!r}")
    return value


def _check_flags(flags: dict) -> None:
    """Reject a point's invalid flag values before any point runs; the
    planner's own check would only fail that point's status."""
    for key in ("gamma", "epsilon"):
        if key in flags:
            require_positive(key, flags[key])
    if "grid" in flags:
        _parse_grid(flags["grid"])


@command("sweep",
         click.Argument(["subcommand"], type=click.Choice(sorted(
             name for name, cmd in main.commands.items()
             if cmd.sweep_columns))),
         click.Option(["--param", "params"], multiple=True, required=True,
                      help="Sweep axis, e.g. powers.p_uav_w=1:8:4 or "
                           "h=10:50:9."),
         click.Option(["--zip", "zipped"], is_flag=True,
                      help="Zip the axes instead of taking their product."),
         click.Option(["--gamma"], type=GAMMA, default=None),
         click.Option(["--h", "altitude"], type=float, default=None),
         click.Option(["--n-uavs"], type=int, default=None),
         click.Option(["--epsilon"], type=float, default=None),
         click.Option(["--grid"], default=None))
def sweep(s, sources, model, subcommand, params, zipped, **given):
    """Run one subcommand over a grid of scenario fields or flags.

    Per-point failures are recorded (status column) and the batch continues.
    """
    cmd = main.commands[subcommand]
    by_flag = {opt: p for p in cmd.options for opt in p.opts}

    def option(flag: str) -> click.Option:
        if flag not in by_flag:
            raise SchemaError(f"{subcommand} takes no {flag}")
        return by_flag[flag]

    own = {p.name: p.opts[0] for p in main.commands["sweep"].options}
    flags = {p.name: p.default for p in cmd.options if not p.required}
    flags.update({option(own[k]).name: v for k, v in given.items()
                  if v is not None})
    axes = [_parse_range(p) for p in params]
    swept = {name: option("--" + name.replace("_", "-"))
             for name, _ in axes if "." not in name}
    missing = [p.opts[0] for p in cmd.options if p.required
               and p.name not in flags and p not in swept.values()]
    if missing:
        raise SchemaError(f"{subcommand} needs {' and '.join(missing)}")
    if zipped:
        if len({len(vals) for _, vals in axes}) != 1:
            raise SchemaError("zipped sweep axes must share one length")
        points = [dict(zip([n for n, _ in axes], combo))
                  for combo in zip(*[vals for _, vals in axes])]
    else:
        points = [{}]
        for name, vals in axes:
            points = [{**pt, name: v} for pt in points for v in vals]

    runs = []
    for pt in points:
        point_fields, point_flags = {}, dict(flags)
        for name, value in pt.items():
            if name in swept:
                point_flags[swept[name].name] = _axis_value(swept[name], name,
                                                            value)
            elif name in _SWEEP_FIELDS:
                point_fields[_SWEEP_FIELDS[name]] = value
            else:
                raise SchemaError(f"cannot sweep field {name!r}")
        _check_flags(point_flags)
        runs.append((pt, dataclasses.replace(s, **point_fields), point_flags))

    rows = []
    for idx, (pt, point_s, point_flags) in enumerate(runs):
        row = {"index": idx, **pt}
        try:
            _, outputs, point_rows = cmd.step(point_s, sources, model,
                                              **point_flags)
            values = {**point_rows[-1], **outputs}
            row.update({k: values[k] for k in cmd.sweep_columns})
            row["status"] = "ok"
        except InfeasibleError as exc:
            row["status"] = f"infeasible: {exc}"
        except PlanningError as exc:
            row["status"] = f"error: {exc}"
        rows.append(row)

    keys = list(dict.fromkeys(k for row in rows for k in row))
    ok = sum(row["status"] == "ok" for row in rows)
    return ({"subcommand": subcommand, "axes": [n for n, _ in axes],
             "points": len(points)},
            {"ok": ok, "failed": len(rows) - ok},
            [{k: row.get(k, "") for k in keys} for row in rows])


if __name__ == "__main__":
    main()
