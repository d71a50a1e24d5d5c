"""Shared fixtures: channel presets, random scenario generators, YAML writer,
and the scalar forward-propagation round that references the lockstep scan."""

import dataclasses
import math
import random

import pytest

from uavrelay.channel import ChannelParams, Scenario, sir_rx_link, sir_tx_link
from uavrelay.errors import InfeasibleError
from uavrelay.multihop import (first_hop_distance, last_hop_max_distance,
                               middle_hop_distance)

#: Default channel used across the suite (2 GHz carrier, standard excess losses).
C_LOS = 10 ** 0.01
C_NLOS = 10 ** 2.1


@pytest.fixture(scope="session")
def channel():
    return ChannelParams.from_carrier(2.0e9, C_LOS, C_NLOS)


def make_scenario(channel, *, d=1000.0, msi_x=500.0, msi_y=400.0,
                  p_tx=80.0, p_uav=1.0, p_msi=80.0,
                  h_min=5.0, h_max=400.0, d_min=0.0):
    return Scenario(d, msi_x, msi_y, p_tx, p_uav, p_msi, h_min, h_max,
                    channel, d_min)


def random_scenario(rng: random.Random, channel, *, d_hi=2000.0,
                    power_decades=3.0):
    """Log-uniform powers, uniform geometry; matches the oracle test regime."""
    d = rng.uniform(50.0, d_hi)
    half = power_decades / 2.0
    return Scenario(
        distance_tx_rx=d,
        msi_x=rng.uniform(0.0, d),
        msi_y=rng.uniform(0.0, d),
        p_tx=10.0 ** rng.uniform(-half, half),
        p_uav=10.0 ** rng.uniform(-half, half),
        p_msi=10.0 ** rng.uniform(-half, half),
        h_min=rng.uniform(1.0, 20.0),
        h_max=rng.uniform(40.0, 500.0),
        channel=channel,
    )


def edge_scenario(rng: random.Random, channel):
    """A single-relay scenario from one of four regimes, including the edges
    of the float range.

    0: `random_scenario`.  1: criterion 01's flat interferer (Y = 0, unit
    powers, matched coefficients), where the locus discriminant nearly
    cancels.  2: powers near the ends of the float range on spans of 1 cm
    to 30 km, so SIR grids hold inf and NaN.  3: centimetre spans with a
    subnormal interferer power, where the Tx-side SIR's denominator
    underflows to zero.  The band is a single altitude one time in ten.
    """
    kind = rng.randrange(4)
    if kind == 0:
        s = random_scenario(rng, channel)
    elif kind == 1:
        d = rng.uniform(10.0, 2000.0)
        s = Scenario(d, rng.uniform(0.0, d), 0.0, 1.0, 1.0, 1.0, 0.1, 1e6,
                     ChannelParams.from_coefficients(1.0, 1.0, eta_nlos=1.0))
    elif kind == 2:
        d = 10.0 ** rng.uniform(-2.0, 4.5)
        powers = [10.0 ** rng.choice((rng.uniform(-323.5, -290.0),
                                      rng.uniform(290.0, 308.0),
                                      rng.uniform(-1.5, 1.5)))
                  for _ in range(3)]
        h_min = 10.0 ** rng.uniform(-4.0, 1.3)
        s = Scenario(d, rng.uniform(0.0, d), rng.uniform(0.0, d), *powers,
                     h_min, h_min + 10.0 ** rng.uniform(-3.0, 2.7), channel)
    else:
        d = 10.0 ** rng.uniform(-3.0, 1.0)
        h_min = 10.0 ** rng.uniform(-4.0, -1.0)
        s = Scenario(d, rng.uniform(0.0, d), rng.uniform(0.0, d),
                     10.0 ** rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-3.0, 3.0),
                     10.0 ** rng.uniform(-323.5, -318.0), h_min,
                     h_min + 10.0 ** rng.uniform(-3.0, 1.0), channel)
    if rng.random() < 0.1:
        s = dataclasses.replace(s, h_max=s.h_min)
    return s


def _scan_args(rng: random.Random, s: Scenario, long_fleet: bool):
    """(s, h, n, epsilon) of an epsilon scan of s: h uniform in the band,
    n in 13-52 for a long fleet and 1-12 otherwise, epsilon = gamma0 / k
    with k in 5-300, an exact divisor three times in ten."""
    h = rng.uniform(s.h_min, s.h_max)
    n = rng.randint(13, 52) if long_fleet else rng.randint(1, 12)
    gamma0 = min(sir_tx_link(s, 0.0, h), sir_rx_link(s, 0.0, h))
    k = rng.randint(5, 300)
    exact = rng.random() < 0.3
    return s, h, n, gamma0 / (k if exact else k + rng.random())


def scan_draws(channel, seed, count):
    """Conftest scenarios with their own h, n and epsilon = gamma0 / k.

    One in ten has the interferer at x = 0 and one in ten at x = D; three
    in ten epsilons divide gamma0 exactly, so the lattice ends on rounding
    residue; one fleet in seven has 13-52 UAVs.
    """
    rng = random.Random(seed)
    for i in range(count):
        s = random_scenario(rng, channel)
        if i % 10 == 1:
            s = dataclasses.replace(s, msi_x=0.0)
        elif i % 10 == 2:
            s = dataclasses.replace(s, msi_x=s.distance_tx_rx)
        yield _scan_args(rng, s, i % 7 == 3)


def edge_scan_draws(channel, ks):
    """`_scan_args` of `edge_scenario(random.Random(k))` for each k in ks
    whose start target gamma0 is a finite number (about two draws in three;
    the others overflow, underflow or divide by zero computing it)."""
    for k in ks:
        rng = random.Random(k)
        s = edge_scenario(rng, channel)
        try:
            args = _scan_args(rng, s, k % 7 == 3)
        except (OverflowError, ZeroDivisionError):
            continue
        s, h = args[:2]
        if math.isfinite(min(sir_tx_link(s, 0.0, h), sir_rx_link(s, 0.0, h))):
            yield args


def forward_chain(s, h, gamma, n_uavs):
    """One forward-propagation round: hop distances for a target SIR.

    Returns None when some link cannot reach gamma at all.  This is the
    scalar round that `distributed_max_sir` ran before every round moved
    into its lockstep, kept verbatim as the reference of the lockstep and
    of criterion 05's centralized sweep.
    """
    D = s.distance_tx_rx
    try:
        consumed = min(first_hop_distance(s, h, gamma), D)
        d_max = last_hop_max_distance(s, h, gamma)
        hops = [consumed]
        for _ in range(1, n_uavs):
            if consumed >= D:
                hops.append(0.0)
                continue
            d_k, _ = middle_hop_distance(s, h, gamma, consumed, d_max)
            d_k = min(max(d_k, 0.0), D - consumed)
            hops.append(d_k)
            consumed += d_k
    except InfeasibleError:
        return None
    return hops, consumed, d_max


def write_scenario_yaml(path, *, d=1000.0, msi_x=500.0, msi_y=400.0,
                        p_tx=80.0, p_uav=1.0, p_msi=80.0,
                        h_min=5.0, h_max=400.0, d_min=None,
                        extra=""):
    lines = [
        "channel:",
        "  carrier_frequency_hz: 2.0e+9",
        f"  c_los: {C_LOS!r}",
        f"  c_nlos: {C_NLOS!r}",
        "geometry:",
        f"  d_m: {d}",
        f"  msi_x_m: {msi_x}",
        f"  msi_y_m: {msi_y}",
        f"  h_min_m: {h_min}",
        f"  h_max_m: {h_max}",
    ]
    if d_min is not None:
        lines.append(f"  d_min_m: {d_min}")
    lines += [
        "powers:",
        f"  p_tx_w: {p_tx}",
        f"  p_uav_w: {p_uav}",
        f"  p_msi_w: {p_msi}",
    ]
    text = "\n".join(lines)
    if extra:
        text += "\n" + extra
    path.write_text(text + "\n")
    return path
