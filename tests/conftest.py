"""Shared fixtures: channel presets, random scenario generators, YAML writer."""

import dataclasses
import random

import pytest

from uavrelay.channel import ChannelParams, Scenario

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
