import random

import numpy as np
import pytest

from uavrelay.channel import sir_rx_link, sir_tx_link
from uavrelay.errors import DomainError, InfeasibleError
from uavrelay.multihop import design_min_uavs, feasibility_bound
from uavrelay.oracle import (BaselineStats, GridSpec, exhaustive_min_uavs,
                             grid_search_dual, lipschitz_slack,
                             random_placement_baseline)
from uavrelay.stochastic import BetaField

from conftest import make_scenario, random_scenario


def test_gridspec_validation():
    with pytest.raises(DomainError):
        GridSpec(1, 10)


def test_grid_search_matches_manual_argmax(channel):
    s = make_scenario(channel)
    grid = GridSpec(41, 17)
    x, h, sir = grid_search_dual(s, grid)
    best = -1.0
    for i in range(41):
        xi = s.distance_tx_rx * i / 40.0
        for j in range(17):
            hj = s.h_min + (s.h_max - s.h_min) * j / 16.0
            v = min(sir_tx_link(s, xi, hj), sir_rx_link(s, s.distance_tx_rx - xi, hj))
            if v > best:
                best, bx, bh = v, xi, hj
    assert sir == pytest.approx(best, rel=1e-12)
    assert x == pytest.approx(bx) and h == pytest.approx(bh)


def test_grid_search_tie_breaks_toward_smaller_x(channel):
    # Symmetric setup: interferer centered, equal powers; the SIR surface is
    # symmetric around x = D/2 so ties exist, and the smaller x must win.
    s = make_scenario(channel, msi_x=500.0, msi_y=0.0, p_tx=1.0, p_uav=1.0)
    x, h, _ = grid_search_dual(s, GridSpec(21, 5))
    mirror_x = s.distance_tx_rx - x
    v = min(sir_tx_link(s, x, h), sir_rx_link(s, s.distance_tx_rx - x, h))
    v_m = min(sir_tx_link(s, mirror_x, h),
              sir_rx_link(s, s.distance_tx_rx - mirror_x, h))
    if v == v_m:
        assert x <= mirror_x


def test_lipschitz_slack_positive_and_shrinks(channel):
    s = make_scenario(channel)
    coarse = lipschitz_slack(s, GridSpec(50, 50))
    fine = lipschitz_slack(s, GridSpec(500, 500))
    assert coarse > 0.0
    assert fine < coarse


def test_exhaustive_agrees_with_design_small(channel):
    s = make_scenario(channel, d=120.0, msi_x=60.0, msi_y=40.0, d_min=4.0)
    h = 15.0
    gamma = feasibility_bound(s, h) * 0.5
    planned = design_min_uavs(s, h, gamma).placement.uav_count
    oracle = exhaustive_min_uavs("deterministic", s, h, gamma, n_max=8)
    assert oracle == planned


def test_exhaustive_none_when_unreachable(channel):
    s = make_scenario(channel, d=120.0, msi_x=60.0, msi_y=40.0, d_min=4.0)
    gamma = feasibility_bound(s, 15.0) * 10.0
    assert exhaustive_min_uavs("deterministic", s, 15.0, gamma, n_max=4) is None


def test_exhaustive_validation(channel):
    s = make_scenario(channel)
    with pytest.raises(DomainError):
        exhaustive_min_uavs("bogus", s, 15.0, 1.0)
    with pytest.raises(DomainError):
        exhaustive_min_uavs("deterministic", s, 15.0, 1.0, n_max=9)
    with pytest.raises(DomainError):
        exhaustive_min_uavs("stochastic", s, 15.0, 1.0)  # needs a model
    with pytest.raises(DomainError):
        exhaustive_min_uavs("deterministic", s, 15.0, 1.0, per_hop_grid=0)
    for n_max in (0, -3):
        with pytest.raises(DomainError):
            exhaustive_min_uavs("deterministic", s, 15.0, 1.0, n_max=n_max)


def test_exhaustive_stochastic_runs(channel):
    s = make_scenario(channel, d=200.0, msi_x=100.0, msi_y=50.0)
    model = BetaField(3.0, 1.0, 1.0, 100.0)
    h = 20.0
    cap = 1.5 * s.p_uav / (channel.eta_nlos * h ** 2)
    n = exhaustive_min_uavs("stochastic", s, h, cap / 20.0, n_max=8,
                            model=model)
    assert n is None or 1 <= n <= 8


def test_baseline_reproducible_and_seed_sensitive(channel):
    s = make_scenario(channel, d_min=4.0)
    a = random_placement_baseline(s, 3, 50, seed=42)
    b = random_placement_baseline(s, 3, 50, seed=42)
    c = random_placement_baseline(s, 3, 50, seed=43)
    assert a == b
    assert a.mean != c.mean
    assert a.min <= a.mean <= a.max
    assert a.trials == 50 and a.seed == 42


def test_baseline_prefix_stability(channel):
    """Child streams make the first trials independent of the trial count."""
    s = make_scenario(channel, d_min=4.0)
    small = random_placement_baseline(s, 2, 10, seed=7)
    big = random_placement_baseline(s, 2, 200, seed=7)
    assert big.max >= small.max
    assert big.min <= small.min


def test_baseline_validation(channel):
    s = make_scenario(channel)
    with pytest.raises(DomainError):
        random_placement_baseline(s, 0, 10, seed=0)
    with pytest.raises(DomainError):
        random_placement_baseline(s, 2, 0, seed=0)
    with pytest.raises(DomainError):
        random_placement_baseline(s, 2, 10, seed=-1)


def test_baseline_infeasible_separation(channel):
    """No split of D = 1000 m keeps three UAVs 2000 m apart: no statistics."""
    s = make_scenario(channel, d_min=2000.0)
    with pytest.raises(InfeasibleError, match="d_min"):
        random_placement_baseline(s, 3, 5, seed=0)
    # A single UAV has no UAV-to-UAV hop, so d_min never binds.
    assert random_placement_baseline(s, 1, 5, seed=0).trials == 5
