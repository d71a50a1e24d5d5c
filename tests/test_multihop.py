import math
import random

import pytest

from uavrelay.channel import multihop_link_sirs
from uavrelay.errors import DomainError, InfeasibleError
from uavrelay.multihop import (Placement, design_min_uavs,
                               distributed_max_sir, feasibility_bound,
                               first_hop_distance, last_hop_max_distance,
                               middle_hop_distance, refine_altitudes)

from conftest import make_scenario, random_scenario


def test_placement_helpers():
    p = Placement.uniform((100.0, 200.0, 700.0), 50.0)
    assert p.uav_count == 2
    assert p.altitudes == (50.0, 50.0)
    assert p.positions() == [100.0, 300.0]


def test_feasibility_bound_binds_every_chain(channel):
    """No chain at altitude h can beat the bound: check its three caps."""
    s = make_scenario(channel, d_min=4.0)
    h = 20.0
    bound = feasibility_bound(s, h)
    rng = random.Random(0)
    for _ in range(50):
        n = rng.randint(1, 6)
        cuts = sorted(rng.uniform(0.0, s.distance_tx_rx) for _ in range(n))
        hops = [b - a for a, b in zip([0.0] + cuts, cuts + [s.distance_tx_rx])]
        if any(d < s.d_min for d in hops[1:-1]):
            continue
        if any(d <= 0.0 for d in hops[1:-1]):
            continue
        sir = min(multihop_link_sirs(s, hops, h))
        assert sir <= bound * (1.0 + 1e-9)


def test_first_hop_distance_is_the_farthest_feasible(channel):
    s = make_scenario(channel)
    h, gamma = 20.0, 5.0
    d1 = first_hop_distance(s, h, gamma)
    link = multihop_link_sirs(s, [d1, s.distance_tx_rx - d1], h)[0]
    assert link >= gamma * (1.0 - 1e-9)
    # Pushing further violates the target (unless the sentinel fired).
    if d1 < s.distance_tx_rx:
        step = 1.0
        worse = multihop_link_sirs(
            s, [d1 + step, s.distance_tx_rx - d1 - step], h)[0]
        assert worse < gamma


def test_first_hop_infeasible_gamma(channel):
    s = make_scenario(channel)
    cap = feasibility_bound(s, 20.0)
    with pytest.raises(InfeasibleError):
        first_hop_distance(s, 20.0, cap * 100.0)


def test_last_hop_max_distance_formula(channel):
    s = make_scenario(channel)
    h, gamma = 20.0, 5.0
    d_max = last_hop_max_distance(s, h, gamma)
    link = multihop_link_sirs(s, [s.distance_tx_rx - d_max, d_max], h)[-1]
    assert link == pytest.approx(gamma, rel=1e-9)


def test_middle_hop_meets_target(channel):
    s = make_scenario(channel)
    h, gamma = 20.0, 5.0
    d1 = first_hop_distance(s, h, gamma)
    d_max = last_hop_max_distance(s, h, gamma)
    d_k, branch = middle_hop_distance(s, h, gamma, d1, d_max)
    assert branch in ("near", "far", "finish")
    if d_k > 0.0:
        hops = [d1, d_k, s.distance_tx_rx - d1 - d_k]
        if hops[-1] > 0.0:
            link = multihop_link_sirs(s, hops, h)[1]
            assert link >= gamma * (1.0 - 1e-9)


def test_design_min_uavs_meets_target_on_every_link(channel):
    s = make_scenario(channel, d_min=4.0)
    h, gamma = 20.0, 5.0
    result = design_min_uavs(s, h, gamma)
    links = multihop_link_sirs(s, list(result.placement.hop_distances), h)
    assert min(links) >= gamma * (1.0 - 1e-9)
    assert abs(sum(result.placement.hop_distances) - s.distance_tx_rx) < 1e-6


def test_design_min_uavs_monotone_in_gamma(channel):
    """A higher target never needs fewer UAVs."""
    s = make_scenario(channel, d_min=4.0)
    counts = []
    for gamma in (2.0, 5.0, 10.0, 20.0):
        counts.append(design_min_uavs(s, 20.0, gamma).placement.uav_count)
    assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_design_min_uavs_rejects_above_bound(channel):
    s = make_scenario(channel)
    cap = feasibility_bound(s, 20.0)
    with pytest.raises(InfeasibleError):
        design_min_uavs(s, 20.0, cap * 2.0)


def test_distributed_closes_and_respects_epsilon_band(channel):
    s = make_scenario(channel, d_min=4.0)
    gamma, placement, trace = distributed_max_sir(s, 20.0, 10, 0.1)
    assert abs(sum(placement.hop_distances) - s.distance_tx_rx) < 1e-6
    gamma0 = trace.gammas[0]
    assert len(trace.gammas) <= math.floor(gamma0 / 0.1) + 1
    # The returned target is what the closing round used.
    assert trace.gammas[-1] == pytest.approx(gamma)


def test_distributed_gamma_grows_with_fleet(channel):
    s = make_scenario(channel, d_min=4.0)
    finals = [distributed_max_sir(s, 20.0, n, 0.1)[0] for n in (5, 10, 20)]
    assert all(b >= a - 1e-12 for a, b in zip(finals, finals[1:]))


def test_distributed_input_validation(channel):
    s = make_scenario(channel)
    with pytest.raises(DomainError):
        distributed_max_sir(s, 20.0, 0, 0.1)
    with pytest.raises(DomainError):
        distributed_max_sir(s, 20.0, 5, 0.0)


def test_refine_altitudes_monotone_and_valid(channel):
    s = make_scenario(channel, msi_y=150.0, d_min=4.0)
    _, start, _ = distributed_max_sir(s, 100.0, 8, 0.1)
    refined, history = refine_altitudes(s, start, 20.0, 3, passes=2)
    assert len(history) == 4
    assert all(b >= a - 1e-12 for a, b in zip(history, history[1:]))
    assert abs(sum(refined.hop_distances) - s.distance_tx_rx) < 1e-6
    for h in refined.altitudes:
        assert s.h_min <= h <= s.h_max
    # The final history entry matches a fresh evaluation of the placement.
    sir = min(multihop_link_sirs(
        s, list(refined.hop_distances), list(refined.altitudes)))
    assert sir == pytest.approx(history[-1], rel=1e-12)


def test_refine_altitudes_keeps_3d_separation(channel):
    """Refinement never shrinks a separation below d_min (pre-existing
    violations in the start placement are tolerated, not worsened)."""
    s = make_scenario(channel, msi_y=150.0, d_min=25.0)
    _, start, _ = distributed_max_sir(s, 100.0, 6, 0.1)
    start_sep = [math.hypot(start.hop_distances[k],
                            start.altitudes[k] - start.altitudes[k - 1])
                 for k in range(1, len(start.altitudes))]
    refined, _ = refine_altitudes(s, start, 30.0, 2, passes=2)
    hops = refined.hop_distances
    alts = refined.altitudes
    for k in range(1, len(alts)):
        floor = min(s.d_min, start_sep[k - 1])
        assert math.hypot(hops[k], alts[k] - alts[k - 1]) >= floor - 1e-9


def test_refine_altitudes_validation(channel):
    s = make_scenario(channel)
    start = Placement.uniform((500.0, 500.0), 50.0)
    with pytest.raises(DomainError):
        refine_altitudes(s, start, -1.0, 5)
    with pytest.raises(DomainError):
        refine_altitudes(s, start, 10.0, 5, passes=0)


def test_design_matches_greedy_structure_random(channel):
    """Greedy designs on random scenarios stay valid and minimal-looking."""
    rng = random.Random(21)
    done = 0
    while done < 15:
        s = random_scenario(rng, channel)
        h = rng.uniform(s.h_min, min(s.h_max, 60.0))
        bound = feasibility_bound(s, h)
        gamma = bound * rng.uniform(0.2, 0.8)
        try:
            result = design_min_uavs(s, h, gamma)
        except InfeasibleError:
            continue
        links = multihop_link_sirs(s, list(result.placement.hop_distances), h)
        assert min(links) >= gamma * (1.0 - 1e-9)
        done += 1
