import itertools
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import uavrelay.multihop as multihop
from uavrelay.channel import (Scenario, multihop_link_sirs, sir_air_link,
                              sir_rx_link, sir_tx_link)
from uavrelay.errors import DomainError, InfeasibleError, NumericError
from uavrelay.multihop import (IterationTrace, Placement, _forward_rounds,
                               design_min_uavs,
                               distributed_max_sir, feasibility_bound,
                               first_hop_distance, last_hop_max_distance,
                               lowered_targets, middle_hop_distance,
                               refine_altitudes)

from conftest import (edge_scan_draws, forward_chain, make_scenario,
                      random_scenario, scan_draws)


def test_placement_helpers():
    p = Placement.uniform((100.0, 200.0, 700.0), 50.0)
    assert p.uav_count == 2
    assert p.altitudes == (50.0, 50.0)


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


@pytest.mark.parametrize("gamma", [0.0, math.nan, math.inf])
def test_hop_helpers_reject_bad_gamma(channel, gamma):
    s = make_scenario(channel)
    with pytest.raises(DomainError):
        first_hop_distance(s, 20.0, gamma)
    with pytest.raises(DomainError):
        last_hop_max_distance(s, 20.0, gamma)


def test_first_hop_whole_span_between_roots(channel):
    """p_tx < gamma p_msi: the Tx-side SIR meets gamma between the roots of
    its quadratic, here on all of [0, D], so one UAV above the Rx suffices."""
    s = make_scenario(channel, d=476.16, msi_x=1.558, msi_y=439.19,
                      p_tx=0.03462, p_uav=13.467, p_msi=0.07042,
                      h_min=16.39, h_max=400.17)
    h, gamma = 353.30, 0.6637
    assert s.p_tx < gamma * s.p_msi
    D = s.distance_tx_rx
    assert first_hop_distance(s, h, gamma) == D
    for d1 in (0.0, D / 2.0, D):
        assert multihop_link_sirs(s, [d1, D - d1], h)[0] >= gamma
    result = design_min_uavs(s, h, gamma)
    assert result.placement.uav_count == 1
    links = multihop_link_sirs(s, list(result.placement.hop_distances), h)
    assert min(links) >= gamma


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


def test_lowered_targets_steps_down_by_epsilon():
    assert list(lowered_targets(1.0, 0.25)) == [1.0, 0.75, 0.5, 0.25]


@given(gamma0=st.floats(1e-6, 1e6), rounds=st.floats(0.5, 2000.0))
def test_lowered_targets_stay_positive_within_the_round_budget(gamma0, rounds):
    epsilon = gamma0 / rounds
    targets = list(lowered_targets(gamma0, epsilon))
    assert targets[0] == gamma0
    assert all(g > 0.0 for g in targets)
    assert len(targets) <= math.floor(gamma0 / epsilon) + 1
    assert all(b == a - epsilon for a, b in zip(targets, targets[1:]))


@pytest.mark.parametrize("epsilon", [0.0, -0.1, math.nan, math.inf])
def test_lowered_targets_rejects_bad_epsilon(epsilon):
    with pytest.raises(DomainError):
        next(lowered_targets(1.0, epsilon))


@pytest.mark.parametrize("gamma0", [math.inf, math.nan])
def test_lowered_targets_rejects_non_finite_start(gamma0):
    with pytest.raises(NumericError, match="not finite"):
        next(lowered_targets(gamma0, 0.1))


def test_lowered_targets_stall_raises_when_the_next_target_is_asked():
    """An epsilon below the float spacing yields gamma0, then raises."""
    targets = lowered_targets(1e300, 1e-10)  # gamma0 / epsilon overflows to inf
    assert next(targets) == 1e300
    with pytest.raises(DomainError, match="does not lower"):
        next(targets)
    # Half the spacing from an odd mantissa rounds down once (to even),
    # then stalls: the third target is the first that raises.
    u = 2.0 ** -52
    targets = lowered_targets(1.0 + 3 * u, u / 2)
    assert list(itertools.islice(targets, 2)) == [1.0 + 3 * u, 1.0 + 2 * u]
    with pytest.raises(DomainError, match="does not lower"):
        next(targets)


def test_distributed_trace_is_one_row_per_round(channel):
    s = make_scenario(channel, d_min=4.0)
    gamma, placement, trace = distributed_max_sir(s, 20.0, 10, 0.1)
    assert len(trace.gammas) == len(trace.first_hops) == len(trace.system_sirs)
    assert trace.first_hops[-1] == placement.hop_distances[0]
    hops = placement.hop_distances
    links = [hops[0], *[d for d in hops[1:-1] if d > 0.0], hops[-1]]
    assert trace.system_sirs[-1] == min(multihop_link_sirs(s, links, 20.0))


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
    for h in (math.nan, 0.0, 2.0, 1e6):
        with pytest.raises(DomainError, match="h outside"):
            distributed_max_sir(s, h, 5, 0.1)


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
    for eps_h in (-1.0, math.nan):
        with pytest.raises(DomainError):
            refine_altitudes(s, start, eps_h, 5)
    with pytest.raises(DomainError):
        refine_altitudes(s, start, 10.0, 5, passes=0)
    with pytest.raises(DomainError):
        refine_altitudes(s, start, 10.0, -1)


@st.composite
def _zoom_axis_cases(draw):
    """(n, lo, hi, v) for `_zoom_axis`: spans of every size, lo == hi,
    lo > hi, steps below one ulp of lo, and v outside [lo, hi], on a grid
    point or a signed zero."""
    n = draw(st.sampled_from([33, 64]))
    lo = draw(st.one_of(st.sampled_from([0.0, -0.0, 1.0, 250.0, 1e16]),
                        st.floats(-1e6, 1e6)))
    span = draw(st.sampled_from(["wide", "equal", "reversed", "ulps"]))
    if span == "wide":
        hi = lo + draw(st.floats(1e-300, 1e6))
    elif span == "equal":
        hi = lo
    elif span == "reversed":
        hi = lo - draw(st.floats(1e-9, 1e6))
    else:
        hi = lo + draw(st.integers(1, 3 * n)) * math.ulp(lo)
    where = draw(st.sampled_from(["any", "below", "above", "grid", "zero"]))
    if where == "any":
        v = draw(st.floats(allow_nan=False))
    elif where == "below":
        v = min(lo, hi) - draw(st.floats(0.0, 1e6))
    elif where == "above":
        v = max(lo, hi) + draw(st.floats(0.0, 1e6))
    elif where == "grid":
        v = float(np.linspace(lo, hi, n)[draw(st.integers(0, n - 1))])
    else:
        v = draw(st.sampled_from([0.0, -0.0]))
    return n, lo, hi, v


@settings(max_examples=500, deadline=None)
@given(_zoom_axis_cases())
def test_zoom_axis_is_unique_of_linspace_and_incumbent(case):
    n, lo, hi, v = case
    clipped = np.clip(v, lo, hi)
    want = np.unique(np.append(np.linspace(lo, hi, n), clipped))
    axis, k = multihop._zoom_axis(np.arange(n, dtype=float), lo, hi, v)
    assert axis.tobytes() == want.tobytes()  # signed zeros count
    assert k == int(np.searchsorted(want, clipped)) and axis[k] == clipped


# A verbatim copy of multihop._explore_rectangle and refine_altitudes from
# before the zoom grids were built without np.unique, so the reference does
# not follow a later change to them.
def _explore_reference(s, hops, alts, i, eps_h):
    nx, nh = 64, 33
    n = len(alts)
    gap = hops[i] + hops[i + 1]
    prev_pos = sum(hops[:i])
    h_lo0 = max(s.h_min, alts[i] - eps_h)
    h_hi0 = min(s.h_max, alts[i] + eps_h)
    h_prev = alts[i - 1] if i > 0 else 0.0
    h_next = alts[i + 1] if i < n - 1 else 0.0

    def local_sir(d, h):
        dd = d[:, None]
        hh = h[None, :]
        pos = prev_pos + dd
        if i == 0:
            sir_in = sir_tx_link(s, dd, hh)
        else:
            sir_in = sir_air_link(
                s, pos, np.maximum(dd ** 2 + (hh - h_prev) ** 2, 1e-300), hh)
        d_next = gap - dd
        if i == n - 1:
            sir_out = sir_rx_link(s, d_next, hh)
        else:
            sir_out = sir_air_link(
                s, pos + d_next,
                np.maximum(d_next ** 2 + (hh - h_next) ** 2, 1e-300), h_next)
        return np.minimum(sir_in, sir_out)

    current = float(local_sir(np.array([hops[i]]), np.array([alts[i]]))[0, 0])
    d_lo, d_hi, h_lo, h_hi = 0.0, gap, h_lo0, h_hi0
    best = (hops[i], alts[i], -math.inf)
    for _ in range(3):
        d_cand = np.unique(np.append(np.linspace(d_lo, d_hi, nx),
                                     np.clip(hops[i], d_lo, d_hi)))
        h_cand = np.unique(np.append(np.linspace(h_lo, h_hi, nh),
                                     np.clip(alts[i], h_lo, h_hi)))
        dd = d_cand[:, None]
        hh = h_cand[None, :]
        ok = ((dd ** 2 + (hh - h_prev) ** 2 >= s.d_min ** 2)
              & ((gap - dd) ** 2 + (hh - h_next) ** 2 >= s.d_min ** 2))
        local = np.where(ok, local_sir(d_cand, h_cand), -np.inf)
        bi, bj = np.unravel_index(int(np.argmax(local)), local.shape)
        best = (float(d_cand[bi]), float(h_cand[bj]), float(local[bi, bj]))
        step_d = (d_hi - d_lo) / (nx - 1)
        step_h = (h_hi - h_lo) / (nh - 1)
        d_lo, d_hi = max(0.0, best[0] - step_d), min(gap, best[0] + step_d)
        h_lo = max(h_lo0, best[1] - step_h)
        h_hi = min(h_hi0, best[1] + step_h)
    return (*best, current)


def _refine_reference(s, start, eps_h, iterations, passes=12):
    hops = list(start.hop_distances)
    alts = list(start.altitudes)
    n = len(alts)
    history = [min(multihop_link_sirs(s, hops, alts))]
    for it in range(iterations):
        for p in range(passes):
            order = range(n) if (it * passes + p) % 2 == 0 else range(n - 1, -1, -1)
            for i in order:
                gap = hops[i] + hops[i + 1]
                d_star, h_star, value, current = _explore_reference(
                    s, hops, alts, i, eps_h)
                if value > current:
                    hops[i + 1] = gap - d_star
                    hops[i] = d_star
                    alts[i] = h_star
        history.append(min(multihop_link_sirs(s, hops, alts)))
    return Placement(tuple(hops), tuple(alts)), history


def _signed_zero_start(channel):
    """A one-UAV chain that distributed_max_sir starts at d_1 = -0.0."""
    s = Scenario(537.8358098432572, 165.4427943144502, 187.07088954706174,
                 0.10284466462852018, 0.06058150978382607, 1.6777981588491357,
                 15.865627163491967, 194.15133747824385, channel)
    _, start, _ = distributed_max_sir(s, 150.16280590224451, 1, 0.05)
    return s, start


#: Each case builds (scenario, start, eps_h, iterations, passes).
REFINE_CASES = {
    # A fleet_draw-style chain of the fleets_and_fields benchmark.
    "benchmark chain": lambda ch: (
        Scenario(1234.5, 812.3, 402.7, 23.1, 0.47, 61.8, 1.0, 500.0, ch),
        Placement.uniform([1234.5 / 21] * 21, 187.4), 10.0, 1, 12),
    # Hops near d_min = 120 m: the mask cuts into the rectangle of the
    # first, the middle and the last UAV, and the 100 m hop starts inside it.
    "d_min masks": lambda ch: (
        make_scenario(ch, d=600.0, msi_y=150.0, d_min=120.0),
        Placement.uniform([150.0, 100.0, 200.0, 150.0], 60.0), 50.0, 1, 2),
    "one UAV": lambda ch: (
        make_scenario(ch, msi_y=150.0),
        Placement.uniform((350.0, 650.0), 50.0), 30.0, 2, 3),
    "eps_h = 0": lambda ch: (
        make_scenario(ch, msi_y=150.0),
        Placement.uniform([250.0] * 4, 80.0), 0.0, 1, 3),
    "h_min = h_max": lambda ch: (
        make_scenario(ch, msi_y=150.0, h_min=80.0, h_max=80.0),
        Placement.uniform([250.0] * 4, 80.0), 10.0, 1, 3),
    "start above the band": lambda ch: (
        make_scenario(ch, msi_y=150.0, h_max=100.0),
        Placement((200.0, 300.0, 500.0), (90.0, 130.0)), 10.0, 1, 3),
    "signed-zero start": lambda ch: (*_signed_zero_start(ch), 10.0, 2, 1),
    # Random draw 25 of scripts/compare_answers.py: grid points put a UAV on
    # top of a neighbour, and that link's SIR overflows to inf.
    "grid point on a neighbour": lambda ch: (
        Scenario(1548.5488333347257, 471.92276094370976, 733.3485738290916,
                 11.861216829656808, 5.91769856508601, 0.04019389830940956,
                 17.027207136344074, 17.027207136344074, ch),
        Placement.uniform([1548.5488333347257 / 8] * 8, 17.027207136344074),
        0.0, 1, 1),
}


@pytest.mark.parametrize("case", sorted(REFINE_CASES))
def test_refine_altitudes_matches_reference_bit_for_bit(channel, case):
    s, start, eps_h, iterations, passes = REFINE_CASES[case](channel)
    got = refine_altitudes(s, start, eps_h, iterations, passes)
    with np.errstate(over="ignore"):  # the reference warns where it overflows
        want = _refine_reference(s, start, eps_h, iterations, passes)
    assert got == want
    assert repr(got) == repr(want)  # tells -0.0 from 0.0


def test_refine_altitudes_overflow_on_a_neighbour_is_silent(channel):
    """The inf SIR of a grid point on top of a neighbour is expected, so
    numpy prints no overflow warning for it."""
    case = REFINE_CASES["grid point on a neighbour"](channel)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        refine_altitudes(*case)


def test_refine_keeps_a_signed_zero_first_hop(channel):
    s, start = _signed_zero_start(channel)
    assert repr(start.hop_distances[0]) == "-0.0"
    refined, history = refine_altitudes(s, start, 10.0, 2, 1)
    # The UAV descends while it stays at -0.0: np.unique keeps the
    # incumbent's -0.0 in place of the grid's +0.0.
    assert repr(refined.hop_distances[0]) == "-0.0"
    assert refined.altitudes[0] < start.altitudes[0] and history[-1] > history[0]

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


# ------------------------------------------- the lockstep of distributed_max_sir

def reference_scan(s, h, n_uavs, epsilon):
    """`distributed_max_sir` as one scalar round per target, kept as the
    reference of its lockstep."""
    if n_uavs < 1:
        raise DomainError("n_uavs must be >= 1")
    D = s.distance_tx_rx
    gamma0 = min(sir_tx_link(s, 0.0, h), sir_rx_link(s, 0.0, h))
    trace = IterationTrace()
    for gamma in lowered_targets(gamma0, epsilon):
        result = forward_chain(s, h, gamma, n_uavs)
        if result is None:
            trace.append(gamma, 0.0, float("nan"))
            continue
        hops, consumed, d_max = result
        hops.append(max(D - consumed, 0.0))
        links = [hops[0], *[d for d in hops[1:-1] if d > 0.0], hops[-1]]
        trace.append(gamma, hops[0], min(multihop_link_sirs(s, links, h)))
        if D - consumed <= d_max:
            return gamma, Placement.uniform(hops, h), trace
    raise InfeasibleError("no target SIR closed the chain; span not coverable")


def scalar_round(s, h, gamma, n_uavs):
    """One round of the scan: (d_1, system SIR, closes, hops) for one target.

    A round where some link cannot reach gamma is (0.0, NaN, False, None).
    The system SIR skips the zero hops of surplus UAVs stacked on one spot:
    a zero hop is no link.  The scan's former scalar round, kept verbatim.
    """
    result = forward_chain(s, h, gamma, n_uavs)
    if result is None:
        return 0.0, math.nan, False, None
    hops, consumed, d_max = result
    D = s.distance_tx_rx
    hops.append(max(D - consumed, 0.0))
    links = [hops[0], *[d for d in hops[1:-1] if d > 0.0], hops[-1]]
    sir = min(multihop_link_sirs(s, links, h))
    return hops[0], sir, D - consumed <= d_max, hops


#: What a scalar round raises where it leaves the float range: a square
#: that overflows, a divisor that underflows to zero, and a positive middle
#: hop whose square underflows, which the link check calls coincident UAVs.
FLOAT_RANGE_RAISES = (OverflowError, ZeroDivisionError, DomainError)
LEAVES_FLOAT_RANGE = "leaves the float range"


def leaves_float_range(exc):
    if isinstance(exc, NumericError):
        return LEAVES_FLOAT_RANGE in str(exc)
    if isinstance(exc, DomainError):
        return "coincident consecutive UAVs" in str(exc)
    return isinstance(exc, FLOAT_RANGE_RAISES)


def outcome(scan, *args):
    """repr of (gamma, placement, the three trace lists), or the exception;
    a round that leaves the float range is LEAVES_FLOAT_RANGE, whether the
    lockstep raised NumericError or a scalar round raised."""
    try:
        gamma, placement, trace = scan(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return LEAVES_FLOAT_RANGE if leaves_float_range(exc) else "raises " + repr(exc)
    return repr((gamma, placement, trace.gammas, trace.first_hops,
                 trace.system_sirs))


def lattice(s, h, epsilon):
    """The scan's targets, up to a stall or a bad epsilon."""
    gamma0 = min(sir_tx_link(s, 0.0, h), sir_rx_link(s, 0.0, h))
    gammas = []
    try:
        gammas.extend(lowered_targets(gamma0, epsilon))
    except DomainError:
        pass
    return np.array(gammas, float)


def test_distributed_is_bit_identical_to_the_scalar_scan(channel):
    """Every answer, InfeasibleError and stalled lattice as the scalar scan
    gives it; where a scalar round raised, the scan raises NumericError."""
    counts = []
    for draws in (scan_draws(channel, 10, 400), edge_scan_draws(channel, range(600))):
        differ, raised, left = [], 0, 0
        for args in draws:
            expected = outcome(reference_scan, *args)
            raised += expected.startswith("raises")
            left += expected == LEAVES_FLOAT_RANGE
            if outcome(distributed_max_sir, *args) != expected:
                differ.append(args)
        assert not differ
        counts.append((raised, left))
    (raised, left), (edge_raised, edge_left) = counts
    assert 0 < raised < 40 and left == 0  # InfeasibleError on some draws, not most
    assert edge_raised > 0 and edge_left > 0


def test_distributed_long_scans_are_bit_identical(channel):
    """Thousands of rounds, so every chunk size up to the cap runs."""
    rng = random.Random(11)
    draws = [(make_scenario(channel, d_min=4.0), 20.0, 10, 0.2)]
    while len(draws) < 7:
        s = random_scenario(rng, channel)
        h = rng.uniform(s.h_min, s.h_max)
        n = (2, 20, 52)[len(draws) % 3]
        draws.append((s, h, n, feasibility_bound(s, h) / 3000.0))
    for args in draws:
        assert outcome(distributed_max_sir, *args) == outcome(reference_scan, *args)
    rounds = len(distributed_max_sir(*draws[0])[2].gammas)
    assert rounds > multihop.LOCKSTEP_CHUNK


def test_distributed_chunks_double_up_to_the_cap(channel, monkeypatch):
    """LOCKSTEP_FIRST targets, doubling up to the cap."""
    sizes = []

    def forward_rounds(s, h, gammas, n_uavs):
        sizes.append(gammas.size)
        return _forward_rounds(s, h, gammas, n_uavs)

    monkeypatch.setattr(multihop, "_forward_rounds", forward_rounds)
    _, _, trace = distributed_max_sir(make_scenario(channel, d_min=4.0), 20.0, 10, 0.1)
    size, asked = multihop.LOCKSTEP_FIRST, []
    for _ in sizes:
        asked.append(size)
        size = min(2 * size, multihop.LOCKSTEP_CHUNK)
    assert multihop.LOCKSTEP_CHUNK in sizes
    assert sizes[:-1] == asked[:-1] and sizes[-1] <= asked[-1]
    assert sum(sizes[:-1]) < len(trace.gammas) <= sum(sizes)


def test_distributed_closes_on_the_second_target_before_a_stall(channel, monkeypatch):
    """A lattice that stalls at its third target (half the float spacing
    at an odd-mantissa gamma0) still answers when the second closes."""
    s, h, n = make_scenario(channel, d_min=4.0), 20.0, 10
    closing = distributed_max_sir(s, h, n, 0.1)[0]

    def stalled(gamma0, epsilon):
        yield gamma0
        yield closing
        raise DomainError("stalled")

    monkeypatch.setattr(multihop, "lowered_targets", stalled)
    gamma, _, trace = distributed_max_sir(s, h, n, 0.1)
    assert gamma == closing and trace.gammas[1:] == [closing]


def test_forward_rounds_match_forward_chain_lane_by_lane(channel):
    """Each lane's hops, d_1, SIR and closing are its scalar round's, and
    a lane is flagged exactly when its scalar round raises."""
    draws = [*scan_draws(channel, 12, 60), *edge_scan_draws(channel, range(300))]
    flagged = 0
    for s, h, n, epsilon in draws:
        gammas = lattice(s, h, epsilon)
        hops, sirs, closes, raises = _forward_rounds(s, h, gammas, n)
        flagged += int(raises.sum())
        for j, gamma in enumerate(gammas.tolist()):
            try:
                first, sir, closed, chain = scalar_round(s, h, gamma, n)
            except FLOAT_RANGE_RAISES as exc:
                assert leaves_float_range(exc) and raises[j]
                continue
            assert not raises[j]
            assert repr((hops[0][j], sirs[j], closes[j])) == repr(
                (np.float64(first), np.float64(sir), np.bool_(closed)))
            if chain is not None:
                assert repr([float(d[j]) for d in hops]) == repr(chain)
    assert flagged > 0


_WIDE = st.floats(allow_nan=False, allow_infinity=False)
_TINY = st.floats(min_value=-1e-150, max_value=1e-150)
_HUGE = st.floats(min_value=1e150, max_value=1e160)


@given(st.lists(st.one_of(_WIDE, _TINY, _HUGE), min_size=1, max_size=64))
def test_float_power_squares_like_python_floats(xs):
    """The lockstep squares arrays with np.float_power(x, 2.0); it rounds
    like float ** 2 (the C library's pow), which x * x does not always."""
    with np.errstate(over="ignore"):
        squares = np.float_power(np.array(xs), 2.0).tolist()
    for x, x2 in zip(xs, squares):
        try:
            expected = x ** 2
        except OverflowError:
            expected = math.inf
        assert repr(x2) == repr(expected), x


#: A scenario whose chain closes at the 91st target of its lattice
#: (epsilon = gamma0 / 100) but not at the 99th: closing is not monotone
#: in the target, so no bisection over the lattice can replace the scan.
NON_MONOTONE = dict(distance_tx_rx=966.6769009405878, msi_x=703.9962682986794,
                    msi_y=293.6294217862512, p_tx=14.51759935755006,
                    p_uav=0.5373605359015432, p_msi=4.465223284331327,
                    h_min=6.039201618212678, h_max=152.77665862908958)


def test_distributed_returns_the_first_closing_round(channel):
    s = Scenario(channel=channel, **NON_MONOTONE)
    h, n = 125.2753631175596, 9
    gamma0 = min(sir_tx_link(s, 0.0, h), sir_rx_link(s, 0.0, h))
    gammas = list(lowered_targets(gamma0, gamma0 / 100.0))

    def closes(gamma):
        result = forward_chain(s, h, gamma, n)
        return result is not None and s.distance_tx_rx - result[1] <= result[2]

    assert not any(closes(g) for g in gammas[:90])
    assert closes(gammas[90]) and not closes(gammas[98])
    gamma, _, trace = distributed_max_sir(s, h, n, gamma0 / 100.0)
    assert gamma == gammas[90] and trace.gammas == gammas[:91]


def test_distributed_closing_on_gamma0_ignores_a_stalled_epsilon(channel):
    """The stalled lattice raises only when a second target is asked for."""
    s = Scenario(740.6361010741487, 390.55913424843504, 455.97359631556185,
                 0.14268602717461776, 1.3536162474506164, 0.30953934942483446,
                 2.4187700591671577, 396.21203005198413, channel)
    gamma, placement, trace = distributed_max_sir(s, 343.8783060671582, 9, 1e-300)
    assert trace.gammas == [gamma] and placement.uav_count == 9
    with pytest.raises(DomainError, match="does not lower"):
        distributed_max_sir(make_scenario(channel), 20.0, 5, 1e-300)


#: Inputs far outside any real deployment, where a round of the scalar scan
#: raises: a square overflows (p_uav of 2e303 W) or a positive middle hop
#: squares to zero (a span of 3e-160 m).  (n, h, epsilon, scenario values)
RAISING_ROUNDS = [
    (9, 2.90149382313319, 2314.423722980558,
     (1283.5132202904338, 949.6696023527506, 1183.816326624393,
      3.8939209537263495, 2.249913422874982e+303, 7.671858207796849,
      0.001, 100.0)),
    (10, 2.217765565207966e-161, 0.01118895966029724,
     (2.825846011770359e-160, 1.3319380151139526e-160, 2.7929455732931315e-160,
      1.082192796142104, 8.097680258660855, 6.284849671009388,
      3.082313264282039e-166, 3.0823132642820386e-161)),
]


@pytest.mark.parametrize("n, h, epsilon, values", RAISING_ROUNDS)
def test_distributed_raises_where_the_scalar_scan_raises(
        channel, n, h, epsilon, values):
    """Where the scalar scan raised OverflowError or the link check's
    DomainError, the scan raises NumericError at the same round, and the
    lockstep flags exactly the rounds that raised."""
    s = Scenario(*values, channel)
    with pytest.raises(FLOAT_RANGE_RAISES) as scalar:
        reference_scan(s, h, n, epsilon)
    assert leaves_float_range(scalar.value)
    gammas = lattice(s, h, epsilon)
    raises = _forward_rounds(s, h, gammas, n)[3]
    raising = []
    for j, gamma in enumerate(gammas.tolist()):
        try:
            scalar_round(s, h, gamma, n)
        except FLOAT_RANGE_RAISES:
            raising.append(j)
    assert raising and np.flatnonzero(raises).tolist() == raising
    with pytest.raises(NumericError) as lockstep:
        distributed_max_sir(s, h, n, epsilon)
    assert str(lockstep.value) == (f"the round at target {gammas[raising[0]].item()!r}"
                                   f" {LEAVES_FLOAT_RANGE}")


def test_forward_rounds_flag_a_divisor_that_underflows(channel, monkeypatch):
    """At a target of 5e-324 the last-hop divisor gamma p_msi eta is 0.0;
    the scalar round divided by it, and the scan raises NumericError."""
    s = make_scenario(channel, p_msi=0.1)
    raises = _forward_rounds(s, 20.0, np.array([1.0, 5e-324]), 3)[3]
    assert raises.tolist() == [False, True]
    with pytest.raises(ZeroDivisionError):
        scalar_round(s, 20.0, 5e-324, 3)
    monkeypatch.setattr(multihop, "lowered_targets",
                        lambda gamma0, epsilon: iter([5e-324]))
    with pytest.raises(NumericError, match=LEAVES_FLOAT_RANGE):
        distributed_max_sir(s, 20.0, 3, 0.1)
