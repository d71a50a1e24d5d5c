import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import betaln

from uavrelay.channel import ChannelParams, Scenario
from uavrelay.cli import _parse_field
from uavrelay.errors import DomainError, InfeasibleError, NumericError
from uavrelay.oracle import exhaustive_min_uavs
from uavrelay.stochastic import (D1_SCAN_POINTS, DESIGN_N_CAP, RHO_STEPS,
                                 BetaField, DeterministicField, MgfField,
                                 _d1_solution_set, beta_upsilon,
                                 design_min_uavs_stochastic,
                                 distributed_max_esir,
                                 expected_multihop_link_sirs,
                                 single_uav_position, upsilon)

from conftest import edge_scenario, make_scenario


def test_beta_upsilon_exact_values():
    assert beta_upsilon(2.0, 1.0, 1.0) == pytest.approx(2.0, rel=1e-12)
    assert beta_upsilon(3.0, 1.0, 1.0) == pytest.approx(1.5, rel=1e-12)
    # Scale: E(1/(c*I)) = E(1/I)/c.
    assert beta_upsilon(2.0, 1.0, 4.0) == pytest.approx(0.5, rel=1e-12)


def test_beta_upsilon_diverges_for_small_alpha():
    with pytest.raises(NumericError):
        beta_upsilon(1.0, 2.0, 1.0)
    with pytest.raises(NumericError):
        beta_upsilon(0.5, 2.0, 1.0)


def test_beta_upsilon_matches_quadrature():
    a, b, i_max = 3.7, 2.2, 5.0
    logb = betaln(a, b)

    def integrand(y):
        return math.exp((a - 2.0) * math.log(y)
                        + (b - 1.0) * math.log1p(-y) - logb) / i_max

    value, _ = quad(integrand, 0.0, 1.0)
    assert beta_upsilon(a, b, i_max) == pytest.approx(value, rel=1e-9)


def test_deterministic_field_reciprocal():
    f = DeterministicField(4.0, 100.0)
    assert upsilon(f, 10.0) == pytest.approx(0.25)
    g = DeterministicField(lambda x: 1.0 + x, 100.0)
    assert upsilon(g, 3.0) == pytest.approx(0.25)


def test_deterministic_field_rejects_nonpositive_level():
    f = DeterministicField(0.0, 100.0)
    with pytest.raises(DomainError):
        upsilon(f, 1.0)


def test_mgf_field_matches_beta_closed_form():
    """Exponential interference: M(t) = rate/(rate - t), E(1/I) diverges...
    so use a shifted uniform on [1, 2] instead, where E(1/I) = ln 2."""
    def mgf(_x, t):
        if t == 0.0:
            return 1.0
        return (math.exp(2.0 * t) - math.exp(t)) / t

    f = MgfField(mgf, 100.0)
    assert upsilon(f, 0.0) == pytest.approx(math.log(2.0), rel=1e-6)


def test_mgf_field_gamma_over_whole_octaves():
    """Gamma interference, M(t) = (1 - theta t)^-k, has E(1/I) = 1/(theta (k-1));
    log-spaced scales cover every fraction of log2(theta) many times."""
    for k in (3.0, 4.0, 5.5):
        for i in range(2000):
            theta = 10.0 ** (-3.0 + 3.0 * i / 1999)
            f = MgfField(lambda _x, t: (1.0 - theta * t) ** (-k), 100.0)
            exact = 1.0 / (theta * (k - 1.0))
            assert upsilon(f, 0.0) == pytest.approx(exact, rel=1e-12), (k, theta)


def test_mgf_field_divergent_reciprocal_mean_raises():
    """E(1/I) diverges for exponential and near-exponential Gamma interference."""
    with pytest.raises(NumericError):
        upsilon(MgfField(lambda _x, t: 2.0 / (2.0 - t), 100.0), 0.0)
    with pytest.raises(NumericError):
        upsilon(MgfField(lambda _x, t: (1.0 - 0.3 * t) ** -1.01, 100.0), 0.0)


def test_expected_sir_dual_formula(channel):
    s = make_scenario(channel)
    model = BetaField(3.0, 1.0, 2.0, 100.0)  # Upsilon = 0.75 everywhere
    e1, e2 = expected_multihop_link_sirs(model, s, [300.0, 700.0], 50.0)
    eta = channel.eta_nlos
    assert e1 == pytest.approx(
        0.75 * s.p_tx / (eta * (300.0 ** 2 + 50.0 ** 2)), rel=1e-12)
    assert e2 == pytest.approx(
        0.75 * s.p_uav / (eta * (700.0 ** 2 + 50.0 ** 2)), rel=1e-12)


def test_expected_multihop_links_formula(channel):
    s = make_scenario(channel)
    model = DeterministicField(2.0, 100.0)  # Upsilon = 0.5
    hops = [200.0, 300.0, 500.0]
    links = expected_multihop_link_sirs(model, s, hops, 40.0)
    assert links[1] == pytest.approx(
        0.5 * s.p_uav / (channel.mu_los * 300.0 ** 2), rel=1e-12)
    assert len(links) == 3


def test_single_uav_position_beats_dense_grid(channel):
    s = make_scenario(channel, d=400.0, msi_x=200.0, msi_y=100.0)
    model = BetaField(4.0, 2.0, 3.0, 100.0)
    h = 30.0
    # epsilon must be scaled to the expected-SIR magnitude for a tight answer.
    ups = beta_upsilon(4.0, 2.0, 3.0)
    gamma_max = ups * s.p_uav / (channel.eta_nlos * h ** 2)
    epsilon = gamma_max / 200.0
    x, esir, trace = single_uav_position(model, s, h, epsilon)
    assert 0.0 <= x <= s.distance_tx_rx
    best = 0.0
    for i in range(4001):
        xi = s.distance_tx_rx * i / 4000.0
        e1, e2 = expected_multihop_link_sirs(
            model, s, [xi, s.distance_tx_rx - xi], h)
        best = max(best, min(e1, e2))
    assert esir >= best - epsilon
    assert len(trace.gammas) == len(trace.first_hops) == len(trace.system_sirs)
    assert (x, esir) in zip(trace.first_hops, trace.system_sirs)


def test_design_stochastic_meets_target_on_every_link(channel):
    s = make_scenario(channel, d=300.0, msi_x=150.0, msi_y=100.0)
    model = BetaField(3.0, 1.0, 1.0, 100.0)
    h = 20.0
    e_cap = 1.5 * s.p_uav / (channel.eta_nlos * h ** 2)
    gamma = e_cap / 50.0
    result = design_min_uavs_stochastic(model, s, h, gamma)
    links = expected_multihop_link_sirs(
        model, s, result.placement.hop_distances, h)
    assert min(links) >= gamma * (1.0 - 1e-6)
    assert abs(sum(result.placement.hop_distances) - 300.0) < 1e-6


def test_design_stochastic_monotone_in_gamma(channel):
    s = make_scenario(channel, d=300.0, msi_x=150.0, msi_y=100.0)
    model = BetaField(3.0, 1.0, 1.0, 100.0)
    h = 20.0
    e_cap = 1.5 * s.p_uav / (channel.eta_nlos * h ** 2)
    counts = [design_min_uavs_stochastic(model, s, h, e_cap / k)
              .placement.uav_count for k in (50.0, 20.0, 8.0)]
    assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_design_stochastic_infeasible_target(channel):
    s = make_scenario(channel, d=300.0, msi_x=150.0, msi_y=100.0)
    model = BetaField(3.0, 1.0, 1.0, 100.0)
    with pytest.raises(InfeasibleError):
        design_min_uavs_stochastic(model, s, 20.0, 1e12)
    with pytest.raises(DomainError, match="gamma must be finite"):
        design_min_uavs_stochastic(model, s, 20.0, math.nan)


def test_distributed_esir_accepts_first_link(channel):
    s = make_scenario(channel, d=500.0, msi_x=250.0, msi_y=100.0)
    model = BetaField(4.0, 2.0, 2.0, 100.0)
    h = 25.0
    gamma, placement, trace = distributed_max_esir(model, s, h, 5, 0.01)
    assert abs(sum(placement.hop_distances) - 500.0) < 1e-6
    d1 = placement.hop_distances[0]
    e1, _ = expected_multihop_link_sirs(model, s, [d1, 500.0 - d1], h)
    assert e1 >= gamma * (1.0 - 1e-9) or len(trace.gammas) >= 1


def test_distributed_esir_trace_is_one_row_per_round(channel):
    s = make_scenario(channel, d=500.0, msi_x=250.0, msi_y=100.0)
    model = BetaField(4.0, 2.0, 2.0, 100.0)
    h = 25.0
    gamma0 = beta_upsilon(4.0, 2.0, 2.0) * s.p_uav / (channel.eta_nlos * h ** 2)
    gamma, placement, trace = distributed_max_esir(model, s, h, 5, gamma0 / 100)
    assert len(trace.gammas) == len(trace.first_hops) == len(trace.system_sirs)
    assert trace.gammas[-1] == gamma
    assert trace.first_hops[-1] == placement.hop_distances[0]


@pytest.mark.parametrize("h", [math.nan, 0.0, 2.0, 1e6])
def test_stochastic_planners_reject_altitude_outside_band(channel, h):
    s = make_scenario(channel, d=300.0, msi_x=150.0, msi_y=100.0)
    model = BetaField(3.0, 1.0, 1.0, 100.0)
    with pytest.raises(DomainError, match="h outside"):
        single_uav_position(model, s, h, 1e-9)
    with pytest.raises(DomainError, match="h outside"):
        distributed_max_esir(model, s, h, 3, 1e-9)
    with pytest.raises(DomainError, match="h outside"):
        design_min_uavs_stochastic(model, s, h, 1e-7)


def test_distributed_esir_gamma_grows_with_fleet(channel):
    s = make_scenario(channel, d=500.0, msi_x=250.0, msi_y=100.0)
    model = BetaField(4.0, 2.0, 2.0, 100.0)
    finals = [distributed_max_esir(model, s, 25.0, n, 0.01)[0]
              for n in (2, 4, 8)]
    assert all(b >= a - 1e-12 for a, b in zip(finals, finals[1:]))


def fields(span):
    """One field of each kind the planners read Upsilon from, over [0, span]."""
    x_m = [0.0, 0.3 * span, span]
    return {
        "beta": BetaField(3.0, 1.5, 2.0, 100.0),
        "beta rising": BetaField(lambda x: 1.5 + 3.0 * x / span, 2.0, 0.5, 100.0),
        "deterministic": DeterministicField(4.0, 100.0),
        "deterministic callable": DeterministicField(lambda x: 1.0 + x / span,
                                                     100.0),
        "gamma mgf": MgfField(
            lambda x, t: (1.0 - 0.01 * (1.0 + x / span) * t) ** -3.0, 100.0),
        "beta_knots": _parse_field({
            "variant": "beta_knots", "x_m": x_m, "alpha": [2.0, 6.5, 3.0],
            "beta": [1.0, 0.7, 4.0], "i_max_w": 0.3, "altitude_m": 100.0}),
        "tabulated_upsilon": _parse_field({
            "variant": "tabulated_upsilon", "x_m": x_m,
            "upsilon": [2.0, 0.01, 7.5], "altitude_m": 100.0}),
    }


FIELD_KINDS = sorted(fields(1.0))


@pytest.mark.parametrize("kind", FIELD_KINDS)
def test_upsilon_of_an_array_is_the_float_calls(kind):
    span = 731.0
    model = fields(span)[kind]
    rng = random.Random(3)
    xs = np.array([0.0, span, -5.0, 2.0 * span]
                  + [rng.uniform(0.0, span) for _ in range(59)]
                  + np.linspace(0.0, span, 129).tolist())
    assert type(upsilon(model, 17.0)) is float
    loop = [upsilon(model, x) for x in xs.tolist()]
    assert list(map(repr, upsilon(model, xs).tolist())) == list(map(repr, loop))
    grid = upsilon(model, xs.reshape(8, -1))
    assert grid.shape == (8, xs.size // 8)
    assert np.array_equal(grid.ravel(), np.array(loop))


def raised(call):
    try:
        call()
    except Exception as exc:
        return repr(exc)
    raise AssertionError("no error raised")


@pytest.mark.parametrize("model", [
    # alpha reaches 1 at x = 100: the Beta closed form diverges
    BetaField(lambda x: 3.0 - x / 50.0, 2.0, 1.0, 100.0),
    # Upsilon overflows from x = 70-80 on, before alpha reaches 1
    BetaField(lambda x: 3.0 - x / 50.0, 2.0, 3e-308, 100.0),
    # the level reaches 0 at x = 100
    DeterministicField(lambda x: 1.0 - x / 100.0, 100.0),
    DeterministicField(-1.0, 100.0),
    # the shape falls toward 1, where E(1/I) diverges
    MgfField(lambda x, t: (1.0 - 0.1 * t) ** -(3.0 - x / 60.0), 100.0),
], ids=["beta-alpha", "beta-overflow", "level-callable", "level", "mgf"])
def test_an_array_raises_the_first_error_of_the_float_calls(model):
    xs = np.linspace(0.0, 200.0, 41)

    def loop():
        for x in xs.tolist():
            upsilon(model, x)

    assert raised(lambda: upsilon(model, xs)) == raised(loop)


def test_beta_upsilon_of_arrays():
    alpha = np.array([2.0, 3.0, 4.0])
    assert upsilon(BetaField(3.0, 1.0, 1.0, 100.0), alpha).tolist() == [1.5] * 3
    want = [beta_upsilon(a, 2.0, 0.5) for a in alpha.tolist()]
    assert beta_upsilon(alpha, 2.0, 0.5).tolist() == want
    with pytest.raises(NumericError, match="alpha=0.5"):
        beta_upsilon(np.array([2.0, 0.5, 0.7]), 1.0, 1.0)
    with pytest.raises(DomainError):
        beta_upsilon(2.0, np.array([1.0, -1.0]), 1.0)


def _scalar_d1_solution_set(ups, s, h, gamma):
    """_d1_solution_set as it was before its array scan, verbatim: ups is
    x -> Upsilon_x."""
    D = s.distance_tx_rx
    eta = s.channel.eta_nlos

    def residual(d1: float) -> float:
        return d1 ** 2 * gamma - s.p_tx * ups(d1) / eta + h ** 2 * gamma

    xs = [i * D / (D1_SCAN_POINTS - 1) for i in range(D1_SCAN_POINTS)]
    vals = [residual(x) for x in xs]

    def refine(lo: float, hi: float) -> float:
        f_lo = residual(lo)
        for _ in range(60):
            mid = (lo + hi) / 2.0
            if (residual(mid) <= 0.0) == (f_lo <= 0.0):
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2.0

    intervals = []
    start = xs[0] if vals[0] <= 0.0 else None
    for (x0, v0), (x1, v1) in zip(zip(xs, vals), zip(xs[1:], vals[1:])):
        if v0 <= 0.0 < v1:
            intervals.append((start, refine(x0, x1)))
            start = None
        elif v0 > 0.0 >= v1:
            start = refine(x0, x1)
    if start is not None:
        intervals.append((start, D))
    return intervals


def answer(call):
    try:
        return repr(call())
    except Exception as exc:
        return f"raised {exc!r}"


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32), edge=st.booleans(),
       kind=st.sampled_from([k for k in FIELD_KINDS if k != "gamma mgf"]))
@example(seed=0, edge=False, kind="beta rising")
@example(seed=2, edge=True, kind="tabulated_upsilon")
def test_d1_scan_matches_the_scalar_scan(channel, seed, edge, kind):
    """Criterion-09 and `edge_scenario` draws, a target at a share of the
    Rx-side cap, every field kind but the MGF one, whose array read is a
    loop of float reads."""
    rng = random.Random(seed)
    if edge:
        s = edge_scenario(rng, channel)
        h = rng.uniform(s.h_min, s.h_max)
    else:
        d = rng.uniform(50.0, 300.0)
        s = Scenario(d, rng.uniform(0.0, d), rng.uniform(10.0, d),
                     10.0 ** rng.uniform(0.0, 2.0), 10.0 ** rng.uniform(-1.0, 1.0),
                     1.0, 1.0, 100.0, channel, d_min=rng.uniform(0.5, 3.0))
        h = rng.uniform(3.0, 40.0)
    model = fields(s.distance_tx_rx)[kind]
    try:
        cap = (upsilon(model, s.distance_tx_rx) * s.p_uav
               / (s.channel.eta_nlos * h ** 2))
    except Exception:
        cap = 1.0
    gamma = cap * rng.uniform(0.05, 1.0) if 0.0 < cap < math.inf else 1.0
    assert answer(lambda: _d1_solution_set(model, s, h, gamma)) == answer(
        lambda: _scalar_d1_solution_set(lambda x: upsilon(model, x), s, h, gamma))


@pytest.mark.parametrize("d, h_max, h", [(1e200, 10.0, 5.0), (1e306, 10.0, 5.0),
                                         (100.0, 1e200, 1e160)])
def test_d1_scan_raises_where_a_float_square_overflows(channel, d, h_max, h):
    s = Scenario(d, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, h_max, channel)
    for model in (BetaField(3.0, 1.0, 1.0, 100.0),
                  DeterministicField(lambda x: 1.0 - x / d, 100.0)):
        new = answer(lambda: _d1_solution_set(model, s, h, 1e-3))
        assert new.startswith("raised OverflowError") or "level" in new
        assert new == answer(lambda: _scalar_d1_solution_set(
            lambda x: upsilon(model, x), s, h, 1e-3))


class Counting:
    """A field that records each read: the float position, or the array."""

    altitude = 100.0

    def __init__(self, model):
        self.model, self.reads = model, []

    def upsilon_at(self, x):
        self.reads.append(x)
        return self.model.upsilon_at(x)

    def floats(self):
        return [x for x in self.reads if not isinstance(x, np.ndarray)]

    def arrays(self):
        return [x for x in self.reads if isinstance(x, np.ndarray)]


def test_planners_read_upsilon_at_the_receiver_once(channel):
    s = make_scenario(channel, d=500.0, msi_x=250.0, msi_y=100.0)
    D, h = s.distance_tx_rx, 25.0
    field = Counting(BetaField(lambda x: 3.0 + x / D, 2.0, 2.0, 100.0))
    gamma0 = upsilon(field.model, D) * s.p_uav / (channel.eta_nlos * h ** 2)
    _, _, trace = single_uav_position(field, s, h, gamma0 / 50)
    assert field.reads[0] == D
    assert len(field.reads) == 1 + len(trace.gammas)  # one read per round
    field.reads.clear()
    _, _, trace = distributed_max_esir(field, s, h, 5, gamma0 / 50)
    # a round reads its 4 backward hops, then the Tx-side link, and the
    # middle links when all of them are > 0 (its system SIR is a number)
    assert field.reads[0] == D
    assert len(field.reads) == 1 + sum(5 if math.isnan(e) else 9
                                       for e in trace.system_sirs)


def test_d1_scan_and_stochastic_oracle_read_one_array(channel):
    s = make_scenario(channel, d=300.0, msi_x=150.0, msi_y=100.0)
    field = Counting(BetaField(lambda x: 3.0 + x / 300.0, 1.0, 1.0, 100.0))
    h = 20.0
    gamma = 1.5 * s.p_uav / (channel.eta_nlos * h ** 2) / 20.0
    intervals = _d1_solution_set(field, s, h, gamma)
    assert len(field.arrays()) == 1 and field.arrays()[0].size == D1_SCAN_POINTS
    assert len(field.floats()) <= 61 * 2 * len(intervals)  # the bisections
    field.reads.clear()
    exhaustive_min_uavs("stochastic", s, h, gamma, 8, 64, model=field)
    assert len(field.reads) == 1 and field.reads[0].size == 64 * 8 + 2


def test_design_past_the_uav_cap_reads_once_per_chain_step():
    """No chain within the cap closes, so every (n, rho) step runs: the
    chain of n UAVs grows from the chain of n - 1 by one Upsilon read."""
    ch = ChannelParams.from_carrier(2.4e9, 1.0, 10.0)
    s = Scenario(300.0, 150.0, 50.0, 1.0, 1.0, 1.0, 1.0, 100.0, ch)
    field = Counting(BetaField(lambda x: 2.0 + x / 300.0, 2.0, 1.0, 100.0))
    h = 10.0
    gamma = 0.999 * upsilon(field.model, 300.0) * s.p_uav / (ch.eta_nlos * h ** 2)
    with pytest.raises(InfeasibleError, match="UAV cap"):
        design_min_uavs_stochastic(field, s, h, gamma)
    intervals = _d1_solution_set(field.model, s, h, gamma)
    steps = (DESIGN_N_CAP - 1) * (RHO_STEPS + 1)
    assert len(field.arrays()) == 1
    assert len(field.floats()) <= steps + 1 + 61 * 2 * len(intervals)
