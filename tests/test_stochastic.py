import math

import pytest
from scipy.integrate import quad
from scipy.special import betaln

from uavrelay.errors import DomainError, InfeasibleError, NumericError
from uavrelay.stochastic import (BetaField, DeterministicField, EmpiricalField,
                                 MgfField, beta_upsilon,
                                 design_min_uavs_stochastic,
                                 distributed_max_esir,
                                 expected_multihop_link_sirs,
                                 single_uav_position,
                                 upsilon, upsilon_field)

from conftest import make_scenario


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


def test_empirical_field_bins_and_minimum_count():
    samples_a = tuple(1.0 + (i % 7) * 0.1 for i in range(1500))
    samples_b = tuple(2.0 + (i % 5) * 0.1 for i in range(1500))
    f = EmpiricalField((0.0, 50.0, 100.0), (samples_a, samples_b), 100.0)
    expected = sum(1.0 / v for v in samples_a) / len(samples_a)
    assert upsilon(f, 10.0) == pytest.approx(expected, rel=1e-12)
    assert upsilon(f, 80.0) < upsilon(f, 10.0)
    thin = EmpiricalField((0.0, 50.0), (tuple([1.0] * 10),), 100.0)
    with pytest.raises(DomainError):
        upsilon(thin, 10.0)
    with pytest.raises(DomainError):
        upsilon(f, 200.0)


def test_upsilon_field_memoizes():
    calls = []

    class Counting:
        altitude = 100.0

        def upsilon_at(self, x):
            calls.append(x)
            return 1.0

    ups = upsilon_field(Counting())
    ups(5.0)
    ups(5.0)
    assert calls == [5.0]


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
