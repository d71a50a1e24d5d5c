import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from uavrelay.channel import (ChannelParams, Scenario, SirReport, sir_air_link,
                              sir_rx_link, sir_tx_link, sir_system_dual,
                              multihop_link_sirs, sir_multihop)
from uavrelay.errors import DomainError
from uavrelay.multihop import Placement

from conftest import make_scenario


def test_from_carrier_coefficient_formula():
    # C * (4*pi*f/c)^2 at f = 2 GHz, recomputed from scratch.
    f = 2.0e9
    c_los = 10 ** 0.01
    ch = ChannelParams.from_carrier(f, c_los, 10 ** 2.1)
    k = (4.0 * math.pi * f / 299_792_458.0) ** 2
    assert ch.mu_los == pytest.approx(c_los * k, rel=1e-12)
    assert ch.mu_nlos == pytest.approx(10 ** 2.1 * k, rel=1e-12)
    # eta defaults to mu_los
    assert ch.eta_nlos == ch.mu_los


def test_from_coefficients_round_trip():
    ch = ChannelParams.from_coefficients(3.0, 7.0, eta_nlos=2.0)
    assert ch == ChannelParams(3.0, 7.0, 2.0)
    assert [f.name for f in dataclasses.fields(ch)] == [
        "mu_los", "mu_nlos", "eta_nlos"]
    assert ch.nlos_over_eta == pytest.approx(3.5)


#: Valid keyword arguments of `ChannelParams.from_carrier`.
CARRIER_INPUTS = {"carrier_frequency": 2.0e9, "excess_loss_los": 1.0,
                  "excess_loss_nlos": 1.0, "eta_nlos": 1.0}


def assert_from_carrier_rejects(bad):
    """from_carrier raises DomainError when any one of its inputs is bad."""
    for name in CARRIER_INPUTS:
        with pytest.raises(DomainError):
            ChannelParams.from_carrier(**{**CARRIER_INPUTS, name: bad})


def test_channel_rejects_nonpositive():
    for bad in (0.0, -1.0):
        assert_from_carrier_rejects(bad)
    with pytest.raises(DomainError):
        ChannelParams.from_coefficients(0.0, 1.0)


def test_scenario_validation(channel):
    with pytest.raises(DomainError):
        make_scenario(channel, msi_x=2000.0)  # outside [0, D]
    with pytest.raises(DomainError):
        make_scenario(channel, h_min=0.0)
    with pytest.raises(DomainError):
        make_scenario(channel, p_msi=-1.0)
    with pytest.raises(DomainError):
        make_scenario(channel, d_min=-0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_scenario_and_channel_reject_non_finite(channel, bad):
    for field in ("d", "msi_y", "p_tx", "p_uav", "p_msi", "h_max", "d_min"):
        with pytest.raises(DomainError):
            make_scenario(channel, **{field: bad})
    assert_from_carrier_rejects(bad)
    with pytest.raises(DomainError):
        ChannelParams.from_coefficients(1.0, 1.0, eta_nlos=bad)


def test_sir_report_first_bottleneck_on_ties():
    r = SirReport.from_links([2.0, 1.0, 1.0, 3.0])
    assert r.system_sir == 1.0
    assert r.bottleneck_index == 1


def test_dual_sir_formulas(channel):
    s = make_scenario(channel)
    x, h = 300.0, 50.0
    expected1 = (s.p_tx * ((x - s.msi_x) ** 2 + s.msi_y ** 2 + h ** 2)
                 / (s.p_msi * (x ** 2 + h ** 2)))
    assert sir_tx_link(s, x, h) == pytest.approx(expected1, rel=1e-12)
    expected2 = (s.p_uav * channel.mu_nlos
                 * (s.msi_y ** 2 + (s.distance_tx_rx - s.msi_x) ** 2)
                 / (channel.eta_nlos * s.p_msi
                    * ((s.distance_tx_rx - x) ** 2 + h ** 2)))
    assert sir_rx_link(s, s.distance_tx_rx - x, h) == pytest.approx(
        expected2, rel=1e-12)
    report = sir_system_dual(s, x, h)
    assert report.system_sir == pytest.approx(min(expected1, expected2))


def test_sir_system_dual_domain(channel):
    s = make_scenario(channel)
    with pytest.raises(DomainError):
        sir_system_dual(s, -1.0, 50.0)
    with pytest.raises(DomainError):
        sir_system_dual(s, 100.0, 1.0)  # below h_min


def test_multihop_reduces_to_dual(channel):
    """A 2-hop chain's first link equals the dual-hop transmitter-side SIR."""
    s = make_scenario(channel)
    x, h = 400.0, 60.0
    links = multihop_link_sirs(s, [x, s.distance_tx_rx - x], h)
    assert links[0] == pytest.approx(sir_tx_link(s, x, h), rel=1e-12)
    assert links[-1] == pytest.approx(
        sir_rx_link(s, s.distance_tx_rx - x, h), rel=1e-12)


def test_multihop_hop_sum_checked(channel):
    s = make_scenario(channel)
    with pytest.raises(DomainError):
        sir_multihop(s, Placement.uniform((100.0, 100.0), 50.0))


def test_multihop_middle_link_formula(channel):
    s = make_scenario(channel)
    hops = [200.0, 300.0, 500.0]
    h = 40.0
    links = multihop_link_sirs(s, hops, h)
    pos2 = 500.0
    expected = (s.p_uav * channel.eta_nlos
                * ((s.msi_x - pos2) ** 2 + s.msi_y ** 2 + h ** 2)
                / (channel.mu_los * s.p_msi * hops[1] ** 2))
    assert links[1] == pytest.approx(expected, rel=1e-12)


def test_var_alt_agrees_with_uniform(channel):
    s = make_scenario(channel)
    hops = [200.0, 300.0, 500.0]
    h = 40.0
    uniform = multihop_link_sirs(s, hops, h)
    var = multihop_link_sirs(s, hops, [h, h])
    assert var == pytest.approx(uniform, rel=1e-12)


def test_var_alt_uses_3d_link_length(channel):
    s = make_scenario(channel)
    hops = [200.0, 300.0, 500.0]
    alts = [40.0, 90.0]
    links = multihop_link_sirs(s, hops, alts)
    link_sq = 300.0 ** 2 + 50.0 ** 2
    expected = (s.p_uav * channel.eta_nlos
                * ((s.msi_x - 500.0) ** 2 + s.msi_y ** 2 + alts[1] ** 2)
                / (channel.mu_los * s.p_msi * link_sq))
    assert links[1] == pytest.approx(expected, rel=1e-12)


def test_var_alt_separation_guard(channel):
    s = make_scenario(channel, d_min=10.0)
    p = Placement((200.0, 5.0, 795.0), (40.0, 42.0))
    with pytest.raises(DomainError):
        sir_multihop(s, p)
    # 3-D separation counts: same horizontal gap is fine with enough
    # altitude difference.
    p2 = Placement((200.0, 5.0, 795.0), (40.0, 60.0))
    assert sir_multihop(s, p2).system_sir > 0.0


@given(x=st.floats(0.0, 1000.0), h=st.floats(5.0, 400.0))
def test_dual_sirs_positive(x, h):
    ch = ChannelParams.from_carrier(2.0e9, 10 ** 0.01, 10 ** 2.1)
    s = make_scenario(ch)
    assert sir_tx_link(s, x, h) > 0.0
    assert sir_rx_link(s, s.distance_tx_rx - x, h) > 0.0


@given(st.lists(st.floats(1.0, 100.0), min_size=2, max_size=6),
       st.floats(5.0, 100.0))
def test_system_sir_is_min_of_links(hops, h):
    ch = ChannelParams.from_carrier(2.0e9, 10 ** 0.01, 10 ** 2.1)
    total = sum(hops)
    s = make_scenario(ch, d=total, msi_x=total / 3.0, msi_y=30.0)
    report = sir_multihop(s, Placement.uniform(hops, h))
    assert report.system_sir == min(report.per_link)
    assert len(report.per_link) == len(hops)


# Python floats square through libm pow() and numpy arrays through x * x;
# the two round apart for about one input in a thousand.  On dyadic inputs
# every square and sum is exact, so there the array path and the scalar path
# of a kernel must agree bit for bit: one formula, one operand order.
dyadic = st.integers(1, 2 ** 20).map(lambda k: k / 256.0)
power = st.floats(1e-2, 1e2)


@given(st.lists(st.tuples(dyadic, dyadic, dyadic), min_size=1, max_size=8),
       dyadic, st.floats(0.0, 1.0), dyadic, power, power, power)
def test_link_kernels_on_arrays_equal_scalar_calls(points, d, frac, msi_y,
                                                   p_tx, p_uav, p_msi):
    ch = ChannelParams.from_carrier(2.0e9, 10 ** 0.01, 10 ** 2.1)
    msi_x = math.floor(frac * d * 256.0) / 256.0
    s = Scenario(d, msi_x, msi_y, p_tx, p_uav, p_msi, 1.0, 500.0, ch)
    a, b, c = (np.array(col) for col in zip(*points))
    for kernel, args in ((sir_tx_link, (a, b)), (sir_air_link, (a, b, c)),
                         (sir_rx_link, (a, b))):
        scalar = [kernel(s, *(float(v) for v in row)) for row in zip(*args)]
        assert kernel(s, *args).tolist() == scalar
        # On any input the two paths differ by a few roundings at most.
        wide = [arg * 1.1 for arg in args]
        scalar = [kernel(s, *(float(v) for v in row)) for row in zip(*wide)]
        assert np.allclose(kernel(s, *wide), scalar, rtol=1e-15, atol=0.0)


@given(st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=8),
       st.floats(1.0, 500.0))
def test_one_altitude_equals_one_per_uav(hops, h):
    ch = ChannelParams.from_carrier(2.0e9, 10 ** 0.01, 10 ** 2.1)
    total = sum(hops)
    s = make_scenario(ch, d=total, msi_x=total / 3.0, msi_y=30.0)
    n = len(hops) - 1
    assert multihop_link_sirs(s, hops, h) == multihop_link_sirs(s, hops, [h] * n)
