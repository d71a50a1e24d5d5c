import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from uavrelay.channel import ChannelParams, Scenario, sir_rx_link, sir_tx_link
from uavrelay.dualhop import (classify_case_fixed_h, locus_coefficients,
                              locus_discriminant, locus_heights,
                              optimal_h_fixed_x, optimal_position,
                              optimal_x_fixed_h, quartic_roots_fixed_h,
                              stationary_points)
from uavrelay.errors import DomainError

from conftest import make_scenario, random_scenario


def test_locus_points_equalize_the_sirs(channel):
    s = make_scenario(channel, msi_y=100.0)
    found = 0
    for i in range(50):
        x = s.distance_tx_rx * i / 49.0
        for p in locus_heights(s, x):
            found += 1
            s1 = sir_tx_link(s, p.x, p.h)
            s2 = sir_rx_link(s, s.distance_tx_rx - p.x, p.h)
            assert s1 == pytest.approx(s2, rel=1e-6)
    assert found > 0


def test_locus_respects_altitude_band(channel):
    s = make_scenario(channel, h_min=50.0, h_max=120.0)
    for i in range(30):
        x = s.distance_tx_rx * i / 29.0
        for p in locus_heights(s, x):
            assert 50.0 <= p.h <= 120.0


def test_locus_x_out_of_range(channel):
    s = make_scenario(channel)
    with pytest.raises(DomainError):
        locus_heights(s, -5.0)


def test_discriminant_matches_float_when_safe(channel):
    s = make_scenario(channel, msi_y=200.0)
    for x in (100.0, 400.0, 700.0):
        a, b, c = locus_coefficients(s, x)
        exact = locus_discriminant(s, x)
        plain = b * b - 4.0 * a * c
        if abs(plain) > 1e-3 * b * b:
            assert exact == pytest.approx(plain, rel=1e-9)


def test_stationary_points_formulas(channel):
    s = make_scenario(channel, msi_x=300.0, msi_y=200.0)
    h = 50.0
    pts = stationary_points(s, h)
    q = 200.0 ** 2 + 300.0 ** 2
    assert pts.psi_h == pytest.approx(q / 600.0, rel=1e-12)
    expected = (q + math.sqrt(q * q + 4.0 * 300.0 ** 2 * h * h)) / 600.0
    assert pts.psi_x == pytest.approx(expected, rel=1e-12)
    assert not pts.at_infinity


def test_stationary_points_msi_at_origin(channel):
    s = make_scenario(channel, msi_x=0.0)
    pts = stationary_points(s, 50.0)
    assert pts.at_infinity
    # Monotone regime: SIR1 strictly decreases along x.
    vals = [sir_tx_link(s, x, 50.0) for x in (0.0, 100.0, 500.0, 1000.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_psi_x_is_a_minimum_of_sir1(channel):
    """SIR1 decreases left of psi_x and increases right of it."""
    s = make_scenario(channel, msi_x=600.0, msi_y=100.0)
    h = 30.0
    psi_x = stationary_points(s, h).psi_x
    eps = 1.0
    left = sir_tx_link(s, psi_x - eps, h)
    mid = sir_tx_link(s, psi_x, h)
    right = sir_tx_link(s, psi_x + eps, h)
    assert mid < left and mid < right


def test_quartic_roots_equalize(channel):
    s = make_scenario(channel, msi_y=100.0, p_tx=10.0)
    roots = quartic_roots_fixed_h(s, 50.0)
    for x in roots:
        assert sir_tx_link(s, x, 50.0) == pytest.approx(
            sir_rx_link(s, s.distance_tx_rx - x, 50.0), rel=1e-6)


def test_classify_case_ids_in_range(channel):
    rng = random.Random(7)
    for _ in range(40):
        s = random_scenario(rng, channel)
        h = rng.uniform(s.h_min, s.h_max)
        label = classify_case_fixed_h(s, h)
        assert label.case_id in (1, 2, 3, 4, 5)
        assert label.c1 > 0.0


def test_optimal_x_fixed_h_beats_dense_grid(channel):
    rng = random.Random(3)
    for _ in range(20):
        s = random_scenario(rng, channel)
        h = rng.uniform(s.h_min, s.h_max)
        x_star = optimal_x_fixed_h(s, h)
        best = 0.0
        vals = []
        for i in range(2001):
            x = s.distance_tx_rx * i / 2000.0
            vals.append(min(sir_tx_link(s, x, h),
                            sir_rx_link(s, s.distance_tx_rx - x, h)))
        slack = max(abs(b - a) for a, b in zip(vals, vals[1:]))
        achieved = min(sir_tx_link(s, x_star, h),
                       sir_rx_link(s, s.distance_tx_rx - x_star, h))
        assert achieved >= max(vals) - slack


def test_optimal_h_fixed_x_beats_dense_grid(channel):
    rng = random.Random(4)
    for _ in range(20):
        s = random_scenario(rng, channel)
        x = rng.uniform(0.0, s.distance_tx_rx)
        h_star = optimal_h_fixed_x(s, x)
        vals = []
        for i in range(2001):
            h = s.h_min + (s.h_max - s.h_min) * i / 2000.0
            vals.append(min(sir_tx_link(s, x, h),
                            sir_rx_link(s, s.distance_tx_rx - x, h)))
        slack = max(abs(b - a) for a, b in zip(vals, vals[1:]))
        achieved = min(sir_tx_link(s, x, h_star),
                       sir_rx_link(s, s.distance_tx_rx - x, h_star))
        assert achieved >= max(vals) - slack


def test_optimal_position_returns_valid_point(channel):
    rng = random.Random(11)
    for _ in range(30):
        s = random_scenario(rng, channel)
        x, h, report = optimal_position(s)
        assert 0.0 <= x <= s.distance_tx_rx
        assert s.h_min <= h <= s.h_max
        assert report.system_sir > 0.0


@settings(max_examples=40, deadline=None)
@given(st.floats(10.0, 990.0), st.floats(0.0, 500.0), st.floats(5.0, 400.0))
def test_locus_height_count_at_most_two(x, y, h_probe):
    ch = ChannelParams.from_carrier(2.0e9, 10 ** 0.01, 10 ** 2.1)
    s = make_scenario(ch, msi_x=x, msi_y=y)
    assert len(locus_heights(s, h_probe)) <= 2
