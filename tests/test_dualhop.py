import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import uavrelay.dualhop as dualhop
from uavrelay.channel import ChannelParams, Scenario, sir_rx_link, sir_tx_link
from uavrelay.dualhop import (LOCUS_SAMPLES, LocusPoint, _golden_max,
                              _locus_argmax, _near_cancellation,
                              classify_case_fixed_h, locus_coefficients,
                              locus_discriminant, locus_heights, locus_sweep,
                              optimal_h_fixed_x, optimal_position,
                              optimal_x_fixed_h, quartic_roots_fixed_h,
                              stationary_points)
from uavrelay.errors import DomainError, NumericError

from conftest import C_LOS, C_NLOS, edge_scenario, make_scenario, random_scenario

_CHANNEL = ChannelParams.from_carrier(2.0e9, C_LOS, C_NLOS)


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


#: Draw "extreme powers 20" of the answer comparison's dualhop corpus: the
#: quartic's coefficients overflow to inf and NaN on the whole band.
OVERFLOWING_QUARTIC = Scenario(
    7702.964478090886, 2458.3175271542386, 7318.1175013629645,
    6.268543075210559e+303, 1.941432912883362e+305, 4.937560383640017e-305,
    0.0003525440095602834, 0.36475752812004547, _CHANNEL)


def test_quartic_with_overflowing_coefficients_raises_numeric_error():
    """np.roots would raise LinAlgError on them; the planners that reach
    the quartic fail with the package's NumericError instead."""
    s = OVERFLOWING_QUARTIC
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError, match="locus quartic"):
            quartic_roots_fixed_h(s, s.h_min)
        with pytest.raises(NumericError, match="locus quartic"):
            optimal_position(s)


def test_quartic_whose_companion_row_overflows_raises_numeric_error(channel):
    """Finite coefficients whose ratio to the leading one (p_tx = 1e-300)
    overflows: np.roots's companion matrix would hold -inf."""
    s = make_scenario(channel, d=100.0, msi_x=50.0, msi_y=40.0, p_tx=1e-300,
                      p_uav=1e300, p_msi=1.0, h_max=50.0)
    assert np.isfinite(dualhop._quartic_coefficients(s, 10.0)).all()
    with pytest.raises(NumericError, match="locus quartic"):
        quartic_roots_fixed_h(s, 10.0)


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


def _outcome(f, *args):
    """repr of f's answer, or of the error it raises."""
    try:
        return repr(f(*args))
    except Exception as exc:  # an error is an answer to compare
        return f"raised {exc!r}"


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 300))
def test_locus_sweep_equals_scalar_locus_heights_lane_by_lane(seed, lanes):
    rng = random.Random(seed)
    s = edge_scenario(rng, _CHANNEL)
    xs = np.linspace(0.0, s.distance_tx_rx, lanes)
    xs[1:-1] = np.sort([rng.uniform(0.0, s.distance_tx_rx)
                        for _ in range(lanes - 2)])
    scalar = [_outcome(locus_heights, s, x) for x in xs.tolist()]
    errors = [out for out in scalar if out.startswith("raised")]
    if errors:
        assert _outcome(locus_sweep, s, xs) == errors[0]
        return
    plus, minus = locus_sweep(s, xs)
    for x, hp, hm in zip(xs.tolist(), plus.tolist(), minus.tolist()):
        lanes_points = [LocusPoint(x, h, b) for h, b in ((hp, "plus"), (hm, "minus"))
                        if not math.isnan(h)]
        assert repr(lanes_points) == repr(locus_heights(s, x))


def test_locus_sweep_takes_the_exact_discriminant_near_a_fold():
    """Near x = 196.49520 the two branches meet (B**2 = 4AC) inside the
    band, so the float discriminant loses digits there: the lanes that trip
    the near-cancellation test take the exact one, as the scalar code does."""
    s = Scenario(579.4076708568939, 313.98483772642754, 410.2961531219587,
                 23.756755795996376, 0.4047958077252475, 1.2542230718718348,
                 8.11972359919943, 293.04154657098445, _CHANNEL)
    xs = np.linspace(196.4951, 196.4953, 201)
    a, b, c = locus_coefficients(s, xs)
    disc = b * b - 4.0 * a * c
    tripped = _near_cancellation(a, b, c, disc)
    with np.errstate(invalid="ignore"):
        float_minus = np.sqrt((-b - np.sqrt(disc)) / (2.0 * a))
    plus, minus = locus_sweep(s, xs)
    # the float discriminant would move some altitudes the band keeps
    assert (tripped & ~np.isnan(minus) & (float_minus != minus)).any()
    for x, hp, hm in zip(xs.tolist(), plus.tolist(), minus.tolist()):
        assert {p.branch: p.h for p in locus_heights(s, x)} == {
            b: h for b, h in (("plus", hp), ("minus", hm)) if not math.isnan(h)}


def test_locus_sweep_rejects_x_outside_the_span(channel):
    s = make_scenario(channel)
    for xs in ([0.0, -1e-9], [s.distance_tx_rx * (1.0 + 1e-15)], [math.nan]):
        with pytest.raises(DomainError, match="x outside"):
            locus_sweep(s, xs)


@pytest.mark.parametrize("scenario, xs, raises", [
    # locus points reach the band test, where h_max ** 2 overflows
    (dict(h_max=1e155), np.linspace(0.0, 1000.0, 64), True),
    # the locus stays below the band: h_max is never squared
    (dict(h_min=1e4, h_max=1e155), np.linspace(0.0, 1000.0, 64), False),
    # B**2 < 4AC on every lane: neither band edge is squared
    (dict(p_tx=1.0, p_uav=0.01, h_min=1e155, h_max=1e155),
     np.linspace(0.0, 360.0, 37), False),
    # only the squares that involve x overflow: D**2 at x = 0, x**2 at x = D
    (dict(d=1e155, msi_x=1e155, msi_y=0.0), np.linspace(0.0, 1e155, 64), True),
])
def test_locus_sweep_overflows_where_the_scalar_code_does(channel, scenario, xs,
                                                          raises):
    s = make_scenario(channel, **scenario)
    if raises:
        with pytest.raises(OverflowError):
            [locus_heights(s, x) for x in xs.tolist()]
        with pytest.raises(OverflowError):
            locus_sweep(s, xs)
    else:
        assert not any(locus_heights(s, x) for x in xs.tolist())
        assert np.isnan(locus_sweep(s, xs)).all()


def _scalar_locus_argmax(s, locus_heights=locus_heights):
    """The scalar sampling loop of _locus_argmax as it was before the array
    sweep, verbatim apart from taking locus_heights as an argument."""
    D = s.distance_tx_rx
    xs = np.linspace(0.0, D, LOCUS_SAMPLES)
    best = None
    for x in xs:
        for p in locus_heights(s, float(x)):
            v = sir_tx_link(s, p.x, p.h)  # on the curve both SIRs coincide
            if best is None or v > best[0]:
                best = (v, p)
    if best is None:
        return None
    _, seed = best
    step = D / (LOCUS_SAMPLES - 1)
    lo = max(0.0, seed.x - step)
    hi = min(D, seed.x + step)

    def objective(x: float) -> float:
        for p in locus_heights(s, x):
            if p.branch == seed.branch:
                return sir_tx_link(s, p.x, p.h)
        return -math.inf

    x_ref, v_ref = _golden_max(objective, lo, hi)
    if v_ref > best[0] and math.isfinite(v_ref):
        for p in locus_heights(s, x_ref):
            if p.branch == seed.branch:
                return p
    return seed


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_locus_argmax_equals_the_scalar_loop(seed):
    s = edge_scenario(random.Random(seed), _CHANNEL)
    assert _outcome(_locus_argmax, s) == _outcome(_scalar_locus_argmax, s)


def test_locus_argmax_raises_where_the_scalar_loop_divides_by_zero():
    # A 16 cm span with a subnormal interferer power: p_msi * (x**2 + h**2)
    # underflows to zero at locus points near the Tx, though not at the
    # point the golden-section refinement settles on.
    s = Scenario(0.155767272433976, 0.13160014967889908, 0.044954035344530886,
                 1.153639606816173, 0.1155807942460021, 6.1e-322,
                 0.0010901731210811885, 7.861318924085124, _CHANNEL)
    with pytest.raises(ZeroDivisionError):
        _scalar_locus_argmax(s)
    with pytest.raises(ZeroDivisionError):
        _locus_argmax(s)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from((1.0, 1e306)),
       st.sampled_from((1.0, 1e306)), st.floats(0.0, 0.9))
def test_locus_argmax_keeps_the_scalar_loops_nan_rule(monkeypatch, seed, p_tx,
                                                      p_msi, miss):
    """Over a stand-in locus whose Tx-side SIRs hold inf and NaN (both
    powers 1e306 overflow), the sweep picks the sample the scalar loop's
    strict `>` picks: a NaN wins only as the first sample."""
    s = Scenario(100.0, 50.0, 3.0, p_tx, 1.0, p_msi, 1.0, 40.0, _CHANNEL)

    def heights(s, x):
        # a fixed pseudo-random function of x, so that both loops and the
        # golden-section refinement see one locus
        u = random.Random(f"{seed} {x!r}")
        return [LocusPoint(x, u.uniform(1.0, 40.0), b)
                for b in ("plus", "minus") if u.random() >= miss]

    def sweep(s, xs):
        out = np.full((2, len(xs)), np.nan)
        for k, x in enumerate(np.asarray(xs).tolist()):
            for p in heights(s, x):
                out[("plus", "minus").index(p.branch), k] = p.h
        return out[0], out[1]

    monkeypatch.setattr(dualhop, "locus_heights", heights)
    monkeypatch.setattr(dualhop, "locus_sweep", sweep)
    expected = _outcome(_scalar_locus_argmax, s, heights)
    assert _outcome(_locus_argmax, s) == expected
