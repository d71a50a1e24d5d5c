import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uavrelay.errors import DomainError
from uavrelay.multisource import (HypotheticalMsi, InterferenceSource,
                                  _golden_min, _power_floors,
                                  fit_hypothetical_msi, total_interference)

from conftest import make_scenario


def test_source_rejects_nonpositive_power():
    with pytest.raises(DomainError):
        InterferenceSource(0.0, 0.0, 0.0)


@pytest.mark.parametrize("x, y, power", [
    (0.0, 0.0, math.nan), (0.0, 0.0, math.inf), (math.nan, 0.0, 1.0),
    (math.inf, 0.0, 1.0), (0.0, math.nan, 1.0), (0.0, -math.inf, 1.0)])
def test_source_rejects_non_finite(x, y, power):
    with pytest.raises(DomainError):
        InterferenceSource(x, y, power)


def test_total_interference_additive():
    a = InterferenceSource(100.0, 50.0, 2.0)
    b = InterferenceSource(400.0, 10.0, 3.0)
    eta = 7.0
    lone = (total_interference([a], 250.0, 0.0, 30.0, eta)
            + total_interference([b], 250.0, 0.0, 30.0, eta))
    both = total_interference([a, b], 250.0, 0.0, 30.0, eta)
    assert both == pytest.approx(lone, rel=1e-12)


def test_total_interference_inverse_square():
    src = InterferenceSource(0.0, 0.0, 8.0)
    near = total_interference([src], 10.0, 0.0, 10.0, 1.0)
    far = total_interference([src], 20.0, 0.0, 20.0, 1.0)
    assert near == pytest.approx(4.0 * far, rel=1e-12)


def test_total_interference_broadcasts_over_x_and_h():
    sources = [InterferenceSource(100.0, 50.0, 2.0),
               InterferenceSource(400.0, 10.0, 3.0)]
    xs, hs = np.array([0.0, 250.0, 900.0]), np.array([5.0, 30.0])
    grid = total_interference(sources, xs[:, None], 0.0, hs[None, :], 7.0)
    assert grid.shape == (3, 2)
    for i, x in enumerate(xs):
        for j, h in enumerate(hs):
            assert grid[i, j] == pytest.approx(
                total_interference(sources, float(x), 0.0, float(h), 7.0),
                rel=1e-14)
    with pytest.raises(DomainError):
        total_interference(sources, xs, 0.0, np.array([5.0, 0.0, 1.0]), 7.0)


@pytest.mark.parametrize("h, eta", [
    (math.nan, 1.0), (math.inf, 1.0), (-1.0, 1.0), (0.0, 1.0),
    (np.array([5.0, math.nan]), 1.0), (np.array([5.0, math.inf]), 1.0),
    (30.0, math.nan), (30.0, math.inf), (30.0, 0.0), (30.0, -7.0)])
def test_total_interference_rejects_bad_h_and_eta(h, eta):
    src = InterferenceSource(100.0, 50.0, 2.0)
    with pytest.raises(DomainError):
        total_interference([src], 250.0, 0.0, h, eta)


@pytest.mark.parametrize("x", [
    math.nan, math.inf, -math.inf, np.array([250.0, math.nan]),
    np.array([math.inf, 250.0]), np.array([[-math.inf], [250.0]])])
def test_total_interference_rejects_non_finite_x(x):
    src = InterferenceSource(100.0, 50.0, 2.0)
    with pytest.raises(DomainError):
        total_interference([src], x, 0.0, 30.0, 1.0)



@pytest.mark.parametrize("src, x, h", [
    ((1.0, 1e200, 1.0), 0.0, 1.0), ((1.0, -1e200, 1.0), np.array([0.0, 5.0]), 1.0),
    ((1e200, 0.0, 1.0), 0.0, 1.0), ((0.0, 0.0, 1.0), 0.0, 1e200)])
def test_total_interference_square_overflow_is_domain_error(src, x, h):
    with pytest.raises(DomainError, match="overflows"):
        total_interference([InterferenceSource(*src)], x, 0.0, h, 1.0)

def test_fit_single_source_identity(channel):
    s = make_scenario(channel, msi_y=100.0)
    src = InterferenceSource(317.3, 84.2, 12.5)
    fit = fit_hypothetical_msi([src], s)
    assert fit.x_h == pytest.approx(src.x, abs=1e-6)
    assert fit.y_h == pytest.approx(src.y, abs=1e-6)
    assert fit.p_h == pytest.approx(src.power, rel=1e-9)
    assert fit.residual < 1e-10


def test_fit_colocated_pair_sums_power(channel):
    s = make_scenario(channel, msi_y=100.0)
    pair = [InterferenceSource(300.0, 60.0, 5.0),
            InterferenceSource(300.0, 60.0, 7.5)]
    fit = fit_hypothetical_msi(pair, s)
    assert fit.p_h == pytest.approx(12.5, rel=1e-6)
    assert fit.x_h == pytest.approx(300.0, abs=1e-6)


def test_fit_residual_grows_with_separation(channel):
    s = make_scenario(channel, msi_y=100.0)
    residuals = []
    for sep in (5.0, 10.0, 20.0, 40.0):
        srcs = [InterferenceSource(300.0 - sep / 2.0, 60.0, 5.0),
                InterferenceSource(300.0 + sep / 2.0, 60.0, 5.0)]
        residuals.append(fit_hypothetical_msi(srcs, s).residual)
    assert all(b > a for a, b in zip(residuals, residuals[1:]))


@pytest.mark.parametrize("sources", [
    [(300.0, -100.0, 12.5)],
    [(200.0, -50.0, 2.0), (450.0, 120.0, 5.0), (800.0, -180.0, 1.0)],
    [(150.0, 0.0, 3.0), (500.0, -75.0, 1.5)]])
def test_fit_is_symmetric_in_source_y(channel, sources):
    # The field depends on each source's y only through y^2, so mirroring
    # every source across the Tx-Rx axis must give the same fit.
    s = make_scenario(channel, d=600.0, msi_y=100.0)
    fit = fit_hypothetical_msi(
        [InterferenceSource(*src) for src in sources], s, (32, 8))
    mirrored = fit_hypothetical_msi(
        [InterferenceSource(x, -y, p) for x, y, p in sources], s, (32, 8))
    assert fit == mirrored
    if len(sources) == 1:
        assert fit.residual < 1e-10


# Its own copy of multisource._golden_min, so the reference does not follow
# a later change to that helper.
def _golden_min_reference(f, lo, hi, iters=80):
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def _fit_reference(sources, s, grid):
    """The fit as first written: every objective call rebuilds the field.

    Valid for sources with y >= 0 (the seed span uses max y, not max |y|).
    """
    nx, nh = grid
    D = s.distance_tx_rx
    dx = D / nx
    dh = (s.h_max - s.h_min) / nh if s.h_max > s.h_min else 1.0
    xg = (np.arange(nx) + 0.5) * dx
    hg = s.h_min + (np.arange(nh) + 0.5) * dh
    xx = xg[:, None]
    hh = hg[None, :]
    target = total_interference(sources, xx, 0.0, hh, 1.0)
    cell = dx * dh
    p_total = sum(src.power for src in sources)

    def objective(x_h, y_h, p_h):
        cand = p_h / ((xx - x_h) ** 2 + y_h ** 2 + hh ** 2)
        return float(np.abs(cand - target).sum() * cell)

    def best_power(x_h, y_h):
        lo, hi = p_total * 1e-6, p_total * 4.0
        p = _golden_min_reference(lambda q: objective(x_h, y_h, q), lo, hi)
        return p, objective(x_h, y_h, p)

    y_span = 2.0 * max(src.y for src in sources)
    xs = np.linspace(0.0, D, 16)
    ys = np.linspace(0.0, max(y_span, 1e-9), 16)
    best = None
    for x0 in xs:
        for y0 in ys:
            p0, val = best_power(float(x0), float(y0))
            if best is None or val < best[3]:
                best = [float(x0), float(y0), p0, val]
    x_h, y_h, p_h, val = best

    span_x = D / 16
    span_y = max(y_span, 1e-9) / 16
    for _ in range(200):
        prev = val
        x_h = _golden_min_reference(lambda q: objective(q, y_h, p_h),
                                    max(0.0, x_h - span_x), min(D, x_h + span_x))
        y_h = _golden_min_reference(lambda q: objective(x_h, q, p_h),
                                    max(0.0, y_h - span_y), y_h + span_y)
        p_h, val = best_power(x_h, y_h)
        if prev - val <= 1e-6 * max(prev, 1e-300):
            break
    return HypotheticalMsi(x_h, y_h, p_h, val)


@pytest.mark.parametrize("sources, h_band, grid", [
    ([(317.3, 84.2, 12.5)], (5.0, 400.0), (12, 4)),
    ([(300.0, 60.0, 5.0), (300.0, 60.0, 7.5)], (5.0, 400.0), (10, 5)),
    ([(200.0, 50.0, 2.0), (450.0, 120.0, 5.0), (800.0, 80.0, 1.0)],
     (5.0, 400.0), (8, 4)),
    ([(100.0, 40.0, 1.0), (350.0, 150.0, 4.0), (600.0, 60.0, 2.0),
      (900.0, 200.0, 8.0)], (20.0, 300.0), (9, 3)),
    ([(250.0, 0.0, 3.0), (700.0, 90.0, 1.0)], (50.0, 50.0), (7, 3)),
    ([(400.0, 0.0, 2.0)], (10.0, 200.0), (5, 3)),
    # The pruned seed search must pick the ordered scan's winner: seeds 14
    # and 254 tie exactly here and 14 wins; on the 1x1 grid 86 seeds tie at
    # residual 0.  A third h_band entry is the Tx-Rx distance D.
    ([(0.0, 80.0, 2.0), (600.0, 80.0, 2.0)], (5.0, 400.0, 600.0), (4, 2)),
    ([(300.0, 100.0, 3.0)], (5.0, 400.0, 600.0), (1, 1)),
    # Above 128 cells numpy's sums recurse pairwise.
    ([(200.0, 50.0, 2.0), (450.0, 120.0, 5.0), (800.0, 80.0, 1.0)],
     (5.0, 400.0), (24, 8))])
def test_fit_matches_reference_bit_for_bit(channel, sources, h_band, grid):
    s = make_scenario(channel, msi_y=100.0,
                      **dict(zip(("h_min", "h_max", "d"), h_band)))
    srcs = [InterferenceSource(*src) for src in sources]
    assert fit_hypothetical_msi(srcs, s, grid) == _fit_reference(srcs, s, grid)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(-300.0, 900.0), st.floats(-200.0, 200.0),
                          st.floats(0.1, 20.0)), min_size=1, max_size=4),
       st.integers(1, 12), st.integers(1, 5), st.floats(1.0, 100.0),
       st.floats(0.0, 300.0), st.floats(0.0, 1000.0), st.floats(0.0, 400.0))
def test_golden_power_search_never_beats_its_floor(sources, nx, nh, h_lo,
                                                   h_span, x0, y0):
    # The seed pruning rests on this: for every candidate (x0, y0), the
    # power search's golden-section value is at least the floor it is
    # pruned by.  The field is built as in fit_hypothetical_msi.
    srcs = [InterferenceSource(*src) for src in sources]
    dx, dh = 600.0 / nx, (h_span / nh if h_span > 0.0 else 1.0)
    xx = ((np.arange(nx) + 0.5) * dx)[:, None]
    hh = (h_lo + (np.arange(nh) + 0.5) * dh)[None, :]
    target = total_interference(srcs, xx, 0.0, hh, 1.0)
    cell = dx * dh
    p_total = sum(src.power for src in srcs)
    lo, hi = p_total * 1e-6, p_total * 4.0
    denom = (xx - x0) ** 2 + y0 ** 2 + hh ** 2

    def mismatch(p):
        return float(np.abs(p / denom - target).sum() * cell)

    golden = mismatch(_golden_min(mismatch, lo, hi))
    [floor] = _power_floors(denom[None], target, cell, lo, hi)
    assert golden >= floor


def test_fit_needs_sources(channel):
    s = make_scenario(channel)
    with pytest.raises(DomainError):
        fit_hypothetical_msi([], s)


def test_as_scenario_installs_fit(channel):
    s = make_scenario(channel)
    fit = HypotheticalMsi(123.0, 45.0, 6.7, 0.0)
    s2 = fit.as_scenario(s)
    assert s2.msi_x == 123.0 and s2.msi_y == 45.0 and s2.p_msi == 6.7
    assert s2.p_tx == s.p_tx and s2.channel is s.channel
