import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uavrelay.channel import ChannelParams, sir_rx_link, sir_tx_link
from uavrelay.errors import DomainError, InfeasibleError
from uavrelay.multihop import design_min_uavs, feasibility_bound
from uavrelay.oracle import (_BLOCK_CELLS, BaselineStats, GridSpec,
                             _dual_sir_grids, exhaustive_min_uavs,
                             grid_search_dual, lipschitz_slack,
                             random_placement_baseline)
from uavrelay.stochastic import BetaField

from conftest import C_LOS, C_NLOS, edge_scenario, make_scenario, random_scenario


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


def _full_grid_search_dual(s, grid):
    """grid_search_dual as it was before the row blocks, verbatim."""
    xs = np.linspace(0.0, s.distance_tx_rx, grid.nx)
    hs = np.linspace(s.h_min, s.h_max, grid.nh)
    sir = _dual_sir_grids(s, xs, hs)
    i, j = np.unravel_index(int(np.argmax(sir)), sir.shape)
    return float(xs[i]), float(hs[j]), float(sir[i, j])


def _full_lipschitz_slack(s, grid):
    """lipschitz_slack as it was before the row blocks, verbatim."""
    xs = np.linspace(0.0, s.distance_tx_rx, grid.nx)
    hs = np.linspace(s.h_min, s.h_max, grid.nh)
    sir = _dual_sir_grids(s, xs, hs)
    dx = xs[1] - xs[0]
    dh = hs[1] - hs[0] if grid.nh > 1 and hs[1] > hs[0] else 1.0
    gx = np.abs(np.diff(sir, axis=0)).max() / dx if grid.nx > 1 else 0.0
    gh = np.abs(np.diff(sir, axis=1)).max() / dh
    return float(np.hypot(dx, dh) * max(gx, gh))


@st.composite
def _grid_shapes(draw):
    """Shapes from 2x2 up: one block or many, row counts that the block
    height does not divide, and more columns than a block holds cells (one
    row per block), kept to 200,000 cells for the full-grid reference."""
    nh = draw(st.one_of(st.integers(2, 600),
                        st.integers(_BLOCK_CELLS // 2, _BLOCK_CELLS + 40)))
    nx = draw(st.integers(2, max(2, min(700, 200_000 // nh))))
    return GridSpec(nx, nh)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), _grid_shapes())
def test_blocked_oracle_equals_the_full_grid_oracle(seed, grid):
    """Bit for bit, ties, inf and NaN included: grids of every edge
    regime (see conftest.edge_scenario), a tenth with h_min = h_max,
    where whole columns tie."""
    s = edge_scenario(random.Random(seed),
                      ChannelParams.from_carrier(2.0e9, C_LOS, C_NLOS))
    with np.errstate(all="ignore"):
        assert repr(grid_search_dual(s, grid)) == repr(_full_grid_search_dual(s, grid))
        assert repr(lipschitz_slack(s, grid)) == repr(_full_lipschitz_slack(s, grid))


def test_blocked_oracle_finds_a_nan_in_a_later_block(channel):
    """np.argmax of the whole grid returns its first NaN, wherever it lies;
    so does the blocked search, though the first block is NaN-free."""
    s = make_scenario(channel, d=100.0, msi_x=50.0, msi_y=0.0, p_tx=1e305,
                      p_uav=1e295, p_msi=1e305, h_min=1.0, h_max=30.0)
    grid = GridSpec(200, 500)
    with np.errstate(all="ignore"):
        sir = _dual_sir_grids(s, np.linspace(0.0, 100.0, 200),
                              np.linspace(1.0, 30.0, 500))
        assert np.isnan(sir).any()
        assert not np.isnan(sir[:_BLOCK_CELLS // grid.nh + 1]).any()
        assert repr(grid_search_dual(s, grid)) == repr(_full_grid_search_dual(s, grid))
        assert repr(lipschitz_slack(s, grid)) == repr(_full_lipschitz_slack(s, grid))


@pytest.mark.parametrize("oracle", [grid_search_dual, lipschitz_slack])
def test_oracle_memory_is_bounded_per_block(channel, oracle):
    """A 1000x1000 grid would take 8 MB per float temporary; the row
    blocks keep each call's traced peak under 4 MiB."""
    s = make_scenario(channel)
    tracemalloc.start()
    try:
        oracle(s, GridSpec(1000, 1000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


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
