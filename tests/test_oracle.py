import dataclasses
import math
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from uavrelay.channel import (ChannelParams, Scenario, require_altitude,
                              sir_rx_link, sir_tx_link)
from uavrelay.errors import DomainError, InfeasibleError, NumericError
from uavrelay.multihop import design_min_uavs, feasibility_bound
from uavrelay import oracle as oracle_module
from uavrelay.oracle import (_BLOCK_CELLS, BaselineStats, GridSpec,
                             _dual_sir_grids, _first_true, _hop_runs,
                             exhaustive_min_uavs,
                             grid_search_dual, lipschitz_slack,
                             random_placement_baseline)
from uavrelay.stochastic import BetaField, DeterministicField, upsilon

from conftest import C_LOS, C_NLOS, edge_scenario, make_scenario, random_scenario


def test_gridspec_validation():
    with pytest.raises(DomainError):
        GridSpec(1, 10)
    # Sample counts are integers, numpy's too; a float count would reach
    # np.linspace and raise TypeError there.
    for nx, nh in ((500.0, 500), (500, 2.5), (math.nan, 5), ("500", 500),
                   (None, 500)):
        with pytest.raises(DomainError, match="must be integers"):
            GridSpec(nx, nh)
    assert GridSpec(np.int64(21), np.int32(5)) == GridSpec(21, 5)


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


#: The two grid oracles and their full-grid references, by name.
_GRID_ORACLES = {"grid": (grid_search_dual, _full_grid_search_dual),
                 "slack": (lipschitz_slack, _full_lipschitz_slack)}


def _one_field_changed(rng, s):
    """s with one field redrawn, by dataclasses.replace: a new scenario."""
    d = s.distance_tx_rx
    field, value = rng.choice((
        ("msi_x", rng.uniform(0.0, d)),
        ("msi_y", rng.uniform(0.0, d)),
        ("p_tx", 10.0 ** rng.uniform(-3.0, 3.0)),
        ("h_max", s.h_min + (s.h_max - s.h_min) * rng.random())))
    return dataclasses.replace(s, **{field: value})


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), _grid_shapes(),
       st.one_of(st.none(), _grid_shapes()),
       st.sampled_from((("grid", "slack"), ("slack", "grid"), ("grid",),
                        ("slack",))),
       st.lists(st.tuples(st.sampled_from(("grid", "slack")),
                          st.integers(0, 1), st.integers(0, 1)),
                max_size=4))
def test_blocked_oracle_equals_the_full_grid_oracle(seed, grid, grid2, order,
                                                    between):
    """Bit for bit, ties, inf and NaN included: grids of every edge
    regime (see conftest.edge_scenario), a tenth with h_min = h_max,
    where whole columns tie.  The two oracles are asked in a drawn order
    about one scenario and grid, then about a second scenario (one field
    changed) and a second grid (None: an equal GridSpec) in a drawn
    interleaving, then in the same order again, so that no call answers
    from another call's pass."""
    rng = random.Random(seed)
    s = edge_scenario(rng, ChannelParams.from_carrier(2.0e9, C_LOS, C_NLOS))
    scenarios = (s, _one_field_changed(rng, s))
    grids = (grid, GridSpec(grid.nx, grid.nh) if grid2 is None else grid2)
    calls = ([(name, 0, 0) for name in order] + between
             + [(name, 0, 0) for name in order])
    want = {}
    with np.errstate(all="ignore"):
        for name, i, j in calls:
            oracle, full = _GRID_ORACLES[name]
            if (name, i, j) not in want:
                want[name, i, j] = repr(full(scenarios[i], grids[j]))
            assert repr(oracle(scenarios[i], grids[j])) == want[name, i, j]


def test_oracle_pair_does_not_reuse_another_scenarios_pass(channel):
    """A pass of one scenario never answers for another on the same grid."""
    s1 = make_scenario(channel)
    s2 = dataclasses.replace(s1, p_tx=4.0 * s1.p_tx)
    grid = GridSpec(60, 40)
    assert _full_lipschitz_slack(s1, grid) != _full_lipschitz_slack(s2, grid)
    grid_search_dual(s1, grid)
    assert repr(lipschitz_slack(s2, grid)) == repr(_full_lipschitz_slack(s2, grid))
    lipschitz_slack(s1, grid)
    assert repr(grid_search_dual(s2, grid)) == repr(_full_grid_search_dual(s2, grid))


def test_oracle_pair_sweeps_the_grid_once(channel, monkeypatch):
    """The second call of a pair on the same scenario and grid reuses the
    first one's pass, in either order; another grid sweeps again."""
    sweeps = []
    blocks = oracle_module._dual_sir_blocks
    monkeypatch.setattr(oracle_module, "_dual_sir_blocks",
                        lambda s, grid: sweeps.append(grid) or blocks(s, grid))
    s, grid = make_scenario(channel), GridSpec(60, 40)
    grid_search_dual(s, grid)
    lipschitz_slack(s, grid)
    assert len(sweeps) == 1
    other = GridSpec(60, 40)
    lipschitz_slack(s, other)
    grid_search_dual(s, other)
    assert sweeps == [grid, other]


def test_oracle_pass_shared_by_threads_answers_each_its_own(channel):
    """Threads asking the pair about their own scenarios at once: the last
    pass they share may miss, and never answers for another thread."""
    grid = GridSpec(30, 20)
    scenarios = [make_scenario(channel, p_tx=p) for p in (1.0, 5.0, 20.0, 80.0)]
    want = [(repr(_full_grid_search_dual(s, grid)),
             repr(_full_lipschitz_slack(s, grid))) for s in scenarios]
    assert len(set(want)) == len(scenarios)
    start = threading.Barrier(len(scenarios))
    wrong = []

    def ask(k):
        start.wait(timeout=60.0)  # start together, so the calls interleave
        for _ in range(5000):
            got = (repr(grid_search_dual(scenarios[k], grid)),
                   repr(lipschitz_slack(scenarios[k], grid)))
            if got != want[k]:
                wrong.append(k)

    threads = [threading.Thread(target=ask, args=(k,))
               for k in range(len(scenarios))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


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
    # A target <= 0 is met by any chain; the hop runs need gamma > 0.
    for gamma in (0.0, -0.0, -1.0, -float("inf"), float("nan")):
        with pytest.raises(DomainError, match="gamma must be > 0"):
            exhaustive_min_uavs("deterministic", s, 15.0, gamma)


def test_exhaustive_altitude_whose_square_overflows(channel):
    """h ** 2 of h = 1e160 overflows a float: a NumericError, either kind."""
    s = make_scenario(channel, h_max=1e200)
    model = BetaField(3.0, 1.0, 1.0, 100.0)
    for kind in ("deterministic", "stochastic"):
        with pytest.raises(NumericError, match="square overflows"):
            exhaustive_min_uavs(kind, s, 1e160, 5.0, model=model)


@pytest.mark.parametrize("d, msi_x, msi_y", [(1000.0, 500.0, 1e160),
                                             (1e160, 0.0, 400.0)])
def test_exhaustive_interferer_offset_whose_square_overflows(channel, d, msi_x, msi_y):
    """Y ** 2 or (X - D) ** 2 overflows a float: the deterministic oracle
    raises NumericError; the stochastic one squares neither."""
    s = make_scenario(channel, d=d, msi_x=msi_x, msi_y=msi_y)
    with pytest.raises(NumericError, match="square out of the float range"):
        exhaustive_min_uavs("deterministic", s, 20.0, 5.0)
    model = BetaField(3.0, 1.0, 1.0, 100.0)
    with np.errstate(over="ignore"):  # squares of a 1e160 m span's grid
        exhaustive_min_uavs("stochastic", s, 20.0, 1e-30, model=model)


def test_exhaustive_stochastic_runs(channel):
    s = make_scenario(channel, d=200.0, msi_x=100.0, msi_y=50.0)
    model = BetaField(3.0, 1.0, 1.0, 100.0)
    h = 20.0
    cap = 1.5 * s.p_uav / (channel.eta_nlos * h ** 2)
    n = exhaustive_min_uavs("stochastic", s, h, cap / 20.0, n_max=8,
                            model=model)
    assert n is None or 1 <= n <= 8


def _dense_exhaustive_min_uavs(planner_kind, s, h, gamma, n_max=8,
                               per_hop_grid=64, model=None):
    """exhaustive_min_uavs as it was before the hop intervals, verbatim but
    for its Upsilon reads, which call `upsilon` where a memo of it stood."""
    if planner_kind not in ("deterministic", "stochastic"):
        raise DomainError("planner_kind must be deterministic or stochastic")
    if not 1 <= n_max <= 8:
        raise DomainError("n_max must be in [1, 8] (combinatorial guard)")
    if per_hop_grid < 1:
        raise DomainError("per_hop_grid must be >= 1")
    if planner_kind == "stochastic" and model is None:
        raise DomainError("stochastic oracle needs an interference model")
    require_altitude(s, h)
    D = s.distance_tx_rx
    ch = s.channel
    n_pos = per_hop_grid * 8 + 1
    pos = np.linspace(0.0, D, n_pos)
    X, Y = s.msi_x, s.msi_y

    det = planner_kind == "deterministic"
    if det:
        first_ok = (s.p_tx * ((X - pos) ** 2 + Y ** 2 + h ** 2)
                    / (s.p_msi * (pos ** 2 + h ** 2))) >= gamma
        last_ok = (s.p_uav * ch.mu_nlos * ((X - D) ** 2 + Y ** 2)
                   / (ch.eta_nlos * s.p_msi * ((D - pos) ** 2 + h ** 2))) >= gamma
    else:
        ups_pos = np.array([upsilon(model, float(p)) for p in pos])
        first_ok = (ups_pos * s.p_tx / (ch.eta_nlos * (pos ** 2 + h ** 2))) >= gamma
        last_ok = (ups_pos[-1] * s.p_uav
                   / (ch.eta_nlos * ((D - pos) ** 2 + h ** 2))) >= gamma
    if bool(np.any(first_ok & last_ok)):
        return 1  # one UAV suffices: no need for the hop matrices

    d_mat = pos[None, :] - pos[:, None]  # hop from i to j
    with np.errstate(divide="ignore"):
        if det:
            mid_sir = (s.p_uav * ch.eta_nlos
                       * ((X - pos[None, :]) ** 2 + Y ** 2 + h ** 2)
                       / (ch.mu_los * s.p_msi * d_mat ** 2))
        else:
            mid_sir = (ups_pos[None, :] * s.p_uav
                       / (ch.mu_los * d_mat ** 2))
    mid_ok = (d_mat > 0.0) & (d_mat >= s.d_min) & (mid_sir >= gamma)

    reach = first_ok
    for n in range(2, n_max + 1):
        reach = (reach[:, None] & mid_ok).any(axis=0)
        if not reach.any():
            return None
        if bool(np.any(reach & last_ok)):
            return n
    return None


def _oracle_scenario(rng, channel):
    """A scenario of the dense oracle's numeric edges: conftest and edge
    regimes, a subnormal span whose grid repeats positions (and may put
    some above D), a span whose
    squared hops overflow or underflow, and an interferer on a grid point
    under the UAVs (Y = 0, h**2 = 0) with an overflowing UAV power, whose
    hop SIR numerators are inf and, at that point, NaN; and, one time in
    two, criterion 04's small spans with d_min > 0, where chains of
    several UAVs are the answer."""
    kind = rng.randrange(10)
    if kind >= 5:
        d_min = rng.uniform(1.0, 5.0)
        d = rng.uniform(10.0, 30.0) * d_min
        return Scenario(d, rng.uniform(0.0, d), rng.uniform(0.2 * d, 1.5 * d),
                        10.0 ** rng.uniform(-1, 2), 10.0 ** rng.uniform(-1, 2),
                        10.0 ** rng.uniform(-1, 2), 1.0, max(2.0, 0.5 * d),
                        channel, d_min)
    if kind == 0:
        return random_scenario(rng, channel)
    if kind == 1:
        return edge_scenario(rng, channel)
    if kind == 2:
        d = rng.choice((5e-324, 1e-322, 3e-320, 2e-310))
        return Scenario(d, rng.choice((0.0, d)), rng.uniform(0.0, 1.0),
                        10.0 ** rng.uniform(-3, 3), 10.0 ** rng.uniform(-3, 3),
                        10.0 ** rng.uniform(-3, 3), 1e-3, 1.0, channel)
    if kind == 3:
        d = 10.0 ** rng.choice((rng.uniform(150.0, 160.0),
                                rng.uniform(-175.0, -155.0)))
        h_min, h_max = (1.0, 100.0) if d > 1.0 else (d * 1e-3, d)
        return Scenario(d, rng.uniform(0.0, d), rng.uniform(0.0, d),
                        10.0 ** rng.uniform(-3, 3), 10.0 ** rng.uniform(-3, 3),
                        10.0 ** rng.uniform(-3, 3), h_min, h_max, channel)
    d = rng.uniform(10.0, 1000.0)
    return Scenario(d, d * rng.choice((0.0, 0.25, 0.5, 1.0)), 0.0,
                    10.0 ** rng.uniform(-3, 3), rng.choice((1e300, 1e307)),
                    10.0 ** rng.uniform(-3, 3), 1e-170, d, channel)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
@example(86)
def test_interval_search_equals_the_dense_search(seed):
    """Bit for bit by repr, errors included: both kinds, d_min = 0 and > 0,
    targets tied with a hop's SIR, a design's targets and targets far from
    both, on the numeric edges of `_oracle_scenario`.  On seed 86 the
    answer needs the last start position of a hop's run."""
    rng = random.Random(seed)
    channel = ChannelParams.from_carrier(2.0e9, C_LOS, C_NLOS)
    s = _oracle_scenario(rng, channel)
    if rng.random() < 0.5:
        s = dataclasses.replace(s, d_min=s.distance_tx_rx
                                * rng.choice((1e-3, 0.02, 0.1, 0.3)))
    # low altitudes most often: a link from high up meets few targets
    h = rng.choice((s.h_min, s.h_max,
                    s.h_min + (s.h_max - s.h_min) * rng.random() ** 3))
    kind = rng.choice(("deterministic", "stochastic"))
    model = rng.choice((
        BetaField(rng.uniform(1.5, 8.0), rng.uniform(0.5, 8.0),
                  10.0 ** rng.uniform(-2.0, 1.0), 100.0),
        BetaField(lambda x, a=rng.uniform(1.5, 4.0), d=s.distance_tx_rx:
                  a + x / d, 2.0, 1.0, 100.0),
        DeterministicField(10.0 ** rng.choice((rng.uniform(-3.0, 3.0),
                                               -300.0)), 100.0)))
    per_hop_grid = rng.choice((1, 2, 3, 7, rng.randint(1, 64), 64))
    n_max = rng.choice((8, 8, rng.randint(1, 8)))
    chains = rng.random() < 1 / 3  # a setting where most answers are 2-8
    if chains:
        kind, h, n_max = "stochastic", s.h_min, 8
    pos = np.linspace(0.0, s.distance_tx_rx, per_hop_grid * 8 + 1)
    # a hop of about 1/k of the span, so that chains of k UAVs matter
    i = rng.randrange(pos.size - 1)
    j = min(pos.size - 1, i + max(1, pos.size // rng.randint(2, 9)))
    with np.errstate(all="ignore"):
        try:
            ups_pos = (None if kind == "deterministic"
                       else np.array([upsilon(model, float(p)) for p in pos]))
            tie = float(_dense_hop_sirs(s, h, pos, ups_pos)[1][i, j])
        except Exception:  # a hop SIR the dense oracle cannot form either
            tie = 1.0
    with np.errstate(all="ignore"):
        try:  # a design's target: a share of the single-link bound
            if kind == "deterministic":
                cap = feasibility_bound(s, h)
            else:
                cap = (upsilon(model, s.distance_tx_rx / 2) * s.p_uav
                       / (channel.eta_nlos * h ** 2))
        except Exception:
            cap = 1.0
    gamma = rng.choice((tie, tie, tie * (1.0 + 2.0 ** -52), tie * 0.5,
                        cap * rng.uniform(0.05, 0.8), cap * rng.uniform(0.05, 0.8),
                        10.0 ** rng.uniform(-6.0, 6.0), 1e-300, 1e300))
    if chains:
        gamma = tie
    if not (gamma > 0.0 and np.isfinite(gamma)):
        gamma = 1.0

    def answer(oracle):
        try:
            return repr(oracle(kind, s, h, gamma, n_max, per_hop_grid,
                               model=model))
        except OverflowError:  # the dense oracle's float squares
            return "raised NumericError"
        except NumericError as exc:
            return "raised NumericError" if "float range" in str(exc) else repr(exc)
        except Exception as exc:
            return f"raised {exc!r}"

    with np.errstate(all="ignore"):
        assert answer(exhaustive_min_uavs) == answer(_dense_exhaustive_min_uavs)


def _dense_hop_sirs(s, h, pos, ups_pos):
    """The dense oracle's hop lengths and hop SIRs, matrix i -> j."""
    ch, X, Y = s.channel, s.msi_x, s.msi_y
    d_mat = pos[None, :] - pos[:, None]  # hop from i to j
    with np.errstate(all="ignore"):
        if ups_pos is None:
            mid_sir = (s.p_uav * ch.eta_nlos
                       * ((X - pos[None, :]) ** 2 + Y ** 2 + h ** 2)
                       / (ch.mu_los * s.p_msi * d_mat ** 2))
        else:
            mid_sir = (ups_pos[None, :] * s.p_uav
                       / (ch.mu_los * d_mat ** 2))
    return d_mat, mid_sir


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
@example(15)
@example(170)
def test_hop_runs_hold_exactly_the_dense_matrix_hops(seed):
    """Every cell of the dense oracle's admissible-hop matrix, ties at
    gamma included, is inside the run that `_hop_runs` gives its column.
    Seeds 15 and 170 tie gamma with a hop whose d * d and
    np.float_power(d, 2.0) differ (deterministic and stochastic)."""
    rng = random.Random(seed)
    channel = ChannelParams.from_carrier(2.0e9, C_LOS, C_NLOS)
    s = _oracle_scenario(rng, channel)
    if rng.random() < 0.5:
        s = dataclasses.replace(s, d_min=s.distance_tx_rx
                                * rng.choice((1e-3, 0.02, 0.1, 0.3)))
    h = rng.choice((s.h_min, s.h_max, rng.uniform(s.h_min, s.h_max)))
    pos = np.sort(np.linspace(0.0, s.distance_tx_rx,
                              rng.choice((1, 7, 64, 64)) * 8 + 1))
    ups_pos = (None if rng.random() < 0.5
               else 10.0 ** np.array([rng.uniform(-3.0, 3.0) for _ in pos]))
    try:
        d_mat, mid_sir = _dense_hop_sirs(s, h, pos, ups_pos)
    except OverflowError:  # Y ** 2 of a float: both raise it
        with pytest.raises(OverflowError), np.errstate(all="ignore"):
            _hop_runs(s, h ** 2, 1.0, pos, ups_pos)
        return
    candidates = (mid_sir > 0.0) & np.isfinite(mid_sir)
    with np.errstate(all="ignore"):  # hops where float_power(d, 2.0) != d * d
        rounded_apart = candidates & (np.float_power(d_mat, 2.0) != d_mat ** 2)
    if rng.random() < 0.5 and rounded_apart.any():
        candidates = rounded_apart
    values = mid_sir[candidates]
    tie = float(rng.choice(values)) if values.size else 1.0
    gamma = rng.choice((tie, tie, tie, tie * (1.0 + 2.0 ** -52), 1e-300, 1e300))
    with np.errstate(divide="ignore"):
        mid_ok = (d_mat > 0.0) & (d_mat >= s.d_min) & (mid_sir >= gamma)
    with np.errstate(all="ignore"):
        start, stop = _hop_runs(s, h ** 2, gamma, pos, ups_pos)
    i = np.arange(pos.size)[:, None]
    assert np.array_equal(mid_ok, (i >= start) & (i < stop))


@given(st.lists(st.integers(0, 40), min_size=1, max_size=30), st.data())
def test_first_true_finds_each_lanes_first_true_index(firsts, data):
    """Lane j is false before firsts[j] and true from it, searched over a
    range [lo, hi) that may hold it, miss it or be empty."""
    firsts = np.array(firsts)
    lo = np.array([data.draw(st.integers(0, 45)) for _ in firsts])
    hi = np.array([data.draw(st.integers(0, 45)) for _ in firsts])
    calls = []

    def test(i, j):
        calls.append(j.size)
        return i >= firsts[j]

    found = _first_true(test, lo, hi)
    want = np.where(lo >= hi, lo, np.clip(firsts, lo, np.maximum(lo, hi)))
    assert np.array_equal(found, want)
    assert len(calls) <= 6  # ranges of at most 45 take 6 halvings


def test_exhaustive_on_a_subnormal_span_reads_upsilon_at_the_receiver(channel):
    """linspace(0, 3e-320, 513) puts positions 507-511 above D; sorted,
    the last one is not D.  With alpha rising along x and the target tied
    with the Rx-side link at D, the answer is the dense oracle's 1."""
    d = 3e-320
    assert np.linspace(0.0, d, 513).max() > d
    s = Scenario(d, 0.0, 0.5, 1.0, 1.0, 1.0, 1e-3, 1.0, channel)
    model = BetaField(lambda x: 2.0 + 10.0 * x / d, 1.0, 1.0, 100.0)
    h = 1e-3
    # the dense oracle's Rx-side link SIR at position D: a tie
    ups_d, at_d = upsilon(model, d), np.array([d])
    gamma = float((ups_d * s.p_uav
                   / (channel.eta_nlos * ((d - at_d) ** 2 + h ** 2)))[0])
    for oracle in (exhaustive_min_uavs, _dense_exhaustive_min_uavs):
        assert oracle("stochastic", s, h, gamma, 8, 64, model=model) == 1


def test_exhaustive_stochastic_memory_grows_with_the_positions(channel):
    """2,049 positions: the dense hop matrices took 96 MiB; the hop
    intervals keep the traced peak of a call that searches chains of
    several UAVs under 2 MiB."""
    s = make_scenario(channel, d=1000.0, msi_x=500.0, msi_y=50.0, p_tx=1.0,
                      d_min=2.0)
    model = BetaField(3.0, 1.0, 1.0, 100.0)
    gamma = 1.5 * s.p_uav / (channel.eta_nlos * 20.0 ** 2) / 50.0
    tracemalloc.start()
    try:
        n = exhaustive_min_uavs("stochastic", s, 20.0, gamma, n_max=8,
                                per_hop_grid=256, model=model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert n == 7
    assert peak < 2 * 2 ** 20


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
