"""Brute-force verification oracles and random baselines.

Everything here is deliberately independent of the analytic planners: dense
grid argmax for the dual-hop optimum, a reachability search for the true
minimum chain size, and seeded random chains for baseline comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import Scenario, multihop_link_sirs, require_altitude
from .errors import DomainError, InfeasibleError, NumericError
from .stochastic import InterferenceModel, upsilon_field


@dataclass(frozen=True)
class GridSpec:
    nx: int
    nh: int

    def __post_init__(self):
        if self.nx < 2 or self.nh < 2:
            raise DomainError("grid needs at least 2 samples per axis")


@dataclass(frozen=True)
class BaselineStats:
    mean: float
    max: float
    min: float
    trials: int
    seed: int


#: Cells of one row block of the dual-hop oracle grids: each float
#: temporary of a block then takes 128 KiB, so the few alive at once stay in
#: a core's L2 cache whatever the size of the grid.
_BLOCK_CELLS = 1 << 14


def _dual_sir_grids(s: Scenario, xs: np.ndarray, hs: np.ndarray):
    ch = s.channel
    X, Y, D = s.msi_x, s.msi_y, s.distance_tx_rx
    xx = xs[:, None]
    hh = hs[None, :]
    sir1 = (s.p_tx * ((xx - X) ** 2 + Y ** 2 + hh ** 2)
            / (s.p_msi * (xx ** 2 + hh ** 2)))
    sir2 = (s.p_uav * ch.mu_nlos * (Y ** 2 + (D - X) ** 2)
            / (ch.eta_nlos * s.p_msi * ((D - xx) ** 2 + hh ** 2)))
    return np.minimum(sir1, sir2)


def _dual_sir_blocks(s: Scenario, grid: GridSpec):
    """The grid's x samples, its h samples and its system SIRs by row block.

    The SIRs come as an iterator of (first row, block): a block holds
    max(1, _BLOCK_CELLS // nh) rows and the first row of the next block,
    so every difference of adjacent rows lies inside one block and nothing
    of the size of the whole grid is built.
    """
    xs = np.linspace(0.0, s.distance_tx_rx, grid.nx)
    hs = np.linspace(s.h_min, s.h_max, grid.nh)
    step = max(1, _BLOCK_CELLS // grid.nh)
    blocks = ((r0, _dual_sir_grids(s, xs[r0:r0 + step + 1], hs))
              for r0 in range(0, grid.nx - 1, step))
    return xs, hs, blocks


#: The last grid pass, (scenario, grid, answers) or None: the oracle check
#: asks grid_search_dual and lipschitz_slack about one scenario and grid,
#: and the second call of that pair reuses the first one's pass.
_LAST_PASS = None


def _grid_pass(s: Scenario, grid: GridSpec) -> tuple[float, float, float, float]:
    """The grid's argmax (x, h, best system SIR) and its Lipschitz slack,
    from one sweep of its row blocks.

    A call on the scenario and grid of the last call returns that call's
    answers.  Both match by identity: Scenario and GridSpec are frozen, and
    identity neither hashes a float (a -0.0 or NaN field never matches
    another scenario) nor equates GridSpec(500.0, 500), whose linspace
    raises, with GridSpec(500, 500).  Under threads a race only misses.
    """
    global _LAST_PASS
    last = _LAST_PASS
    if last is not None and last[0] is s and last[1] is grid:
        return last[2]
    xs, hs, blocks = _dual_sir_blocks(s, grid)
    best = None
    # running maxima; np.maximum carries a NaN as .max() of the whole would
    gx = gh = -np.inf
    for r0, sir in blocks:
        k = int(np.argmax(sir))
        v = sir.flat[k]
        if best is None or v > best[0] or (v != v and best[0] == best[0]):
            best = (v, r0 + k // grid.nh, k % grid.nh)
        gx = np.maximum(gx, np.abs(np.diff(sir, axis=0)).max())
        gh = np.maximum(gh, np.abs(np.diff(sir, axis=1)).max())
    v, i, j = best
    dx = xs[1] - xs[0]
    dh = hs[1] - hs[0] if hs[1] > hs[0] else 1.0
    answers = (float(xs[i]), float(hs[j]), float(v),
               float(np.hypot(dx, dh) * max(gx / dx, gh / dh)))
    _LAST_PASS = (s, grid, answers)
    return answers


def grid_search_dual(s: Scenario, grid: GridSpec) -> tuple[float, float, float]:
    """Dense-grid argmax of the dual-hop system SIR.

    Ties break toward smaller x, then smaller h (the first maximum in
    row-major order, as np.argmax of the whole grid: a NaN is the maximum).
    The pass that finds it also yields `lipschitz_slack`, so a call of that
    on the same scenario and grid right after costs no second pass.
    """
    return _grid_pass(s, grid)[:3]


def lipschitz_slack(s: Scenario, grid: GridSpec) -> float:
    """One-cell error bound: grid diagonal times the max observed gradient.

    The pass that finds it also yields `grid_search_dual`, so a call of
    that on the same scenario and grid right after costs no second pass.
    """
    return _grid_pass(s, grid)[3]


def exhaustive_min_uavs(planner_kind: str, s: Scenario, h: float,
                        gamma: float, n_max: int = 8,
                        per_hop_grid: int = 64,
                        model: Optional[InterferenceModel] = None
                        ) -> Optional[int]:
    """True minimum chain size over a dense grid of UAV positions.

    Explores every placement whose UAV positions lie on a shared grid of
    per_hop_grid * 8 + 1 points; returns None when no chain of at most
    n_max UAVs meets gamma on that grid.

    The chains grow one UAV per step from the positions whose Tx-side link
    meets gamma.  The start positions of the admissible middle hops into
    each position form one run (`_hop_runs`): the hop shortens as its start
    moves up the sorted grid, so its distance tests hold on a prefix of the
    starts and its SIR test on a suffix of that prefix.  A step is then a
    prefix-sum test per position, and memory grows with the number of
    positions, not its square.  gamma must be > 0 (a NaN raises
    DomainError), and an altitude whose square overflows raises
    NumericError.
    """
    if planner_kind not in ("deterministic", "stochastic"):
        raise DomainError("planner_kind must be deterministic or stochastic")
    if not gamma > 0.0:
        raise DomainError(f"gamma must be > 0, got {gamma!r}")
    if not 1 <= n_max <= 8:
        raise DomainError("n_max must be in [1, 8] (combinatorial guard)")
    if per_hop_grid < 1:
        raise DomainError("per_hop_grid must be >= 1")
    if planner_kind == "stochastic" and model is None:
        raise DomainError("stochastic oracle needs an interference model")
    require_altitude(s, h)
    try:
        h2 = h ** 2
    except OverflowError:
        raise NumericError(
            f"the altitude's square overflows: h = {h!r}") from None
    D = s.distance_tx_rx
    ch = s.channel
    # On spans below about 5e-315 m linspace's rounded step can put interior
    # points above D.  Which chains exist depends on the set of positions
    # only, so sorting them changes no answer; `_hop_runs` needs them sorted.
    # The last grid point is then not always D: the Rx-side link reads
    # Upsilon at D itself.
    pos = np.sort(np.linspace(0.0, D, per_hop_grid * 8 + 1))
    X, Y = s.msi_x, s.msi_y

    det = planner_kind == "deterministic"
    if det:
        first_ok = (s.p_tx * ((X - pos) ** 2 + Y ** 2 + h2)
                    / (s.p_msi * (pos ** 2 + h2))) >= gamma
        last_ok = (s.p_uav * ch.mu_nlos * ((X - D) ** 2 + Y ** 2)
                   / (ch.eta_nlos * s.p_msi * ((D - pos) ** 2 + h2))) >= gamma
    else:
        ups = upsilon_field(model)
        ups_pos = np.array([ups(float(p)) for p in pos])
        first_ok = (ups_pos * s.p_tx / (ch.eta_nlos * (pos ** 2 + h2))) >= gamma
        last_ok = (ups(D) * s.p_uav
                   / (ch.eta_nlos * ((D - pos) ** 2 + h2))) >= gamma
    if bool(np.any(first_ok & last_ok)):
        return 1  # one UAV suffices: no need for the hop runs

    start, stop = _hop_runs(s, h2, gamma, pos, None if det else ups_pos)
    reach = first_ok
    for n in range(2, n_max + 1):
        before = np.concatenate(([0], np.cumsum(reach)))  # reached among i < k
        reach = before[stop] > before[start]
        if not reach.any():
            return None
        if bool(np.any(reach & last_ok)):
            return n
    return None


def _hop_runs(s: Scenario, h2: float, gamma: float, pos: np.ndarray,
              ups_pos: Optional[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """For each position j, the run [start_j, stop_j) of the positions i
    from which a middle hop to j is admissible; h2 is the altitude's
    square, pos is sorted, and ups_pos is None for the deterministic
    oracle, else the Upsilon at each position.

    A hop from pos[i] to pos[j] is admissible when its length
    d = pos[j] - pos[i] is > 0 and >= d_min and its SIR num_j / (k * d ** 2)
    is >= gamma > 0.  d does not rise as i grows (rounded subtraction is
    monotone), so both distance tests hold on a prefix of i, which ends at
    stop_j.  While d > 0 the SIR does not fall as d falls (rounded
    squares, products and quotients are monotone, and an inf or NaN fails
    against gamma > 0), so its test holds on a suffix of that prefix, from
    start_j.  Each probe of the bisection evaluates the hop's expression
    with the operands and operand order of the whole matrix of hops it
    replaces, so every test gives that matrix's boolean.
    """
    ch = s.channel
    X, Y = s.msi_x, s.msi_y

    def too_short(i, j):
        d = pos[j] - pos[i]
        return ~((d > 0.0) & (d >= s.d_min))

    if ups_pos is None:
        num = s.p_uav * ch.eta_nlos * ((X - pos) ** 2 + Y ** 2 + h2)

        def sir_ok(i, j):
            d = pos[j] - pos[i]
            return num[j] / (ch.mu_los * s.p_msi * d ** 2) >= gamma
    else:
        num = ups_pos * s.p_uav

        def sir_ok(i, j):
            d = pos[j] - pos[i]
            return num[j] / (ch.mu_los * d ** 2) >= gamma

    first = np.zeros(pos.size, dtype=np.intp)
    stop = _first_true(too_short, first, np.full(pos.size, pos.size))
    with np.errstate(divide="ignore"):
        start = _first_true(sir_ok, first, stop)
    return start, stop


def _first_true(test, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """For each lane j, the first i in [lo[j], hi[j]) with test(i, j) true,
    or hi[j] when there is none.

    test takes index arrays of the lanes still searched and must be false,
    then true, along each lane's range; one bisection step halves every
    range at once.
    """
    lo, hi = lo.copy(), hi.copy()
    lanes = np.flatnonzero(lo < hi)
    while lanes.size:
        mid = (lo[lanes] + hi[lanes]) // 2
        hit = test(mid, lanes)
        hi[lanes] = np.where(hit, mid, hi[lanes])
        lo[lanes] = np.where(hit, lo[lanes], mid + 1)
        lanes = lanes[lo[lanes] < hi[lanes]]
    return lo


def random_placement_baseline(s: Scenario, n_uavs: int, trials: int,
                              seed: int) -> BaselineStats:
    """System-SIR statistics of chains placed uniformly at random.

    Hop distances are a symmetric Dirichlet split of the span, the shared
    altitude is uniform in the band; one child PCG64 stream per trial keeps
    results reproducible and order-independent.  A trial draws up to 1000
    splits to keep the UAVs d_min apart and raises InfeasibleError if none
    does.
    """
    if trials < 1:
        raise DomainError("trials must be >= 1")
    if n_uavs < 1:
        raise DomainError("n_uavs must be >= 1")
    if seed < 0:
        raise DomainError("seed must be >= 0")
    streams = np.random.SeedSequence(seed).spawn(trials)
    sirs = np.empty(trials)
    for t, ss in enumerate(streams):
        rng = np.random.Generator(np.random.PCG64(ss))
        for _ in range(1000):
            hops = rng.dirichlet(np.ones(n_uavs + 1)) * s.distance_tx_rx
            if n_uavs == 1 or np.all(hops[1:-1] >= s.d_min):
                break
        else:
            raise InfeasibleError(
                f"trial {t}: none of 1000 hop splits keeps the UAVs d_min "
                f"= {s.d_min} apart")
        h = rng.uniform(s.h_min, s.h_max)
        sirs[t] = min(multihop_link_sirs(s, hops.tolist(), float(h)))
    return BaselineStats(float(sirs.mean()), float(sirs.max()),
                         float(sirs.min()), trials, seed)
