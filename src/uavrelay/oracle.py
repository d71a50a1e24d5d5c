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
from .errors import DomainError, InfeasibleError
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


def grid_search_dual(s: Scenario, grid: GridSpec) -> tuple[float, float, float]:
    """Dense-grid argmax of the dual-hop system SIR.

    Ties break toward smaller x, then smaller h (the first maximum in
    row-major order, as np.argmax of the whole grid: a NaN is the maximum).
    """
    xs, hs, blocks = _dual_sir_blocks(s, grid)
    best = None
    for r0, sir in blocks:
        k = int(np.argmax(sir))
        v = sir.flat[k]
        if best is None or v > best[0] or (v != v and best[0] == best[0]):
            best = (v, r0 + k // grid.nh, k % grid.nh)
    v, i, j = best
    return float(xs[i]), float(hs[j]), float(v)


def lipschitz_slack(s: Scenario, grid: GridSpec) -> float:
    """One-cell error bound: grid diagonal times the max observed gradient."""
    xs, hs, blocks = _dual_sir_blocks(s, grid)
    dx = xs[1] - xs[0]
    dh = hs[1] - hs[0] if hs[1] > hs[0] else 1.0
    # running maxima; np.maximum carries a NaN as .max() of the whole would
    gx = gh = -np.inf
    for _, sir in blocks:
        gx = np.maximum(gx, np.abs(np.diff(sir, axis=0)).max())
        gh = np.maximum(gh, np.abs(np.diff(sir, axis=1)).max())
    return float(np.hypot(dx, dh) * max(gx / dx, gh / dh))


def exhaustive_min_uavs(planner_kind: str, s: Scenario, h: float,
                        gamma: float, n_max: int = 8,
                        per_hop_grid: int = 64,
                        model: Optional[InterferenceModel] = None
                        ) -> Optional[int]:
    """True minimum chain size over a dense grid of UAV positions.

    Explores every placement whose UAV positions lie on a shared grid via
    boolean reachability products; returns None when no chain of at most
    n_max UAVs meets gamma on that grid.
    """
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
        ups = upsilon_field(model)
        ups_pos = np.array([ups(float(p)) for p in pos])
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
