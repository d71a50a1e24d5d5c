"""The benchmark's own formulas, written apart from the program under test.

Every operation of the benchmark is checked against these numpy
expressions of the paper's link SIRs, or against a property the planner
must have.  Nothing here imports the planners; only the `Scenario` and
`ChannelParams` containers are read for their fields.
"""

from __future__ import annotations

import math

import numpy as np

#: Relative tolerance for two evaluations of the same formula.
SAME_FORMULA_RTOL = 1e-9
#: Relative slack on "link SIR >= target" (the planners' own margin).
TARGET_RTOL = 1e-9
#: The interferer fit stops once a pass improves its residual by less than
#: 1e-6 relative, so its optimum holds to about that precision: positions to
#: FIT_RTOL * D, powers and residuals to FIT_RTOL of their scale.
FIT_RTOL = 1e-5


def close(a: float, b: float, rtol: float = SAME_FORMULA_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


# ------------------------------------------------------------------ dual hop

def dual_links(s, x, h):
    """(Tx->UAV, UAV->Rx) SIRs of one relay at (x, 0, h); broadcasts."""
    ch = s.channel
    X, Y, D = s.msi_x, s.msi_y, s.distance_tx_rx
    x = np.asarray(x, dtype=float)
    h = np.asarray(h, dtype=float)
    up = s.p_tx * ((x - X) ** 2 + Y ** 2 + h ** 2) / (s.p_msi * (x ** 2 + h ** 2))
    down = (s.p_uav * ch.mu_nlos * (Y ** 2 + (D - X) ** 2)
            / (ch.eta_nlos * s.p_msi * ((D - x) ** 2 + h ** 2)))
    return up, down


def dual_sir(s, x, h):
    """System SIR of the dual-hop link: the weaker of its two links."""
    return np.minimum(*dual_links(s, x, h))


def grid_max_and_slack(s, nx: int, nh: int) -> tuple[float, float]:
    """Maximum of the system SIR on an nx-by-nh grid of [0, D] x [h_min, h_max],
    and the one-cell bound: grid diagonal times the steepest observed slope."""
    xs = np.linspace(0.0, s.distance_tx_rx, nx)
    hs = np.linspace(s.h_min, s.h_max, nh)
    sir = dual_sir(s, xs[:, None], hs[None, :])
    dx = xs[1] - xs[0]
    dh = hs[1] - hs[0] if hs[1] > hs[0] else 1.0
    slope = max(np.abs(np.diff(sir, axis=0)).max() / dx,
                np.abs(np.diff(sir, axis=1)).max() / dh)
    return float(sir.max()), float(math.hypot(dx, dh) * slope)


def line_floor(values: np.ndarray) -> float:
    """Lowest value an exact line optimum may take: the best sample minus the
    largest step between neighbouring samples."""
    return float(values.max() - np.abs(np.diff(values)).max())


# ----------------------------------------------------------------- multi hop

def chain_links(s, hops, alts) -> np.ndarray:
    """Per-link SIRs of Tx -> UAV_1 .. UAV_N -> Rx with per-UAV altitudes.

    Air-to-air links use the 3-D distance between consecutive UAVs; a
    zero-length air-to-air link (stacked UAVs) carries unbounded SIR.
    """
    ch = s.channel
    X, Y, D = s.msi_x, s.msi_y, s.distance_tx_rx
    hops = np.asarray(hops, dtype=float)
    alts = np.asarray(alts, dtype=float)
    pos = np.cumsum(hops)[:-1]
    first = (s.p_tx * ((X - pos[0]) ** 2 + Y ** 2 + alts[0] ** 2)
             / (s.p_msi * (hops[0] ** 2 + alts[0] ** 2)))
    sep_sq = hops[1:-1] ** 2 + np.diff(alts) ** 2
    with np.errstate(divide="ignore"):
        middle = (s.p_uav * ch.eta_nlos * ((X - pos[1:]) ** 2 + Y ** 2 + alts[1:] ** 2)
                  / (ch.mu_los * s.p_msi * sep_sq))
    last = (s.p_uav * ch.mu_nlos * ((X - D) ** 2 + Y ** 2)
            / (ch.eta_nlos * s.p_msi * (hops[-1] ** 2 + alts[-1] ** 2)))
    return np.concatenate(([first], middle, [last]))


def uniform_chain_links(s, hops, h: float) -> np.ndarray:
    return chain_links(s, hops, [h] * (len(hops) - 1))


def start_target(s, h: float) -> float:
    """The paper's first target of the distributed scan: the weaker of the
    Tx-side SIR with UAV_1 above the Tx and the Rx-side SIR with UAV_N above
    the Rx."""
    ch = s.channel
    X, Y, D = s.msi_x, s.msi_y, s.distance_tx_rx
    tx_cap = s.p_tx * (X ** 2 + Y ** 2 + h ** 2) / (s.p_msi * h ** 2)
    rx_cap = (s.p_uav * ch.mu_nlos * ((X - D) ** 2 + Y ** 2)
              / (ch.eta_nlos * s.p_msi * h ** 2))
    return min(tx_cap, rx_cap)


def rounds_match(rounds: int, gamma_start: float, gamma_last: float,
                 epsilon: float) -> bool:
    """A scan that lowers the target by epsilon per round from gamma_start
    and stops at gamma_last has run (gamma_start - gamma_last)/epsilon + 1
    rounds; repeated subtraction may drift by a few ulps per round."""
    steps = (gamma_start - gamma_last) / epsilon
    return abs(steps + 1.0 - rounds) <= 1e-6 * rounds + 1e-6


def spans_distance(s, hops) -> bool:
    return close(math.fsum(hops), s.distance_tx_rx)


def within_oracle(n_design: int, n_oracle, n_max: int = 8) -> bool:
    """An exhaustive grid search bounds the minimum fleet from above.

    On about 1 draw in 300 the grid misses the chain the continuous design
    finds and needs one UAV more, so it may find none within n_max when the
    design uses n_max.  A design must never need more UAVs than the grid.
    """
    if n_oracle is None:
        return n_design >= n_max
    return n_design <= n_oracle


def meets_target(links, gamma: float) -> bool:
    return bool(np.min(links) >= gamma * (1.0 - TARGET_RTOL))


# ------------------------------------------------------------- stochastic

def beta_upsilon(alpha: float, beta: float, i_max: float) -> float:
    """E(1/I) of I = i_max * Beta(alpha, beta)."""
    return (alpha + beta - 1.0) / ((alpha - 1.0) * i_max)


def gamma_upsilon(theta: float, shape: float) -> float:
    """E(1/I) of a Gamma(shape, scale theta) interference power."""
    return 1.0 / (theta * (shape - 1.0))


def expected_links(ups, s, hops, h: float) -> np.ndarray:
    """Expected per-link SIRs of a uniform-altitude chain; ups(x) = E(1/I_x)."""
    ch = s.channel
    D = s.distance_tx_rx
    pos = np.cumsum(hops)[:-1]
    links = [ups(pos[0]) * s.p_tx / (ch.eta_nlos * (hops[0] ** 2 + h ** 2))]
    for p, d in zip(pos[1:], hops[1:-1]):
        links.append(ups(p) * s.p_uav / (ch.mu_los * d ** 2) if d > 0.0 else math.inf)
    links.append(ups(D) * s.p_uav / (ch.eta_nlos * (hops[-1] ** 2 + h ** 2)))
    return np.array(links)


def expected_dual(ups, s, x: float, h: float) -> float:
    """Expected system SIR of one relay at x: the weaker expected link."""
    eta = s.channel.eta_nlos
    D = s.distance_tx_rx
    return min(ups(x) * s.p_tx / (eta * (x ** 2 + h ** 2)),
               ups(D) * s.p_uav / (eta * ((D - x) ** 2 + h ** 2)))


# ------------------------------------------------------------ interferer fit

def fit_objective(sources, s, grid: tuple[int, int], x_h: float, y_h: float,
                  p_h: float) -> float:
    """L1 mismatch between one stand-in source and the aggregate field on the
    midpoint grid of [0, D] x [h_min, h_max], times the cell area."""
    nx, nh = grid
    D = s.distance_tx_rx
    dx = D / nx
    dh = (s.h_max - s.h_min) / nh if s.h_max > s.h_min else 1.0
    xx = ((np.arange(nx) + 0.5) * dx)[:, None]
    hh = (s.h_min + (np.arange(nh) + 0.5) * dh)[None, :]
    target = sum(src.power / ((xx - src.x) ** 2 + src.y ** 2 + hh ** 2)
                 for src in sources)
    cand = p_h / ((xx - x_h) ** 2 + y_h ** 2 + hh ** 2)
    return float(np.abs(cand - target).sum() * dx * dh)


def field_mass(sources, s, grid: tuple[int, int]) -> float:
    """L1 norm of the aggregate field on the fit grid (the zero stand-in's
    residual), the scale of a fit residual."""
    return fit_objective(sources, s, grid, 0.0, 1.0, 0.0)


def power_centroid(sources) -> tuple[float, float, float]:
    """Stand-in at the sources' power-weighted centroid with their total power."""
    total = math.fsum(src.power for src in sources)
    return (math.fsum(src.power * src.x for src in sources) / total,
            math.fsum(src.power * src.y for src in sources) / total,
            total)
