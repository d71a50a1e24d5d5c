"""Multi-UAV chain design under one dominant interferer.

Three entry points: `design_min_uavs` finds the smallest chain meeting a
target SIR by greedily maximizing hop lengths, `distributed_max_sir`
simulates the forward-propagation message rounds that squeeze the best
achievable SIR out of a fixed fleet, and `refine_altitudes` is the local
per-UAV rectangle-exploration heuristic that also adjusts altitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import (Scenario, SirReport, multihop_link_sirs,
                      require_positive, sir_air_link, sir_rx_link, sir_tx_link)
from .dualhop import stationary_points
from .errors import DomainError, InfeasibleError

#: |X - consumed| below this (times D) flips the middle-hop stationary point
#: to the monotone-decreasing sentinel.
PHI_DENOM_RTOL = 1e-9

#: Exploration grid of the altitude/horizontal refinement, per UAV per round.
REFINE_GRID_X = 64
REFINE_GRID_H = 33

#: Relaxation passes bundled into one refinement iteration, and zoom levels
#: of the per-UAV rectangle argmax.  Accepted moves diffuse along the chain
#: about one node per pass, so long chains need several passes per iteration
#: to make visible progress.
REFINE_PASSES = 12
REFINE_ZOOMS = 3


@dataclass(frozen=True)
class Placement:
    """Hop distances d_1..d_{N+1} plus one altitude per UAV."""

    hop_distances: tuple[float, ...]
    altitudes: tuple[float, ...]

    @property
    def uav_count(self) -> int:
        return len(self.hop_distances) - 1

    @classmethod
    def uniform(cls, hops, h: float) -> "Placement":
        hops = tuple(float(d) for d in hops)
        return cls(hops, (float(h),) * (len(hops) - 1))

    def positions(self) -> list[float]:
        """Cumulative horizontal positions of the UAVs."""
        out, acc = [], 0.0
        for d in self.hop_distances[:-1]:
            acc += d
            out.append(acc)
        return out


@dataclass(frozen=True)
class DesignResult:
    placement: Placement
    achieved_gamma: float
    trace: tuple[str, ...]  # which branch of the hop case map fired, per hop


@dataclass
class IterationTrace:
    epsilon: float
    gammas: list[float] = field(default_factory=list)
    placements: list[Placement] = field(default_factory=list)
    system_sirs: list[float] = field(default_factory=list)

    def append(self, gamma: float, placement: Placement, sir_s: float) -> None:
        self.gammas.append(gamma)
        self.placements.append(placement)
        self.system_sirs.append(sir_s)


def feasibility_bound(s: Scenario, h: float) -> float:
    """Largest target SIR any chain at altitude h can guarantee.

    Minimum of the Tx-side cap (first UAV right above the Tx), the
    middle-link cap at the safe-guard spacing with the interferer at its
    worst position, and the Rx-side cap (last UAV above the Rx).
    """
    if not (s.h_min <= h <= s.h_max):
        raise DomainError("h outside [h_min, h_max]")
    caps = [sir_tx_link(s, 0.0, h), sir_rx_link(s, 0.0, h)]
    if s.d_min > 0.0:
        # A hop of d_min with the interferer right below its receiving UAV.
        caps.append(sir_air_link(s, s.msi_x, s.d_min ** 2, h))
    return min(caps)


def first_hop_distance(s: Scenario, h: float, gamma: float) -> float:
    """Farthest first UAV position keeping the Tx-side SIR at gamma.

    Returns D as a sentinel when a single UAV above the Rx already meets the
    target (or the constraint holds everywhere).
    """
    if gamma <= 0.0:
        raise DomainError("gamma must be > 0")
    X, Y, D = s.msi_x, s.msi_y, s.distance_tx_rx
    a = s.p_tx - gamma * s.p_msi
    b = -2.0 * s.p_tx * X
    c = s.p_tx * (X ** 2 + Y ** 2) + h ** 2 * a
    if abs(a) <= 1e-12 * s.p_tx:
        # The quadratic collapses to a line (removable singularity).
        if b == 0.0:
            if c >= 0.0:
                return D
            raise InfeasibleError("gamma exceeds the Tx-side SIR everywhere")
        root = -c / b
        d_plus = d_minus = root
    else:
        disc = b * b - 4.0 * a * c
        if disc < 0.0:
            if a > 0.0:
                return D  # SIR above gamma for every d_1
            raise InfeasibleError("gamma infeasible on the Tx-side link")
        sq = math.sqrt(disc)
        r1 = (-b - sq) / (2.0 * a)
        r2 = (-b + sq) / (2.0 * a)
        d_minus, d_plus = min(r1, r2), max(r1, r2)
    psi_x = stationary_points(s, h).psi_x
    if d_plus > D:
        if d_minus < 0.0:
            raise InfeasibleError("gamma infeasible on the Tx-side link")
        return d_minus
    if d_plus < psi_x:  # d_plus <= D here
        return d_plus
    return D


def last_hop_max_distance(s: Scenario, h: float, gamma: float) -> float:
    """Maximum distance of the last UAV from the Rx meeting the target SIR."""
    if gamma <= 0.0:
        raise DomainError("gamma must be > 0")
    ch = s.channel
    X, Y, D = s.msi_x, s.msi_y, s.distance_tx_rx
    radicand = (s.p_uav * ch.mu_nlos * ((X - D) ** 2 + Y ** 2)
                / (gamma * s.p_msi * ch.eta_nlos)) - h ** 2
    if radicand < 0.0:
        raise InfeasibleError("gamma exceeds the Rx-side cap")
    return math.sqrt(radicand)


def middle_hop_distance(s: Scenario, h: float, gamma: float,
                        consumed: float, d_max: float) -> tuple[float, str]:
    """Next middle hop under the max-separation greedy; returns (d_k, branch).

    branch is "near" (smaller root), "far" (larger root) or "finish"
    (jump so the remaining span equals d_max).
    """
    D = s.distance_tx_rx
    if consumed >= D:
        raise DomainError("consumed span already covers D")
    ch = s.channel
    span = s.msi_x - consumed
    q = s.p_uav / ch.mu_los
    r = gamma * s.p_msi / ch.eta_nlos
    cc = h ** 2 + s.msi_y ** 2 + span ** 2
    a = q - r
    remaining = D - consumed
    finish_hop = max(D - d_max - consumed, 0.0)

    if span * s.p_uav != 0.0 and abs(span) > PHI_DENOM_RTOL * D and span > 0.0:
        phi = cc / span
    else:
        phi = math.inf  # interferer at/behind the node: SIR falls with d_k

    if abs(a) <= 1e-12 * q:
        # Degenerate quadratic; single crossing from the linear equation.
        if span == 0.0:
            raise InfeasibleError("gamma infeasible on middle links")
        root = cc / (2.0 * span)
        d_minus = d_plus = root
    else:
        disc = (q * span) ** 2 - q * a * cc
        if disc < 0.0:
            if a > 0.0:
                return finish_hop, "finish"  # SIR above gamma for every d_k
            raise InfeasibleError("gamma infeasible on middle links")
        sq = math.sqrt(disc)
        r1 = (q * span - sq) / a
        r2 = (q * span + sq) / a
        d_minus, d_plus = min(r1, r2), max(r1, r2)

    if d_plus > remaining:
        if d_minus < 0.0:
            raise InfeasibleError("gamma infeasible on middle links")
        return d_minus, "near"
    if d_plus < phi:
        return d_plus, "far"
    # Constraint holds beyond d_plus: jump straight to the hand-over point,
    # falling back to the near root when the jump lands in the infeasible gap.
    if finish_hop >= d_plus or finish_hop <= d_minus:
        return finish_hop, "finish"
    if d_minus >= 0.0:
        return d_minus, "near"
    return finish_hop, "finish"


def design_min_uavs(s: Scenario, h: float, gamma: float,
                    n_cap: int = 10_000) -> DesignResult:
    """Minimum-size chain meeting per-link SIR >= gamma at altitude h.

    Greedy max-separation: push the first UAV as far as the Tx-side SIR
    allows, grow middle hops at their largest admissible length, stop once
    the last UAV is within d_max of the Rx.
    """
    s.channel.require_quadratic_exponent()
    bound = feasibility_bound(s, h)
    if gamma > bound:
        raise InfeasibleError(
            f"gamma {gamma:g} above the feasibility bound {bound:g}")
    D = s.distance_tx_rx
    d1 = first_hop_distance(s, h, gamma)
    trace = ["first"]
    if d1 >= D:
        placement = Placement.uniform((D, 0.0), h)
        return DesignResult(placement, _check_design(s, placement, gamma), tuple(trace))
    d_max = last_hop_max_distance(s, h, gamma)
    hops = [d1]
    consumed = d1
    if d_max >= D - d1:
        placement = Placement.uniform((d1, D - d1), h)
        return DesignResult(placement, _check_design(s, placement, gamma), tuple(trace))
    while consumed < D - d_max:
        if len(hops) > n_cap:
            raise InfeasibleError("chain does not close within the UAV cap")
        d_k, branch = middle_hop_distance(s, h, gamma, consumed, d_max)
        d_k = min(d_k, D - consumed)
        if d_k < s.d_min:
            raise InfeasibleError("required middle hop below the safe-guard d_min")
        if d_k <= 0.0:
            raise InfeasibleError("middle hop collapsed to zero")
        hops.append(d_k)
        consumed += d_k
        trace.append(branch)
    hops.append(D - consumed)  # <= d_max by the loop condition
    placement = Placement.uniform(hops, h)
    return DesignResult(placement, _check_design(s, placement, gamma), tuple(trace))


def _check_design(s: Scenario, placement: Placement, gamma: float) -> float:
    report = SirReport.from_links(
        multihop_link_sirs(s, placement.hop_distances, placement.altitudes[0]))
    if report.system_sir < gamma * (1.0 - 1e-9):
        raise InfeasibleError(
            f"designed chain violates the target on link {report.bottleneck_index}")
    return gamma


def _forward_chain(s: Scenario, h: float, gamma: float, n_uavs: int):
    """One forward-propagation round: hop distances for a target SIR.

    Returns None when some link cannot reach gamma at all.
    """
    D = s.distance_tx_rx
    try:
        d1 = min(first_hop_distance(s, h, gamma), D)
    except InfeasibleError:
        return None
    hops = [d1]
    consumed = d1
    try:
        d_max = last_hop_max_distance(s, h, gamma)
    except InfeasibleError:
        return None
    for _ in range(1, n_uavs):
        if consumed >= D:
            hops.append(0.0)
            continue
        try:
            d_k, _ = middle_hop_distance(s, h, gamma, consumed, d_max)
        except InfeasibleError:
            return None
        d_k = min(max(d_k, 0.0), D - consumed)
        hops.append(d_k)
        consumed += d_k
    return hops, consumed, d_max


def distributed_max_sir(s: Scenario, h: float, n_uavs: int, epsilon: float
                        ) -> tuple[float, Placement, IterationTrace]:
    """Forward-propagation rounds lowering the target until the chain closes.

    The target starts at min(SIR at the Tx-side with the UAV above the Tx,
    SIR at the Rx-side with the last UAV above the Rx) and drops by epsilon
    per round; UAV_N alone checks the closing condition against d_max.
    """
    if n_uavs < 1:
        raise DomainError("n_uavs must be >= 1")
    require_positive("epsilon", epsilon)
    s.channel.require_quadratic_exponent()
    D = s.distance_tx_rx
    gamma0 = min(sir_tx_link(s, 0.0, h), sir_rx_link(s, 0.0, h))
    trace = IterationTrace(epsilon=epsilon)
    gamma = gamma0
    max_iter = math.floor(gamma0 / epsilon) + 1
    for _ in range(max_iter):
        result = _forward_chain(s, h, gamma, n_uavs)
        if result is not None:
            hops, consumed, d_max = result
            closes = D - consumed <= d_max
            placement = Placement.uniform(hops + [max(D - consumed, 0.0)], h)
            hops = placement.hop_distances
            if 0.0 in hops[1:-1]:
                # Surplus UAVs stacked on one spot: a zero hop is no link.
                hops = (hops[0], *[d for d in hops[1:-1] if d > 0.0], hops[-1])
            sir_s = min(multihop_link_sirs(s, hops, h))
            trace.append(gamma, placement, sir_s)
            if closes:
                return gamma, placement, trace
        else:
            trace.append(gamma, Placement.uniform([0.0] * n_uavs + [D], h),
                         float("nan"))
        gamma -= epsilon
        if gamma <= 0.0:
            break
    raise InfeasibleError("no target SIR closed the chain; span not coverable")


def _explore_rectangle(s: Scenario, hops: list[float], alts: list[float],
                       i: int, eps_h: float, grid: tuple[int, int],
                       zooms: int) -> tuple[float, float, float, float]:
    """Best admissible (d, h) for UAV i inside its exploration rectangle.

    The rectangle spans the gap between the two neighbors horizontally and
    +-eps_h vertically; successive zoom passes re-grid around the incumbent
    so accepted moves are not limited by the coarse resolution.  Returns
    (d, h, its local SIR, the local SIR where UAV i stands now); the local
    SIR is the min of the two links around UAV i.
    """
    nx, nh = grid
    n = len(alts)
    gap = hops[i] + hops[i + 1]
    prev_pos = sum(hops[:i])
    h_lo0 = max(s.h_min, alts[i] - eps_h)
    h_hi0 = min(s.h_max, alts[i] + eps_h)
    # Safe-guard: keep 3-D separation to both neighbors >= d_min
    # (ground nodes sit at altitude 0).
    h_prev = alts[i - 1] if i > 0 else 0.0
    h_next = alts[i + 1] if i < n - 1 else 0.0

    def local_sir(d: np.ndarray, h: np.ndarray) -> np.ndarray:
        # d: first-hop lengths on [0, gap] (the second hop closes the gap),
        # h: altitudes; the result broadcasts to (len(d), len(h)).
        dd = d[:, None]
        hh = h[None, :]
        pos = prev_pos + dd
        if i == 0:
            sir_in = sir_tx_link(s, dd, hh)
        else:
            sir_in = sir_air_link(
                s, pos, np.maximum(dd ** 2 + (hh - h_prev) ** 2, 1e-300), hh)
        d_next = gap - dd
        if i == n - 1:
            sir_out = sir_rx_link(s, d_next, hh)
        else:
            sir_out = sir_air_link(
                s, pos + d_next,
                np.maximum(d_next ** 2 + (hh - h_next) ** 2, 1e-300), h_next)
        return np.minimum(sir_in, sir_out)

    current = float(local_sir(np.array([hops[i]]), np.array([alts[i]]))[0, 0])
    d_lo, d_hi, h_lo, h_hi = 0.0, gap, h_lo0, h_hi0
    best = (hops[i], alts[i], -math.inf)
    for _ in range(max(zooms, 1)):
        d_cand = np.unique(np.append(np.linspace(d_lo, d_hi, nx),
                                     np.clip(hops[i], d_lo, d_hi)))
        h_cand = np.unique(np.append(np.linspace(h_lo, h_hi, nh),
                                     np.clip(alts[i], h_lo, h_hi)))
        dd = d_cand[:, None]
        hh = h_cand[None, :]
        ok = ((dd ** 2 + (hh - h_prev) ** 2 >= s.d_min ** 2)
              & ((gap - dd) ** 2 + (hh - h_next) ** 2 >= s.d_min ** 2))
        local = np.where(ok, local_sir(d_cand, h_cand), -np.inf)
        bi, bj = np.unravel_index(int(np.argmax(local)), local.shape)
        best = (float(d_cand[bi]), float(h_cand[bj]), float(local[bi, bj]))
        step_d = (d_hi - d_lo) / (nx - 1)
        step_h = (h_hi - h_lo) / (nh - 1) if nh > 1 else 0.0
        d_lo, d_hi = max(0.0, best[0] - step_d), min(gap, best[0] + step_d)
        h_lo = max(h_lo0, best[1] - step_h)
        h_hi = min(h_hi0, best[1] + step_h)
    return (*best, current)


def refine_altitudes(s: Scenario, start: Placement, eps_h: float,
                     iterations: int,
                     grid: tuple[int, int] = (REFINE_GRID_X, REFINE_GRID_H),
                     passes: int = REFINE_PASSES,
                     zooms: int = REFINE_ZOOMS) -> tuple[Placement, list[float]]:
    """Per-UAV rectangle exploration jointly adjusting x and h.

    Every UAV in turn scans the span between its neighbors crossed with
    altitudes within +-eps_h and keeps the move that strictly improves the
    min of its two local links.  Accepted moves are tiny (each UAV is pinned
    by its neighbors' altitudes), so improvements diffuse along the chain
    roughly one node per pass; an iteration therefore bundles `passes`
    alternating-direction relaxation passes.  The system SIR is
    non-decreasing across iterations.
    """
    if eps_h < 0.0:
        raise DomainError("eps_h must be >= 0")
    if passes < 1:
        raise DomainError("passes must be >= 1")
    hops = list(start.hop_distances)
    alts = list(start.altitudes)
    n = len(alts)
    history = [min(multihop_link_sirs(s, hops, alts))]
    for it in range(iterations):
        for p in range(passes):
            order = range(n) if (it * passes + p) % 2 == 0 else range(n - 1, -1, -1)
            for i in order:
                gap = hops[i] + hops[i + 1]
                d_star, h_star, value, current = _explore_rectangle(
                    s, hops, alts, i, eps_h, grid, zooms)
                if value > current:
                    hops[i + 1] = gap - d_star
                    hops[i] = d_star
                    alts[i] = h_star
        history.append(min(multihop_link_sirs(s, hops, alts)))
    return Placement(tuple(hops), tuple(alts)), history
