"""Multi-UAV chain design under one dominant interferer.

Three entry points: `design_min_uavs` finds the smallest chain meeting a
target SIR by greedily maximizing hop lengths, `distributed_max_sir`
simulates the forward-propagation message rounds that squeeze the best
achievable SIR out of a fixed fleet, and `refine_altitudes` is the local
per-UAV rectangle-exploration heuristic that also adjusts altitudes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .channel import (Scenario, SirReport, multihop_link_sirs,
                      require_altitude, require_non_negative,
                      require_positive, sir_air_link, sir_rx_link, sir_tx_link)
from .dualhop import stationary_points
from .errors import DomainError, InfeasibleError, NumericError

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

#: `design_min_uavs` gives up once a chain grows past this many UAVs.
DESIGN_N_CAP = 10_000

#: `distributed_max_sir` scores its targets in lockstep chunks of
#: LOCKSTEP_FIRST, doubling up to LOCKSTEP_CHUNK.  A chunk holds n_uavs + 1
#: hop arrays of its lanes, so the cap bounds the scan's memory at about
#: 32 KiB per UAV.  A lockstep call costs about as much as 25 scalar rounds
#: of the same fleet, so a scan that closes in its first few rounds pays
#: for a whole first chunk.
LOCKSTEP_FIRST = 256
LOCKSTEP_CHUNK = 4096


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


@dataclass(frozen=True)
class DesignResult:
    placement: Placement
    achieved_gamma: float
    trace: tuple[str, ...]  # which branch of the hop case map fired, per hop


@dataclass
class IterationTrace:
    """Per-round target, first hop d_1 and system SIR of an epsilon scan.

    d_1 is 0.0 for a round whose chain fails, and the SIR NaN for a round
    with no chain to evaluate; the stochastic planners record expected SIRs.
    """

    gammas: list[float] = field(default_factory=list)
    first_hops: list[float] = field(default_factory=list)
    system_sirs: list[float] = field(default_factory=list)

    def append(self, gamma: float, first_hop: float, sir_s: float) -> None:
        self.gammas.append(gamma)
        self.first_hops.append(first_hop)
        self.system_sirs.append(sir_s)

    def extend(self, gammas: np.ndarray, first_hops: np.ndarray,
               sirs: np.ndarray) -> None:
        """Append one row per element of three equal-length arrays."""
        self.gammas += gammas.tolist()
        self.first_hops += first_hops.tolist()
        self.system_sirs += sirs.tolist()


def lowered_targets(gamma0: float, epsilon: float) -> Iterator[float]:
    """The targets gamma0, gamma0 - epsilon, ... of the epsilon scans.

    Each is the previous minus epsilon; at most floor(gamma0 / epsilon) + 1,
    stopping before a target <= 0.  When the scan starts, epsilon must be
    finite and > 0 (DomainError) and gamma0 not infinite or NaN
    (NumericError).  Asking for a target that the subtraction leaves
    unchanged (epsilon below the float spacing at gamma) raises DomainError.
    """
    require_positive("epsilon", epsilon)
    if not math.isfinite(gamma0):
        raise NumericError(f"start target is not finite: {gamma0!r}")
    rounds = gamma0 / epsilon  # k <= rounds is k <= floor(rounds), inf too
    gamma, k = gamma0, 0
    while k <= rounds and gamma > 0.0:
        yield gamma
        lowered = gamma - epsilon
        if lowered == gamma:
            raise DomainError(
                f"epsilon {epsilon!r} does not lower the target {gamma!r}")
        gamma, k = lowered, k + 1


def feasibility_bound(s: Scenario, h: float) -> float:
    """Largest target SIR any chain at altitude h can guarantee.

    Minimum of the Tx-side cap (first UAV right above the Tx), the
    middle-link cap at the safe-guard spacing with the interferer at its
    worst position, and the Rx-side cap (last UAV above the Rx).
    """
    require_altitude(s, h)
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
    require_positive("gamma", gamma)
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
        if d_minus >= 0.0:
            return d_minus
        if a < 0.0:
            return D  # SIR above gamma between the roots, so on all of [0, D]
        raise InfeasibleError("gamma infeasible on the Tx-side link")
    if d_plus < psi_x:  # d_plus <= D here
        return d_plus
    return D


def last_hop_max_distance(s: Scenario, h: float, gamma: float) -> float:
    """Maximum distance of the last UAV from the Rx meeting the target SIR."""
    require_positive("gamma", gamma)
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


def design_min_uavs(s: Scenario, h: float, gamma: float) -> DesignResult:
    """Minimum-size chain meeting per-link SIR >= gamma at altitude h.

    Greedy max-separation: push the first UAV as far as the Tx-side SIR
    allows, grow middle hops at their largest admissible length, stop once
    the last UAV is within d_max of the Rx.
    """
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
        if len(hops) > DESIGN_N_CAP:
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


def _forward_rounds(s: Scenario, h: float, gammas: np.ndarray, n_uavs: int):
    """The scan's round for each target, the targets in lockstep lanes.

    A lane runs `first_hop_distance`, `last_hop_max_distance` and one
    `middle_hop_distance` per further UAV (a zero hop once its chain has
    reached D), rounding as those scalar functions do: squares go through
    np.float_power(x, 2.0), which calls the C library's pow like float ** 2
    (an array's x ** 2 is x * x, which differs in the last bit on about one
    input in a thousand), the operand order and grouping are the scalar
    code's, and min/max are the comparisons Python's min and max make.

    Returns (hops, sir, closes, raises): the n_uavs + 1 hop arrays, the
    system SIR (a zero hop of stacked UAVs is no link), whether the last
    hop is within d_max, and whether the scalar functions raise on the
    lane, where a square of a finite value overflows or a divisor is not
    > 0.  A lane where some link cannot reach its target has d_1 = 0.0 and
    SIR NaN, and does not close.
    """
    D, X = s.distance_tx_rx, s.msi_x
    ch = s.channel
    # The scan's start target has taken these float squares already.
    h2, y2 = h ** 2, s.msi_y ** 2
    rx_num = s.p_uav * ch.mu_nlos * ((X - D) ** 2 + y2)
    q = s.p_uav / ch.mu_los
    phi_tol = PHI_DENOM_RTOL * D
    with np.errstate(all="ignore"):

        def sq(x, flags, live):
            # x squared; flags gets the live lanes where float ** 2 raises
            # OverflowError, a finite x whose square is inf
            x2 = np.float_power(x, 2.0)
            inf = np.isinf(x2)
            if inf.any():
                flags |= live & inf & np.isfinite(x)
            return x2

        # first_hop_distance
        a = s.p_tx - gammas * s.p_msi
        b = -2.0 * s.p_tx * X
        c = s.p_tx * (X ** 2 + y2) + h2 * a
        lin = np.abs(a) <= 1e-12 * s.p_tx
        disc = b * b - 4.0 * a * c
        root = np.sqrt(disc)
        r1 = (-b - root) / (2.0 * a)
        r2 = (-b + root) / (2.0 * a)
        d_minus = np.where(r2 < r1, r2, r1)
        d_plus = np.where(r2 > r1, r2, r1)
        flat = np.zeros_like(lin)  # D where c >= 0, else infeasible
        if b == 0.0:
            flat = lin
        else:
            d_lin = -c / b
            d_minus = np.where(lin, d_lin, d_minus)
            d_plus = np.where(lin, d_lin, d_plus)
        neg = ~lin & (disc < 0.0)  # D where a > 0, else infeasible
        over = d_plus > D
        d1 = np.where(flat | neg, D, np.where(
            over, np.where(d_minus >= 0.0, d_minus, D),
            np.where(d_plus < stationary_points(s, h).psi_x, d_plus, D)))
        ok = np.where(flat, c >= 0.0, np.where(
            neg, a > 0.0, ~over | (d_minus >= 0.0) | (a < 0.0)))
        consumed = d1 = np.where(D < d1, D, d1)

        # last_hop_max_distance
        divisor = gammas * s.p_msi * ch.eta_nlos
        raises = ok & ~(divisor > 0.0)
        radicand = rx_num / divisor - h2
        ok &= ~(radicand < 0.0)
        d_max = np.sqrt(radicand)

        # The system SIR is a running minimum over the links, Tx side first.
        # A span's square raises on every lane still feasible: a lane still
        # going squares it for its next middle hop, and one whose chain has
        # reached D stays feasible and squares it scoring its links.  The
        # other squares and divisors of the links raise only on a complete
        # chain, so they gather in `scored` until the chain is.
        scored = np.zeros_like(ok)
        span = X - consumed
        span2 = sq(span, raises, ok)
        d1_2 = sq(consumed, scored, True)
        sir = s.p_tx * (span2 + y2 + h2) / (s.p_msi * (d1_2 + h2))

        # middle_hop_distance, one hop of every lane at a time
        am = q - gammas * s.p_msi / ch.eta_nlos
        q_am = q * am
        lin = np.abs(am) <= 1e-12 * q
        quadratic = ~lin
        any_lin = bool(lin.any())
        finish_base = D - d_max
        hops = [d1]
        for _ in range(1, n_uavs):
            going = ~(consumed >= D)  # lanes whose chain has not reached D
            cc = h2 + y2 + span2
            remaining = D - consumed
            finish = finish_base - consumed
            finish = np.where(0.0 > finish, 0.0, finish)
            # |span| > tol and span > 0 is span > tol, as tol > 0.
            phi = np.where((span * s.p_uav != 0.0) & (span > phi_tol),
                           cc / span, math.inf)
            qs = q * span
            disc = sq(qs, raises, ok & going & quadratic) - q_am * cc
            root = np.sqrt(disc)
            r1 = (qs - root) / am
            r2 = (qs + root) / am
            d_minus = np.where(r2 < r1, r2, r1)
            d_plus = np.where(r2 > r1, r2, r1)
            neg = disc < 0.0  # finish where a > 0, else infeasible
            over = d_plus > remaining
            bad = np.where(neg, ~(am > 0.0), over & (d_minus < 0.0))
            if any_lin:
                d_lin = cc / (2.0 * span)
                d_minus = np.where(lin, d_lin, d_minus)
                d_plus = np.where(lin, d_lin, d_plus)
                neg &= ~lin
                over = d_plus > remaining
                bad = np.where(lin, (span == 0.0) | (over & (d_minus < 0.0)), bad)
            d_k = np.where(neg, finish, np.where(
                over, d_minus, np.where(
                    d_plus < phi, d_plus, np.where(
                        (finish >= d_plus) | (finish <= d_minus), finish,
                        np.where(d_minus >= 0.0, d_minus, finish)))))
            d_k = np.where(0.0 > d_k, 0.0, d_k)
            d_k = np.where(remaining < d_k, remaining, d_k)
            d_k = np.where(going, d_k, 0.0)
            hops.append(d_k)
            ok &= ~(going & bad)
            consumed = consumed + d_k
            span = X - consumed
            span2 = sq(span, raises, ok)
            # The air link into this UAV, unless it is a stacked zero hop.
            link = d_k > 0.0
            divisor = ch.mu_los * s.p_msi * sq(d_k, scored, True)
            scored |= link & ~(divisor > 0.0)
            air = s.p_uav * ch.eta_nlos * (span2 + y2 + h2) / divisor
            sir = np.where(link & (air < sir), air, sir)

        d_last = D - consumed
        d_last = np.where(0.0 > d_last, 0.0, d_last)
        hops.append(d_last)
        d_last2 = sq(d_last, scored, True)
        rx = rx_num / (ch.eta_nlos * s.p_msi * (d_last2 + h2))
        sir = np.where(rx < sir, rx, sir)
        raises |= ok & scored
    hops[0] = np.where(ok, d1, 0.0)
    return hops, np.where(ok, sir, math.nan), ok & (D - consumed <= d_max), raises


def distributed_max_sir(s: Scenario, h: float, n_uavs: int, epsilon: float
                        ) -> tuple[float, Placement, IterationTrace]:
    """Forward-propagation rounds lowering the target until the chain closes.

    The `lowered_targets` start at min(SIR at the Tx-side with the UAV above
    the Tx, SIR at the Rx-side with the last UAV above the Rx); UAV_N alone
    checks the closing condition against d_max.  Whether a round closes is
    not monotone in the target, so the rounds run in order and the first
    that closes wins.

    The rounds run in lockstep (`_forward_rounds`) over chunks of
    `LOCKSTEP_FIRST` targets, doubling up to `LOCKSTEP_CHUNK`.  The scan
    ends at the first round, in target order, that closes, or that leaves
    the float range, which raises NumericError.  A lattice that stalls
    (epsilon below the float spacing of a target) ends its chunk: the
    targets before the stall are scored, and its DomainError is raised only
    when none of them ends the scan.
    """
    if n_uavs < 1:
        raise DomainError("n_uavs must be >= 1")
    require_altitude(s, h)
    gamma0 = min(sir_tx_link(s, 0.0, h), sir_rx_link(s, 0.0, h))
    trace = IterationTrace()
    targets = lowered_targets(gamma0, epsilon)
    size, stall = LOCKSTEP_FIRST, None
    while stall is None:
        gammas = []
        try:
            # extend keeps the targets yielded before a stall
            gammas.extend(itertools.islice(targets, size))
        except DomainError as err:
            stall = err
        if not gammas:
            break
        gammas = np.array(gammas, float)
        hops, sirs, closes, raises = _forward_rounds(s, h, gammas, n_uavs)
        ends = np.flatnonzero(closes | raises)
        if ends.size:
            j = ends[0]
            gamma = float(gammas[j])
            if raises[j]:
                raise NumericError(
                    f"the round at target {gamma!r} leaves the float range")
            trace.extend(gammas[:j + 1], hops[0][:j + 1], sirs[:j + 1])
            return gamma, Placement.uniform([d[j] for d in hops], h), trace
        trace.extend(gammas, hops[0], sirs)
        size = min(2 * size, LOCKSTEP_CHUNK)
    if stall is not None:
        raise stall
    raise InfeasibleError("no target SIR closed the chain; span not coverable")


#: The ramps np.arange(n) of the two refinement axes, scaled by `_zoom_axis`.
_RAMP_X = np.arange(REFINE_GRID_X, dtype=float)
_RAMP_H = np.arange(REFINE_GRID_H, dtype=float)


def _zoom_axis(ramp: np.ndarray, lo: float, hi: float,
               v: float) -> tuple[np.ndarray, int]:
    """A zoom axis and the index of c = np.clip(v, lo, hi) in it.

    The axis is np.unique(np.append(np.linspace(lo, hi, n), c)), bit for
    bit, where ramp is np.arange(n, dtype=float) with n >= 2.  The grid is
    np.linspace's own arithmetic on the ramp, and c goes in by bisection
    unless it equals a grid point.  np.unique itself runs where that could
    differ from it: on a grid that is not strictly increasing (lo >= hi, or
    steps below one ulp of lo), and for c = 0, where np.unique may keep a
    -0.0 in place of the grid's +0.0.
    """
    div = len(ramp) - 1
    delta = hi - lo
    step = delta / div
    grid = (ramp / div) * delta if step == 0.0 else ramp * step
    grid += lo
    grid[-1] = hi
    c = lo if v < lo else hi if v > hi else v  # np.clip, unless lo > hi
    if c == 0.0 or not (grid[1:] > grid[:-1]).all():
        c = np.clip(v, lo, hi)
        axis = np.unique(np.append(grid, c))
        return axis, int(axis.searchsorted(c))
    k = int(grid.searchsorted(c))
    if k <= div and grid[k] == c:
        return grid, k
    axis = np.empty(div + 2)
    axis[:k] = grid[:k]
    axis[k] = c
    axis[k + 1:] = grid[k:]
    return axis, k


def _explore_rectangle(s: Scenario, hops: list[float], alts: list[float],
                       i: int, eps_h: float) -> tuple[float, float, float, float]:
    """Best admissible (d, h) for UAV i inside its exploration rectangle.

    The rectangle spans the gap between the two neighbors horizontally and
    +-eps_h vertically; successive zoom passes re-grid around the incumbent
    so accepted moves are not limited by the coarse resolution.  Each zoom
    level's grid is, per axis, np.unique(linspace U {incumbent}), built by
    `_zoom_axis` without np.unique; each grid point is evaluated once.
    Returns (d, h, its local SIR, the local SIR where UAV i stands now); the
    local SIR is the min of the two links around UAV i.
    """
    n = len(alts)
    gap = hops[i] + hops[i + 1]
    prev_pos = sum(hops[:i])
    h_lo0 = max(s.h_min, alts[i] - eps_h)
    h_hi0 = min(s.h_max, alts[i] + eps_h)
    # Safe-guard: keep 3-D separation to both neighbors >= d_min
    # (ground nodes sit at altitude 0).  With d_min = 0 every point passes.
    h_prev = alts[i - 1] if i > 0 else 0.0
    h_next = alts[i + 1] if i < n - 1 else 0.0
    guard = s.d_min > 0.0

    def local_sir(d: np.ndarray, h: np.ndarray):
        # d: first-hop lengths on [0, gap] (the second hop closes the gap),
        # h: altitudes.  Returns the local SIR on (len(d), len(h)) and the
        # mask of the points that keep d_min to both neighbors (None when
        # d_min = 0); each squared separation serves both.
        dd = d[:, None]
        hh = h[None, :]
        pos = prev_pos + dd
        d_next = gap - dd
        if i > 0 or guard:
            in_sq = dd ** 2 + (hh - h_prev) ** 2
        if i < n - 1 or guard:
            out_sq = d_next ** 2 + (hh - h_next) ** 2
        if i == 0:
            sir_in = sir_tx_link(s, dd, hh)
        else:
            sir_in = sir_air_link(s, pos, np.maximum(in_sq, 1e-300), hh)
        if i == n - 1:
            sir_out = sir_rx_link(s, d_next, hh)
        else:
            sir_out = sir_air_link(
                s, pos + d_next, np.maximum(out_sq, 1e-300), h_next)
        ok = None
        if guard:
            ok = (in_sq >= s.d_min ** 2) & (out_sq >= s.d_min ** 2)
        return np.minimum(sir_in, sir_out), ok

    current = None
    d_lo, d_hi, h_lo, h_hi = 0.0, gap, h_lo0, h_hi0
    for _ in range(REFINE_ZOOMS):
        d_cand, kd = _zoom_axis(_RAMP_X, d_lo, d_hi, hops[i])
        h_cand, kh = _zoom_axis(_RAMP_H, h_lo, h_hi, alts[i])
        local, ok = local_sir(d_cand, h_cand)
        if current is None:
            # UAV i's own point is on the first grid unless it stands
            # outside the rectangle (an altitude outside the band).
            if d_cand[kd] == hops[i] and h_cand[kh] == alts[i]:
                current = float(local[kd, kh])
            else:
                current = float(local_sir(np.array([hops[i]]),
                                          np.array([alts[i]]))[0][0, 0])
        if ok is not None:
            local = np.where(ok, local, -np.inf)
        bi, bj = divmod(int(local.argmax()), len(h_cand))
        best = (float(d_cand[bi]), float(h_cand[bj]), float(local[bi, bj]))
        step_d = (d_hi - d_lo) / (REFINE_GRID_X - 1)
        step_h = (h_hi - h_lo) / (REFINE_GRID_H - 1)
        d_lo, d_hi = max(0.0, best[0] - step_d), min(gap, best[0] + step_d)
        h_lo = max(h_lo0, best[1] - step_h)
        h_hi = min(h_hi0, best[1] + step_h)
    return (*best, current)


def refine_altitudes(s: Scenario, start: Placement, eps_h: float,
                     iterations: int, passes: int = REFINE_PASSES
                     ) -> tuple[Placement, list[float]]:
    """Per-UAV rectangle exploration jointly adjusting x and h.

    Every UAV in turn scans the span between its neighbors crossed with
    altitudes within +-eps_h and keeps the move that strictly improves the
    min of its two local links.  Accepted moves are tiny (each UAV is pinned
    by its neighbors' altitudes), so improvements diffuse along the chain
    roughly one node per pass; an iteration therefore bundles `passes`
    alternating-direction relaxation passes.  The system SIR is
    non-decreasing across iterations.
    """
    require_non_negative("eps_h", eps_h)
    if iterations < 0:
        raise DomainError("iterations must be >= 0")
    if passes < 1:
        raise DomainError("passes must be >= 1")
    hops = list(start.hop_distances)
    alts = list(start.altitudes)
    n = len(alts)
    history = [min(multihop_link_sirs(s, hops, alts))]
    # A grid point that stacks UAV i on a neighbour floors that link's
    # squared length at 1e-300, and its SIR overflows to inf: no warning.
    with np.errstate(over="ignore"):
        for it in range(iterations):
            for p in range(passes):
                order = (range(n) if (it * passes + p) % 2 == 0
                         else range(n - 1, -1, -1))
                for i in order:
                    gap = hops[i] + hops[i + 1]
                    d_star, h_star, value, current = _explore_rectangle(
                        s, hops, alts, i, eps_h)
                    if value > current:
                        hops[i + 1] = gap - d_star
                        hops[i] = d_star
                        alts[i] = h_star
            history.append(min(multihop_link_sirs(s, hops, alts)))
    return Placement(tuple(hops), tuple(alts)), history
