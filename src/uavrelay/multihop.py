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

#: `distributed_max_sir` scores its first two targets one scalar round at a
#: time, then chunks of targets in lockstep: LOCKSTEP_FIRST, doubling up to
#: LOCKSTEP_CHUNK, which keeps the scan's memory flat.  A lockstep call
#: costs about 25 scalar rounds of the same fleet, so chunks that start
#: small make scans of a few hundred rounds slower than scalar rounds.
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


def _forward_chain(s: Scenario, h: float, gamma: float, n_uavs: int):
    """One forward-propagation round: hop distances for a target SIR.

    Returns None when some link cannot reach gamma at all.
    """
    D = s.distance_tx_rx
    try:
        consumed = min(first_hop_distance(s, h, gamma), D)
        d_max = last_hop_max_distance(s, h, gamma)
        hops = [consumed]
        for _ in range(1, n_uavs):
            if consumed >= D:
                hops.append(0.0)
                continue
            d_k, _ = middle_hop_distance(s, h, gamma, consumed, d_max)
            d_k = min(max(d_k, 0.0), D - consumed)
            hops.append(d_k)
            consumed += d_k
    except InfeasibleError:
        return None
    return hops, consumed, d_max


def _scalar_round(s: Scenario, h: float, gamma: float, n_uavs: int):
    """One round of the scan: (d_1, system SIR, closes, hops) for one target.

    A round where some link cannot reach gamma is (0.0, NaN, False, None).
    The system SIR skips the zero hops of surplus UAVs stacked on one spot:
    a zero hop is no link.
    """
    result = _forward_chain(s, h, gamma, n_uavs)
    if result is None:
        return 0.0, math.nan, False, None
    hops, consumed, d_max = result
    D = s.distance_tx_rx
    hops.append(max(D - consumed, 0.0))
    links = [hops[0], *[d for d in hops[1:-1] if d > 0.0], hops[-1]]
    sir = min(multihop_link_sirs(s, links, h))
    return hops[0], sir, D - consumed <= d_max, hops


def _forward_rounds(s: Scenario, h: float, gammas: np.ndarray, n_uavs: int):
    """`_scalar_round` for a whole array of targets, one lane per target.

    Every lane rounds as the scalar round does: squares go through
    np.float_power(x, 2.0), which calls the C library's pow like float ** 2
    (an array's x ** 2 is x * x, which differs in the last bit on about one
    input in a thousand), the operand order and grouping are the scalar
    code's, and min/max are the comparisons Python's min and max make.  A
    lane whose hop is infeasible is masked out instead of raising.  Returns
    the arrays (ok, d_1, consumed, d_max, system SIR, suspect); suspect
    marks the lanes where the scalar round may raise instead: a square that
    overflows (OverflowError), a positive middle hop whose square underflows
    (DomainError) or a divisor that underflows to zero (ZeroDivisionError).
    """
    D, X = s.distance_tx_rx, s.msi_x
    ch = s.channel
    h2, y2 = h ** 2, s.msi_y ** 2
    rx_num = s.p_uav * ch.mu_nlos * ((X - D) ** 2 + y2)
    q = s.p_uav / ch.mu_los
    phi_tol = PHI_DENOM_RTOL * D
    with np.errstate(all="ignore"):
        big = np.zeros_like(gammas)  # largest square of each lane, NaN skipped

        def sq(x):
            x2 = np.float_power(x, 2.0)
            np.fmax(big, x2, out=big)
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
        suspect = ~(divisor > 0.0)
        radicand = rx_num / divisor - h2
        ok &= ~(radicand < 0.0)
        d_max = np.sqrt(radicand)

        # The system SIR is a running minimum over the links, Tx side first.
        span = X - consumed
        span2 = sq(span)
        sir = s.p_tx * (span2 + y2 + h2) / (s.p_msi * (sq(consumed) + h2))

        # middle_hop_distance, one hop of every lane at a time
        am = q - gammas * s.p_msi / ch.eta_nlos
        q_am = q * am
        lin = np.abs(am) <= 1e-12 * q
        any_lin = bool(lin.any())
        finish_base = D - d_max
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
            disc = sq(qs) - q_am * cc
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
            ok &= ~(going & bad)
            consumed = consumed + d_k
            span = X - consumed
            span2 = sq(span)
            # The air link into this UAV, unless it is a stacked zero hop.
            link = d_k > 0.0
            divisor = ch.mu_los * s.p_msi * sq(d_k)
            suspect |= link & ~(divisor > 0.0)
            air = s.p_uav * ch.eta_nlos * (span2 + y2 + h2) / divisor
            sir = np.where(link & (air < sir), air, sir)

        d_last = D - consumed
        d_last = np.where(0.0 > d_last, 0.0, d_last)
        rx = rx_num / (ch.eta_nlos * s.p_msi * (sq(d_last) + h2))
        sir = np.where(rx < sir, rx, sir)
        suspect |= np.isinf(big)
    return ok, d1, consumed, d_max, sir, suspect


def distributed_max_sir(s: Scenario, h: float, n_uavs: int, epsilon: float
                        ) -> tuple[float, Placement, IterationTrace]:
    """Forward-propagation rounds lowering the target until the chain closes.

    The `lowered_targets` start at min(SIR at the Tx-side with the UAV above
    the Tx, SIR at the Rx-side with the last UAV above the Rx); UAV_N alone
    checks the closing condition against d_max.  Whether a round closes is
    not monotone in the target, so the rounds run in order and the first
    that closes wins.

    The first two rounds run one `_scalar_round` each; the rest run in
    lockstep (`_forward_rounds`) over chunks of `LOCKSTEP_FIRST` targets,
    doubling up to `LOCKSTEP_CHUNK`.  The answer, the placement and every
    trace row are bit for bit those of one scalar round per target, and so
    are the errors: a lattice can stall only when its second or third
    target is asked for, which happens after the round before it is scored,
    as in a scan of one round at a time; a lane the lockstep cannot vouch
    for runs `_scalar_round`, which raises where the scalar scan raised.
    """
    if n_uavs < 1:
        raise DomainError("n_uavs must be >= 1")
    require_altitude(s, h)
    D = s.distance_tx_rx
    gamma0 = min(sir_tx_link(s, 0.0, h), sir_rx_link(s, 0.0, h))
    trace = IterationTrace()
    targets = lowered_targets(gamma0, epsilon)
    # Not fewer than two: see the stall rule above.
    for gamma in itertools.islice(targets, 2):
        first, sir, closes, hops = _scalar_round(s, h, gamma, n_uavs)
        trace.append(gamma, first, sir)
        if closes:
            return gamma, Placement.uniform(hops, h), trace
    size = LOCKSTEP_FIRST
    while (gammas := np.fromiter(itertools.islice(targets, size), float)).size:
        ok, first, consumed, d_max, sirs, suspect = _forward_rounds(
            s, h, gammas, n_uavs)
        closes = ok & (D - consumed <= d_max)
        first = np.where(ok, first, 0.0)
        sirs = np.where(ok, sirs, math.nan)
        for j in np.flatnonzero(closes | suspect):
            first[j], sirs[j], closed, hops = _scalar_round(
                s, h, float(gammas[j]), n_uavs)
            if closed:
                trace.extend(gammas[:j + 1], first[:j + 1], sirs[:j + 1])
                return float(gammas[j]), Placement.uniform(hops, h), trace
        trace.extend(gammas, first, sirs)
        size = min(2 * size, LOCKSTEP_CHUNK)
    raise InfeasibleError("no target SIR closed the chain; span not coverable")


def _explore_rectangle(s: Scenario, hops: list[float], alts: list[float],
                       i: int, eps_h: float) -> tuple[float, float, float, float]:
    """Best admissible (d, h) for UAV i inside its exploration rectangle.

    The rectangle spans the gap between the two neighbors horizontally and
    +-eps_h vertically; successive zoom passes re-grid around the incumbent
    so accepted moves are not limited by the coarse resolution.  Returns
    (d, h, its local SIR, the local SIR where UAV i stands now); the local
    SIR is the min of the two links around UAV i.
    """
    nx, nh = REFINE_GRID_X, REFINE_GRID_H
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
    for _ in range(REFINE_ZOOMS):
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
        step_h = (h_hi - h_lo) / (nh - 1)
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
    for it in range(iterations):
        for p in range(passes):
            order = range(n) if (it * passes + p) % 2 == 0 else range(n - 1, -1, -1)
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
