"""Planning under a stochastic interference field.

The interference power at horizontal position x is a random variable I_x;
all planners work with expected SIRs, which factor into a deterministic
signal term times Upsilon_x = E(1/I_x).  Four field variants are supported:
a degenerate (deterministic) level, a scaled Beta distribution with a
closed-form Upsilon, a moment generating function M whose Upsilon_x =
integral of M(-y) dy over [0, inf) is taken by Takahasi & Mori's (1974)
exp-sinh (double-exponential) rule, and raw per-position sample sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence, Union

from .channel import Scenario, require_altitude, require_positive
from .errors import DomainError, InfeasibleError, NumericError
from .multihop import DesignResult, IterationTrace, Placement, lowered_targets

EMPIRICAL_MIN_SAMPLES = 1000
D1_SCAN_POINTS = 4096
RHO_STEPS = 64
DESIGN_N_CAP = 512

# Exp-sinh rule for integrals over [0, inf): y = exp(pi/2 sinh t) with step
# 1/32 on t in [-4.5, 4.5], 289 nodes, each weighted by dy/dt times the step.
_EXP_SINH_NODES = [math.exp(0.5 * math.pi * math.sinh(k / 32.0 - 4.5))
                   for k in range(289)]
_EXP_SINH_WEIGHTS = [math.pi / 64.0 * math.cosh(k / 32.0 - 4.5) * y
                     for k, y in enumerate(_EXP_SINH_NODES)]


def _as_fn(value) -> Callable[[float], float]:
    if callable(value):
        return value
    return lambda _x, _v=float(value): _v


@dataclass(frozen=True)
class DeterministicField:
    """Degenerate field: interference power is a known level c(x)."""

    power: Union[float, Callable[[float], float]]
    altitude: float

    def upsilon_at(self, x: float) -> float:
        c = _as_fn(self.power)(x)
        if c <= 0.0:
            raise DomainError("deterministic interference level must be > 0")
        return 1.0 / c


@dataclass(frozen=True)
class BetaField:
    """Interference scaled-Beta distributed: I_x = I_max * Beta(a(x), b(x))."""

    alpha: Union[float, Callable[[float], float]]
    beta: Union[float, Callable[[float], float]]
    i_max: float
    altitude: float

    def upsilon_at(self, x: float) -> float:
        return beta_upsilon(_as_fn(self.alpha)(x), _as_fn(self.beta)(x),
                            self.i_max)


@dataclass(frozen=True)
class MgfField:
    """Field given by its moment generating function M_{I_x}(t) = E(e^{tI_x})."""

    mgf: Callable[[float, float], float]  # (x, t) -> M_{I_x}(t)
    altitude: float

    def upsilon_at(self, x: float) -> float:
        terms = [w * self.mgf(x, -y)
                 for y, w in zip(_EXP_SINH_NODES, _EXP_SINH_WEIGHTS)]
        fine = sum(terms)
        coarse = 2.0 * sum(terms[::2])  # the same rule at step 1/16
        if not math.isfinite(fine):
            raise NumericError("MGF integral is not finite")
        if abs(terms[-1]) > 1e-14 * abs(fine):
            raise NumericError("MGF integrand does not decay; E(1/I) may diverge")
        if abs(fine - coarse) > 1e-10 * abs(fine):
            raise NumericError(
                "MGF integral changes when the quadrature step is halved")
        return fine


@dataclass(frozen=True)
class EmpiricalField:
    """Field estimated from interference power samples binned along x."""

    bin_edges: tuple[float, ...]
    samples: tuple[tuple[float, ...], ...]
    altitude: float

    def __post_init__(self):
        if len(self.bin_edges) != len(self.samples) + 1:
            raise DomainError("need len(bin_edges) == len(samples) + 1")
        if any(b <= a for a, b in zip(self.bin_edges, self.bin_edges[1:])):
            raise DomainError("bin_edges must be strictly increasing")

    def upsilon_at(self, x: float) -> float:
        if not (self.bin_edges[0] <= x <= self.bin_edges[-1]):
            raise DomainError(f"x={x:g} outside the sampled range")
        idx = min(max(0, sum(1 for e in self.bin_edges[1:-1] if x >= e)),
                  len(self.samples) - 1)
        bin_samples = self.samples[idx]
        if len(bin_samples) < EMPIRICAL_MIN_SAMPLES:
            raise DomainError(
                f"bin {idx} holds {len(bin_samples)} samples; "
                f"reciprocal means need at least {EMPIRICAL_MIN_SAMPLES}")
        return sum(1.0 / v for v in bin_samples) / len(bin_samples)


InterferenceModel = Union[DeterministicField, BetaField, MgfField,
                          EmpiricalField]


def upsilon(model: InterferenceModel, x: float) -> float:
    """Expected reciprocal interference E(1/I_x) at horizontal position x."""
    value = model.upsilon_at(x)
    if not (value > 0.0 and math.isfinite(value)):
        raise NumericError(f"Upsilon at x={x:g} is not a positive finite value")
    return value


def upsilon_field(model: InterferenceModel) -> Callable[[float], float]:
    """Memoizing x -> Upsilon_x evaluator of an interference model."""
    return lru_cache(maxsize=None)(lambda x: upsilon(model, x))


def beta_upsilon(alpha: float, beta: float, i_max: float) -> float:
    """E(1/I) of I = i_max * Beta(alpha, beta): (alpha+beta-1)/((alpha-1)*i_max)."""
    if alpha <= 1.0:
        raise NumericError(
            f"E(1/I) diverges for a Beta field with alpha={alpha:g} <= 1")
    if beta <= 0.0 or i_max <= 0.0:
        raise DomainError("beta and i_max must be > 0")
    return (alpha + beta - 1.0) / ((alpha - 1.0) * i_max)


def _e_tx_link(ups: Callable[[float], float], s: Scenario, d1: float,
               h: float) -> float:
    """Expected SIR of the Tx -> UAV link, the UAV at distance d1, altitude h."""
    return ups(d1) * s.p_tx / (s.channel.eta_nlos * (d1 ** 2 + h ** 2))


def _e_air_link(ups: Callable[[float], float], s: Scenario, pos: float,
                d_k: float) -> float:
    """Expected SIR of a UAV -> UAV hop of length d_k ending at position pos."""
    return ups(pos) * s.p_uav / (s.channel.mu_los * d_k ** 2)


def _e_rx_link(ups: Callable[[float], float], s: Scenario, d_last: float,
               h: float) -> float:
    """Expected SIR of the UAV -> Rx link, the UAV d_last short of the Rx."""
    return (ups(s.distance_tx_rx) * s.p_uav
            / (s.channel.eta_nlos * (d_last ** 2 + h ** 2)))


def _e_links(ups: Callable[[float], float], s: Scenario,
             hops: Sequence[float], h: float) -> list[float]:
    """Expected per-link SIRs of a uniform-altitude chain, given the memo."""
    links = [_e_tx_link(ups, s, hops[0], h)]
    pos = hops[0]
    for d_k in hops[1:-1]:
        if d_k <= 0.0:
            raise DomainError("middle hop distance must be > 0")
        pos += d_k
        links.append(_e_air_link(ups, s, pos, d_k))
    links.append(_e_rx_link(ups, s, hops[-1], h))
    return links


def expected_multihop_link_sirs(model: InterferenceModel, s: Scenario,
                                hops: Sequence[float], h: float) -> list[float]:
    """Expected per-link SIRs of a uniform-altitude chain under the field."""
    return _e_links(upsilon_field(model), s, hops, h)


def single_uav_position(model: InterferenceModel, s: Scenario, h: float,
                        epsilon: float) -> tuple[float, float, IterationTrace]:
    """Lower the target expected SIR until the first link holds.

    The targets are the `lowered_targets`.  Each probe inverts the
    receiver-side expected SIR for x, then checks the transmitter-side
    expected SIR; once the target band is exhausted the first round with
    the best min(target, E[SIR_1]) wins.
    """
    require_altitude(s, h)
    D = s.distance_tx_rx
    ups = upsilon_field(model)
    gamma_max = _e_rx_link(ups, s, 0.0, h)
    gamma_min = _e_rx_link(ups, s, D, h)
    trace = IterationTrace()
    for gamma in lowered_targets(gamma_max, epsilon):
        x = D - math.sqrt(max(_rx_radicand(ups, s, h, gamma), 0.0))
        e1 = _e_tx_link(ups, s, x, h)
        trace.append(gamma, x, min(gamma, e1))
        if e1 >= gamma:
            return x, min(gamma, e1), trace
        if gamma - epsilon <= gamma_min:
            break
    best = trace.system_sirs.index(max(trace.system_sirs))
    return trace.first_hops[best], trace.system_sirs[best], trace


def _d1_solution_set(ups: Callable[[float], float], s: Scenario, h: float,
                     gamma: float) -> list[tuple[float, float]]:
    """Intervals of d_1 in [0, D] where the first-link expected SIR >= gamma.

    Sign-scans the inequality residual and bisection-refines the boundaries.
    """
    D = s.distance_tx_rx
    eta = s.channel.eta_nlos

    def residual(d1: float) -> float:
        return d1 ** 2 * gamma - s.p_tx * ups(d1) / eta + h ** 2 * gamma

    xs = [i * D / (D1_SCAN_POINTS - 1) for i in range(D1_SCAN_POINTS)]
    vals = [residual(x) for x in xs]

    def refine(lo: float, hi: float) -> float:
        f_lo = residual(lo)
        for _ in range(60):
            mid = (lo + hi) / 2.0
            if (residual(mid) <= 0.0) == (f_lo <= 0.0):
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2.0

    intervals: list[tuple[float, float]] = []
    start = xs[0] if vals[0] <= 0.0 else None
    for (x0, v0), (x1, v1) in zip(zip(xs, vals), zip(xs[1:], vals[1:])):
        if v0 <= 0.0 < v1:
            intervals.append((start, refine(x0, x1)))
            start = None
        elif v0 > 0.0 >= v1:
            start = refine(x0, x1)
    if start is not None:
        intervals.append((start, D))
    return intervals


def _contains(intervals: Sequence[tuple[float, float]], value: float,
              tol: float) -> bool:
    return any(lo - tol <= value <= hi + tol for lo, hi in intervals)


def _rx_radicand(ups: Callable[[float], float], s: Scenario, h: float,
                 gamma: float) -> float:
    """d_last**2 at which the UAV -> Rx expected SIR equals gamma.

    Negative when gamma exceeds that link's cap, the UAV right above the Rx.
    """
    return (ups(s.distance_tx_rx) * s.p_uav / (s.channel.eta_nlos * gamma)
            - h ** 2)


def _backward_hops(ups: Callable[[float], float], s: Scenario,
                   gamma: float, d_last: float, n_uavs: int) -> list[float]:
    """Middle hops d_n .. d_2 from the closed-form backward recursion.

    Returns hop distances in forward order [d_2, ..., d_n, d_last].
    """
    D = s.distance_tx_rx
    hops = [d_last]
    tail = d_last
    for _ in range(n_uavs - 1):  # k = n, n-1, ..., 2
        pos = D - tail  # position of the receiving UAV of hop k
        if pos <= 0.0:
            pos = 0.0
        d_k = math.sqrt(s.p_uav * ups(pos) / (gamma * s.channel.mu_los))
        hops.append(d_k)
        tail += d_k
    hops.reverse()
    return hops


def design_min_uavs_stochastic(model: InterferenceModel, s: Scenario,
                               h: float, gamma: float):
    """Smallest chain whose expected per-link SIRs all reach gamma.

    Greedy maximal hops: the last hop takes its closed-form maximum, middle
    hops follow the backward recursion, and the first hop must land in the
    numerically computed solution set of the first-link inequality.  When the
    exact span equation has no solution the last hop is relaxed by rho.
    """
    require_positive("gamma", gamma)
    require_altitude(s, h)
    ups = upsilon_field(model)
    D = s.distance_tx_rx
    d1_set = _d1_solution_set(ups, s, h, gamma)
    if not d1_set:
        raise InfeasibleError("no first-hop distance meets gamma (empty set)")
    radicand = _rx_radicand(ups, s, h, gamma)
    if radicand < 0.0:
        raise InfeasibleError("gamma exceeds the receiver-side expected-SIR cap")
    d_max = math.sqrt(radicand)
    tol = 1e-9 * D

    # Single UAV: some admissible d_1 within d_max of the Rx.
    for lo, hi in d1_set:
        d1 = max(lo, D - d_max)
        if d1 <= hi + tol and D - d1 <= d_max + tol:
            placement = Placement.uniform((d1, D - d1), h)
            return DesignResult(placement, gamma, ("first", "last"))

    rho_step = d_max / RHO_STEPS if d_max > 0.0 else 0.0
    for n in range(2, DESIGN_N_CAP + 1):
        for j in range(RHO_STEPS + 1):
            d_last = d_max - j * rho_step
            if d_last < 0.0:
                break
            hops = _backward_hops(ups, s, gamma, d_last, n)
            if any(d < s.d_min for d in hops[:-1]):
                continue
            d1_req = D - sum(hops)
            if d1_req < -tol:
                continue
            if _contains(d1_set, max(d1_req, 0.0), tol):
                placement = Placement.uniform([max(d1_req, 0.0)] + hops, h)
                trace = ("first",) + ("mid",) * (n - 1) + ("last",)
                return DesignResult(placement, gamma, trace)
            if rho_step == 0.0:
                break
    raise InfeasibleError("no chain within the UAV cap meets gamma")


def distributed_max_esir(model: InterferenceModel, s: Scenario, h: float,
                         n_uavs: int, epsilon: float
                         ) -> tuple[float, Placement, IterationTrace]:
    """Backward-propagation rounds over the `lowered_targets` expected SIRs.

    Positions flow from the receiver side toward the transmitter so every
    middle hop can use the closed-form recursion; the first link's expected
    SIR is the acceptance check.  With no round accepted, the first round
    with the best min(target, E[SIR_1]) is returned.
    """
    if n_uavs < 1:
        raise DomainError("n_uavs must be >= 1")
    require_altitude(s, h)
    ups = upsilon_field(model)
    D = s.distance_tx_rx
    gamma0 = _e_rx_link(ups, s, 0.0, h)
    trace = IterationTrace()
    best = None  # (min(gamma, E[SIR_1]), gamma, hops) of the best round
    for gamma in lowered_targets(gamma0, epsilon):
        d_last = math.sqrt(max(_rx_radicand(ups, s, h, gamma), 0.0))
        hops = _backward_hops(ups, s, gamma, min(d_last, D), n_uavs)
        d1 = D - sum(hops)
        if d1 < 0.0:
            # Maximal hops overshoot the span; shrink the middle hops so the
            # first UAV sits above the Tx (shorter hops keep their targets
            # for fields whose statistics do not vary along x).
            mid_sum = sum(hops[:-1])
            if mid_sum > 0.0 and hops[-1] <= D:
                scale = (D - hops[-1]) / mid_sum
                hops = [d * scale for d in hops[:-1]] + [hops[-1]]
            else:
                hops = [0.0] * (n_uavs - 1) + [min(hops[-1], D)]
            d1 = max(D - sum(hops), 0.0)
        hops = [d1] + hops
        if all(d > 0.0 for d in hops[1:-1]):
            esirs = _e_links(ups, s, hops, h)
            e1 = esirs[0]
            esys = min(esirs)
        else:
            e1 = _e_tx_link(ups, s, d1, h)
            esys = float("nan")
        trace.append(gamma, d1, esys)
        if e1 >= gamma:
            return gamma, Placement.uniform(hops, h), trace
        if best is None or min(gamma, e1) > best[0]:
            best = (min(gamma, e1), gamma, hops)
    if best is not None:
        return best[1], Placement.uniform(best[2], h), trace
    raise InfeasibleError("no probed target closed the chain")
