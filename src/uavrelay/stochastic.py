"""Planning under a stochastic interference field.

The interference power at horizontal position x is a random variable I_x;
all planners work with expected SIRs, which factor into a deterministic
signal term times Upsilon_x = E(1/I_x).  Three field variants are supported:
a degenerate (deterministic) level, a scaled Beta distribution with a
closed-form Upsilon, and a moment generating function M whose Upsilon_x =
integral of M(-y) dy over [0, inf) is taken by Takahasi & Mori's (1974)
exp-sinh (double-exponential) rule.  Measured Upsilon values enter as a
deterministic level 1/Upsilon (the CLI's `tabulated_upsilon`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence, Union

import numpy as np

from .channel import Scenario, require_altitude, require_positive
from .errors import DomainError, InfeasibleError, NumericError
from .multihop import DesignResult, IterationTrace, Placement, lowered_targets

D1_SCAN_POINTS = 4096
RHO_STEPS = 64
DESIGN_N_CAP = 512

# Exp-sinh rule for integrals over [0, inf): y = exp(pi/2 sinh t) with step
# 1/32 on t in [-4.5, 4.5], 289 nodes, each weighted by dy/dt times the step.
_EXP_SINH_NODES = [math.exp(0.5 * math.pi * math.sinh(k / 32.0 - 4.5))
                   for k in range(289)]
_EXP_SINH_WEIGHTS = [math.pi / 64.0 * math.cosh(k / 32.0 - 4.5) * y
                     for k, y in enumerate(_EXP_SINH_NODES)]


@dataclass(frozen=True)
class DeterministicField:
    """Degenerate field: interference power is a known level c(x)."""

    power: Union[float, Callable]  # c, or c(x) of a float or a numpy array
    altitude: float

    def upsilon_at(self, x):
        c = self.power(x) if callable(self.power) else self.power
        if not isinstance(c, np.ndarray) and c <= 0.0:
            raise DomainError("deterministic interference level must be > 0")
        return 1.0 / c


@dataclass(frozen=True)
class BetaField:
    """Interference scaled-Beta distributed: I_x = I_max * Beta(a(x), b(x))."""

    alpha: Union[float, Callable]  # a, or a(x) of a float or a numpy array
    beta: Union[float, Callable]
    i_max: float
    altitude: float

    def upsilon_at(self, x):
        return beta_upsilon(self.alpha(x) if callable(self.alpha) else self.alpha,
                            self.beta(x) if callable(self.beta) else self.beta,
                            self.i_max)


@dataclass(frozen=True)
class MgfField:
    """Field given by its moment generating function M_{I_x}(t) = E(e^{tI_x})."""

    mgf: Callable[[float, float], float]  # (x, t) -> M_{I_x}(t)
    altitude: float

    def upsilon_at(self, x):
        if isinstance(x, np.ndarray):  # mgf may take floats only
            return np.array([self.upsilon_at(v) for v in x.ravel().tolist()]
                            ).reshape(x.shape)
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


InterferenceModel = Union[DeterministicField, BetaField, MgfField]


def upsilon(model: InterferenceModel, x):
    """Expected reciprocal interference E(1/I_x) at horizontal position x.

    x is a float, and the answer a float, or a numpy array of positions,
    and the answer an array of its shape whose every lane is the float
    answer at that position.  Upsilon must be finite and > 0: where it is
    not, or where the field raises, an array raises the error that the
    float calls, made in order, raise first.
    """
    if not isinstance(x, np.ndarray):
        value = model.upsilon_at(x)
        if not (value > 0.0 and math.isfinite(value)):
            raise NumericError(f"Upsilon at x={x:g} is not a positive finite value")
        return float(value)
    try:
        with np.errstate(all="ignore"):
            values = np.array(np.broadcast_to(model.upsilon_at(x), x.shape),
                              dtype=float)
        if np.all((values > 0.0) & (values < math.inf)):
            return values
    except Exception:  # the float calls below raise it at its position
        pass
    return np.array([upsilon(model, v) for v in x.ravel().tolist()]
                    ).reshape(x.shape)


def beta_upsilon(alpha, beta, i_max: float):
    """E(1/I) of I = i_max * Beta(alpha, beta): (alpha+beta-1)/((alpha-1)*i_max).

    alpha and beta are floats, or numpy arrays that answer lane by lane.
    """
    if isinstance(alpha, np.ndarray) or isinstance(beta, np.ndarray):
        fails = (alpha <= 1.0) | (beta <= 0.0) | (i_max <= 0.0)
        if np.any(fails):  # raise as the float call at the first failing lane
            a, b = (np.broadcast_to(v, fails.shape).flat[np.argmax(fails)]
                    for v in (alpha, beta))
            beta_upsilon(float(a), float(b), i_max)
        return (alpha + beta - 1.0) / ((alpha - 1.0) * i_max)
    if alpha <= 1.0:
        raise NumericError(
            f"E(1/I) diverges for a Beta field with alpha={alpha:g} <= 1")
    if beta <= 0.0 or i_max <= 0.0:
        raise DomainError("beta and i_max must be > 0")
    return (alpha + beta - 1.0) / ((alpha - 1.0) * i_max)


def _e_tx_link(ups: float, s: Scenario, d1: float, h: float) -> float:
    """Expected SIR of the Tx -> UAV link, the UAV at distance d1, altitude h."""
    return ups * s.p_tx / (s.channel.eta_nlos * (d1 ** 2 + h ** 2))


def _e_air_link(ups: float, s: Scenario, d_k: float) -> float:
    """Expected SIR of a UAV -> UAV hop of length d_k, Upsilon ups at its end."""
    return ups * s.p_uav / (s.channel.mu_los * d_k ** 2)


def _e_rx_link(ups_d: float, s: Scenario, d_last: float, h: float) -> float:
    """Expected SIR of the UAV -> Rx link, the UAV d_last short of the Rx."""
    return ups_d * s.p_uav / (s.channel.eta_nlos * (d_last ** 2 + h ** 2))


def _e_links(model: InterferenceModel, s: Scenario, hops: Sequence[float],
             h: float) -> list[float]:
    """Expected SIRs of the first and the middle links of a uniform-altitude
    chain; the Rx-side link is the caller's."""
    links = [_e_tx_link(upsilon(model, hops[0]), s, hops[0], h)]
    pos = hops[0]
    for d_k in hops[1:-1]:
        if d_k <= 0.0:
            raise DomainError("middle hop distance must be > 0")
        pos += d_k
        links.append(_e_air_link(upsilon(model, pos), s, d_k))
    return links


def expected_multihop_link_sirs(model: InterferenceModel, s: Scenario,
                                hops: Sequence[float], h: float) -> list[float]:
    """Expected per-link SIRs of a uniform-altitude chain under the field."""
    links = _e_links(model, s, hops, h)
    return links + [_e_rx_link(upsilon(model, s.distance_tx_rx), s, hops[-1], h)]


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
    ups_d = upsilon(model, D)
    gamma_max = _e_rx_link(ups_d, s, 0.0, h)
    gamma_min = _e_rx_link(ups_d, s, D, h)
    trace = IterationTrace()
    for gamma in lowered_targets(gamma_max, epsilon):
        x = D - math.sqrt(max(_rx_radicand(ups_d, s, h, gamma), 0.0))
        e1 = _e_tx_link(upsilon(model, x), s, x, h)
        trace.append(gamma, x, min(gamma, e1))
        if e1 >= gamma:
            return x, min(gamma, e1), trace
        if gamma - epsilon <= gamma_min:
            break
    best = trace.system_sirs.index(max(trace.system_sirs))
    return trace.first_hops[best], trace.system_sirs[best], trace


def _d1_solution_set(model: InterferenceModel, s: Scenario, h: float,
                     gamma: float) -> list[tuple[float, float]]:
    """Intervals of d_1 in [0, D] where the first-link expected SIR >= gamma.

    Sign-scans the inequality residual, reading Upsilon at every scan point
    in one array call, and bisection-refines the boundaries.
    """
    D = s.distance_tx_rx
    eta = s.channel.eta_nlos

    def residual(d1: float) -> float:
        return d1 ** 2 * gamma - s.p_tx * upsilon(model, d1) / eta + h ** 2 * gamma

    with np.errstate(all="ignore"):  # float arithmetic: inf and NaN pass
        xs = np.arange(D1_SCAN_POINTS) * D / (D1_SCAN_POINTS - 1)
        squares = np.float_power(xs, 2.0)
        if not (math.isfinite(squares[-1]) and math.isfinite(np.float_power(h, 2.0))):
            for x in xs.tolist():  # a float square overflows: raise where
                residual(x)        # the point-by-point scan raises
        vals = (squares * gamma - s.p_tx * upsilon(model, xs) / eta
                + h ** 2 * gamma).tolist()
    xs = xs.tolist()

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


def _rx_radicand(ups_d: float, s: Scenario, h: float, gamma: float) -> float:
    """d_last**2 at which the UAV -> Rx expected SIR equals gamma.

    Negative when gamma exceeds that link's cap, the UAV right above the Rx.
    """
    return ups_d * s.p_uav / (s.channel.eta_nlos * gamma) - h ** 2


def _backward_chain(model: InterferenceModel, s: Scenario, gamma: float,
                    d_last: float) -> Iterator[float]:
    """Middle hops d_n, d_(n-1), ... of the closed-form backward recursion
    from the last hop d_last, one Upsilon read per hop."""
    tail = d_last
    while True:
        pos = s.distance_tx_rx - tail  # position of the receiving UAV of hop k
        if pos <= 0.0:
            pos = 0.0
        d_k = math.sqrt(s.p_uav * upsilon(model, pos) / (gamma * s.channel.mu_los))
        yield d_k
        tail += d_k


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
    D = s.distance_tx_rx
    d1_set = _d1_solution_set(model, s, h, gamma)
    if not d1_set:
        raise InfeasibleError("no first-hop distance meets gamma (empty set)")
    radicand = _rx_radicand(upsilon(model, D), s, h, gamma)
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

    # One chain per relaxed last hop d_last = d_max - j rho.  The chain of
    # n UAVs is the chain of n - 1 with one more backward hop in front, so
    # each step of n reads Upsilon once per chain.  Without a rho step all
    # chains are the first.
    rho_step = d_max / RHO_STEPS if d_max > 0.0 else 0.0
    chains = []  # [backward hops, hops in forward order, a hop below d_min]
    for j in range(RHO_STEPS + 1 if rho_step > 0.0 else 1):
        d_last = d_max - j * rho_step
        if d_last < 0.0:
            break
        chains.append([_backward_chain(model, s, gamma, d_last), [d_last], False])
    for n in range(2, DESIGN_N_CAP + 1):
        for chain in chains:
            backward, hops, short = chain
            d_k = next(backward)
            hops.insert(0, d_k)
            chain[2] = short = short or d_k < s.d_min
            if short:
                continue
            d1_req = D - sum(hops)
            if d1_req < -tol:
                continue
            if _contains(d1_set, max(d1_req, 0.0), tol):
                placement = Placement.uniform([max(d1_req, 0.0)] + hops, h)
                trace = ("first",) + ("mid",) * (n - 1) + ("last",)
                return DesignResult(placement, gamma, trace)
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
    D = s.distance_tx_rx
    ups_d = upsilon(model, D)
    gamma0 = _e_rx_link(ups_d, s, 0.0, h)
    trace = IterationTrace()
    best = None  # (min(gamma, E[SIR_1]), gamma, hops) of the best round
    for gamma in lowered_targets(gamma0, epsilon):
        d_last = min(math.sqrt(max(_rx_radicand(ups_d, s, h, gamma), 0.0)), D)
        backward = _backward_chain(model, s, gamma, d_last)
        hops = [next(backward) for _ in range(n_uavs - 1)][::-1] + [d_last]
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
            esirs = _e_links(model, s, hops, h) + [_e_rx_link(ups_d, s, hops[-1], h)]
            e1 = esirs[0]
            esys = min(esirs)
        else:
            e1 = _e_tx_link(upsilon(model, d1), s, d1, h)
            esys = float("nan")
        trace.append(gamma, d1, esys)
        if e1 >= gamma:
            return gamma, Placement.uniform(hops, h), trace
        if best is None or min(gamma, e1) > best[0]:
            best = (min(gamma, e1), gamma, hops)
    if best is not None:
        return best[1], Placement.uniform(best[2], h), trace
    raise InfeasibleError("no probed target closed the chain")
