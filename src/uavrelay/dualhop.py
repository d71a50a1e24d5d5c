"""Analytic placement of a single relay UAV under one dominant interferer.

The two link SIRs are equal on a curve h = sqrt(Lambda(x)); the optimum of
the min of the two either sits on that curve or on the boundary of the
feasible box.  The fixed-altitude slice of the curve is the real-root set of
a quartic in x, whose root count falls into five cases driven by the power
ratio p_tx / p_uav and the stationary points of the Tx-side SIR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .channel import (Scenario, SirReport, require_altitude, sir_rx_link,
                      sir_system_dual, sir_tx_link)
from .errors import DomainError, NumericError

#: Relative tolerance on SIR1 == SIR2 at a reported locus point / quartic root.
SIR_EQUALITY_RTOL = 1e-6
#: Roots closer than this (times D) are merged.
ROOT_DEDUP_ATOL = 1e-7
#: Imaginary parts up to this (times D) are treated as numerical noise.
ROOT_IMAG_ATOL = 1e-8

LOCUS_SAMPLES = 2048


@dataclass(frozen=True)
class LocusPoint:
    """A point where the two dual-hop SIRs are equal; branch names the root of
    the biquadratic that produced the altitude."""

    x: float
    h: float
    branch: str  # "plus" or "minus"


@dataclass(frozen=True)
class StationaryPoints:
    """Sign-change positions of the Tx-side SIR derivatives.

    psi_x: the SIR decreases in x left of it and increases right of it.
    psi_h: the SIR decreases in h for x < psi_h and increases for x >= psi_h.
    Both are math.inf when the interferer sits at x = 0 (monotone regime).
    """

    psi_x: float
    psi_h: float

    @property
    def at_infinity(self) -> bool:
        return math.isinf(self.psi_x)


@dataclass(frozen=True)
class CaseLabel:
    """Quartic case id (1..5) with the power-ratio thresholds that define it."""

    case_id: int
    c1: float
    c2: float | None
    c3: float | None


def _sq(v):
    """v ** 2, rounded and raising as a Python float's ** 2 does.

    An array's own ** 2 is v * v, which differs from the C library's pow in
    the last bit on about one input in a thousand, so arrays go through
    np.float_power; where a (finite) lane's square overflows to inf, the
    array raises OverflowError as that lane's float ** 2 would.
    """
    if not isinstance(v, np.ndarray):
        return v ** 2
    v2 = np.float_power(v, 2.0)
    if np.isinf(v2).any():
        raise OverflowError(34, "Numerical result out of range")
    return v2


def _locus_bc(X, Y, D, x, pt, r):
    """B and C of the locus biquadratic, over floats, exact Fractions or an
    array of x."""
    to_msi, to_rx, y2, msi_rx = _sq(X - x), _sq(D - x), _sq(Y), _sq(D - X)
    b = pt * to_msi + pt * to_rx - r * msi_rx + y2 * (pt - r)
    c = pt * to_rx * (to_msi + y2) - r * _sq(x) * (y2 + msi_rx)
    return b, c


def locus_coefficients(s: Scenario, x):
    """Coefficients (A, B, C) of A*h**4 + B*h**2 + C = 0 for SIR1 == SIR2.

    x is a float or an array of x (B and C are then arrays).
    """
    b, c = _locus_bc(s.msi_x, s.msi_y, s.distance_tx_rx, x, s.p_tx,
                     s.p_uav * s.channel.nlos_over_eta)
    return s.p_tx, b, c


def locus_discriminant(s: Scenario, x: float) -> float:
    """B**2 - 4*A*C of the locus biquadratic, evaluated without cancellation.

    The plain float expression loses every significant digit when the two
    terms nearly cancel (e.g. the symmetric-power special case), so the
    inner arithmetic runs on exact rationals built from the float inputs.
    """
    pt = Fraction(s.p_tx)
    r = Fraction(s.p_uav) * Fraction(s.channel.mu_nlos) / Fraction(s.channel.eta_nlos)
    b, c = _locus_bc(Fraction(s.msi_x), Fraction(s.msi_y),
                     Fraction(s.distance_tx_rx), Fraction(x), pt, r)
    return float(b * b - 4 * pt * c)


def _near_cancellation(a, b, c, disc):
    """Where the float discriminant has lost most digits to cancellation."""
    return abs(disc) < 1e-6 * (b * b + abs(4.0 * a * c))


def locus_heights(s: Scenario, x: float) -> list[LocusPoint]:
    """Altitudes inside [h_min, h_max] where the two SIRs are equal at this x.

    Returns 0, 1 or 2 points; an empty list is a valid answer (negative
    discriminant or both roots outside the band).
    """
    if not (0.0 <= x <= s.distance_tx_rx):
        raise DomainError("x outside [0, D]")
    a, b, c = locus_coefficients(s, x)
    disc = b * b - 4.0 * a * c
    # Near-cancellation: the float subtraction has lost most digits, redo it
    # on exact rationals (slow path, rare).
    if _near_cancellation(a, b, c, disc):
        disc = locus_discriminant(s, x)
    if disc < 0.0:
        return []
    sq = math.sqrt(disc)
    out = []
    for branch, lam in (("plus", (-b + sq) / (2.0 * a)),
                        ("minus", (-b - sq) / (2.0 * a))):
        if s.h_min ** 2 <= lam <= s.h_max ** 2:
            out.append(LocusPoint(x, math.sqrt(lam), branch))
    return out


def locus_sweep(s: Scenario, xs) -> tuple[np.ndarray, np.ndarray]:
    """`locus_heights` at every x of an array, in one array expression.

    Returns the altitudes of the plus and the minus branch, NaN where that
    branch is not a point of the locus.  Each lane is bit for bit the
    scalar answer: the same formulas and operand order, squares as
    `_sq`, and the exact discriminant on the lanes that trip the
    near-cancellation test.  It raises where a scalar loop over xs would.
    """
    xs = np.asarray(xs, dtype=float)
    if not ((0.0 <= xs) & (xs <= s.distance_tx_rx)).all():
        raise DomainError("x outside [0, D]")
    with np.errstate(all="ignore"):
        a, b, c = locus_coefficients(s, xs)
        disc = b * b - 4.0 * a * c
        for k in np.flatnonzero(_near_cancellation(a, b, c, disc)):
            disc[k] = locus_discriminant(s, float(xs[k]))
        sq = np.sqrt(disc)  # NaN where disc < 0: no point on either branch
        lams = ((-b + sq) / (2.0 * a), (-b - sq) / (2.0 * a))
        # locus_heights squares a band edge only when a lane gets that far,
        # and the square of a huge edge raises there.
        lo = s.h_min ** 2 if not (disc < 0.0).all() else math.inf
        hi = s.h_max ** 2 if any((lo <= lam).any() for lam in lams) else -math.inf
        return tuple(np.where((lo <= lam) & (lam <= hi), np.sqrt(lam), np.nan)
                     for lam in lams)


def stationary_points(s: Scenario, h: float) -> StationaryPoints:
    """Stationary points of the Tx-side SIR at altitude h.

    With the interferer at x = 0 the SIR is monotone decreasing in x over
    [0, D] and in h over the band, which the infinity sentinel encodes.
    """
    X, Y = s.msi_x, s.msi_y
    if X == 0.0:
        return StationaryPoints(math.inf, math.inf)
    q = Y ** 2 + X ** 2
    psi_x = (q + math.sqrt(q * q + 4.0 * X * X * h * h)) / (2.0 * X)
    return StationaryPoints(psi_x, q / (2.0 * X))


def _quartic_coefficients(s: Scenario, h_hat: float) -> np.ndarray:
    """Descending-order coefficients of the fixed-altitude locus quartic."""
    X, Y, D = s.msi_x, s.msi_y, s.distance_tx_rx
    pt = s.p_tx
    kk = s.p_uav * s.channel.nlos_over_eta * (Y ** 2 + (D - X) ** 2)
    h2 = h_hat ** 2
    # pt*(x-X)^2*((D-x)^2 + h^2) + pt*(Y^2+h^2)*(D-x)^2 - kk*x^2
    #   + pt*h^2*(Y^2+h^2) - kk*h^2 = 0
    f1 = np.polymul([1.0, -2.0 * X, X * X], [1.0, -2.0 * D, D * D + h2]) * pt
    f2 = np.array([0.0, 0.0, 1.0, -2.0 * D, D * D]) * (pt * (Y ** 2 + h2))
    f3 = np.array([0.0, 0.0, -kk, 0.0, 0.0])
    const = pt * h2 * (Y ** 2 + h2) - kk * h2
    coeffs = f1 + f2 + f3
    coeffs[-1] += const
    return coeffs


def _quartic_value(coeffs: np.ndarray, x: float) -> float:
    return float(np.polyval(coeffs, x))


def quartic_roots_fixed_h(s: Scenario, h_hat: float) -> list[float]:
    """Real roots in [0, D] of the fixed-altitude locus quartic, ascending.

    Roots come from the companion matrix, get up to 20 Newton polish steps
    and are deduplicated within 1e-7 * D.  Every kept root equalizes the two
    SIRs within 1e-6 relative.  Raises NumericError when a coefficient, or
    its ratio to the leading one (a row of np.roots's companion matrix),
    is inf or NaN: np.roots cannot take it.
    """
    require_altitude(s, h_hat)
    D = s.distance_tx_rx
    coeffs = _quartic_coefficients(s, h_hat)
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(coeffs / coeffs[0]).all()
    if not finite:
        raise NumericError(f"the locus quartic at h={h_hat:g} overflows")
    deriv = np.polyder(coeffs)
    roots = np.roots(coeffs)
    kept: list[float] = []
    for z in roots:
        if abs(z.imag) > ROOT_IMAG_ATOL * D:
            continue
        x = float(z.real)
        for _ in range(20):  # Newton polish; robust near double roots
            fp = _quartic_value(deriv, x)
            if fp == 0.0:
                break
            step = _quartic_value(coeffs, x) / fp
            x -= step
            if abs(step) < 1e-15 * max(1.0, abs(x)):
                break
        if not (-ROOT_DEDUP_ATOL * D <= x <= D * (1.0 + ROOT_DEDUP_ATOL)):
            continue
        x = min(max(x, 0.0), D)
        s1 = sir_tx_link(s, x, h_hat)
        s2 = sir_rx_link(s, D - x, h_hat)
        if abs(s1 - s2) / s1 > SIR_EQUALITY_RTOL:
            continue
        kept.append(x)
    kept.sort()
    dedup: list[float] = []
    for x in kept:
        if not dedup or x - dedup[-1] > ROOT_DEDUP_ATOL * D:
            dedup.append(x)
    return dedup


def classify_case_fixed_h(s: Scenario, h_hat: float) -> CaseLabel:
    """Which of the five quartic root-count cases the scenario falls in.

    Boundary equalities resolve toward the lower-numbered case.
    """
    require_altitude(s, h_hat)
    X, Y, D = s.msi_x, s.msi_y, s.distance_tx_rx
    moe = s.channel.nlos_over_eta  # mu_nlos / eta_nlos
    h2 = h_hat ** 2
    ratio = s.p_tx / s.p_uav

    c1 = (moe * (Y ** 2 + (D - X) ** 2) * h2
          / ((X ** 2 + Y ** 2 + h2) * (D ** 2 + h2)))
    if ratio < c1:
        return CaseLabel(1, c1, None, None)

    psi_x = stationary_points(s, h_hat).psi_x
    if psi_x >= D:
        c2 = (moe * (Y ** 2 + (D - X) ** 2) * (D ** 2 + h2)
              / (h2 * ((D - X) ** 2 + Y ** 2 + h2)))
        if ratio <= c2:
            return CaseLabel(2, c1, c2, None)
        return CaseLabel(3, c1, c2, None)

    c3 = (moe * (psi_x ** 2 + h2) * (Y ** 2 + (D - X) ** 2)
          / (((psi_x - X) ** 2 + Y ** 2 + h2) * ((D - psi_x) ** 2 + h2)))
    if ratio <= c3:
        return CaseLabel(4, c1, None, c3)
    return CaseLabel(5, c1, None, c3)


def optimal_x_fixed_h(s: Scenario, h_hat: float) -> float:
    """Best horizontal position at a fixed altitude (the five-case map)."""
    label = classify_case_fixed_h(s, h_hat)
    if label.case_id == 1:
        return 0.0
    if label.case_id in (3, 5):
        return s.distance_tx_rx
    roots = quartic_roots_fixed_h(s, h_hat)
    if not roots:
        # Measure-zero disagreement between the inequality system and the
        # numeric root finder; fall back to the boundary choice.
        return s.distance_tx_rx
    x_sol = roots[0]
    if label.case_id == 2:
        return x_sol
    # Case 4: the crossing wins only if it beats the right boundary.
    if sir_tx_link(s, x_sol, h_hat) >= sir_tx_link(s, s.distance_tx_rx, h_hat):
        return x_sol
    return s.distance_tx_rx


def optimal_h_fixed_x(s: Scenario, x_hat: float) -> float:
    """Best altitude at a fixed horizontal position."""
    if not (0.0 <= x_hat <= s.distance_tx_rx):
        raise DomainError("x_hat outside [0, D]")
    psi_h = stationary_points(s, s.h_min).psi_h
    if x_hat <= psi_h:
        return s.h_min
    pts = locus_heights(s, x_hat)
    if pts:
        best = max(pts, key=lambda p: (sir_system_dual(s, x_hat, p.h).system_sir, -p.h))
        return best.h
    lo = sir_system_dual(s, x_hat, s.h_min).system_sir
    hi = sir_system_dual(s, x_hat, s.h_max).system_sir
    return s.h_min if lo >= hi else s.h_max


def _golden_max(f, lo: float, hi: float, iters: int = 80):
    """Golden-section maximization of a scalar function on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        if b - a < 1e-12 * max(1.0, abs(b)):
            break
    x = c if fc >= fd else d
    return x, max(fc, fd)


def _locus_argmax(s: Scenario) -> LocusPoint | None:
    """Best point of the equal-SIR curve inside the altitude band.

    Samples x densely, keeps band-feasible altitudes, then golden-section
    refines on the winning branch.  The samples are taken in order (x
    ascending, plus before minus) and the first strict maximum wins: a NaN
    SIR wins only as the first sample, since nothing compares above it.
    """
    D = s.distance_tx_rx
    xs = np.linspace(0.0, D, LOCUS_SAMPLES)
    hs = np.stack(locus_sweep(s, xs), axis=1).ravel()  # plus, minus per x
    on = np.flatnonzero(~np.isnan(hs))
    if on.size == 0:
        return None
    x, h = xs[on // 2], hs[on]
    with np.errstate(all="ignore"):
        # sir_tx_link (on the curve both SIRs coincide), squared as the
        # scalar code squares
        h2 = _sq(h)
        den = s.p_msi * (_sq(x) + h2)
        v = s.p_tx * (_sq(s.msi_x - x) + s.msi_y ** 2 + h2) / den
    if not den.all():
        raise ZeroDivisionError("float division by zero")
    k = 0 if np.isnan(v[0]) else int(np.nanargmax(v))
    v_seed = float(v[k])
    seed = LocusPoint(float(x[k]), float(h[k]), ("plus", "minus")[on[k] % 2])
    step = D / (LOCUS_SAMPLES - 1)
    lo = max(0.0, seed.x - step)
    hi = min(D, seed.x + step)

    def objective(x: float) -> float:
        for p in locus_heights(s, x):
            if p.branch == seed.branch:
                return sir_tx_link(s, p.x, p.h)
        return -math.inf

    x_ref, v_ref = _golden_max(objective, lo, hi)
    if v_ref > v_seed and math.isfinite(v_ref):
        for p in locus_heights(s, x_ref):
            if p.branch == seed.branch:
                return p
    return seed


def optimal_position(s: Scenario) -> tuple[float, float, SirReport]:
    """Jointly optimal (x, h) of the single relay, with its SIR report."""
    D, h_lo, h_hi = s.distance_tx_rx, s.h_min, s.h_max

    tilde = _locus_argmax(s)
    if tilde is None:
        # The equal-SIR curve misses the altitude band, so the optimum sits on
        # the band edge; the fixed-altitude map finds the best x on each edge.
        candidates = [(0.0, h_lo), (0.0, h_hi), (D, h_lo), (D, h_hi),
                      (optimal_x_fixed_h(s, h_lo), h_lo),
                      (optimal_x_fixed_h(s, h_hi), h_hi)]
        x, h = max(candidates,
                   key=lambda p: (sir_system_dual(s, *p).system_sir, -p[0], -p[1]))
        return x, h, sir_system_dual(s, x, h)

    if sir_rx_link(s, 0.0, h_lo) <= max(sir_tx_link(s, D, h_hi),
                                        sir_tx_link(s, D, h_lo)):
        return D, h_lo, sir_system_dual(s, D, h_lo)
    if sir_tx_link(s, 0.0, h_lo) <= sir_rx_link(s, D, h_lo):
        return 0.0, h_lo, sir_system_dual(s, 0.0, h_lo)

    x_t, h_t = tilde.x, tilde.h
    stat = stationary_points(s, h_t)
    psi_x, psi_h = stat.psi_x, stat.psi_h

    def at_right_boundary():
        h = optimal_h_fixed_x(s, D)
        return D, h, sir_system_dual(s, D, h)

    if psi_x >= D:
        h = optimal_h_fixed_x(s, x_t)
        return x_t, h, sir_system_dual(s, x_t, h)
    if x_t >= psi_x:
        return at_right_boundary()
    if x_t >= psi_h:
        if sir_tx_link(s, x_t, h_t) >= sir_tx_link(s, D, h_hi):
            return x_t, h_t, sir_system_dual(s, x_t, h_t)
        return at_right_boundary()
    if sir_tx_link(s, x_t, h_lo) >= sir_tx_link(s, D, h_hi):
        return x_t, h_lo, sir_system_dual(s, x_t, h_lo)
    return at_right_boundary()
