"""Aggregation of several ground interferers into one hypothetical source.

The single-interferer planners stay usable when a scenario has many
interferers: `fit_hypothetical_msi` finds the (x_h, y_h, p_h) of one
equivalent interferer whose field best matches the aggregate interference
over the flight region, in the L1 sense on a midpoint grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import Scenario, require_positive
from .errors import DomainError

SEED_GRID = 16
COORD_DESCENT_RTOL = 1e-6
GOLDEN_ITERS = 80


@dataclass(frozen=True)
class InterferenceSource:
    """One ground interferer at (x, y, 0) transmitting `power` watts."""

    x: float
    y: float
    power: float

    def __post_init__(self):
        require_positive("source power", self.power)
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise DomainError("source x and y must be finite")


@dataclass(frozen=True)
class HypotheticalMsi:
    """Fitted stand-in interferer plus the residual of the L1 fit."""

    x_h: float
    y_h: float
    p_h: float
    residual: float

    def as_scenario(self, s: Scenario) -> Scenario:
        """Scenario with the fitted source installed as the interferer."""
        return Scenario(s.distance_tx_rx, self.x_h, self.y_h,
                        s.p_tx, s.p_uav, self.p_h, s.h_min, s.h_max,
                        s.channel, s.d_min)


def total_interference(sources: Sequence[InterferenceSource],
                       x, y: float, h, eta: float):
    """Aggregate interference power density at (x, y, h).

    Each source contributes p_i / eta / ((x - x_i)^2 + y_i^2 + h^2); the
    source offsets use the source's own y coordinate, not the query's.  x and
    h may be floats or numpy arrays that broadcast together.  A square that
    overflows a Python float (a source's y, or a float x or h, beyond about
    1.3e154 m) raises DomainError.
    """
    if not np.all(np.isfinite(x)):
        raise DomainError("x must be finite")
    if not np.all((h > 0.0) & np.isfinite(h)):
        raise DomainError("h must be finite and > 0")
    require_positive("eta", eta)
    try:
        return sum(src.power / eta / ((x - src.x) ** 2 + src.y ** 2 + h ** 2)
                   for src in sources)
    except OverflowError:
        raise DomainError(
            "a squared source offset or altitude overflows a float") from None


def _golden_min(f, lo: float, hi: float, iters: int = GOLDEN_ITERS) -> float:
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def _power_floors(denom: np.ndarray, target: np.ndarray, cell: float,
                  lo: float, hi: float) -> np.ndarray:
    """Lower bounds on the power search's value, one per candidate denominator.

    For fixed denominators den_i (the leading axis of `denom` runs over
    candidates), cell * sum_i |p/den_i - t_i| is convex and piecewise linear
    in p.  Its minimum over [lo, hi] lies at the weighted median of t_i*den_i
    with weights 1/den_i, clipped to [lo, hi].  The value there, less 1e-9 of
    the field mass cell * sum_i (hi/den_i + t_i), bounds what the golden
    section can return from below, rounding included.
    """
    den = denom.reshape(len(denom), -1)
    t = target.reshape(-1)
    knots = t * den
    rank = np.argsort(knots, axis=1)
    weight = np.cumsum(np.take_along_axis(1.0 / den, rank, axis=1), axis=1)
    median = (weight < 0.5 * weight[:, -1:]).sum(axis=1)
    rows = np.arange(len(den))
    p = np.clip(knots[rows, rank[rows, median]], lo, hi)[:, None]
    value = np.abs(p / den - t).sum(axis=1) * cell
    mass = (hi / den + t).sum(axis=1) * cell
    return value - 1e-9 * mass


def fit_hypothetical_msi(sources: Sequence[InterferenceSource], s: Scenario,
                         grid: tuple[int, int] = (128, 32)) -> HypotheticalMsi:
    """Fit one source minimizing the discretized L1 mismatch over the region.

    The objective compares the candidate field p_h/((x-x_h)^2+y_h^2+h^2) to
    the aggregate over a midpoint grid of [0, D] x [h_min, h_max].  Seeds a
    16x16 grid of (x_h, y_h), closes p_h by golden section per seed, then
    runs coordinate descent until the relative improvement drops below 1e-6.
    The exact power step (a weighted median) gives each seed a lower bound
    and prunes the seeds that cannot win, so the golden section runs on few
    seeds and the answer equals the full scan's.  x_h stays in [0, D]: a
    lone source beyond the Tx-Rx span is not recovered.
    """
    if not sources:
        raise DomainError("need at least one interference source")
    nx, nh = grid
    if nx < 1 or nh < 1:
        raise DomainError("fit grid needs at least one cell per axis")
    D = s.distance_tx_rx
    dx = D / nx
    dh = (s.h_max - s.h_min) / nh if s.h_max > s.h_min else 1.0
    xg = (np.arange(nx) + 0.5) * dx
    hg = s.h_min + (np.arange(nh) + 0.5) * dh
    xx = xg[:, None]
    hh = hg[None, :]
    target = total_interference(sources, xx, 0.0, hh, 1.0)
    hh2 = hh ** 2
    cell = dx * dh
    p_total = sum(src.power for src in sources)
    lo, hi = p_total * 1e-6, p_total * 4.0
    buf = np.empty_like(target)

    def mismatch(denom: np.ndarray, p_h: float) -> float:
        # Works in buf, with no temporaries; denom may be buf itself.
        np.divide(p_h, denom, out=buf)
        np.subtract(buf, target, out=buf)
        np.abs(buf, out=buf)
        return float(buf.sum() * cell)

    def objective(x_h: float, y_h: float, p_h: float) -> float:
        np.add((xx - x_h) ** 2 + y_h ** 2, hh2, out=buf)
        return mismatch(buf, p_h)

    def best_power(x_h: float, y_h: float) -> tuple[float, float]:
        # Only p varies in the golden section: build the distances once.
        denom = (xx - x_h) ** 2 + y_h ** 2 + hh2
        p = _golden_min(lambda q: mismatch(denom, q), lo, hi)
        return p, mismatch(denom, p)

    # The field depends on y_h only through y_h^2: search y_h >= 0 out to
    # twice the farthest source on either side of the axis.
    y_span = 2.0 * max(abs(src.y) for src in sources)
    xs = np.linspace(0.0, D, SEED_GRID)
    ys = np.linspace(0.0, max(y_span, 1e-9), SEED_GRID)
    seeds = [(float(x0), float(y0)) for x0 in xs for y0 in ys]
    # Every seed's golden-section value is at least its floor, so run the
    # seeds in order of floor and stop once the next floor is above the best
    # value found: the winner is the ordered scan's, the first seed of least
    # value.  A field too large for finite floors runs every seed in order.
    ys2 = np.float_power(ys, 2.0)[:, None, None]
    floor = np.concatenate([
        _power_floors((xx - x0) ** 2 + ys2 + hh2, target, cell, lo, hi)
        for x0 in xs])
    if not np.isfinite(floor).all():
        floor[:] = -np.inf
    best = None
    for k in np.argsort(floor, kind="stable"):
        if best is not None and floor[k] > best[3]:
            break
        p0, val = best_power(*seeds[k])
        if best is None or val < best[3] or (val == best[3] and k < best[4]):
            best = [*seeds[k], p0, val, k]
    x_h, y_h, p_h, val, _ = best

    # Coordinate descent: golden section on each coordinate in turn.
    span_x = D / SEED_GRID
    span_y = max(y_span, 1e-9) / SEED_GRID
    for _ in range(200):
        prev = val
        x_h = _golden_min(lambda q: objective(q, y_h, p_h),
                          max(0.0, x_h - span_x), min(D, x_h + span_x))
        y_h = _golden_min(lambda q: objective(x_h, q, p_h),
                          max(0.0, y_h - span_y), y_h + span_y)
        p_h, val = best_power(x_h, y_h)
        if prev - val <= COORD_DESCENT_RTOL * max(prev, 1e-300):
            break
    return HypotheticalMsi(x_h, y_h, p_h, val)
