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
                       x: float, y: float, h: float, eta: float) -> float:
    """Aggregate interference power density at (x, y, h).

    Each source contributes p_i / eta / ((x - x_i)^2 + y_i^2 + h^2); the
    source offsets use the source's own y coordinate, not the query's.
    """
    if h <= 0.0:
        raise DomainError("h must be > 0")
    if eta <= 0.0:
        raise DomainError("eta must be > 0")
    return sum(src.power / eta / ((x - src.x) ** 2 + src.y ** 2 + h ** 2)
               for src in sources)


def _field_on_grid(sources: Sequence[InterferenceSource],
                   xg: np.ndarray, hg: np.ndarray) -> np.ndarray:
    """Aggregate p_i/((x-x_i)^2+y_i^2+h^2) on the (x, h) midpoint grid."""
    xx = xg[:, None]
    hh = hg[None, :]
    total = np.zeros((xg.size, hg.size))
    for src in sources:
        total += src.power / ((xx - src.x) ** 2 + src.y ** 2 + hh ** 2)
    return total


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


def fit_hypothetical_msi(sources: Sequence[InterferenceSource], s: Scenario,
                         grid: tuple[int, int] = (128, 32)) -> HypotheticalMsi:
    """Fit one source minimizing the discretized L1 mismatch over the region.

    The objective compares the candidate field p_h/((x-x_h)^2+y_h^2+h^2) to
    the aggregate over a midpoint grid of [0, D] x [h_min, h_max].  Seeds a
    16x16 grid of (x_h, y_h), closes p_h by golden section per seed, then
    runs coordinate descent until the relative improvement drops below 1e-6.
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
    target = _field_on_grid(sources, xg, hg)
    cell = dx * dh
    xx = xg[:, None]
    hh = hg[None, :]
    p_total = sum(src.power for src in sources)

    def objective(x_h: float, y_h: float, p_h: float) -> float:
        cand = p_h / ((xx - x_h) ** 2 + y_h ** 2 + hh ** 2)
        return float(np.abs(cand - target).sum() * cell)

    def best_power(x_h: float, y_h: float) -> tuple[float, float]:
        lo, hi = p_total * 1e-6, p_total * 4.0
        p = _golden_min(lambda q: objective(x_h, y_h, q), lo, hi)
        return p, objective(x_h, y_h, p)

    y_span = 2.0 * max(src.y for src in sources)
    xs = np.linspace(0.0, D, SEED_GRID)
    ys = np.linspace(0.0, max(y_span, 1e-9), SEED_GRID)
    best = None
    for x0 in xs:
        for y0 in ys:
            p0, val = best_power(float(x0), float(y0))
            if best is None or val < best[3]:
                best = [float(x0), float(y0), p0, val]
    x_h, y_h, p_h, val = best

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
