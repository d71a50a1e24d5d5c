"""Path-loss and SIR evaluation for UAV relay links under a dominant ground interferer.

All SIR values are linear-scale ratios.  The transmitter sits at the origin,
the receiver at (D, 0, 0) and the interferer at (msi_x, msi_y, 0); relays fly
in the y = 0 plane at altitudes inside [h_min, h_max].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .errors import DomainError

if TYPE_CHECKING:  # pragma: no cover
    from .multihop import Placement

SPEED_OF_LIGHT = 299_792_458.0

#: Relative tolerance on sum(hop_distances) == D.
HOP_SUM_RTOL = 1e-6


def require_positive(name: str, value: float) -> None:
    """Raise DomainError unless value is a finite number > 0 (NaN fails)."""
    if not (value > 0.0 and math.isfinite(value)):
        raise DomainError(f"{name} must be finite and > 0, got {value!r}")


def require_non_negative(name: str, value: float) -> None:
    """Raise DomainError unless value is a finite number >= 0 (NaN fails)."""
    if not (value >= 0.0 and math.isfinite(value)):
        raise DomainError(f"{name} must be finite and >= 0, got {value!r}")


def require_altitude(s: Scenario, h: float) -> None:
    """Raise DomainError unless h lies in [h_min, h_max] (NaN fails)."""
    if not (s.h_min <= h <= s.h_max):
        raise DomainError("h outside [h_min, h_max]")


@dataclass(frozen=True)
class ChannelParams:
    """Attenuation coefficients of the d**2 path-loss model.

    A link of length d attenuates by mu_los * d**2 (UAV to UAV, LoS),
    mu_nlos * d**2 (ground to ground, NLoS) or eta_nlos * d**2 (air to
    ground).  Every closed form of the planners relies on the square.
    """

    mu_los: float
    mu_nlos: float
    eta_nlos: float

    def __post_init__(self):
        for name in ("mu_los", "mu_nlos", "eta_nlos"):
            require_positive(f"ChannelParams.{name}", getattr(self, name))

    @classmethod
    def from_carrier(cls, carrier_frequency: float, excess_loss_los: float,
                     excess_loss_nlos: float, *,
                     eta_nlos: float | None = None) -> "ChannelParams":
        """Build the coefficients mu = C * (4*pi*f/c)**2 from raw inputs."""
        require_positive("carrier_frequency", carrier_frequency)
        require_positive("excess_loss_los", excess_loss_los)
        require_positive("excess_loss_nlos", excess_loss_nlos)
        k = (4.0 * math.pi * carrier_frequency / SPEED_OF_LIGHT) ** 2
        return cls.from_coefficients(excess_loss_los * k, excess_loss_nlos * k,
                                     eta_nlos=eta_nlos)

    @classmethod
    def from_coefficients(cls, mu_los: float, mu_nlos: float, *,
                          eta_nlos: float | None = None) -> "ChannelParams":
        """Build directly from the coefficients; eta_nlos defaults to mu_los."""
        return cls(mu_los, mu_nlos, mu_los if eta_nlos is None else eta_nlos)

    @property
    def nlos_over_eta(self) -> float:
        """Ratio mu_nlos / eta_nlos appearing in the receiver-side SIR."""
        return self.mu_nlos / self.eta_nlos


@dataclass(frozen=True)
class Scenario:
    """Geometry, transmit powers and altitude band of one planning problem."""

    distance_tx_rx: float
    msi_x: float
    msi_y: float
    p_tx: float
    p_uav: float
    p_msi: float
    h_min: float
    h_max: float
    channel: ChannelParams
    d_min: float = 0.0

    def __post_init__(self):
        for name in ("distance_tx_rx", "p_tx", "p_uav", "p_msi", "h_min", "h_max"):
            require_positive(name, getattr(self, name))
        for name in ("msi_y", "d_min"):
            require_non_negative(name, getattr(self, name))
        if not (0.0 <= self.msi_x <= self.distance_tx_rx):
            raise DomainError("msi_x must lie in [0, distance_tx_rx]")
        if self.h_min > self.h_max:
            raise DomainError("need h_min <= h_max")


@dataclass(frozen=True)
class SirReport:
    """Per-link SIRs of a relay chain; the system SIR is the worst link."""

    per_link: tuple[float, ...]
    system_sir: float
    bottleneck_index: int

    @classmethod
    def from_links(cls, links: Sequence[float]) -> "SirReport":
        links = tuple(float(v) for v in links)
        idx = min(range(len(links)), key=lambda i: links[i])  # first on ties
        return cls(links, links[idx], idx)


def sir_tx_link(s: Scenario, d1, h):
    """SIR of the Tx -> UAV link, the UAV at horizontal distance d1 and altitude h.

    Signal and interference are both ground-to-air, so eta cancels.  Like
    the other two link kernels it uses plain arithmetic only: Python floats
    give a float, numpy arrays broadcast.
    """
    return (s.p_tx * ((s.msi_x - d1) ** 2 + s.msi_y ** 2 + h ** 2)
            / (s.p_msi * (d1 ** 2 + h ** 2)))


def sir_air_link(s: Scenario, pos, link_sq, h):
    """SIR of a UAV -> UAV link (air-to-air LoS).

    The receiving UAV sits at horizontal position pos and altitude h;
    link_sq is the squared 3-D length of the hop.
    """
    return (s.p_uav * s.channel.eta_nlos
            * ((s.msi_x - pos) ** 2 + s.msi_y ** 2 + h ** 2)
            / (s.channel.mu_los * s.p_msi * link_sq))


def sir_rx_link(s: Scenario, d_last, h):
    """SIR of the UAV -> Rx link, the UAV d_last short of the Rx at altitude h.

    Air-to-ground signal, ground-to-ground interference.
    """
    ch = s.channel
    return (s.p_uav * ch.mu_nlos
            * ((s.msi_x - s.distance_tx_rx) ** 2 + s.msi_y ** 2)
            / (ch.eta_nlos * s.p_msi * (d_last ** 2 + h ** 2)))


def sir_system_dual(s: Scenario, x: float, h: float) -> SirReport:
    """Decode-and-forward system SIR of the dual-hop link (min of the two)."""
    if not (0.0 <= x <= s.distance_tx_rx):
        raise DomainError("x outside [0, D]")
    require_altitude(s, h)
    return SirReport.from_links((sir_tx_link(s, x, h),
                                 sir_rx_link(s, s.distance_tx_rx - x, h)))


def _check_hop_sum(s: Scenario, hops: Sequence[float]) -> None:
    if len(hops) < 2:
        raise DomainError("a chain needs at least two hops (one UAV)")
    if any(d < 0.0 for d in hops):
        raise DomainError("hop distances must be >= 0")
    if abs(sum(hops) - s.distance_tx_rx) > HOP_SUM_RTOL * s.distance_tx_rx:
        raise DomainError("hop distances must sum to distance_tx_rx")


def multihop_link_sirs(s: Scenario, hops: Sequence[float],
                       h: float | Sequence[float]) -> list[float]:
    """Per-link SIRs of a chain Tx -> UAV_1 .. UAV_N -> Rx.

    h is one altitude shared by every UAV, or one altitude per UAV.  A
    middle link spans the 3-D distance sqrt(d_k**2 + (h_k - h_{k-1})**2);
    the interferer is seen from the receiving node of every link.
    """
    alts = h if hasattr(h, "__len__") else [h] * (len(hops) - 1)
    if len(alts) != len(hops) - 1:
        raise DomainError("need one altitude per UAV")
    pos = hops[0]
    links = [sir_tx_link(s, pos, alts[0])]
    for k in range(1, len(alts)):
        pos += hops[k]
        link_sq = hops[k] ** 2 + (alts[k] - alts[k - 1]) ** 2
        if hops[k] < 0.0 or link_sq <= 0.0:
            raise DomainError(
                "negative middle hop or coincident consecutive UAVs")
        links.append(sir_air_link(s, pos, link_sq, alts[k]))
    links.append(sir_rx_link(s, hops[-1], alts[-1]))
    return links


def sir_multihop(s: Scenario, placement: "Placement") -> SirReport:
    """SIR report of a multi-hop chain, uniform or per-UAV altitudes."""
    hops = tuple(placement.hop_distances)
    alts = tuple(placement.altitudes)
    _check_hop_sum(s, hops)
    if len(alts) != len(hops) - 1:
        raise DomainError("need one altitude per UAV")
    for h in alts:
        require_altitude(s, h)
    # Safe-guard on the 3-D separation of consecutive airborne nodes.
    for k in range(1, len(alts)):
        sep = math.hypot(hops[k], alts[k] - alts[k - 1])
        if sep < s.d_min:
            raise DomainError("3-D UAV separation below d_min")
    return SirReport.from_links(multihop_link_sirs(s, hops, alts))
