"""Bank-level configuration, communication cost constants, and the energy ledger."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .cluster import MAC_DELAY_NS, MAC_ENERGY_NOMINAL_PJ
from .quantizer import SUPPORTED_BITS

UJ_TO_PJ = 1e6

INTRA_DELAY_NS = 63.0
INTRA_ENERGY_UJ = 0.028
INTER_DELAY_NS = {1: 148.5, 7: 196.5, 15: 260.5}
INTER_ENERGY_UJ = {1: 0.09, 7: 0.12, 15: 0.17}
HOP_CLASSES = (1, 7, 15)


class HopClassError(ValueError):
    """Hop count outside the published inter-subarray classes."""


@dataclass(frozen=True)
class SystemConfig:
    cluster_count: int = 256
    clusters_per_subarray: int = 16
    precision_bits: int = 8

    def __post_init__(self):
        if self.cluster_count < 1:
            raise ValueError("cluster_count must be >= 1")
        if self.clusters_per_subarray < 1 or self.cluster_count % self.clusters_per_subarray:
            raise ValueError("clusters_per_subarray must divide cluster_count")
        if self.precision_bits not in SUPPORTED_BITS:
            raise ValueError(f"precision_bits must be one of {{{', '.join(map(str, SUPPORTED_BITS))}}}")


def hop_class(hops: int) -> int:
    """Map a hop count UP to the next published class (no interpolation)."""
    if hops < 1:
        raise HopClassError(f"hop count must be >= 1, got {hops}")
    for cls in HOP_CLASSES:
        if hops <= cls:
            return cls
    raise HopClassError(f"hop count {hops} exceeds the largest published class (15)")


@dataclass
class EnergyLedger:
    """Event log of (category, count, ns, pJ); every total is a sum over it."""

    events: list[tuple[str, int, float, float]] = field(default_factory=list)

    def account_macs(self, cfg: SystemConfig, mac_count: int, passes: int = 1) -> "EnergyLedger":
        """Charge mac_count MACs spread evenly over all clusters (ceiling on stragglers).

        Multi-pass precisions repeat the whole wave sweep `passes` times, so the
        event counts mac_count * passes effective MACs.
        """
        if mac_count < 0:
            raise ValueError("mac_count must be nonnegative")
        if mac_count == 0:
            return self
        ns = math.ceil(mac_count / cfg.cluster_count) * passes * MAC_DELAY_NS
        pj = mac_count * passes * MAC_ENERGY_NOMINAL_PJ
        self.events.append(("mac", mac_count * passes, ns, pj))
        return self

    def account_transfer(self, kind: str, hops: int | None = None, count: int = 1) -> "EnergyLedger":
        """Charge `count` transfers of one kind as a single event."""
        if count < 0:
            raise ValueError("count must be nonnegative")
        if kind == "intra":
            ns, pj = count * INTRA_DELAY_NS, count * INTRA_ENERGY_UJ * UJ_TO_PJ
            label = "intra"
        elif kind == "inter":
            cls = hop_class(1 if hops is None else hops)
            ns, pj = count * INTER_DELAY_NS[cls], count * INTER_ENERGY_UJ[cls] * UJ_TO_PJ
            label = f"inter[{cls}]"
        else:
            raise ValueError(f"unknown transfer kind {kind!r}")
        if count:
            self.events.append((label, count, ns, pj))
        return self

    def _sum(self, column: int, mac: bool | None = None) -> float:
        """Sum ns (column 2) or pJ (column 3) over all events, or over MAC or transfer events only."""
        return sum((e[column] for e in self.events if mac is None or (e[0] == "mac") == mac), 0.0)

    total_ns = property(lambda self: self._sum(2))
    total_pj = property(lambda self: self._sum(3))
    compute_ns = property(lambda self: self._sum(2, mac=True))
    compute_pj = property(lambda self: self._sum(3, mac=True))
    comm_ns = property(lambda self: self._sum(2, mac=False))
    comm_pj = property(lambda self: self._sum(3, mac=False))

    @property
    def mac_count(self) -> int:
        return sum(n for cat, n, _, _ in self.events if cat == "mac")

    def event_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for cat, n, _, _ in self.events:
            counts[cat] = counts.get(cat, 0) + n
        return counts

    def summary(self) -> dict:
        """Exact totals plus per-category breakdown; idempotent."""
        breakdown: dict[str, dict] = {}
        for cat, n, ns, pj in self.events:
            slot = breakdown.setdefault(cat, {"count": 0, "ns": 0.0, "pj": 0.0})
            slot["count"] += n
            slot["ns"] += ns
            slot["pj"] += pj
        return {
            "total_ns": self.total_ns,
            "total_pj": self.total_pj,
            "compute_ns": self.compute_ns,
            "comm_ns": self.comm_ns,
            "compute_pj": self.compute_pj,
            "comm_pj": self.comm_pj,
            "breakdown": breakdown,
        }
