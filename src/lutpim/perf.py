"""Analytic latency/energy mapper: NetworkSpec -> per-layer and total PerfReport.

Conv/dense MACs run on the clusters (ceil-spread over cluster_count at 6.4 ns
per wave); element-wise layers charge one intra-subarray transfer per 256
output elements; each MAC layer charges one hop-1 inter-subarray transfer per
16 clusters used for weight distribution. `charge_layer` is the one place
these costs are computed: `layer_cost` reads them back from a ledger, and
`engine.infer_lut` charges its ledger through it once per layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cluster import operand_bytes
from .nets import LayerSpec, NetworkSpec
from .quantizer import SUPPORTED_BITS
from .system import EnergyLedger, SystemConfig

ELEMENTS_PER_INTRA_TRANSFER = 256
CLUSTERS_PER_WEIGHT_TRANSFER = 16

# Published cross-device comparison ratios for AlexNet at 8-bit; these are
# reference annotations only, no external device is simulated here.
PAPER_BASELINE_ANNOTATIONS = (
    "paper-reported, not simulated: 4.02x / 45x higher throughput vs GPU (Pascal Titan X) / CPU (Knights Landing)",
    "paper-reported, not simulated: 74.62x / 64.13x higher energy efficiency vs GPU / CPU",
    "paper-reported, not simulated: 0.065x / 1.09x throughput and 29.25x / 1.5x power efficiency vs DRISA / LAcc",
)

RESNET50_CLAIM_NOTE = (
    "documented discrepancy: the published single-frame figure for resnet50 is "
    "'processed within 10 ms', but a flat 256-cluster compute-bound estimate of "
    "~4.1 GMACs lands near 100 ms; the gap is reported, not tuned away"
)


@dataclass(frozen=True)
class LayerCost:
    name: str
    kind: str
    mac_count: int
    macs_effective: int
    intra_transfers: int
    inter_transfers: int
    latency_ns: float
    energy_pj: float


@dataclass(frozen=True)
class PerfReport:
    network: str
    precision_bits: int
    cluster_count: int
    layers: tuple[LayerCost, ...]
    total_macs: int
    latency_ns: float
    energy_pj: float
    notes: tuple[str, ...] = ()

    @property
    def throughput_fps(self) -> float:
        return 1e9 / self.latency_ns

    @property
    def energy_j(self) -> float:
        return self.energy_pj * 1e-12

    @property
    def frames_per_joule(self) -> float:
        return 1.0 / self.energy_j


def mac_count(layer: LayerSpec) -> int:
    """Multiplies per layer from the closed-form shape formulas."""
    kind = layer.kind
    if kind == "conv2d":
        kh, kw = layer.kernel
        c, h, w = layer.out_shape
        return kh * kw * layer.in_channels * h * w * c
    if kind == "depthwise_conv2d":
        kh, kw = layer.kernel
        c, h, w = layer.out_shape
        return kh * kw * h * w * c
    if kind == "dense":
        return layer.in_features * layer.out_features
    if kind == "residual_add":
        if layer.proj:
            c, h, w = layer.out_shape
            return layer.proj_in_shape[0] * c * h * w
        return 0
    if kind in ("maxpool2d", "relu", "flatten", "softmax"):
        return 0
    raise ValueError(f"unknown layer kind {kind!r}")


def intra_transfer_events(layer: LayerSpec) -> int:
    """Element-wise layers move one output tile of 256 elements per event."""
    if layer.kind not in ("maxpool2d", "relu", "residual_add"):
        return 0
    n = 1
    for d in layer.out_shape:
        n *= d
    return math.ceil(n / ELEMENTS_PER_INTRA_TRANSFER)


def weight_transfer_events(macs_effective: int, cfg: SystemConfig) -> int:
    """Hop-1 inter-subarray events for distributing weights to the clusters used."""
    if macs_effective == 0:
        return 0
    clusters_used = min(cfg.cluster_count, macs_effective)
    return math.ceil(clusters_used / CLUSTERS_PER_WEIGHT_TRANSFER)


def charge_layer(
    ledger: EnergyLedger, layer: LayerSpec, cfg: SystemConfig, precision_bits: int
) -> EnergyLedger:
    """Charge one layer's MAC, intra and inter events, each as one event carrying its count.

    A precision_bits-bit MAC is operand_bytes(precision_bits)**2 mac8 passes,
    as the cluster engine runs it. The passes run sequentially inside each
    cluster, so they multiply whole wave sweeps: 16-bit is exactly 4x 8-bit.
    """
    macs = mac_count(layer)
    passes = operand_bytes(precision_bits) ** 2
    ledger.account_macs(cfg, macs, passes)
    ledger.account_transfer("intra", count=intra_transfer_events(layer))
    ledger.account_transfer("inter", 1, count=weight_transfer_events(macs * passes, cfg))
    return ledger


def layer_cost(layer: LayerSpec, cfg: SystemConfig, precision_bits: int) -> LayerCost:
    ledger = charge_layer(EnergyLedger(), layer, cfg, precision_bits)
    counts = ledger.event_counts()
    return LayerCost(
        name=layer.name,
        kind=layer.kind,
        mac_count=mac_count(layer),
        macs_effective=counts.get("mac", 0),
        intra_transfers=counts.get("intra", 0),
        inter_transfers=counts.get("inter[1]", 0),
        latency_ns=ledger.total_ns,
        energy_pj=ledger.total_pj,
    )


def estimate(net: NetworkSpec, cfg: SystemConfig, precision_bits: int) -> PerfReport:
    """Sequential per-layer cost model (no inter-layer pipelining)."""
    if precision_bits not in SUPPORTED_BITS:
        raise ValueError(f"precision_bits must be one of {list(SUPPORTED_BITS)}")
    net.validate()
    layers = tuple(layer_cost(layer, cfg, precision_bits) for layer in net.layers)
    notes = []
    if net.name == "resnet50":
        notes.append(RESNET50_CLAIM_NOTE)
    return PerfReport(
        network=net.name,
        precision_bits=precision_bits,
        cluster_count=cfg.cluster_count,
        layers=layers,
        total_macs=sum(lc.mac_count for lc in layers),
        latency_ns=sum(lc.latency_ns for lc in layers),
        energy_pj=sum(lc.energy_pj for lc in layers),
        notes=tuple(notes),
    )


CSV_HEADER = "network,precision_bits,clusters,total_macs,latency_ns,throughput_fps,energy_j,frames_per_joule"


def report_csv(reports) -> str:
    """Stable CSV export, rows sorted by (network, precision)."""
    lines = [CSV_HEADER]
    for r in sorted(reports, key=lambda r: (r.network, r.precision_bits)):
        lines.append(
            f"{r.network},{r.precision_bits},{r.cluster_count},{r.total_macs},"
            f"{r.latency_ns!r},{r.throughput_fps!r},{r.energy_j!r},{r.frames_per_joule!r}"
        )
    return "\n".join(lines) + "\n"


def layer_csv(report: PerfReport) -> str:
    lines = ["layer,kind,mac_count,macs_effective,intra_transfers,inter_transfers,latency_ns,energy_pj"]
    for lc in report.layers:
        lines.append(
            f"{lc.name},{lc.kind},{lc.mac_count},{lc.macs_effective},"
            f"{lc.intra_transfers},{lc.inter_transfers},{lc.latency_ns!r},{lc.energy_pj!r}"
        )
    return "\n".join(lines) + "\n"


def compare_table(rows) -> str:
    """fps / frames-per-joule table from (network, bits, fps, frames/J, notes) rows."""
    width = max((len(row[0]) for row in rows), default=8) + 2
    lines = [f"{'network':<{width}}{'bits':>5}{'fps':>16}{'frames/J':>16}"]
    for network, bits, fps, fpj, notes in sorted(rows, key=lambda row: (row[0], row[1])):
        lines.append(f"{network:<{width}}{bits:>5}{fps:>16.4f}{fpj:>16.4f}")
        for note in notes:
            lines.append(f"  note: {note}")
    for note in PAPER_BASELINE_ANNOTATIONS:
        lines.append(f"ref: {note}")
    return "\n".join(lines) + "\n"


def compare_report(reports) -> str:
    """Side-by-side fps / frames-per-joule table plus static reference annotations."""
    if not reports:
        raise ValueError("compare_report needs at least one report")
    rows = [(r.network, r.precision_bits, r.throughput_fps, r.frames_per_joule, r.notes) for r in reports]
    return compare_table(rows)
