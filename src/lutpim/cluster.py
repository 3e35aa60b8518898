"""Nine-core cluster: router, microprogram interpreter, and the 8-step 8-bit MAC.

The MAC decomposes a*b into four 4x4-bit partial products computed in parallel
(step 1) followed by seven nibble-serial addition steps, filling the published
6.4 ns / 0.8 ns-per-step budget exactly. A wider MAC runs as one 8-bit MAC per
pair of operand bytes (`operand_bytes`).
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .lut_core import LutCore, OpTag, UnprogrammedCoreError, build_function_table

CLUSTER_CORES = 9
MAC_STEPS = 8
MAC_DELAY_NS = 6.4
CLUSTER_POWER_MW_LOW = 8.2
CLUSTER_POWER_MW_HIGH = 11.0
CLUSTER_POWER_MW_NOMINAL = (CLUSTER_POWER_MW_LOW + CLUSTER_POWER_MW_HIGH) / 2

ACCUMULATOR_BITS = 32
_ACC_LIMIT = 1 << ACCUMULATOR_BITS


class AccumulatorOverflowError(RuntimeError):
    """32-bit cluster accumulator exceeded; simulation must halt."""


def check_accumulator(acc) -> None:
    """Raise AccumulatorOverflowError if any lane of acc (an int or an int64 array) has reached 2**32."""
    if _any(acc >= _ACC_LIMIT):
        raise AccumulatorOverflowError(f"accumulator overflow: a lane exceeds {ACCUMULATOR_BITS} bits")


class MicroprogramError(ValueError):
    """Malformed microprogram: bad core index, step conflict, or operand source."""


@dataclass(frozen=True)
class MacEnergy:
    nominal_pj: float
    low_pj: float
    high_pj: float


def mac_energy_pj() -> MacEnergy:
    """Per-MAC energy from published power x delay (nominal = range midpoint)."""
    return MacEnergy(
        nominal_pj=CLUSTER_POWER_MW_NOMINAL * MAC_DELAY_NS,
        low_pj=CLUSTER_POWER_MW_LOW * MAC_DELAY_NS,
        high_pj=CLUSTER_POWER_MW_HIGH * MAC_DELAY_NS,
    )


MAC_ENERGY_NOMINAL_PJ = mac_energy_pj().nominal_pj


# Operand sources: ("in", name) reads a nibble of the program inputs,
# ("core", idx, "lo"|"hi") reads a nibble of core idx's last output,
# ("imm", v) is a literal nibble.
Src = tuple


def _check_src(src: Src) -> None:
    if src[0] not in ("in", "core", "imm"):
        raise MicroprogramError(f"unknown source {src!r}")


@dataclass(frozen=True)
class CoreOp:
    core: int
    table: OpTag
    src_a: Src
    src_b: Src


@dataclass(frozen=True)
class ClusterMicroprogram:
    """Ordered schedule of parallel core lookups plus the output nibble list.

    A run's cost is fixed by the text, so it is counted here once, per lane:
    (core, lookups, last table) per core used, (src, dst) per operand transfer.
    """

    steps: tuple[tuple[CoreOp, ...], ...]
    outputs: tuple[Src, ...]
    lookups: tuple = field(init=False, repr=False, compare=False)
    transfers: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lookups, last_table, transfers = Counter(), {}, []
        for n, step in enumerate(self.steps):
            seen = set()
            for op in step:
                if not 0 <= op.core < CLUSTER_CORES:
                    raise MicroprogramError(f"step {n}: core {op.core} out of range")
                if op.core in seen:
                    raise MicroprogramError(f"step {n}: core {op.core} used twice")
                seen.add(op.core)
                lookups[op.core] += 1
                last_table[op.core] = op.table
                for src in (op.src_a, op.src_b):
                    _check_src(src)
                    if src[0] == "core" and src[1] != op.core:
                        transfers.append((src[1], op.core))
        for src in self.outputs:
            _check_src(src)
        object.__setattr__(self, "lookups", tuple((c, n, last_table[c]) for c, n in lookups.items()))
        object.__setattr__(self, "transfers", tuple(transfers))


@dataclass
class RouterState:
    """Any-to-any core interconnect; counts routed operand bytes per (src, dst) core."""

    transfer_log: Counter = field(default_factory=Counter)


def _any(flags) -> bool:
    """Whether any lane's flag is set; flags is a bool or a numpy bool array."""
    return flags if isinstance(flags, bool) else bool(flags.any())


@functools.cache
def _table(tag: OpTag):
    """(table, its assembled bytes, the same as a read-only int64 array), built once per process."""
    raw = (table := build_function_table(tag)).assembled_bytes()
    gather = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
    gather.flags.writeable = False
    return table, raw, gather


@dataclass
class Cluster:
    """Nine LUT cores, a router, and a 32-bit accumulator register.

    Inputs and the accumulator are ints (one lane) or int64 arrays that
    broadcast to one lane per cluster, every lane in the same step.
    """

    cores: list[LutCore] = field(default_factory=lambda: [LutCore() for _ in range(CLUSTER_CORES)])
    router: RouterState = field(default_factory=RouterState)
    accumulator: int | np.ndarray = 0
    step_counter: int = 0
    # each core's last output byte(s); None until the core's first lookup
    _latched: list = field(default_factory=lambda: [None] * CLUSTER_CORES, init=False, repr=False)

    def __post_init__(self):
        if len(self.cores) != CLUSTER_CORES:
            raise MicroprogramError(f"cluster requires exactly {CLUSTER_CORES} cores")

    def _read(self, src: Src, inputs: dict):
        """One operand nibble per lane."""
        kind = src[0]
        if kind == "in":
            try:
                return inputs[src[1]]
            except KeyError:
                raise MicroprogramError(f"undefined input operand {src[1]!r}") from None
        if kind == "core":
            out = self._latched[src[1]]
            if out is None:
                raise UnprogrammedCoreError(f"core {src[1]} read before any lookup")
            return out >> 4 if src[2] == "hi" else out & 15
        return src[1] & 15

    def run_microprogram(self, prog: ClusterMicroprogram, inputs: dict) -> list:
        """Execute steps in order on every lane; within a step all lookups read pre-step state.

        A lookup is one gather from the core's table: bytes for one lane, int64 for many."""
        for name, v in inputs.items():
            if _any((v < 0) | (v > 15)):
                raise ValueError(f"input operand {name!r} must be 4-bit")
        arrays = [v for v in inputs.values() if not isinstance(v, int)]
        lanes = np.broadcast(*arrays).size if arrays else 1
        read, table, latched = self._read, _table, self._latched
        for step in prog.steps:
            outs = []
            for op in step:
                _, raw, gather = table(op.table)
                index = (read(op.src_a, inputs) << 4) | read(op.src_b, inputs)
                outs.append(raw[index] if isinstance(index, int) else gather[index])
            # Latch only after every lookup of the step has read its operands.
            for op, out in zip(step, outs):
                latched[op.core] = out
        self.step_counter += len(prog.steps)
        for idx, n, tag in prog.lookups:
            core = self.cores[idx]
            core.lookup_count += n * lanes
            if core.table is not (built := table(tag)[0]):
                core.program(built)
        log = self.router.transfer_log
        if lanes == 1:
            log.update(prog.transfers)  # counted in C: the scalar MAC's hot path
        else:
            log.update({route: n * lanes for route, n in Counter(prog.transfers).items()})
        return [read(src, inputs) for src in prog.outputs]


def mac_microprogram() -> ClusterMicroprogram:
    """The 8-step MAC: 4 parallel MUL4 partial products, then carry-chained ADD4s.

    With a = (AH, AL) and b = (BH, BL):
      P0..P3 = AL*BL, AH*BL, AL*BH, AH*BH            (cores 0-3, step 1)
      A1 = P1.lo + P2.lo ; B1 = P1.hi + P2.hi        (cores 4, 5)
      A2 = P0.hi + A1.lo  -> result nibble 1         (core 6)
      B2 = B1.lo + P3.lo                             (core 7)
      C1 = A1.hi + A2.hi                             (core 4)
      B3 = B2.lo + C1.lo  -> result nibble 2         (core 8)
      C2 = B1.hi + B2.hi                             (core 5)
      C3 = C2.lo + B3.hi                             (core 7)
      R3 = P3.hi + C3.lo  -> result nibble 3         (core 4)
    Result nibble 0 is P0.lo.
    """
    mul = OpTag.MUL4
    add = OpTag.ADD4
    steps = (
        (
            CoreOp(0, mul, ("in", "AL"), ("in", "BL")),
            CoreOp(1, mul, ("in", "AH"), ("in", "BL")),
            CoreOp(2, mul, ("in", "AL"), ("in", "BH")),
            CoreOp(3, mul, ("in", "AH"), ("in", "BH")),
        ),
        (
            CoreOp(4, add, ("core", 1, "lo"), ("core", 2, "lo")),
            CoreOp(5, add, ("core", 1, "hi"), ("core", 2, "hi")),
        ),
        (
            CoreOp(6, add, ("core", 0, "hi"), ("core", 4, "lo")),
            CoreOp(7, add, ("core", 5, "lo"), ("core", 3, "lo")),
        ),
        (CoreOp(4, add, ("core", 4, "hi"), ("core", 6, "hi")),),
        (CoreOp(8, add, ("core", 7, "lo"), ("core", 4, "lo")),),
        (CoreOp(5, add, ("core", 5, "hi"), ("core", 7, "hi")),),
        (CoreOp(7, add, ("core", 5, "lo"), ("core", 8, "hi")),),
        (CoreOp(4, add, ("core", 3, "hi"), ("core", 7, "lo")),),
    )
    outputs = (
        ("core", 0, "lo"),
        ("core", 6, "lo"),
        ("core", 8, "lo"),
        ("core", 4, "lo"),
    )
    return ClusterMicroprogram(steps=steps, outputs=outputs)


_MAC_PROG = mac_microprogram()


def mac8(cluster: Cluster, a, b):
    """Accumulate a*b exactly in 8 core-steps on every lane; returns the new accumulator."""
    if _any((a < 0) | (a > 255) | (b < 0) | (b > 255)):
        raise ValueError(f"mac8 operands must be 8-bit, got a={a}, b={b}")
    n0, n1, n2, n3 = cluster.run_microprogram(
        _MAC_PROG,
        {"AH": a >> 4, "AL": a & 15, "BH": b >> 4, "BL": b & 15},
    )
    acc = cluster.accumulator + (n0 | n1 << 4 | n2 << 8 | n3 << 12)
    check_accumulator(acc)
    cluster.accumulator = acc
    return acc


def operand_bytes(bits: int) -> int:
    """Bytes per `bits`-bit operand: a bits-bit MAC runs as operand_bytes(bits)**2 mac8 passes, one per byte pair."""
    return (bits + 7) // 8
