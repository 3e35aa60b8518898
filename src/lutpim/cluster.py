"""Nine-core cluster: router, microprogram runner, and the 8-step 8-bit MAC.

The MAC decomposes a*b into four 4x4-bit partial products computed in parallel
(step 1) followed by seven nibble-serial addition steps, filling the published
6.4 ns / 0.8 ns-per-step budget exactly. A wider MAC runs as one 8-bit MAC per
pair of operand bytes (`operand_bytes`).

A program reads only cores that its own earlier steps wrote, so a run is a
function of its inputs alone; any other program is refused when it is built.
One runner, `_interpret`, runs a program on one lane of Python ints or on
many uint8 byte lanes in lockstep, as many clusters run the same step in
hardware; each core lookup indexes the core's 256-entry table, as bytes for
an int lane and as a uint8 array for lanes. Since a MAC's product depends on
its two bytes alone, the MAC program runs once per process on all 65,536
byte pairs (`_mac_table`), and `mac8` on lanes reads each lane's product
from that table. A run on n lanes counts as n one-lane runs: steps, lookups
and transfers are summed from the cluster's tally of lanes run per program
when they are read.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .lut_core import CORE_DELAY_NS, LutCore, OpTag, build_function_table

CLUSTER_CORES = 9
MAC_STEPS = 8
MAC_DELAY_NS = MAC_STEPS * CORE_DELAY_NS  # 6.4 ns: one core step per microprogram step
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
    """Malformed microprogram: bad core index, step conflict, operand source, or a read of an unwritten core."""


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
# ("core", idx, "lo"|"hi") reads a nibble of the output of core idx, which an
# earlier step of the same program wrote, ("imm", v) is a literal nibble,
# 0 to 15. A program with any other source is refused when it is built.
Src = tuple


@dataclass(frozen=True)
class CoreOp:
    core: int
    table: OpTag
    src_a: Src
    src_b: Src


@dataclass(frozen=True, eq=False)
class ClusterMicroprogram:
    """Ordered schedule of parallel core lookups plus the output nibble list.

    Every core a step or the outputs read must have been written by an
    earlier step; a program that reads any other core is refused here, so a
    run depends on its inputs alone. A run's cost is fixed by the text, so it
    is counted here once, per lane: (core, lookups, last table) per core used
    and ((src, dst), transfers) per core route. `inputs` names the inputs a
    run reads, in order of first use. Programs hash by identity, as
    Cluster.runs keys them.
    """

    steps: tuple[tuple[CoreOp, ...], ...]
    outputs: tuple[Src, ...]
    lookups: tuple = field(init=False, repr=False)
    routes: tuple = field(init=False, repr=False)
    inputs: tuple = field(init=False, repr=False)

    def __post_init__(self):
        lookups, last_table, transfers, inputs = Counter(), {}, [], {}
        for n, step in enumerate(self.steps):
            seen = set()
            for op in step:
                if not 0 <= op.core < CLUSTER_CORES:
                    raise MicroprogramError(f"step {n}: core {op.core} out of range")
                if op.core in seen:
                    raise MicroprogramError(f"step {n}: core {op.core} used twice")
                seen.add(op.core)
                for src in (op.src_a, op.src_b):
                    _note_read(src, f"step {n}", inputs, lookups)
                    if src[0] == "core" and src[1] != op.core:
                        transfers.append((src[1], op.core))
            for op in step:
                lookups[op.core] += 1
                last_table[op.core] = op.table
        for src in self.outputs:
            _note_read(src, "outputs", inputs, lookups)
        object.__setattr__(self, "lookups", tuple((c, n, last_table[c]) for c, n in lookups.items()))
        object.__setattr__(self, "routes", tuple(Counter(transfers).items()))
        object.__setattr__(self, "inputs", tuple(inputs))


def _note_read(src: Src, where: str, inputs: dict, written) -> None:
    """Check one operand source read at `where`, recording an input name in first-use order.

    A source is ("in", name), ("core", idx, "lo" or "hi") with idx in
    `written`, the cores earlier steps wrote, or ("imm", v) with v a nibble,
    0 to 15; anything else raises MicroprogramError naming `where`.
    """
    kind = src[0] if isinstance(src, tuple) and src else None
    if kind == "in" and len(src) == 2:
        inputs.setdefault(src[1])
    elif kind == "core" and len(src) == 3 and src[2] in ("lo", "hi"):
        if src[1] not in written:
            raise MicroprogramError(f"{where}: core {src[1]} is read before any earlier step writes it")
    elif not (kind == "imm" and len(src) == 2 and isinstance(src[1], int) and 0 <= src[1] <= 15):
        raise MicroprogramError(f"{where}: bad operand source {src!r}")


@dataclass
class RouterState:
    """Any-to-any core interconnect: routed operand transfers per (src, dst) core, as Cluster.router reads them."""

    transfer_log: Counter


def _any(flags) -> bool:
    """Whether any lane's flag is set; flags is a bool or a numpy bool array."""
    return flags if isinstance(flags, bool) else bool(flags.any())


@functools.cache
def _table(tag: OpTag):
    """(table, its assembled bytes, those bytes as a read-only uint8 array), built once per process."""
    table = build_function_table(tag)
    raw = table.assembled_bytes()
    return table, raw, np.frombuffer(raw, np.uint8)


def _is_bytes(v) -> bool:
    """Whether v is a uint8 array, whose lanes are bytes by their type."""
    return isinstance(v, np.ndarray) and v.dtype == np.uint8


def _lanes(v, name: str):
    """Operand `name`, an integer or integer-typed 0..255 array, as uint8 lanes; the cast would truncate a float."""
    if not np.issubdtype((v := np.asarray(v)).dtype, np.integer):
        raise ValueError(f"{name} must be an integer, got {v.dtype}")
    return v.astype(np.uint8, copy=False)


def _execute(prog: ClusterMicroprogram, inputs: dict):
    """(outputs, lanes) of one run of prog on 4-bit inputs; it reads nothing but its arguments and charges nothing.

    A run has one lane per element of the broadcast of the array inputs that
    prog reads (prog.inputs); an input it does not read adds no lane. With
    none, one lane runs on the ints; otherwise every input prog reads
    becomes uint8 lanes and all lanes run at once.
    """
    try:
        args = [inputs[name] for name in prog.inputs]
    except KeyError as e:
        raise MicroprogramError(f"undefined input operand {e.args[0]!r}") from None
    arrays = [v for v in args if not isinstance(v, int)]
    if not arrays:
        return _interpret(prog, inputs, 1), 1
    lanes = {name: _lanes(v, f"input operand {name!r}") for name, v in zip(prog.inputs, args)}
    return _interpret(prog, lanes, 2), np.broadcast(*arrays).size


def _interpret(prog: ClusterMicroprogram, inputs: dict, form: int) -> list:
    """prog's outputs on one lane of ints or on broadcast uint8 lanes; the cores' bytes live for this run only.

    Every lookup indexes entry `form` of its core's _table: 1, the bytes, for
    an int lane; 2, the uint8 array, for lanes.
    """
    read, table, cores = _read, _table, [0] * CLUSTER_CORES
    for step in prog.steps:
        outs = []
        for op in step:
            outs.append(table(op.table)[form][(read(op.src_a, inputs, cores) << 4) | read(op.src_b, inputs, cores)])
        # Latch only after every lookup of the step has read its operands.
        for op, out in zip(step, outs):
            cores[op.core] = out
    return [read(src, inputs, cores) for src in prog.outputs]


def _read(src: Src, inputs: dict, cores: list):
    """One operand nibble of _interpret: an int, or uint8 lanes."""
    kind = src[0]
    if kind == "in":
        return inputs[src[1]]
    if kind == "core":
        out = cores[src[1]]
        return out >> 4 if src[2] == "hi" else out & 15
    return src[1]


@dataclass
class Cluster:
    """Nine LUT cores, a router, and a 32-bit accumulator register.

    Inputs and the accumulator are ints (one lane) or arrays that broadcast
    to one lane per cluster, every lane in the same step. A lane holds one
    uint8 byte from input to output, and the accumulator takes int64 lanes.
    A run keeps no core bytes and adds its lanes to one tally, `runs`: lanes
    per program, in order of each program's last run. Every counter is that
    tally times the programs' per-lane counts, summed when it is read.
    """

    accumulator: int | np.ndarray = 0
    runs: dict[ClusterMicroprogram, int] = field(default_factory=dict, init=False)

    @property
    def step_counter(self) -> int:
        """Lane-steps: len(steps) per lane of every run."""
        return sum(len(prog.steps) * lanes for prog, lanes in self.runs.items())

    @property
    def cores(self) -> list[LutCore]:
        """Each core's lookups so far and the table of its last lookup, as a LutCore built on this read."""
        cores = [LutCore() for _ in range(CLUSTER_CORES)]
        for prog, lanes in self.runs.items():
            for idx, n, tag in prog.lookups:
                cores[idx].lookup_count += n * lanes
                cores[idx].table = _table(tag)[0]
        return cores

    @property
    def router(self) -> RouterState:
        """The router's operand transfers so far per (src, dst) core route."""
        log = Counter()
        for prog, lanes in self.runs.items():
            log.update({route: n * lanes for route, n in prog.routes})
        return RouterState(log)

    def run_microprogram(self, prog: ClusterMicroprogram, inputs: dict) -> list:
        """Execute steps in order on every lane; within a step all lookups read pre-step state.

        Every input passed must be 4-bit, read or not, and every one read integer-typed.
        """
        for name, v in inputs.items():
            if _any((v < 0) | (v > 15)):
                raise ValueError(f"input operand {name!r} must be 4-bit")
        outputs, lanes = _execute(prog, inputs)
        self.runs[prog] = self.runs.pop(prog, 0) + lanes  # moved last: its tables are the cores' latest
        return outputs


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


@functools.cache
def _mac_table() -> np.ndarray:
    """The MAC program's product of every byte pair, read-only int64 indexed a << 8 | b, built once per process.

    It is one run of the program on 256x256 broadcast nibble lanes, never
    a*b, made on the first lane mac8 call.
    """
    byte = np.arange(256, dtype=np.uint8)
    a, b = byte[:, None], byte[None, :]
    n0, n1, n2, n3 = _interpret(_MAC_PROG, {"AH": a >> 4, "AL": a & 15, "BH": b >> 4, "BL": b & 15}, 2)
    table = np.left_shift(n3 * 16 | n2, 8, dtype=np.int64)
    table |= n1 * 16 | n0
    table = table.ravel()
    table.flags.writeable = False
    return table


def mac8(cluster: Cluster, a, b):
    """Accumulate a*b exactly in 8 core-steps on every lane; returns the new accumulator.

    Two ints run as one lane through the MAC program, step by step.
    Otherwise the operands are uint8 lanes: uint8 arrays as they are, any
    other integer-typed operand range-checked and cast once. Each lane reads
    its int64 product from the program's byte table (_mac_table) at
    a << 8 | b, and counts as one run of the program. The product is the new
    accumulator when the old one is the int 0: a product of two bytes is
    below 2**16, so no check is needed then. An overflowing lane fails the
    call and changes neither accumulator nor tally.
    """
    if not (_is_bytes(a) and _is_bytes(b)):
        if _any((a < 0) | (a > 255) | (b < 0) | (b > 255)):
            raise ValueError(f"mac8 operands must be 8-bit, got a={a}, b={b}")
        if not (isinstance(a, int) and isinstance(b, int)):
            a, b = _lanes(a, "mac8 operand 'a'"), _lanes(b, "mac8 operand 'b'")
    if isinstance(a, int):  # and so is b
        n0, n1, n2, n3 = _interpret(_MAC_PROG, {"AH": a >> 4, "AL": a & 15, "BH": b >> 4, "BL": b & 15}, 1)
        product, lanes = n0 | n1 << 4 | n2 << 8 | n3 << 12, 1
    else:
        product = _mac_table()[np.left_shift(a, 8, dtype=np.intp) | b]
        lanes = product.size
    acc = cluster.accumulator
    if isinstance(acc, int) and acc == 0:
        acc = product
    else:
        acc = acc + product
        check_accumulator(acc)
    cluster.runs[_MAC_PROG] = cluster.runs.pop(_MAC_PROG, 0) + lanes
    cluster.accumulator = acc
    return acc


def operand_bytes(bits: int) -> int:
    """Bytes per `bits`-bit operand: a bits-bit MAC runs as operand_bytes(bits)**2 mac8 passes, one per byte pair."""
    return (bits + 7) // 8
