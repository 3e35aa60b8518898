"""Programmable LUT core: eight 256-bit function words driven by two 4-bit operands.

A core stores the pre-computed outputs of one 8-bit two-operand operation.
Word w holds output bit w for all 256 operand combinations; the select index
is (a << 4) | b with a in the high nibble.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

WORD_COUNT = 8
WORD_BITS = 256

CORE_DELAY_NS = 0.8


class OpTag(str, Enum):
    MUL4 = "MUL4"
    ADD4 = "ADD4"
    PASS = "PASS"


_SCALAR = {
    OpTag.MUL4: lambda a, b: a * b,
    OpTag.ADD4: lambda a, b: a + b,
    OpTag.PASS: lambda a, b: a,
}


class UnsupportedOperationError(ValueError):
    """Requested operation has no function-table definition."""


class MalformedTableError(ValueError):
    """Function table violates the 8 x 256-bit layout."""


class UnprogrammedCoreError(RuntimeError):
    """Lookup issued before any function table was programmed."""


@dataclass(frozen=True)
class FunctionTable:
    """Eight 256-bit words encoding one 8-bit operation over 4-bit operand pairs."""

    words: tuple[int, ...]
    op_tag: OpTag

    def __post_init__(self):
        if len(self.words) != WORD_COUNT:
            raise MalformedTableError(
                f"expected {WORD_COUNT} function words, got {len(self.words)}"
            )
        for w, word in enumerate(self.words):
            if not isinstance(word, int) or word < 0 or word >> WORD_BITS:
                raise MalformedTableError(f"word {w} is not a 256-bit value")
        object.__setattr__(self, "_assembled", bytes(self._assemble_slow(i) for i in range(WORD_BITS)))

    def _assemble_slow(self, index: int) -> int:
        out = 0
        for w in range(WORD_COUNT):
            out |= ((self.words[w] >> index) & 1) << w
        return out

    def assemble(self, index: int) -> int:
        """8-bit output at select index: bit w comes from word w."""
        return self._assembled[index]

    def assembled_bytes(self) -> bytes:
        return self._assembled


def build_function_table(op_tag: OpTag) -> FunctionTable:
    """Pre-calculate the eight function words for one operation."""
    try:
        fn = _SCALAR[OpTag(op_tag)]
    except (KeyError, ValueError):
        raise UnsupportedOperationError(f"unsupported operation: {op_tag!r}") from None
    words = [0] * WORD_COUNT
    for index in range(WORD_BITS):
        value = fn(index >> 4, index & 15) & 0xFF
        for w in range(WORD_COUNT):
            if (value >> w) & 1:
                words[w] |= 1 << index
    return FunctionTable(words=tuple(words), op_tag=OpTag(op_tag))


@dataclass
class LutCore:
    """One LUT core: a programmable function table.

    lookup_count feeds the timing ledger: each lookup is one 0.8 ns core-step.
    """

    table: FunctionTable | None = None
    lookup_count: int = 0

    def program(self, table: FunctionTable) -> None:
        """Load new function words, discarding the previous table."""
        if not isinstance(table, FunctionTable):
            raise MalformedTableError("program() requires a FunctionTable")
        self.table = table

    def lookup(self, a: int, b: int) -> int:
        """Drive the select pins with (a, b) and read the 8-bit mux output."""
        if self.table is None:
            raise UnprogrammedCoreError("lookup on unprogrammed core")
        if not (0 <= a <= 15 and 0 <= b <= 15):
            raise ValueError(f"operands must be 4-bit, got a={a}, b={b}")
        self.lookup_count += 1
        return self.table.assemble((a << 4) | b)
