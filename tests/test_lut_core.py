import pytest

from lutpim.lut_core import (
    CORE_DELAY_NS,
    FunctionTable,
    LutCore,
    MalformedTableError,
    OpTag,
    UnprogrammedCoreError,
    UnsupportedOperationError,
    build_function_table,
)
from tests.helpers import SCALAR_OPS


@pytest.mark.parametrize("tag", list(SCALAR_OPS))
def test_exhaustive_against_scalar_oracle(tag):
    table = build_function_table(OpTag[tag])
    core = LutCore()
    core.program(table)
    ref = SCALAR_OPS[tag]
    for a in range(16):
        for b in range(16):
            assert core.lookup(a, b) == ref(a, b), (tag, a, b)


def test_bit_layout_round_trip():
    # Each of the eight function words contributes exactly one output bit:
    # reassembling from the raw words must reproduce assemble().
    table = build_function_table(OpTag.MUL4)
    for index in (0, 35, 129, 255):
        expected = 0
        for bit in range(8):
            expected |= ((table.words[bit] >> index) & 1) << bit
        assert table.assemble(index) == expected


def test_index_packing():
    # index = (a << 4) | b; probe with an asymmetric operation
    table = build_function_table(OpTag.MUL4)
    assert table.assemble((2 << 4) | 3) == 6
    assert table.assemble((15 << 4) | 15) == 225


def test_lookup_examples():
    core = LutCore()
    core.program(build_function_table(OpTag.MUL4))
    assert core.lookup(7, 9) == 63
    core.program(build_function_table(OpTag.PASS))
    assert core.lookup(5, 12) == 5


def test_purity_two_cores_agree():
    table = build_function_table(OpTag.ADD4)
    c1, c2 = LutCore(), LutCore()
    c1.program(table)
    c2.program(table)
    for a in range(16):
        for b in range(16):
            assert c1.lookup(a, b) == c2.lookup(a, b)


def test_lookup_counts_and_timing():
    core = LutCore()
    core.program(build_function_table(OpTag.PASS))
    for _ in range(5):
        core.lookup(1, 2)
    assert core.lookup_count == 5
    assert CORE_DELAY_NS == 0.8


def test_reprogramming_replaces_behavior():
    core = LutCore()
    core.program(build_function_table(OpTag.MUL4))
    assert core.lookup(3, 5) == 15
    core.program(build_function_table(OpTag.ADD4))
    assert core.lookup(3, 5) == 8


def test_unprogrammed_core_raises():
    with pytest.raises(UnprogrammedCoreError):
        LutCore().lookup(0, 0)


def test_operand_range_checked():
    core = LutCore()
    core.program(build_function_table(OpTag.MUL4))
    for a, b in ((16, 0), (0, 16), (-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            core.lookup(a, b)


def test_unsupported_operation():
    with pytest.raises(UnsupportedOperationError):
        build_function_table("NOT_AN_OP")


def test_malformed_table_rejected():
    with pytest.raises(MalformedTableError):
        FunctionTable(words=(0, 1, 2), op_tag=OpTag.PASS)  # wrong arity
    with pytest.raises(MalformedTableError):
        FunctionTable(words=(1 << 256, 0, 0, 0, 0, 0, 0, 0), op_tag=OpTag.PASS)
