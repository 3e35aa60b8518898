import numpy as np
import pytest

from lutpim.cluster import (
    ACCUMULATOR_BITS,
    CLUSTER_POWER_MW_HIGH,
    CLUSTER_POWER_MW_LOW,
    CLUSTER_POWER_MW_NOMINAL,
    MAC_DELAY_NS,
    MAC_ENERGY_NOMINAL_PJ,
    MAC_STEPS,
    AccumulatorOverflowError,
    Cluster,
    ClusterMicroprogram,
    CoreOp,
    MicroprogramError,
    mac8,
    mac_energy_pj,
)
from lutpim.lut_core import CORE_DELAY_NS, OpTag, UnprogrammedCoreError


def test_mac8_examples():
    cl = Cluster()
    assert mac8(cl, 255, 255) == 65025
    assert mac8(cl, 0, 173) == 65025
    assert mac8(cl, 18, 33) == 65025 + 594


def test_mac8_random_triples():
    rng = np.random.default_rng(0)
    cl = Cluster()
    expected = 0
    for a, b in rng.integers(0, 256, size=(500, 2)):
        expected += int(a) * int(b)
        assert mac8(cl, int(a), int(b)) == expected


def test_mac8_step_and_time_budget():
    cl = Cluster()
    mac8(cl, 201, 199)
    assert cl.step_counter == MAC_STEPS == 8
    assert cl.step_counter * CORE_DELAY_NS == pytest.approx(MAC_DELAY_NS) == pytest.approx(6.4)
    assert MAC_DELAY_NS == pytest.approx(MAC_STEPS * CORE_DELAY_NS)
    mac8(cl, 1, 1)
    assert cl.step_counter * CORE_DELAY_NS == pytest.approx(2 * MAC_DELAY_NS)


def test_mac8_operand_validation():
    cl = Cluster()
    for a, b in ((256, 0), (0, 256), (-1, 0)):
        with pytest.raises(ValueError):
            mac8(cl, a, b)
    # one bad lane fails the whole lockstep call
    for a, b in (([1, 256, 3], 7), (5, [0, -1]), ([[2]], [[4, 300]])):
        with pytest.raises(ValueError):
            mac8(cl, np.array(a), np.array(b))


def test_accumulator_overflow():
    cl = Cluster()
    cl.accumulator = (1 << ACCUMULATOR_BITS) - 1
    with pytest.raises(AccumulatorOverflowError):
        mac8(cl, 1, 1)
    # one overflowing lane fails the call and leaves every lane unchanged
    cl.accumulator = np.array([0, (1 << ACCUMULATOR_BITS) - 1, 7], dtype=np.int64)
    with pytest.raises(AccumulatorOverflowError):
        mac8(cl, np.array([1, 1, 1]), 1)
    assert cl.accumulator.tolist() == [0, (1 << ACCUMULATOR_BITS) - 1, 7]


def test_energy_band():
    e = mac_energy_pj()
    assert e.low_pj == pytest.approx(8.2 * 6.4)
    assert e.high_pj == pytest.approx(11.0 * 6.4)
    assert e.nominal_pj == pytest.approx(61.44)
    assert MAC_ENERGY_NOMINAL_PJ == pytest.approx(61.44)
    assert e.low_pj == pytest.approx(52.48)
    assert e.high_pj == pytest.approx(70.4)
    assert CLUSTER_POWER_MW_NOMINAL == pytest.approx((CLUSTER_POWER_MW_LOW + CLUSTER_POWER_MW_HIGH) / 2)


def test_empty_program_costs_nothing():
    cl = Cluster()
    out = cl.run_microprogram(ClusterMicroprogram(steps=(), outputs=()), {})
    assert out == []
    assert cl.step_counter == 0


def test_max_tree_program():
    # 2-step reduction tree of four nibbles through ADD4 cores, checked against
    # scalar arithmetic: the root adds the low nibbles of the two leaf sums
    prog = ClusterMicroprogram(
        steps=(
            (
                CoreOp(0, OpTag.ADD4, ("in", "a"), ("in", "b")),
                CoreOp(1, OpTag.ADD4, ("in", "c"), ("in", "d")),
            ),
            (CoreOp(2, OpTag.ADD4, ("core", 0, "lo"), ("core", 1, "lo")),),
        ),
        outputs=(("core", 2, "lo"), ("core", 2, "hi")),
    )
    rng = np.random.default_rng(3)
    for a, b, c, d in rng.integers(0, 16, size=(50, 4)).tolist():
        cl = Cluster()
        out = cl.run_microprogram(prog, {"a": a, "b": b, "c": c, "d": d})
        s = ((a + b) & 15) + ((c + d) & 15)
        assert out == [s & 15, s >> 4]
        assert cl.step_counter == 2


def test_parallel_step_reads_pre_step_state():
    # Both ops in one step read core 0's old output, not each other's new one.
    setup = ClusterMicroprogram(
        steps=((CoreOp(0, OpTag.PASS, ("in", "x"), ("imm", 0)),),), outputs=()
    )
    swap = ClusterMicroprogram(
        steps=(
            (
                CoreOp(0, OpTag.PASS, ("imm", 9), ("imm", 0)),
                CoreOp(1, OpTag.PASS, ("core", 0, "lo"), ("imm", 0)),
            ),
        ),
        outputs=(("core", 0, "lo"), ("core", 1, "lo")),
    )
    cl = Cluster()
    cl.run_microprogram(setup, {"x": 5})
    assert cl.run_microprogram(swap, {}) == [9, 5]


def test_microprogram_validation():
    with pytest.raises(MicroprogramError):
        ClusterMicroprogram(
            steps=((CoreOp(9, OpTag.PASS, ("imm", 0), ("imm", 0)),),), outputs=()
        )
    with pytest.raises(MicroprogramError):
        ClusterMicroprogram(
            steps=(
                (
                    CoreOp(2, OpTag.PASS, ("imm", 0), ("imm", 0)),
                    CoreOp(2, OpTag.PASS, ("imm", 1), ("imm", 0)),
                ),
            ),
            outputs=(),
        )
    with pytest.raises(MicroprogramError):
        ClusterMicroprogram(steps=((CoreOp(0, OpTag.PASS, ("reg", 0), ("imm", 0)),),), outputs=())


def test_router_logs_cross_core_reads_only():
    cl = Cluster()
    for a, b in np.random.default_rng(8).integers(0, 256, size=(2000, 2)):
        mac8(cl, int(a), int(b))
    # one counter per (src, dst) route, each inside the 9-core cluster
    log = cl.router.transfer_log
    assert 0 < len(log) <= 9 * 8
    for src, dst in log:
        assert 0 <= src < 9 and 0 <= dst < 9 and src != dst
    assert sum(log.values()) == 2000 * 16
    # a program with purely local operands routes nothing
    cl2 = Cluster()
    prog = ClusterMicroprogram(
        steps=((CoreOp(0, OpTag.ADD4, ("in", "a"), ("imm", 2)),),),
        outputs=(("core", 0, "lo"),),
    )
    cl2.run_microprogram(prog, {"a": 3})
    assert not cl2.router.transfer_log


def _assert_charged_per_lane(cl, lanes):
    """cl ran one MAC over `lanes` lanes: 8 steps, and a scalar MAC's lookups and routes per lane."""
    one = Cluster()
    mac8(one, 201, 199)
    assert cl.step_counter == MAC_STEPS
    assert [core.lookup_count for core in cl.cores] == [lanes * core.lookup_count for core in one.cores]
    assert cl.router.transfer_log == {route: lanes * n for route, n in one.router.transfer_log.items()}


def test_lockstep_mac8_over_all_byte_pairs():
    cl = Cluster()
    a, b = np.divmod(np.arange(65536, dtype=np.int64), 256)
    assert (mac8(cl, a, b) == a * b).all()
    _assert_charged_per_lane(cl, 65536)


def test_broadcast_lanes_count_as_their_product():
    cl = Cluster()
    a = np.array([[3], [250], [17]], dtype=np.int64)
    b = np.array([[0, 9, 255, 128]], dtype=np.int64)
    acc = mac8(cl, a, b)
    assert acc.shape == (3, 4) and (acc == a * b).all()
    _assert_charged_per_lane(cl, 12)


def test_cores_hold_the_tables_of_their_last_lookup():
    cl = Cluster()
    mac8(cl, 99, 3)
    assert [core.table.op_tag for core in cl.cores] == [OpTag.MUL4] * 4 + [OpTag.ADD4] * 5


def test_undefined_input_operand():
    cl = Cluster()
    prog = ClusterMicroprogram(
        steps=((CoreOp(0, OpTag.PASS, ("in", "missing"), ("imm", 0)),),), outputs=()
    )
    with pytest.raises(MicroprogramError):
        cl.run_microprogram(prog, {})


def test_unprogrammed_core_and_wide_input_refused():
    read = ClusterMicroprogram(
        steps=((CoreOp(1, OpTag.PASS, ("core", 0, "lo"), ("imm", 0)),),), outputs=()
    )
    with pytest.raises(UnprogrammedCoreError):
        Cluster().run_microprogram(read, {})
    prog = ClusterMicroprogram(
        steps=((CoreOp(0, OpTag.PASS, ("in", "x"), ("imm", 0)),),), outputs=()
    )
    for x in (16, -1, np.array([3, 16])):
        with pytest.raises(ValueError):
            Cluster().run_microprogram(prog, {"x": x})
