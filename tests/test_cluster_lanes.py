"""The microprogram runner on byte lanes against its runs on one lane of ints, and its error paths.

Random microprograms over MUL4, ADD4 and PASS run once on broadcast uint8
lanes and once per lane on Python ints, both through the one runner. Outputs
must match lane by lane, and every count, steps included, must equal the
one-lane runs summed over the lanes. A run keeps no core bytes, so a program
gives the same outputs after any other run as on a fresh cluster.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays, mutually_broadcastable_shapes

from lutpim.cluster import (
    ACCUMULATOR_BITS,
    AccumulatorOverflowError,
    Cluster,
    ClusterMicroprogram,
    CoreOp,
    MicroprogramError,
    mac8,
)
from lutpim.lut_core import OpTag

NAMES = ("x", "y", "z")
DIFFERENTIAL = settings(settings.get_profile("derandomized"), max_examples=60)
PASS_X = ClusterMicroprogram(steps=((CoreOp(0, OpTag.PASS, ("in", "x"), ("imm", 0)),),), outputs=(("core", 0, "lo"),))


def _sources(ready):
    """An operand source: an input, an immediate nibble, or a nibble of a core in `ready`."""
    options = [st.tuples(st.just("in"), st.sampled_from(NAMES)), st.tuples(st.just("imm"), st.integers(0, 15))]
    if ready:
        options.append(st.tuples(st.just("core"), st.sampled_from(sorted(ready)), st.sampled_from(("lo", "hi"))))
    return st.one_of(options)


@st.composite
def programs(draw):
    """A program that reads only cores written by one of its earlier steps."""
    ready, steps = set(), []
    for _ in range(draw(st.integers(1, 5))):
        src = _sources(ready)
        op = st.builds(CoreOp, st.integers(0, 8), st.sampled_from(list(OpTag)), src, src)
        step = draw(st.lists(op, min_size=1, max_size=4, unique_by=lambda op: op.core))
        steps.append(tuple(step))
        ready |= {op.core for op in step}
    outputs = draw(st.lists(_sources(ready), max_size=4))
    return ClusterMicroprogram(steps=tuple(steps), outputs=tuple(outputs))


@st.composite
def lane_inputs(draw):
    """Inputs by name, at least one an array: uint8 or int64, of mutually broadcastable shapes, 0-d included."""
    shapes = draw(mutually_broadcastable_shapes(num_shapes=len(NAMES), min_dims=0, max_dims=3, max_side=3))
    inputs = {}
    for n, (name, shape) in enumerate(zip(NAMES, shapes.input_shapes)):
        if n and draw(st.booleans()):
            inputs[name] = draw(st.integers(0, 15))
        else:
            dtype = draw(st.sampled_from((np.uint8, np.int64)))
            inputs[name] = draw(arrays(dtype, shape, elements=st.integers(0, 15)))
    return inputs


def scalar_inputs():
    return st.fixed_dictionaries({name: st.integers(0, 15) for name in NAMES})


def _lane_shape(prog, inputs):
    """The broadcast shape of the array inputs prog reads; () when it reads none."""
    return np.broadcast(*[inputs[n] for n in prog.inputs if not isinstance(inputs[n], int)]).shape


def _lane(prog, inputs, index, shape):
    """The inputs prog reads, as ints: their values on the lane at index."""
    return {k: v if isinstance(v := inputs[k], int) else int(np.broadcast_to(v, shape)[index]) for k in prog.inputs}


def _at(value, index, shape):
    return int(np.broadcast_to(value, shape)[index])


def _counts(cl):
    return (
        [core.lookup_count for core in cl.cores],
        [core.table for core in cl.cores],
        Counter(cl.router.transfer_log),
        cl.step_counter,
    )


def _exact(outputs):
    """Outputs in a form that compares exactly: each int as it is, each array as its dtype, shape and bytes."""
    return [v if isinstance(v, int) else (v.dtype, v.shape, v.tobytes()) for v in outputs]


def _assert_lanes_match(outputs, refs, shape):
    """Each lane's outputs equal its one-lane run's."""
    for index, (_, ref_outputs) in zip(np.ndindex(shape), refs):
        assert [_at(v, index, shape) for v in outputs] == ref_outputs


@DIFFERENTIAL
@given(prog=programs(), inputs=lane_inputs())
def test_lane_runs_equal_one_lane_runs(prog, inputs):
    cl = Cluster()
    outputs = cl.run_microprogram(prog, inputs)
    shape = _lane_shape(prog, inputs)
    refs = []
    for index in np.ndindex(shape):
        ref = Cluster()
        refs.append((ref, ref.run_microprogram(prog, _lane(prog, inputs, index, shape))))
    _assert_lanes_match(outputs, refs, shape)
    # summed over lanes: lookups, routes and steps per lane
    assert [core.lookup_count for core in cl.cores] == [
        sum(ref.cores[c].lookup_count for ref, _ in refs) for c in range(9)
    ]
    assert [core.table for core in cl.cores] == [core.table for core in refs[0][0].cores]
    assert cl.router.transfer_log == sum((ref.router.transfer_log for ref, _ in refs), Counter())
    assert cl.step_counter == sum(ref.step_counter for ref, _ in refs) == len(prog.steps) * len(refs)


@DIFFERENTIAL
@given(
    first=programs(),
    second=programs(),
    first_inputs=st.one_of(lane_inputs(), scalar_inputs()),
    second_inputs=st.one_of(lane_inputs(), scalar_inputs()),
)
def test_a_run_depends_only_on_its_inputs(first, second, first_inputs, second_inputs):
    cl, alone = Cluster(), [Cluster(), Cluster()]
    runs = ((first, first_inputs, alone[0]), (second, second_inputs, alone[1]), (first, first_inputs, Cluster()))
    for prog, inputs, fresh in runs:
        assert _exact(cl.run_microprogram(prog, inputs)) == _exact(fresh.run_microprogram(prog, inputs))
    # every counter is the three runs' sum, and each core holds the table of its last lookup:
    # the first program's wherever it uses the core, since it ran last
    (first_lookups, first_tables, first_log, first_steps), (second_lookups, second_tables, second_log, second_steps) = map(
        _counts, alone
    )
    assert _counts(cl) == (
        [2 * a + b for a, b in zip(first_lookups, second_lookups)],
        [a or b for a, b in zip(first_tables, second_tables)],
        first_log + first_log + second_log,
        2 * first_steps + second_steps,
    )


def test_lanes_are_counted_from_the_inputs_the_program_reads():
    # PASS_X reads x alone: an unused array input adds no lane and need not broadcast with x
    cl = Cluster()
    assert cl.run_microprogram(PASS_X, {"x": 3, "unused": np.arange(4)}) == [3]
    assert cl.cores[0].lookup_count == 1
    outputs = cl.run_microprogram(PASS_X, {"x": np.arange(3), "unused": np.arange(4)})
    assert outputs[0].tolist() == [0, 1, 2]
    assert cl.cores[0].lookup_count == 4
    # every input passed is still checked as 4-bit
    with pytest.raises(ValueError, match="'unused' must be 4-bit"):
        cl.run_microprogram(PASS_X, {"x": 3, "unused": np.array([1, 16])})
    assert cl.cores[0].lookup_count == 4


# ---------------------------------------------------------------------------
# Error paths on lanes, mirroring the one-lane ones


def _assert_untouched(cl, accumulator=0):
    assert np.array_equal(cl.accumulator, accumulator)
    assert cl.step_counter == 0 and not cl.router.transfer_log
    assert all(core.lookup_count == 0 and core.table is None for core in cl.cores)


@pytest.mark.parametrize("bad", [256, -1, 259, -253])
def test_out_of_range_lane_is_refused_before_the_uint8_cast(bad):
    # 259 and -253 would wrap to the valid byte 3 in uint8
    cl = Cluster()
    for a, b in ((np.array([1, bad, 3], dtype=np.int64), 7), (5, np.array([[0], [bad]], dtype=np.int64))):
        with pytest.raises(ValueError, match="8-bit"):
            mac8(cl, a, b)
    with pytest.raises(ValueError, match="4-bit"):
        cl.run_microprogram(PASS_X, {"x": np.array([2, bad], dtype=np.int64)})
    _assert_untouched(cl)


def test_lane_program_reading_an_unlatched_core_is_refused():
    # refused when built, before any cluster or lane sees it
    with pytest.raises(MicroprogramError, match="step 0: core 0 is read before"):
        ClusterMicroprogram(
            steps=((CoreOp(1, OpTag.ADD4, ("core", 0, "lo"), ("in", "x")),),), outputs=(("core", 1, "lo"),)
        )


def test_lane_program_with_an_undefined_input_is_refused():
    cl = Cluster()
    with pytest.raises(MicroprogramError, match="undefined input operand 'x'"):
        cl.run_microprogram(PASS_X, {"y": np.arange(4)})
    _assert_untouched(cl)


def test_overflowing_lane_leaves_accumulator_and_counts_unchanged():
    start = np.array([0, (1 << ACCUMULATOR_BITS) - 1, 7], dtype=np.int64)
    for a in (np.ones(3, dtype=np.int64), np.ones(3, dtype=np.uint8)):
        cl = Cluster(accumulator=start.copy())
        with pytest.raises(AccumulatorOverflowError):
            mac8(cl, a, 1)
        _assert_untouched(cl, start)
    cl = Cluster(accumulator=(1 << ACCUMULATOR_BITS) - 1)
    with pytest.raises(AccumulatorOverflowError):
        mac8(cl, 1, 1)
    _assert_untouched(cl, (1 << ACCUMULATOR_BITS) - 1)
