"""The byte-lane kernel against the one-lane interpreter, and its error paths.

Random microprograms over MUL4, ADD4 and PASS run once on broadcast lanes and
once per lane on Python ints. Outputs and latched bytes must match lane by
lane, and counts must equal the one-lane runs summed over the lanes.
"""

import copy
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
from lutpim.lut_core import OpTag, UnprogrammedCoreError

NAMES = ("x", "y", "z")
DIFFERENTIAL = settings(max_examples=60, deadline=None, derandomize=True)


def _sources(ready):
    """An operand source: an input, an immediate (masked to its low nibble), or a nibble of a core in `ready`."""
    options = [st.tuples(st.just("in"), st.sampled_from(NAMES)), st.tuples(st.just("imm"), st.integers(0, 31))]
    if ready:
        options.append(st.tuples(st.just("core"), st.sampled_from(sorted(ready)), st.sampled_from(("lo", "hi"))))
    return st.one_of(options)


@st.composite
def programs(draw, latched=frozenset()):
    """A program that reads only cores in `latched` or written by one of its earlier steps."""
    ready, steps = set(latched), []
    for _ in range(draw(st.integers(1, 5))):
        src = _sources(ready)
        op = st.builds(CoreOp, st.integers(0, 8), st.sampled_from(list(OpTag)), src, src)
        step = draw(st.lists(op, min_size=1, max_size=4, unique_by=lambda op: op.core))
        steps.append(tuple(step))
        ready |= {op.core for op in step}
    outputs = draw(st.lists(_sources(ready), max_size=4))
    return ClusterMicroprogram(steps=tuple(steps), outputs=tuple(outputs))


def _written(prog):
    return frozenset(c for c, _, _ in prog.lookups)


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


def _lane_shape(inputs):
    return np.broadcast(*[v for v in inputs.values() if not isinstance(v, int)]).shape


def _lane(inputs, index, shape):
    return {k: v if isinstance(v, int) else int(np.broadcast_to(v, shape)[index]) for k, v in inputs.items()}


def _at(value, index, shape):
    return int(np.broadcast_to(value, shape)[index])


def _counts(cl):
    return (
        [core.lookup_count for core in cl.cores],
        [core.table for core in cl.cores],
        Counter(cl.router.transfer_log),
        cl.step_counter,
    )


def _assert_lanes_match(cl, outputs, refs, shape):
    """Each lane's outputs and latched bytes equal its one-lane run's."""
    for index, (ref, ref_outputs) in zip(np.ndindex(shape), refs):
        assert [_at(v, index, shape) for v in outputs] == ref_outputs
        for c, byte in enumerate(ref._latched):
            assert (cl._latched[c] is None) if byte is None else _at(cl._latched[c], index, shape) == byte


def _assert_counts(cl, base, runs):
    """cl's counts are base's plus, for each (one-lane delta cluster pair, lanes), the one-lane run's counts times lanes."""
    lookups, tables, log, steps = _counts(base)
    for (before, after), lanes in runs:
        for c in range(9):
            lookups[c] += lanes * (after.cores[c].lookup_count - before.cores[c].lookup_count)
        tables = [a.table or t for a, t in zip(after.cores, tables)]
        delta = Counter(after.router.transfer_log)
        delta.subtract(before.router.transfer_log)
        log.update({route: lanes * n for route, n in delta.items() if n})
        steps += after.step_counter - before.step_counter
    assert _counts(cl) == (lookups, tables, log, steps)


@DIFFERENTIAL
@given(prog=programs(), inputs=lane_inputs())
def test_lane_kernel_equals_one_lane_runs(prog, inputs):
    cl = Cluster()
    outputs = cl.run_microprogram(prog, inputs)
    shape = _lane_shape(inputs)
    refs = []
    for index in np.ndindex(shape):
        ref = Cluster()
        refs.append((ref, ref.run_microprogram(prog, _lane(inputs, index, shape))))
    _assert_lanes_match(cl, outputs, refs, shape)
    # summed over lanes: lookups and routes per lane, steps once per lockstep run
    assert [core.lookup_count for core in cl.cores] == [
        sum(ref.cores[c].lookup_count for ref, _ in refs) for c in range(9)
    ]
    assert [core.table for core in cl.cores] == [core.table for core in refs[0][0].cores]
    assert cl.router.transfer_log == sum((ref.router.transfer_log for ref, _ in refs), Counter())
    assert cl.step_counter == refs[0][0].step_counter == len(prog.steps)


@DIFFERENTIAL
@given(data=st.data(), first=programs(), scalars=scalar_inputs(), inputs=lane_inputs())
def test_lanes_after_a_one_lane_run(data, first, scalars, inputs):
    second = data.draw(programs(latched=_written(first)))
    cl = Cluster()
    cl.run_microprogram(first, scalars)
    base = copy.deepcopy(cl)
    outputs = cl.run_microprogram(second, inputs)
    shape = _lane_shape(inputs)
    refs = []
    for index in np.ndindex(shape):
        ref = copy.deepcopy(base)
        refs.append((ref, ref.run_microprogram(second, _lane(inputs, index, shape))))
    _assert_lanes_match(cl, outputs, refs, shape)
    _assert_counts(cl, base, [((base, refs[0][0]), len(refs))])


@DIFFERENTIAL
@given(data=st.data(), first=programs(), inputs=lane_inputs(), scalars=scalar_inputs())
def test_one_lane_program_after_lanes(data, first, inputs, scalars):
    # A program with int inputs still runs on every lane whose latched bytes it reads.
    second = data.draw(programs(latched=_written(first)))
    cl = Cluster()
    cl.run_microprogram(first, inputs)
    read = [cl._latched[c] for c in second.live_in if not isinstance(cl._latched[c], int)]
    second_lanes = np.broadcast(*read).size if read else 1
    outputs = cl.run_microprogram(second, scalars)
    shape = _lane_shape(inputs)
    refs = []
    for index in np.ndindex(shape):
        ref = Cluster()
        ref.run_microprogram(first, _lane(inputs, index, shape))
        mid = mid if refs else copy.deepcopy(ref)  # the first lane's state between the two runs
        refs.append((ref, ref.run_microprogram(second, scalars)))
    _assert_lanes_match(cl, outputs, refs, shape)
    _assert_counts(cl, Cluster(), [((Cluster(), mid), len(refs)), ((mid, refs[0][0]), second_lanes)])


# ---------------------------------------------------------------------------
# Error paths on lanes, mirroring the one-lane ones


PASS_X = ClusterMicroprogram(steps=((CoreOp(0, OpTag.PASS, ("in", "x"), ("imm", 0)),),), outputs=(("core", 0, "lo"),))


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
    read = ClusterMicroprogram(
        steps=((CoreOp(1, OpTag.ADD4, ("core", 0, "lo"), ("in", "x")),),), outputs=(("core", 1, "lo"),)
    )
    cl = Cluster()
    with pytest.raises(UnprogrammedCoreError):
        cl.run_microprogram(read, {"x": np.arange(4)})
    _assert_untouched(cl)
    # once core 0 holds lanes, even an int input runs on them
    cl.run_microprogram(PASS_X, {"x": np.arange(4)})
    assert cl.run_microprogram(read, {"x": 1})[0].tolist() == [1, 2, 3, 4]
    assert cl.cores[1].lookup_count == 4


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
