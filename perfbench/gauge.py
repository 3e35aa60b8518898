"""Host-speed gauge: host times scaled to a fixed nominal host speed.

The measuring host is a shared VM whose speed drifts by 30-60% over seconds
and minutes, on all code alike: a run can fall wholly in a slow stretch, and
then even its fastest round is slow. So every timed span is bracketed by a
fixed reference loop (Python bytecode, a small matmul and a table gather, on
inputs fixed here, calling nothing of lutpim), and the span's host times are
scaled by REF_NOMINAL_S over the mean of the two reference times. A change to
lutpim moves the span and not the reference, so it shows in full; a change
of host speed moves both, and cancels out.

On the measuring host, over 10 s windows whose median `engine.evaluate` time
ranged over 1.6x, the median of the scaled times stayed within 2% (float) and
7% (8-bit LUT).
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass

import numpy as np

# The reference loop's time at the host speed that scaled times are reported
# at; about the loop's time on the measuring host in a quiet stretch.
REF_NOMINAL_S = 1.0e-3
REF_ITERATIONS = 60


@dataclass
class Span:
    seconds: float = math.nan  # host time of the block; set when the span ends
    scale: float = math.nan  # host seconds -> nominal seconds; set when the span ends

    @property
    def times(self) -> tuple[float, float]:
        """(host seconds, scaled seconds) of the block."""
        return self.seconds, self.seconds * self.scale


class Gauge:
    def __init__(self, pause=contextlib.nullcontext):
        rng = np.random.default_rng(0)
        self._a = rng.random((16, 144))
        self._b = rng.random((144, 64))
        self._table = rng.integers(0, 1 << 16, size=1 << 16)
        self._index = rng.integers(0, 1 << 16, size=4096)
        self._pause = pause  # keeps the reference loop out of a tracer's timings

    def reference(self) -> float:
        """Host seconds of one run of the reference loop."""
        with self._pause():
            start = time.perf_counter()
            acc = 0.0
            for _ in range(REF_ITERATIONS):
                acc += float((self._a @ self._b)[0, 0])
                squares = {j: j * j for j in range(50)}
                acc += sum(squares.values()) + int(self._table[self._index].sum())
            return time.perf_counter() - start

    @contextlib.contextmanager
    def span(self):
        """Bracket a block with the reference loop; yields its Span."""
        s = Span()
        before = self.reference()
        start = time.perf_counter()
        yield s
        s.seconds = time.perf_counter() - start
        s.scale = REF_NOMINAL_S / ((before + self.reference()) / 2)
