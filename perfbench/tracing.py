"""Span tracer that measures lutpim's modules from outside.

`Tracer.install()` replaces each public function listed in TARGETS at the
module attribute its callers look up (for example `lutpim.engine.quantize`,
which is the name `infer_lut` calls). Every call then records a span: name,
start, end, parent span and request id, kept in memory until `write()`.
`uninstall()` puts every original object back.

A span's self time is its duration minus the time its direct child spans
cover. Spans nest only through wrapped calls, so a layer's self time also
holds the work of any unwrapped helper it calls.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import Counter, defaultdict

import numpy as np

# span name -> the places callers look the function up: (module, attribute)
# or (module, class, attribute) for a method.
TARGETS = {
    "binviz.generate_corpus": [("lutpim.binviz", "generate_corpus")],
    "binviz.sample_to_input": [("lutpim.binviz", "sample_to_input")],
    "weights.load_weights": [("lutpim.cli", "load_weights"), ("lutpim.weights", "load_weights")],
    "weights.save_weights": [("lutpim.cli", "save_weights")],
    "cli.main": [("lutpim.cli", "main")],
    "nets.get_network": [("lutpim.nets", "get_network")],
    "quantizer.quantize": [("lutpim.engine", "quantize")],
    "quantizer.calibrate": [("lutpim.engine", "calibrate")],
    "engine.prepare_quantized": [("lutpim.engine", "prepare_quantized")],
    "engine.fit_last_layer": [("lutpim.engine", "fit_last_layer")],
    "engine.infer_float": [("lutpim.engine", "infer_float")],
    "engine.infer_lut": [("lutpim.engine", "infer_lut")],
    "cluster.mac8": [("lutpim.engine", "mac8"), ("lutpim.cluster", "mac8")],
    "lut_core.build_function_table": [
        ("lutpim.engine", "build_function_table"),
        ("lutpim.cluster", "build_function_table"),
        ("lutpim.lut_core", "build_function_table"),
    ],
    "system.account_macs": [("lutpim.system", "EnergyLedger", "account_macs")],
    "system.account_transfer": [("lutpim.system", "EnergyLedger", "account_transfer")],
    "perf.estimate": [("lutpim.perf", "estimate")],
}


def _cluster_counts(args):
    """(core steps, routed operand bytes, core lookups) so far in mac8's Cluster."""
    c = args[0]
    return (
        c.step_counter,
        len(c.router.transfer_log),
        sum(core.lookup_count for core in c.cores),
    )


# span name -> (counter names, reader of the state those counters measure);
# the wrapper adds the reader's change across each call to the counters.
PROBES = {
    "cluster.mac8": (
        ("cluster.core_steps", "cluster.router_transfers", "lut_core.lookups"),
        _cluster_counts,
    ),
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent index, request id)
        self.counters: Counter = Counter()
        self.request = -1
        self._stack: list[int] = []
        self._saved: list = []
        self._paused = 0
        self.paused_s = 0.0  # wall time spent in paused(), installed or not

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for name, places in TARGETS.items():
            for place in places:
                owner = importlib.import_module(place[0])
                for attr in place[1:-1]:
                    owner = getattr(owner, attr)
                original = owner.__dict__[place[-1]]
                self._saved.append((owner, place[-1], original))
                setattr(owner, place[-1], self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording them."""
        self._paused += 1
        start = time.perf_counter()
        try:
            yield
        finally:
            self._paused -= 1
            if not self._paused:
                self.paused_s += time.perf_counter() - start

    @contextlib.contextmanager
    def op(self, name: str, request: int):
        """Root span around one benchmark operation; child spans carry its id."""
        if not self._saved:
            yield
            return
        self.request = request
        idx = self._open()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(idx, name, start)
            self.request = -1

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, start: int) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (name, start, end, parent, self.request)

    def _wrap(self, name, fn):
        tracer = self
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            before = probe[1](args) if probe else None
            idx = tracer._open()
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx, name, start)
                if probe:
                    for counter, old, new in zip(probe[0], before, probe[1](args)):
                        tracer.counters[counter] += new - old

        return traced

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def self_ms(self) -> dict[str, float]:
        """Total self time per span name, in milliseconds."""
        if not self.spans:
            return {}
        dur = np.array([s[2] - s[1] for s in self.spans], dtype=np.float64)
        parent = np.array([s[3] for s in self.spans], dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        totals: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, dur - child):
            totals[span[0]] += own / 1e6
        return dict(totals)

    def write(self, path) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, request in self.spans:
                f.write(
                    json.dumps(
                        {"name": name, "start_ns": start, "end_ns": end, "parent": parent, "request": request}
                    )
                    + "\n"
                )
