"""A SHA-256 digest, in named sections, of the integer results the simulator computes.

    PYTHONPATH=src python tests/digest.py > tests/digest.json

prints each section's hash as JSON; tests/test_digest.py compares them with
the committed tests/digest.json and names the sections that differ. Both
engines run tinymalnet and the tests/helpers nets at 4, 8 and 16 bits, on one
sample and on a stack of 3, at WINDOW_ELEMENTS 1 (one group per block) and
at its default of 64 Ki window elements per block. The sections:

- acc: every captures["acc"] entry, as key, dtype, shape and bytes;
- ledger: the ledger events of each run;
- cluster_counts: each cluster-engine run's core lookups, core tables and
  router log, then those of the byte table and of the scalar sweep;
- cluster_steps: the same runs' step counts, kept apart so that a change to
  how steps are counted moves this section alone;
- byte_table: mac8's 65,536-lane table of byte products;
- mac8_sweep: the running accumulator of a fixed sweep of scalar mac8 calls;
- zoo: every zoo net's specs (each layer's name, kind, kernel, stride,
  padding, shapes, residual source and proj; each MAC layer's name, weight
  shape, groups and shapes) and the repr of its perf.estimate at 4, 8 and
  16 bits on 256 and 512 clusters.

Probabilities stay out: the oracle tests check them, and float results may
move with numpy's exp. A change that moves a section on purpose regenerates
the committed file and says which section moved and why.

    PYTHONPATH=src python tests/digest.py --float

prints instead one hash of infer_float's results over the same nets, inputs
and WINDOW_ELEMENTS: its probabilities, captures["logits"] and each
captures["layer_inputs"] entry. Nothing is committed for it, since floats
may move with the numpy or BLAS build; a change to the layer walk compares
it with PYTHONPATH set to the parent's src and to the change's.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import sys

import numpy as np

import lutpim.engine as engine
from lutpim import perf
from lutpim.cluster import Cluster, mac8
from lutpim.nets import ZOO, get_network, groups, mac_layers, tinymalnet, weight_shape
from lutpim.system import SystemConfig

from helpers import (
    depthwise_residual_network,
    projected_shortcut_net,
    relu_hazard_network,
    strided_depthwise_network,
    wide_depthwise_network,
)

SECTIONS = ("acc", "ledger", "cluster_counts", "cluster_steps", "byte_table", "mac8_sweep", "zoo")
NETS = (
    tinymalnet,
    depthwise_residual_network,
    strided_depthwise_network,
    wide_depthwise_network,
    relu_hazard_network,
    projected_shortcut_net,
)


def _counts(cluster: Cluster) -> tuple:
    """(lookups, tables and routes, step count) of one cluster, as reprs of ints and names."""
    cores = [(core.lookup_count, core.table and core.table.op_tag.value) for core in cluster.cores]
    routes = sorted(cluster.router.transfer_log.items())
    return repr((cores, routes)), repr(cluster.step_counter)


def _array(h, key: str, a: np.ndarray) -> None:
    h.update(repr((key, a.dtype.str, a.shape)).encode())
    h.update(np.ascontiguousarray(a).tobytes())


@contextlib.contextmanager
def _engine_settings(window_elements: int, clusters: list):
    """engine.WINDOW_ELEMENTS set, and every Cluster that engine builds appended to clusters."""
    saved = engine.WINDOW_ELEMENTS, engine.Cluster
    engine.WINDOW_ELEMENTS = window_elements
    engine.Cluster = lambda: clusters.append(Cluster()) or clusters[-1]
    try:
        yield
    finally:
        engine.WINDOW_ELEMENTS, engine.Cluster = saved


def _nets():
    """(net, weights, calibration inputs, a stack of 3 inputs) for each of NETS."""
    for make_net in NETS:
        made = make_net()
        net, ws = made if isinstance(made, tuple) else (made, engine.init_random_weights(made, seed=90))
        rng = np.random.default_rng(90)
        calibration = [rng.random(net.input_shape) * 2 - 1 for _ in range(2)]
        yield net, ws, calibration, rng.random((3, *net.input_shape)) * 2 - 1


def compute() -> dict[str, str]:
    """Each section's SHA-256 hex digest."""
    h = {name: hashlib.sha256() for name in SECTIONS}

    def count(cluster):
        counts, steps = _counts(cluster)
        h["cluster_counts"].update(counts.encode())
        h["cluster_steps"].update(steps.encode())

    engine._certify_byte_products()  # before any Cluster is recorded: it runs once per process
    for net, ws, calibration, x in _nets():
        for bits in (4, 8, 16):
            qm = engine.prepare_quantized(net, ws, calibration, bits)
            for inputs in (x[0], x):
                for window_elements in (1, engine.WINDOW_ELEMENTS):
                    for kind in ("vector", "cluster"):
                        captures, clusters = {}, []
                        with _engine_settings(window_elements, clusters):
                            _, ledger = engine.infer_lut(qm, inputs, engine=kind, captures=captures)
                        for key in sorted(captures["acc"]):
                            _array(h["acc"], f"{net.name}/{bits}/{kind}/{key}", captures["acc"][key])
                        h["ledger"].update(repr(ledger.events).encode())
                        for cluster in clusters:
                            count(cluster)

    cluster = Cluster()
    _array(h["byte_table"], "products", engine._byte_products())
    byte = np.arange(256, dtype=np.int64)
    mac8(cluster, byte[:, None], byte[None, :])
    count(cluster)

    cluster, accs = Cluster(), []
    for a in range(0, 256, 17):
        for b in range(0, 256, 3):
            accs.append(mac8(cluster, a, b))
    _array(h["mac8_sweep"], "acc", np.array(accs, dtype=np.int64))
    count(cluster)

    for name in sorted(ZOO):
        net = get_network(name)
        for l in net.layers:
            fields = l.name, l.kind, l.kernel, l.stride, l.padding, l.in_shape, l.out_shape, l.residual_from, l.proj
            h["zoo"].update(repr(fields).encode())
        for m in mac_layers(net):
            h["zoo"].update(repr((m.name, weight_shape(m), groups(m), m.in_shape, m.out_shape)).encode())
        for bits in (4, 8, 16):
            for clusters in (256, 512):
                h["zoo"].update(repr(perf.estimate(net, SystemConfig(cluster_count=clusters), bits)).encode())
    return {name: hh.hexdigest() for name, hh in h.items()}


def compute_float() -> str:
    """The SHA-256 hex digest of infer_float's probabilities, logits and layer inputs on each net and input."""
    h = hashlib.sha256()
    for net, ws, _, x in _nets():
        for inputs in (x[0], x):
            for window_elements in (1, engine.WINDOW_ELEMENTS):
                captures = {}
                with _engine_settings(window_elements, []):
                    probs = engine.infer_float(net, ws, inputs, captures=captures)
                _array(h, f"{net.name}/probs", probs)
                _array(h, f"{net.name}/logits", captures["logits"])
                for key in sorted(captures["layer_inputs"]):
                    _array(h, f"{net.name}/{key}", captures["layer_inputs"][key])
    return h.hexdigest()


if __name__ == "__main__":
    print(compute_float() if sys.argv[1:] == ["--float"] else json.dumps(compute(), indent=2))
