"""A SHA-256 digest, in named sections, of the integer results the simulator computes.

    PYTHONPATH=src python tests/digest.py > tests/digest.json

prints each section's hash as JSON; tests/test_digest.py compares them with
the committed tests/digest.json and names the sections that differ. Both
engines run tinymalnet and the tests/helpers nets at 4, 8 and 16 bits, on one
sample and on a stack of 3, at WINDOW_BYTES 1 and at its default. The
sections:

- acc: every captures["acc"] entry, as key, dtype, shape and bytes;
- ledger: the ledger events of each run;
- cluster_counts: each cluster-engine run's core lookups, core tables and
  router log, then those of the byte table and of the scalar sweep;
- cluster_steps: the same runs' step counts, kept apart so that a change to
  how steps are counted moves this section alone;
- byte_table: mac8's 65,536-lane table of byte products;
- mac8_sweep: the running accumulator of a fixed sweep of scalar mac8 calls.

Probabilities stay out: the oracle tests check them, and float results may
move with numpy's exp. A change that moves a section on purpose regenerates
the committed file and says which section moved and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import json

import numpy as np

import lutpim.engine as engine
from lutpim.cluster import Cluster, mac8
from lutpim.nets import tinymalnet

from helpers import (
    depthwise_residual_network,
    projected_shortcut_net,
    relu_hazard_network,
    strided_depthwise_network,
    wide_depthwise_network,
)

SECTIONS = ("acc", "ledger", "cluster_counts", "cluster_steps", "byte_table", "mac8_sweep")
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
def _engine_settings(window_bytes: int, clusters: list):
    """engine.WINDOW_BYTES set, and every Cluster that engine builds appended to clusters."""
    saved = engine.WINDOW_BYTES, engine.Cluster
    engine.WINDOW_BYTES = window_bytes
    engine.Cluster = lambda: clusters.append(Cluster()) or clusters[-1]
    try:
        yield
    finally:
        engine.WINDOW_BYTES, engine.Cluster = saved


def compute() -> dict[str, str]:
    """Each section's SHA-256 hex digest."""
    h = {name: hashlib.sha256() for name in SECTIONS}

    def count(cluster):
        counts, steps = _counts(cluster)
        h["cluster_counts"].update(counts.encode())
        h["cluster_steps"].update(steps.encode())

    engine._certify_byte_products()  # before any Cluster is recorded: it runs once per process
    for make_net in NETS:
        made = make_net()
        net, ws = made if isinstance(made, tuple) else (made, engine.init_random_weights(made, seed=90))
        rng = np.random.default_rng(90)
        calibration = [rng.random(net.input_shape) * 2 - 1 for _ in range(2)]
        x = rng.random((3, *net.input_shape)) * 2 - 1
        for bits in (4, 8, 16):
            qm = engine.prepare_quantized(net, ws, calibration, bits)
            for inputs in (x[0], x):
                for window_bytes in (1, engine.WINDOW_BYTES):
                    for kind in ("vector", "cluster"):
                        captures, clusters = {}, []
                        with _engine_settings(window_bytes, clusters):
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
    return {name: hh.hexdigest() for name, hh in h.items()}


if __name__ == "__main__":
    print(json.dumps(compute(), indent=2))
