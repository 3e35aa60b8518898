"""One 8-bit sample of a paper-scale net through both integer engines.

Marked slow and deselected by default; run with `python -m pytest -m slow -s`.
Every accumulator the cluster engine captures must equal the vector
engine's, and so must the probabilities. With -s each test prints both
engines' times.
"""

import time

import numpy as np
import pytest

from lutpim.engine import infer_lut, init_random_weights, prepare_quantized
from lutpim.nets import get_network

pytestmark = pytest.mark.slow


@pytest.mark.parametrize("name", ["mobilenet_v2", "resnet18"])
def test_cluster_engine_equals_vector_engine_on_a_zoo_net(name):
    net = get_network(name)
    rng = np.random.default_rng(29)
    qm = prepare_quantized(net, init_random_weights(net, seed=29), [rng.random(net.input_shape)], 8)
    x = rng.random(net.input_shape)
    infer_lut(qm, x)  # certifies the byte table before anything is timed
    runs = {}
    for engine in ("vector", "cluster"):
        captures, start = {}, time.perf_counter()
        probs, _ = infer_lut(qm, x, engine=engine, captures=captures)
        runs[engine] = (probs, captures["acc"], time.perf_counter() - start)
    (vprobs, vacc, vsec), (cprobs, cacc, csec) = runs["vector"], runs["cluster"]
    print(f"\n{name} 8-bit, one sample: vector {vsec:.2f} s, cluster {csec:.2f} s, {len(vacc)} accumulators")
    assert cacc.keys() == vacc.keys()
    for key, acc in vacc.items():
        assert np.array_equal(cacc[key], acc), key
    assert np.array_equal(cprobs, vprobs)
