import numpy as np
import pytest
from hypothesis import settings

from lutpim.binviz import generate_corpus, sample_to_input
from lutpim.engine import fit_last_layer, init_random_weights
from lutpim.nets import tinymalnet

TRAIN_SEED = 7
WEIGHT_SEED = 123
EVAL_SEED = 1

# Property tests draw the same examples on every run: a failure seen once is
# seen again. Each test sets its own max_examples on top of this profile.
settings.register_profile("derandomized", derandomize=True, deadline=None)


@pytest.fixture(scope="session")
def trained_model():
    """TinyMalNet with conv features seeded and the dense head fitted closed-form."""
    net = tinymalnet()
    samples = generate_corpus(400, 400, seed=TRAIN_SEED)
    inputs = [sample_to_input(s.payload) for s in samples]
    labels = np.array([int(s.label == "malware") for s in samples])
    ws = init_random_weights(net, seed=WEIGHT_SEED)
    ws = fit_last_layer(net, ws, inputs, labels)
    return net, ws


@pytest.fixture(scope="session")
def eval_corpus():
    samples = generate_corpus(100, 100, seed=EVAL_SEED)
    inputs = [sample_to_input(s.payload) for s in samples]
    labels = np.array([int(s.label == "malware") for s in samples])
    return inputs, labels
