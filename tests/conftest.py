"""Fixtures shared by the test modules."""

import hashlib

import numpy as np
import pytest

from cpaware.net.checkpoint import save_model
from cpaware.net.model import he_init
from cpaware.net.optim import Adam


def _save_untrained(path, net, seed=0, task="multitask"):
    model = he_init(net, np.random.default_rng(seed))
    save_model(path, model, Adam(model.named_params(), net.learning_rate),
               {"task": task, "train_seed": seed, "batch_size": 16,
                "data_sha256": hashlib.sha256().hexdigest()})
    return model


@pytest.fixture(scope="session")
def save_untrained():
    """``save_untrained(path, net, seed=0, task="multitask")`` writes a complete
    checkpoint of an He-initialized model of ``net``: a fresh optimizer and a
    run record of ``task`` on no labels.  It returns the model."""
    return _save_untrained
