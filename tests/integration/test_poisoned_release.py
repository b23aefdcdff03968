"""Nothing reads a buffer after giving it back to the scratch arena.

``backward()`` returns gradients and pooled forward outputs to the arena as
it walks the graph, and the arena hands the bytes to the next request, so a
value read late — ``loss.item()`` after ``backward()`` on an interior node,
a closure reading a tensor whose own closure already ran — is right only
until something else is written there.  The ``poisoned_pool`` fixture
(``tests/conftest.py``) overwrites every buffer at the moment of its
release; each algorithm, on each of its execution paths, must then replay
the history of an ordinary run.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.baselines import build_fedavg, build_fedmd
from repro.core import build_fedzkt
from repro.datasets import SyntheticImageConfig, SyntheticImageGenerator
from repro.federated import FederatedConfig, ServerConfig
from repro.models import ModelSpec
from repro.nn import Tensor, scratch_pool

ROUNDS = 2


def _sample(name, family_seed, samples, seed):
    config = SyntheticImageConfig(name=name, num_classes=4, channels=3, height=8, width=8,
                                  family_seed=family_seed, noise_level=0.2, max_shift=1,
                                  modes_per_class=1, background_strength=0.2)
    return SyntheticImageGenerator(config).sample(samples, seed=seed)


def _run(algorithm, server_shards=1, cohort_fusion=False):
    config = FederatedConfig(
        num_devices=4, rounds=ROUNDS, local_epochs=1, batch_size=16, device_lr=0.05, seed=5,
        server=ServerConfig(distillation_iterations=2, batch_size=8, noise_dim=16,
                            device_distill_lr=0.02, server_shards=server_shards),
        cohort_fusion=cohort_fusion)
    train, test = _sample("poison-rgb", 35, 128, 1), _sample("poison-rgb", 35, 48, 2)
    if algorithm == "fedzkt":
        simulation = build_fedzkt(train, test, config, family="small")
    elif algorithm == "fedmd":
        simulation = build_fedmd(train, test, _sample("poison-public", 46, 48, 5), config,
                                 family="small")
    else:
        simulation = build_fedavg(train, test, config, model_spec=ModelSpec(
            "cnn", {"channels": (4, 8), "hidden_size": 16}))
    with simulation:
        history = simulation.run().to_dict()
    history.pop("config")
    return json.loads(json.dumps(history, default=float))


PATHS = [
    pytest.param("fedzkt", {}, id="fedzkt"),
    pytest.param("fedzkt", {"server_shards": 2}, id="fedzkt-server_shards=2"),
    pytest.param("fedzkt", {"cohort_fusion": True}, id="fedzkt-fused"),
    pytest.param("fedmd", {}, id="fedmd"),
    pytest.param("fedmd", {"cohort_fusion": True}, id="fedmd-fused"),
    pytest.param("fedavg", {}, id="fedavg"),
    pytest.param("fedavg", {"cohort_fusion": True}, id="fedavg-fused"),
]


@pytest.fixture(scope="module")
def reference():
    """Each algorithm's plain run, on an ordinary arena."""
    return {algorithm: _run(algorithm) for algorithm in ("fedzkt", "fedmd", "fedavg")}


@pytest.mark.parametrize("algorithm, path", PATHS)
def test_history_survives_poisoned_releases(reference, poisoned_pool, algorithm, path):
    history = _run(algorithm, **path)
    assert poisoned_pool.stats()["acquires"] > 0 and scratch_pool() is poisoned_pool
    assert history == reference[algorithm]


def test_the_fixture_poisons_what_is_released(poisoned_pool):
    floats, flags = poisoned_pool.acquire((3, 4)), poisoned_pool.acquire((5,), np.bool_)
    floats.fill(1.0)
    flags.fill(False)
    poisoned_pool.release(floats[1:])  # a view: not accepted, not poisoned
    assert (floats == 1.0).all()
    poisoned_pool.release(floats)
    poisoned_pool.release(flags)
    assert np.isnan(floats).all() and (flags.view(np.uint8) == 0xFF).all()


def test_a_late_read_of_an_interior_node_raises(poisoned_pool):
    """The bug the fixture was built for, in miniature: ``loss`` below is an
    interior node once something is computed from it."""
    weights = Tensor(np.ones((4, 3)), requires_grad=True)
    loss = (Tensor(np.ones((2, 4))) @ weights).relu()
    kept = (Tensor(np.ones((2, 4))) @ weights).relu()
    kept.retain_data()
    (loss.sum() + kept.sum()).backward()
    assert loss.data is None
    with pytest.raises(RuntimeError, match="retain_data"):
        loss.item()
    np.testing.assert_array_equal(kept.data, np.full((2, 3), 4.0))
