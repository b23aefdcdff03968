"""What carries a parameter payload across a process boundary, and that it
is lossless: the backend's one pickle of a task (or result) holding live
arrays inline, and ``repro.net``'s per-tensor ``.npy`` table for a published
payload (``process:N`` and ``tcp://`` alike).  Nothing else encodes a state."""

from __future__ import annotations

import pickle
import subprocess
import sys

import numpy as np

from repro.core.server_tasks import DeviceDistillResult, DeviceDistillTask
from repro.federated.backend import LocalTrainTask, resolve_arrays, resolve_state
from repro.federated.cohort import FusedLocalTrainTask
from repro.models import SimpleCNN
from repro.net import BlobService, DriverChannel
from repro.net.wire import pack_tensor


def shipped(value):
    """``value`` as the far side of a process boundary sees it."""
    return pickle.loads(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


def published_channel() -> DriverChannel:
    """The driver's channel over its blob table: a payload published into it
    and fetched back has been through the same tensor codec a worker reads."""
    return DriverChannel(BlobService())


def _rng_state() -> dict:
    return np.random.default_rng(0).bit_generator.state


def _assert_same_state(restored, state) -> None:
    assert list(restored) == list(state)
    for key, value in state.items():
        np.testing.assert_array_equal(restored[key], value)
        assert restored[key].dtype == value.dtype


def _assert_same_arrays(restored, arrays) -> None:
    assert len(restored) == len(arrays)
    for original, out in zip(arrays, restored):
        np.testing.assert_array_equal(original, out)
        assert out.dtype == original.dtype


def test_state_dict_roundtrip_is_bit_exact():
    model = SimpleCNN((3, 8, 8), 4, channels=(4, 8), hidden_size=16, seed=0)
    state = model.state_dict()
    task = shipped(LocalTrainTask(device_id=0, state=state, epochs=1,
                                  rng_state=_rng_state()))
    _assert_same_state(resolve_state(task.state), state)
    fused = shipped(FusedLocalTrainTask(device_ids=[0, 1], states=[state, state],
                                        epochs=1, rng_states=[_rng_state()] * 2))
    for restored in fused.states:
        _assert_same_state(restored, state)
    channel = published_channel()
    channel.publish("state", state)
    restored = channel.fetch("state")
    _assert_same_state(restored, state)
    # The round trip is loadable (keys include dots and buffer:: prefixes).
    model.load_state_dict(restored)


def test_array_list_roundtrip_preserves_order():
    arrays = [np.arange(5.0), np.zeros((2, 3)), np.full((1,), -7.5)]
    task = shipped(LocalTrainTask(device_id=0, state={}, epochs=1,
                                  rng_state=_rng_state(), anchor=arrays))
    _assert_same_arrays(resolve_arrays(task.anchor), arrays)
    channel = published_channel()
    channel.publish("anchor", arrays)
    _assert_same_arrays(channel.fetch("anchor"), arrays)


def test_none_passthrough():
    task = shipped(LocalTrainTask(device_id=0, state={}, epochs=1,
                                  rng_state=_rng_state()))
    assert task.anchor is None and task.digest is None
    assert resolve_arrays(task.anchor) is None


def test_publish_reports_the_blob_it_stored():
    """``published_bytes`` is the new tensor frames plus the manifest, and a
    counted fetch of the state counts the same bytes."""
    service = BlobService()
    channel = DriverChannel(service)
    state = {"w": np.arange(12.0).reshape(3, 4), "buffer::steps": np.array(3)}
    published = channel.publish("k", state, "device")
    manifest = published - sum(len(pack_tensor(value)) for value in state.values())
    assert 0 < manifest < 1024
    # Re-publishing the same tensors under another key ships only a manifest.
    assert channel.publish("k2", dict(state), "device") == manifest
    channel.fetch("k", count=False)
    assert service.stats()["fetched_bytes"] == 0
    channel.fetch("k")
    assert service.stats()["fetched_bytes"] == published
    assert service.stats()["by_label"]["device"]["fetches"] == 1


def test_repro_utils_imports_standalone():
    """Regression: importing repro.utils first must not hit a circular import
    (utils.serialization <-> federated.backend)."""
    subprocess.run(
        [sys.executable, "-c",
         "import repro.utils; import repro.utils.serialization; "
         "import repro.federated.backend"],
        check=True)


def test_many_arrays_keep_their_order():
    # More than ten entries: order is positional, never a sort of names.
    arrays = [np.array([float(index)]) for index in range(15)]
    task = DeviceDistillTask(device_ids=[0], states=[{}], velocities=[arrays],
                             inputs=arrays, targets=arrays, lr=0.1)
    result = DeviceDistillResult(device_ids=[0], states=[{}], velocities=[arrays],
                                 losses=[[0.0]])
    channel = published_channel()
    channel.publish("batches", arrays)
    for restored in (shipped(task).velocities[0], shipped(task).inputs,
                     shipped(result).velocities[0], channel.fetch("batches")):
        np.testing.assert_array_equal(np.concatenate(restored), np.arange(15.0))
