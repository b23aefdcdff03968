"""Hypothesis property tests for the payload round trips and the digest.

The state transport's correctness rests on two invariants:

* what carries a payload across a process boundary is lossless — the
  backend's pickle of a task or result holding live arrays inline
  (``LocalTrainTask``, ``FusedLocalTrainTask``, ``DeviceDistillTask`` and
  its result) and ``repro.net``'s ``DriverChannel`` publish/fetch:
  dtype, shape, values, and memory order all survive, for every dtype the
  models and optimizers produce (float32/64, ints, bools), including 0-d,
  empty, and Fortran-ordered arrays;
* ``state_digest`` is a *content* digest — stable across any number of
  those round trips (nothing of a container leaks in), while distinct
  contents (values, dtypes, shapes, key sets, memory order) get distinct
  digests.
"""

from __future__ import annotations

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.server_tasks import DeviceDistillResult, DeviceDistillTask
from repro.federated.backend import LocalTrainTask
from repro.federated.cohort import FusedLocalTrainTask
from repro.net import BlobService, DriverChannel
from repro.utils import state_digest

_RNG_STATE = np.random.default_rng(0).bit_generator.state


def _shipped(value):
    """``value`` as the far side of a process boundary sees it."""
    return pickle.loads(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


def _through_channel(payload):
    """``payload`` published into and fetched back out of the driver's
    channel (per-tensor ``.npy`` frames, as ``process:N`` and ``tcp://``
    workers read them)."""
    channel = DriverChannel(BlobService())
    channel.publish("key", payload)
    return channel.fetch("key")

_DTYPES = [np.float64, np.float32, np.int64, np.int32, np.bool_]

_KEY_ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-"


def _keys():
    plain = st.text(alphabet=_KEY_ALPHABET, min_size=1, max_size=20)
    # state_dict keys include dots and the buffer:: prefix — exercise both.
    return st.one_of(plain, plain.map(lambda k: f"buffer::{k}"),
                     plain.map(lambda k: f"layers.0.{k}"))


@st.composite
def _arrays(draw):
    dtype = draw(st.sampled_from(_DTYPES))
    shape = draw(st.one_of(
        st.just(()),                                            # 0-d
        st.lists(st.integers(0, 4), min_size=1, max_size=3)     # may be empty
          .map(tuple),
    ))
    if dtype is np.bool_:
        elements = st.booleans()
    elif np.issubdtype(dtype, np.integer):
        elements = st.integers(-2**31 + 1, 2**31 - 1)
    else:
        # Finite floats only (NaN breaks equality, not packing); subnormals
        # are excluded because this container's BLAS sets flush-to-zero.
        elements = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False,
                             allow_subnormal=False,
                             width=32 if dtype is np.float32 else 64)
    size = int(np.prod(shape)) if shape else 1
    values = draw(st.lists(elements, min_size=size, max_size=size))
    array = np.asarray(values, dtype=dtype).reshape(shape)
    if draw(st.booleans()) and array.ndim >= 2:
        array = np.asfortranarray(array)
    return array


def _states():
    return st.dictionaries(_keys(), _arrays(), min_size=0, max_size=5)


def _assert_same_array(original: np.ndarray, restored: np.ndarray) -> None:
    assert restored.dtype == original.dtype
    assert restored.shape == original.shape
    np.testing.assert_array_equal(restored, original)
    if original.ndim >= 2 and original.size:
        # Memory order survives pickling (numpy records it per array).
        assert restored.flags.f_contiguous == original.flags.f_contiguous


@settings(max_examples=60, deadline=None)
@given(state=_states())
def test_state_dict_roundtrip_lossless(state):
    train = _shipped(LocalTrainTask(device_id=0, state=state, epochs=1,
                                    rng_state=_RNG_STATE))
    fused = _shipped(FusedLocalTrainTask(device_ids=[0, 1], states=[state, state],
                                         epochs=1, rng_states=[_RNG_STATE] * 2))
    distill = _shipped(DeviceDistillTask(device_ids=[0], states=[state], velocities=[[]],
                                         inputs=[], targets=[], lr=0.1))
    result = _shipped(DeviceDistillResult(device_ids=[0], states=[state],
                                          velocities=[[]], losses=[[]]))
    for restored in (train.state, fused.states[0], fused.states[1], distill.states[0],
                     result.states[0], _through_channel(state)):
        assert list(restored) == list(state)
        for key, value in state.items():
            _assert_same_array(value, restored[key])


@settings(max_examples=60, deadline=None)
@given(arrays=st.lists(_arrays(), min_size=0, max_size=6))
def test_array_list_roundtrip_preserves_order_and_dtypes(arrays):
    train = _shipped(LocalTrainTask(device_id=0, state={}, epochs=1,
                                    rng_state=_RNG_STATE, anchor=arrays))
    fused = _shipped(FusedLocalTrainTask(device_ids=[0], states=[{}], epochs=1,
                                         rng_states=[_RNG_STATE], anchors=[arrays]))
    distill = _shipped(DeviceDistillTask(device_ids=[0], states=[{}], velocities=[arrays],
                                         inputs=arrays, targets=arrays, lr=0.1))
    result = _shipped(DeviceDistillResult(device_ids=[0], states=[{}],
                                          velocities=[arrays], losses=[[]]))
    for restored in (train.anchor, fused.anchors[0], distill.velocities[0], distill.inputs,
                     distill.targets, result.velocities[0], _through_channel(arrays)):
        # An empty list round-trips to an empty list, never to None.
        assert isinstance(restored, list) and len(restored) == len(arrays)
        for original, out in zip(arrays, restored):
            _assert_same_array(original, out)


@settings(max_examples=60, deadline=None)
@given(state=_states())
def test_digest_stable_across_round_trips(state):
    direct = state_digest(state)
    once = _shipped(state)
    twice = _through_channel(once)
    assert state_digest(once) == direct
    assert state_digest(twice) == direct


@settings(max_examples=60, deadline=None)
@given(state=_states().filter(lambda s: any(np.asarray(v).size for v in s.values())))
def test_digest_distinguishes_value_changes(state):
    key = next(k for k, v in state.items() if np.asarray(v).size)
    mutated = dict(state)
    array = np.array(state[key], copy=True)
    # .flat assigns through to the base array regardless of memory order
    # (reshape(-1) would silently copy for Fortran-ordered arrays).
    first = array.flat[0]
    if array.dtype == np.bool_:
        array.flat[0] = not first
    else:
        array.flat[0] = first + 1 if first < np.iinfo(np.int32).max else first - 1
    mutated[key] = array
    assert state_digest(mutated) != state_digest(state)


@settings(max_examples=30, deadline=None)
@given(state=_states().filter(lambda s: len(s) > 0))
def test_digest_distinguishes_dtype_shape_and_keys(state):
    digest = state_digest(state)
    key = sorted(state)[0]
    array = np.asarray(state[key])

    # Changed key set.
    renamed = {("renamed::" + k if k == key else k): v for k, v in state.items()}
    assert state_digest(renamed) != digest

    # Changed dtype (same values where representable).
    if array.dtype != np.float64:
        retyped = dict(state)
        retyped[key] = array.astype(np.float64)
        assert state_digest(retyped) != digest

    # Changed shape (same bytes).
    if array.ndim >= 1 and array.size:
        reshaped = dict(state)
        reshaped[key] = np.ascontiguousarray(array).reshape(array.size)
        if reshaped[key].shape != array.shape:
            assert state_digest(reshaped) != digest
