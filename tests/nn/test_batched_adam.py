"""BatchedAdam: fused == independent Adams bitwise, state round-trips lossless.

The Phase-2 fusion contract hangs on two properties pinned here:

* slice ``b`` of a :class:`BatchedAdam` step is bitwise identical to an
  independent :class:`Adam` at that slice's step count (the per-slice bias
  corrections are the one place Adam is not purely element-wise across the
  stack);
* stacked <-> unstacked optimizer-state conversion (the wire format that
  ships per-device state into and out of a fused group) is lossless and
  dtype-preserving, so a fused round resumes bit-identically to an unfused
  one.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor
from repro.nn.batched import BatchedAdam
from repro.nn.optim import SGD, Adam

COHORT = 3
SHAPES = [(4, 3), (4,), (2, 3, 3)]


def _param_sets(seed: int, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return [[rng.normal(size=shape).astype(dtype) for shape in SHAPES]
            for _ in range(COHORT)]


def _grad_sets(seed: int, dtype=np.float64):
    return _param_sets(seed + 1000, dtype)


def _tensors(arrays):
    tensors = []
    for array in arrays:
        tensor = Tensor(array, requires_grad=True)
        tensor.data = np.array(array, copy=True)  # keep the caller's dtype
        tensors.append(tensor)
    return tensors


def _stacked_tensors(param_sets):
    tensors = []
    for index in range(len(SHAPES)):
        stacked = np.stack([params[index] for params in param_sets])
        tensor = Tensor(stacked, requires_grad=True)
        tensor.data = np.array(stacked, copy=True)
        tensors.append(tensor)
    return tensors


class TestBatchedAdamParity:
    def _run_serial(self, param_sets, grad_rounds, lr=0.01, preload_steps=None):
        results = []
        for member, params in enumerate(param_sets):
            tensors = _tensors(params)
            optimizer = Adam(tensors, lr=lr)
            if preload_steps is not None:
                state = optimizer.state()
                state["step"] = int(preload_steps[member])
                optimizer.load_state(state)
            for grads in grad_rounds:
                for tensor, grad in zip(tensors, grads[member]):
                    tensor.grad = np.array(grad, copy=True)
                optimizer.step()
            results.append((tensors, optimizer))
        return results

    def _run_batched(self, param_sets, grad_rounds, lr=0.01, preload_steps=None):
        tensors = _stacked_tensors(param_sets)
        optimizer = BatchedAdam(tensors, COHORT, lr=lr)
        if preload_steps is not None:
            state = optimizer.state()
            state["step"] = np.asarray(preload_steps, dtype=np.int64)
            optimizer.load_state(state)
        for grads in grad_rounds:
            for index, tensor in enumerate(tensors):
                tensor.grad = np.stack([grads[member][index]
                                        for member in range(COHORT)])
            optimizer.step()
        return tensors, optimizer

    @pytest.mark.parametrize("steps", [1, 4])
    def test_fused_step_matches_independent_adams(self, steps):
        param_sets = _param_sets(3)
        grad_rounds = [_grad_sets(30 + step) for step in range(steps)]
        serial = self._run_serial(param_sets, grad_rounds)
        stacked, _ = self._run_batched(param_sets, grad_rounds)
        for member, (tensors, _) in enumerate(serial):
            for tensor, block in zip(tensors, stacked):
                np.testing.assert_array_equal(tensor.data, block.data[member])

    def test_heterogeneous_step_counts_use_per_slice_corrections(self):
        # Members resume at different Adam step counts (e.g. one device
        # joined later): the bias corrections must differ per slice.
        preload = [5, 0, 11]
        param_sets = _param_sets(7)
        grad_rounds = [_grad_sets(70 + step) for step in range(2)]
        serial = self._run_serial(param_sets, grad_rounds, preload_steps=preload)
        stacked, batched_opt = self._run_batched(param_sets, grad_rounds,
                                                 preload_steps=preload)
        for member, (tensors, optimizer) in enumerate(serial):
            assert optimizer.state()["step"] == preload[member] + 2
            for tensor, block in zip(tensors, stacked):
                np.testing.assert_array_equal(tensor.data, block.data[member])
        np.testing.assert_array_equal(batched_opt.state()["step"],
                                      np.asarray(preload) + 2)

    def test_moments_match_after_fused_steps(self):
        param_sets = _param_sets(11)
        grad_rounds = [_grad_sets(110 + step) for step in range(3)]
        serial = self._run_serial(param_sets, grad_rounds)
        _, batched_opt = self._run_batched(param_sets, grad_rounds)
        state = batched_opt.state()
        for member, (_, optimizer) in enumerate(serial):
            member_state = optimizer.state()
            for stacked_m, serial_m in zip(state["m"], member_state["m"]):
                np.testing.assert_array_equal(stacked_m[member], serial_m)
            for stacked_v, serial_v in zip(state["v"], member_state["v"]):
                np.testing.assert_array_equal(stacked_v[member], serial_v)


class TestStateRoundTrips:
    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from([np.float32, np.float64]),
           st.lists(st.integers(min_value=0, max_value=50),
                    min_size=COHORT, max_size=COHORT),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_batched_adam_state_is_lossless_and_dtype_preserving(
            self, dtype, steps, seed):
        param_sets = _param_sets(seed % 1000, dtype)
        tensors = _stacked_tensors(param_sets)
        optimizer = BatchedAdam(tensors, COHORT)
        rng = np.random.default_rng(seed)
        state = {
            "step": np.asarray(steps, dtype=np.int64),
            "m": [rng.normal(size=t.data.shape).astype(dtype) for t in tensors],
            "v": [rng.random(size=t.data.shape).astype(dtype) for t in tensors],
        }
        optimizer.load_state(state)
        round_tripped = optimizer.state()
        np.testing.assert_array_equal(round_tripped["step"], state["step"])
        for key in ("m", "v"):
            for loaded, original in zip(round_tripped[key], state[key]):
                assert loaded.dtype == dtype
                np.testing.assert_array_equal(loaded, original)

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from([np.float32, np.float64]),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_stacked_unstacked_conversion_is_lossless(self, dtype, seed):
        # Per-device Adam state -> stacked BatchedAdam -> unstacked again:
        # the exact conversion the fused Phase-2 back-transfer performs.
        param_sets = _param_sets(seed % 1000, dtype)
        serial_optimizers = []
        rng = np.random.default_rng(seed)
        for params in param_sets:
            optimizer = Adam(_tensors(params))
            optimizer.load_state({
                "step": int(rng.integers(0, 40)),
                "m": [rng.normal(size=p.shape).astype(dtype) for p in params],
                "v": [rng.random(size=p.shape).astype(dtype) for p in params],
            })
            serial_optimizers.append(optimizer)
        wires = [optimizer.state_arrays() for optimizer in serial_optimizers]

        count = len(SHAPES)
        stacked = BatchedAdam(_stacked_tensors(param_sets), COHORT)
        stacked.load_state({
            "step": np.array([int(np.asarray(w[0])) for w in wires], dtype=np.int64),
            "m": [np.stack([w[1 + i] for w in wires]) for i in range(count)],
            "v": [np.stack([w[1 + count + i] for w in wires]) for i in range(count)],
        })
        state = stacked.state()
        for member, optimizer in enumerate(serial_optimizers):
            replica = Adam(_tensors(param_sets[member]))
            replica.load_state_arrays(
                [np.asarray(int(state["step"][member]), dtype=np.int64)]
                + [m[member] for m in state["m"]]
                + [v[member] for v in state["v"]])
            for original, loaded in zip(optimizer.state_arrays(),
                                        replica.state_arrays()):
                assert original.dtype == loaded.dtype
                np.testing.assert_array_equal(original, loaded)

    def test_adam_state_arrays_round_trip(self):
        params = _param_sets(5)[0]
        optimizer = Adam(_tensors(params))
        for tensor, grad in zip(optimizer.parameters, _grad_sets(5)[0]):
            tensor.grad = grad
        optimizer.step()
        wire = optimizer.state_arrays()
        replica = Adam(_tensors(params))
        replica.load_state_arrays(wire)
        assert replica.state()["step"] == optimizer.state()["step"]
        for original, loaded in zip(wire, replica.state_arrays()):
            np.testing.assert_array_equal(original, loaded)

    def test_load_state_arrays_validates_length(self):
        optimizer = Adam(_tensors(_param_sets(1)[0]))
        with pytest.raises(ValueError):
            optimizer.load_state_arrays([np.asarray(0)])

    def test_batched_adam_validates_step_vector_shape(self):
        optimizer = BatchedAdam(_stacked_tensors(_param_sets(2)), COHORT)
        state = optimizer.state()
        state["step"] = np.zeros(COHORT + 1, dtype=np.int64)
        with pytest.raises(ValueError):
            optimizer.load_state(state)

    def test_batched_adam_scalar_step_broadcasts(self):
        optimizer = BatchedAdam(_stacked_tensors(_param_sets(2)), COHORT)
        state = optimizer.state()
        state["step"] = 7
        optimizer.load_state(state)
        np.testing.assert_array_equal(optimizer.state()["step"],
                                      np.full(COHORT, 7, dtype=np.int64))
