"""Memory benchmark: temporary allocations per fused device-step, A/B'd.

Trains one fused cohort of B={COHORT} devices (``BatchedModule`` +
``BatchedSGD``) through a warmed steady-state step loop twice:

* **optimized** — the defaults this repo ships: allocation-free gradient
  accumulation (in-place ``+=`` into persistent ``.grad`` buffers adopted
  on first touch), ``zero_grad(set_to_none=False)``, and im2col/grad-cols
  scratch reuse through the thread-local :class:`~repro.nn.BufferPool`.
* **legacy** — the pre-optimization behaviour, recreated via
  ``set_allocation_free(False)`` + ``set_pooling(False)`` +
  ``zero_grad(set_to_none=True)``: every backward step re-allocates its
  gradient arrays and im2col scratch from scratch.

Both paths compute bit-identical values (pinned by the nn test suite); the
only difference tracemalloc can see is allocation churn.  The measurement
is peak-traced-bytes minus steady-state baseline across the step loop —
i.e. the transient working set the allocator must service per step —
normalized per fused device-step.

A second section A/B's the **pooled forward pass**: the same training step
loop on a single (serial) model with forward activations fed from the
per-thread :class:`~repro.nn.BufferPool` (``set_forward_pooling(True)``,
the default) versus freshly allocated every step
(``set_forward_pooling(False)``).  Pooled forward buffers are released at
backward reclaim, so in steady state the forward pass recycles one step's
activations instead of re-allocating them.

A third section is an **absolute** gate on the pool itself: after the
warmed fused loop, the bytes the scratch arena holds (free slabs plus the
ones checked out) may not exceed {RETENTION_FACTOR}x the most it ever had
checked out at once — a pool that parks idle buffers per shape fails it.

The benchmark **asserts** its regression guards (exit code 1 on violation,
so CI fails loudly): the optimized path must allocate at least
{TARGET_REDUCTION:.0%} less transient memory per fused device-step than
the legacy path, pooled forwards must cut the serial step's transient
bytes by at least {FORWARD_TARGET_REDUCTION:.0%}, and the arena must stay
within its retention bound on every workload.

Not a pytest file on purpose (no ``test_`` prefix): run it directly with

    PYTHONPATH=src python benchmarks/bench_memory.py [--quick]
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from conftest import bench_environment  # noqa: E402

from repro.models.simple import FullyConnected, LeNet, SimpleCNN  # noqa: E402
from repro.nn import (  # noqa: E402
    SGD,
    Tensor,
    scratch_pool,
    set_allocation_free,
    set_forward_pooling,
    set_pooling,
)
from repro.nn.batched import (  # noqa: E402
    BatchedModule,
    BatchedSGD,
    batched_cross_entropy,
)
from repro.nn.losses import cross_entropy  # noqa: E402

TARGET_REDUCTION = 0.5
FORWARD_TARGET_REDUCTION = 0.3
RETENTION_FACTOR = 1.25
COHORT = 8
INPUT_SHAPE = (3, 8, 8)
NUM_CLASSES = 4
BATCH_SIZE = 8
LR, MOMENTUM = 0.05, 0.9
WARMUP_STEPS = 3

__doc__ = __doc__.format(TARGET_REDUCTION=TARGET_REDUCTION, COHORT=COHORT,
                         FORWARD_TARGET_REDUCTION=FORWARD_TARGET_REDUCTION,
                         RETENTION_FACTOR=RETENTION_FACTOR)

WORKLOADS = {
    "fully_connected": lambda seed: FullyConnected(
        INPUT_SHAPE, NUM_CLASSES, hidden_sizes=(16, 8), seed=seed),
    "simple_cnn": lambda seed: SimpleCNN(
        INPUT_SHAPE, NUM_CLASSES, channels=(4, 8), hidden_size=16, seed=seed),
    "lenet": lambda seed: LeNet(
        INPUT_SHAPE, NUM_CLASSES, conv_channels=(4, 8), fc_sizes=(24,), seed=seed),
}


def _cohort_data(rng, steps):
    images = rng.normal(size=(steps, COHORT, BATCH_SIZE, *INPUT_SHAPE))
    labels = rng.integers(0, NUM_CLASSES, size=(steps, COHORT, BATCH_SIZE))
    return images, labels


def _fused_cohort(factory, steps):
    """The fused cohort module, its optimizer and ``steps`` batches of data."""
    images, labels = _cohort_data(np.random.default_rng(23), steps)
    states = [factory(seed=index).state_dict() for index in range(COHORT)]
    module = BatchedModule(factory(seed=0), states)
    module.train()
    optimizer = BatchedSGD(module.parameters(), COHORT, lr=LR, momentum=MOMENTUM)
    return module, optimizer, images, labels


def _step(module, optimizer, images, labels, set_to_none):
    optimizer.zero_grad(set_to_none=set_to_none)
    loss_vec = batched_cross_entropy(module(Tensor(images)), labels)
    loss_vec.sum().backward()
    optimizer.step()


def _measure_mode(factory, steps, optimized):
    """Peak transient traced bytes across a warmed fused step loop.

    Toggles are restored before returning so one mode cannot leak its
    policy into the other (or into anything else running in-process).
    """
    previous_alloc = set_allocation_free(optimized)
    previous_pool = set_pooling(optimized)
    set_to_none = not optimized
    try:
        module, optimizer, images, labels = _fused_cohort(factory, WARMUP_STEPS + steps)

        tracemalloc.start()
        # Warm-up establishes the steady state each mode is entitled to:
        # persistent grad buffers and pooled scratch for the optimized
        # path, nothing for the legacy path.
        for step in range(WARMUP_STEPS):
            _step(module, optimizer, images[step], labels[step], set_to_none)
        gc.collect()
        tracemalloc.reset_peak()
        baseline = tracemalloc.get_traced_memory()[0]
        for step in range(WARMUP_STEPS, WARMUP_STEPS + steps):
            _step(module, optimizer, images[step], labels[step], set_to_none)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        # Temporaries die within the step that made them, so the loop peak
        # is one step's transient working set, not ``steps`` of them.
        return max(peak - baseline, 0) / COHORT
    finally:
        set_allocation_free(previous_alloc)
        set_pooling(previous_pool)


def _measure_forward_mode(factory, steps, pooled):
    """Transient traced bytes of the *forward pass* in a serial train loop.

    Only the ``model(...)`` call is inside the measurement window; the
    loss, backward, and optimizer step run between windows so backward
    reclaim can recycle pooled activations for the next forward.
    Allocation-free accumulation and scratch pooling stay at their
    defaults in both modes — the delta isolates what feeding forward
    activations from the :class:`~repro.nn.BufferPool` saves.
    """
    previous = set_forward_pooling(pooled)
    try:
        rng = np.random.default_rng(29)
        images, labels = _cohort_data(rng, WARMUP_STEPS + steps)
        model = factory(seed=0)
        model.train()
        optimizer = SGD(model.parameters(), lr=LR, momentum=MOMENTUM)

        def rest_of_step(index, out):
            loss = cross_entropy(out, labels[index, 0])
            loss.backward()
            optimizer.step()

        tracemalloc.start()
        for index in range(WARMUP_STEPS):
            optimizer.zero_grad(set_to_none=False)
            rest_of_step(index, model(Tensor(images[index, 0])))
        gc.collect()
        worst = 0
        for index in range(WARMUP_STEPS, WARMUP_STEPS + steps):
            optimizer.zero_grad(set_to_none=False)
            tracemalloc.reset_peak()
            baseline = tracemalloc.get_traced_memory()[0]
            out = model(Tensor(images[index, 0]))
            peak = tracemalloc.get_traced_memory()[1]
            worst = max(worst, peak - baseline)
            rest_of_step(index, out)
        tracemalloc.stop()
        return max(worst, 0)
    finally:
        set_forward_pooling(previous)


def _measure_retention(factory, steps):
    """What the scratch arena holds after the warmed fused loop, against
    the most it had checked out at once.

    Runs on a fresh thread: pools are per-thread, so the counters start at
    zero and nothing an earlier measurement parked is in them.
    """
    stats = {}

    def loop():
        module, optimizer, images, labels = _fused_cohort(factory, WARMUP_STEPS + steps)
        for step in range(WARMUP_STEPS + steps):
            _step(module, optimizer, images[step], labels[step], set_to_none=False)
        stats.update(scratch_pool().stats())

    thread = threading.Thread(target=loop)
    thread.start()
    thread.join()
    return stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller workload (sanity check, not a real measurement)")
    parser.add_argument("--steps", type=int, default=None,
                        help="measured training steps per mode")
    parser.add_argument("--output", default=str(REPO_ROOT / "BENCH_memory.json"))
    args = parser.parse_args(argv)

    steps = args.steps if args.steps is not None else (3 if args.quick else 10)
    enforce = not args.quick

    print(f"memory benchmark: B={COHORT} fused devices, batch {BATCH_SIZE}, "
          f"{steps} measured steps, target >= {TARGET_REDUCTION:.0%} fewer "
          f"transient bytes per device-step")

    results = []
    failures = []
    for name, factory in sorted(WORKLOADS.items()):
        legacy = _measure_mode(factory, steps, optimized=False)
        optimized = _measure_mode(factory, steps, optimized=True)
        reduction = 1.0 - optimized / legacy if legacy else 0.0
        results.append({
            "workload": name,
            "legacy_bytes_per_device_step": legacy,
            "optimized_bytes_per_device_step": optimized,
            "reduction": reduction,
        })
        print(f"  {name:16s} legacy {legacy / 1024:8.1f} KiB/device-step  "
              f"optimized {optimized / 1024:8.1f} KiB/device-step  "
              f"reduction {reduction:6.1%}")
        if reduction < TARGET_REDUCTION:
            failures.append(f"{name}: reduction {reduction:.1%} < target "
                            f"{TARGET_REDUCTION:.0%}")

    print(f"\nforward-pass pooling (serial model, target >= "
          f"{FORWARD_TARGET_REDUCTION:.0%} fewer transient bytes per forward)")
    forward_results = []
    for name, factory in sorted(WORKLOADS.items()):
        unpooled = _measure_forward_mode(factory, steps, pooled=False)
        pooled = _measure_forward_mode(factory, steps, pooled=True)
        reduction = 1.0 - pooled / unpooled if unpooled else 0.0
        forward_results.append({
            "workload": name,
            "unpooled_bytes_per_forward": unpooled,
            "pooled_bytes_per_forward": pooled,
            "reduction": reduction,
        })
        print(f"  {name:16s} unpooled {unpooled / 1024:8.1f} KiB/forward  "
              f"pooled {pooled / 1024:8.1f} KiB/forward  "
              f"reduction {reduction:6.1%}")
        if reduction < FORWARD_TARGET_REDUCTION:
            failures.append(f"forward/{name}: reduction {reduction:.1%} < "
                            f"target {FORWARD_TARGET_REDUCTION:.0%}")

    print(f"\nscratch-arena retention (fused loop, bound: retained <= "
          f"{RETENTION_FACTOR}x outstanding high-water)")
    retention_results = []
    for name, factory in sorted(WORKLOADS.items()):
        stats = _measure_retention(factory, steps)
        retained = stats["free_bytes"] + stats["outstanding_bytes"]
        high_water = stats["outstanding_high_water"]
        ratio = retained / high_water
        hit_rate = stats["hits"] / stats["acquires"]
        retention_results.append({
            "workload": name,
            "retained_bytes": retained,
            "outstanding_high_water_bytes": high_water,
            "ratio": ratio,
            "hit_rate": hit_rate,
            "allocated_bytes": stats["allocated_bytes"],
        })
        print(f"  {name:16s} retained {retained / 1024:8.1f} KiB  high-water "
              f"{high_water / 1024:8.1f} KiB  ratio {ratio:5.2f}  hit rate {hit_rate:6.1%}")
        if ratio > RETENTION_FACTOR:
            failures.append(f"retention/{name}: retained {retained} B > "
                            f"{RETENTION_FACTOR} x high-water {high_water} B")

    payload = {
        "benchmark": "memory",
        "cohort_size": COHORT,
        "batch_size": BATCH_SIZE,
        "input_shape": list(INPUT_SHAPE),
        "num_classes": NUM_CLASSES,
        "warmup_steps": WARMUP_STEPS,
        "measured_steps": steps,
        "metric": "tracemalloc peak minus steady-state baseline, per fused device-step",
        "workloads": results,
        "forward_pooling": forward_results,
        "retention": retention_results,
        "targets": {"reduction": TARGET_REDUCTION,
                    "forward_reduction": FORWARD_TARGET_REDUCTION,
                    "retention_factor": RETENTION_FACTOR},
        "failures": failures,
        **bench_environment(),
        "numpy": np.__version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    output = Path(args.output)
    output.write_text(json.dumps(payload, indent=2, default=float) + "\n",
                      encoding="utf-8")
    print(f"\nwrote {output}")

    if failures and not enforce:
        print("targets not enforced under --quick; would have failed:")
        for failure in failures:
            print(f"  - {failure}")
        return 0
    if failures:
        print("MEMORY REGRESSIONS:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"ok: optimized path allocates >= {TARGET_REDUCTION:.0%} less transient "
          f"memory per fused device-step and the arena retains <= "
          f"{RETENTION_FACTOR}x its high-water for all workloads")
    return 0


if __name__ == "__main__":
    sys.exit(main())
