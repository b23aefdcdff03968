"""Memory benchmark: transient allocations per training step, against budgets.

Three sections over the same three workloads, and one whole-round probe:

* **fused device-step** — one fused cohort of B={COHORT} devices
  (``BatchedModule`` + ``BatchedSGD``) through a warmed steady-state step
  loop with ``zero_grad(set_to_none=False)``.  The measurement is
  peak-traced-bytes minus steady-state baseline across the loop — the
  transient working set the allocator must service per step — normalized
  per fused device-step.
* **serial forward** — the same loop on a single model with only the
  ``model(...)`` call inside the measurement window: what one training
  forward allocates once backward reclaim recycles its activations through
  the per-thread :class:`~repro.nn.BufferPool`.
* **retention** — after the warmed fused loop, the bytes the scratch arena
  holds (free slabs plus the ones checked out) may not exceed
  {RETENTION_FACTOR}x the most it ever had checked out at once — a pool
  that parks idle buffers per shape fails it.
* **round alternation** — in a fresh process, a cohort of B={COHORT} of the
  whole-round harness's CNN (1x16x16, channels 16/32, batch 32, 180-sample
  evaluation) alternates ``FusedLocalTrainTask`` and ``FusedEvaluateTask``
  for {ROUNDS} rounds, trimming the arena at each round boundary as the
  engine does.  The measurement is the growth of the process's peak RSS over the
  rounds: training and evaluation slabs share no size class, so this is
  where an arena (or a stack) that holds more than a round needs shows.

The benchmark **asserts** its regression guards (exit code 1 on violation,
so CI fails loudly).  The first two are absolute byte budgets per workload
(``STEP_BUDGET_BYTES`` / ``FORWARD_BUDGET_BYTES``): {BUDGET_FACTOR}x what
the pooled, in-place engine measured when the budgets were set.  Every
allocate-per-op formulation this engine has had measured at least 1.48x
those figures, so sliding back to allocating fails the gate.  The round
alternation has an absolute budget too (``ROUND_RSS_BUDGET_MB``); run as one
undivided B={COHORT} stack it grew by 692 MiB, five times the budget.

Not a pytest file on purpose (no ``test_`` prefix): run it directly with

    PYTHONPATH=src python benchmarks/bench_memory.py [--quick]
"""

from __future__ import annotations

import argparse
import gc
import json
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from conftest import bench_environment, own_peak_rss_mb  # noqa: E402

from repro.datasets.base import ImageDataset  # noqa: E402
from repro.federated import FusedLocalTrainTask, WorkerContext  # noqa: E402
from repro.federated.cohort import FusedEvaluateTask  # noqa: E402
from repro.federated.trainer import DeviceTrainingConfig  # noqa: E402
from repro.models.simple import FullyConnected, LeNet, SimpleCNN  # noqa: E402
from repro.nn import SGD, Tensor, scratch_pool  # noqa: E402
from repro.nn.batched import (  # noqa: E402
    BatchedModule,
    BatchedSGD,
    batched_cross_entropy,
)
from repro.nn.losses import cross_entropy  # noqa: E402

RETENTION_FACTOR = 1.25
# Byte budgets: BUDGET_FACTOR x the figures BENCH_memory.json held when the
# allocate-per-op paths they used to be compared against were deleted.
BUDGET_FACTOR = 1.25
STEP_BUDGET_BYTES = {
    "fully_connected": BUDGET_FACTOR * 12_426,
    "lenet": BUDGET_FACTOR * 132_445,
    "simple_cnn": BUDGET_FACTOR * 134_660,
}
FORWARD_BUDGET_BYTES = {
    "fully_connected": BUDGET_FACTOR * 14_634,
    "lenet": BUDGET_FACTOR * 32_822,
    "simple_cnn": BUDGET_FACTOR * 80_068,
}
# Growth of peak RSS over the round alternation: BUDGET_FACTOR x the MiB
# measured when cohort tiles landed (the arena itself holds 57 of them, 2.0x
# its high-water: training and evaluation slabs share no size class).
ROUND_RSS_BUDGET_MB = BUDGET_FACTOR * 111.6
ROUNDS = 3
COHORT = 8
INPUT_SHAPE = (3, 8, 8)
NUM_CLASSES = 4
BATCH_SIZE = 8
LR, MOMENTUM = 0.05, 0.9
WARMUP_STEPS = 3

__doc__ = __doc__.format(COHORT=COHORT, BUDGET_FACTOR=BUDGET_FACTOR,
                         RETENTION_FACTOR=RETENTION_FACTOR, ROUNDS=ROUNDS)

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


def _step(module, optimizer, images, labels):
    optimizer.zero_grad(set_to_none=False)
    loss_vec = batched_cross_entropy(module(Tensor(images)), labels)
    loss_vec.sum().backward()
    optimizer.step()


def _measure_step(factory, steps):
    """Peak transient traced bytes across a warmed fused step loop."""
    module, optimizer, images, labels = _fused_cohort(factory, WARMUP_STEPS + steps)

    tracemalloc.start()
    # Warm-up establishes the steady state: persistent grad buffers and
    # pooled scratch.
    for step in range(WARMUP_STEPS):
        _step(module, optimizer, images[step], labels[step])
    gc.collect()
    tracemalloc.reset_peak()
    baseline = tracemalloc.get_traced_memory()[0]
    for step in range(WARMUP_STEPS, WARMUP_STEPS + steps):
        _step(module, optimizer, images[step], labels[step])
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    # Temporaries die within the step that made them, so the loop peak
    # is one step's transient working set, not ``steps`` of them.
    return max(peak - baseline, 0) / COHORT


def _measure_forward(factory, steps):
    """Transient traced bytes of the *forward pass* in a serial train loop.

    Only the ``model(...)`` call is inside the measurement window; the
    loss, backward, and optimizer step run between windows so backward
    reclaim can recycle pooled activations for the next forward.
    """
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
            _step(module, optimizer, images[step], labels[step])
        stats.update(scratch_pool().stats())

    thread = threading.Thread(target=loop)
    thread.start()
    thread.join()
    return stats


def _round_probe():
    """Child mode: the train-then-evaluate alternation in this fresh process.

    Prints ``{"rss_growth_mb", "arena_retained_mb", "arena_high_water_mb"}``.
    """
    shape, classes, per_device = (1, 16, 16), 10, 75
    rng = np.random.default_rng(31)

    def dataset(samples, name):
        return ImageDataset(rng.normal(size=(samples, *shape)),
                            rng.integers(0, classes, size=samples), classes, name)

    devices = range(COHORT)
    context = WorkerContext(
        models={index: SimpleCNN(shape, classes, channels=(16, 32), seed=index)
                for index in devices},
        shards={index: dataset(per_device, f"shard-{index}") for index in devices},
        train_configs=dict.fromkeys(devices, DeviceTrainingConfig(
            lr=LR, momentum=MOMENTUM, batch_size=32)),
        eval_dataset=dataset(180, "eval"))
    states = [context.models[index].state_dict() for index in devices]
    rng_states = [np.random.default_rng(index).bit_generator.state for index in devices]
    gc.collect()
    before = own_peak_rss_mb()
    for round_index in range(ROUNDS):
        scratch_pool().enter_round(round_index)
        results = FusedLocalTrainTask(list(devices), states, epochs=3,
                                      rng_states=rng_states).run(context)
        states = [result.state for result in results]
        rng_states = [result.rng_state for result in results]
        FusedEvaluateTask(list(devices), states).run(context)
    after = own_peak_rss_mb()
    stats = scratch_pool().stats()
    print(json.dumps({
        "rss_growth_mb": after - before,
        "arena_retained_mb": (stats["free_bytes"] + stats["outstanding_bytes"]) / 2 ** 20,
        "arena_high_water_mb": stats["outstanding_high_water"] / 2 ** 20,
    }))
    return 0


def _measure_round_alternation():
    done = subprocess.run([sys.executable, __file__, "--round-probe"],
                          stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller workload (sanity check, not a real measurement)")
    parser.add_argument("--steps", type=int, default=None,
                        help="measured training steps per mode")
    parser.add_argument("--output", default=str(REPO_ROOT / "BENCH_memory.json"))
    parser.add_argument("--round-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.round_probe:
        return _round_probe()

    steps = args.steps if args.steps is not None else (3 if args.quick else 10)
    enforce = not args.quick

    print(f"memory benchmark: B={COHORT} fused devices, batch {BATCH_SIZE}, "
          f"{steps} measured steps, budget: transient bytes per device-step")

    results = []
    failures = []
    for name, factory in sorted(WORKLOADS.items()):
        measured = _measure_step(factory, steps)
        budget = STEP_BUDGET_BYTES[name]
        results.append({
            "workload": name,
            "optimized_bytes_per_device_step": measured,
            "budget_bytes": budget,
        })
        print(f"  {name:16s} {measured / 1024:8.1f} KiB/device-step  "
              f"budget {budget / 1024:8.1f} KiB")
        if measured > budget:
            failures.append(f"{name}: {measured:.0f} B per device-step > "
                            f"budget {budget:.0f} B")

    print("\nforward pass (serial model, budget: transient bytes per forward)")
    forward_results = []
    for name, factory in sorted(WORKLOADS.items()):
        measured = _measure_forward(factory, steps)
        budget = FORWARD_BUDGET_BYTES[name]
        forward_results.append({
            "workload": name,
            "pooled_bytes_per_forward": measured,
            "budget_bytes": budget,
        })
        print(f"  {name:16s} {measured / 1024:8.1f} KiB/forward  "
              f"budget {budget / 1024:8.1f} KiB")
        if measured > budget:
            failures.append(f"forward/{name}: {measured} B per forward > "
                            f"budget {budget:.0f} B")

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

    print(f"\nround alternation (B={COHORT} cnn 16/32 at 1x16x16: fused train, fused "
          f"180-sample evaluation, {ROUNDS} rounds; budget: peak-RSS growth)")
    alternation = _measure_round_alternation()
    alternation["budget_mb"] = ROUND_RSS_BUDGET_MB
    print(f"  peak RSS grew {alternation['rss_growth_mb']:7.1f} MiB  budget "
          f"{ROUND_RSS_BUDGET_MB:7.1f} MiB  (arena retains "
          f"{alternation['arena_retained_mb']:.1f} MiB, high-water "
          f"{alternation['arena_high_water_mb']:.1f} MiB)")
    if alternation["rss_growth_mb"] > ROUND_RSS_BUDGET_MB:
        failures.append(f"round alternation: peak RSS grew "
                        f"{alternation['rss_growth_mb']:.1f} MiB > budget "
                        f"{ROUND_RSS_BUDGET_MB:.1f} MiB")

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
        "round_alternation": alternation,
        "targets": {"step_budget_bytes": STEP_BUDGET_BYTES,
                    "forward_budget_bytes": FORWARD_BUDGET_BYTES,
                    "retention_factor": RETENTION_FACTOR,
                    "round_rss_budget_mb": ROUND_RSS_BUDGET_MB},
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
    print(f"ok: every workload is within its byte budgets, the arena retains <= "
          f"{RETENTION_FACTOR}x its high-water, and the round alternation stays "
          f"under {ROUND_RSS_BUDGET_MB:.0f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
