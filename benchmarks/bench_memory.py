"""Memory benchmark: transient allocations per training step, against budgets.

Three sections over the same three workloads, three fresh-process probes and
one microbenchmark:

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
  holds (free blocks plus the ones checked out) may not exceed
  {RETENTION_FACTOR}x the most it ever had checked out at once — a pool
  that parks idle buffers per shape fails it.
* **round alternation** — in a fresh process, a cohort of B={COHORT} of the
  whole-round harness's CNN (1x16x16, channels 16/32, batch 32, 180-sample
  evaluation) alternates ``FusedLocalTrainTask`` and ``FusedEvaluateTask``
  for {ROUNDS} rounds, trimming the arena at each round boundary as the
  engine does.  The measurement is the growth of the process's peak RSS over the
  rounds: training and evaluation arrays share no size, so this is
  where an arena (or a stack) that holds more than a round needs shows.
* **server update** — in a fresh process, one FedZKT server update (Phase 1
  and Phase 2) at the whole-round harness's ``zkt_serial`` shape: five
  heterogeneous devices, ``tiny`` scale.  Two gates: the arena retains at
  most {RETENTION_FACTOR}x its outstanding high-water — Phase 1's large
  arrays and Phase 2's many small ones have to be served from the same
  bytes — and the process's peak RSS grows by at most
  ``SERVER_UPDATE_RSS_BUDGET_MB``, which is where a backward pass that holds
  every gradient until its last closure has run shows.
* **shrinking working set** — in a fresh process, one round takes and
  writes {SHRINK_FROM_MB} MiB of the arena and the rounds after it {SHRINK_TO_MB}: after the trim
  that ends the first small round the arena holds what that round used and
  the process's *resident* set (``VmRSS``, not the peak) has fallen by at
  least {SHRINK_SHARE:.0%} of the difference — ``free_bytes`` counts pages, and ``trim``
  gives pages back.
* **batch-norm step** — one recorded training forward + backward of
  ``BatchNorm2d`` at the generator's ``(32, 32, 16, 16)``, input on a conv
  output's channel-innermost layout, on a fresh arena: the acquires exactly
  ``BN_STEP_ACQUIRES`` and the outstanding high-water within
  {BUDGET_FACTOR}x ``BN_STEP_HIGH_WATER_BYTES``.
* **acquire/release pair** — the arena's steady-state request, the size that
  was just released, timed in a loop with both neighbouring blocks checked
  out, in units of the ``np.empty`` it stands in for: at most {PAIR_FACTOR}x what
  the slab arena it replaced took.

The benchmark **asserts** its regression guards (exit code 1 on violation,
so CI fails loudly).  The first two are absolute byte budgets per workload
(``STEP_BUDGET_BYTES`` / ``FORWARD_BUDGET_BYTES``): {BUDGET_FACTOR}x what
the pooled, in-place engine measured when the budgets were set.  Every
allocate-per-op formulation this engine has had measured at least 1.48x
those figures, so sliding back to allocating fails the gate.  The round
alternation has an absolute budget too (``ROUND_RSS_BUDGET_MB``); run as one
undivided B={COHORT} stack it grew by 692 MiB, eight times the budget.  So
does the server update: on the slab arena with end-of-walk reclaim it grew
by {SERVER_UPDATE_BEFORE_MB:.0f} MiB (the arena retaining 158 MiB, 1.17x its high-water of 136).

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
import timeit
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
from repro.nn import SGD, BatchNorm2d, BufferPool, Tensor, scratch_pool  # noqa: E402
from repro.nn.buffers import fresh_pool  # noqa: E402
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
# measured on the region arena (which holds 16 of them, 1.04x its high-water;
# on the slab arena, where training and evaluation shared no size class, it
# grew by 111 and the arena held 57).
ROUND_RSS_BUDGET_MB = BUDGET_FACTOR * 70.5
# Growth of peak RSS over one FedZKT server update: BUDGET_FACTOR x the MiB
# measured when backward began to reclaim as it walks and the arena to split
# and merge; before that it grew by SERVER_UPDATE_BEFORE_MB.
SERVER_UPDATE_RSS_BUDGET_MB = BUDGET_FACTOR * 144.9
SERVER_UPDATE_BEFORE_MB = 224.3
# One acquire/release pair of a 16 KiB array between two checked-out
# neighbours, in units of the ``np.empty`` of that array: what the slab arena
# took (median of eight runs on the box the payload's environment block
# describes) and the factor the region arena may take of it.
PAIR_SLAB_RATIO = 4.58
PAIR_FACTOR = 1.5
# One batch-norm training step on a fresh arena, as ``repro.nn.tensor.batch_norm``
# runs it (four forward buffers, the seed's gradient, two backward scratches; x
# is a leaf, so its gradient is not the arena's).  Written out of Tensor
# primitives the same step took 26 acquires and 18 875 392 bytes.
BN_STEP_ACQUIRES = 7
BN_STEP_HIGH_WATER_BYTES = 10_485_760
# The shrinking working set: MiB written in the large round and in the small
# ones, and the share of the difference the resident set has to fall by.
SHRINK_FROM_MB, SHRINK_TO_MB = 48, 4
SHRINK_SHARE = 0.9
ROUNDS = 3
COHORT = 8
INPUT_SHAPE = (3, 8, 8)
NUM_CLASSES = 4
BATCH_SIZE = 8
LR, MOMENTUM = 0.05, 0.9
WARMUP_STEPS = 3

__doc__ = __doc__.format(COHORT=COHORT, BUDGET_FACTOR=BUDGET_FACTOR,
                         RETENTION_FACTOR=RETENTION_FACTOR, ROUNDS=ROUNDS,
                         SHRINK_FROM_MB=SHRINK_FROM_MB, SHRINK_TO_MB=SHRINK_TO_MB,
                         SHRINK_SHARE=SHRINK_SHARE,
                         PAIR_FACTOR=PAIR_FACTOR,
                         SERVER_UPDATE_BEFORE_MB=SERVER_UPDATE_BEFORE_MB)

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
    print(json.dumps(_arena_report(own_peak_rss_mb() - before)))
    return 0


def _arena_report(rss_growth_mb):
    stats = scratch_pool().stats()
    return {
        "rss_growth_mb": rss_growth_mb,
        "arena_retained_mb": (stats["free_bytes"] + stats["outstanding_bytes"]) / 2 ** 20,
        "arena_high_water_mb": stats["outstanding_high_water"] / 2 ** 20,
    }


def _server_update_probe():
    """Child mode: one FedZKT server update in this fresh process, built as
    the whole-round harness builds ``zkt_serial``."""
    from repro.core.fedzkt import build_fedzkt
    from repro.datasets.registry import dataset_family, load_dataset
    from repro.experiments.configs import federated_config_for, get_scale

    scale = get_scale("tiny")
    config = federated_config_for(scale, dataset_family("mnist"), num_devices=5, seed=0)
    train, test = load_dataset("mnist", train_size=scale.train_size, test_size=scale.test_size,
                               image_size=scale.image_size, seed=0)
    with build_fedzkt(train, test, config, family=dataset_family("mnist")) as simulation:
        server = simulation.strategy.server
        gc.collect()
        before = own_peak_rss_mb()
        server.distiller.server_update(server.device_models)
        print(json.dumps(_arena_report(own_peak_rss_mb() - before)))
    return 0


def _shrink_probe():
    """Child mode: a round that writes ``SHRINK_FROM_MB`` MiB of the arena,
    then rounds that write ``SHRINK_TO_MB``, in this fresh process."""
    pool = scratch_pool()

    def run_round(version, megabytes):
        pool.enter_round(version)
        arrays = [pool.acquire((2 ** 20 // 8,)) for _ in range(megabytes)]
        for array in arrays:
            array.fill(1.0)
        for array in arrays:
            pool.release(array)

    def resident_mb():
        with open("/proc/self/status") as status:
            return next(int(line.split()[1]) for line in status
                        if line.startswith("VmRSS:")) / 1024

    run_round(0, SHRINK_FROM_MB)
    large = resident_mb()
    run_round(1, SHRINK_TO_MB)
    run_round(2, SHRINK_TO_MB)  # the trim at its top is the one that ends round 1
    stats = pool.stats()
    print(json.dumps({
        "rss_fell_mb": large - resident_mb(),
        "arena_retained_mb": (stats["free_bytes"] + stats["outstanding_bytes"]) / 2 ** 20,
    }))
    return 0


def _measure_in_child(flag):
    done = subprocess.run([sys.executable, __file__, flag],
                          stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def _measure_batch_norm_step():
    """Arena counters of one recorded ``BatchNorm2d`` training step."""
    rng = np.random.default_rng(37)
    layer = BatchNorm2d(32)
    layer.train()
    x = Tensor(np.ascontiguousarray(rng.normal(size=(32, 16, 16, 32))).transpose(0, 3, 1, 2),
               requires_grad=True)
    with fresh_pool() as pool:
        layer(x).backward(rng.normal(size=x.shape))
        return pool.stats()


def _measure_pair(repeats):
    """``release(acquire(...))`` for the size that was just released, the
    blocks on either side checked out: ``(nanoseconds, x np.empty)``.

    The gate is on the second figure, the pair's time over that of the
    ``np.empty`` of the same array, sampled turn and turn about — a loaded or
    throttled host slows both, and the best of the repeats is the one the
    host disturbed least.
    """
    pool = BufferPool()
    below, array, above = pool.acquire((100,)), pool.acquire((64, 32)), pool.acquire((3000,))
    pool.release(array)
    dtype = np.dtype(np.float64)

    def pair():
        pool.release(pool.acquire((64, 32), dtype))

    def allocate():
        np.empty((64, 32), dtype)

    number = 20_000
    pairs, allocations = [], []
    for _ in range(repeats):
        pairs.append(timeit.timeit(pair, number=number))
        allocations.append(timeit.timeit(allocate, number=number))
    assert pool.acquire((64, 32)) is array and below.base is not above.base
    return min(pairs) / number * 1e9, min(pairs) / min(allocations)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller workload (sanity check, not a real measurement)")
    parser.add_argument("--steps", type=int, default=None,
                        help="measured training steps per mode")
    parser.add_argument("--output", default=str(REPO_ROOT / "BENCH_memory.json"))
    parser.add_argument("--round-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--server-update-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--shrink-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.round_probe:
        return _round_probe()
    if args.server_update_probe:
        return _server_update_probe()
    if args.shrink_probe:
        return _shrink_probe()

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
    alternation = _measure_in_child("--round-probe")
    alternation["budget_mb"] = ROUND_RSS_BUDGET_MB
    print(f"  peak RSS grew {alternation['rss_growth_mb']:7.1f} MiB  budget "
          f"{ROUND_RSS_BUDGET_MB:7.1f} MiB  (arena retains "
          f"{alternation['arena_retained_mb']:.1f} MiB, high-water "
          f"{alternation['arena_high_water_mb']:.1f} MiB)")
    if alternation["rss_growth_mb"] > ROUND_RSS_BUDGET_MB:
        failures.append(f"round alternation: peak RSS grew "
                        f"{alternation['rss_growth_mb']:.1f} MiB > budget "
                        f"{ROUND_RSS_BUDGET_MB:.1f} MiB")

    print(f"\nserver update (FedZKT Phase 1 + Phase 2, 5 heterogeneous devices, tiny; "
          f"bounds: retained <= {RETENTION_FACTOR}x high-water, peak-RSS growth)")
    server_update = _measure_in_child("--server-update-probe")
    server_update["budget_mb"] = SERVER_UPDATE_RSS_BUDGET_MB
    server_update["ratio"] = (server_update["arena_retained_mb"]
                              / server_update["arena_high_water_mb"])
    print(f"  peak RSS grew {server_update['rss_growth_mb']:7.1f} MiB  budget "
          f"{SERVER_UPDATE_RSS_BUDGET_MB:7.1f} MiB  (arena retains "
          f"{server_update['arena_retained_mb']:.1f} MiB, high-water "
          f"{server_update['arena_high_water_mb']:.1f} MiB, ratio "
          f"{server_update['ratio']:.2f})")
    if server_update["rss_growth_mb"] > SERVER_UPDATE_RSS_BUDGET_MB:
        failures.append(f"server update: peak RSS grew "
                        f"{server_update['rss_growth_mb']:.1f} MiB > budget "
                        f"{SERVER_UPDATE_RSS_BUDGET_MB:.1f} MiB")
    if server_update["ratio"] > RETENTION_FACTOR:
        failures.append(f"server update: arena retains {server_update['ratio']:.2f}x its "
                        f"high-water > {RETENTION_FACTOR}x")

    print(f"\nshrinking working set (rounds of {SHRINK_FROM_MB}, {SHRINK_TO_MB}, {SHRINK_TO_MB} MiB; "
          f"bounds: arena holds {SHRINK_TO_MB} MiB, resident set falls by >= "
          f"{SHRINK_SHARE:.0%} of the difference)")
    shrink = _measure_in_child("--shrink-probe")
    print(f"  resident set fell {shrink['rss_fell_mb']:6.1f} MiB  arena retains "
          f"{shrink['arena_retained_mb']:.1f} MiB")
    if shrink["arena_retained_mb"] != SHRINK_TO_MB:
        failures.append(f"shrinking working set: arena retains "
                        f"{shrink['arena_retained_mb']:.1f} MiB, not {SHRINK_TO_MB}")
    if shrink["rss_fell_mb"] < SHRINK_SHARE * (SHRINK_FROM_MB - SHRINK_TO_MB):
        failures.append(f"shrinking working set: resident set fell by "
                        f"{shrink['rss_fell_mb']:.1f} MiB < {SHRINK_SHARE:.0%} of "
                        f"{SHRINK_FROM_MB - SHRINK_TO_MB}")

    batch_norm_step = _measure_batch_norm_step()
    print(f"\nbatch-norm step (BatchNorm2d at (32, 32, 16, 16), channel-innermost input, fresh "
          f"arena; bounds: {BN_STEP_ACQUIRES} acquires, high-water <= {BUDGET_FACTOR}x "
          f"{BN_STEP_HIGH_WATER_BYTES} B)\n"
          f"  {batch_norm_step['acquires']} acquires  high-water "
          f"{batch_norm_step['outstanding_high_water']} B")
    if batch_norm_step["acquires"] != BN_STEP_ACQUIRES:
        failures.append(f"batch-norm step: {batch_norm_step['acquires']} acquires, "
                        f"not {BN_STEP_ACQUIRES}")
    if batch_norm_step["outstanding_high_water"] > BUDGET_FACTOR * BN_STEP_HIGH_WATER_BYTES:
        failures.append(f"batch-norm step: high-water "
                        f"{batch_norm_step['outstanding_high_water']} B > {BUDGET_FACTOR} x "
                        f"{BN_STEP_HIGH_WATER_BYTES}")

    pair_ns, pair_ratio = _measure_pair(3 if args.quick else 9)
    print(f"\nacquire/release pair (16 KiB, neighbours checked out; bound: "
          f"{PAIR_FACTOR}x the slab arena's {PAIR_SLAB_RATIO:.2f} np.empty)\n"
          f"  {pair_ns:8.0f} ns  {pair_ratio:5.2f} np.empty  "
          f"({pair_ratio / PAIR_SLAB_RATIO:.2f}x the slab arena)")
    if pair_ratio > PAIR_FACTOR * PAIR_SLAB_RATIO:
        failures.append(f"acquire/release pair: {pair_ratio:.2f} np.empty > {PAIR_FACTOR} x "
                        f"{PAIR_SLAB_RATIO:.2f}")

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
        "server_update": server_update,
        "shrinking_working_set": shrink,
        "batch_norm_step": {"acquires": batch_norm_step["acquires"],
                            "outstanding_high_water_bytes":
                                batch_norm_step["outstanding_high_water"]},
        "acquire_release_pair": {"ns": pair_ns, "np_empty_units": pair_ratio,
                                 "slab_arena_np_empty_units": PAIR_SLAB_RATIO,
                                 "ratio": pair_ratio / PAIR_SLAB_RATIO},
        "targets": {"step_budget_bytes": STEP_BUDGET_BYTES,
                    "forward_budget_bytes": FORWARD_BUDGET_BYTES,
                    "retention_factor": RETENTION_FACTOR,
                    "round_rss_budget_mb": ROUND_RSS_BUDGET_MB,
                    "server_update_rss_budget_mb": SERVER_UPDATE_RSS_BUDGET_MB,
                    "batch_norm_step_acquires": BN_STEP_ACQUIRES,
                    "batch_norm_step_high_water_bytes": BUDGET_FACTOR * BN_STEP_HIGH_WATER_BYTES,
                    "pair_factor": PAIR_FACTOR},
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
          f"{RETENTION_FACTOR}x its high-water and gives back what a round did not use, "
          f"the round alternation stays under {ROUND_RSS_BUDGET_MB:.0f} MiB, the server update under "
          f"{SERVER_UPDATE_RSS_BUDGET_MB:.0f} MiB, a batch-norm step takes {BN_STEP_ACQUIRES} "
          f"acquires, and an acquire/release pair within "
          f"{PAIR_FACTOR}x the slab arena's")
    return 0


if __name__ == "__main__":
    sys.exit(main())
