"""Cohort-fusion benchmark: stacked batch-of-devices training vs the per-device loop.

Times local-training steps for a homogeneous cohort of B={COHORT} devices as
the historical per-device loop (one model, one ``SGD``, one autograd graph
per device) and as consecutive stacked tiles of width 1, 2, 4 and 8
(``BatchedModule`` + ``BatchedSGD`` over each tile's parameter sets, tile
after tile — what ``FusedLocalTrainTask`` runs), over a sweep of
3 models x 2 input shapes x 2 batch sizes.  The stacked path performs the
same float64 arithmetic at any width — pinned bit-identical by
``tests/nn/test_batched.py`` / ``tests/federated/test_cohort_fusion.py`` —
so a width only ever trades Python dispatch per device against the bytes
one op has to stream.  At 3x8x8 / batch 8 dispatch is nearly all of a step
and the full stack wins several times over; at the shapes the whole-round
harness runs (1x16x16, batch 32) a CNN's activations leave the cache and
the full stack is the slowest choice.  The sweep is what
``repro.nn.batched.TILE_ARRAY_BYTES`` is fitted to, and each row records
the width ``tile_width`` picks.

The benchmark **asserts** its regression guards (exit code 1 on violation,
so CI fails loudly):

* at 3x8x8 / batch 8 the chosen width is at least {TARGET_SPEEDUP}x faster per
  device-step than the per-device loop, for every architecture;
* on every row the chosen width is within {WIDTH_SLACK:.0%} of the best
  measured width and no slower than {SERIAL_FLOOR}x the per-device loop.

Every configuration of every row is sampled {REPEATS} times, the
configurations taking turns; the times reported are medians, the gated
ratios medians of the per-repeat ratios (``conftest.paired_ratio``).

Not a pytest file on purpose (no ``test_`` prefix): run it directly with

    PYTHONPATH=src python benchmarks/bench_cohort_fusion.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from conftest import (  # noqa: E402
    REPEATS,
    SERIAL_FLOOR,
    TARGET_SPEEDUP,
    WIDTH_SLACK,
    bench_environment,
    interleaved_samples,
    own_peak_rss_mb,
    paired_ratio,
    probe_peak_rss_mb,
    width_columns,
    width_gate_failures,
)

from repro.models.simple import FullyConnected, LeNet, SimpleCNN  # noqa: E402
from repro.nn import SGD, Tensor  # noqa: E402
from repro.nn.batched import (  # noqa: E402
    BatchedModule,
    BatchedSGD,
    _sample_footprint,
    batched_cross_entropy,
    tile_width,
)
from repro.nn.losses import cross_entropy  # noqa: E402
from repro.nn.policy import using_numeric_policy  # noqa: E402

COHORT = 8
WIDTHS = (1, 2, 4, 8)
BATCH_SIZES = (8, 32)
LR, MOMENTUM = 0.05, 0.9
#: The row the ``TARGET_SPEEDUP`` gate has always been taken on.
GATED_SHAPE, GATED_BATCH = "3x8x8", 8

__doc__ = __doc__.format(TARGET_SPEEDUP=TARGET_SPEEDUP, COHORT=COHORT, REPEATS=REPEATS,
                         WIDTH_SLACK=WIDTH_SLACK, SERIAL_FLOOR=SERIAL_FLOOR)

#: shape name -> (input shape, classes, steps per timed sample, model
#: factories).  A sample is kept short and repeated often: on a shared box a
#: disturbance (a neighbour, a burst of page faults) lasts seconds, so short
#: samples taken in turns put the same spell under every configuration of a
#: repeat and the per-repeat ratios stay clean.  The 1x16x16 models are
#: the small-image device suite's CNN, FC and LeNet-M
#: (``repro.models.registry``), the ones the whole-round harness trains.
SHAPES = {
    "3x8x8": ((3, 8, 8), 4, 12, {
        "fully_connected": lambda shape, classes, seed: FullyConnected(
            shape, classes, hidden_sizes=(16, 8), seed=seed),
        "simple_cnn": lambda shape, classes, seed: SimpleCNN(
            shape, classes, channels=(4, 8), hidden_size=16, seed=seed),
        "lenet": lambda shape, classes, seed: LeNet(
            shape, classes, conv_channels=(4, 8), fc_sizes=(24,), seed=seed),
    }),
    "1x16x16": ((1, 16, 16), 10, 4, {
        "fully_connected": lambda shape, classes, seed: FullyConnected(
            shape, classes, hidden_sizes=(128, 64), seed=seed),
        "simple_cnn": lambda shape, classes, seed: SimpleCNN(
            shape, classes, channels=(16, 32), seed=seed),
        "lenet": lambda shape, classes, seed: LeNet(
            shape, classes, conv_channels=(6, 16), fc_sizes=(64, 32), seed=seed),
    }),
}


def _factory(shape_name, model):
    shape, classes, _, models = SHAPES[shape_name]
    return lambda seed: models[model](shape, classes, seed)


def _cohort_data(shape_name, batch, steps):
    shape, classes, _, _ = SHAPES[shape_name]
    rng = np.random.default_rng(17)
    images = rng.normal(size=(steps, COHORT, batch, *shape))
    labels = rng.integers(0, classes, size=(steps, COHORT, batch))
    return images, labels


def _time_serial(factory, images, labels):
    models = [factory(seed=index) for index in range(COHORT)]
    start = time.perf_counter()
    for device, model in enumerate(models):
        model.train()
        optimizer = SGD(model.parameters(), lr=LR, momentum=MOMENTUM)
        for step in range(images.shape[0]):
            optimizer.zero_grad()
            loss = cross_entropy(model(Tensor(images[step, device])),
                                 labels[step, device])
            loss.backward()
            optimizer.step()
    return time.perf_counter() - start


def _time_tiled(factory, images, labels, width):
    """The cohort as consecutive stacked tiles, each run to completion."""
    states = [factory(seed=index).state_dict() for index in range(COHORT)]
    template = factory(seed=0)
    tiles = []
    for lo in range(0, COHORT, width):
        hi = min(lo + width, COHORT)
        module = BatchedModule(template, states[lo:hi])
        module.train()
        tiles.append((lo, hi, module, BatchedSGD(module.parameters(), hi - lo,
                                                 lr=LR, momentum=MOMENTUM)))
    start = time.perf_counter()
    for lo, hi, module, optimizer in tiles:
        for step in range(images.shape[0]):
            optimizer.zero_grad()
            loss_vec = batched_cross_entropy(module(Tensor(images[step, lo:hi])),
                                             labels[step, lo:hi])
            loss_vec.sum().backward()
            optimizer.step()
    return time.perf_counter() - start


def _run(config, factory, images, labels):
    if config == "per_device":
        return _time_serial(factory, images, labels)
    return _time_tiled(factory, images, labels, config)


def _rss_probe(spec):
    """Child mode: run a few steps of one configuration in this fresh
    process and print its peak RSS in MiB."""
    shape_name, model, batch, config = json.loads(spec)
    images, labels = _cohort_data(shape_name, batch, steps=3)
    _run(config, _factory(shape_name, model), images, labels)
    print(own_peak_rss_mb())
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="one timed sample per configuration (sanity check, not a "
                             "real measurement)")
    parser.add_argument("--steps", type=int, default=None,
                        help="local-training steps per repeat (default: per input shape)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed samples per configuration")
    parser.add_argument("--output", default=str(REPO_ROOT / "BENCH_cohort_fusion.json"))
    parser.add_argument("--rss-probe", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.rss_probe is not None:
        return _rss_probe(args.rss_probe)

    repeats = args.repeats if args.repeats is not None else (1 if args.quick else REPEATS)
    # --quick shrinks the measurement below timing-noise floors; it reports
    # the numbers without enforcing the targets.
    enforce = not args.quick

    print(f"cohort-fusion benchmark: B={COHORT} devices, widths {WIDTHS}, "
          f"{repeats} samples each; targets >= {TARGET_SPEEDUP}x at {GATED_SHAPE}/batch "
          f"{GATED_BATCH}, chosen width within {WIDTH_SLACK:.0%} of the best and "
          f">= {SERIAL_FLOOR}x the per-device loop everywhere")

    results = []
    failures = []
    for shape_name, (shape, _, shape_steps, models) in SHAPES.items():
        steps = args.steps if args.steps is not None else shape_steps
        for batch in BATCH_SIZES:
            for model in sorted(models):
                template = _factory(shape_name, model)(0)
                chosen = tile_width(template, COHORT, (batch, *shape))
                per_sample, arrays = _sample_footprint(template, shape)
                label = f"{shape_name}/b{batch}/{model}"
                gated = (shape_name, batch) == (GATED_SHAPE, GATED_BATCH)
                factory = _factory(shape_name, model)
                images, labels = _cohort_data(shape_name, batch, steps)

                timings = interleaved_samples(
                    ["per_device", *sorted({*WIDTHS, chosen})],
                    lambda config: _run(config, factory, images, labels), repeats)
                step_ms = {config: median(values) / (steps * COHORT) * 1e3
                           for config, values in timings.items()}
                serial_ms = step_ms.pop("per_device")
                row = {
                    "workload": model,
                    "input_shape": list(shape),
                    "batch_size": batch,
                    "full_stack_bytes_per_arena_array": COHORT * batch * per_sample / arrays,
                    "steps": steps,
                    "per_device_loop_step_ms": serial_ms,
                    "width_step_ms": {str(width): ms for width, ms in step_ms.items()},
                    **width_columns(timings, chosen),
                }
                if not args.quick:
                    row["peak_rss_mb"] = {
                        str(config): probe_peak_rss_mb(
                            __file__, [shape_name, model, batch, config])
                        for config in ("per_device", *step_ms)}
                results.append(row)
                print(f"  {label:32s} per-device {serial_ms:7.3f}  "
                      + "  ".join(f"w{width} {ms:7.3f}" for width, ms in step_ms.items())
                      + f"  ms/device-step; chose {chosen} (best {row['best_width']}), "
                      f"{row['speedup']:4.2f}x the loop")
                failures += width_gate_failures(label, row, gated)

    # The float32 tier against the float64 one, both as the full stack of the
    # historically gated rows, sampled in turns like the widths.
    float32 = []
    for row in results:
        if (row["input_shape"], row["batch_size"]) != (list(SHAPES[GATED_SHAPE][0]),
                                                       GATED_BATCH):
            continue
        factory = _factory(GATED_SHAPE, row["workload"])
        images, labels = _cohort_data(GATED_SHAPE, GATED_BATCH, row["steps"])

        def full_stack(policy):
            with using_numeric_policy(policy):
                return _time_tiled(factory, images.astype(policy), labels, COHORT)

        timings = interleaved_samples(["float64", "float32"], full_stack, repeats)
        float32.append({
            "workload": row["workload"],
            "fused_float32_per_device_step_ms":
                median(timings["float32"]) / (row["steps"] * COHORT) * 1e3,
            "float32_speedup_vs_float64": paired_ratio(timings["float64"],
                                                       timings["float32"])})

    payload = {
        "benchmark": "cohort_fusion",
        "cohort_size": COHORT,
        "widths": list(WIDTHS),
        "repeats": repeats,
        "workloads": results,
        "float32": float32,
        "targets": {"speedup": TARGET_SPEEDUP,
                    "speedup_row": [GATED_SHAPE, GATED_BATCH],
                    "chosen_vs_best": 1 + WIDTH_SLACK,
                    "chosen_vs_per_device_loop": SERIAL_FLOOR},
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
        print("COHORT-FUSION REGRESSIONS:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"ok: chosen width >= {TARGET_SPEEDUP}x the per-device loop at "
          f"{GATED_SHAPE}/batch {GATED_BATCH}, and within {WIDTH_SLACK:.0%} of the best "
          f"width and >= {SERIAL_FLOOR}x the loop on all {len(results)} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
