"""Eval-fusion benchmark: stacked batch-of-devices inference vs the per-device loop.

Times one evaluation sweep (top-1 accuracy on a shared test set) for a
homogeneous cohort of B={COHORT} devices as the per-device loop (what
``EvaluateTask`` does per device: load the state into the model, then
:func:`~repro.federated.trainer.evaluate_accuracy`, a chain of small no-grad
forwards) and as :class:`~repro.nn.BatchedEvaluator` run at tile widths 1,
2, 4 and 8 and at the width ``repro.nn.batched.tile_width`` picks: each
tile's parameter sets stacked on a leading axis, the shared batch broadcast
across the tile, one stacked forward per tile and test batch.  The stacked
path performs the same float64 arithmetic per cohort slice at any width —
pinned bit-identical by ``tests/federated/test_eval_fusion.py`` — so a
width only trades Python dispatch per device against the bytes one op has
to stream.  Two shapes are measured: 256 samples of 3x8x8 in batches of 8,
where dispatch is nearly all of a sweep, and the whole-round harness's
180 samples of 1x16x16 in one batch, where a CNN's stacked temporaries leave
the cache.

The benchmark **asserts** its regression guards (exit code 1 on violation,
so CI fails loudly):

* at 3x8x8 the chosen width evaluates at least {TARGET_SPEEDUP}x faster per
  device than the per-device loop, for every architecture;
* on every row the chosen width is within {WIDTH_SLACK:.0%} of the best
  measured width and no slower than {SERIAL_FLOOR}x the per-device loop.

Every configuration of every row is sampled {REPEATS} times, the
configurations taking turns; the times reported are medians, the gated
ratios medians of the per-repeat ratios (``conftest.paired_ratio``).

Not a pytest file on purpose (no ``test_`` prefix): run it directly with

    PYTHONPATH=src python benchmarks/bench_eval_fusion.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
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
    probe_peak_rss_mb,
    width_columns,
    width_gate_failures,
)

from repro.datasets.base import ImageDataset  # noqa: E402
from repro.federated.trainer import evaluate_accuracy  # noqa: E402
from repro.models.simple import FullyConnected, LeNet, SimpleCNN  # noqa: E402
from repro.nn import BatchedEvaluator, batched  # noqa: E402

COHORT = 8
WIDTHS = (1, 2, 4, 8)
#: The shape the ``TARGET_SPEEDUP`` gate has always been taken on.
GATED_SHAPE = "3x8x8"

__doc__ = __doc__.format(TARGET_SPEEDUP=TARGET_SPEEDUP, COHORT=COHORT, REPEATS=REPEATS,
                         WIDTH_SLACK=WIDTH_SLACK, SERIAL_FLOOR=SERIAL_FLOOR)

#: shape name -> (input shape, classes, eval samples, eval batch, factories).
#: The 1x16x16 row is the whole-round harness's evaluation: the small-image
#: device suite's CNN, FC and LeNet-M on 180 test samples, one batch.
SHAPES = {
    "3x8x8": ((3, 8, 8), 4, 256, 8, {
        "fully_connected": lambda shape, classes, seed: FullyConnected(
            shape, classes, hidden_sizes=(16, 8), seed=seed),
        "simple_cnn": lambda shape, classes, seed: SimpleCNN(
            shape, classes, channels=(4, 8), hidden_size=16, seed=seed),
        "lenet": lambda shape, classes, seed: LeNet(
            shape, classes, conv_channels=(4, 8), fc_sizes=(24,), seed=seed),
    }),
    "1x16x16": ((1, 16, 16), 10, 180, 256, {
        "fully_connected": lambda shape, classes, seed: FullyConnected(
            shape, classes, hidden_sizes=(128, 64), seed=seed),
        "simple_cnn": lambda shape, classes, seed: SimpleCNN(
            shape, classes, channels=(16, 32), seed=seed),
        "lenet": lambda shape, classes, seed: LeNet(
            shape, classes, conv_channels=(6, 16), fc_sizes=(64, 32), seed=seed),
    }),
}


def _cohort(shape_name, model):
    """The cohort's models, their states and the shared evaluation set."""
    shape, classes, samples, _, models = SHAPES[shape_name]
    cohort = [models[model](shape, classes, seed) for seed in range(COHORT)]
    rng = np.random.default_rng(17)
    dataset = ImageDataset(rng.normal(size=(samples, *shape)),
                           rng.integers(0, classes, size=samples), classes, "bench-eval")
    return cohort, [member.state_dict() for member in cohort], dataset


@contextmanager
def _forced_width(width):
    """Make every ``cohort_tiles`` call cut tiles of ``width`` (None: the rule)."""
    rule = batched.tile_width
    if width is not None:
        batched.tile_width = lambda *args: width
    try:
        yield
    finally:
        batched.tile_width = rule


def _time_serial(cohort, states, dataset, eval_batch):
    start = time.perf_counter()
    accuracies = []
    for model, state in zip(cohort, states):
        model.load_state_dict(state)
        accuracies.append(evaluate_accuracy(model, dataset, batch_size=eval_batch))
    return time.perf_counter() - start, accuracies


def _time_fused(cohort, states, dataset, eval_batch, width):
    start = time.perf_counter()
    correct = np.zeros(COHORT)
    with _forced_width(width), BatchedEvaluator(
            cohort[0], states, dataset.images[:eval_batch].shape) as evaluator:
        for begin in range(0, len(dataset), eval_batch):
            images = dataset.images[begin:begin + eval_batch]
            labels = dataset.labels[begin:begin + eval_batch]
            logits = evaluator.predict(images)  # (B, N, C)
            correct += (logits.argmax(axis=-1) == labels[None, :]).sum(axis=-1)
    accuracies = (correct / len(dataset)).tolist()
    return time.perf_counter() - start, accuracies


def _run(config, cohort, states, dataset, eval_batch):
    if config == "per_device":
        return _time_serial(cohort, states, dataset, eval_batch)
    return _time_fused(cohort, states, dataset, eval_batch, config)


def _rss_probe(spec):
    """Child mode: one sweep of one configuration in this fresh process;
    prints its peak RSS in MiB."""
    shape_name, model, config = json.loads(spec)
    _run(config, *_cohort(shape_name, model), SHAPES[shape_name][3])
    print(own_peak_rss_mb())
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller workload (sanity check, not a real measurement)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed samples per configuration")
    parser.add_argument("--output", default=str(REPO_ROOT / "BENCH_eval_fusion.json"))
    parser.add_argument("--rss-probe", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.rss_probe is not None:
        return _rss_probe(args.rss_probe)

    repeats = args.repeats if args.repeats is not None else (1 if args.quick else REPEATS)
    # --quick shrinks the measurement below timing-noise floors; it reports
    # the numbers without enforcing the targets.
    enforce = not args.quick

    print(f"eval-fusion benchmark: B={COHORT} devices, widths {WIDTHS}, "
          f"{repeats} samples each; targets >= {TARGET_SPEEDUP}x at {GATED_SHAPE}, chosen "
          f"width within {WIDTH_SLACK:.0%} of the best and >= {SERIAL_FLOOR}x the "
          f"per-device loop everywhere")

    results = []
    failures = []
    for shape_name, (shape, classes, samples, eval_batch, models) in SHAPES.items():
        for model in sorted(models):
            batch_shape = (min(eval_batch, samples), *shape)
            template = models[model](shape, classes, 0)
            chosen = batched.tile_width(template, COHORT, batch_shape)
            per_sample, arrays = batched._sample_footprint(template, shape)
            label = f"{shape_name}/{samples}x{eval_batch}/{model}"
            gated = shape_name == GATED_SHAPE
            cohort, states, dataset = _cohort(shape_name, model)
            accuracies = {}

            def timed(config):
                elapsed, accuracies[config] = _run(config, cohort, states, dataset,
                                                   eval_batch)
                return elapsed

            timings = interleaved_samples(
                ["per_device", *sorted({*WIDTHS, chosen})], timed, repeats)
            # The stacked sweeps must agree with the per-device one — a fast
            # wrong answer is a bug, not a speedup.
            for config, values in accuracies.items():
                if not np.allclose(accuracies["per_device"], values):
                    raise AssertionError(f"width {config} accuracies {values} "
                                         f"!= per-device {accuracies['per_device']}")
            eval_ms = {config: median(values) / COHORT * 1e3 for config, values in timings.items()}
            serial_ms = eval_ms.pop("per_device")
            row = {
                "workload": model,
                "input_shape": list(shape),
                "eval_samples": samples,
                "eval_batch": eval_batch,
                "full_stack_bytes_per_arena_array":
                    COHORT * batch_shape[0] * per_sample / arrays,
                "per_device_loop_eval_ms": serial_ms,
                "width_eval_ms": {str(width): ms for width, ms in eval_ms.items()},
                **width_columns(timings, chosen),
            }
            if not args.quick:
                row["peak_rss_mb"] = {
                    str(config): probe_peak_rss_mb(__file__, [shape_name, model, config])
                    for config in ("per_device", *eval_ms)}
            results.append(row)
            print(f"  {label:34s} per-device {serial_ms:7.3f}  "
                  + "  ".join(f"w{width} {ms:7.3f}" for width, ms in eval_ms.items())
                  + f"  ms/device-eval; chose {chosen} (best {row['best_width']}), "
                  f"{row['speedup']:4.2f}x the loop")
            failures += width_gate_failures(label, row, gated)

    payload = {
        "benchmark": "eval_fusion",
        "cohort_size": COHORT,
        "widths": list(WIDTHS),
        "repeats": repeats,
        "workloads": results,
        "targets": {"speedup": TARGET_SPEEDUP,
                    "speedup_shape": GATED_SHAPE,
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
        print("EVAL-FUSION REGRESSIONS:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"ok: chosen width >= {TARGET_SPEEDUP}x the per-device loop at {GATED_SHAPE}, "
          f"and within {WIDTH_SLACK:.0%} of the best width and >= {SERIAL_FLOOR}x the "
          f"loop on all {len(results)} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
