"""Multi-node transport benchmark: delta-encoded publishes over tcp://.

Two measurements against the real ``tcp://`` backend (blob server +
``DriverChannel``), written to ``BENCH_multinode.json``:

1. **Steady-state republish** — a model-sized state dict of {NUM_TENSORS}
   equally-sized tensors is published cold (round 1), then republished for
   {STEADY_ROUNDS} rounds with exactly **one** tensor changed per round.
   This is the regime delta encoding exists for (most tensors unchanged
   between rounds): the channel ships the one changed tensor plus a
   manifest, where the cold publish — what re-shipping the whole state
   costs — shipped all of them.

2. **End-to-end FedZKT** — a small FedZKT run on ``tcp://:0?workers=2``.
   Every weight tensor changes after SGD, so what the channel saves here
   is structural (content dedup + consensus reuse), not the 1-of-N regime;
   the run records the bytes and re-checks the house invariant
   (bit-identical history vs ``serial``).

The benchmark **asserts** its regression guards (exit code 1, so CI fails
loudly):

* steady-state: cold publish ≥ {TARGET_STEADY_REDUCTION}x the mean
  round-2+ publish;
* end-to-end: the tcp:// history matches serial bit for bit.

Not a pytest file on purpose (no ``test_`` prefix): run it directly with

    PYTHONPATH=src python benchmarks/bench_multinode.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from conftest import bench_environment  # noqa: E402

from repro.core import build_fedzkt  # noqa: E402
from repro.datasets import SyntheticImageConfig, SyntheticImageGenerator  # noqa: E402
from repro.federated import FederatedConfig, SerialBackend, ServerConfig, make_backend  # noqa: E402

NUM_TENSORS = 12
TENSOR_ELEMENTS = 8192  # 64 KiB of float64 per tensor
STEADY_ROUNDS = 4
TARGET_STEADY_REDUCTION = 5.0

__doc__ = __doc__.format(NUM_TENSORS=NUM_TENSORS, STEADY_ROUNDS=STEADY_ROUNDS,
                         TARGET_STEADY_REDUCTION=TARGET_STEADY_REDUCTION)


# --------------------------------------------------------------------------- #
# Part 1: steady-state republish (1 of N tensors changed per round)
# --------------------------------------------------------------------------- #
def _model_state(rng, num_tensors, elements):
    return {f"layer{i:02d}.weight": rng.normal(size=elements)
            for i in range(num_tensors)}


def measure_steady_state(spec: str, num_tensors: int, elements: int,
                         rounds: int) -> dict:
    """Publish a cold state, then republish with one tensor changed per
    round, through the real tcp:// backend's store + channel.  Returns the
    cold publish size and the per-round steady-state publish sizes."""
    rng = np.random.default_rng(7)
    state = _model_state(rng, num_tensors, elements)
    backend = make_backend(spec)
    with backend:
        backend.start(None)
        store = backend.state_store
        store.advance_round(1)
        store.put_state(state, label="device")
        cold = int(backend.transport_stats()["published_bytes"])

        steady = []
        before = cold
        for round_index in range(2, rounds + 2):
            changed = f"layer{(round_index - 2) % num_tensors:02d}.weight"
            state[changed] = state[changed] + rng.normal(size=elements)
            store.advance_round(round_index)
            store.put_state(state, label="device")
            after = int(backend.transport_stats()["published_bytes"])
            steady.append(after - before)
            before = after
    return {"spec": spec, "cold_publish_bytes": cold,
            "steady_publish_bytes": steady,
            "mean_steady_bytes": sum(steady) / len(steady)}


# --------------------------------------------------------------------------- #
# Part 2: end-to-end FedZKT (+ parity re-check)
# --------------------------------------------------------------------------- #
def _data(samples_train=120, samples_test=40):
    config = SyntheticImageConfig(name="multinode-rgb", num_classes=4, channels=3,
                                  height=8, width=8, family_seed=21, noise_level=0.2,
                                  max_shift=1, modes_per_class=1, background_strength=0.2)
    generator = SyntheticImageGenerator(config)
    return generator.sample(samples_train, seed=1), generator.sample(samples_test, seed=2)


def _config(rounds: int) -> FederatedConfig:
    return FederatedConfig(
        num_devices=4, rounds=rounds, local_epochs=1, batch_size=16,
        device_lr=0.05, seed=3,
        server=ServerConfig(distillation_iterations=2, batch_size=8, noise_dim=16,
                            device_distill_lr=0.02),
    )


def run_fedzkt(backend, rounds: int):
    train, test = _data()
    with backend:
        with build_fedzkt(train, test, _config(rounds), family="small",
                          backend=backend) as sim:
            start = time.perf_counter()
            history = sim.run()
            seconds = time.perf_counter() - start
        stats = backend.transport_stats()
    return history, stats, seconds


def histories_identical(a, b) -> bool:
    if len(a) != len(b):
        return False
    return all(ra.global_accuracy == rb.global_accuracy
               and ra.device_accuracies == rb.device_accuracies
               and ra.local_loss == rb.local_loss
               for ra, rb in zip(a.records, b.records))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller workload (sanity check, not a real measurement)")
    parser.add_argument("--output", default=str(REPO_ROOT / "BENCH_multinode.json"))
    args = parser.parse_args(argv)
    enforce = not args.quick

    num_tensors = 4 if args.quick else NUM_TENSORS
    elements = 1024 if args.quick else TENSOR_ELEMENTS
    steady_rounds = 2 if args.quick else STEADY_ROUNDS
    fedzkt_rounds = 1 if args.quick else 2
    failures = []

    print(f"multinode benchmark: steady-state republish of {num_tensors} tensors "
          f"x {elements} float64, 1 changed per round, {steady_rounds} steady rounds")
    delta = measure_steady_state("tcp://:0", num_tensors, elements, steady_rounds)

    steady_reduction = delta["cold_publish_bytes"] / delta["mean_steady_bytes"]
    print(f"  cold {delta['cold_publish_bytes']:>10,} B  "
          f"steady mean {delta['mean_steady_bytes']:>12,.0f} B  "
          f"({steady_reduction:.1f}x below cold)")
    if steady_reduction < TARGET_STEADY_REDUCTION:
        failures.append(f"steady-state delta publish only {steady_reduction:.1f}x below "
                        f"cold publish (target {TARGET_STEADY_REDUCTION}x)")

    print(f"\nend-to-end fedzkt ({fedzkt_rounds} round(s), tcp://:0?workers=2):")
    serial_history, _, serial_seconds = run_fedzkt(SerialBackend(), fedzkt_rounds)
    delta_history, delta_stats, delta_seconds = run_fedzkt(
        make_backend("tcp://:0?workers=2"), fedzkt_rounds)

    delta_published = int(delta_stats["published_bytes"])
    print(f"  serial  {serial_seconds:5.1f}s")
    print(f"  tcp://  {delta_seconds:5.1f}s  published {delta_published:>10,} B")
    if not histories_identical(serial_history, delta_history):
        failures.append("tcp:// history differs from serial — parity broken")

    payload = {
        "benchmark": "multinode",
        "steady_state": {
            "num_tensors": num_tensors,
            "tensor_elements": elements,
            "steady_rounds": steady_rounds,
            "delta": delta,
            "steady_reduction_factor": steady_reduction,
        },
        "fedzkt": {
            "rounds": fedzkt_rounds,
            "delta_published_bytes": delta_published,
            "delta_stats": {k: v for k, v in delta_stats.items() if k != "by_label"},
            "parity_with_serial": not any("parity" in f for f in failures),
        },
        "targets": {"steady_reduction_factor": TARGET_STEADY_REDUCTION},
        "failures": failures,
        **bench_environment(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    output = Path(args.output)
    output.write_text(json.dumps(payload, indent=2, default=float) + "\n", encoding="utf-8")
    print(f"\nwrote {output}")

    if failures and not enforce:
        print("targets not enforced under --quick; would have failed:")
        for failure in failures:
            print(f"  - {failure}")
        return 0
    if failures:
        print("MULTINODE REGRESSIONS:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"ok: steady-state delta publishes {steady_reduction:.1f}x below cold; "
          f"tcp:// history bit-identical to serial")
    return 0


if __name__ == "__main__":
    sys.exit(main())
