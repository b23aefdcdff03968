#!/usr/bin/env python3
"""Whole-round benchmark driver: four workloads, end-to-end + per-layer metrics.

Two ways in (see README.md):

``python benchmarks/e2e/run.py [--workload NAME] [--seed N] [--repeats K]``
    the full report: K untraced measurements per workload, one traced pass,
    every metric printed by name with its unit, appended to
    ``out/results.jsonl``;  ``--aa`` instead runs two interleaved sets of
    the same tree and compares them against the bounds.

``... --workload NAME --seed N --seconds S --trace 0|1``
    one measurement for the ``BENCHMARK.json`` contract: the last stdout
    line is ``{"correct", "attempted", "failed", "metrics"}``.

The driver starts every run as a fresh ``child.py`` process, one at a time
(closed loop, one run in flight; a run never has more than two workers), and
is the only place the thread-count environment is set.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected"

sys.path.insert(0, str(HERE))

from probe import ROUND_PHASES  # noqa: E402
from workloads import BASE_SECONDS, PINNED_SEEDS, WORKLOADS  # noqa: E402

#: End-to-end metrics: name -> (unit, regression bound as a share of the
#: baseline median).  Wall clock is what a user sees, but on the sandbox this
#: was calibrated on the host's page-backing cost moved it 2-6x between runs
#: of one tree (README, "A/A calibration"), so ``BENCHMARK.json`` bounds the
#: steadier ``cpu_s_per_round`` and carries wall clock per layer
#: (``trace.round_s``).  ``shipped_mb_per_round`` and ``failed_ops_share``
#: can read exactly 0, which a relative bound cannot express: there the first
#: is per-layer too and the second is the result's ``failed`` / ``attempted``.
END_TO_END = {
    "round_s": ("s/round", 0.25),
    "cpu_s_per_round": ("s/round", 0.25),
    "setup_s": ("s", 0.25),
    "peak_rss_mb": ("MiB", 0.25),
    "shipped_mb_per_round": ("MiB/round", 0.10),
    "failed_ops_share": ("ratio", 0.0),
}
CONTRACT_END_TO_END = ("cpu_s_per_round", "setup_s", "peak_rss_mb")

#: Fresh-process set-ups per measurement; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: A run whose rounds (warm-up included) have taken this many times
#: ``--seconds`` stops after the round it is in, once one timed round is done:
#: the slowest regime seen here (42 s warm-up, 20 s rounds on
#: ``avg_serial_fused``) would otherwise overrun the per-run time cap.
GUARD_FACTOR = 1.6

REL_TOL, ABS_TOL = 1e-9, 1e-12
TASK_TYPES = ("LocalTrainTask", "EvaluateTask", "PublicLogitsTask",
              "FusedLocalTrainTask", "FusedEvaluateTask", "FusedPublicLogitsTask",
              "EnsembleForwardTask", "EnsembleVJPTask", "DeviceDistillTask")


# ---------------------------------------------------------------------- #
# Children
# ---------------------------------------------------------------------- #
def child_environment() -> dict:
    """The process environment every child runs in.

    BLAS is pinned to one thread and the slice-thread override removed so a
    run's CPU use is the program's, not the pool's.  Allocator and THP
    settings are deliberately left alone: the fused path's kernel time is
    the program's behaviour, not noise to tune away.
    """
    env = dict(os.environ)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env.pop("REPRO_SLICE_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(**spec) -> dict:
    """Run one child to completion and return its result."""
    spec["spawned_at"] = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        env=child_environment(), stdout=subprocess.PIPE, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"child {spec} exited with status {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


# ---------------------------------------------------------------------- #
# Expected histories
# ---------------------------------------------------------------------- #
def pinned_record(record: dict) -> dict:
    """The part of a round record the benchmark pins."""
    metrics = {key: value for key, value in record["server_metrics"].items()
               if isinstance(value, (int, float)) and not isinstance(value, bool)}
    return {"round": record["round"],
            "global_accuracy": record["global_accuracy"],
            "device_accuracies": record["device_accuracies"],
            "local_loss": record["local_loss"],
            "server_metrics": metrics}


def _same(actual, expected) -> bool:
    if isinstance(expected, dict):
        return (isinstance(actual, dict) and set(actual) == set(expected)
                and all(_same(actual[key], expected[key]) for key in expected))
    if expected is None or actual is None:
        return actual is expected
    if expected != expected:  # NaN: a diverged reference is matched by diverging
        return actual != actual
    return math.isclose(float(actual), float(expected), rel_tol=REL_TOL, abs_tol=ABS_TOL)


def mismatched_rounds(history: list, expected: list) -> int:
    """Rounds of ``history`` that differ from the same round of ``expected``
    (JSON-normalised first: the live records key devices by int)."""
    history = json.loads(json.dumps(history, default=float))
    return sum(1 for index, record in enumerate(history)
               if index >= len(expected)
               or not _same(pinned_record(record), expected[index]))


def reference_history(workload, seed: int, rounds: int) -> list:
    """Run the workload's plain serial reference once, untimed."""
    result = run_child(workload=workload.name, seed=seed, reference=True, rounds=rounds)
    return [pinned_record(record) for record in result["history"]]


def expected_history(workload, seed: int, rounds: int, notes: list) -> list:
    path = EXPECTED / f"{workload.name}.json"
    pinned = json.loads(path.read_text(encoding="utf-8"))["seeds"] if path.exists() else {}
    if str(seed) in pinned:
        return pinned[str(seed)]
    notes.append(f"{workload.name}: seed {seed} is not pinned; ran the serial "
                 "reference once, untimed, for its expected history")
    return reference_history(workload, seed, rounds)


def pin_expected(names) -> None:
    """Complete ``expected/``: pin every seed of the pool that is not pinned
    yet (delete a file to regenerate it after a deliberate numeric change)."""
    EXPECTED.mkdir(exist_ok=True)
    for name in names:
        workload = WORKLOADS[name]
        reference = workload.reference()
        path = EXPECTED / f"{name}.json"
        kept = json.loads(path.read_text(encoding="utf-8"))["seeds"] if path.exists() else {}
        payload = {
            "workload": name,
            "generated_from": {"backend": reference.backend,
                               "cohort_fusion": reference.cohort_fusion,
                               "server_shards": reference.server_shards},
            "rounds": workload.pinned_rounds,
            "seeds": {},
        }
        for seed in PINNED_SEEDS:
            if str(seed) not in kept:
                print(f"pinning {name} seed {seed}", flush=True)
                kept[str(seed)] = reference_history(workload, seed, workload.pinned_rounds)
            payload["seeds"][str(seed)] = kept[str(seed)]
        path.write_text(
            json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n",
            encoding="utf-8")


# ---------------------------------------------------------------------- #
# One measurement
# ---------------------------------------------------------------------- #
def summarize(result: dict, expected: list) -> dict:
    """End-to-end numbers of one finished child."""
    stamps, warmup = result["round_stamps"], result["warmup"]
    base = stamps[warmup - 1] if warmup else result["marks"]["on_run_start"]
    timed = len(stamps) - warmup
    transport = result["transport"]
    restarts = (max(0, transport.get("pool_restarts", 0) - 1)
                + max(0, transport.get("server_starts", 0) - 1)
                + transport.get("worker_restarts", 0))
    failed = (mismatched_rounds(result["history"], expected)
              + transport.get("tasks_requeued", 0) + restarts)
    shipped = transport["shipped_bytes"]
    if result["workers"] == 0 and shipped:
        failed += 1  # an in-process backend must ship nothing
    attempted = len(stamps) + transport.get("tasks_shipped", 0)
    # The driver's CPU is read at every round; the workers' only once they
    # are reaped, so theirs is spread over every round run, warm-up included.
    cpu = result["round_cpu_stamps"]
    cpu_base = cpu[warmup - 1] if warmup else result["cpu_before_run"]
    cpu_s_per_round = ((cpu[-1] - cpu_base) / timed
                       + result["rusage"]["worker_user_cpu_s"] / len(stamps))
    return {
        "round_s": (stamps[-1] - base) / timed,
        "cpu_s_per_round": cpu_s_per_round,
        "round_durations_s": [b - a for a, b in zip([base] + stamps[warmup:], stamps[warmup:])],
        "timed_rounds": timed,
        "setup_s": result["marks"]["on_run_start"],
        "peak_rss_mb": result["rusage"]["peak_rss_mb"],
        "shipped_mb_per_round": shipped / 2**20 / len(stamps),
        "restarts": restarts,
        "attempted": attempted,
        "failed": failed,
        "failed_ops_share": failed / attempted,
    }


def measure(workload, seed: int, seconds: float, notes: list, quick: bool = False) -> dict:
    """One untraced measurement: a full run plus extra set-up-only starts."""
    timed = 1 if quick else workload.rounds_for(seconds)
    warmup = 0 if quick else 1
    expected = expected_history(workload, seed, warmup + timed, notes)
    result = run_child(workload=workload.name, seed=seed, rounds=warmup + timed,
                       warmup=warmup, guard_s=GUARD_FACTOR * seconds)
    summary = summarize(result, expected)
    setups = [summary["setup_s"]]
    for _ in range(0 if quick else SETUP_SAMPLES - 1):
        setups.append(run_child(workload=workload.name, seed=seed,
                                rounds=0)["marks"]["on_run_start"])
    summary["setup_s"] = statistics.median(setups)
    summary["env"] = result["env"]
    return summary


# ---------------------------------------------------------------------- #
# The traced pass
# ---------------------------------------------------------------------- #
def layer_metrics(result: dict, expected: list) -> dict:
    """``({name: (value, unit)}, summary)`` of one traced child.

    Times and counts are per timed round unless the unit says otherwise
    (``transport.*`` is over every round, the warm-up included: the store's
    counters cannot be read mid-run without an extra round trip).  A layer
    the workload does not run reads 0.
    """
    trace, rusage, transport = result["trace"], result["rusage"], result["transport"]
    summary = summarize(result, expected)
    rounds = summary["timed_rounds"]
    all_rounds = len(result["round_stamps"])
    timed, counts = trace["timed"], trace["counts"]
    marks = result["marks"]

    def total(name, table=timed):
        return table.get(name, {}).get("total_s", 0.0)

    def self_s(name, table=timed):
        return table.get(name, {}).get("self_s", 0.0)

    def per_round(value):
        return value / rounds

    device_runs = ("sim.local_train", "sim.eval_devices", "sim.public_logits")
    steps = counts.get("trainer.sgd_steps", 0)
    config_devices = len(result["history"][0]["device_accuracies"])
    tasks_out = counts.get("cohort.tasks_out", 0)
    cpu = rusage["driver_user_cpu_s"] + rusage["driver_sys_cpu_s"] + rusage["worker_cpu_s"]
    late = sum(r["server_metrics"].get("late_uploads", 0.0)
               for r in result["history"][result["warmup"]:])
    aggregated = sum(r["server_metrics"].get("aggregated_uploads", 0.0)
                     for r in result["history"][result["warmup"]:])
    server_updates = timed.get("distill.phase1", {}).get("calls", 0)
    phase1_iterations, phase2_iterations = result["distill_iterations"]
    resolved = transport.get("refs_resolved", 0)

    metrics = {
        "setup.import_s": (marks["import"], "s"),
        "setup.load_dataset_s": (marks["load_dataset"] - marks["import"], "s"),
        "setup.build_s": (marks["build"] - marks["load_dataset"], "s"),
        "setup.backend_start_s": (total("setup.ensure_backend", trace["setup"]), "s"),
        "setup.on_run_start_s": (total("setup.on_run_start", trace["setup"]), "s"),
        "sim.warmup_round_s": (total("scheduler.round", trace["warmup"]), "s"),
        "scheduler.round_self_s": (per_round(self_s("scheduler.round")), "s/round"),
        "scheduler.rounds": (rounds, "count"),
        "scheduler.late_upload_share": (late / aggregated if aggregated else 0.0, "ratio"),
        "sim.device_tasks_s": (per_round(total("sim.device_tasks")), "s/round"),
        "sim.local_train_s": (per_round(total("sim.local_train")), "s/round"),
        "sim.process_result_s": (per_round(total("sim.process_result")), "s/round"),
        "sim.aggregate_s": (per_round(total("sim.aggregate")), "s/round"),
        "sim.broadcast_s": (per_round(total("sim.broadcast")), "s/round"),
        "sim.evaluate_s": (per_round(total("sim.evaluate")), "s/round"),
        "sim.evaluate_global_s": (per_round(total("sim.evaluate_global")), "s/round"),
        "cohort.plan_self_s": (per_round(sum(self_s(name) for name in device_runs)), "s/round"),
        "cohort.fusion_ratio": (counts.get("cohort.tasks_in", 0) / tasks_out
                                if tasks_out else 1.0, "ratio"),
        "backend.run_tasks_s": (per_round(total("backend.run_tasks")), "s/round"),
        "backend.calls": (per_round(counts.get("backend.calls", 0)), "1/round"),
        "backend.tasks": (per_round(counts.get("backend.tasks", 0)), "1/round"),
        "backend.tasks_requeued": (transport.get("tasks_requeued", 0), "count"),
        "backend.worker_disconnects": (transport.get("worker_disconnects", 0), "count"),
        "backend.restarts": (summary["restarts"], "count"),
        "proc.driver_user_cpu_s": (rusage["driver_user_cpu_s"], "s"),
        "proc.driver_sys_cpu_s": (rusage["driver_sys_cpu_s"], "s"),
        "proc.worker_cpu_s": (rusage["worker_cpu_s"], "s"),
        "proc.idle_share": (1.0 - cpu / (result["wall_s"] * (1 + result["workers"])), "ratio"),
        "proc.minor_faults": (rusage["minor_faults"], "count"),
        "proc.driver_rss_mb": (rusage["driver_rss_mb"], "MiB"),
        "transport.shipped_mb_per_round": (summary["shipped_mb_per_round"], "MiB/round"),
        "transport.puts": (transport.get("puts", 0) / all_rounds, "1/round"),
        "transport.publishes": (transport.get("publishes", 0) / all_rounds, "1/round"),
        "transport.published_bytes": (transport.get("published_bytes", 0) / all_rounds, "B/round"),
        "transport.fetched_bytes": (transport.get("fetched_bytes", 0) / all_rounds, "B/round"),
        "transport.task_bytes": (transport.get("task_bytes", 0) / all_rounds, "B/round"),
        "transport.result_bytes": (transport.get("result_bytes", 0) / all_rounds, "B/round"),
        "transport.context_bytes": (transport.get("context_bytes", 0)
                                    + transport.get("context_published_bytes", 0), "B"),
        "transport.inline_equivalent_bytes": (
            transport.get("inline_equivalent_bytes", 0) / all_rounds, "B/round"),
        "transport.cache_hit_rate": (transport.get("hits", 0) / resolved
                                     if resolved else 1.0, "ratio"),
        "distill.phase1_s": (per_round(total("distill.phase1")), "s/round"),
        "distill.phase2_s": (per_round(total("distill.phase2")), "s/round"),
        "distill.phase1_iter_ms": (
            1e3 * total("distill.phase1") / (server_updates * phase1_iterations)
            if server_updates else 0.0, "ms"),
        "distill.phase2_device_iter_ms": (
            1e3 * total("distill.phase2") / (server_updates * phase2_iterations * config_devices)
            if server_updates else 0.0, "ms"),
        "distill.parameter_updates": (per_round(sum(
            r["server_metrics"].get("server_parameter_updates", 0)
            for r in result["history"][result["warmup"]:])), "1/round"),
        "distill.shard_tasks": (per_round(counts.get("distill.shard_tasks", 0)), "1/round"),
        "trainer.sgd_steps": (per_round(steps), "1/round"),
        "trainer.samples_seen": (per_round(counts.get("trainer.samples_seen", 0)), "1/round"),
        "trainer.step_ms": (1e3 * total("sim.local_train") / steps if steps else 0.0, "ms"),
        "trainer.eval_ms_per_device": (
            1e3 * per_round(total("sim.eval_devices")) / config_devices, "ms"),
        "nn.forward_s": (per_round(total("nn.forward")), "s/round"),
        "nn.backward_s": (per_round(total("nn.backward")), "s/round"),
        "nn.optim_s": (per_round(total("nn.optim")), "s/round"),
        "nn.backward_calls": (per_round(timed.get("nn.backward", {}).get("calls", 0)), "1/round"),
        "nn.optim_steps": (per_round(timed.get("nn.optim", {}).get("calls", 0)), "1/round"),
        "nn.pool_free_mb": (statistics.fmean(trace["pool_free_bytes"][result["warmup"]:]) / 2**20
                            if trace["pool_free_bytes"][result["warmup"]:] else 0.0, "MiB"),
        "trace.spans": (trace["spans"], "count"),
        "trace.round_s": (summary["round_s"], "s/round"),
        "trace.cpu_s_per_round": (summary["cpu_s_per_round"], "s/round"),
        "trace.accounted_share": (
            (sum(total(name) for name in ROUND_PHASES) + self_s("scheduler.round"))
            / (summary["round_s"] * rounds), "ratio"),
    }
    for task_type in TASK_TYPES:
        metrics[f"backend.tasks_by_type.{task_type}"] = (
            per_round(counts.get(f"backend.tasks_by_type.{task_type}", 0)), "1/round")
    return metrics, summary


def traced(workload, seed: int, seconds: float, notes: list, **extra):
    """The traced pass of one workload: ``(per-layer metrics, summary)``."""
    rounds = 1 + workload.rounds_for(seconds)
    expected = expected_history(workload, seed, rounds, notes)
    result = run_child(
        workload=workload.name, seed=seed, rounds=rounds,
        guard_s=GUARD_FACTOR * seconds, trace=True,
        trace_path=str(OUT / f"{workload.name}.trace.jsonl"), **extra)
    return layer_metrics(result, expected)


# ---------------------------------------------------------------------- #
# Reports
# ---------------------------------------------------------------------- #
def fold_seed(seed: int) -> int:
    return PINNED_SEEDS[seed % len(PINNED_SEEDS)]


def contract_run(args) -> int:
    """One measurement in the shape ``BENCHMARK.json`` promises."""
    workload = WORKLOADS[args.workload]
    notes = []
    if args.trace:
        metrics, summary = traced(workload, args.seed, args.seconds, notes)
        listed = json.loads((REPO / "BENCHMARK.json").read_text())["per_layer"]
        payload = {entry["name"]: {"value": metrics[entry["name"]][0], "unit": entry["unit"]}
                   for entry in listed}
    else:
        summary = measure(workload, args.seed, args.seconds, notes)
        payload = {name: {"value": summary[name], "unit": END_TO_END[name][0]}
                   for name in CONTRACT_END_TO_END}
    for note in notes:
        print(note)
    print(json.dumps({"correct": summary["failed"] == 0,
                      "attempted": summary["attempted"],
                      "failed": summary["failed"],
                      "metrics": payload}))
    return 0


def _spread(values) -> dict:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values)}


def _git_commit() -> str:
    done = subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                          check=False)
    return done.stdout.strip() or "unknown"


def full_report(args) -> int:
    """Untraced repeats, then one traced pass, for each chosen workload."""
    names = [args.workload] if args.workload else list(WORKLOADS)
    notes, report, failed_any = [], {}, False
    environment = None
    for name in names:
        workload = WORKLOADS[name]
        runs = [measure(workload, args.seed, args.seconds, notes, quick=args.quick)
                for _ in range(args.repeats)]
        environment = runs[0]["env"]
        end_to_end = {metric: _spread([run[metric] for run in runs]) for metric in END_TO_END}
        flagged = any(run["failed"] for run in runs)
        failed_any |= flagged
        print(f"\n== {name}: {workload.why}")
        print(f"   {runs[0]['timed_rounds']} timed rounds x {args.repeats} repeats, seed {args.seed}"
              + ("   ** HISTORY MISMATCH OR FAILED OPERATIONS: timings flagged **" if flagged else ""))
        for metric, (unit, bound) in END_TO_END.items():
            row = end_to_end[metric]
            print(f"   {metric:<24}{row['median']:>14.4f} {unit:<10} min {row['min']:.4f}  "
                  f"max {row['max']:.4f}  n {row['n']}  bound {bound:.0%}")
        entry = {"end_to_end": end_to_end, "flagged": flagged,
                 "round_durations_s": [run["round_durations_s"] for run in runs]}
        if not args.quick:
            layers, traced_summary = traced(workload, args.seed, args.seconds, notes,
                                            repeat=args.repeats)
            failed_any |= bool(traced_summary["failed"])
            layers["trace.overhead_share"] = (
                traced_summary["cpu_s_per_round"] / end_to_end["cpu_s_per_round"]["median"] - 1.0,
                "ratio")
            if workload.cohort_fusion and workload.serial:
                # Control leg: the identical config with fusion off, untraced.
                rounds = 1 + workload.rounds_for(args.seconds)
                control = summarize(
                    run_child(workload=name, seed=args.seed, unfused=True, rounds=rounds),
                    expected_history(workload, args.seed, rounds, notes))
                failed_any |= bool(control["failed"])
                layers["cohort.unfused_round_s"] = (control["round_s"], "s/round")
                layers["cohort.fused_round_ratio"] = (
                    control["round_s"] / end_to_end["round_s"]["median"], "ratio")
                layers["cohort.fused_cpu_ratio"] = (
                    control["cpu_s_per_round"] / end_to_end["cpu_s_per_round"]["median"], "ratio")
            print("   -- per layer (traced pass; ratios: cohort.fused_round_ratio / fused_cpu_ratio = "
                  "unfused / fused round_s / cpu_s_per_round; trace.overhead_share = traced / "
                  "untraced cpu_s_per_round - 1)")
            for metric in sorted(layers):
                value, unit = layers[metric]
                if value or not metric.startswith("backend.tasks_by_type."):
                    print(f"   {metric:<40}{value:>16.4f} {unit}")
            entry["per_layer"] = {metric: {"value": value, "unit": unit}
                                  for metric, (value, unit) in layers.items()}
        report[name] = entry
    for note in notes:
        print(note)
    commit = _git_commit()
    OUT.mkdir(exist_ok=True)
    with (OUT / "results.jsonl").open("a", encoding="utf-8") as handle:
        handle.write(json.dumps({
            "when": time.strftime("%Y-%m-%dT%H:%M:%S%z"), "commit": commit,
            "seed": args.seed, "seconds": args.seconds, "repeats": args.repeats,
            "environment": {**(environment or {}), "platform": platform.platform()},
            "notes": notes, "workloads": report}) + "\n")
    print(f"\nenvironment: {json.dumps(environment)}")
    print(f"commit {commit}; appended to {OUT / 'results.jsonl'}")
    return 1 if failed_any else 0


def aa_report(args) -> int:
    """Two interleaved sets of runs of this tree, A B A B ..., against the bounds."""
    names = [args.workload] if args.workload else list(WORKLOADS)
    notes, outside = [], []
    for name in names:
        workload = WORKLOADS[name]
        sets = {"A": [], "B": []}
        for _ in range(args.repeats):
            for label in ("A", "B"):
                sets[label].append(measure(workload, args.seed, args.seconds, notes))
        print(f"\n== {name} (A/A, {args.repeats} runs per set)")
        for metric, (unit, bound) in END_TO_END.items():
            a = statistics.median(run[metric] for run in sets["A"])
            b = statistics.median(run[metric] for run in sets["B"])
            difference = abs(b - a) / a if a else (0.0 if b == a else math.inf)
            ok = difference <= bound
            if not ok:
                outside.append((name, metric))
            print(f"   {metric:<24}A {a:>12.4f}  B {b:>12.4f} {unit:<10} "
                  f"diff {difference:>7.2%}  bound {bound:.0%}  {'ok' if ok else 'OUTSIDE'}")
    for note in notes:
        print(note)
    if outside:
        print("outside their bound: " + ", ".join(f"{w}/{m}" for w, m in outside))
    return 1 if outside else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=BASE_SECONDS,
                        help="seconds of timed rounds to size a run for")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="contract mode: one run, JSON result on the last line")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--fold-seed", action="store_true",
                        help="map --seed onto the ten pinned seeds so no run needs an "
                             "untimed reference; BENCHMARK.json's command sets it because "
                             "its time cap leaves no room for one")
    parser.add_argument("--aa", action="store_true", help="A/A comparison of this tree")
    parser.add_argument("--quick", action="store_true",
                        help="one round per workload, no warm-up, no traced pass")
    parser.add_argument("--pin", action="store_true",
                        help="pin the seeds expected/ lacks, from the serial references")
    args = parser.parse_args(argv)
    if not SRC.is_dir():
        print(f"{SRC} not found: the benchmark runs the repository it sits in",
              file=sys.stderr)
        return 2
    if args.fold_seed:
        args.seed = fold_seed(args.seed)
    if args.pin:
        pin_expected([args.workload] if args.workload else list(WORKLOADS))
        return 0
    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        return contract_run(args)
    return aa_report(args) if args.aa else full_report(args)


if __name__ == "__main__":
    sys.exit(main())
