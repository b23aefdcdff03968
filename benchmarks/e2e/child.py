"""One benchmark run: build one simulation in a fresh process, run it, report.

Started by ``run.py`` as ``python child.py '<json spec>'``, one at a time.
The spec names the workload and seed and says how many rounds to run
(``rounds`` = 0 measures set-up only), whether the probe is on, and whether
to run the workload's plain ``reference()`` form or its unfused control
leg instead.  The result is one JSON line on stdout; the driver, not the
child, checks the history and derives the metrics.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from probe import Tracer, install, install_run_start_span, rollup  # noqa: E402
from workloads import WORKLOADS, build_simulation  # noqa: E402


class _StopRun(Exception):
    """Raised from the round callback to end a run that overran its guard."""


def _environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):  # numpy < 1.25 has no dict mode
        blas = "unknown"
    try:
        thp = Path("/sys/kernel/mm/transparent_hugepage/enabled").read_text().strip()
    except OSError:
        thp = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "glibc": " ".join(platform.libc_ver()),
        "nproc": len(os.sched_getaffinity(0)),
        "thp": thp,
        "threads": {name: os.environ.get(name) for name in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                     "REPRO_SLICE_THREADS")},
        # Not set by the harness; recorded because they change what the
        # fused path's kernel time looks like.
        "malloc_env": {name: value for name, value in os.environ.items()
                       if name.startswith("MALLOC_") or name == "GLIBC_TUNABLES"},
    }


def _rusage() -> dict:
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "driver_user_cpu_s": own.ru_utime,
        "driver_sys_cpu_s": own.ru_stime,
        "worker_cpu_s": workers.ru_utime + workers.ru_stime,
        "worker_user_cpu_s": workers.ru_utime,
        "minor_faults": own.ru_minflt + workers.ru_minflt,
        # ru_maxrss is KiB on Linux; the children figure is the largest
        # single worker, not their sum.
        "peak_rss_mb": (own.ru_maxrss + workers.ru_maxrss) / 1024.0,
        "driver_rss_mb": own.ru_maxrss / 1024.0,
    }


def run(spec: dict) -> dict:
    clock = time.monotonic
    started = spec.get("spawned_at") or clock()
    workload = WORKLOADS[spec["workload"]]
    if spec.get("reference"):
        workload = workload.reference()
    if spec.get("unfused"):
        workload = replace(workload, cohort_fusion=False)
    rounds, warmup = int(spec["rounds"]), int(spec.get("warmup", 1))
    guard_s, trace = spec.get("guard_s"), bool(spec.get("trace"))

    marks = {}
    simulation, backend = build_simulation(
        workload, int(spec["seed"]),
        marks=lambda label: marks.__setitem__(label, clock() - started))

    tracer = Tracer(first_timed_round=warmup + 1)
    install_run_start_span(tracer, simulation)
    if trace:
        install(tracer, simulation, nn_seams=workload.serial)
        from repro.nn.buffers import scratch_pool

    def user_cpu() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_utime

    stamps, cpu_stamps, pool_free = [], [], []

    def note_run_start() -> None:
        """Set-up ends where ``on_run_start``'s span does."""
        if "on_run_start" not in marks:
            marks["on_run_start"] = next(
                end for name, _, end, _, _ in tracer.spans
                if name == "setup.on_run_start") - started

    def on_round(record) -> None:
        now = clock() - started
        note_run_start()
        stamps.append(now)
        cpu_stamps.append(user_cpu())
        if trace:
            pool_free.append(scratch_pool().free_bytes())
        if guard_s and warmup < len(stamps) < rounds:
            if now - marks["on_run_start"] >= guard_s:
                raise _StopRun

    simulation.round_callback = on_round
    cpu_before_run = user_cpu()
    try:
        try:
            simulation.run(rounds=rounds)
        except _StopRun:
            pass
        note_run_start()
        # Read before shutdown: the process backend's channel closes with it.
        transport = backend.transport_stats()
    finally:
        tracer.uninstall()
        backend.shutdown()
    finished = clock() - started

    result = {
        "workload": spec["workload"],
        "seed": int(spec["seed"]),
        "workers": workload.workers,
        "warmup": warmup,
        "distill_iterations": [simulation.config.server.distillation_iterations,
                               simulation.config.server.effective_transfer_iterations],
        "marks": marks,
        "round_stamps": stamps,
        "cpu_before_run": cpu_before_run,
        "round_cpu_stamps": cpu_stamps,
        "wall_s": finished,
        "history": [record.as_dict() for record in simulation.history],
        "transport": {key: value for key, value in transport.items()
                      if isinstance(value, (int, float)) and not isinstance(value, bool)},
        "rusage": _rusage(),
        "env": _environment(),
    }
    if trace:
        result["trace"] = {
            "spans": len(tracer.spans),
            "counts": dict(tracer.counts),
            "pool_free_bytes": pool_free,
            "setup": rollup(tracer.spans, 0, 0),
            "warmup": rollup(tracer.spans, 1, warmup),
            "timed": rollup(tracer.spans, warmup + 1, len(stamps)),
        }
        if spec.get("trace_path"):
            _write_spans(Path(spec["trace_path"]), tracer.spans, started, spec)
    return result


def _write_spans(path: Path, spans, started: float, spec: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for name, start, end, parent, round_index in spans:
            handle.write(json.dumps({
                "name": name, "start": start - started, "end": end - started,
                "parent": parent, "workload": spec["workload"],
                "repeat": spec.get("repeat", 0), "round": round_index}) + "\n")


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1])), default=float))
