"""Shared helpers for the benchmark suite.

Every benchmark reproduces one table or figure of the paper at the ``tiny``
scale (override with the ``REPRO_BENCH_SCALE`` environment variable) and
prints the regenerated rows/series.  Benchmarks are registered with
pytest-benchmark in pedantic mode (one round, one iteration) because each
invocation is a full federated run, not a micro-kernel.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

import pytest

DEFAULT_SCALE = os.environ.get("REPRO_BENCH_SCALE", "tiny")


def bench_environment() -> dict:
    """Machine context recorded in every ``BENCH_*.json`` payload.

    ROADMAP's "results from 1-core containers are dispatch-overhead-bound"
    caveat becomes machine-readable: consumers can filter on ``cpu_count``
    instead of knowing the folklore.  Splat this into the payload dict
    (``**bench_environment()``) so all benchmarks stay schema-consistent.
    """
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        # BLAS/threading context: fused-cohort and fused-eval numbers depend
        # on how many threads the BLAS and the slice-split are allowed, so
        # the knobs ride along with every payload.
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "mkl_num_threads": os.environ.get("MKL_NUM_THREADS"),
        "repro_slice_threads": os.environ.get("REPRO_SLICE_THREADS"),
    }


def own_peak_rss_mb() -> float:
    """This process's own peak resident set in MiB (``VmHWM``).

    Not ``ru_maxrss``: Linux carries a parent's ``ru_maxrss`` across
    fork + exec, so a probe child spawned by a benchmark that has already
    grown reports its parent's peak.  ``VmHWM`` belongs to the address
    space exec created; started from a lean parent the two agree.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("/proc/self/status has no VmHWM line")


def probe_peak_rss_mb(script: str, spec) -> float:
    """Peak RSS of ``script --rss-probe <spec as JSON>`` run in a fresh
    process, which prints :func:`own_peak_rss_mb` on its last line."""
    done = subprocess.run([sys.executable, script, "--rss-probe", json.dumps(spec)],
                          stdout=subprocess.PIPE, text=True, check=True)
    return float(done.stdout.splitlines()[-1])


#: Gates the two fusion benchmarks put on the width ``nn.batched.tile_width``
#: picks: x the per-device loop on the rows where dispatch is nearly all of
#: the work, and on every row the time against the best measured width and
#: against the per-device loop.
TARGET_SPEEDUP = 2.0
WIDTH_SLACK = 0.10
SERIAL_FLOOR = 0.95
#: Timed samples per configuration, the same for every row.  On a shared
#: 2-vCPU box the median of 25 paired ratios of one row spread by +-2.7 %
#: (5th to 95th percentile of resamples of one 60-repeat session), of 50 by
#: +-1.3 %; several rows sit within 5 % of a gate by construction.
REPEATS = 40


def interleaved_samples(configs: list, run, repeats: int) -> dict:
    """``repeats`` ``run(config)`` seconds per configuration, in order.

    The configurations take turns inside each repeat, starting one further
    along each time, so a slow spell of the host — or the state the previous
    configuration left the allocator in — lands on all of them instead of on
    one.  Every row gets the same number of samples, pass or fail.
    """
    samples = {config: [] for config in configs}
    for repeat in range(repeats):
        turn = repeat % len(configs)
        for config in configs[turn:] + configs[:turn]:
            samples[config].append(run(config))
    return samples


def paired_ratio(numerator: list, denominator: list) -> float:
    """Median over the repeats of one configuration's seconds over another's.

    Sample ``i`` of both ran within one repeat, under the same spell of the
    host, so the noise divides out of each ratio; on a shared 2-vCPU box the
    ratio of two best-of-15 times of equal-cost configurations moved by 6 %
    from run to run, the median of the 15 paired ratios by 3 %.  The times a
    row reports are medians too, so they agree with its ratios.
    """
    return statistics.median(a / b for a, b in zip(numerator, denominator))


def width_columns(samples: dict, chosen: int) -> dict:
    """The width verdict of one sweep row.  ``samples`` maps ``"per_device"``
    (the per-device loop) and each tile width to its
    :func:`interleaved_samples`; ``chosen`` is the width the rule picked.
    The gated ratios are :func:`paired_ratio`; the best width is the one
    with the lowest median."""
    widths = {config: values for config, values in samples.items()
              if config != "per_device"}
    best = min(widths, key=lambda width: statistics.median(widths[width]))
    return {"chosen_width": chosen, "best_width": best,
            "speedup": paired_ratio(samples["per_device"], widths[chosen]),
            "chosen_vs_best": paired_ratio(widths[chosen], widths[best])}


def width_gate_failures(label: str, row: dict, speedup_gated: bool) -> list:
    """Gate violations of one sweep row (``speedup``, ``chosen_vs_best``,
    ``chosen_width`` and ``best_width`` as the fusion benchmarks record them)."""
    failures = []
    if speedup_gated and row["speedup"] < TARGET_SPEEDUP:
        failures.append(f"{label}: speedup {row['speedup']:.2f}x < target {TARGET_SPEEDUP}x")
    if row["chosen_vs_best"] > 1 + WIDTH_SLACK:
        failures.append(f"{label}: chosen width {row['chosen_width']} is "
                        f"{row['chosen_vs_best']:.2f}x the time of the best width "
                        f"{row['best_width']}")
    if row["speedup"] < SERIAL_FLOOR:
        failures.append(f"{label}: chosen width {row['chosen_width']} runs at "
                        f"{row['speedup']:.2f}x the per-device loop < {SERIAL_FLOOR}x")
    return failures


@pytest.fixture(scope="session")
def bench_scale() -> str:
    """Scale preset used by every benchmark (``tiny`` unless overridden)."""
    return DEFAULT_SCALE


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
