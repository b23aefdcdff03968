"""Shared helpers for the benchmark suite.

Every benchmark reproduces one table or figure of the paper at the ``tiny``
scale (override with the ``REPRO_BENCH_SCALE`` environment variable) and
prints the regenerated rows/series.  Benchmarks are registered with
pytest-benchmark in pedantic mode (one round, one iteration) because each
invocation is a full federated run, not a micro-kernel.
"""

from __future__ import annotations

import os

import pytest

DEFAULT_SCALE = os.environ.get("REPRO_BENCH_SCALE", "tiny")


@pytest.fixture(scope="session")
def bench_scale() -> str:
    """Scale preset used by every benchmark (``tiny`` unless overridden)."""
    return DEFAULT_SCALE


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
