"""``repro.experiments`` — the paper's experiments as one table of rows.

:data:`EXPERIMENTS` holds one declared row per table or figure of the
paper; :func:`run_experiment` runs a row at a configurable scale (``tiny``
for the paper-claims suite, ``small`` for longer CPU runs, ``paper`` for the
published hyper-parameters) and writes its ``manifest.json`` /
``metrics.jsonl`` / ``summary.json``.  :func:`run_algorithm` is one
federated run of any registered algorithm.
"""

from .configs import SCALES, ExperimentScale, federated_config_for, get_scale
from .reporting import (
    format_claims,
    format_percent,
    format_run_summary,
    format_series,
    format_table,
)
from .runner import (
    ALGORITHM_RUNNERS,
    EXPERIMENTS,
    Claim,
    Experiment,
    ExperimentError,
    Variant,
    register_algorithm_runner,
    run_algorithm,
    run_experiment,
)

__all__ = [
    "SCALES",
    "ExperimentScale",
    "get_scale",
    "federated_config_for",
    "ALGORITHM_RUNNERS",
    "register_algorithm_runner",
    "run_algorithm",
    "EXPERIMENTS",
    "Experiment",
    "Variant",
    "Claim",
    "ExperimentError",
    "run_experiment",
    "format_table",
    "format_series",
    "format_percent",
    "format_run_summary",
    "format_claims",
]
