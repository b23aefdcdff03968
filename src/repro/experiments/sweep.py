"""Experiment sweep orchestration.

The paper's tables and figures are cross-variant sweeps — Table 1 iterates
datasets, Fig. 4 iterates skew levels, Fig. 7 iterates device counts.  A
:class:`SweepSpec` names the sweep and enumerates its :class:`SweepVariant`
entries (a picklable runner + kwargs each); :func:`run_sweep` fans the
variants out through an :class:`~repro.federated.backend.ExecutionBackend`
— the same pluggable engine that parallelizes device training inside a
single run — and collects structured per-variant results, optionally
emitting one JSON file per variant plus a sweep manifest.

Every ``experiment_*`` function in :mod:`repro.experiments.runner` is built
on top of this module.
"""

from __future__ import annotations

import json
import re
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from ..federated.backend import ExecutionBackend, SerialBackend
from ..federated.history import TrainingHistory

__all__ = [
    "SweepVariant",
    "SweepSpec",
    "VariantResult",
    "SweepResult",
    "SweepError",
    "run_sweep",
]


@dataclass(frozen=True)
class SweepVariant:
    """One point of a sweep: a runner callable plus its keyword arguments.

    ``runner`` and every value in ``kwargs`` must be picklable (module-level
    functions, dataclasses, plain containers) so the variant can execute in
    a backend worker process.  ``tags`` carries free-form labels (dataset,
    skew level, algorithm, ...) that flow into the structured results.
    """

    key: str
    runner: Callable[..., object]
    kwargs: Dict[str, object] = field(default_factory=dict)
    tags: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class SweepSpec:
    """A named collection of sweep variants."""

    name: str
    variants: Sequence[SweepVariant]
    description: str = ""

    def __post_init__(self) -> None:
        keys = [variant.key for variant in self.variants]
        duplicates = {key for key in keys if keys.count(key) > 1}
        if duplicates:
            raise ValueError(f"duplicate variant keys in sweep {self.name!r}: {sorted(duplicates)}")


@dataclass
class VariantResult:
    """Outcome of one executed variant (value or captured error, plus timing)."""

    key: str
    value: object
    seconds: float
    error: Optional[str] = None
    traceback: Optional[str] = None
    tags: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.error is None


class SweepError(RuntimeError):
    """Raised by :func:`run_sweep` when variants failed and errors are fatal."""


def _execute_variant(variant: SweepVariant) -> VariantResult:
    """Run one variant, capturing its wall-clock time and any exception.

    Module-level so process-pool backends can pickle it by qualified name.
    """
    start = time.perf_counter()
    try:
        value = variant.runner(**variant.kwargs)
        error = tb = None
    except Exception as exc:  # noqa: BLE001 — variant failures are data, not crashes
        value = None
        error = f"{type(exc).__name__}: {exc}"
        tb = traceback.format_exc()
    return VariantResult(key=variant.key, value=value,
                         seconds=time.perf_counter() - start, error=error,
                         traceback=tb, tags=dict(variant.tags))


def _jsonable(value):
    """Best-effort conversion of a variant result to JSON-compatible data."""
    if isinstance(value, TrainingHistory):
        return value.to_dict()
    if hasattr(value, "to_dict"):
        return _jsonable(value.to_dict())
    if hasattr(value, "as_dict"):
        return _jsonable(value.as_dict())
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def _safe_filename(key: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", key).strip("_") or "variant"


class SweepResult:
    """Ordered, keyed collection of :class:`VariantResult` objects."""

    def __init__(self, spec: SweepSpec, results: Sequence[VariantResult]) -> None:
        self.spec = spec
        self.results = list(results)
        self._by_key = {result.key: result for result in self.results}

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, key: str) -> VariantResult:
        return self._by_key[key]

    def value(self, key: str):
        """The runner's return value for ``key`` (raises if the variant failed)."""
        result = self._by_key[key]
        if result.error is not None:
            raise SweepError(f"variant {key!r} of sweep {self.spec.name!r} failed: {result.error}"
                             + (f"\n{result.traceback}" if result.traceback else ""))
        return result.value

    def values(self) -> Dict[str, object]:
        return {result.key: result.value for result in self.results if result.ok}

    def failures(self) -> List[VariantResult]:
        return [result for result in self.results if not result.ok]

    @property
    def total_seconds(self) -> float:
        return float(sum(result.seconds for result in self.results))

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """Structured summary of the sweep (JSON-compatible)."""
        return {
            "sweep": self.spec.name,
            "description": self.spec.description,
            "num_variants": len(self.results),
            "total_seconds": self.total_seconds,
            "variants": [
                {
                    "key": result.key,
                    "seconds": result.seconds,
                    "error": result.error,
                    "tags": _jsonable(result.tags),
                }
                for result in self.results
            ],
        }

    def save(self, output_dir: Union[str, Path]) -> Path:
        """Write one JSON file per variant plus a ``<sweep>.json`` manifest."""
        output_dir = Path(output_dir)
        output_dir.mkdir(parents=True, exist_ok=True)
        for result in self.results:
            payload = {
                "sweep": self.spec.name,
                "key": result.key,
                "tags": _jsonable(result.tags),
                "seconds": result.seconds,
                "error": result.error,
                "traceback": result.traceback,
                "result": _jsonable(result.value),
            }
            path = output_dir / f"{_safe_filename(self.spec.name)}__{_safe_filename(result.key)}.json"
            with path.open("w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, default=float)
        manifest = output_dir / f"{_safe_filename(self.spec.name)}.json"
        with manifest.open("w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, default=float)
        return manifest


def run_sweep(spec: SweepSpec, backend: Optional[ExecutionBackend] = None,
              output_dir: Optional[Union[str, Path]] = None,
              raise_on_error: bool = True, verbose: bool = False) -> SweepResult:
    """Execute every variant of ``spec`` through ``backend``.

    Parameters
    ----------
    spec:
        The sweep definition.
    backend:
        Execution backend; defaults to :class:`SerialBackend`.  A
        :class:`~repro.net.backend.ProcessPoolBackend` fans variants
        out across worker processes (each variant then runs its *inner*
        simulation with a serial backend — no nested pools).
    output_dir:
        When given, per-variant JSON results and a sweep manifest are
        written there via :meth:`SweepResult.save`.
    raise_on_error:
        Raise :class:`SweepError` if any variant failed (after writing
        results); when False, failures are returned in the result object.
    """
    backend = backend or SerialBackend()
    # Sweeps are context-free fan-out work: start the backend explicitly
    # (pool backends refuse to lazily self-start from ``map``, which used to
    # leave a context-less pool marked as started forever).
    if not backend.is_started:
        backend.start(None)
    results = backend.map(_execute_variant, list(spec.variants))
    sweep_result = SweepResult(spec, results)
    if verbose:
        for result in sweep_result:
            status = "ok" if result.ok else f"FAILED ({result.error})"
            print(f"[sweep:{spec.name}] {result.key}: {status} in {result.seconds:.2f}s")
    if output_dir is not None:
        sweep_result.save(output_dir)
    failures = sweep_result.failures()
    if failures and raise_on_error:
        details = "; ".join(f"{result.key}: {result.error}" for result in failures)
        tracebacks = "\n".join(result.traceback for result in failures if result.traceback)
        raise SweepError(f"sweep {spec.name!r} had {len(failures)} failed variant(s): {details}"
                         + (f"\n{tracebacks}" if tracebacks else ""))
    return sweep_result
