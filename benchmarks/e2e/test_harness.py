"""Self-tests of the e2e harness (``python -m pytest benchmarks/e2e -q``).

Not collected by the tier-1 ``testpaths``; they check the harness, not the
library: span arithmetic, that the probe leaves nothing behind, that the
names in ``BENCHMARK.json`` are the names ``run.py`` produces, and a
one-round smoke of ``zkt_serial`` against its pinned history.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(REPO / "src"))

import child  # noqa: E402
import run  # noqa: E402
from probe import Tracer, rollup, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_self_time_is_span_minus_children():
    #            name  start end parent round
    spans = [["round", 0.0, 10.0, -1, 2],
             ["phase", 1.0, 7.0, 0, 2],
             ["task", 2.0, 4.0, 1, 2],
             ["task", 4.5, 6.5, 1, 2],
             ["phase", 8.0, 9.5, 0, 2],
             ["round", 10.0, 11.0, -1, 3]]
    assert self_times(spans) == [2.5, 2.0, 2.0, 2.0, 1.5, 1.0]
    table = rollup(spans, first_round=2, last_round=2)
    assert table["round"] == {"calls": 1, "total_s": 10.0, "self_s": 2.5}
    assert table["phase"] == {"calls": 2, "total_s": 7.5, "self_s": 3.5}
    assert table["task"]["total_s"] == table["task"]["self_s"] == 4.0
    # Self times partition the top-level span.
    assert sum(row["self_s"] for row in table.values()) == 10.0


def test_tracer_counts_only_timed_rounds():
    tracer = Tracer(first_timed_round=2)
    tracer.round = 1
    tracer.count("x", 5)
    tracer.round = 2
    tracer.count("x", 3)
    assert tracer.counts["x"] == 3


@pytest.fixture(scope="module")
def traced_round():
    """One traced round of ``zkt_serial`` in this process, plus the
    simulation it ran on."""
    built = {}
    real = child.build_simulation

    def capture(*args, **kwargs):
        built["simulation"], backend = real(*args, **kwargs)
        return built["simulation"], backend

    child.build_simulation = capture
    try:
        result = child.run({"workload": "zkt_serial", "seed": 0, "rounds": 1,
                            "warmup": 0, "trace": True})
    finally:
        child.build_simulation = real
    return result, built["simulation"]


def test_wrappers_are_removed_after_a_traced_run(traced_round):
    from repro.federated.simulation import Simulation
    from repro.nn.module import Module
    from repro.nn.optim import SGD
    from repro.nn.tensor import Tensor

    result, simulation = traced_round
    assert result["trace"]["timed"]["nn.backward"]["calls"] > 0  # the probe was on
    for obj in (simulation, simulation.backend, simulation.strategy,
                simulation.scheduler, simulation.server.distiller):
        shadows = [name for name in vars(obj) if callable(getattr(type(obj), name, None))]
        assert shadows == [], f"{type(obj).__name__} still shadows {shadows}"
    assert simulation.run_device_tasks.__func__ is Simulation.run_device_tasks
    for cls, attribute in ((Tensor, "backward"), (Module, "__call__"), (SGD, "step")):
        assert getattr(cls, attribute).__module__.startswith("repro."), (
            f"{cls.__name__}.{attribute} is still the probe's wrapper")


def test_benchmark_json_names_are_what_the_harness_produces(traced_round):
    result, _ = traced_round
    expected = run.expected_history(WORKLOADS["zkt_serial"], 0, 1, [])
    layers, summary = run.layer_metrics(result, expected)
    assert summary["failed"] == 0
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(WORKLOADS)
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == set(run.CONTRACT_END_TO_END)
    for entry in BENCHMARK["end_to_end"]:
        unit, bound = run.END_TO_END[entry["name"]]
        assert (entry["unit"], entry["bound"]) == (unit, bound)
    for entry in BENCHMARK["per_layer"]:
        assert entry["name"] in layers, entry["name"]
        assert entry["unit"] == layers[entry["name"]][1], entry["name"]
    names = ([w["name"] for w in BENCHMARK["workloads"]] + list(run.END_TO_END)
             + list(layers) + ["trace.overhead_share", "cohort.unfused_round_s",
                               "cohort.fused_round_ratio", "cohort.fused_cpu_ratio"])
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert len(BENCHMARK["workloads"]) <= 8
    assert len(BENCHMARK["end_to_end"]) <= 16
    assert len(BENCHMARK["per_layer"]) <= 128


def test_rollup_accounts_for_the_round(traced_round):
    result, _ = traced_round
    layers, _ = run.layer_metrics(result, run.expected_history(WORKLOADS["zkt_serial"], 0, 1, []))
    assert layers["trace.accounted_share"][0] >= 0.95
    phases = layers["distill.phase1_s"][0] + layers["distill.phase2_s"][0]
    assert phases == pytest.approx(layers["sim.aggregate_s"][0], rel=0.02)


def test_quick_smoke_matches_pinned_prefix_and_ships_nothing():
    notes = []
    summary = run.measure(WORKLOADS["zkt_serial"], 0, run.BASE_SECONDS, notes, quick=True)
    assert notes == []  # seed 0 is pinned: no reference run
    assert summary["timed_rounds"] == 1
    assert summary["failed"] == 0 and summary["attempted"] >= 1
    assert summary["shipped_mb_per_round"] == 0


def test_a_differing_round_counts_as_failed():
    expected = run.expected_history(WORKLOADS["zkt_serial"], 0, 2, [])
    history = [{**record, "active_devices": [], "sim_time": 1.0} for record in expected[:2]]
    assert run.mismatched_rounds(history, expected) == 0
    history[1] = {**history[1], "local_loss": history[1]["local_loss"] * (1 + 1e-6)}
    assert run.mismatched_rounds(history, expected) == 1
