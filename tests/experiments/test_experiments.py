"""Tests for the experiment presets, reporting, single runs and the row runner.

Runs use a custom micro scale (1 round, a handful of distillation
iterations) so the whole module stays fast while still exercising the code
paths the paper-claims suite runs at ``tiny``.
"""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.experiments import (
    EXPERIMENTS,
    SCALES,
    Claim,
    Experiment,
    ExperimentError,
    ExperimentScale,
    Variant,
    federated_config_for,
    format_claims,
    format_percent,
    format_run_summary,
    format_series,
    format_table,
    get_scale,
    run_algorithm,
    run_experiment,
)
from repro.experiments.reporting import format_timeline
from repro.federated import ProcessPoolBackend

MICRO_SCALE = ExperimentScale(
    name="micro",
    rounds_small=1, rounds_cifar=1,
    local_epochs_small=1, local_epochs_cifar=1,
    distillation_iterations_small=3, distillation_iterations_cifar=3,
    num_devices=2,
    train_size=90, test_size=40, public_size=40,
    batch_size=16, server_batch_size=8,
    device_lr=0.05, global_lr=0.05, device_distill_lr=0.02, generator_lr=1e-3,
    image_size=8,
)


class TestScalesAndConfigs:
    def test_builtin_scales_exist(self):
        assert {"tiny", "small", "paper"} <= set(SCALES)
        assert get_scale("TINY").name == "tiny"
        with pytest.raises(KeyError):
            get_scale("huge")

    def test_paper_scale_matches_published_hyperparameters(self):
        paper = get_scale("paper")
        assert paper.rounds_small == 50 and paper.rounds_cifar == 100
        assert paper.local_epochs_small == 5 and paper.local_epochs_cifar == 10
        assert paper.distillation_iterations_small == 200
        assert paper.distillation_iterations_cifar == 500
        assert paper.batch_size == 256
        assert paper.num_devices == 10

    def test_family_dependent_accessors(self):
        tiny = get_scale("tiny")
        assert tiny.rounds_for("small") == tiny.rounds_small
        assert tiny.rounds_for("cifar") == tiny.rounds_cifar
        assert tiny.distillation_iterations_for("cifar") == tiny.distillation_iterations_cifar

    def test_federated_config_for_overrides(self):
        config = federated_config_for(MICRO_SCALE, "small", num_devices=3, prox_mu=0.1,
                                      distillation_loss="kl", rounds=2)
        assert config.num_devices == 3
        assert config.rounds == 2
        assert config.prox_mu == 0.1
        assert config.server.distillation_loss == "kl"


class TestReporting:
    def test_format_percent(self):
        assert format_percent(0.123456) == "12.35%"
        assert format_percent(None) == "n/a"

    def test_format_table_alignment(self):
        table = format_table(["a", "long header"], [["1", "2"], ["333", "4"]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert all("|" in line for line in lines[1:] if "-+-" not in line)

    def test_format_series(self):
        text = format_series("curve", [1, 2], [0.5, 0.75])
        assert "1:50.00%" in text and "2:75.00%" in text

    def test_format_run_summary(self):
        text = format_run_summary({"algorithm": "fedzkt", "rounds": 3,
                                   "final_global_accuracy": 0.5})
        assert "fedzkt" in text and "50.00%" in text

    def test_format_timeline(self):
        line = format_timeline("sync", [(1.5, 0.25), (3.0, 0.5)])
        assert line == "sync: t=1.50:25.00%, t=3.00:50.00%"

    def test_format_claims(self):
        text = format_claims([{"text": "a ≥ b", "asserted": True, "holds": False,
                               "numbers": {"a": 0.123456, "b": 2}},
                              {"text": "c", "asserted": False, "holds": None,
                               "numbers": None}])
        assert "* a ≥ b" in text and "NO" in text and "a=0.1235, b=2" in text
        assert "n/a" in text


class TestSingleRuns:
    def test_fedzkt_micro(self):
        history = run_algorithm("fedzkt", "mnist", scale=MICRO_SCALE, seed=0)
        assert len(history) == 1
        assert history.config["dataset"] == "mnist"
        assert history.final_global_accuracy() is not None

    def test_fedzkt_with_noniid_partition(self):
        history = run_algorithm("fedzkt", "mnist", scale=MICRO_SCALE, prox_mu=0.1, seed=1,
                                partition=("dirichlet", {"beta": 0.5}))
        assert history.config["partition"].startswith("dirichlet")
        assert history.config["prox_mu"] == 0.1

    def test_fedmd_micro(self):
        history = run_algorithm("fedmd", "mnist", scale=MICRO_SCALE, seed=0)
        assert len(history) == 1
        assert history.config["public_dataset"].startswith("fashion")
        assert history.final_mean_device_accuracy() >= 0.0

    def test_fedzkt_with_scheduler_knobs(self):
        history = run_algorithm("fedzkt", "mnist", scale=MICRO_SCALE, seed=0,
                                scheduler="deadline", deadline=1.5, speed_skew=4.0)
        assert history.config["scheduler"] == "deadline"
        assert history.config["speed_skew"] == 4.0
        assert all(time is not None for time in history.sim_time_curve())

    @pytest.mark.parametrize("algorithm, knobs", [
        ("fedzkt", {"public_choice": "svhn"}), ("fedavg", {"digest_epochs": 2}),
        ("fedavg", {"distillation_loss": "kl"}), ("fedmd", {"distillation_loss": "l1"})])
    def test_knob_of_another_algorithm_rejected(self, algorithm, knobs):
        with pytest.raises(ValueError, match="only appl(y|ies) to"):
            run_algorithm(algorithm, "mnist", scale=MICRO_SCALE, **knobs)


class TestPaperRows:
    def test_every_row_expands_with_its_defaults(self):
        for name, row in EXPERIMENTS.items():
            keys = [variant.key for variant in row.variants(row.fields)]
            assert keys and len(keys) == len(set(keys)), name

    def test_unknown_field_rejected(self):
        with pytest.raises(TypeError, match="has no field"):
            run_experiment("fig2", scale=MICRO_SCALE, datasets=("mnist",))
        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_fig2_probes_gradient_norms(self):
        summary = run_experiment("fig2", scale=MICRO_SCALE)
        norms = summary["metrics"]["probe"]
        assert set(norms) == {"kl", "l1", "sl"} and all(len(c) == 1 for c in norms.values())
        assert "Figure 2" in summary["rendering"]
        assert {c["name"] for c in summary["claims"]} >= {"norms_finite", "l1_dominates"}

    def test_fig3_claims_check_every_point(self):
        claims = {claim.name: claim for claim in EXPERIMENTS["fig3"].claims}

        def holds(name, fedzkt, fedmd, rounds=(1, 2)):
            metrics = {"fedzkt": {"rounds": list(rounds), "accuracy": fedzkt},
                       "fedmd": {"rounds": list(rounds), "accuracy": fedmd}}
            return claims[name].check(metrics, {})["holds"]

        nan = float("nan")
        assert holds("accuracies_in_unit", [0.2, 0.3], [0.1, 0.4])
        assert not holds("accuracies_in_unit", [0.2, nan], [0.1, 0.4])
        assert not holds("accuracies_in_unit", [0.2, 0.3], [0.1, 1.5])
        assert holds("point_per_round", [0.2, 0.3], [0.4])
        assert not holds("point_per_round", [0.3], [0.4])
        assert holds("beats_chance", [0.2, 0.3], [0.1, 0.4])
        assert not holds("beats_chance", [0.2, nan], [0.1, 0.4])
        assert not holds("beats_chance", [0.2, 0.3], [])

    def test_fig4_quantity(self):
        summary = run_experiment("fig4_quantity", scale=MICRO_SCALE, classes_per_device=(2,))
        assert list(summary["metrics"]) == ["fedzkt|C=2", "fedmd|C=2"]
        assert "FedZKT" in summary["rendering"]

    def test_table4(self):
        summary = run_experiment("table4", scale=MICRO_SCALE, dataset="mnist",
                                 classes_per_device=2, beta=0.5)
        assert list(summary["metrics"]) == ["C = 2|no_reg", "C = 2|l2_reg",
                                            "beta = 0.5|no_reg", "beta = 0.5|l2_reg"]
        assert "no regularization" in summary["rendering"]

    def test_compute_split(self):
        summary = run_experiment("compute_split", scale=MICRO_SCALE)
        assert summary["metrics"]["fedzkt"]["server_total_compute"] > 0
        assert "Server compute" in summary["rendering"]
        [claim] = summary["claims"]
        assert claim["name"] == "server_heavy" and claim["asserted"]

    def test_straggler_study(self):
        summary = run_experiment("straggler_study", scale=MICRO_SCALE, speed_skew=4.0,
                                 deadline=1.5)
        metrics = summary["metrics"]
        assert list(metrics) == ["sync", "deadline", "async"]
        for entry in metrics.values():
            assert entry["final_sim_time"] is not None
            assert entry["timeline"]
        # Not waiting for the slowest device must compress simulated time.
        assert metrics["deadline"]["final_sim_time"] < metrics["sync"]["final_sim_time"]
        assert "Straggler study" in summary["rendering"]


# --------------------------------------------------------------------------- #
# The runner itself, on a small test row
# --------------------------------------------------------------------------- #
def _square(x, scale, seed):
    return x * x


def _fail(message, scale, seed):
    raise RuntimeError(message)


def _row(point, claims=(), render=lambda m, f: f"rendered {sorted(m.items())}"):
    return Experiment("demo row", {"xs": (3, 5)},
                      lambda f: [variant for x in f["xs"] for variant in point(x)], render,
                      metric=lambda value: value + 1, claims=claims)


def _squares():
    return _row(lambda x: [Variant(f"x={x}", _square, {"x": x}, tags={"x": x})],
                claims=(Claim("small", "every square is < 20", lambda m, f: dict(m),
                              lambda n: max(n.values()) < 20, asserted=True),))


def _lines(directory):
    return [json.loads(line) for line in (directory / "metrics.jsonl").read_text().splitlines()]


class TestRunExperiment:
    def test_variant_order_metrics_and_claims(self, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "demo", _squares())
        summary = run_experiment("demo")
        assert summary["metrics"] == {"x=3": 10, "x=5": 26}
        assert summary["rendering"] == "rendered [('x=3', 10), ('x=5', 26)]"
        [claim] = summary["claims"]
        assert claim == {"name": "small", "text": "every square is < 20", "asserted": True,
                         "holds": False, "numbers": {"x=3": 10, "x=5": 26}}

    def test_fields_override_defaults(self, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "demo", _squares())
        assert run_experiment("demo", xs=(2,))["metrics"] == {"x=2": 5}

    def test_duplicate_keys_rejected(self, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "demo",
                            _row(lambda x: [Variant("same", _square, {"x": x})]))
        with pytest.raises(ValueError, match="duplicate variant keys"):
            run_experiment("demo")

    def test_triple(self, monkeypatch, tmp_path):
        monkeypatch.setitem(EXPERIMENTS, "demo", _squares())
        run_experiment("demo", seed=4, output_dir=tmp_path)
        manifest = json.loads((tmp_path / "demo" / "manifest.json").read_text())
        assert manifest["experiment"] == "demo" and manifest["seed"] == 4
        assert manifest["scale"]["name"] == "tiny" and manifest["backend"] == "serial"
        assert [v["key"] for v in manifest["variants"]] == ["x=3", "x=5"]
        assert {"python", "numpy", "blas", "commit"} <= set(manifest["environment"])
        lines = _lines(tmp_path / "demo")
        assert [(line["key"], line["result"], line["tags"]) for line in lines] == [
            ("x=3", 9, {"x": 3}), ("x=5", 25, {"x": 5})]
        assert all(line["error"] is None and line["seconds"] >= 0.0 for line in lines)
        summary = json.loads((tmp_path / "demo" / "summary.json").read_text())
        assert summary["metrics"] == {"x=3": 10, "x=5": 26}
        assert summary["claims"][0]["holds"] is False and summary["failed"] == []

    def test_failure_captured_then_raised_after_writing(self, monkeypatch, tmp_path):
        monkeypatch.setitem(EXPERIMENTS, "demo", _row(
            lambda x: [Variant("ok", _square, {"x": 2})] if x == 3
            else [Variant("bad", _fail, {"message": "boom"})]))
        with pytest.raises(ExperimentError, match="bad: RuntimeError: boom"):
            run_experiment("demo", output_dir=tmp_path)
        ok, bad = _lines(tmp_path / "demo")
        assert ok["result"] == 4 and ok["error"] is None
        assert bad["result"] is None and "boom" in bad["error"]
        assert "RuntimeError" in bad["traceback"]
        summary = json.loads((tmp_path / "demo" / "summary.json").read_text())
        assert summary["failed"] == ["bad"] and summary["metrics"] == {"ok": 5}
        assert summary["claims"] == []

    def test_results_written_before_rendering_runs(self, monkeypatch, tmp_path):
        def render(metrics, fields):
            raise ZeroDivisionError("render")

        monkeypatch.setitem(EXPERIMENTS, "demo", _row(
            lambda x: [Variant(f"x={x}", _square, {"x": x})], render=render))
        with pytest.raises(ZeroDivisionError):
            run_experiment("demo", output_dir=tmp_path)
        assert [line["result"] for line in _lines(tmp_path / "demo")] == [9, 25]
        assert (tmp_path / "demo" / "manifest.json").exists()
        assert not (tmp_path / "demo" / "summary.json").exists()

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="pickling test-module functions requires fork start method")
    def test_process_backend_fans_out_variants(self, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "demo", _squares())
        backend = ProcessPoolBackend(max_workers=2)
        try:
            summary = run_experiment("demo", backend=backend)
        finally:
            backend.shutdown()
        assert summary["metrics"] == {"x=3": 10, "x=5": 26}
