"""Tests for the ``repro`` console entrypoint (repro.cli)."""

from __future__ import annotations

import json

import pytest

from repro import cli
from repro.experiments import ExperimentScale


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


def test_parser_defaults():
    parser = cli.build_parser()
    args = parser.parse_args(["run", "mnist"])
    assert args.command == "run"
    assert args.algorithm == "fedzkt"
    assert args.backend == "serial"
    assert args.scheduler is None and args.deadline is None and args.speed_skew is None
    args = parser.parse_args(["experiment", "table1", "--backend", "process:2"])
    assert args.name == "table1" and args.backend == "process:2"


def test_parser_scheduler_flags():
    parser = cli.build_parser()
    args = parser.parse_args(["run", "mnist", "--scheduler", "deadline",
                              "--deadline", "1.5", "--speed-skew", "4",
                              "--buffer-size", "3", "--dropout-rate", "0.1"])
    assert args.scheduler == "deadline"
    assert args.deadline == 1.5
    assert args.speed_skew == 4.0
    assert args.buffer_size == 3
    assert args.dropout_rate == 0.1
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "mnist", "--scheduler", "bogus"])


def test_parser_worker_subcommand():
    parser = cli.build_parser()
    args = parser.parse_args(["worker", "--connect", "10.0.0.5:7000"])
    assert args.command == "worker"
    assert args.connect == "10.0.0.5:7000"
    assert args.cache_bytes is None and args.patience == 30.0 and not args.quiet
    args = parser.parse_args(["worker", "--connect", ":7000",
                              "--cache-bytes", "1048576", "--patience", "5",
                              "--quiet"])
    assert args.cache_bytes == 1048576 and args.patience == 5.0 and args.quiet
    with pytest.raises(SystemExit):  # --connect is mandatory
        parser.parse_args(["worker"])


def test_worker_command_rejects_malformed_address():
    with pytest.raises(SystemExit, match="HOST:PORT"):
        cli.main(["worker", "--connect", "no-port-here"])


def test_parser_transport_stats_flag():
    parser = cli.build_parser()
    assert parser.parse_args(["run", "mnist"]).transport_stats is False
    assert parser.parse_args(["run", "mnist", "--transport-stats"]).transport_stats


def test_parser_cohort_fusion_is_a_switch():
    parser = cli.build_parser()
    assert parser.parse_args(["run", "mnist"]).cohort_fusion is False
    assert parser.parse_args(["run", "mnist", "--cohort-fusion"]).cohort_fusion is True
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "mnist", "--cohort-fusion", "family"])


def test_run_command_prints_transport_stats(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(cli.SCALES, "tiny", MICRO_SCALE)
    code = cli.main(["run", "mnist", "--scale", "tiny", "--rounds", "1",
                     "--backend", "serial", "--transport-stats", "--quiet"])
    assert code == 0
    out = capsys.readouterr().out
    assert "transport stats [serial]" in out
    assert "refs_resolved" in out
    assert "by label:" in out


def test_version_flag(capsys):
    import repro

    with pytest.raises(SystemExit) as excinfo:
        cli.main(["--version"])
    assert excinfo.value.code == 0
    assert repro.__version__ in capsys.readouterr().out


def test_version_single_sourced_from_pyproject():
    import re
    from pathlib import Path

    import repro

    pyproject = Path(repro.__file__).resolve().parents[2] / "pyproject.toml"
    declared = re.search(r'^version\s*=\s*"([^"]+)"', pyproject.read_text(),
                         flags=re.MULTILINE).group(1)
    assert repro.__version__ == declared


def test_scheduler_knobs_require_matching_scheduler():
    with pytest.raises(SystemExit, match="--scheduler deadline"):
        cli.main(["run", "mnist", "--deadline", "0.5", "--quiet"])
    with pytest.raises(SystemExit, match="--scheduler async"):
        cli.main(["run", "mnist", "--buffer-size", "3", "--quiet"])


def test_standalone_rejects_async_scheduler_flag(monkeypatch):
    monkeypatch.setitem(cli.SCALES, "tiny", MICRO_SCALE)
    with pytest.raises(SystemExit,
                       match="strategy 'standalone' does not support the 'async' scheduler"):
        cli.main(["run", "mnist", "--algorithm", "standalone", "--scheduler", "async",
                  "--quiet"])


def test_fedmd_accepts_deadline_scheduler(monkeypatch, tmp_path):
    """FedMD historically refused deadline/async from the CLI; the partial-
    consensus strategy now runs them end to end."""
    monkeypatch.setitem(cli.SCALES, "tiny", MICRO_SCALE)
    output = tmp_path / "history.json"
    code = cli.main(["run", "mnist", "--algorithm", "fedmd", "--scale", "tiny",
                     "--rounds", "2", "--scheduler", "deadline", "--speed-skew", "4",
                     "--output", str(output), "--quiet"])
    assert code == 0
    payload = json.loads(output.read_text())
    assert payload["algorithm"] == "fedmd"
    assert payload["config"]["scheduler"] == "deadline"
    assert len(payload["rounds"]) == 2


def test_run_command_with_deadline_scheduler(monkeypatch, tmp_path):
    monkeypatch.setitem(cli.SCALES, "tiny", MICRO_SCALE)
    output = tmp_path / "history.json"
    code = cli.main(["run", "mnist", "--scale", "tiny", "--rounds", "2",
                     "--scheduler", "deadline", "--deadline", "1.5",
                     "--speed-skew", "4", "--output", str(output), "--quiet"])
    assert code == 0
    payload = json.loads(output.read_text())
    assert payload["config"]["scheduler"] == "deadline"
    assert payload["config"]["speed_skew"] == 4.0
    assert all(r["sim_time"] is not None for r in payload["rounds"])


def test_parser_rejects_unknown_experiment():
    parser = cli.build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["experiment", "not-a-figure"])


def test_list_command(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    assert "table1" in out
    assert "fig7" in out


def test_list_command_enumerates_backends(capsys):
    from repro.federated import BACKENDS

    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    assert "backends:" in out
    for name, description in BACKENDS.items():
        assert f"  {name:15s} {description}" in out
    assert "tcp" in out  # the multi-node scheme is listed out of the box


def test_list_command_enumerates_strategies(capsys):
    from repro.experiments import STRATEGIES

    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    assert "strategies:" in out
    for name in STRATEGIES:
        assert f"  {name:15s} " in out
    # Capability flags are surfaced.
    assert "[schedulers=sync,deadline,async; server-shards]" in out
    assert "[schedulers=sync,deadline,async; public-dataset]" in out
    assert "[schedulers=sync]" in out


def test_run_command_micro(monkeypatch, tmp_path, capsys):
    # Swap the micro scale in for "tiny" so the CLI run finishes in seconds.
    monkeypatch.setitem(cli.SCALES, "tiny", MICRO_SCALE)
    output = tmp_path / "history.json"
    code = cli.main(["run", "mnist", "--algorithm", "fedzkt", "--scale", "tiny",
                     "--rounds", "1", "--output", str(output), "--quiet"])
    assert code == 0
    payload = json.loads(output.read_text())
    assert payload["algorithm"] == "fedzkt"
    assert len(payload["rounds"]) == 1


def test_experiment_command_micro(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(cli.SCALES, "tiny", MICRO_SCALE)
    out_dir = tmp_path / "variants"
    code = cli.main(["experiment", "compute_split", "--scale", "tiny",
                     "--output-dir", str(out_dir)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "Compute-split ablation" in printed and "server_heavy" not in printed
    assert "the server does more of the work" in printed
    run_dir = out_dir / "compute_split"
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["scale"]["name"] == "micro" and manifest["backend"] == "serial"
    [line] = [json.loads(text) for text in (run_dir / "metrics.jsonl").read_text().splitlines()]
    assert line["key"] == "fedzkt" and line["error"] is None
    assert line["result"]["server_total_compute"] > 0
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["metrics"]["fedzkt"] == line["result"]
    assert [claim["name"] for claim in summary["claims"]] == ["server_heavy"]


def test_server_shards_flag_requires_capable_strategy():
    """--server-shards gating now comes from the strategy's capability
    declaration (validated in the config), not hand-rolled CLI checks."""
    for algorithm in ("fedmd", "fedavg", "standalone"):
        with pytest.raises(SystemExit,
                           match=f"strategy '{algorithm}' does not declare "
                                 "supports_server_shards"):
            cli.main(["run", "mnist", "--algorithm", algorithm, "--server-shards", "2",
                      "--quiet"])
    with pytest.raises(SystemExit, match="at least 1"):
        cli.main(["run", "mnist", "--server-shards", "0", "--quiet"])


def test_public_choice_requires_public_dataset_strategy():
    with pytest.raises(SystemExit, match="--public-choice only applies"):
        cli.main(["run", "mnist", "--algorithm", "fedzkt", "--public-choice", "svhn",
                  "--quiet"])


def test_run_command_fedavg(monkeypatch, tmp_path):
    monkeypatch.setitem(cli.SCALES, "tiny", MICRO_SCALE)
    output = tmp_path / "history.json"
    code = cli.main(["run", "mnist", "--algorithm", "fedavg", "--scale", "tiny",
                     "--rounds", "2", "--output", str(output), "--quiet"])
    assert code == 0
    payload = json.loads(output.read_text())
    assert payload["algorithm"] == "fedavg"
    assert len(payload["rounds"]) == 2
    assert all(r["global_accuracy"] is not None for r in payload["rounds"])


def test_run_command_fedprox_via_prox_mu(monkeypatch, tmp_path):
    monkeypatch.setitem(cli.SCALES, "tiny", MICRO_SCALE)
    output = tmp_path / "history.json"
    code = cli.main(["run", "mnist", "--algorithm", "fedavg", "--prox-mu", "0.1",
                     "--scale", "tiny", "--rounds", "1", "--output", str(output),
                     "--quiet"])
    assert code == 0
    payload = json.loads(output.read_text())
    assert payload["algorithm"] == "fedprox"
    assert payload["config"]["prox_mu"] == 0.1


def test_run_command_standalone(monkeypatch, tmp_path):
    monkeypatch.setitem(cli.SCALES, "tiny", MICRO_SCALE)
    output = tmp_path / "history.json"
    code = cli.main(["run", "mnist", "--algorithm", "standalone", "--scale", "tiny",
                     "--rounds", "2", "--output", str(output), "--quiet"])
    assert code == 0
    payload = json.loads(output.read_text())
    assert payload["algorithm"] == "standalone"
    assert len(payload["rounds"]) == 2
    # No collaboration: no global model, but per-device accuracies recorded.
    assert all(r["global_accuracy"] is None for r in payload["rounds"])
    assert all(len(r["device_accuracies"]) == 2 for r in payload["rounds"])


def test_run_command_with_server_shards(monkeypatch, tmp_path):
    monkeypatch.setitem(cli.SCALES, "tiny", MICRO_SCALE)
    output = tmp_path / "history.json"
    code = cli.main(["run", "mnist", "--scale", "tiny", "--rounds", "1",
                     "--server-shards", "2", "--output", str(output), "--quiet"])
    assert code == 0
    payload = json.loads(output.read_text())
    assert payload["config"]["server_shards"] == 2
    assert len(payload["rounds"]) == 1
