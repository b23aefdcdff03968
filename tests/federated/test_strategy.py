"""Strategy-layer tests.

* the strategy table: every built-in algorithm by name, with its
  capability declarations;
* the capability check: ``Simulation`` is the one place a scheduler kind
  or a ``server_shards`` request is checked against the strategy, and
  ``run_algorithm`` surfaces the same message;
* partial-consensus FedMD under the ``deadline`` and ``async`` schedulers
  (their histories replay bit for bit in
  ``tests/integration/test_parity_matrix.py``).
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.baselines import (
    FedMDStrategy,
    StandaloneStrategy,
    build_fedmd,
    build_standalone,
)
from repro.baselines.fedavg import FedAvgStrategy
from repro.core import FedZKTStrategy
from repro.datasets import SyntheticImageConfig, SyntheticImageGenerator
from repro.experiments import STRATEGIES, ExperimentScale, run_algorithm
from repro.federated import (
    Device,
    FederatedConfig,
    SchedulerConfig,
    ServerConfig,
    Simulation,
    SynchronousScheduler,
)
from repro.models import SimpleCNN
from repro.models.registry import build_generator
from repro.partition import IIDPartitioner

SHAPE = (3, 8, 8)
CLASSES = 4


def _data(train=160, test=60):
    config = SyntheticImageConfig(name="strat-rgb", num_classes=4, channels=3, height=8,
                                  width=8, family_seed=21, noise_level=0.2, max_shift=1,
                                  modes_per_class=1, background_strength=0.2)
    generator = SyntheticImageGenerator(config)
    return generator.sample(train, seed=1), generator.sample(test, seed=2)


def _public():
    config = SyntheticImageConfig(name="strat-public", num_classes=4, channels=3, height=8,
                                  width=8, family_seed=77, modes_per_class=1)
    return SyntheticImageGenerator(config).sample(60, seed=5)


def _config(rounds=2, **overrides):
    base = dict(
        num_devices=4, rounds=rounds, local_epochs=1, batch_size=16, device_lr=0.05,
        seed=11,
        server=ServerConfig(distillation_iterations=2, batch_size=8, noise_dim=16,
                            device_distill_lr=0.02),
    )
    base.update(overrides)
    return FederatedConfig(**base)


def _model(seed):
    return SimpleCNN(SHAPE, CLASSES, channels=(4,), hidden_size=8, seed=seed)


def _devices(train, config):
    shards = IIDPartitioner(config.num_devices, seed=config.seed).partition(train)
    return [Device(device_id=i, model=_model(i), dataset=shard, batch_size=16,
                   seed=config.seed + 1000 + i)
            for i, shard in enumerate(shards)]


def _strategy(name, devices, config):
    """A fresh, unbound instance of the built-in strategy ``name``."""
    if name == "fedzkt":
        replicas = {device.device_id: copy.deepcopy(device.model) for device in devices}
        return FedZKTStrategy(_model(7), build_generator(SHAPE, noise_dim=16, seed=13),
                              replicas, config)
    if name == "fedavg":
        return FedAvgStrategy(_model(7))
    if name == "fedmd":
        return FedMDStrategy(_public())
    return StandaloneStrategy()


class _LockstepScheduler(SynchronousScheduler):
    """A scheduler kind no built-in strategy declares."""

    name = "lockstep"


MICRO_SCALE = ExperimentScale(
    name="micro", rounds_small=1, rounds_cifar=1, local_epochs_small=1,
    local_epochs_cifar=1, distillation_iterations_small=2,
    distillation_iterations_cifar=2, num_devices=2, train_size=60, test_size=20,
    public_size=20, batch_size=16, server_batch_size=8, device_lr=0.05, global_lr=0.05,
    device_distill_lr=0.02, generator_lr=1e-3, image_size=8)


# --------------------------------------------------------------------------- #
# The strategy table
# --------------------------------------------------------------------------- #
class TestStrategyTable:
    def test_table_names_every_builtin_by_its_own_name(self):
        assert STRATEGIES == {"fedzkt": FedZKTStrategy, "fedavg": FedAvgStrategy,
                              "fedmd": FedMDStrategy, "standalone": StandaloneStrategy}
        assert all(cls.name == name for name, cls in STRATEGIES.items())

    def test_capability_declarations(self):
        assert FedZKTStrategy.supports_server_shards is True
        assert set(FedZKTStrategy.supports_schedulers) == {"sync", "deadline", "async"}
        assert FedMDStrategy.uses_public_dataset is True
        assert FedMDStrategy.supports_server_shards is False
        assert StandaloneStrategy.supports_schedulers == ("sync",)

    def test_unknown_algorithm_lists_the_table(self):
        with pytest.raises(ValueError,
                           match="unknown algorithm 'not-a-strategy'; choose from fedzkt"):
            run_algorithm("not-a-strategy", "mnist")


# --------------------------------------------------------------------------- #
# The capability check (one place: the Simulation constructor)
# --------------------------------------------------------------------------- #
_UNDECLARED_KINDS = [(name, kind) for name, cls in STRATEGIES.items()
                     for kind in ("sync", "deadline", "async", "lockstep")
                     if kind not in cls.supports_schedulers]


class TestCapabilityCheck:
    @pytest.mark.parametrize("name, kind", _UNDECLARED_KINDS,
                             ids=[f"{name}-{kind}" for name, kind in _UNDECLARED_KINDS])
    def test_strategy_rejects_an_undeclared_scheduler_kind(self, name, kind):
        train, test = _data()
        if kind == "lockstep":
            config, scheduler = _config(), _LockstepScheduler()
        else:
            config, scheduler = _config(scheduler=SchedulerConfig(kind=kind)), None
        devices = _devices(train, config)
        supported = ", ".join(STRATEGIES[name].supports_schedulers)
        with pytest.raises(ValueError) as caught:
            Simulation(devices, config, test, _strategy(name, devices, config),
                       scheduler=scheduler)
        assert str(caught.value) == (f"strategy {name!r} does not support the {kind!r} "
                                     f"scheduler (supported: {supported})")

    @pytest.mark.parametrize("name", ["fedavg", "fedmd", "standalone"])
    def test_strategy_without_a_shardable_server_rejects_shards(self, name):
        train, test = _data()
        config = _config(server=ServerConfig(server_shards=2))
        devices = _devices(train, config)
        with pytest.raises(ValueError,
                           match=f"server_shards=2 requires a strategy with a shardable "
                                 f"server-side phase, but strategy '{name}' does not "
                                 "declare supports_server_shards"):
            Simulation(devices, config, test, _strategy(name, devices, config))

    def test_fedzkt_accepts_server_shards(self):
        train, test = _data()
        config = _config(server=ServerConfig(server_shards=2))
        devices = _devices(train, config)
        with Simulation(devices, config, test, _strategy("fedzkt", devices, config)) as sim:
            assert sim.strategy.distiller.backend is sim.backend

    @pytest.mark.parametrize("name, knobs, config_overrides", [
        ("standalone", {"scheduler": "deadline"},
         {"scheduler": SchedulerConfig(kind="deadline")}),
        ("fedavg", {"server_shards": 2}, {"server": ServerConfig(server_shards=2)}),
    ])
    def test_run_algorithm_raises_the_simulation_message(self, name, knobs,
                                                         config_overrides):
        train, test = _data()
        config = _config(**config_overrides)
        devices = _devices(train, config)
        with pytest.raises(ValueError) as direct:
            Simulation(devices, config, test, _strategy(name, devices, config))
        with pytest.raises(ValueError) as via_runner:
            run_algorithm(name, "mnist", scale=MICRO_SCALE, **knobs)
        assert str(via_runner.value) == str(direct.value)

    def test_digest_epochs_validated(self):
        with pytest.raises(ValueError, match="digest_epochs must be at least 1"):
            FedMDStrategy(_public(), digest_epochs=0)


# --------------------------------------------------------------------------- #
# Strategy base behaviour
# --------------------------------------------------------------------------- #
class TestStrategyBasics:
    def test_strategy_binds_once(self):
        train, test = _data()
        config = _config()
        simulation = build_standalone(train, test, config, family="small")
        strategy = simulation.strategy
        with pytest.raises(RuntimeError, match="already bound"):
            Simulation(simulation.devices, config, test, strategy)

    def test_simulation_requires_strategy_instance(self):
        train, test = _data()
        with pytest.raises(TypeError, match="Strategy instance"):
            Simulation([object()], _config(), test, strategy=object())

    def test_simulation_requires_devices(self):
        train, test = _data()
        with pytest.raises(ValueError, match="at least one device"):
            Simulation([], _config(), test, FedMDStrategy(_public()))

    def test_lifecycle_hooks_fire_in_order(self):
        calls = []

        class HookedStandalone(StandaloneStrategy):
            def on_run_start(self, total_rounds):
                calls.append(("run_start", total_rounds))

            def on_round_start(self, round_index):
                calls.append(("round_start", round_index))

            def on_round_end(self, record):
                calls.append(("round_end", record.round_index))

        train, test = _data()
        config = _config(rounds=2)
        with Simulation(_devices(train, config), config, test,
                        HookedStandalone()) as simulation:
            simulation.run()
        assert calls == [("run_start", 2),
                         ("round_start", 1), ("round_end", 1),
                         ("round_start", 2), ("round_end", 2)]

    def test_server_alias_is_the_strategy(self):
        """The benchmark harness reads ``simulation.server.distiller``."""
        train, test = _data()
        config = _config()
        devices = _devices(train, config)
        strategy = _strategy("fedzkt", devices, config)
        with Simulation(devices, config, test, strategy) as simulation:
            assert simulation.server is strategy
            assert simulation.server.distiller.backend is simulation.backend

    def test_standalone_run_has_no_global_and_no_exchange(self):
        train, test = _data()
        simulation = build_standalone(train, test, _config(rounds=2), family="small")
        with simulation:
            history = simulation.run()
        assert history.algorithm == "standalone"
        assert simulation.strategy.global_model is None
        assert all(record.global_accuracy is None for record in history)
        assert all(len(record.device_accuracies) == 4 for record in history)
        # No parameters ever flowed down to the devices.
        assert not any(device.has_anchor for device in simulation.devices)

    def test_standalone_matches_train_standalone_code_path(self):
        """One standalone round == Device.local_train epochs on each shard
        (same shared trainer loop, same RNG streams)."""
        train, test = _data()
        config = _config(rounds=1)
        simulation = build_standalone(train, test, config, family="small")
        reference_models = [copy.deepcopy(device.model) for device in simulation.devices]
        reference_rngs = [np.random.default_rng(config.seed + 1000 + i) for i in range(4)]
        with simulation:
            simulation.run()
        from repro.federated.trainer import local_sgd_train

        for device, model, rng in zip(simulation.devices, reference_models, reference_rngs):
            local_sgd_train(model, device.dataset, config.local_epochs,
                            device.training_config, rng)
            for param_a, param_b in zip(model.parameters(), device.model.parameters()):
                np.testing.assert_array_equal(param_a.data, param_b.data)


# --------------------------------------------------------------------------- #
# Partial-consensus FedMD under reordering schedulers
# --------------------------------------------------------------------------- #
class TestPartialConsensusFedMD:
    def _run(self, kind, **scheduler_overrides):
        train, test = _data()
        scheduler = SchedulerConfig(kind=kind, **scheduler_overrides)
        from repro.federated import HeterogeneityConfig

        config = _config(rounds=4,
                         scheduler=scheduler,
                         heterogeneity=HeterogeneityConfig(speed_skew=4.0,
                                                           latency_mean=0.1))
        simulation = build_fedmd(train, test, _public(), config, family="small")
        with simulation:
            return simulation.run()

    def test_fedmd_deadline_expresses_staleness(self):
        history = self._run("deadline", deadline=1.5)
        assert len(history) == 4
        staleness = history.server_metric_curve("mean_staleness")
        late = history.server_metric_curve("late_uploads")
        assert max(staleness) > 0 or max(late) >= 1
        # Digest statistics are attributed to the round the upload landed in.
        assert all("digest_loss" in record.server_metrics for record in history)

    def test_fedmd_async_aggregates_buffered_cohorts(self):
        history = self._run("async", buffer_size=2)
        assert len(history) == 4
        for record in history:
            assert len(record.active_devices) == 2
        versions = history.server_metric_curve("server_version")
        assert versions == sorted(versions)

    def test_fedmd_sync_consensus_mode_is_full(self):
        train, test = _data()
        simulation = build_fedmd(train, test, _public(), _config(), family="small")
        assert simulation.strategy.consensus_mode == "full"


def test_verbose_lines_per_strategy(capsys):
    """Each strategy renders a progress line through the generic engine."""
    from repro.federated.history import RoundRecord

    record = RoundRecord(round_index=1, global_accuracy=0.5,
                         device_accuracies={0: 0.25, 1: 0.75})
    fedmd = FedMDStrategy(_public())
    assert "fedmd" in fedmd.verbose_line(record, 2)
    assert "standalone" in StandaloneStrategy().verbose_line(record, 2)
    line = FedAvgStrategy(_model(0)).verbose_line(record, 2)
    assert "fedavg" in line and "global=0.500" in line

    train, test = _data()
    with build_standalone(train, test, _config(rounds=1), family="small") as simulation:
        simulation.run(verbose=True)
    out = capsys.readouterr().out
    assert "[standalone] round 1/1" in out
