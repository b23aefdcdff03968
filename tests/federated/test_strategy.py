"""Strategy-layer tests (ISSUE 4 acceptance criteria).

* registry: register / lookup / duplicate-name error / enumeration;
* capability validation: one uniform rejection message per violation,
  raised from the config (the single validation point);
* partial-consensus FedMD: deterministic repeat-run histories under the
  ``deadline`` and ``async`` schedulers (the first time FedMD runs there).
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.baselines import (
    FedAvgServer,
    FedMDStrategy,
    StandaloneStrategy,
    build_fedmd,
    build_standalone,
)
from repro.baselines.fedavg import FedAvgStrategy
from repro.core import FedZKTStrategy, build_fedzkt
from repro.datasets import SyntheticImageConfig, SyntheticImageGenerator
from repro.federated import (
    FederatedConfig,
    ParameterServerStrategy,
    SchedulerConfig,
    ServerConfig,
    Simulation,
    Strategy,
    StrategyConfig,
    get_strategy_class,
    register_strategy,
    strategy_capabilities,
    strategy_names,
)
from repro.federated.strategies import _REGISTRY
from repro.models import SimpleCNN

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


def _assert_identical_histories(first, second):
    assert first.algorithm == second.algorithm
    assert len(first) == len(second)
    for record_a, record_b in zip(first.records, second.records):
        assert record_a.active_devices == record_b.active_devices
        assert record_a.global_accuracy == record_b.global_accuracy
        assert record_a.local_loss == record_b.local_loss
        assert record_a.device_accuracies == record_b.device_accuracies
        assert record_a.sim_time == record_b.sim_time
        assert record_a.server_metrics == record_b.server_metrics


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_builtins_enumerate_and_resolve(self):
        names = strategy_names()
        assert {"fedzkt", "fedavg", "fedmd", "standalone"} <= set(names)
        assert names == sorted(names)
        assert get_strategy_class("fedzkt") is FedZKTStrategy
        assert get_strategy_class("fedavg") is FedAvgStrategy
        assert get_strategy_class("fedmd") is FedMDStrategy
        assert get_strategy_class("standalone") is StandaloneStrategy

    def test_unknown_name_lists_available(self):
        with pytest.raises(KeyError, match="unknown strategy 'bogus'"):
            get_strategy_class("bogus")

    def test_register_lookup_and_duplicate_error(self):
        class DemoStrategy(Strategy):
            name = "demo-registry-test"

        try:
            returned = register_strategy(DemoStrategy)
            assert returned is DemoStrategy
            assert get_strategy_class("demo-registry-test") is DemoStrategy
            assert "demo-registry-test" in strategy_names()
            # Re-registering the same class is a no-op...
            register_strategy(DemoStrategy)

            # ...but a different class under the same name is an error.
            class Imposter(Strategy):
                name = "demo-registry-test"

            with pytest.raises(ValueError, match="already registered"):
                register_strategy(Imposter)
            # Unless explicitly replaced.
            register_strategy(Imposter, replace=True)
            assert get_strategy_class("demo-registry-test") is Imposter
        finally:
            _REGISTRY.pop("demo-registry-test", None)

    def test_register_rejects_builtin_shadowing_and_bad_types(self):
        class NotAStrategy:
            name = "fedzkt"

        with pytest.raises(TypeError):
            register_strategy(NotAStrategy)

        class FakeFedZKT(Strategy):
            name = "fedzkt"

        with pytest.raises(ValueError, match="already registered"):
            register_strategy(FakeFedZKT)

        class Anonymous(Strategy):
            pass  # inherits name = "base"

        with pytest.raises(ValueError, match="explicit name"):
            register_strategy(Anonymous)

    def test_capability_summaries(self):
        fedzkt = strategy_capabilities("fedzkt")
        assert fedzkt["supports_server_shards"] is True
        assert set(fedzkt["supports_schedulers"]) == {"sync", "deadline", "async"}
        fedmd = strategy_capabilities("fedmd")
        assert fedmd["uses_public_dataset"] is True
        assert fedmd["supports_server_shards"] is False
        standalone = strategy_capabilities("standalone")
        assert standalone["supports_schedulers"] == ("sync",)


# --------------------------------------------------------------------------- #
# Capability validation (the one place, with one message per violation)
# --------------------------------------------------------------------------- #
class TestCapabilityValidation:
    def test_unset_strategy_name_skips_validation(self):
        config = _config(scheduler=SchedulerConfig(kind="async"))
        assert config.strategy.name is None  # builders fill it in

    def test_unknown_strategy_name_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy 'bogus'"):
            _config(strategy=StrategyConfig(name="bogus"))

    def test_scheduler_capability_rejected_in_config(self):
        with pytest.raises(ValueError,
                           match="strategy 'standalone' does not support the "
                                 "'deadline' scheduler"):
            _config(strategy=StrategyConfig(name="standalone"),
                    scheduler=SchedulerConfig(kind="deadline"))

    def test_server_shards_capability_rejected_in_config(self):
        for name in ("fedavg", "fedmd", "standalone"):
            with pytest.raises(ValueError,
                               match=f"strategy '{name}' does not declare "
                                     "supports_server_shards"):
                _config(strategy=StrategyConfig(name=name),
                        server=ServerConfig(server_shards=2))
        # fedzkt declares the capability: accepted.
        config = _config(strategy=StrategyConfig(name="fedzkt"),
                         server=ServerConfig(server_shards=2))
        assert config.server.server_shards == 2

    def test_digest_epochs_validated(self):
        with pytest.raises(ValueError, match="digest_epochs"):
            StrategyConfig(digest_epochs=0)

    def test_builder_rejects_mismatched_strategy_block(self):
        train, test = _data()
        config = _config(strategy=StrategyConfig(name="fedmd"))
        with pytest.raises(ValueError, match="names strategy 'fedmd'"):
            build_fedzkt(train, test, config, family="small")

    def test_engine_rejects_scheduler_outside_declared_support(self):
        """Passing a scheduler object directly (bypassing the config) hits
        the engine-level guard with the same capability message."""
        from repro.federated import DeadlineScheduler

        train, test = _data()
        config = _config()
        simulation = build_standalone(train, test, config, family="small")
        devices = simulation.devices
        with pytest.raises(ValueError, match="does not support the 'deadline'"):
            Simulation(devices, config, test, StandaloneStrategy(),
                       scheduler=DeadlineScheduler())


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

    def test_parameter_server_strategy_requires_server(self):
        with pytest.raises(ValueError, match="requires a server"):
            ParameterServerStrategy(None)

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
        shards_config = config.with_strategy("standalone")
        from repro.partition import IIDPartitioner
        from repro.federated import Device

        shards = IIDPartitioner(4, seed=config.seed).partition(train)
        devices = [Device(device_id=i,
                          model=SimpleCNN(SHAPE, CLASSES, channels=(4,), hidden_size=8,
                                          seed=i),
                          dataset=shard, batch_size=16, seed=config.seed + 1000 + i)
                   for i, shard in enumerate(shards)]
        with Simulation(devices, shards_config, test, HookedStandalone()) as simulation:
            simulation.run()
        assert calls == [("run_start", 2),
                         ("round_start", 1), ("round_end", 1),
                         ("round_start", 2), ("round_end", 2)]

    def test_standalone_run_has_no_global_and_no_exchange(self):
        train, test = _data()
        simulation = build_standalone(train, test, _config(rounds=2), family="small")
        with simulation:
            history = simulation.run()
        assert history.algorithm == "standalone"
        assert simulation.server is None
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

    @pytest.mark.parametrize("kind", ["deadline", "async"])
    def test_fedmd_deterministic_across_repeats(self, kind):
        """ISSUE 4 acceptance: FedMD runs to completion under deadline and
        async with deterministic repeat-run histories."""
        _assert_identical_histories(self._run(kind), self._run(kind))

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


def test_run_algorithm_plugin_dispatch_and_errors():
    """A registered plugin without a runner gets a pointed message; attaching
    one via register_algorithm_runner makes it dispatchable."""
    from repro.experiments.runner import (
        ALGORITHM_RUNNERS,
        register_algorithm_runner,
        run_algorithm,
    )

    class PluginStrategy(Strategy):
        name = "plugin-no-runner"

    try:
        register_strategy(PluginStrategy)
        with pytest.raises(ValueError, match="no single-run entry point"):
            run_algorithm("plugin-no-runner", "mnist")

        def runner(dataset_name, **kwargs):
            return ("ran", dataset_name)

        register_algorithm_runner("plugin-no-runner", runner)
        assert run_algorithm("plugin-no-runner", "mnist") == ("ran", "mnist")
        with pytest.raises(ValueError, match="already registered"):
            register_algorithm_runner("plugin-no-runner", runner)
    finally:
        _REGISTRY.pop("plugin-no-runner", None)
        ALGORITHM_RUNNERS.pop("plugin-no-runner", None)
    with pytest.raises(ValueError, match="unknown algorithm"):
        run_algorithm("not-a-strategy", "mnist")


def test_verbose_lines_per_strategy(capsys):
    """Each strategy renders a progress line through the generic engine."""
    from repro.federated.history import RoundRecord

    record = RoundRecord(round_index=1, global_accuracy=0.5,
                         device_accuracies={0: 0.25, 1: 0.75})
    fedmd = FedMDStrategy(_public())
    assert "fedmd" in fedmd.verbose_line(record, 2)
    assert "standalone" in StandaloneStrategy().verbose_line(record, 2)
    server = FedAvgServer(SimpleCNN(SHAPE, CLASSES, channels=(4,), hidden_size=8, seed=0))
    line = FedAvgStrategy(server).verbose_line(record, 2)
    assert "fedavg" in line and "global=0.500" in line

    train, test = _data()
    with build_standalone(train, test, _config(rounds=1), family="small") as simulation:
        simulation.run(verbose=True)
    out = capsys.readouterr().out
    assert "[standalone] round 1/1" in out
