"""Round-scheduler tests: staleness semantics and heterogeneity.

What the scheduler layer must do:

* every scheduler's runs replay bit for bit across backends, fusion and
  server shards (``tests/integration/test_parity_matrix.py``; its
  synchronous oracles are held to the golden fixtures and, under partial
  participation, to a hand-written round loop);
* ``DeadlineScheduler`` / ``AsyncBufferedScheduler`` actually express
  straggler behaviour (late uploads, staleness discounts, capped round
  times) — covered here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import build_fedavg, build_fedmd
from repro.datasets import SyntheticImageConfig, SyntheticImageGenerator
from repro.federated import (
    AsyncBufferedScheduler,
    DeadlineScheduler,
    FederatedConfig,
    HeterogeneityConfig,
    HeterogeneityModel,
    ProcessPoolBackend,
    SchedulerConfig,
    SerialBackend,
    ServerConfig,
    SynchronousScheduler,
    UploadMeta,
    make_scheduler,
)
from repro.models import ModelSpec


def _data(train=160, test=60):
    config = SyntheticImageConfig(name="sched-rgb", num_classes=4, channels=3, height=8,
                                  width=8, family_seed=21, noise_level=0.2, max_shift=1,
                                  modes_per_class=1, background_strength=0.2)
    generator = SyntheticImageGenerator(config)
    return generator.sample(train, seed=1), generator.sample(test, seed=2)


def _config(kind, **overrides):
    scheduler = SchedulerConfig(kind=kind, deadline=overrides.pop("deadline", 1.5),
                                buffer_size=overrides.pop("buffer_size", 2))
    heterogeneity = HeterogeneityConfig(
        speed_skew=overrides.pop("speed_skew", 4.0),
        latency_mean=overrides.pop("latency_mean", 0.1),
        dropout_rate=overrides.pop("dropout_rate", 0.0))
    return FederatedConfig(
        num_devices=4, rounds=4, local_epochs=1, batch_size=16, device_lr=0.05, seed=3,
        server=ServerConfig(distillation_iterations=2, batch_size=8, noise_dim=16,
                            device_distill_lr=0.02),
        scheduler=scheduler, heterogeneity=heterogeneity, **overrides)


def _run(kind, **overrides):
    train, test = _data()
    with build_fedavg(train, test, _config(kind, **overrides),
                      model_spec=ModelSpec("cnn", {"channels": (4, 8),
                                                   "hidden_size": 16})) as simulation:
        return simulation.run()


# --------------------------------------------------------------------------- #
# Scheduler semantics
# --------------------------------------------------------------------------- #
def test_sync_round_time_is_paced_by_slowest_device():
    history = _run("sync", latency_mean=0.0)
    model = HeterogeneityModel(4, HeterogeneityConfig(speed_skew=4.0), seed=3)
    slowest = max(model.time_multiplier(d) for d in range(4))
    times = history.sim_time_curve()
    assert times == pytest.approx([slowest * r for r in range(1, 5)])


def test_sync_without_heterogeneity_counts_rounds():
    history = _run("sync", speed_skew=1.0, latency_mean=0.0)
    assert history.sim_time_curve() == [1.0, 2.0, 3.0, 4.0]


def test_deadline_rounds_end_at_the_deadline():
    history = _run("deadline", deadline=1.5)
    assert history.sim_time_curve() == pytest.approx([1.5, 3.0, 4.5, 6.0])


def test_deadline_produces_late_uploads_under_skew():
    history = _run("deadline", deadline=1.5)
    staleness = history.server_metric_curve("mean_staleness")
    late = history.server_metric_curve("late_uploads")
    assert max(staleness) > 0
    assert max(late) >= 1
    # Stragglers eventually contribute: every device aggregates at least once.
    aggregated = {device for record in history for device in record.active_devices}
    assert aggregated == {0, 1, 2, 3}


def test_deadline_with_generous_deadline_matches_sync_membership():
    """A deadline longer than the slowest device degenerates to full rounds."""
    history = _run("deadline", deadline=100.0, latency_mean=0.0)
    for record in history:
        # Arrival order (fastest first), but every device makes every round.
        assert sorted(record.active_devices) == [0, 1, 2, 3]
        assert record.server_metrics["mean_staleness"] == 0.0


def test_async_aggregates_buffer_sized_batches_with_staleness():
    history = _run("async", buffer_size=2)
    for record in history:
        assert len(record.active_devices) == 2
    assert max(history.server_metric_curve("mean_staleness")) > 0
    versions = history.server_metric_curve("server_version")
    assert versions == sorted(versions) and versions[-1] == len(history)


def test_async_clock_never_runs_backwards_and_beats_sync():
    sync = _run("sync")
    async_history = _run("async")
    times = async_history.sim_time_curve()
    assert all(b >= a for a, b in zip(times, times[1:]))
    # Same number of aggregations in strictly less simulated time than
    # lockstep rounds paced by the slowest device.
    assert times[-1] < sync.sim_time_curve()[-1]


def test_dropout_shrinks_participation():
    history = _run("sync", dropout_rate=0.5, speed_skew=1.0, latency_mean=0.0)
    sizes = [len(record.active_devices) for record in history.records]
    assert min(sizes) < 4  # some device dropped in at least one round


def test_fedmd_runs_under_reordering_schedulers_with_partial_consensus():
    """FedMD historically refused deadline/async; the partial-consensus
    variant (consensus over the dispatch cohort) now supports them."""
    train, test = _data()
    public = SyntheticImageGenerator(SyntheticImageConfig(
        name="sched-public", num_classes=4, channels=3, height=8, width=8,
        family_seed=77, modes_per_class=1)).sample(40, seed=5)
    simulation = build_fedmd(train, test, public, _config("async"), family="small")
    assert simulation.strategy.consensus_mode == "partial"
    with simulation:
        history = simulation.run()
    assert len(history) == 4


def test_standalone_rejects_reordering_schedulers():
    """StandaloneStrategy has no aggregation event, so the capability
    validation rejects deadline/async at config time."""
    from repro.baselines import build_standalone

    train, test = _data()
    with pytest.raises(ValueError, match="does not support the 'deadline' scheduler"):
        build_standalone(train, test, _config("deadline"), family="small")


def test_run_round_persists_scheduler_state():
    train, test = _data()
    simulation = build_fedavg(train, test, _config("deadline"),
                              model_spec=ModelSpec("cnn", {"channels": (4, 8),
                                                           "hidden_size": 16}))
    with simulation:
        first = simulation.run_round(1)
        second = simulation.run_round(2)
    assert second.sim_time == pytest.approx(first.sim_time + 1.5)


def test_run_and_run_round_share_scheduler_state():
    """run() must continue from run_round()'s clock and in-flight uploads,
    not silently restart the simulated timeline."""
    train, test = _data()
    simulation = build_fedavg(train, test, _config("deadline"),
                              model_spec=ModelSpec("cnn", {"channels": (4, 8),
                                                           "hidden_size": 16}))
    with simulation:
        first = simulation.run_round(1)
        history = simulation.run(rounds=2)
    times = [record.sim_time for record in history.records]
    assert times == pytest.approx([first.sim_time, first.sim_time + 1.5,
                                   first.sim_time + 3.0])


def test_async_refill_respects_the_sampler():
    """Participation constraints (FixedSampler) must keep holding after the
    first aggregation — refills draw only from sampler-eligible devices."""
    from repro.federated import FixedSampler

    train, test = _data()
    config = _config("async", buffer_size=1)
    simulation = build_fedavg(train, test, config,
                              model_spec=ModelSpec("cnn", {"channels": (4, 8),
                                                           "hidden_size": 16}),
                              sampler=FixedSampler([0, 2]))
    with simulation:
        history = simulation.run(rounds=6)
    trained = {device for record in history for device in record.active_devices}
    assert trained == {0, 2}


# --------------------------------------------------------------------------- #
# Staleness-aware aggregation
# --------------------------------------------------------------------------- #
def test_staleness_weight_discounts_late_uploads():
    scheduler = make_scheduler(SchedulerConfig(kind="deadline", staleness_alpha=0.5))
    assert scheduler.staleness_weight(0) == 1.0
    assert scheduler.staleness_weight(1) == pytest.approx(1 / np.sqrt(2))
    assert scheduler.staleness_weight(3) == pytest.approx(0.5)
    flat = make_scheduler(SchedulerConfig(kind="deadline", staleness_alpha=0.0))
    assert flat.staleness_weight(5) == 1.0


def test_fedavg_server_applies_staleness_weights(tiny_rgb_dataset):
    from repro.baselines.fedavg import FedAvgStrategy
    from repro.models import SimpleCNN

    def fresh_model():
        return SimpleCNN(tiny_rgb_dataset.input_shape, tiny_rgb_dataset.num_classes,
                         channels=(4,), hidden_size=8, seed=0)

    uploads = {0: {k: np.zeros_like(v) for k, v in fresh_model().state_dict().items()},
               1: {k: np.ones_like(v) for k, v in fresh_model().state_dict().items()}}
    initial = fresh_model().state_dict()

    # Equal shard weights; device 1's upload is 1 round stale with weight 0.5.
    # The discount is absolute: the stale upload's lost mass (0.25) stays
    # with the current global -> averaged = 0.5*0 + 0.25*1 + 0.25*global.
    server = FedAvgStrategy(fresh_model(), device_weights={0: 1.0, 1: 1.0})
    meta = {0: UploadMeta(0), 1: UploadMeta(1, staleness=1, weight=0.5)}
    for device_id in (0, 1):
        server.collect(device_id, uploads[device_id], meta=meta[device_id])
    server.server_update(1, [0, 1])
    key = next(iter(uploads[0]))
    np.testing.assert_allclose(server.payload_for(0)[key], 0.25 + 0.25 * initial[key])
    assert server.last_metrics["mean_staleness"] == 0.5


def test_fedavg_lone_stale_upload_cannot_overwrite_global(tiny_rgb_dataset):
    """With a single stale arrival (the common deadline-scheduler case) the
    discount must not renormalize back to full weight."""
    from repro.baselines.fedavg import FedAvgStrategy
    from repro.models import SimpleCNN

    model = SimpleCNN(tiny_rgb_dataset.input_shape, tiny_rgb_dataset.num_classes,
                      channels=(4,), hidden_size=8, seed=0)
    initial = model.state_dict()
    upload = {k: np.ones_like(v) for k, v in initial.items()}
    server = FedAvgStrategy(model, device_weights={1: 3.0})
    meta = {1: UploadMeta(1, staleness=1, weight=0.5)}
    server.collect(1, upload, meta=meta[1])
    server.server_update(1, [1])
    key = next(iter(initial))
    np.testing.assert_allclose(server.payload_for(1)[key], 0.5 + 0.5 * initial[key])


def test_async_buffer_size_must_fit_concurrency():
    train, test = _data()
    config = _config("async", buffer_size=2).with_overrides(participation_fraction=0.25)
    simulation = build_fedavg(train, test, config,
                              model_spec=ModelSpec("cnn", {"channels": (4, 8),
                                                           "hidden_size": 16}))
    with simulation, pytest.raises(ValueError, match="buffer_size"):
        simulation.run()


def test_fedzkt_server_blends_stale_uploads(tiny_rgb_dataset, monkeypatch):
    from repro.core.fedzkt import FedZKTStrategy
    from repro.models import SimpleCNN
    from repro.models.registry import build_generator

    config = _config("sync")
    replica = SimpleCNN(tiny_rgb_dataset.input_shape, tiny_rgb_dataset.num_classes,
                        channels=(4,), hidden_size=8, seed=0)
    global_model = SimpleCNN(tiny_rgb_dataset.input_shape, tiny_rgb_dataset.num_classes,
                             channels=(4,), hidden_size=8, seed=1)
    generator = build_generator(tiny_rgb_dataset.input_shape, noise_dim=16, seed=2)
    server = FedZKTStrategy(global_model, generator, {0: replica}, config)
    # Freeze the distiller so the replica state after server_update() exposes
    # exactly what the staleness blend loaded.
    monkeypatch.setattr(server.distiller, "server_update", lambda models: {})

    before = {key: value.copy() for key, value in replica.state_dict().items()}
    upload = {key: value + 1.0 for key, value in before.items()}
    stale_meta = {0: UploadMeta(0, staleness=1, weight=0.5)}
    server.collect(0, upload, meta=stale_meta[0])
    server.server_update(1, [0])
    key = next(iter(before))
    # replica <- 0.5 * (before + 1) + 0.5 * before = before + 0.5
    np.testing.assert_allclose(replica.state_dict()[key], before[key] + 0.5)
    assert server.last_metrics["mean_staleness"] == 1.0

    # Fresh uploads (weight 1.0) overwrite exactly, as in the sync path.
    server.finish_round()
    server.collect(0, upload, meta=UploadMeta(0))
    server.server_update(2, [0])
    np.testing.assert_allclose(replica.state_dict()[key], upload[key])


# --------------------------------------------------------------------------- #
# Heterogeneity model
# --------------------------------------------------------------------------- #
class TestHeterogeneityModel:
    def test_stateless_keyed_draws(self):
        a = HeterogeneityModel(6, HeterogeneityConfig(speed_skew=3.0, latency_mean=0.2,
                                                      dropout_rate=0.3), seed=9)
        b = HeterogeneityModel(6, HeterogeneityConfig(speed_skew=3.0, latency_mean=0.2,
                                                      dropout_rate=0.3), seed=9)
        for device in range(6):
            for event in (0, 1, 5, 3):  # out-of-order queries
                assert a.duration(device, event) == b.duration(device, event)
                assert a.available(device, event) == b.available(device, event)

    def test_speed_multipliers_span_the_skew(self):
        model = HeterogeneityModel(8, HeterogeneityConfig(speed_skew=4.0), seed=0)
        multipliers = [model.time_multiplier(d) for d in range(8)]
        assert min(multipliers) == pytest.approx(1.0)
        assert max(multipliers) == pytest.approx(4.0)

    def test_homogeneous_fleet_has_unit_multipliers_and_no_latency(self):
        model = HeterogeneityModel(4, HeterogeneityConfig(), seed=0)
        assert [model.time_multiplier(d) for d in range(4)] == [1.0] * 4
        assert model.duration(0, 0) == 1.0
        assert model.duration(2, 7, work_units=2.5) == 2.5
        assert model.filter_available([0, 1, 2], 3) == [0, 1, 2]

    def test_latency_mean_is_respected(self):
        model = HeterogeneityModel(1, HeterogeneityConfig(latency_mean=0.5,
                                                          latency_sigma=0.4), seed=1)
        draws = [model.latency(0, event) for event in range(600)]
        assert all(draw > 0 for draw in draws)
        assert np.mean(draws) == pytest.approx(0.5, rel=0.15)

    def test_dropout_rate_is_respected(self):
        model = HeterogeneityModel(1, HeterogeneityConfig(dropout_rate=0.25), seed=1)
        available = [model.available(0, event) for event in range(800)]
        assert np.mean(available) == pytest.approx(0.75, abs=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            HeterogeneityModel(0)
        with pytest.raises(ValueError):
            HeterogeneityConfig(speed_skew=0.5)
        with pytest.raises(ValueError):
            HeterogeneityConfig(dropout_rate=1.0)
        with pytest.raises(ValueError):
            HeterogeneityConfig(latency_mean=-1.0)


# --------------------------------------------------------------------------- #
# Config + factory plumbing
# --------------------------------------------------------------------------- #
def test_make_scheduler_kinds():
    assert isinstance(make_scheduler(None), SynchronousScheduler)
    assert isinstance(make_scheduler("sync"), SynchronousScheduler)
    assert isinstance(make_scheduler("deadline"), DeadlineScheduler)
    assert isinstance(make_scheduler(SchedulerConfig(kind="async")), AsyncBufferedScheduler)
    with pytest.raises(ValueError):
        make_scheduler("threads")


def test_scheduler_config_validation():
    with pytest.raises(ValueError):
        SchedulerConfig(kind="bogus")
    with pytest.raises(ValueError):
        SchedulerConfig(deadline=0.0)
    with pytest.raises(ValueError):
        SchedulerConfig(buffer_size=0)
    with pytest.raises(ValueError):
        SchedulerConfig(staleness_alpha=-1.0)


def test_config_describe_includes_scheduling_blocks():
    config = _config("deadline")
    described = config.describe()
    assert described["scheduler"] == "deadline"
    assert described["deadline"] == 1.5
    assert described["speed_skew"] == 4.0
    sync = FederatedConfig()
    assert sync.describe()["scheduler"] == "sync"
    assert "speed_skew" not in sync.describe()


def test_backend_run_tasks_as_completed_covers_all_tasks(tiny_rgb_dataset):
    from repro.federated import Device, WorkerContext
    from repro.models import SimpleCNN

    devices = [Device(device_id=i,
                      model=SimpleCNN(tiny_rgb_dataset.input_shape,
                                      tiny_rgb_dataset.num_classes,
                                      channels=(4,), hidden_size=8, seed=i),
                      dataset=tiny_rgb_dataset, batch_size=16, seed=i)
               for i in range(3)]
    context = WorkerContext(models={d.device_id: d.model for d in devices},
                            shards={d.device_id: d.dataset for d in devices},
                            train_configs={d.device_id: d.training_config for d in devices})
    serial = SerialBackend()
    serial.start(context)
    tasks = [d.local_train_task(1, serial.state_store) for d in devices]
    ordered = list(serial.run_tasks_as_completed(tasks))
    assert [index for index, _ in ordered] == [0, 1, 2]

    with ProcessPoolBackend(max_workers=2) as pool:
        pool.start(context)
        tasks = [d.local_train_task(1, pool.state_store) for d in devices]
        pairs = dict(pool.run_tasks_as_completed(tasks))
    assert sorted(pairs) == [0, 1, 2]
    for index, result in pairs.items():
        assert result.device_id == devices[index].device_id


# --------------------------------------------------------------------------- #
# History timeline metrics
# --------------------------------------------------------------------------- #
def test_history_timeline_accessors():
    from repro.federated import RoundRecord, TrainingHistory

    history = TrainingHistory(algorithm="demo")
    history.append(RoundRecord(round_index=1, global_accuracy=0.3, sim_time=1.5))
    history.append(RoundRecord(round_index=2, global_accuracy=0.6, sim_time=3.0))
    assert history.sim_time_curve() == [1.5, 3.0]
    assert history.accuracy_timeline() == [(1.5, 0.3), (3.0, 0.6)]
    assert history.time_to_accuracy(0.5) == 3.0
    assert history.time_to_accuracy(0.9) is None
    assert history.summary()["final_sim_time"] == 3.0
    # Legacy records (no sim_time) fall back to round indices.
    legacy = TrainingHistory(algorithm="legacy")
    legacy.append(RoundRecord(round_index=1, global_accuracy=0.4))
    assert legacy.accuracy_timeline() == [(1.0, 0.4)]
    with pytest.raises(ValueError):
        legacy.accuracy_timeline(metric="bogus")
    # mean-device fallback for algorithms without a global model.
    fedmd_like = TrainingHistory(algorithm="fedmd")
    fedmd_like.append(RoundRecord(round_index=1, device_accuracies={0: 0.2, 1: 0.4},
                                  sim_time=2.0))
    assert fedmd_like.accuracy_timeline() == [(2.0, pytest.approx(0.3))]
