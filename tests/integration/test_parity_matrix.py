"""One parity matrix: every execution mode replays the same history.

The house invariant is that how a run executes — backend, server shards,
cohort fusion, tile width, a scratch arena poisoned at release — never
changes what it computes.  Each row below names one algorithm on one
population under one scheduler, plus the modes it runs under; its oracle is
the same run with every mode off (``serial``, one shard, no fusion) and the
evaluate-everything loop the per-round evaluation dedup replaced.  A row
must replay its oracle's full history and post-run device RNG states bit
for bit, and must show from the tasks it dispatched that its mode fired
(``test_row``).  A row and its oracle run for ``rounds(row)`` rounds.

Oracles are computed once per configuration and cached for the session.
Each must evaluate every device every round; on the golden configurations
it is held to ``tests/fixtures/golden``, on partial participation to the
hand-written round loop below (``test_oracle``).

To add a row, append a ``Row`` to ``ROWS``: fields left out take the
oracle's value.  ``PYTHONPATH=src python -m pytest
tests/integration/test_parity_matrix.py -q`` runs the matrix.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from typing import NamedTuple, Optional, Tuple, Union

import numpy as np
import pytest
from test_golden_history import GOLDEN_DIR, _assert_numerically_equal, _config, _data, _public

from repro.baselines import build_fedavg, build_fedmd, build_fedprox
from repro.core import build_fedzkt
from repro.federated import (
    ExecutionBackend,
    HeterogeneityConfig,
    SchedulerConfig,
    SerialBackend,
    Simulation,
    make_backend,
)
from repro.models import ModelSpec, build_model
from repro.nn import batched, scratch_pool, using_numeric_policy

PROX_MU = 0.05
_CNN = {"channels": (4, 8), "hidden_size": 16}
_LENET = {"conv_channels": (4, 8), "fc_sizes": (16,)}


class Population(NamedTuple):
    spec: Union[None, ModelSpec, Tuple[ModelSpec, ...]]  # None: the ``small`` family;
    #                                                     a tuple: one spec per device
    train_size: int = 160      # of the golden training set: 160 / 4 devices is 40 each
    devices: int = 4


POPULATIONS = {
    "small": Population(None),
    "cnn": Population(ModelSpec("cnn", _CNN)),
    "dropout": Population(ModelSpec("cnn", {**_CNN, "dropout": 0.25})),
    # 130 samples shard as 33, 33, 32, 32: shard size splits the cohort in two.
    "fc": Population(ModelSpec("fc", {"hidden_sizes": (24,)}), train_size=130),
    # A cohort of eight, 20 samples each: at a forced width of 3 it runs as 3 + 3 + 2.
    "cnn8": Population(ModelSpec("cnn", _CNN), devices=8),
    # ShuffleNetV2 and MobileNetV2 have no ``fusion_layers()``: under fusion
    # they run per device beside a fused LeNet pair.
    "mixed": Population((
        ModelSpec("shufflenetv2", {"net_size": 0.5, "stage_channels": (8, 16)}),
        ModelSpec("mobilenetv2", {"width_multiplier": 0.5, "stage_channels": (8, 16, 16)}),
        ModelSpec("lenet", _LENET), ModelSpec("lenet", _LENET))),
}


@dataclass(frozen=True)
class Row:
    algorithm: str
    population: str
    scheduler: str = "sync"
    participation: float = 1.0
    backend: str = "serial"
    shards: int = 1
    fusion: bool = False
    tile: Optional[int] = None  # forced cohort tile width
    policy: str = "float64"
    poison: bool = False

    @property
    def oracle(self) -> "Row":
        return Row(self.algorithm, self.population, self.scheduler, self.participation,
                   policy=self.policy)

    def __str__(self) -> str:
        default = Row(self.algorithm, self.population)
        return "-".join([self.algorithm, self.population] + [
            f"{field.name}={getattr(self, field.name)}" for field in fields(self)[2:]
            if getattr(self, field.name) != getattr(default, field.name)])


#: The golden configurations (``tests/fixtures/golden/<algorithm>.json``) and
#: the rounds each fixture holds, which their configs record.
GOLDEN = {Row("fedzkt", "small"): 3, Row("fedavg", "cnn"): 3, Row("fedmd", "small"): 2}


def rounds(row: Row) -> int:
    """How long ``row`` and its oracle run: under a deadline or a buffer, four
    rounds, so that the slowest device's upload lands two or more rounds
    stale; on a golden configuration, its fixture's rounds; otherwise two."""
    if row.scheduler != "sync":
        return 4
    return GOLDEN.get(row.oracle, 2)


class Outcome(NamedTuple):
    history: dict      # ``history.to_dict()`` less the keys that name the mode
    rng_states: list   # each device's generator state after the run
    tasks: Counter     # dispatched tasks by type (a cohort as ``Cohort[<member type>]``),
    #                    plus "evaluations", "widest", "tiles"


# --------------------------------------------------------------------------- #
# The builder
# --------------------------------------------------------------------------- #
def _count_dispatches(backend: ExecutionBackend) -> Counter:
    """Count what ``backend`` is handed to run, by task type; a cohort counts
    as ``Cohort[<member type>]``.  ``evaluations`` counts devices evaluated
    (a cohort counts its members) and ``widest`` is the largest cohort."""
    counts = Counter()

    def counted(dispatch):
        def run(tasks):
            for task in tasks:
                members = getattr(task, "members", [task])
                kind = type(members[0]).__name__
                counts[kind if members[0] is task else f"Cohort[{kind}]"] += 1
                counts["evaluations"] += len(members) if kind == "EvaluateTask" else 0
                if members[0] is not task:
                    counts["widest"] = max(counts["widest"], len(members))
            return dispatch(tasks)
        return run

    backend.run_tasks = counted(backend.run_tasks)
    # The base class's as-completed runs through run_tasks: count it once.
    if type(backend).run_tasks_as_completed is not ExecutionBackend.run_tasks_as_completed:
        backend.run_tasks_as_completed = counted(backend.run_tasks_as_completed)
    return counts


@contextmanager
def _count_tiles(counts: Counter):
    """Count in ``counts["tiles"]`` the tiles this process runs cohorts as:
    every site that stacks a cohort asks ``batched.tile_width`` for its width."""
    width_of = batched.tile_width

    def counted(template, cohort_size, batch_shape):
        width = width_of(template, cohort_size, batch_shape)
        counts["tiles"] += -(-cohort_size // width)
        return width

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(batched, "tile_width", counted)
        yield


@functools.lru_cache(maxsize=None)
def _datasets():
    """The golden fixtures' train, test and public sets, made once and shared
    by every run: read-only, so that a run writing into one raises."""
    datasets = (*_data(), _public())
    for dataset in datasets:
        dataset.images.flags.writeable = dataset.labels.flags.writeable = False
    return datasets


def _simulation(row: Row, backend: ExecutionBackend) -> Simulation:
    train, test, public = _datasets()
    population = POPULATIONS[row.population]
    train = train.subset(range(population.train_size))
    base = _config(rounds(row))
    config = replace(
        base, num_devices=population.devices, participation_fraction=row.participation,
        cohort_fusion=row.fusion, numeric_policy=row.policy,
        prox_mu=PROX_MU if row.algorithm == "fedprox" else 0.0,
        server=replace(base.server, server_shards=row.shards),
        scheduler=SchedulerConfig(kind=row.scheduler),  # deadline 1.5, buffer of 2
        heterogeneity=(HeterogeneityConfig(speed_skew=4.0, latency_mean=0.1)
                       if row.scheduler != "sync" else HeterogeneityConfig()))
    if row.algorithm in ("fedavg", "fedprox"):
        builder = build_fedprox if row.algorithm == "fedprox" else build_fedavg
        extra = {"prox_mu": PROX_MU} if row.algorithm == "fedprox" else {}
        return builder(train, test, config, model_spec=population.spec, backend=backend,
                       **extra)
    specs = (population.spec if isinstance(population.spec, tuple)
             else (population.spec,) * config.num_devices)
    models = ({"family": "small"} if population.spec is None else {"device_models": [
        build_model(spec, train.input_shape, train.num_classes, seed=config.seed + index)
        for index, spec in enumerate(specs)]})
    if row.algorithm == "fedmd":
        return build_fedmd(train, test, public, config, backend=backend, **models)
    return build_fedzkt(train, test, config, backend=backend, **models)


def _plain(payload):
    """``payload`` with JSON's types (string keys, floats), as the fixtures hold it."""
    return json.loads(json.dumps(payload, default=float))


def run(row: Row, backend: Optional[ExecutionBackend] = None,
        tasks: Optional[Counter] = None) -> Outcome:
    """``row`` run for ``rounds(row)`` on ``backend`` (a fresh serial one if
    None); ``tasks`` is the counter already wrapped around ``backend``."""
    if backend is None:
        backend = SerialBackend()
        tasks = _count_dispatches(backend)
    tasks.clear()
    with using_numeric_policy(row.policy), _count_tiles(tasks), \
            _simulation(row, backend) as simulation:
        history = _plain(simulation.run().to_dict())
        assert history["config"].pop("cohort_fusion", False) == row.fusion
        assert history["config"].pop("server_shards", 1) == row.shards
        return Outcome(history, [device._rng.bit_generator.state
                                 for device in simulation.devices], Counter(tasks))


# --------------------------------------------------------------------------- #
# The oracle
# --------------------------------------------------------------------------- #
def _evaluate_everything(self, record):
    """The evaluate-everything loop the per-round dedup replaced."""
    tasks = [device.evaluate_task(self.state_store) for device in self.devices]
    for device, accuracy in zip(self.devices, self.run_device_tasks(tasks)):
        record.device_accuracies[device.device_id] = accuracy


def _reference_parameter_round(simulation, round_index):
    """The synchronous FedZKT / FedAvg round as a hand-written loop, kept as
    the independent check of partial participation (the golden fixtures pin
    full participation only)."""
    simulation.ensure_backend()
    active = simulation.sampler.sample(round_index, len(simulation.devices))
    epochs, store = simulation.config.local_epochs, simulation.state_store
    tasks = [simulation.devices[device_id].local_train_task(epochs, store)
             for device_id in active]
    strategy = simulation.strategy
    local_losses = []
    for result in simulation.backend.run_tasks(tasks):
        device = simulation.devices[result.device_id]
        local_losses.append(device.absorb_training_result(result).mean_loss)
        strategy.collect(device.device_id, device.send_parameters())
    strategy.server_update(round_index, active)
    for device in simulation.devices:
        payload = strategy.payload_for(device.device_id)
        if payload is not None:
            device.receive_parameters(payload)
    strategy.finish_round()
    accuracies = simulation.backend.run_tasks(
        [device.evaluate_task(store) for device in simulation.devices])
    return {"active_devices": list(active),
            "local_loss": float(np.mean(local_losses)) if local_losses else None,
            "global_accuracy": strategy.evaluate_global(simulation.test_dataset),
            "device_accuracies": {str(device.device_id): accuracy
                                  for device, accuracy in zip(simulation.devices, accuracies)}}


@pytest.fixture(scope="session")
def oracle():
    """``oracle(row)``: the cached all-modes-off run of ``row``'s configuration."""
    cache = {}

    def fetch(row: Row) -> Outcome:
        key = row.oracle
        if key not in cache:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(Simulation, "_evaluate_devices", _evaluate_everything)
                cache[key] = run(key)
        return cache[key]
    return fetch


@pytest.fixture(scope="module")
def backends():
    """``backends(spec)``: one started backend per spec, shared by every row of
    the module and shut down here even when a row fails."""
    started = {}

    def get(spec: str):
        if spec not in started:
            backend = make_backend(spec)
            started[spec] = (backend, _count_dispatches(backend))
        return started[spec]
    yield get
    for backend, _ in started.values():
        backend.shutdown()


# --------------------------------------------------------------------------- #
# The rows
# --------------------------------------------------------------------------- #
P2, TCP = "process:2", "tcp://:0?workers=2"
_FUSABLE = {"cnn", "cnn8", "dropout", "fc", "mixed"}


def _grid(base: Row, **axes) -> list:
    rows = [base]
    for name, values in axes.items():
        rows = [replace(row, **{name: value}) for row in rows for value in values]
    return rows


ROWS = list(dict.fromkeys([  # in order, once each: the grids below overlap
    # FedZKT on the heterogeneous family: nothing fuses, everything shards.
    *_grid(Row("fedzkt", "small"), backend=[P2, TCP]),
    Row("fedzkt", "small", shards=2, backend=P2),
    Row("fedzkt", "small", scheduler="deadline"),
    Row("fedzkt", "small", scheduler="deadline", shards=3),
    Row("fedzkt", "small", scheduler="async"),
    Row("fedzkt", "small", participation=0.5),
    # FedAvg / FedProx on one architecture: fusion, tiles, unequal shards.
    *_grid(Row("fedavg", "cnn"), backend=["serial", P2, TCP]),
    *_grid(Row("fedavg", "cnn", fusion=True), tile=[None, 1, 3]),
    Row("fedavg", "cnn8", fusion=True, tile=3),
    Row("fedavg", "cnn", fusion=True, backend=P2),
    Row("fedavg", "cnn", participation=0.5),
    Row("fedavg", "cnn", scheduler="async"),
    Row("fedavg", "cnn", scheduler="async", backend=P2),
    Row("fedavg", "cnn", scheduler="async", fusion=True),
    Row("fedprox", "cnn", fusion=True),
    Row("fedavg", "dropout", fusion=True),
    # A Dropout layer's mask stream travels with the task: whichever worker
    # trains a device, its masks are the serial run's.
    Row("fedavg", "dropout", backend=P2),
    Row("fedavg", "fc", fusion=True),
    Row("fedprox", "fc", fusion=True),
    # Unfusable architectures fall back per device beside a fused pair.
    *[Row(algorithm, "mixed", fusion=True) for algorithm in ("fedzkt", "fedmd")],
    # FedMD: heterogeneous digests fall back, homogeneous ones fuse.
    *_grid(Row("fedmd", "small"), backend=[P2, TCP]),
    *_grid(Row("fedmd", "small"), scheduler=["deadline", "async"]),
    *_grid(Row("fedmd", "cnn", fusion=True), tile=[1, 3]),
    # FedZKT on one architecture: its server phases stack the shard's models
    # with fusion on or off, and stack nothing at one device per shard.
    *_grid(Row("fedzkt", "cnn", fusion=True), shards=[1, 2], tile=[None, 1, 3]),
    Row("fedzkt", "cnn", shards=4),
    Row("fedzkt", "cnn", fusion=True, shards=2, backend=P2),
    Row("fedzkt", "dropout", backend=P2),
    # Evaluation dedup: every algorithm x sync/deadline x fusion x backend.
    *[row for algorithm in ("fedavg", "fedmd", "fedzkt")
      for row in _grid(Row(algorithm, "cnn"), scheduler=["sync", "deadline"],
                       fusion=[False, True], backend=["serial", P2])],
    # On an arena that NaN-fills each buffer as it is released, a read of
    # released storage fails instead of passing by luck.
    *[Row("fedzkt", "small", poison=True, **modes)
      for modes in ({}, {"shards": 2}, {"fusion": True})],
    *_grid(Row("fedmd", "small", poison=True), fusion=[False, True]),
    *_grid(Row("fedavg", "cnn", poison=True), fusion=[False, True]),
    # float32: outside the golden fixtures, inside the bitwise contract.
    *[row for algorithm in ("fedavg", "fedmd", "fedzkt")
      for row in (Row(algorithm, "cnn", fusion=True, policy="float32"),
                  Row(algorithm, "cnn", backend=P2, policy="float32"))],
    Row("fedzkt", "cnn", shards=2, policy="float32"),
    *[Row(algorithm, "small", policy="float32", **modes) for algorithm in ("fedmd", "fedzkt")
      for modes in ({"fusion": True}, {"backend": P2})],
    Row("fedzkt", "small", fusion=True, backend=P2, shards=2, policy="float32"),
]))
# A poisoned row checks all that its ordinary twin does: run only the first.
ROWS = [row for row in ROWS if row.poison or replace(row, poison=True) not in ROWS]
assert all(row.backend == "serial" for row in ROWS if row.tile or row.poison), (
    "a forced width and a poisoned arena reach this process only, not a pool's workers")


#: Every configuration a row is compared under, the golden ones first.
ORACLES = list(dict.fromkeys([*GOLDEN, *(row.oracle for row in ROWS)]))


@pytest.mark.parametrize("config", ORACLES, ids=str)
def test_oracle(config, oracle):
    """The oracle evaluated every device every round, and holds to the
    golden fixture or the hand-written round loop where there is one."""
    expected = oracle(config)
    devices = expected.history["config"]["num_devices"]
    assert len(expected.history["rounds"]) == rounds(config)
    assert expected.tasks["evaluations"] == devices * rounds(config)
    if config in GOLDEN:
        fixture = GOLDEN_DIR / f"{config.algorithm}.json"
        _assert_numerically_equal(expected.history,
                                  json.loads(fixture.read_text(encoding="utf-8")))
    if config.participation < 1.0:
        with _simulation(config, SerialBackend()) as simulation:
            reference = [_reference_parameter_round(simulation, index)
                         for index in range(1, rounds(config) + 1)]
        assert [{key: record[key] for key in reference[0]}
                for record in expected.history["rounds"]] == reference


def _assert_mode_fired(row: Row, outcome: Outcome, expected: Outcome) -> None:
    """What ``row``'s dispatched tasks and history show of the modes it turns on."""
    tasks = outcome.tasks
    fused = {name for name in tasks if name.startswith("Cohort[")}
    if row.fusion and row.population in _FUSABLE:
        # Every per-device phase fuses: training, FedMD's logit sweep, and the
        # evaluation of devices that hold states of their own.
        assert fused >= {"Cohort[LocalTrainTask]"} | {
            "fedmd": {"Cohort[PublicLogitsTask]", "Cohort[EvaluateTask]"},
            "fedzkt": {"Cohort[EvaluateTask]"}}.get(row.algorithm, set())
        if row.population == "fc":
            # Only equal shards fuse: 33 + 33 and 32 + 32, two pairs a round.
            assert tasks["Cohort[LocalTrainTask]"] == 2 * rounds(row)
            assert tasks["widest"] == 2
        if row.population == "mixed":
            # ShuffleNetV2 and MobileNetV2 train alone beside each round's
            # LeNet pair, and beside FedMD's warm-up pair before round one.
            trainings = rounds(row) + (row.algorithm == "fedmd")
            assert tasks["Cohort[LocalTrainTask]"] == trainings and tasks["widest"] == 2
            assert tasks["LocalTrainTask"] == 2 * trainings
    else:
        assert not fused
    if row.tile is not None:
        assert tasks["widest"] > row.tile
    if row.population == "cnn8" and row.fusion:
        # One cohort a round carries all eight; width 3 runs it as 3 + 3 + 2.
        assert tasks["Cohort[LocalTrainTask]"] == rounds(row) and tasks["widest"] == 8
        assert tasks["tiles"] == 3 * rounds(row)
    if row.algorithm == "fedzkt" and row.population == "cnn" and not row.fusion \
            and row.backend == "serial":
        # The server phases stack a shard's same-architecture models without
        # the flag (the one-shard oracle's four CNNs), and nothing at one
        # device per shard: only they can have asked for tiles here.
        assert expected.tasks["tiles"] > 0
        assert (tasks["tiles"] > 0) == (row.shards < POPULATIONS[row.population].devices)
    # The server update is shard tasks at every shard count: each of a
    # FedZKT row's dispatches splits into ``row.shards`` tasks where its
    # one-shard oracle's makes one.  No other algorithm dispatches any.
    shard_tasks = ("EnsembleForwardTask", "EnsembleVJPTask", "DeviceDistillTask")
    if row.algorithm == "fedzkt":
        assert all(expected.tasks[name] for name in shard_tasks)
        assert all(tasks[name] == row.shards * expected.tasks[name] for name in shard_tasks)
    else:
        assert not any(tasks[name] for name in shard_tasks)
    if row.scheduler != "sync":
        # Some round aggregates an upload two or more rounds stale: its
        # staleness sums past the count of late uploads.
        assert any(metrics["mean_staleness"] * metrics["aggregated_uploads"]
                   > metrics["late_uploads"] for metrics in
                   (record["server_metrics"] for record in outcome.history["rounds"]))
    if row.scheduler == "deadline":
        # Late devices keep last round's state: their evaluations carry over.
        assert 0 < tasks["evaluations"] < expected.tasks["evaluations"]
    elif row.scheduler == "sync" and row.algorithm in ("fedavg", "fedprox"):
        # Every device holds the broadcast global, already evaluated.
        assert tasks["EvaluateTask"] == tasks["Cohort[EvaluateTask]"] == 0
    elif row.scheduler == "sync" and row.participation == 1.0:
        # FedMD and FedZKT move every device to a state of its own.
        assert tasks["evaluations"] == expected.tasks["evaluations"]


@pytest.mark.parametrize("row", [
    pytest.param(row, id=str(row), marks=[pytest.mark.net] if "tcp" in row.backend else [])
    for row in ROWS])
def test_row(row, oracle, backends, request):
    expected = oracle(row)  # before a forced width or a poisoned arena applies
    if row.tile is not None:
        request.getfixturevalue("force_tile_width")(row.tile)
    if row.poison:
        pool = request.getfixturevalue("poisoned_pool")
    if row.backend == "serial":
        outcome = run(row)
    else:
        backend, tasks = backends(row.backend)
        outcome = run(row, backend, tasks)
        # One pool for every row on it: a new context is republished, not respawned.
        assert backend.server_starts == 1
    if row.poison:
        assert scratch_pool() is pool and pool.stats()["acquires"] > 0
    _assert_mode_fired(row, outcome, expected)
    assert outcome.history == expected.history
    assert outcome.rng_states == expected.rng_states
