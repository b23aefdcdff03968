"""The four whole-round workloads and how each is built.

Everything here goes through the public builders only (``load_dataset``,
``federated_config_for``, ``build_fedzkt`` / ``build_fedavg`` /
``build_fedmd``, ``make_backend``); ``repro`` is imported inside
:func:`build_simulation` so the driver process never pays for it and the
child can time the import.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: All workloads share the ``mnist`` synthetic data at ``tiny`` scale
#: (600 train / 180 test / 250 public, 16x16, batch 32, 30 distillation
#: iterations, float64).
DATASET = "mnist"
SCALE = "tiny"

#: ``timed_rounds`` below are sized for this many seconds of timed rounds on
#: a 2-vCPU box with BLAS pinned to one thread; ``--seconds`` scales them.
BASE_SECONDS = 15

#: Seeds with a pinned expected history under ``expected/``.  Seed 6 is left
#: out: ``zkt_serial`` overflows to NaN on it, and a diverged run is not a
#: workload on which no operation fails.
PINNED_SEEDS = (0, 1, 2, 3, 4, 5, 7, 8, 9, 10)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    algorithm: str          # fedzkt | fedavg | fedmd
    num_devices: int
    backend: str            # make_backend() spec
    workers: int            # worker processes the backend starts (0 = in-process)
    server_shards: int
    cohort_fusion: bool
    deadline: bool          # deadline scheduler + skewed device speeds
    timed_rounds: int       # after one warm-up round, at BASE_SECONDS

    @property
    def serial(self) -> bool:
        return self.workers == 0

    def reference(self) -> "Workload":
        """The plain single-process form of the same algorithm, devices and
        scheduler: what the pinned histories are generated from, so every
        run re-checks bit-identity across backends, sharding and fusion."""
        return replace(self, backend="serial", workers=0, server_shards=1,
                       cohort_fusion=False)

    @property
    def pinned_rounds(self) -> int:
        """Rounds in a pinned history: the warm-up plus twice the base count."""
        return 1 + 2 * self.timed_rounds

    def rounds_for(self, seconds: float) -> int:
        """Timed rounds for a ``--seconds`` budget (the pinned history caps it)."""
        scaled = round(self.timed_rounds * float(seconds) / BASE_SECONDS)
        return max(1, min(self.pinned_rounds - 1, scaled))


WORKLOADS = {w.name: w for w in (
    Workload(
        name="zkt_serial",
        why=("FedZKT, 5 heterogeneous devices, one process: server_update does ~3/4 of "
             "the round, every per-device loop runs at cohort size 1, transport is idle"),
        algorithm="fedzkt", num_devices=5, backend="serial", workers=0,
        server_shards=1, cohort_fusion=False, deadline=False, timed_rounds=2),
    Workload(
        name="zkt_proc2_sharded",
        why=("FedZKT, 10 devices over process:2 with 2 server shards and fusion: every "
             "Phase-1 iteration dispatches shard tasks and ~36 MB/round crosses _StateService"),
        algorithm="fedzkt", num_devices=10, backend="process:2", workers=2,
        server_shards=2, cohort_fusion=True, deadline=False, timed_rounds=1),
    Workload(
        name="md_tcp2_deadline",
        why=("FedMD, 10 devices over tcp:// with the deadline scheduler: small compute per "
             "round, so repro.net wire cost, as-completed dispatch and deferred absorb show"),
        algorithm="fedmd", num_devices=10, backend="tcp://:0?workers=2", workers=2,
        server_shards=1, cohort_fusion=False, deadline=True, timed_rounds=20),
    Workload(
        name="avg_serial_fused",
        why=("FedAvg, 8 homogeneous devices fused into one B=8 BatchedModule cohort: local "
             "training and evaluation are the round; nn.batched and the buffer pool dominate"),
        algorithm="fedavg", num_devices=8, backend="serial", workers=0,
        server_shards=1, cohort_fusion=True, deadline=False, timed_rounds=7),
)}


def build_simulation(workload: Workload, seed: int, marks=None):
    """Build the workload's simulation; returns ``(simulation, backend)``.

    ``marks``, when given, is called with a label after each set-up stage so
    the caller can timestamp it.
    """
    from repro.baselines.fedavg import build_fedavg
    from repro.baselines.fedmd import build_fedmd
    from repro.core.fedzkt import build_fedzkt
    from repro.datasets.registry import dataset_family, load_dataset, public_dataset_for
    from repro.experiments.configs import federated_config_for, get_scale
    from repro.federated.backend import make_backend
    from repro.federated.config import HeterogeneityConfig, SchedulerConfig
    from repro.federated.heterogeneity import HeterogeneityModel

    mark = marks or (lambda label: None)
    mark("import")
    scale = get_scale(SCALE)
    family = dataset_family(DATASET)
    scheduler = heterogeneity = None
    if workload.deadline:
        scheduler = SchedulerConfig(kind="deadline", deadline=1.5)
        heterogeneity = HeterogeneityConfig(speed_skew=4.0, latency_mean=0.1)
    config = federated_config_for(
        scale, family, num_devices=workload.num_devices, seed=seed,
        server_shards=workload.server_shards, scheduler=scheduler,
        heterogeneity=heterogeneity, cohort_fusion=workload.cohort_fusion)
    train, test = load_dataset(DATASET, train_size=scale.train_size,
                               test_size=scale.test_size,
                               image_size=scale.image_size, seed=seed)
    public = None
    if workload.algorithm == "fedmd":
        public = public_dataset_for(DATASET, size=scale.public_size,
                                    image_size=scale.image_size, seed=seed + 321)
    mark("load_dataset")
    backend = make_backend(workload.backend)
    if workload.algorithm == "fedzkt":
        simulation = build_fedzkt(train, test, config, family=family, backend=backend)
    elif workload.algorithm == "fedavg":
        simulation = build_fedavg(train, test, config, backend=backend)
    else:
        simulation = build_fedmd(train, test, public, config, family=family,
                                 backend=backend)
    if workload.deadline:
        # Which devices straggle is part of the workload, not of the seed:
        # every seed runs the same arrival pattern on different data.
        simulation.heterogeneity = HeterogeneityModel(
            workload.num_devices, config.heterogeneity, seed=0)
    mark("build")
    return simulation, backend
