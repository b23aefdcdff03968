"""The paper's experiments: one single-run builder, one table of rows, one runner.

A single federated run is :func:`run_algorithm` ``(algorithm, dataset,
**knobs)``, which ``repro run`` calls.  For the built-in algorithms it is
:func:`_single_run`: resolve the scale, build the config, load and partition
the data, build the algorithm's :class:`~repro.federated.Simulation` and run
it, all under the run's numeric policy.  A row that needs more than the
history passes ``use=`` and gets the built simulation instead: Fig. 2's
gradient probe, the compute split, Table III's bounds and the
fresh-generator ablation.

Every table and figure of the paper is one :class:`Experiment` row of
:data:`EXPERIMENTS`.  A row declares its settable fields and their defaults,
the variants those fields expand to, the metric each variant reports, the
paper's claims as named predicates over the metrics, and a text rendering.
:func:`run_experiment` expands a row, fans its variants out through an
:class:`~repro.federated.backend.ExecutionBackend` and writes
``manifest.json``, ``metrics.jsonl`` and ``summary.json`` under
``<output_dir>/<name>/``.  Nothing in those files is hand-edited.
"""

from __future__ import annotations

import json
import time
import traceback
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..baselines.fedavg import build_fedavg, build_fedprox
from ..baselines.fedmd import build_fedmd
from ..baselines.standalone import build_standalone, compute_bounds
from ..core.fedzkt import build_fedzkt
from ..core.gradient_probe import GradientNormProbe
from ..datasets.registry import (
    PUBLIC_DATASET_PAIRS,
    dataset_family,
    load_dataset,
    public_dataset_for,
)
from ..federated.backend import ExecutionBackend, SerialBackend
from ..federated.config import HeterogeneityConfig, SchedulerConfig
from ..federated.history import TrainingHistory
from ..federated.metrics import resource_split_summary
from ..models.registry import build_generator, device_specs_for_family
from ..nn.policy import using_numeric_policy
from ..partition import make_partitioner
from .configs import ExperimentScale, federated_config_for, get_scale
from .reporting import format_percent, format_series, format_table, format_timeline

__all__ = [
    "ALGORITHM_RUNNERS",
    "register_algorithm_runner",
    "run_algorithm",
    "Claim",
    "Variant",
    "Experiment",
    "ExperimentError",
    "EXPERIMENTS",
    "run_experiment",
]


def _resolve_scale(scale) -> ExperimentScale:
    return scale if isinstance(scale, ExperimentScale) else get_scale(str(scale))


def _given(**values) -> Dict[str, object]:
    """The keyword arguments that were set (``None`` stands for the default)."""
    return {key: value for key, value in values.items() if value is not None}


# --------------------------------------------------------------------------- #
# One single-run builder
# --------------------------------------------------------------------------- #
def _single_run(algorithm: str, dataset_name: str, use: Optional[Callable] = None, *,
                scale="tiny", partition: Tuple[str, Dict] = ("iid", {}), seed: int = 0,
                num_devices: Optional[int] = None, participation_fraction: float = 1.0,
                prox_mu: float = 0.0, distillation_loss: str = "sl",
                rounds: Optional[int] = None, public_choice: Optional[str] = None,
                digest_epochs: Optional[int] = None, scheduler: Optional[str] = None,
                deadline: Optional[float] = None, buffer_size: Optional[int] = None,
                speed_skew: Optional[float] = None, latency_mean: Optional[float] = None,
                dropout_rate: Optional[float] = None, server_shards: Optional[int] = None,
                cohort_fusion: bool = False, numeric_policy: str = "float64",
                backend: Optional[ExecutionBackend] = None, verbose: bool = False):
    """Build one run of a built-in algorithm, run it, and return its history.

    ``use(simulation, train, family)`` replaces the plain ``simulation.run``
    when a row needs the built simulation; its result is returned instead.
    FedMD gets the paper's public dataset (``public_choice`` overrides the
    pairing); FedAvg with ``prox_mu > 0`` is FedProx.  ``public_choice`` and
    ``digest_epochs`` apply to FedMD only and a non-default
    ``distillation_loss`` to FedZKT only; elsewhere they raise
    ``ValueError``.  Scheduler and sharding knobs a strategy does not
    support are rejected by the config's strategy validation.  Build and
    run both happen under ``numeric_policy``, so every parameter, activation
    and optimizer slot carries its dtype; process-pool workers take the
    policy from the worker context.
    """
    if algorithm != "fedmd" and (public_choice is not None or digest_epochs is not None):
        raise ValueError(f"public_choice and digest_epochs only apply to fedmd, "
                         f"not {algorithm!r}")
    if algorithm != "fedzkt" and distillation_loss != "sl":
        raise ValueError(f"distillation_loss only applies to fedzkt, not {algorithm!r}")
    scale = _resolve_scale(scale)
    family = dataset_family(dataset_name)
    config = federated_config_for(
        scale, family, num_devices=num_devices, participation_fraction=participation_fraction,
        prox_mu=prox_mu, distillation_loss=distillation_loss, seed=seed, rounds=rounds,
        server_shards=server_shards if server_shards is not None else 1,
        scheduler=SchedulerConfig(**_given(kind=scheduler, deadline=deadline,
                                           buffer_size=buffer_size)),
        heterogeneity=HeterogeneityConfig(**_given(speed_skew=speed_skew,
                                                   latency_mean=latency_mean,
                                                   dropout_rate=dropout_rate)),
        cohort_fusion=cohort_fusion, numeric_policy=numeric_policy)
    public = None
    with using_numeric_policy(config.numeric_policy):
        train, test = load_dataset(dataset_name, train_size=scale.train_size,
                                   test_size=scale.test_size, image_size=scale.image_size,
                                   seed=seed)
        partitioner = make_partitioner(partition[0], config.num_devices, seed=seed,
                                       **partition[1])
        common = dict(partitioner=partitioner, backend=backend)
        if algorithm == "fedzkt":
            simulation = build_fedzkt(train, test, config, family=family, **common)
        elif algorithm == "fedmd":
            public = public_dataset_for(dataset_name, choice=public_choice,
                                        size=scale.public_size, image_size=scale.image_size,
                                        seed=seed + 321)
            simulation = build_fedmd(train, test, public, config, family=family,
                                     digest_epochs=digest_epochs, **common)
        elif algorithm == "standalone":
            simulation = build_standalone(train, test, config, family=family, **common)
        elif algorithm == "fedavg" and prox_mu > 0:
            simulation = build_fedprox(train, test, config, prox_mu=prox_mu, **common)
        elif algorithm == "fedavg":
            simulation = build_fedavg(train, test, config, **common)
        else:
            raise ValueError(f"no built-in single run for algorithm {algorithm!r}")
        result = simulation.run(verbose=verbose) if use is None else use(simulation, train, family)
    if isinstance(result, TrainingHistory):
        result.config["dataset"] = dataset_name
        result.config["partition"] = f"{partition[0]}{partition[1] or ''}"
        if public is not None:
            result.config["public_dataset"] = public.name
    return result


#: Strategy-registry-name → single-run entry point; the CLI's
#: ``repro run --algorithm`` dispatches through this.  Plugins registered
#: with :func:`repro.federated.strategies.register_strategy` become CLI-
#: runnable by attaching a runner via :func:`register_algorithm_runner`.
ALGORITHM_RUNNERS: Dict[str, Callable[..., TrainingHistory]] = {
    name: partial(_single_run, name) for name in ("fedzkt", "fedavg", "fedmd", "standalone")
}


def register_algorithm_runner(name: str, runner: Callable[..., TrainingHistory], *,
                              replace: bool = False) -> Callable[..., TrainingHistory]:
    """Attach a single-run entry point to a registered strategy name.

    ``runner(dataset_name, **kwargs)`` should accept the knobs of the
    built-in runners that apply to it (``scale``, ``seed``, ``rounds``,
    ``backend``, ``verbose``, ...) and return a :class:`TrainingHistory`.
    Once attached, the strategy is runnable via :func:`run_algorithm` and
    ``repro run --algorithm <name>``.
    """
    if not replace and name in ALGORITHM_RUNNERS:
        raise ValueError(f"algorithm runner {name!r} is already registered; "
                         "pass replace=True to override")
    ALGORITHM_RUNNERS[name] = runner
    return runner


def run_algorithm(algorithm: str, dataset_name: str, **knobs) -> TrainingHistory:
    """Run any algorithm with a registered runner by strategy name.

    Capability violations (unsupported scheduler kind, ``server_shards``
    on a strategy without a shardable server phase) surface as
    ``ValueError`` from the config's strategy validation.
    """
    if algorithm not in ALGORITHM_RUNNERS:
        from ..federated.strategies import strategy_names

        if algorithm in strategy_names():
            raise ValueError(
                f"strategy {algorithm!r} is registered but has no single-run "
                "entry point; attach one with repro.experiments.runner."
                "register_algorithm_runner, or drive it from Python via "
                "repro.federated.Simulation")
        raise ValueError(f"unknown algorithm {algorithm!r}; "
                         f"choose from {sorted(ALGORITHM_RUNNERS)}")
    return ALGORITHM_RUNNERS[algorithm](dataset_name, **knobs)


# --------------------------------------------------------------------------- #
# Uses of a built simulation (module-level, so variants pickle to workers)
# --------------------------------------------------------------------------- #
def _probe_gradients(simulation, train, family) -> TrainingHistory:
    """Fig. 2: measure the three losses' input-gradient norms after every round."""
    server, config = simulation.server, simulation.config
    simulation.round_callback = GradientNormProbe(
        server.global_model, list(server.device_models.values()), server.generator,
        batch_size=min(32, config.server.batch_size), seed=config.seed + 99)
    return simulation.run()


def _compute_split(simulation, train, family) -> Dict[str, object]:
    """Train, then count the parameter-gradient work done on each side."""
    simulation.run()
    return resource_split_summary(simulation.devices, simulation.server.server_parameter_updates,
                                  rounds=simulation.config.rounds,
                                  local_epochs=simulation.config.local_epochs)


def _bounds(simulation, train, family, bound_epochs: Optional[int] = None) -> List[Dict]:
    """Table III: each device's architecture trained on its own shard
    (lower bound) and on everyone's data (upper bound), untouched by the run."""
    config, devices = simulation.config, simulation.devices
    epochs = bound_epochs if bound_epochs is not None else max(1, config.local_epochs
                                                               * config.rounds)
    specs = device_specs_for_family(family, len(devices))
    bounds = compute_bounds([device.model for device in devices],
                            [device.dataset for device in devices], train,
                            simulation.test_dataset, epochs=epochs, lr=config.device_lr,
                            batch_size=config.batch_size, seed=config.seed,
                            labels=[spec.describe() for spec in specs])
    return [bound.as_dict() for bound in bounds]


def _fresh_generator(simulation, train, family) -> TrainingHistory:
    """Back-transfer (Eq. 8) from a fresh, untrained generator instead of
    the one trained adversarially in the device→global phase."""
    distiller = simulation.server.distiller
    fresh = build_generator(train.input_shape, noise_dim=simulation.config.server.noise_dim,
                            seed=999)
    transfer = distiller.transfer_to_devices

    def transfer_from_fresh(device_models, iterations=None):
        trained, distiller.generator = distiller.generator, fresh
        try:
            return transfer(device_models, iterations)
        finally:
            distiller.generator = trained

    distiller.transfer_to_devices = transfer_from_fresh
    return simulation.run()


# --------------------------------------------------------------------------- #
# Per-variant metrics
# --------------------------------------------------------------------------- #
def headline_accuracy(history: TrainingHistory) -> float:
    """The paper reports the best accuracy reached: the global model's if
    there is one, otherwise the mean on-device accuracy (FedMD has none)."""
    best_global = history.best_global_accuracy()
    return best_global if best_global is not None else history.best_mean_device_accuracy()


def _global_curve(history: TrainingHistory) -> Dict[str, List]:
    return {"rounds": history.rounds(), "accuracy": history.global_accuracy_curve()}


def _mean_device_curve(history: TrainingHistory) -> Dict[str, List]:
    return {"rounds": history.rounds(), "accuracy": history.mean_device_accuracy_curve()}


_LOSSES = ("kl", "l1", "sl")


def _gradient_norms(history: TrainingHistory) -> Dict[str, List[float]]:
    return {name: history.server_metric_curve(f"grad_norm_{name}") for name in _LOSSES}


def _device_curves(history: TrainingHistory) -> Dict[str, Dict[int, object]]:
    return {"curves": {device_id: history.device_accuracy_curve(device_id)
                       for device_id in range(history.config["num_devices"])},
            "final": history.final_device_accuracies()}


def _schedule(history: TrainingHistory) -> Dict[str, object]:
    staleness = history.server_metric_curve("mean_staleness")
    return {"best_accuracy": headline_accuracy(history),
            "final_sim_time": history.records[-1].sim_time if len(history) else None,
            "mean_staleness": float(np.mean(staleness)) if staleness else 0.0,
            "timeline": history.accuracy_timeline()}


def _identity(result):
    return result


# --------------------------------------------------------------------------- #
# Rows
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Claim:
    """A shape the paper claims, as a named predicate over a row's metrics.

    ``measure(metrics, fields)`` returns the numbers the claim compares
    (``None`` when the run does not contain them); ``holds(numbers)``
    decides.  ``benchmarks/test_paper_claims.py`` asserts the ``asserted``
    claims; the others are recorded in ``summary.json`` only.
    """

    name: str
    text: str
    measure: Callable[[Dict[str, object], Dict[str, object]], Optional[Dict[str, object]]]
    holds: Callable[[Dict[str, object]], bool]
    asserted: bool = False

    def check(self, metrics, fields) -> Dict[str, object]:
        numbers = self.measure(metrics, fields)
        return {"name": self.name, "text": self.text, "asserted": self.asserted,
                "holds": None if numbers is None else bool(self.holds(numbers)),
                "numbers": numbers}


@dataclass(frozen=True)
class Variant:
    """One point of a row: ``run(scale=, seed=, **kwargs)`` on a backend
    worker (``run`` and ``kwargs`` must pickle), and the metric its result
    reports (``None``: the row's)."""

    key: str
    run: Callable[..., object]
    kwargs: Dict[str, object] = field(default_factory=dict)
    tags: Dict[str, object] = field(default_factory=dict)
    metric: Optional[Callable[[object], object]] = None


def _sim(key: str, algorithm: str, dataset: str, use=None, metric=None, **knobs) -> Variant:
    """A variant that is one single run, tagged with what it sets."""
    return Variant(key, _single_run,
                   dict(algorithm=algorithm, dataset_name=dataset, use=use, **knobs),
                   tags={"algorithm": algorithm, "dataset": dataset, **knobs}, metric=metric)


@dataclass(frozen=True)
class Experiment:
    """One paper artifact, declared.

    ``fields`` are the keyword arguments :func:`run_experiment` and
    ``repro experiment`` accept, with their defaults, and
    ``variants(fields)`` expands them (a swept row loops over its own
    field).  Each variant reports ``metric`` unless it names its own;
    ``claims`` are evaluated over the metrics, and ``render(metrics,
    fields)`` prints them the way the paper does.
    """

    title: str
    fields: Dict[str, object]
    variants: Callable[[Dict[str, object]], List[Variant]]
    render: Callable[[Dict[str, object], Dict[str, object]], str]
    metric: Callable[[object], object] = headline_accuracy
    claims: Tuple[Claim, ...] = ()


def _of(metrics: Dict[str, object], prefix: str) -> List:
    """The metrics whose key starts with ``prefix``, in variant order."""
    return [value for key, value in metrics.items() if key.startswith(prefix)]


def _in_unit(accuracies: Callable[[Dict[str, object]], Sequence[float]]) -> Claim:
    def measure(metrics, fields):
        values = [float(value) for value in accuracies(metrics)]
        # A NaN is outside; min / max are only the printed range.
        return {"min": min(values, default=None), "max": max(values, default=None),
                "outside": sum(not 0.0 <= value <= 1.0 for value in values)}

    return Claim("accuracies_in_unit", "every accuracy is in [0, 1]", measure,
                 lambda n: n["outside"] == 0, asserted=True)


_HEADLINES_IN_UNIT = _in_unit(lambda m: m.values())


def _all_at_least(bound: float) -> Callable[[Dict[str, float]], bool]:
    """``holds``: every number is ≥ ``bound`` (a NaN is not)."""
    return lambda numbers: all(value >= bound for value in numbers.values())


def _pairs(metrics, first: str, second: str) -> Dict[str, float]:
    """``first − second`` at every point where both report, keyed by point."""
    return {key.split("|", 1)[1]: metrics[key] - metrics[f"{second}|{key.split('|', 1)[1]}"]
            for key in metrics if key.startswith(f"{first}|")}


def _scenarios(fields) -> List[Tuple[str, Tuple[str, Dict]]]:
    """Table II / IV's two non-IID scenarios: ``C`` classes per device and Dirichlet ``β``."""
    return [(f"C = {fields['classes_per_device']}",
             ("quantity", {"classes_per_device": fields["classes_per_device"]})),
            (f"beta = {fields['beta']}", ("dirichlet", {"beta": fields["beta"]}))]


def _scenario_gaps(metrics, fields, better: str, worse: str) -> Dict[str, float]:
    return {label: metrics[f"{label}|{better}"] - metrics[f"{label}|{worse}"]
            for label, _ in _scenarios(fields)}


def _scenario_table(metrics, fields, columns: Sequence[Tuple[str, str]], title: str) -> str:
    rows = [[label, *(format_percent(metrics[f"{label}|{suffix}"]) for suffix, _ in columns)]
            for label, _ in _scenarios(fields)]
    return format_table(["Non-IID scenario", *(header for _, header in columns)], rows,
                        title=f"{title} ({fields['dataset']}, non-IID)")


# Table I ------------------------------------------------------------------- #
def _public_choices(dataset: str) -> List[Optional[str]]:
    """FedMD's public datasets: CIFAR-10 is run with a close and a far one."""
    return ["cifar100", "svhn"] if dataset == "cifar10" else [None]


def _table1_variants(fields):
    return [variant for dataset in fields["datasets"] for variant in (
        _sim(f"fedzkt|{dataset}", "fedzkt", dataset),
        *(_sim(f"fedmd|{dataset}|{choice or 'default'}", "fedmd", dataset,
               public_choice=choice) for choice in _public_choices(dataset)))]


def _table1_gaps(metrics, fields) -> Dict[str, float]:
    return {f"{name}|{choice or 'default'}":
            metrics[f"fedzkt|{name}"] - metrics[f"fedmd|{name}|{choice or 'default'}"]
            for name in fields["datasets"] for choice in _public_choices(name)}


def _svhn_collapse(metrics, fields):
    if "cifar10" not in fields["datasets"]:
        return None
    return {"cifar100": metrics["fedmd|cifar10|cifar100"], "svhn": metrics["fedmd|cifar10|svhn"]}


def _render_table1(metrics, fields) -> str:
    rows = [[name, choice or PUBLIC_DATASET_PAIRS[name][0],
             format_percent(metrics[f"fedmd|{name}|{choice or 'default'}"]),
             format_percent(metrics[f"fedzkt|{name}"])]
            for name in fields["datasets"] for choice in _public_choices(name)]
    return format_table(["On-Device Dataset", "Public Dataset (FedMD)", "FedMD Accuracy",
                         "FedZKT Accuracy"], rows, title="Table I — IID on-device data")


# Figure 2 ------------------------------------------------------------------ #
def _mean_norms(metrics, fields) -> Dict[str, float]:
    return {name: float(np.mean(curve)) for name, curve in metrics["probe"].items()}


def _render_fig2(metrics, fields) -> str:
    norms = metrics["probe"]
    rounds = list(range(1, len(norms["sl"]) + 1))
    return ("Figure 2 — norm of disagreement gradients w.r.t. input data\n"
            + "\n".join(format_series(f"{name} loss", rounds, values,
                                      y_format=lambda v: f"{v:.4g}")
                        for name, values in norms.items()))


# Figure 3 ------------------------------------------------------------------ #
def _fig3_finals(metrics, fields) -> Dict[str, float]:
    """Each curve's last accuracy (NaN for an empty curve, so it fails)."""
    return {key: (curve["accuracy"] or [float("nan")])[-1] for key, curve in metrics.items()}


# Figure 4 ------------------------------------------------------------------ #
def _label_skew(title: str, axis: str, kind: str, parameter: str, cast, symbol: str,
                claims: Tuple[Claim, ...], **fields) -> Experiment:
    """Fig. 4's two sweeps: FedZKT (with the ℓ2 term) vs FedMD per skew level."""
    def variants(f):
        return [variant for value in f[axis] for variant in (
            _sim(f"fedzkt|{symbol}={cast(value)}", "fedzkt", f["dataset"],
                 partition=(kind, {parameter: cast(value)}), prox_mu=f["prox_mu"]),
            _sim(f"fedmd|{symbol}={cast(value)}", "fedmd", f["dataset"],
                 partition=(kind, {parameter: cast(value)})))]

    def render(metrics, f):
        return (f"Figure 4 ({title}, {f['dataset']})\n"
                + format_series("FedZKT", f[axis], _of(metrics, "fedzkt|")) + "\n"
                + format_series("FedMD", f[axis], _of(metrics, "fedmd|")))

    return Experiment(f"Figure 4 — {title}", {"dataset": "mnist", **fields, "prox_mu": 0.05},
                      variants, render,
                      claims=(_HEADLINES_IN_UNIT,
                              Claim("fedzkt_beats_fedmd", f"FedZKT ≥ FedMD at every {symbol}",
                                    lambda m, f: _pairs(m, "fedzkt", "fedmd"), _all_at_least(0.0)),
                              *claims))


def _first_last(metrics, fields) -> Dict[str, float]:
    fedzkt = _of(metrics, "fedzkt|")
    return {"first": fedzkt[0], "last": fedzkt[-1]}


# Figure 5 / Table III ------------------------------------------------------ #
def _bounds_variant(dataset: str, bound_epochs: Optional[int]) -> Variant:
    return _sim("bounds", "standalone", dataset, use=partial(_bounds, bound_epochs=bound_epochs),
                metric=_identity)


def _bound_values(metrics) -> List[float]:
    return [b[side] for b in metrics["bounds"] for side in ("lower_bound", "upper_bound")]


def _render_fig5(metrics, fields) -> str:
    curves, final = metrics["fedzkt"]["curves"], metrics["fedzkt"]["final"]
    rows = [[f"Device {b['device_id'] + 1}: {b['architecture']}", format_percent(b["upper_bound"]),
             format_percent(b["lower_bound"]), format_percent(final.get(b["device_id"]))]
            for b in metrics["bounds"]]
    return (format_table(["Model Architecture", "Upper Bound", "Lower Bound", "FedZKT (final)"],
                         rows, title=f"Table III — standalone bounds vs FedZKT "
                                     f"({fields['dataset']}, IID)")
            + "\n\nFigure 5 — per-device learning curves\n"
            + "\n".join(format_series(f"Device {device_id + 1}",
                                      list(range(1, len(curve) + 1)), curve)
                        for device_id, curve in curves.items()))


def _render_table3(metrics, fields) -> str:
    return f"Table III (bounds only, {fields['dataset']} stand-in)\n" + "\n".join(
        f"  device {b['device_id'] + 1} [{b['architecture']}]: "
        f"upper {b['upper_bound']:.3f} lower {b['lower_bound']:.3f}" for b in metrics["bounds"])


# Figures 6 and 7 ----------------------------------------------------------- #
def _curve_sweep(title: str, axis: str, knob: str, cast, key: str, label: str,
                 claim: Claim, **fields) -> Experiment:
    """Figs. 6 and 7: FedZKT's mean on-device accuracy per round along one knob."""
    def render(metrics, f):
        rounds = list(range(1, len(next(iter(metrics.values()))) + 1))
        return (f"{title} ({f['dataset']}, IID)\n"
                + "\n".join(format_series(label.format(cast(value)), rounds,
                                          metrics[f"{key}={cast(value)}"])
                            for value in f[axis]))

    return Experiment(
        title, {"dataset": "mnist", **fields},
        lambda f: [_sim(f"{key}={cast(value)}", "fedzkt", f["dataset"], **{knob: cast(value)})
                   for value in f[axis]],
        render, metric=TrainingHistory.mean_device_accuracy_curve,
        claims=(_in_unit(lambda m: [value for curve in m.values() for value in curve]), claim))


def _finals(metrics, fields) -> Dict[str, float]:
    return {key: curve[-1] for key, curve in metrics.items()}


def _all_at_least_first(numbers: Dict[str, float]) -> bool:
    first, *rest = numbers.values()
    return all(first <= value for value in rest)


# Straggler study ----------------------------------------------------------- #
def _render_straggler(metrics, fields) -> str:
    # Time-to-target: the accuracy every scheduler eventually reaches, so the
    # comparison is about *when*, not *whether*.
    target = min(entry["best_accuracy"] for entry in metrics.values()) * 0.9
    rows = []
    for kind, entry in metrics.items():
        reach = next((t for t, accuracy in entry["timeline"] if accuracy >= target), None)
        final = entry["final_sim_time"]
        rows.append([kind, format_percent(entry["best_accuracy"]),
                     f"{final:.2f}" if final is not None else "n/a",
                     f"{reach:.2f}" if reach is not None else "n/a",
                     f"{entry['mean_staleness']:.2f}"])
    return (format_table(["Scheduler", "Best accuracy", "Sim time (total)",
                          f"Time to {format_percent(target)}", "Mean staleness"], rows,
                         title=f"Straggler study ({fields['dataset']}, "
                               f"{fields['speed_skew']:.0f}x speed skew)")
            + "\n\nAccuracy vs simulated wall clock\n"
            + "\n".join(format_timeline(kind, entry["timeline"])
                        for kind, entry in metrics.items()))


def _render_compute_split(metrics, fields) -> str:
    split = metrics["fedzkt"]
    rows = [[entry["device_id"], entry["model_parameters"], entry["compute_estimate"]]
            for entry in split["per_device"]]
    return (format_table(["Device", "Model parameters", "Device compute (param-grads)"], rows,
                         title=f"Compute-split ablation ({fields['dataset']})")
            + f"\nServer compute (param-grads): {split['server_total_compute']}"
            + f"\nServer/device compute ratio: {split['server_to_device_ratio']:.1f}x")


#: The paper's tables and figures, one declared row each (the ``repro
#: experiment`` names).  ``benchmarks/test_paper_claims.py`` runs every row.
EXPERIMENTS: Dict[str, Experiment] = {
    "table1": Experiment(
        "Table I — IID accuracy, FedZKT vs FedMD",
        {"datasets": ("mnist", "fashion", "kmnist", "cifar10")}, _table1_variants, _render_table1,
        claims=(_HEADLINES_IN_UNIT,
                Claim("fedzkt_beats_fedmd", "FedZKT ≥ FedMD on most rows", _table1_gaps,
                      lambda n: 2 * sum(gap >= 0.0 for gap in n.values()) > len(n)),
                Claim("svhn_collapse", "FedMD on cifar10 drops ≥ 5 points when its public "
                      "dataset is SVHN instead of CIFAR-100", _svhn_collapse,
                      lambda n: n["svhn"] <= n["cifar100"] - 0.05))),
    "fig2": Experiment(
        "Figure 2 — input-gradient norms of the SL / KL / ℓ1 losses (IID)",
        {"dataset": "mnist"},
        lambda f: [_sim("probe", "fedzkt", f["dataset"], use=_probe_gradients)],
        _render_fig2, metric=_gradient_norms,
        claims=(Claim("norms_finite", "every mean gradient norm is finite and ≥ 0", _mean_norms,
                      lambda n: all(np.isfinite(v) and v >= 0.0 for v in n.values()),
                      asserted=True),
                Claim("l1_dominates", "raw-logit ℓ1 gradients dominate: l1 ≥ sl and l1 ≥ kl",
                      _mean_norms, lambda n: n["l1"] >= n["sl"] and n["l1"] >= n["kl"],
                      asserted=True),
                Claim("kl_vanishes", "KL's input gradients vanish: kl ≤ sl ≤ l1", _mean_norms,
                      lambda n: n["kl"] <= n["sl"] <= n["l1"]))),
    "fig3": Experiment(
        "Figure 3 — learning curves of FedZKT and FedMD (public = CIFAR-100)",
        {"dataset": "cifar10"},
        lambda f: [_sim("fedzkt", "fedzkt", f["dataset"], metric=_global_curve),
                   _sim("fedmd", "fedmd", f["dataset"], public_choice="cifar100",
                        metric=_mean_device_curve)],
        lambda m, f: (f"Figure 3 — learning curves ({f['dataset']}, IID)\n"
                      + format_series("FedZKT (global model)", m["fedzkt"]["rounds"],
                                      m["fedzkt"]["accuracy"]) + "\n"
                      + format_series("FedMD (mean device)", m["fedmd"]["rounds"],
                                      m["fedmd"]["accuracy"])),
        claims=(_in_unit(lambda m: [v for curve in m.values() for v in curve["accuracy"]]),
                Claim("point_per_round", "FedZKT's global model has an accuracy in every "
                      "round; FedMD's curve is not empty",
                      lambda m, f: {"rounds": len(m["fedzkt"]["rounds"]),
                                    "fedzkt": len(m["fedzkt"]["accuracy"]),
                                    "fedmd": len(m["fedmd"]["accuracy"])},
                      lambda n: n["fedzkt"] == n["rounds"] and n["fedmd"] >= 1, asserted=True),
                Claim("beats_chance", "both algorithms end at ≥ 5 % accuracy", _fig3_finals,
                      _all_at_least(0.05), asserted=True),
                Claim("fedzkt_overtakes", "FedZKT ends at or above FedMD", _fig3_finals,
                      lambda n: n["fedzkt"] >= n["fedmd"]))),
    "fig4_quantity": _label_skew(
        "quantity-based label imbalance", "classes_per_device", "quantity",
        "classes_per_device", int, "C",
        (Claim("milder_skew_no_worse", "more classes per device does not hurt FedZKT: "
               "last ≥ first − 0.15", _first_last,
               lambda n: n["last"] >= n["first"] - 0.15, asserted=True),),
        classes_per_device=(2, 5)),
    "fig4_dirichlet": _label_skew(
        "distribution-based label imbalance", "betas", "dirichlet", "beta", float, "beta",
        (Claim("closer_to_iid_helps", "FedZKT improves as β grows: last ≥ first", _first_last,
               lambda n: n["last"] >= n["first"]),),
        betas=(0.1, 1.0)),
    "table2": Experiment(
        "Table II — distillation-loss ablation (KL / ℓ1 / SL) under non-IID data",
        {"dataset": "cifar10", "classes_per_device": 5, "beta": 0.5, "prox_mu": 0.05},
        lambda f: [_sim(f"{label}|{loss}", "fedzkt", f["dataset"], partition=partition,
                        prox_mu=f["prox_mu"], distillation_loss=loss)
                   for label, partition in _scenarios(f) for loss in _LOSSES],
        lambda m, f: _scenario_table(m, f, [("kl", "KL-divergence"), ("l1", "l1 norm"),
                                            ("sl", "SL loss")], "Table II — loss ablation"),
        claims=(_HEADLINES_IN_UNIT,
                Claim("sl_beats_kl", "SL ≥ KL in both scenarios",
                      lambda m, f: _scenario_gaps(m, f, "sl", "kl"),
                      _all_at_least(0.0)),
                Claim("l1_fails", "SL ≫ ℓ1 (by ≥ 10 points) in both scenarios",
                      lambda m, f: _scenario_gaps(m, f, "sl", "l1"),
                      _all_at_least(0.10)))),
    "fig5_table3": Experiment(
        "Figure 5 / Table III — per-device curves and standalone bounds",
        {"dataset": "cifar10", "bound_epochs": None},
        lambda f: [_sim("fedzkt", "fedzkt", f["dataset"], metric=_device_curves),
                   _bounds_variant(f["dataset"], f["bound_epochs"])],
        _render_fig5,
        claims=(_in_unit(lambda m: [*_bound_values(m),
                                    *(v for c in m["fedzkt"]["curves"].values() for v in c)]),
                Claim("curve_per_device", "one FedZKT curve per bounded device",
                      lambda m, f: {"curves": len(m["fedzkt"]["curves"]),
                                    "bounds": len(m["bounds"])},
                      lambda n: n["bounds"] >= 1 and n["curves"] == n["bounds"], asserted=True),
                Claim("fedzkt_above_lower", "every device's FedZKT accuracy ends above its "
                      "lower bound",
                      lambda m, f: {b["architecture"]: m["fedzkt"]["final"][b["device_id"]]
                                    - b["lower_bound"] for b in m["bounds"]},
                      _all_at_least(0.0)))),
    "table3": Experiment(
        "Table III — standalone lower/upper bounds of the device architectures",
        {"dataset": "mnist", "bound_epochs": 3},
        lambda f: [_bounds_variant(f["dataset"], f["bound_epochs"])], _render_table3,
        claims=(_in_unit(_bound_values),
                Claim("upper_beats_lower", "training on everyone's data beats local-only on "
                      "average: mean upper ≥ mean lower",
                      lambda m, f: {side: float(np.mean([b[f"{side}_bound"]
                                                         for b in m["bounds"]]))
                                    for side in ("upper", "lower")},
                      lambda n: n["upper"] >= n["lower"], asserted=True))),
    "fig6": _curve_sweep(
        "Figure 6 — straggler effect", "portions", "participation_fraction", float, "p",
        "p = {}",
        Claim("stragglers_slow_training", "only small p slows training: the smallest p "
              "ends lowest", _finals, _all_at_least_first),
        portions=(0.2, 0.6, 1.0)),
    "table4": Experiment(
        "Table IV — FedZKT with and without the on-device ℓ2 term (Eq. 9)",
        {"dataset": "cifar10", "classes_per_device": 5, "beta": 0.5, "prox_mu": 0.05},
        lambda f: [_sim(f"{label}|{reg}", "fedzkt", f["dataset"], partition=partition,
                        prox_mu=mu)
                   for label, partition in _scenarios(f)
                   for reg, mu in (("no_reg", 0.0), ("l2_reg", f["prox_mu"]))],
        lambda m, f: _scenario_table(m, f, [("no_reg", "no regularization"),
                                            ("l2_reg", "l2 regularization")],
                                     "Table IV — effect of l2 regularization"),
        claims=(_HEADLINES_IN_UNIT,
                Claim("l2_helps", "the ℓ2 term helps in both scenarios",
                      lambda m, f: _scenario_gaps(m, f, "l2_reg", "no_reg"),
                      _all_at_least(0.0)))),
    "fig7": _curve_sweep(
        "Figure 7 — effect of device number", "device_counts", "num_devices", int, "K",
        "{} devices",
        Claim("device_count_insensitive", "K changes the final accuracy by ≤ 2 points",
              _finals, lambda n: float(np.ptp(list(n.values()))) <= 0.02),
        device_counts=(5, 10)),
    "compute_split": Experiment(
        "Compute-split ablation — how much of the work FedZKT puts on the server",
        {"dataset": "mnist"},
        lambda f: [_sim("fedzkt", "fedzkt", f["dataset"], use=_compute_split)],
        _render_compute_split, metric=_identity,
        claims=(Claim("server_heavy", "the server does more of the work: ratio > 1, both "
                      "totals > 0",
                      lambda m, f: {key: m["fedzkt"][key] for key in (
                          "server_total_compute", "device_total_compute",
                          "server_to_device_ratio")},
                      lambda n: (n["server_to_device_ratio"] > 1.0
                                 and n["server_total_compute"] > 0
                                 and n["device_total_compute"] > 0), asserted=True),)),
    "straggler_study": Experiment(
        "Straggler study — sync vs deadline vs async rounds under speed skew",
        {"dataset": "mnist", "speed_skew": 4.0, "deadline": 1.5, "buffer_size": 2,
         "latency_mean": 0.1},
        lambda f: [_sim(kind, "fedzkt", f["dataset"], scheduler=kind,
                        deadline=f["deadline"], buffer_size=f["buffer_size"],
                        speed_skew=f["speed_skew"], latency_mean=f["latency_mean"])
                   for kind in ("sync", "deadline", "async")],
        _render_straggler, metric=_schedule,
        claims=(_in_unit(lambda m: [e["best_accuracy"] for e in m.values()]),
                Claim("deadline_saves_time", "not waiting for the slowest device compresses "
                      "simulated time: deadline < sync",
                      lambda m, f: {kind: e["final_sim_time"] for kind, e in m.items()},
                      lambda n: n["deadline"] < n["sync"]))),
    "generator_reuse": Experiment(
        "Generator-reuse ablation — back-transfer from the trained vs a fresh generator",
        {"dataset": "mnist"},
        lambda f: [_sim("trained", "fedzkt", f["dataset"]),
                   _sim("fresh", "fedzkt", f["dataset"], use=_fresh_generator)],
        lambda m, f: (f"Generator-reuse ablation ({f['dataset']}): trained generator "
                      f"{m['trained']:.3f} vs fresh generator {m['fresh']:.3f}"),
        metric=TrainingHistory.final_mean_device_accuracy,
        claims=(_HEADLINES_IN_UNIT,
                Claim("trained_generator_helps", "back-transfer from the trained generator "
                      "does at least as well as from a fresh one", lambda m, f: dict(m),
                      lambda n: n["trained"] >= n["fresh"]))),
}


# --------------------------------------------------------------------------- #
# One runner, one output format
# --------------------------------------------------------------------------- #
class ExperimentError(RuntimeError):
    """Raised by :func:`run_experiment`, after its files are written, when a
    variant failed."""


def _execute(call):
    """Run one variant, timing it; a failure is data, not a crash.

    Module-level so process-pool backends can pickle it by qualified name.
    """
    run, kwargs = call
    start = time.perf_counter()
    try:
        result, error, trace = run(**kwargs), None, None
    except Exception as exc:  # noqa: BLE001 — variant failures are data, not crashes
        result, error, trace = None, f"{type(exc).__name__}: {exc}", traceback.format_exc()
    return result, error, trace, time.perf_counter() - start


def _jsonable(value):
    """Best-effort conversion of a result to JSON-compatible data."""
    if isinstance(value, TrainingHistory):
        return value.to_dict()
    if hasattr(value, "to_dict"):
        return _jsonable(value.to_dict())
    if hasattr(value, "as_dict"):
        return _jsonable(value.as_dict())
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, range)):
        return [_jsonable(item) for item in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def _environment() -> Dict[str, object]:
    """Interpreter, numpy and BLAS versions, and the commit when one is known."""
    import platform
    import subprocess

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                cwd=Path(__file__).resolve().parent, timeout=10)
        commit = commit.stdout.strip() if commit.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "platform": platform.platform(), "commit": commit}


def _dump(path: Path, payload) -> None:
    path.write_text(json.dumps(_jsonable(payload), indent=2, default=float) + "\n",
                    encoding="utf-8")


def run_experiment(name: str, *, scale="tiny", seed: int = 0,
                   backend: Optional[ExecutionBackend] = None, output_dir=None,
                   **fields) -> Dict[str, object]:
    """Run one row of :data:`EXPERIMENTS` and return its summary.

    ``fields`` override the row's defaults.  The variants fan out through
    ``backend`` (default: serial; a ``process:N`` pool runs them
    concurrently, each with a serial inner simulation).  With
    ``output_dir``, ``<output_dir>/<name>/`` receives ``manifest.json``
    (the row as run, scale, seed, backend, environment), ``metrics.jsonl``
    (one line per variant: key, tags, seconds, error, traceback, full
    result) and ``summary.json`` (per-variant metrics, each claim with its
    text, whether it holds and its numbers, and the rendering).  A failed
    variant raises :class:`ExperimentError` once the files are written.
    """
    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}")
    row = EXPERIMENTS[name]
    unknown = sorted(set(fields) - set(row.fields))
    if unknown:
        raise TypeError(f"experiment {name!r} has no field(s) {unknown}; "
                        f"its fields are {sorted(row.fields)}")
    fields = {**row.fields, **fields}
    scale = _resolve_scale(scale)
    variants = row.variants(fields)
    keys = [variant.key for variant in variants]
    duplicates = sorted({key for key in keys if keys.count(key) > 1})
    if duplicates:
        raise ValueError(f"duplicate variant keys in experiment {name!r}: {duplicates}")

    backend = backend or SerialBackend()
    # Variants are context-free fan-out work: start the backend explicitly
    # (pool backends refuse to self-start from ``map``).
    if not backend.is_started:
        backend.start(None)
    outcomes = backend.map(_execute, [(variant.run, {**variant.kwargs, "scale": scale,
                                                     "seed": seed}) for variant in variants])
    lines = [{"key": variant.key, "tags": variant.tags, "seconds": seconds, "error": error,
              "traceback": trace, "result": result}
             for variant, (result, error, trace, seconds) in zip(variants, outcomes)]
    # Every result is on disk before any metric, claim or rendering runs.
    directory = None if output_dir is None else Path(output_dir) / name
    if directory is not None:
        directory.mkdir(parents=True, exist_ok=True)
        workers = getattr(backend, "max_workers", None)
        _dump(directory / "manifest.json", {
            "experiment": name, "title": row.title, "fields": fields, "scale": asdict(scale),
            "seed": seed, "backend": backend.name + (f":{workers}" if workers else ""),
            "variants": [{"key": variant.key, "tags": variant.tags} for variant in variants],
            "environment": _environment()})
        with (directory / "metrics.jsonl").open("w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(json.dumps(_jsonable(line), default=float) + "\n")

    failed = [line for line in lines if line["error"] is not None]
    metrics = {variant.key: (variant.metric or row.metric)(line["result"])
               for variant, line in zip(variants, lines) if line["error"] is None}
    summary = {"experiment": name, "title": row.title, "fields": fields, "metrics": metrics,
               "failed": [line["key"] for line in failed], "claims": [], "rendering": ""}
    if not failed:
        summary["claims"] = [claim.check(metrics, fields) for claim in row.claims]
        summary["rendering"] = row.render(metrics, fields)
    if directory is not None:
        _dump(directory / "summary.json", summary)
    if failed:
        details = "; ".join(f"{line['key']}: {line['error']}" for line in failed)
        raise ExperimentError(f"experiment {name!r} had {len(failed)} failed variant(s): "
                              f"{details}\n" + "\n".join(line["traceback"] for line in failed))
    return summary
