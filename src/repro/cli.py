"""``repro`` — command-line entrypoint for the FedZKT reproduction.

Installed as a console script by ``pip install -e .`` (see pyproject.toml);
also runnable as ``python -m repro.cli``.

Subcommands
-----------
``repro run``
    Run a single federated training session with one of the algorithms in
    :data:`repro.experiments.runner.STRATEGIES`
    (``--algorithm fedzkt|fedavg|fedmd|standalone``) and optionally save
    its :class:`TrainingHistory` as JSON.
``repro experiment``
    Run one row of the paper's experiment table, printing its rendering
    and claims, and optionally writing its ``manifest.json`` /
    ``metrics.jsonl`` / ``summary.json`` under ``--output-dir``.
``repro worker``
    Run a remote worker daemon for the multi-node ``tcp://`` backend:
    ``repro worker --connect HOST:PORT`` on any machine that can reach the
    driver's blob server.
``repro list``
    List available strategies (with their capability declarations),
    experiments, scales, backends, and schedulers.

Every subcommand accepts ``--backend`` with a backend spec (``serial``,
``process[:N]`` or ``tcp://HOST:PORT[?workers=N]``); ``process`` and
``tcp`` fan device training (for ``run``) or whole experiment variants
(for ``experiment``) out across worker processes.
``repro run --transport-stats`` prints the backend's state-transport
counters (bytes published/fetched/shipped, cache hit rates, per-label
breakdown) after the run.
``repro run`` accepts ``--dtype float32`` to run the whole session under
the float32 numeric policy (see ``repro.nn.policy``) and ``--cohort-fusion``
to dispatch each round's same-architecture training *and* evaluation tasks
as one stacked task per group (the FedZKT server phases stack
same-architecture groups with or without it).
``repro run`` additionally accepts ``--scheduler sync|deadline|async``
plus ``--deadline``, ``--buffer-size``, the device-heterogeneity knobs
``--speed-skew`` / ``--latency-mean`` / ``--dropout-rate``, and
``--server-shards N`` to shard a strategy's server update through the
selected backend.  Each strategy declares which scheduler kinds it runs
under and whether its server update shards; the ``Simulation``
constructor checks those declarations, so a violation surfaces with the
same message from every entry point.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import __version__
from .experiments.configs import SCALES
from .experiments.reporting import format_claims
from .experiments.runner import EXPERIMENTS, STRATEGIES, run_algorithm, run_experiment
from .federated.backend import BACKENDS, make_backend
from .utils.serialization import save_history_json

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FedZKT (ICDCS 2022) reproduction: federated runs and the paper's experiments.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    # ---------------------------------------------------------------- run
    run_parser = subparsers.add_parser("run", help="run one federated training session")
    run_parser.add_argument("dataset", help="dataset name (mnist, fashion, kmnist, cifar10, ...)")
    run_parser.add_argument("--algorithm", choices=list(STRATEGIES), default="fedzkt",
                            help="algorithm strategy (default: fedzkt)")
    run_parser.add_argument("--scale", default="tiny", choices=sorted(SCALES),
                            help="experiment scale preset (default: tiny)")
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--rounds", type=int, default=None,
                            help="override the scale's communication rounds")
    run_parser.add_argument("--num-devices", type=int, default=None,
                            help="override the scale's device count")
    run_parser.add_argument("--participation", type=float, default=1.0,
                            help="active-device fraction p (straggler study)")
    run_parser.add_argument("--prox-mu", type=float, default=0.0,
                            help="coefficient of the on-device l2 proximal term "
                                 "(with --algorithm fedavg, >0 runs FedProx)")
    run_parser.add_argument("--public-choice", default=None,
                            help="FedMD public dataset override (e.g. cifar100, svhn)")
    run_parser.add_argument("--backend", default="serial",
                            help="execution backend: serial, process[:N], or "
                                 "tcp://HOST:PORT[?workers=N]")
    run_parser.add_argument("--transport-stats", action="store_true",
                            help="print the backend's state-transport counters "
                                 "(bytes published/fetched/shipped, cache hit "
                                 "rates, per-label breakdown) after the run")
    run_parser.add_argument("--cohort-fusion", action="store_true",
                            help="dispatch each round's same-architecture device tasks "
                                 "(training, evaluation, FedMD public logits) as one "
                                 "stacked task per group; bit-identical to the "
                                 "per-device path, heterogeneous groups or unequal "
                                 "shard sizes stay per device.  Only groups device "
                                 "tasks: FedZKT's server phases always stack "
                                 "same-architecture models")
    run_parser.add_argument("--dtype", default="float64",
                            choices=["float64", "float32"],
                            help="numeric policy for the whole run: float64 "
                                 "(default, the bit-identity tier the golden "
                                 "fixtures are recorded at) or float32 "
                                 "(~half the memory traffic; deterministic "
                                 "for a fixed BLAS but outside the bitwise "
                                 "reproducibility contract)")
    run_parser.add_argument("--server-shards", type=int, default=None,
                            help="how many shard tasks each server-update dispatch splits "
                                 "into on the backend (default 1; more than 1 requires "
                                 "a strategy declaring supports_server_shards, i.e. "
                                 "fedzkt; every count is bit-identical)")
    run_parser.add_argument("--scheduler", default=None,
                            choices=["sync", "deadline", "async"],
                            help="round scheduler (default: sync; must be declared in "
                                 "the strategy's supports_schedulers — fedmd runs its "
                                 "partial-consensus variant under deadline/async)")
    run_parser.add_argument("--deadline", type=float, default=None,
                            help="simulated per-round deadline for --scheduler deadline "
                                 "(units of the fastest device's round time)")
    run_parser.add_argument("--buffer-size", type=int, default=None,
                            help="aggregation buffer size K for --scheduler async")
    run_parser.add_argument("--speed-skew", type=float, default=None,
                            help="slowest/fastest device compute-time ratio (>= 1)")
    run_parser.add_argument("--latency-mean", type=float, default=None,
                            help="mean simulated upload latency (lognormal draws)")
    run_parser.add_argument("--dropout-rate", type=float, default=None,
                            help="per-(device, round) unavailability probability")
    run_parser.add_argument("--output", default=None,
                            help="write the training history JSON to this path")
    run_parser.add_argument("--quiet", action="store_true")

    # --------------------------------------------------------- experiment
    exp_parser = subparsers.add_parser("experiment", help="run a paper table/figure experiment")
    exp_parser.add_argument("name", choices=sorted(EXPERIMENTS),
                            help="experiment to run")
    exp_parser.add_argument("--scale", default="tiny", choices=sorted(SCALES))
    exp_parser.add_argument("--seed", type=int, default=0)
    exp_parser.add_argument("--backend", default="serial",
                            help="execution backend for the variant sweep")
    exp_parser.add_argument("--output-dir", default=None,
                            help="write manifest.json, metrics.jsonl and summary.json "
                                 "into OUTPUT_DIR/<name>/")

    # ------------------------------------------------------------- worker
    worker_parser = subparsers.add_parser(
        "worker", help="run a remote worker daemon for the tcp:// backend")
    worker_parser.add_argument("--connect", required=True, metavar="HOST:PORT",
                               help="driver blob-server address to connect to")
    worker_parser.add_argument("--cache-bytes", type=int, default=None,
                               help="byte cap of the worker state cache, which holds "
                                    "the current and the previous round's fetches")
    worker_parser.add_argument("--patience", type=float, default=30.0,
                               help="seconds to wait for the driver to start listening")
    worker_parser.add_argument("--secret", default=None,
                               help="shared secret for the driver handshake "
                                    "(default: the REPRO_NET_SECRET env var)")
    worker_parser.add_argument("--quiet", action="store_true",
                               help="suppress status lines")

    # --------------------------------------------------------------- list
    subparsers.add_parser("list", help="list strategies, experiments, scales, and backends")

    return parser


def _print_transport_stats(stats: dict) -> None:
    """Render ``backend.transport_stats()`` the way ``--transport-stats`` shows it."""
    print(f"\ntransport stats [{stats.get('backend', '?')}]:")
    scalar_keys = [
        "publishes", "published_bytes", "fetches", "fetched_bytes",
        "task_bytes", "tasks_shipped", "context_published_bytes", "context_bytes",
        "result_bytes", "shipped_bytes", "inline_equivalent_bytes",
        "refs_resolved", "hits", "misses", "hit_rate",
        "server_starts", "workers_connected",
        "worker_disconnects", "worker_restarts", "tasks_requeued",
    ]
    for key in scalar_keys:
        if key not in stats:
            continue
        value = stats[key]
        if key == "hit_rate":
            rendered = "n/a" if value is None else f"{value:.3f}"
        elif key.endswith("_bytes"):
            rendered = f"{int(value):,}"
        else:
            rendered = str(value)
        print(f"  {key:25s} {rendered}")
    by_label = stats.get("by_label") or {}
    if by_label:
        print("  by label:")
        for label in sorted(by_label):
            bucket = by_label[label]
            hit_rate = bucket.get("hit_rate")
            rendered_rate = "n/a" if hit_rate is None else f"{hit_rate:.3f}"
            print(f"    {label or '(unlabeled)':12s} "
                  f"resolved={bucket.get('resolved', 0)} "
                  f"publishes={bucket.get('publishes', 0)} "
                  f"published_bytes={int(bucket.get('published_bytes', 0)):,} "
                  f"fetched_bytes={int(bucket.get('fetched_bytes', 0)):,} "
                  f"hit_rate={rendered_rate}")


def _cmd_run(args: argparse.Namespace) -> int:
    # Flag-consistency checks: reject knob combinations that would silently
    # do nothing.  (Capability checks — which strategies support which
    # schedulers / server sharding — live in the Simulation constructor.)
    if args.deadline is not None and args.scheduler != "deadline":
        raise SystemExit("--deadline only applies with --scheduler deadline")
    if args.buffer_size is not None and args.scheduler != "async":
        raise SystemExit("--buffer-size only applies with --scheduler async")
    if (args.public_choice is not None
            and not STRATEGIES[args.algorithm].uses_public_dataset):
        raise SystemExit(f"--public-choice only applies to strategies that use a "
                         f"public dataset (strategy {args.algorithm!r} does not)")
    kwargs = dict(
        scale=args.scale, seed=args.seed, num_devices=args.num_devices,
        participation_fraction=args.participation, prox_mu=args.prox_mu,
        rounds=args.rounds, scheduler=args.scheduler, deadline=args.deadline,
        buffer_size=args.buffer_size, speed_skew=args.speed_skew,
        latency_mean=args.latency_mean, dropout_rate=args.dropout_rate,
        server_shards=args.server_shards, cohort_fusion=args.cohort_fusion,
        numeric_policy=args.dtype,
        verbose=not args.quiet,
    )
    if args.public_choice is not None:
        kwargs["public_choice"] = args.public_choice
    backend = make_backend(args.backend)
    try:
        history = run_algorithm(args.algorithm, args.dataset, backend=backend, **kwargs)
    except ValueError as exc:
        # Strategy capability violations (scheduler kind, server shards)
        # surface here with the Simulation constructor's message.
        raise SystemExit(str(exc))
    finally:
        backend.shutdown()
    summary = history.summary()
    if not args.quiet:
        print(json.dumps(summary, indent=2, default=float))
    if args.transport_stats:
        # Safe after shutdown: backends snapshot their channel counters.
        _print_transport_stats(backend.transport_stats())
    if args.output:
        path = save_history_json(history, args.output)
        if not args.quiet:
            print(f"history written to {path}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    backend = make_backend(args.backend)
    try:
        summary = run_experiment(args.name, scale=args.scale, seed=args.seed,
                                 backend=backend, output_dir=args.output_dir)
    finally:
        backend.shutdown()
    print(summary["rendering"])
    print("\n" + format_claims(summary["claims"]))
    if args.output_dir:
        print(f"\nmanifest.json, metrics.jsonl and summary.json written to "
              f"{args.output_dir}/{args.name}")
    return 0


def _cmd_list(_args: argparse.Namespace) -> int:
    print("strategies:")
    for name, cls in STRATEGIES.items():
        flags = [f"schedulers={','.join(cls.supports_schedulers)}"]
        if cls.supports_server_shards:
            flags.append("server-shards")
        if cls.uses_public_dataset:
            flags.append("public-dataset")
        print(f"  {name:15s} {cls.__doc__.strip().splitlines()[0]}")
        print(f"  {'':15s} [{'; '.join(flags)}]")
    print("\nexperiments:")
    for name in sorted(EXPERIMENTS):
        print(f"  {name:15s} {EXPERIMENTS[name].title}")
    print("\nscales: " + ", ".join(sorted(SCALES)))
    print("\nbackends:")
    for name, description in BACKENDS.items():
        print(f"  {name:15s} {description}")
    print("\nschedulers: sync, deadline, async")
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from .net.worker import run_worker
    from .net.wire import parse_hostport

    try:
        host, port = parse_hostport(args.connect)
    except ValueError as exc:
        raise SystemExit(str(exc))
    kwargs = {}
    if args.cache_bytes is not None:
        kwargs["cache_bytes"] = args.cache_bytes
    return run_worker(host, port, patience=args.patience, quiet=args.quiet,
                      secret=args.secret, **kwargs)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "experiment": _cmd_experiment,
                "list": _cmd_list, "worker": _cmd_worker}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
