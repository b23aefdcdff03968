"""``repro`` — command-line entrypoint for the FedZKT reproduction.

Installed as a console script by ``pip install -e .`` (see pyproject.toml);
also runnable as ``python -m repro.cli``.

Subcommands
-----------
``repro run``
    Run a single federated training session with any registered algorithm
    strategy (``--algorithm fedzkt|fedavg|fedmd|standalone``; plugins
    registered via :func:`repro.federated.strategies.register_strategy`
    are accepted once they attach a runner with
    :func:`repro.experiments.runner.register_algorithm_runner`) and
    optionally save its :class:`TrainingHistory` as JSON.
``repro experiment``
    Run one of the paper's table/figure experiments, printing the
    formatted rendering and optionally emitting per-variant JSON.
``repro worker``
    Run a remote worker daemon for the multi-node ``tcp://`` backend:
    ``repro worker --connect HOST:PORT`` on any machine that can reach the
    driver's blob server.
``repro list``
    List available strategies (with their capability declarations),
    experiments, scales, registered backends, and schedulers.

Every subcommand accepts ``--backend`` with any registered backend spec
(``serial``, ``process[:N]``, ``tcp://HOST:PORT[?workers=N]``,
plus plugins registered via :func:`repro.federated.backend.register_backend`);
``process`` and ``tcp`` fan device training (for ``run``) or whole
experiment variants (for ``experiment``) out across worker processes.
``repro run --transport-stats`` prints the backend's state-transport
counters (bytes published/fetched/shipped, cache hit rates, per-label
breakdown) after the run.
``repro run`` accepts ``--dtype float32`` to run the whole session under
the float32 numeric policy (see ``repro.nn.policy``) and ``--cohort-fusion``
to fuse each round's same-architecture training *and* evaluation cohorts
into stacked vectorized tasks.
``repro run`` additionally accepts ``--scheduler sync|deadline|async``
plus ``--deadline``, ``--buffer-size``, the device-heterogeneity knobs
``--speed-skew`` / ``--latency-mean`` / ``--dropout-rate``, and
``--server-shards N`` to shard a strategy's server update through the
selected backend.  Whether a given strategy supports a scheduler kind or
server sharding is no longer hard-coded here: the strategy's capability
declarations are validated in one place
(:func:`repro.federated.strategies.validate_strategy`) and violations
surface as the same message from every entry point.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import __version__
from .experiments.configs import SCALES
from .experiments.runner import EXPERIMENTS, run_algorithm, run_experiment
from .federated.backend import backend_descriptions, make_backend
from .federated.strategies import get_strategy_class, strategy_capabilities, strategy_names
from .utils.serialization import save_history_json

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FedZKT (ICDCS 2022) reproduction: federated runs, experiments, sweeps.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    # ---------------------------------------------------------------- run
    run_parser = subparsers.add_parser("run", help="run one federated training session")
    run_parser.add_argument("dataset", help="dataset name (mnist, fashion, kmnist, cifar10, ...)")
    run_parser.add_argument("--algorithm", choices=strategy_names(), default="fedzkt",
                            help="algorithm strategy from the registry (default: fedzkt)")
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
                            help="execution backend: serial, process[:N], "
                                 "tcp://HOST:PORT[?workers=N], or any registered scheme")
    run_parser.add_argument("--transport-stats", action="store_true",
                            help="print the backend's state-transport counters "
                                 "(bytes published/fetched/shipped, cache hit "
                                 "rates, per-label breakdown) after the run")
    run_parser.add_argument("--cohort-fusion", nargs="?", const=True, default=False,
                            metavar="family",
                            help="fuse each round's same-architecture device cohort "
                                 "(and FedZKT's sharded teacher ensemble) into stacked "
                                 "vectorized training tasks; bit-identical to the "
                                 "per-device path, heterogeneous groups fall back. "
                                 "Pass the optional value 'family' to also fuse "
                                 "pad-safe same-architecture devices with unequal "
                                 "shard sizes (masked padding; ~1e-9-relative to "
                                 "the per-device path rather than bitwise)")
    run_parser.add_argument("--dtype", default="float64",
                            choices=["float64", "float32"],
                            help="numeric policy for the whole run: float64 "
                                 "(default, the bit-identity tier the golden "
                                 "fixtures are recorded at) or float32 "
                                 "(~half the memory traffic; deterministic "
                                 "for a fixed BLAS but outside the bitwise "
                                 "reproducibility contract)")
    run_parser.add_argument("--server-shards", type=int, default=None,
                            help="shard the strategy's server update through the backend "
                                 "into this many shards (requires a strategy declaring "
                                 "supports_server_shards, i.e. fedzkt; bit-identical "
                                 "to the serial server update)")
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
                            help="emit per-variant JSON results into this directory")

    # ------------------------------------------------------------- worker
    worker_parser = subparsers.add_parser(
        "worker", help="run a remote worker daemon for the tcp:// backend")
    worker_parser.add_argument("--connect", required=True, metavar="HOST:PORT",
                               help="driver blob-server address to connect to")
    worker_parser.add_argument("--cache-bytes", type=int, default=None,
                               help="byte budget of the worker state/tensor caches")
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
        "uploaded_bytes", "result_bytes", "result_refs_resolved",
        "shipped_bytes", "inline_equivalent_bytes",
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
    # schedulers / server sharding — live in the config's strategy
    # validation, not here.)
    if args.deadline is not None and args.scheduler != "deadline":
        raise SystemExit("--deadline only applies with --scheduler deadline")
    if args.buffer_size is not None and args.scheduler != "async":
        raise SystemExit("--buffer-size only applies with --scheduler async")
    if (args.public_choice is not None
            and not get_strategy_class(args.algorithm).uses_public_dataset):
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
        # surface here with the registry's uniform message.
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
        result = run_experiment(args.name, scale=args.scale, seed=args.seed,
                                backend=backend, output_dir=args.output_dir)
    finally:
        backend.shutdown()
    print(result["formatted"])
    if args.output_dir:
        print(f"\nper-variant JSON written to {args.output_dir}")
    return 0


def _cmd_list(_args: argparse.Namespace) -> int:
    print("strategies:")
    for name in strategy_names():
        caps = strategy_capabilities(name)
        flags = [f"schedulers={','.join(caps['supports_schedulers'])}"]
        if caps["supports_server_shards"]:
            flags.append("server-shards")
        if caps["uses_public_dataset"]:
            flags.append("public-dataset")
        print(f"  {name:15s} {caps['description']}")
        print(f"  {'':15s} [{'; '.join(flags)}]")
    print("\nexperiments:")
    for name in sorted(EXPERIMENTS):
        doc = (EXPERIMENTS[name].__doc__ or "").strip().splitlines()
        print(f"  {name:15s} {doc[0] if doc else ''}")
    print("\nscales: " + ", ".join(sorted(SCALES)))
    print("\nbackends:")
    for name, description in backend_descriptions().items():
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
