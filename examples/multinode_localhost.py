"""Multi-node FedZKT on localhost: one driver, two worker daemons, tcp://.

The ``tcp://`` backend splits a federated run across worker processes that
talk to the driver over real sockets — the same path that spans machines.
Two ways to wire it up:

**Local workers (this script).**  ``tcp://:0?workers=2`` binds the blob
server to an OS-assigned port and forks two localhost worker daemons from
the driver; the run is otherwise identical to ``--backend serial``
(bit-identical history, by design).  The CLI equivalent::

    repro run mnist --backend "tcp://:0?workers=2" --transport-stats

**External workers (multiple terminals / machines).**  Pick a fixed port,
point workers at it, then start the driver with no local workers::

    # terminal 1 + 2 (or other machines that can reach the driver):
    repro worker --connect 127.0.0.1:7000

    # terminal 3:
    repro run mnist --backend tcp://:7000

Workers reconnect with backoff, so starting them before or after the
driver both work; a worker killed mid-round has its leased tasks
re-dispatched to the survivors.

Run with:  python examples/multinode_localhost.py [--rounds N] [--workers N]
"""

import argparse

from repro.core import build_fedzkt
from repro.datasets import load_dataset
from repro.federated import FederatedConfig, ServerConfig, make_backend
from repro.utils import Timer


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="FedZKT across localhost worker daemons")
    parser.add_argument("--rounds", type=int, default=2,
                        help="communication rounds (default: 2)")
    parser.add_argument("--workers", type=int, default=2,
                        help="localhost worker daemons forked from the driver (default: 2)")
    args = parser.parse_args(argv)

    train, test = load_dataset("mnist", train_size=600, test_size=200, seed=0)
    config = FederatedConfig(
        num_devices=4,
        rounds=args.rounds,
        local_epochs=1,
        batch_size=32,
        device_lr=0.05,
        server=ServerConfig(distillation_iterations=10, batch_size=16,
                            global_lr=0.05, device_distill_lr=0.02),
    )

    spec = f"tcp://:0?workers={args.workers}"
    print(f"backend: {spec} (blob server on an OS-assigned port, "
          f"{args.workers} forked worker daemons)")
    backend = make_backend(spec)
    with backend:
        with build_fedzkt(train, test, config, family="small",
                          backend=backend) as simulation:
            with Timer("training") as timer:
                history = simulation.run(verbose=True)
        stats = backend.transport_stats()

    print(f"\nfinished in {timer.elapsed:.1f}s across "
          f"{stats['workers_connected']} workers")
    print("Global-model accuracy per round:",
          [f"{acc:.3f}" for acc in history.global_accuracy_curve()])
    print(f"state published {stats['published_bytes']:,} B "
          f"(delta-encoded), fetched {stats['fetched_bytes']:,} B; "
          f"context {stats['context_published_bytes']:,} B published, "
          f"{stats['context_bytes']:,} B fetched; "
          f"tasks {stats['task_bytes']:,} B")


if __name__ == "__main__":
    main()
