"""``repro.net`` — execution in other processes, over the ``StateChannel`` seam.

A digest-keyed blob server hosted by the driver (:mod:`repro.net.server`),
a remote worker daemon (:mod:`repro.net.worker`, ``repro worker --connect``)
running the existing worker runtime against a network channel, and the
backends tying them into the execution-backend seam — ``tcp://``
(:class:`~repro.net.backend.RemoteBackend`) and ``process:N``
(:class:`~repro.net.backend.ProcessPoolBackend`, the same stack over
loopback) — same tasks, same content-addressed transport, bit-identical
histories.
"""

from .backend import ProcessPoolBackend, RemoteBackend, make_process_backend, make_tcp_backend
from .server import BlobServer, DriverChannel
from .service import BlobService, DispatchBatch, Dispatcher, RemoteTaskError
from .wire import (
    AuthError,
    Connection,
    pack_tensor,
    parse_hostport,
    tensor_digest,
    unpack_tensor,
)

# NOTE: repro.net.worker is intentionally NOT imported here — the worker
# daemon is launched as ``python -m repro.net.worker`` and importing it from
# the package __init__ would shadow that runpy entry point.

__all__ = [
    "RemoteBackend",
    "ProcessPoolBackend",
    "make_tcp_backend",
    "make_process_backend",
    "BlobServer",
    "DriverChannel",
    "BlobService",
    "Dispatcher",
    "DispatchBatch",
    "RemoteTaskError",
    "AuthError",
    "Connection",
    "pack_tensor",
    "unpack_tensor",
    "tensor_digest",
    "parse_hostport",
]
