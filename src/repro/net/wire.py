"""Wire protocol primitives for the multi-node transport.

Everything that crosses a socket in :mod:`repro.net` is a **length-prefixed
frame** holding one pickled message tuple — ``(op, *operands)`` requests and
``(status, *operands)`` replies.  Pickle keeps the protocol aligned with the
rest of the execution-backend stack (tasks and contexts are pickle
payloads); the obvious corollary is spelled out in the docs: unpickling
input is code execution, so the blob server must only talk to trusted
peers.  Bind it to localhost or a private cluster network, never the open
internet, and set a shared handshake secret (``tcp://...?secret=TOKEN`` /
``repro worker --secret TOKEN`` / ``REPRO_NET_SECRET``; ``process:N`` draws
its own).  A connection opens with one **hello frame** that is JSON, not a
pickle (:func:`hello_frame`): a server with a secret checks the token in it
before it unpickles anything, refuses every other first frame, and warns at
bind time when a non-loopback interface is served without a secret.

Parameter payloads do **not** travel as pickles.  A state dict or an
ordered array list is packed into one frame with :func:`pack_payload`: a
JSON header naming the container, the entry names and their sizes, then
each entry as :func:`pack_tensor` bytes (the ``.npy`` format — dtype,
shape, and memory order round-trip losslessly, which the bit-identity
contract requires).  :func:`unpack_payload` checks the header against the
frame before it decodes anything and never unpickles an entry.
"""

from __future__ import annotations

import io
import json
import pickle
import socket
import struct
import time
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "MAX_FRAME_BYTES",
    "FrameError",
    "AuthError",
    "hello_frame",
    "send_frame",
    "recv_frame",
    "send_msg",
    "recv_msg",
    "pack_tensor",
    "unpack_tensor",
    "pack_payload",
    "unpack_payload",
    "Connection",
    "parse_hostport",
]

#: Upper bound on a single frame (64 GiB) — a sanity check against reading
#: a garbage length prefix from a confused peer, not a tuning knob.
MAX_FRAME_BYTES = 64 * 1024 * 1024 * 1024

_HEADER = struct.Struct(">Q")


class FrameError(ConnectionError):
    """A malformed frame (a bad length prefix or payload header) arrived."""


class AuthError(RuntimeError):
    """The server refused a connection's hello (wrong or missing secret)."""


# --------------------------------------------------------------------------- #
# Framing
# --------------------------------------------------------------------------- #
def send_frame(sock: socket.socket, blob: bytes) -> None:
    """Write one length-prefixed frame."""
    sock.sendall(_HEADER.pack(len(blob)) + blob)


def _recv_exact(sock: socket.socket, size: int) -> bytes:
    chunks = []
    remaining = size
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError("peer closed the connection mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> bytes:
    """Read one length-prefixed frame; raises ``ConnectionError`` on EOF."""
    header = _recv_exact(sock, _HEADER.size)
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte bound")
    return _recv_exact(sock, length)


def send_msg(sock: socket.socket, message) -> None:
    """Pickle ``message`` into one frame."""
    send_frame(sock, pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL))


def recv_msg(sock: socket.socket):
    """Read and unpickle one frame."""
    return pickle.loads(recv_frame(sock))


def hello_frame(info: dict) -> bytes:
    """The handshake frame a connection opens with: ``info`` as JSON (a
    worker's pid, and the shared secret as ``token``), never a pickle."""
    return json.dumps(info, sort_keys=True).encode("utf-8")


# --------------------------------------------------------------------------- #
# Payload frames: lossless, pickle-free packing
# --------------------------------------------------------------------------- #
def pack_tensor(array: np.ndarray) -> bytes:
    """Pack one array into ``.npy`` bytes (dtype/shape/order round-trip)."""
    buffer = io.BytesIO()
    np.save(buffer, np.asarray(array), allow_pickle=False)
    return buffer.getvalue()


def unpack_tensor(blob: bytes) -> np.ndarray:
    """Invert :func:`pack_tensor`."""
    return np.load(io.BytesIO(blob), allow_pickle=False)


def pack_payload(payload) -> bytes:
    """Pack a state dict or an ordered array list into one frame: the
    length-prefixed JSON header, then each entry's :func:`pack_tensor` bytes."""
    if isinstance(payload, dict):
        container, names, arrays = "dict", list(payload), list(payload.values())
    else:
        container, arrays = "list", list(payload)
        names = [str(index) for index in range(len(arrays))]
    blobs = [pack_tensor(array) for array in arrays]
    header = json.dumps({"container": container, "names": names,
                         "sizes": [len(blob) for blob in blobs]}).encode("utf-8")
    return b"".join([_HEADER.pack(len(header)), header, *blobs])


def unpack_payload(blob: bytes):
    """Invert :func:`pack_payload`; raises :class:`FrameError` for a frame
    whose header does not describe it."""
    try:
        (length,) = _HEADER.unpack_from(blob)
        header = json.loads(blob[_HEADER.size:_HEADER.size + length])
        container, names, sizes = header["container"], header["names"], header["sizes"]
    except (struct.error, ValueError) as exc:
        raise FrameError(f"payload header is not JSON: {exc}") from None
    except (KeyError, TypeError) as exc:
        raise FrameError(f"payload header lacks a field: {exc}") from None
    if container not in ("dict", "list"):
        raise FrameError(f"unknown payload container {container!r}")
    if (not isinstance(names, list) or not isinstance(sizes, list)
            or len(names) != len(sizes) or not all(isinstance(name, str) for name in names)):
        raise FrameError("payload header needs one string name per entry size")
    start = _HEADER.size + length
    if (not all(isinstance(size, int) and size >= 0 for size in sizes)
            or start + sum(sizes) != len(blob)):
        raise FrameError(f"payload entry sizes do not add up to the "
                         f"{len(blob)}-byte frame")
    arrays = []
    for size in sizes:
        arrays.append(unpack_tensor(blob[start:start + size]))
        start += size
    if container == "dict":
        return dict(zip(names, arrays))
    return arrays


def parse_hostport(value: str, default_host: str = "127.0.0.1") -> Tuple[str, int]:
    """Parse ``HOST:PORT`` (host may be empty → ``default_host``)."""
    host, sep, port_text = value.rpartition(":")
    if not sep:
        raise ValueError(f"expected HOST:PORT, got {value!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"invalid port in {value!r}") from None
    if not 0 <= port <= 65535:
        raise ValueError(f"port out of range in {value!r}")
    return (host or default_host), port


# --------------------------------------------------------------------------- #
# Client-side connection with reconnect + retry/backoff
# --------------------------------------------------------------------------- #
class Connection:
    """A worker's request/response channel to the driver server.

    One socket, strictly sequential request → reply (the worker daemon is
    single-threaded, and blob fetches happen between task leases, so
    multiplexing buys nothing).  ``request`` transparently reconnects and
    retries with exponential backoff on transient socket failures — every
    server operation is idempotent (fetches are pure reads; result
    deliveries are keyed and tolerate replays), which is what makes
    blind retry safe.  With ``hello``, every (re)connect opens with that
    handshake; the server's reply is kept as :attr:`welcome`.
    """

    def __init__(self, host: str, port: int, *, retries: int = 5,
                 backoff: float = 0.05, connect_timeout: float = 10.0,
                 hello: Optional[dict] = None) -> None:
        self.host = host
        self.port = port
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.connect_timeout = float(connect_timeout)
        self.hello = hello
        self.welcome = None
        self._sock: Optional[socket.socket] = None

    # ------------------------------------------------------------------ #
    def connect(self, *, patience: Optional[float] = None) -> None:
        """Open the socket, waiting up to ``patience`` seconds for the
        server to start listening (workers may come up before the driver)."""
        deadline = time.monotonic() + (patience if patience is not None
                                       else self.connect_timeout)
        delay = self.backoff
        while True:
            try:
                sock = socket.create_connection((self.host, self.port), timeout=30.0)
                sock.settimeout(None)
                if self.hello is not None:
                    self.welcome = self._handshake(sock)
                self._sock = sock
                return
            except OSError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(delay)
                delay = min(delay * 2, 1.0)

    def _handshake(self, sock: socket.socket):
        try:
            send_frame(sock, hello_frame(self.hello))
            reply = recv_msg(sock)
        except BaseException:
            sock.close()
            raise
        if reply[0] != "welcome":
            sock.close()
            raise AuthError(reply[-1])
        return reply

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    # ------------------------------------------------------------------ #
    def request(self, message):
        """Send one request and return its reply, retrying with backoff."""
        delay = self.backoff
        for attempt in range(self.retries):
            if self._sock is None:
                try:
                    self.connect(patience=0.0)
                except OSError:
                    if attempt == self.retries - 1:
                        raise
                    time.sleep(delay)
                    delay *= 2
                    continue
            try:
                send_msg(self._sock, message)
                return recv_msg(self._sock)
            except (ConnectionError, OSError):
                self.close()
                if attempt == self.retries - 1:
                    raise
                time.sleep(delay)
                delay *= 2
        raise ConnectionError("unreachable")  # pragma: no cover

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()
