"""Shared-secret handshake: the wire deserializes pickles, so a server run
with a secret must refuse every op until the connection authenticates, and
must check the secret before it unpickles anything the peer sent."""

from __future__ import annotations

import pickle
import socket

import pytest

from repro.federated import make_backend
from repro.net.server import BlobServer, serve_in_thread
from repro.net.service import BlobService, Dispatcher
from repro.net.wire import AuthError, Connection, recv_msg, send_frame

pytestmark = pytest.mark.net

#: Appended to by unpickling a :class:`_Tripwire`.
_TRIPPED = []


class _Tripwire:
    """A pickle that leaves a mark in this process when it is loaded."""

    def __reduce__(self):
        return (_TRIPPED.append, ("unpickled",))


@pytest.fixture()
def secured_server():
    server = BlobServer(("127.0.0.1", 0), BlobService(), Dispatcher(),
                        secret="hunter2")
    thread = serve_in_thread(server)
    yield server
    server.close()
    thread.join(timeout=2.0)


def _connect(server) -> Connection:
    connection = Connection("127.0.0.1", server.port, retries=1)
    connection.connect()
    return connection


def test_op_before_hello_is_refused(secured_server):
    with _connect(secured_server) as connection:
        reply = connection.request(("stats",))
        assert reply[:2] == ("error", "AuthError")


def test_hello_with_wrong_token_is_refused(secured_server):
    with _connect(secured_server) as connection:
        reply = connection.request(("hello", {"pid": 1, "token": "wrong"}))
        assert reply[:2] == ("error", "AuthError")
        # The server hung up: nothing else gets through on this socket.
        with pytest.raises((ConnectionError, OSError)):
            connection.request(("stats",))


def test_hello_without_token_is_refused(secured_server):
    with _connect(secured_server) as connection:
        reply = connection.request(("hello", {"pid": 1}))
        assert reply[:2] == ("error", "AuthError")


def test_matching_token_authenticates_the_connection(secured_server):
    connection = Connection("127.0.0.1", secured_server.port, retries=1,
                            hello={"pid": 1, "token": "hunter2"})
    connection.connect()
    with connection:
        assert connection.welcome[0] == "welcome"
        assert connection.request(("ping",)) == ("ok",)
        assert connection.request(("stats",))[0] == "stats"


def test_hello_frame_with_wrong_token_raises_auth_error(secured_server):
    connection = Connection("127.0.0.1", secured_server.port, retries=1,
                            hello={"pid": 1, "token": "wrong"})
    with pytest.raises(AuthError, match="shared secret"):
        connection.connect()
    assert connection._sock is None


@pytest.mark.parametrize("first", ["pickle", "pickled hello"])
def test_nothing_is_unpickled_before_the_hello(secured_server, first):
    payload = _Tripwire() if first == "pickle" else ("hello", {"token": "hunter2",
                                                               "mark": _Tripwire()})
    with socket.create_connection(("127.0.0.1", secured_server.port)) as sock:
        send_frame(sock, pickle.dumps(payload))
        assert recv_msg(sock)[:2] == ("error", "AuthError")
    assert _TRIPPED == []


def test_server_without_secret_accepts_unauthenticated_ops():
    server = BlobServer(("127.0.0.1", 0), BlobService(), Dispatcher())
    thread = serve_in_thread(server)
    try:
        with _connect(server) as connection:
            assert connection.request(("ping",)) == ("ok",)
    finally:
        server.close()
        thread.join(timeout=2.0)


def test_non_loopback_bind_without_secret_warns():
    with pytest.warns(RuntimeWarning, match="without a shared secret"):
        server = BlobServer(("0.0.0.0", 0), BlobService(), Dispatcher())
    server.server_close()


def test_non_loopback_bind_with_secret_does_not_warn(recwarn):
    server = BlobServer(("0.0.0.0", 0), BlobService(), Dispatcher(),
                        secret="hunter2")
    server.server_close()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_process_backend_draws_its_own_secret():
    # process:N binds loopback, where any local user could connect: its
    # port must be as closed to them as tcp:// with a secret.
    backend = make_backend("process:1")
    assert backend.secret and backend.secret != make_backend("process:1").secret
    with backend:
        backend.start(None)
        connection = Connection("127.0.0.1", backend.port, retries=1)
        connection.connect()
        with connection:
            assert connection.request(("ping",))[:2] == ("error", "AuthError")
        assert backend.map(abs, [-2]) == [2]


def test_spawned_workers_inherit_the_spec_secret(monkeypatch):
    # End to end: a forked worker presents the spec's secret with nothing
    # in its environment to read it from, and real tasks run over the
    # authenticated connection.
    monkeypatch.delenv("REPRO_NET_SECRET", raising=False)
    backend = make_backend("tcp://:0?workers=1&secret=round-trip-token")
    assert backend.secret == "round-trip-token"
    with backend:
        backend.start(None)
        assert backend.map(abs, [-1, -2, -3]) == [1, 2, 3]
