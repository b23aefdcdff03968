"""Wire-protocol primitives: framing, tensor and payload codecs, address parsing."""

from __future__ import annotations

import io
import json
import socket
import threading

import numpy as np
import pytest

from repro.net.wire import (
    _HEADER,
    Connection,
    FrameError,
    pack_tensor,
    parse_hostport,
    recv_frame,
    recv_msg,
    send_frame,
    send_msg,
    unpack_payload,
    unpack_tensor,
)

pytestmark = pytest.mark.net


def test_frame_round_trip():
    left, right = socket.socketpair()
    try:
        send_frame(left, b"hello blobs")
        assert recv_frame(right) == b"hello blobs"
        send_msg(right, ("task", 7, {"nested": [1, 2]}))
        assert recv_msg(left) == ("task", 7, {"nested": [1, 2]})
    finally:
        left.close()
        right.close()


def test_recv_frame_raises_on_peer_close():
    left, right = socket.socketpair()
    left.close()
    try:
        with pytest.raises(ConnectionError):
            recv_frame(right)
    finally:
        right.close()


@pytest.mark.parametrize("array", [
    np.arange(12, dtype=np.float64).reshape(3, 4),
    np.asfortranarray(np.arange(12, dtype=np.float32).reshape(3, 4)),
    np.array([], dtype=np.int64),
    np.array(3.5),
])
def test_tensor_codec_is_lossless(array):
    restored = unpack_tensor(pack_tensor(array))
    np.testing.assert_array_equal(restored, array)
    assert restored.dtype == array.dtype
    assert restored.shape == array.shape


def _frame(header, body: bytes = b"") -> bytes:
    text = header if isinstance(header, bytes) else json.dumps(header).encode("utf-8")
    return _HEADER.pack(len(text)) + text + body


_ENTRY = pack_tensor(np.arange(3, dtype=np.float64))


@pytest.mark.parametrize("frame", [
    _frame(b"not json", _ENTRY),
    _frame({"container": "dict", "names": ["w"]}, _ENTRY),
    _frame({"container": "set", "names": ["w"], "sizes": [len(_ENTRY)]}, _ENTRY),
    _frame({"container": "dict", "names": ["w", "b"], "sizes": [len(_ENTRY)]}, _ENTRY),
    _frame({"container": "dict", "names": ["w"], "sizes": [len(_ENTRY) + 1]}, _ENTRY),
    _frame({"container": "dict", "names": [["w"]], "sizes": [len(_ENTRY)]}, _ENTRY),
    b"\x00\x00\x00",
], ids=["not-json", "missing-field", "unknown-container", "names-vs-sizes",
        "sizes-vs-frame", "non-string-name", "shorter-than-prefix"])
def test_unpack_payload_rejects_frames_its_header_does_not_describe(frame):
    with pytest.raises(FrameError):
        unpack_payload(frame)


def test_unpack_payload_never_unpickles_an_entry():
    well_formed = _frame({"container": "list", "names": ["0"], "sizes": [len(_ENTRY)]},
                         _ENTRY)
    assert unpack_payload(well_formed)[0].tolist() == [0.0, 1.0, 2.0]
    pickled = io.BytesIO()
    np.save(pickled, np.array([{"x": 1}], dtype=object), allow_pickle=True)
    pickled = pickled.getvalue()
    with pytest.raises(ValueError, match="allow_pickle"):
        unpack_payload(_frame({"container": "dict", "names": ["o"],
                               "sizes": [len(pickled)]}, pickled))


def test_parse_hostport():
    assert parse_hostport("example.org:5000") == ("example.org", 5000)
    assert parse_hostport(":5000") == ("127.0.0.1", 5000)
    with pytest.raises(ValueError):
        parse_hostport("no-port")
    with pytest.raises(ValueError):
        parse_hostport("host:not-a-port")
    with pytest.raises(ValueError):
        parse_hostport("host:99999")


def test_connection_retries_until_server_listens():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()  # free the port; the server thread rebinds it shortly

    def serve_one():
        server = socket.socket()
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind(("127.0.0.1", port))
        server.listen(1)
        conn, _ = server.accept()
        send_msg(conn, ("pong",))
        conn.close()
        server.close()

    thread = threading.Thread(target=serve_one, daemon=True)
    connection = Connection("127.0.0.1", port, backoff=0.01)
    # Start connecting before the listener exists: connect() must wait.
    thread.start()
    connection.connect(patience=5.0)
    try:
        assert connection._sock is not None
        send_msg(connection._sock, ("ping",))
        assert recv_msg(connection._sock) == ("pong",)
    finally:
        connection.close()
        thread.join(timeout=5.0)
