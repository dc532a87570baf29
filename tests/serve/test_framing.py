"""The shared JSON-lines framing layer (`repro.serve.framing`).

The query service and the multi-client server sit on this one module, so
these tests pin the contracts both inherit: line iteration with the EOF
final-line rule, and the unix-socket probe/refuse/unlink lifecycle.
"""

import io
import json
import socket
import threading

import pytest

from repro.serve.framing import (
    ProtocolError,
    bound_unix_socket,
    iter_request_lines,
    prepare_unix_socket_path,
)


# ----------------------------------------------------------------------
# iter_request_lines
# ----------------------------------------------------------------------
def test_final_unterminated_line_is_still_a_request():
    reader = io.StringIO('{"op": "a"}\n{"op": "b"}')
    assert list(iter_request_lines(reader)) == [
        '{"op": "a"}\n',
        '{"op": "b"}',
    ]


def test_plain_iterables_pass_through():
    lines = ['{"op": "a"}\n', '{"op": "b"}\n']
    assert list(iter_request_lines(iter(lines))) == lines


# ----------------------------------------------------------------------
# Unix socket lifecycle (probe / refuse / unlink-on-exit)
# ----------------------------------------------------------------------
def test_stale_socket_file_is_unlinked(tmp_path):
    path = str(tmp_path / "stale.sock")
    corpse = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    corpse.bind(path)
    corpse.close()  # bound but never listening -> probe is refused
    prepare_unix_socket_path(path)
    import os

    assert not os.path.exists(path)


def test_live_listener_refuses_takeover(tmp_path):
    path = str(tmp_path / "live.sock")
    with bound_unix_socket(path) as server:
        assert server.getsockname() == path
        with pytest.raises(ProtocolError, match="listening"):
            prepare_unix_socket_path(path)
        with pytest.raises(ProtocolError, match="listening"):
            with bound_unix_socket(path):
                pass  # pragma: no cover - refused before the yield


def test_bound_unix_socket_unlinks_on_every_exit_path(tmp_path):
    import os

    path = str(tmp_path / "w.sock")
    with bound_unix_socket(path):
        assert os.path.exists(path)
    assert not os.path.exists(path)

    with pytest.raises(RuntimeError, match="boom"):
        with bound_unix_socket(path):
            raise RuntimeError("boom")
    assert not os.path.exists(path)

    # A fresh bind works after both exits (no stale registration).
    with bound_unix_socket(path):
        assert os.path.exists(path)


def test_bound_unix_socket_accepts_connections(tmp_path):
    path = str(tmp_path / "echo.sock")
    replies = []

    def serve():
        with bound_unix_socket(path) as server:
            conn, _ = server.accept()
            with conn, conn.makefile("r") as r, conn.makefile("w") as w:
                request = json.loads(r.readline())
                w.write(json.dumps({"ok": True, "echo": request}) + "\n")

    thread = threading.Thread(target=serve)
    thread.start()
    try:
        for _ in range(200):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.connect(path)
                break
            except (ConnectionRefusedError, FileNotFoundError):
                sock.close()
                import time

                time.sleep(0.01)
        with sock, sock.makefile("r") as r, sock.makefile("w") as w:
            w.write(json.dumps({"op": "ping"}) + "\n")
            w.flush()
            replies.append(json.loads(r.readline()))
    finally:
        thread.join(timeout=5)
    assert replies == [{"ok": True, "echo": {"op": "ping"}}]


def test_service_error_is_the_shared_protocol_error():
    """The query service's ServiceError and the framing ProtocolError
    are one exception type — a hoisted raise is still caught by old
    handlers on both sides."""
    from repro.incremental.service import ServiceError

    assert ServiceError is ProtocolError
