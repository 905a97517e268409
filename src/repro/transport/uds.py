"""Unix-domain-socket transport: the stream machinery bound to ``AF_UNIX``.

Same framing, pipelining, reliability, and session semantics as the TCP
transport (both are thin bindings of :mod:`repro.transport.stream`), but
over a filesystem socket: no TCP/IP stack, no checksums, no Nagle — on a
single host the kernel copies bytes between the two endpoints directly,
which is why a ``uds://`` round trip undercuts TCP loopback.

Address form is ``uds://<absolute path>``. Servers bind a path (a fresh
one under the system temp dir when none is given) and unlink it on
``stop()``; a stale path from a crashed predecessor is unlinked before
binding, matching how Unix daemons traditionally reclaim their sockets.
"""

from __future__ import annotations

import os
import socket
import tempfile
import uuid
from typing import Optional

from repro.errors import DeadlineExceededError, RetryableError, TransportError
from repro.transport.base import RequestHandler
from repro.transport.stream import (
    PipelinedStreamChannel,
    StreamChannel,
    StreamServer,
)


def _require_af_unix() -> None:
    """Fail with a clear message on platforms without Unix sockets."""
    if not hasattr(socket, "AF_UNIX"):
        raise TransportError(
            "uds:// transport requires AF_UNIX support (POSIX); "
            "this platform does not provide Unix domain sockets"
        )


def default_socket_path() -> str:
    """A fresh, collision-free socket path under the system temp dir.

    Kept short deliberately: ``sun_path`` is limited to ~108 bytes on
    Linux (104 on BSDs), so deep temp hierarchies are a real failure
    mode for Unix sockets.
    """
    return os.path.join(tempfile.gettempdir(), f"nrmi-{uuid.uuid4().hex[:12]}.sock")


def _dial_uds(path: str, timeout: Optional[float]) -> socket.socket:
    """A connected ``AF_UNIX`` stream socket, with stream-transport error
    mapping (timeout → deadline, refusal/absence → retryable)."""
    _require_af_unix()
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(timeout)
    try:
        sock.connect(path)
    except socket.timeout as exc:
        sock.close()
        raise DeadlineExceededError(f"connect to {path} timed out: {exc}") from exc
    except OSError as exc:
        sock.close()
        raise RetryableError(f"cannot connect to {path}: {exc}") from exc
    return sock


class UdsServer(StreamServer):
    """Serves a request handler over a Unix domain socket until stopped.

    Usable as a context manager::

        with UdsServer(handler) as server:
            channel = UdsChannel(server.path)

    With no *path*, a fresh socket under the temp dir is used and both
    the path attribute and :attr:`address` report where it landed.

    Keyword *server_options* pass through to :class:`StreamServer`:
    ``workers``, ``queue_capacity``, ``max_inflight_per_conn``,
    ``partial_read_timeout``, ``metrics``.
    """

    def __init__(
        self,
        handler: RequestHandler,
        path: Optional[str] = None,
        **server_options: object,
    ) -> None:
        _require_af_unix()
        self.path = path if path is not None else default_socket_path()
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            os.unlink(self.path)  # reclaim a stale socket from a dead server
        except OSError:
            pass
        try:
            sock.bind(self.path)
        except OSError as exc:
            sock.close()
            raise TransportError(f"cannot bind uds socket {self.path!r}: {exc}") from exc
        sock.listen(128)
        super().__init__(handler, sock, label="uds", **server_options)

    @property
    def address(self) -> str:
        return f"uds://{self.path}"

    def _on_stop(self) -> None:
        # The server invokes this only after the listener is closed, so
        # this unlink can never race a successor that already reclaimed
        # the path by binding it.
        try:
            os.unlink(self.path)
        except OSError:
            pass


class UdsChannel(StreamChannel):
    """Client channel over a single pooled Unix-socket connection."""

    def __init__(self, path: str, timeout: Optional[float] = 30.0) -> None:
        super().__init__(timeout=timeout)
        self.path = path

    def _open_socket(self, timeout: Optional[float]) -> socket.socket:
        return _dial_uds(self.path, timeout)

    def _describe(self) -> str:
        return self.path


class PipelinedUdsChannel(PipelinedStreamChannel):
    """A Unix-socket channel keeping many calls in flight on one
    connection; see :class:`repro.transport.stream.PipelinedStreamChannel`."""

    def __init__(self, path: str, timeout: Optional[float] = 30.0) -> None:
        super().__init__(label="uds", timeout=timeout)
        self.path = path

    def _open_socket(self, timeout: Optional[float]) -> socket.socket:
        return _dial_uds(self.path, timeout)

    def _describe(self) -> str:
        return self.path
