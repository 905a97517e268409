"""Shared machinery for byte-stream transports (TCP, Unix sockets, shm).

Everything above the socket — framing auto-detection, serving, graceful
drain-then-force-close shutdown, the pooled client channel, and the
multi-call-in-flight pipelined channel — is identical whether bytes
travel over ``AF_INET``, ``AF_UNIX`` or a shared-memory ring pair. This
module holds that machinery once; :mod:`repro.transport.tcp`,
:mod:`repro.transport.uds` and :mod:`repro.transport.shm` supply only the
endpoint-specific pieces: how a listener is bound, how a client socket
is opened, how the endpoint is named in addresses and errors.

The server core (:class:`StreamServer`) is the model of classic RMI's
connection handling — one thread per accepted connection — with the
execution stage split off into a bounded worker pool:

* an **accept thread** takes connections off the listener;
* one **reader thread per connection** detects its framing (plain or
  pipelined) and reads frames with blocking reads;
* a bounded job queue feeds ``workers`` **worker threads**, which run
  the handler and write each reply under the connection's write lock.

Overload behaviour is explicit policy, not an accident of threading:

* **bounded queue** — at most ``queue_capacity`` requests wait for a
  worker. A request arriving at a full queue is answered at once with
  the two-byte BUSY frame from its reader thread — the payload is never
  deserialized, so shedding stays O(1) however large the rejected call
  was.
* **per-connection in-flight cap** — a connection may have at most one
  unanswered frame under plain framing (replies must leave in request
  order) and ``max_inflight_per_conn`` under pipelined framing. The cap
  holds by blocking that connection's reader, so unread bytes back up
  into the kernel socket buffers of that one client.
* **partial-frame deadline** — once a frame is half read, each further
  read must make progress within ``partial_read_timeout`` or the
  connection is reaped (slow-loris). Only a frame boundary with nothing
  buffered may wait longer: an idle connection is never reaped.
* **reply-write deadline** — a reply must be written within the same
  ``partial_read_timeout``, or the connection is reaped as stalled: a
  client that stops reading its replies cannot pin a worker. ``None``
  switches both deadlines off.
* **graceful drain** — ``stop(grace)`` closes the listener and answers
  every new frame with BUSY(draining); queued and executing work gets
  *grace* seconds to finish and flush. Past the deadline whatever is
  still queued is rejected with BUSY and connections are closed. Every
  accepted connection ends with a reply, a BUSY, or a clean close.

The BUSY frame is the one protocol byte this layer emits itself
(:func:`repro.rmi.protocol.busy_response` — status ``BUSY`` + reason),
the transport-level analogue of an HTTP 503 sent by the listener.

The plain client channel keeps one connection and serializes requests
over it with a lock; the pipelined channel keeps many calls in flight on
one connection, demultiplexed by correlation id. Neither ever resends on
its own: a broken exchange surfaces as
:class:`~repro.errors.RetryableError` and only the retry layer
(:mod:`repro.transport.reliability`), which stamps a call ID the server
can deduplicate, may send the same request twice.
"""

from __future__ import annotations

import collections
import itertools
import socket
import struct
import threading
import time
from typing import Deque, Dict, Optional

from repro.errors import (
    DeadlineExceededError,
    RetryableError,
    ServerBusyError,
    TransportError,
)
from repro.rmi.protocol import busy_response
from repro.serde.schema import SchemaSession
from repro.transport.base import (
    Channel,
    RequestHandler,
    TransportSession,
    call_handler,
)
from repro.transport.framing import (
    MAX_FRAME_BYTES,
    PIPELINE_MAGIC,
    PIPELINE_PREAMBLE,
    PIPELINE_VERSION,
    read_frame,
    read_frame_corr,
    write_frame,
    write_frame_corr,
)
from repro.util.metrics import Gauge, MetricsRegistry

__all__ = [
    "StreamServer",
    "StreamChannel",
    "PipelinedStreamChannel",
]

_LEN = struct.Struct(">I")
_HEADER = _LEN.size
_CORR_HEADER = struct.Struct(">II")

#: Bytes a reader asks for per read: one syscall usually brings a whole
#: small frame (header included); larger payloads are read in place.
_RECV_CHUNK = 64 * 1024

_BUSY_QUEUE_FULL = busy_response(ServerBusyError.QUEUE_FULL)
_BUSY_DRAINING = busy_response(ServerBusyError.DRAINING)


class _Stalled(Exception):
    """A half-read frame made no progress within the partial-read deadline."""


class _BoundedJobQueue:
    """The stage boundary: readers push without blocking, workers block
    to pop. Capacity is the overload-policy knob, not a guess."""

    def __init__(self, capacity: int, depth_gauge, active_gauge) -> None:
        self._capacity = capacity
        self._items: Deque[tuple] = collections.deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._closed = False
        self._active = 0
        self._depth_gauge = depth_gauge
        self._active_gauge = active_gauge

    def try_push(self, job: tuple) -> bool:
        """Admit *job* unless the queue is full or closed; never blocks."""
        with self._lock:
            if self._closed or len(self._items) >= self._capacity:
                return False
            self._items.append(job)
            self._depth_gauge.set(len(self._items))
            self._not_empty.notify()
            return True

    def pop(self) -> Optional[tuple]:
        """Blocking take for workers; None once closed and empty."""
        with self._not_empty:
            while not self._items and not self._closed:
                self._not_empty.wait()
            if not self._items:
                return None
            job = self._items.popleft()
            self._active += 1
            self._depth_gauge.set(len(self._items))
            self._active_gauge.set(self._active)
            return job

    def task_done(self) -> None:
        with self._lock:
            self._active -= 1
            self._active_gauge.set(self._active)

    def drain(self) -> list:
        """Remove and return every not-yet-started job (drain rejection)."""
        with self._lock:
            items = list(self._items)
            self._items.clear()
            self._depth_gauge.set(0)
            return items

    def close(self) -> None:
        with self._not_empty:
            self._closed = True
            self._not_empty.notify_all()


class _Connection:
    """One accepted connection, shared by its reader thread, the workers
    answering its frames, and ``stop``.

    ``state`` guards ``pending`` (frames read but not yet answered),
    ``reading`` and ``closed``; ``write_lock`` keeps concurrent replies
    from interleaving. The socket is *shut down* (every blocked reader
    and writer wakes) as soon as the connection is done, but *closed* —
    its descriptor freed for reuse — only once nothing can touch it: the
    reader has exited and every frame it read is answered.
    """

    __slots__ = (
        "sock",
        "session",
        "zero_copy",
        "state",
        "write_lock",
        "pending",
        "reading",
        "closed",
        "reader",
    )

    def __init__(self, sock) -> None:
        self.sock = sock
        # Schema rx cache etc.: dies with the socket, shared by every
        # worker executing this connection's frames (thread-safe inside).
        self.session = TransportSession()
        #: Requests arrive as borrowed ring records (shm, plain framing).
        self.zero_copy = False
        self.state = threading.Condition(threading.Lock())
        self.write_lock = threading.Lock()
        self.pending = 0
        self.reading = True
        self.closed = False
        self.reader: Optional[threading.Thread] = None


class _FrameReader:
    """Buffered exact reads for one connection's reader thread.

    The connection's timeout is ``partial_read_timeout`` throughout. A
    read that times out at a frame boundary with nothing buffered is an
    idle connection, and simply waits again; a timeout anywhere else —
    the rest of a header, a payload — raises :class:`_Stalled`.
    """

    def __init__(self, sock) -> None:
        self._sock = sock
        self._chunk = bytearray(_RECV_CHUNK)
        self._view = memoryview(self._chunk)
        self._buf = bytearray()

    @property
    def buffered(self) -> bool:
        return bool(self._buf)

    def read(self, count: int, boundary: bool = False) -> Optional[bytearray]:
        """Exactly *count* bytes; None when the peer closed first.

        *boundary* marks the first read of a frame: it alone may wait
        for the peer past the deadline.
        """
        buf = self._buf
        while len(buf) < count:
            if count - len(buf) >= _RECV_CHUNK:
                return self._read_large(count)
            got = self._recv(self._view, idle=boundary and not buf)
            if not got:
                return None
            buf += self._view[:got]
        out = buf[:count]
        del buf[:count]
        return out

    def _read_large(self, count: int) -> Optional[bytearray]:
        """A payload too big for read-ahead: receive it in place."""
        out = bytearray(count)
        have = len(self._buf)
        out[:have] = self._buf
        self._buf.clear()
        view = memoryview(out)
        while have < count:
            got = self._recv(view[have:])
            if not got:
                return None
            have += got
        return out

    def _recv(self, view, idle: bool = False) -> int:
        while True:
            try:
                return self._sock.recv_into(view)
            except socket.timeout as exc:
                if not idle:
                    raise _Stalled() from exc


def _frame_length(header) -> int:
    (length,) = _LEN.unpack_from(header)
    if length > MAX_FRAME_BYTES:
        raise TransportError(f"peer announced oversized frame: {length} bytes")
    return length


class StreamServer:
    """Serves a request handler over a stream socket until stopped.

    Subclasses pass an already-bound, listening socket plus a *label*
    used for thread naming, and implement :attr:`address` (the string a
    resolver can dial) plus optionally :meth:`_configure_connection`
    (per-accepted-socket options), :meth:`_wrap_accepted` (turn an
    accepted socket into the connection's duplex) and :meth:`_on_stop`
    (endpoint cleanup, e.g. unlinking a Unix socket path — called only
    after the listener is closed, so a successor reclaiming the endpoint
    can never be unlinked by a late stop).
    """

    #: Default seconds ``stop()`` lets in-flight work drain.
    STOP_GRACE_SECONDS = 2.0
    #: Default worker threads executing requests.
    DEFAULT_WORKERS = 8
    #: Default bounded job-queue capacity (requests awaiting a worker).
    DEFAULT_QUEUE_CAPACITY = 64
    #: Default cap on frames admitted but not yet answered per connection.
    DEFAULT_MAX_INFLIGHT_PER_CONN = 64
    #: Default seconds a half-read frame may go without progress.
    DEFAULT_PARTIAL_READ_TIMEOUT = 30.0

    def __init__(
        self,
        handler: RequestHandler,
        sock: socket.socket,
        label: str,
        *,
        workers: int = DEFAULT_WORKERS,
        queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
        max_inflight_per_conn: int = DEFAULT_MAX_INFLIGHT_PER_CONN,
        partial_read_timeout: Optional[float] = DEFAULT_PARTIAL_READ_TIMEOUT,
        metrics: Optional[MetricsRegistry] = None,
        zero_copy: bool = True,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1, got {queue_capacity}"
            )
        if max_inflight_per_conn < 1:
            raise ValueError(
                f"max_inflight_per_conn must be >= 1, got {max_inflight_per_conn}"
            )
        self._handler = handler
        self._sock = sock
        self._label = label
        self._max_inflight = max_inflight_per_conn
        self._partial_read_timeout = partial_read_timeout
        #: Serve zero-copy-capable duplexes (shm) through borrowed ring
        #: records. Off = every request is copied out of the ring
        #: (ablation / copy-vs-zero-copy bench rows).
        self._zero_copy = zero_copy
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._accepted_counter = self.metrics.counter("server.connections.accepted")
        self._shed_counter = self.metrics.counter("server.shed.queue_full")
        self._drain_shed_counter = self.metrics.counter("server.shed.draining")
        self._jobs_counter = self.metrics.counter("server.jobs.submitted")
        self._stalled_counter = self.metrics.counter(
            "server.connections.reaped_stalled"
        )
        self._jobs = _BoundedJobQueue(
            queue_capacity,
            self.metrics.gauge("server.queue_depth"),
            self.metrics.gauge("server.workers.active"),
        )
        self._conns_lock = threading.Lock()
        self._conns: set = set()
        #: Set once by ``stop()``: new frames get BUSY(draining).
        self._draining = threading.Event()
        self._stopped = threading.Event()
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name=f"{label}-worker-{index}",
                daemon=True,
            )
            for index in range(workers)
        ]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"{label}-accept", daemon=True
        )
        for thread in self._workers:
            thread.start()
        self._accept_thread.start()

    # --------------------------------------------------- subclass surface

    @property
    def address(self) -> str:
        raise NotImplementedError

    def _configure_connection(self, conn: socket.socket) -> None:
        """Per-connection socket options (e.g. TCP_NODELAY); default none."""

    def _wrap_accepted(self, conn: socket.socket):
        """Turn a freshly accepted socket into the connection's duplex.

        The default serves the socket itself; a non-socket carrier (the
        shm transport) overrides this to run its handshake and return a
        socket-shaped duplex instead. Runs on the connection's reader
        thread; raise ``OSError`` to reject the connection.
        """
        self._configure_connection(conn)
        return conn

    def _on_stop(self) -> None:
        """Endpoint cleanup after the listener closes; default none."""

    @property
    def live_connections(self) -> int:
        """Connections currently being served (reaped handles excluded)."""
        with self._conns_lock:
            return len(self._conns)

    # ------------------------------------------------------ accept thread

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _peer = self._sock.accept()
            except OSError:
                if self._draining.is_set():
                    return  # listener shut down by stop()
                time.sleep(0.01)  # EMFILE, ECONNABORTED: keep serving
                continue
            connection = _Connection(conn)
            connection.reader = threading.Thread(
                target=self._read_loop,
                args=(connection,),
                name=f"{self._label}-conn",
                daemon=True,
            )
            # Registered here, not by the reader, so that once stop() has
            # joined this thread its snapshot of connections is complete.
            with self._conns_lock:
                admitted = not self._draining.is_set()
                if admitted:
                    self._conns.add(connection)
            if not admitted:
                conn.close()  # raced the listener close: a clean refusal
                continue
            self._accepted_counter.add()
            connection.reader.start()

    # ------------------------------------------------------ reader thread

    def _read_loop(self, connection: _Connection) -> None:
        try:
            connection.sock = self._wrap_accepted(connection.sock)
            # One deadline for every read and write on this connection:
            # it reaps half-read frames and replies the peer never reads.
            connection.sock.settimeout(self._partial_read_timeout)
            connection.zero_copy = self._zero_copy and bool(
                getattr(connection.sock, "zero_copy_capable", False)
            )
            self._read_frames(connection)
        except _Stalled:
            self._stalled_counter.add()
        except (OSError, TransportError):
            pass  # peer gone, handshake failed, or framing violated
        finally:
            self._shut(connection)
            self._settle(connection, reader_exit=True)

    def _read_frames(self, connection: _Connection) -> None:
        """Plain framing, after auto-detecting it on the first header.

        A pipelined client opens with the 8-byte preamble; interpreted as
        a length header its first four bytes would announce an illegally
        oversized frame, so plain clients can never collide with it.
        """
        reader = _FrameReader(connection.sock)
        first = True
        while True:
            if connection.zero_copy and not reader.buffered:
                served = self._serve_borrowed(connection)
                if served is not None:
                    if not served:
                        return
                    first = False
                    continue
            header = reader.read(_HEADER, boundary=True)
            if header is None:
                return
            if first and header == PIPELINE_MAGIC:
                if reader.read(_HEADER) == PIPELINE_VERSION:
                    self._read_pipelined(connection, reader)
                return  # an unknown pipeline revision is dropped
            first = False
            payload = reader.read(_frame_length(header))
            if payload is None or not self._admit(connection, None, payload, 1):
                return

    def _read_pipelined(self, connection: _Connection, reader: _FrameReader) -> None:
        cap = self._max_inflight
        while True:
            header = reader.read(_CORR_HEADER.size, boundary=True)
            if header is None:
                return
            corr_id = _CORR_HEADER.unpack(header)[1]
            payload = reader.read(_frame_length(header))
            if payload is None or not self._admit(connection, corr_id, payload, cap):
                return

    def _serve_borrowed(self, connection: _Connection) -> Optional[bool]:
        """Zero-copy request path: hand a worker the borrowed ring record.

        Returns None when the next record is not exactly one whole frame
        (the pipelined preamble, a split or oversized frame, EOF) — it is
        left in the ring for the copying reader. Otherwise the frame is
        admitted, and the borrow is consumed only once it is answered,
        so the rx ring keeps one consumer: this thread. False means the
        connection closed meanwhile.
        """
        sock = connection.sock
        while True:
            try:
                payload = sock.recv_frame_borrow()
                break
            except socket.timeout:
                continue  # idle: records arrive whole, nothing is half read
        if payload is None:
            return None
        if not self._admit(connection, None, payload, 1):
            return False
        state = connection.state
        with state:
            while connection.pending and not connection.closed:
                state.wait()
            if connection.closed:
                # A worker may still be decoding the view: leave the span
                # unconsumed rather than let the peer overwrite it.
                return False
        sock.consume_borrow(_HEADER + len(payload))
        return True

    def _admit(self, connection: _Connection, corr_id, payload, cap: int) -> bool:
        """Queue one frame for the workers, or answer it with BUSY.

        Blocks while the connection already has *cap* frames unanswered;
        False when the connection closed instead.
        """
        state = connection.state
        with state:
            connection.pending += 1
            while connection.pending > cap and not connection.closed:
                state.wait()
            if connection.closed:
                connection.pending -= 1
                return False
        if self._draining.is_set():
            self._drain_shed_counter.add()
            self._answer(connection, corr_id, _BUSY_DRAINING)
        elif self._jobs.try_push((connection, corr_id, payload)):
            self._jobs_counter.add()
        else:
            # Load shedding: the payload is never deserialized; the
            # two-byte BUSY frame is the entire cost of rejection.
            self._shed_counter.add()
            self._answer(connection, corr_id, _BUSY_QUEUE_FULL)
        return True

    # ------------------------------------------------------ worker threads

    def _worker_loop(self) -> None:
        jobs = self._jobs
        handler = self._handler
        completed = self.metrics.counter("server.jobs.completed")
        while True:
            job = jobs.pop()
            if job is None:
                return
            connection, corr_id, payload = job
            try:
                response = call_handler(handler, payload, connection.session)
            except Exception:  # noqa: BLE001 - handler must not kill server
                # The RMI dispatcher encodes application errors itself;
                # anything escaping to here is a protocol bug, and the
                # only safe move is dropping the connection.
                self._shut(connection)
                self._settle(connection)
            else:
                self._answer(connection, corr_id, response)
            completed.add()
            jobs.task_done()

    # ------------------------------------------------- shared connection ops

    def _answer(self, connection: _Connection, corr_id, payload) -> None:
        """Write one reply frame, then release the frame's in-flight slot."""
        sock = connection.sock
        try:
            with connection.write_lock:
                if corr_id is not None:
                    write_frame_corr(sock, corr_id, payload)
                elif connection.zero_copy and len(payload) <= MAX_FRAME_BYTES:
                    try:
                        # One contiguous ring record: what lets the client
                        # decode the reply off a borrowed slice.
                        sock.send_frame(_LEN.pack(len(payload)), payload)
                    except BlockingIOError:
                        write_frame(sock, payload)
                else:
                    write_frame(sock, payload)
        except DeadlineExceededError:
            # The peer stopped reading: reap it rather than let its
            # reply pin this worker (and the write lock) indefinitely.
            self._stalled_counter.add()
            self._shut(connection)
        except (OSError, TransportError):
            self._shut(connection)
        self._settle(connection)

    def _settle(self, connection: _Connection, reader_exit: bool = False) -> None:
        """Release one frame's slot (or the reader's hold); the last
        holder closes the socket and unregisters the connection."""
        state = connection.state
        with state:
            if reader_exit:
                connection.reading = False
            else:
                connection.pending -= 1
                state.notify()
            last = not connection.reading and not connection.pending
            if last:
                connection.closed = True
                try:
                    connection.sock.close()
                except OSError:
                    pass
        if last:
            with self._conns_lock:
                self._conns.discard(connection)

    def _shut(self, connection: _Connection) -> None:
        """Wake everything blocked on the connection; new I/O fails."""
        with connection.state:
            if connection.closed:
                return
            connection.closed = True
            connection.state.notify()
            try:
                connection.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def _unanswered(self) -> int:
        with self._conns_lock:
            return sum(connection.pending for connection in self._conns)

    # ------------------------------------------------------------- stop

    def stop(self, grace: Optional[float] = None) -> None:
        """Stop accepting, drain in-flight work, then force-close.

        Queued and executing requests get *grace* seconds (default
        :attr:`STOP_GRACE_SECONDS`) to finish and flush; frames arriving
        meanwhile are answered with BUSY(draining). Whatever is still
        queued at the deadline is rejected with BUSY, then every
        connection is closed. The UDS-path unlink (and any other
        :meth:`_on_stop` cleanup) runs strictly after the listener is
        closed.
        """
        if grace is None:
            grace = self.STOP_GRACE_SECONDS
        with self._conns_lock:
            first = not self._draining.is_set()
            self._draining.set()
        if not first:
            self._stopped.wait(grace)
            return
        try:
            self._sock.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept
        except OSError:
            pass
        self._sock.close()
        self._accept_thread.join(timeout=grace)
        deadline = time.monotonic() + grace
        while self._unanswered() and time.monotonic() < deadline:
            time.sleep(0.005)
        forced = bool(self._unanswered())
        if forced:
            rejected = self._jobs.drain()
            for connection, corr_id, _payload in rejected:
                self._drain_shed_counter.add()
                self._answer(connection, corr_id, _BUSY_DRAINING)
            if rejected:
                self.metrics.counter("server.drain.rejected").add(len(rejected))
        self._jobs.close()
        with self._conns_lock:
            connections = list(self._conns)
        for connection in connections:
            self._shut(connection)
        join_by = time.monotonic() + 1.0
        for connection in connections:
            if connection.reader.is_alive():
                connection.reader.join(timeout=max(0.0, join_by - time.monotonic()))
        for thread in self._workers:
            # Workers stuck in a runaway handler are daemons; don't hang
            # shutdown on them.
            thread.join(timeout=0.5)
        with self._conns_lock:
            # A runaway handler's connection is shut, not served.
            self._conns.clear()
        self.metrics.counter(
            "server.drain.forced" if forced else "server.drain.graceful"
        ).add()
        self._on_stop()
        self._stopped.set()

    def __enter__(self) -> "StreamServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


class StreamChannel(Channel):
    """Client channel over a single pooled stream connection.

    Subclasses implement :meth:`_open_socket` (dial the endpoint and
    apply per-socket options) and :meth:`_describe` (the endpoint as it
    should read in error messages).
    """

    def __init__(self, timeout: Optional[float] = 30.0) -> None:
        super().__init__()
        self._timeout = timeout
        self._lock = threading.Lock()
        self._sock: Optional[socket.socket] = None
        # Schema-cache negotiation state; reset whenever the pooled
        # connection drops so the next connection renegotiates from zero.
        self.schema_session = SchemaSession()

    def _open_socket(self, timeout: Optional[float]) -> socket.socket:
        """A connected socket, or :class:`DeadlineExceededError` /
        :class:`RetryableError` describing why dialing failed."""
        raise NotImplementedError

    def _describe(self) -> str:
        raise NotImplementedError

    def _connect(self, timeout: Optional[float] = None) -> socket.socket:
        if self._sock is None:
            connect_timeout = timeout if timeout is not None else self._timeout
            sock = self._open_socket(connect_timeout)
            # Dialing may leave the connect timeout on the socket;
            # per-request deadlines are applied by the framing layer.
            sock.settimeout(self._timeout)
            self._sock = sock
        return self._sock

    def request(self, payload: bytes, timeout: Optional[float] = None) -> bytes:
        """One request/response exchange; *never* resends on failure.

        A broken pooled connection surfaces as
        :class:`~repro.errors.RetryableError` — the connection is dropped
        so the next attempt reconnects, but resending is the retry
        layer's decision (it attaches a call ID so the server can
        deduplicate). A blind resend here would silently run
        non-idempotent methods twice.
        """
        with self._lock:
            sock = self._connect(timeout)
            try:
                write_frame(sock, payload, timeout=timeout)
                response = read_frame(sock, timeout=timeout)
            except TransportError:
                self._drop_connection()
                raise
            finally:
                if timeout is not None and self._sock is not None:
                    # Restore the pooled connection's default timeout so a
                    # later deadline-free request does not inherit ours.
                    try:
                        self._sock.settimeout(self._timeout)
                    except OSError:
                        pass
            self.stats.record(sent=len(payload), received=len(response))
            return response

    def _drop_connection(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
            # The server's per-connection schema cache died with the
            # socket: forget ours too so nothing references stale ids.
            self.schema_session.reset()

    def close(self) -> None:
        with self._lock:
            self._drop_connection()


class _PendingReply:
    """One in-flight call's rendezvous with the reader thread."""

    __slots__ = ("event", "response", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.response: Optional[bytearray] = None
        self.error: Optional[Exception] = None


class PipelinedStreamChannel(Channel):
    """A stream channel keeping many calls in flight on one connection.

    Where :class:`StreamChannel` serializes callers behind a lock for the
    whole request/response exchange, this channel only serializes the
    *send*; a background reader thread demultiplexes replies to their
    callers by the correlation id every frame carries. Concurrent callers
    therefore share one connection without head-of-line blocking — a
    sparse delta reply overtakes a bulky full-map reply still streaming
    out of the server.

    Correlation ids are a transport concern and deliberately distinct
    from the RMI layer's at-most-once call IDs: they tag *frames* on one
    connection (every operation, PING and FIELD_GET included), while call
    IDs identify *calls* across connections and retries.

    Failure semantics match :class:`StreamChannel`: a broken connection
    fails every pending call with :class:`~repro.errors.RetryableError`
    and the next request reconnects; this channel never resends.

    Subclasses implement :meth:`_open_socket` / :meth:`_describe` as for
    :class:`StreamChannel`, plus *label* for thread/gauge naming.
    """

    def __init__(self, label: str, timeout: Optional[float] = 30.0) -> None:
        super().__init__()
        self._label = label
        self._timeout = timeout
        self._state_lock = threading.Lock()
        self._send_lock = threading.Lock()
        self._sock: Optional[socket.socket] = None
        self._pending: Dict[int, _PendingReply] = {}
        self._corr = itertools.count(1)
        # Schema-cache negotiation state; reset whenever the shared
        # connection fails so the next connection renegotiates from zero.
        self.schema_session = SchemaSession()
        #: Peak number of simultaneously in-flight calls (observability).
        self.max_in_flight = 0
        #: Live gauge of calls currently awaiting replies.
        self.in_flight_gauge = Gauge(f"{label}.pipelined.in_flight")

    def _open_socket(self, timeout: Optional[float]) -> socket.socket:
        raise NotImplementedError

    def _describe(self) -> str:
        raise NotImplementedError

    def _ensure_connected(self, timeout: Optional[float]) -> socket.socket:
        with self._state_lock:
            if self._sock is not None:
                return self._sock
            connect_timeout = timeout if timeout is not None else self._timeout
            sock = self._open_socket(connect_timeout)
            # The reader thread blocks in recv with no socket timeout;
            # per-call deadlines are enforced on the caller's event wait
            # instead, so a slow call never breaks the shared connection.
            sock.settimeout(None)
            try:
                sock.sendall(PIPELINE_PREAMBLE)
            except OSError as exc:
                try:
                    sock.close()
                except OSError:
                    pass
                raise RetryableError(f"pipeline handshake failed: {exc}") from exc
            self._sock = sock
            reader = threading.Thread(
                target=self._read_loop,
                args=(sock,),
                name=f"{self._label}-pipe-reader",
                daemon=True,
            )
            reader.start()
            return sock

    def _read_loop(self, sock: socket.socket) -> None:
        try:
            while True:
                corr_id, frame = read_frame_corr(sock)
                with self._state_lock:
                    waiter = self._pending.pop(corr_id, None)
                    self.in_flight_gauge.set(len(self._pending))
                if waiter is not None:
                    waiter.response = frame
                    waiter.event.set()
                # An unknown id is a reply whose caller already timed out
                # and abandoned the wait: drop it.
        except Exception as exc:  # noqa: BLE001 - all reader exits fail pending
            self._fail_connection(sock, exc)

    def _fail_connection(self, sock: socket.socket, exc: Exception) -> None:
        with self._state_lock:
            if self._sock is sock:
                self._sock = None
            pending = list(self._pending.values())
            self._pending.clear()
            self.in_flight_gauge.set(0)
        self.schema_session.reset()
        try:
            sock.close()
        except OSError:
            pass
        for waiter in pending:
            waiter.error = RetryableError(f"pipelined connection lost: {exc}")
            waiter.event.set()

    def request(self, payload: bytes, timeout: Optional[float] = None) -> bytes:
        """One call over the shared connection; safe to invoke from many
        threads concurrently. Never resends (see :class:`StreamChannel`)."""
        sock = self._ensure_connected(timeout)
        corr_id = next(self._corr) & 0xFFFFFFFF
        waiter = _PendingReply()
        with self._state_lock:
            if self._sock is not sock:
                raise RetryableError("pipelined connection lost before send")
            self._pending[corr_id] = waiter
            in_flight = len(self._pending)
            self.in_flight_gauge.set(in_flight)
            if in_flight > self.max_in_flight:
                self.max_in_flight = in_flight
        try:
            with self._send_lock:
                write_frame_corr(sock, corr_id, payload)
        except TransportError as exc:
            with self._state_lock:
                self._pending.pop(corr_id, None)
            self._fail_connection(sock, exc)
            raise
        wait_budget = timeout if timeout is not None else self._timeout
        if not waiter.event.wait(wait_budget):
            with self._state_lock:
                self._pending.pop(corr_id, None)
                self.in_flight_gauge.set(len(self._pending))
            raise DeadlineExceededError(
                f"no reply from {self._describe()} within {wait_budget}s"
            )
        if waiter.error is not None:
            raise waiter.error
        response = waiter.response
        self.stats.record(sent=len(payload), received=len(response))
        return response

    @property
    def in_flight(self) -> int:
        with self._state_lock:
            return len(self._pending)

    def close(self) -> None:
        with self._state_lock:
            sock = self._sock
            self._sock = None
        self.schema_session.reset()
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass
            # The reader thread notices the closed socket and fails any
            # still-pending calls through _fail_connection.
