"""The server core: bounded queue, shedding, drain, reaping.

These tests drive :class:`repro.transport.stream.StreamServer`
through its TCP/UDS bindings with plain ``bytes -> bytes`` handlers and
raw sockets, below the RMI stack — the chaos matrix covers the same
behaviours end-to-end through proxies and retries.
"""

import contextlib
import socket
import struct
import threading
import time

import pytest

from repro.errors import RetryableError, ServerBusyError, TransportError
from repro.rmi.protocol import Status, busy_response, raise_if_busy
from repro.transport.framing import read_frame, write_frame
from repro.transport.stream import StreamServer
from repro.transport.tcp import TcpChannel, TcpServer
from repro.util.metrics import MetricsRegistry

_LEN = struct.Struct(">I")

BUSY_QUEUE_FULL = bytes(busy_response(ServerBusyError.QUEUE_FULL))
BUSY_DRAINING = bytes(busy_response(ServerBusyError.DRAINING))


def echo(request):
    return bytes(request)


class GatedHandler:
    """Blocks every request until released; counts executions."""

    def __init__(self):
        self.release = threading.Event()
        self.started = threading.Event()
        self.executions = 0
        self._lock = threading.Lock()

    def __call__(self, request):
        self.started.set()
        self.release.wait(10.0)
        with self._lock:
            self.executions += 1
        return bytes(request)


def dial(server, timeout=5.0):
    sock = socket.create_connection((server.host, server.port), timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


class TestBusyShedding:
    def test_constructor_validates_options(self):
        with pytest.raises(ValueError):
            TcpServer(echo, workers=0)
        with pytest.raises(ValueError):
            TcpServer(echo, queue_capacity=0)
        with pytest.raises(ValueError):
            TcpServer(echo, max_inflight_per_conn=0)
        with pytest.raises(TypeError):  # the knob is gone: shedding is the policy
            TcpServer(echo, overload_policy="shed")

    def test_queue_full_answers_busy_frame_immediately(self):
        """workers=1, queue=1, handler gated shut: the 3rd request meets
        a full queue and gets the 2-byte BUSY frame at once."""
        handler = GatedHandler()
        metrics = MetricsRegistry()
        with TcpServer(
            handler, workers=1, queue_capacity=1, metrics=metrics
        ) as server:
            occupier = dial(server)  # fills the worker
            write_frame(occupier, b"a")
            assert handler.started.wait(5.0)
            queued = dial(server)  # fills the queue
            write_frame(queued, b"b")
            deadline = time.monotonic() + 5.0
            while (
                metrics.gauge("server.queue_depth").value < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)

            shed = dial(server)
            started = time.monotonic()
            write_frame(shed, b"c")
            response = bytes(read_frame(shed, timeout=5.0))
            elapsed = time.monotonic() - started

            assert response == BUSY_QUEUE_FULL
            assert response[0] == int(Status.BUSY)
            assert elapsed < 1.0  # shed without waiting for the worker
            assert metrics.counter("server.shed.queue_full").value >= 1

            handler.release.set()
            assert bytes(read_frame(occupier, timeout=5.0)) == b"a"
            assert bytes(read_frame(queued, timeout=5.0)) == b"b"
            assert handler.executions == 2  # the shed request never ran
            for sock in (occupier, queued, shed):
                sock.close()

    def test_channel_surfaces_busy_as_retryable_error(self):
        handler = GatedHandler()
        with TcpServer(handler, workers=1, queue_capacity=1) as server:
            occupier = dial(server)
            write_frame(occupier, b"a")
            assert handler.started.wait(5.0)
            queued = dial(server)
            write_frame(queued, b"b")
            time.sleep(0.05)

            channel = TcpChannel(server.host, server.port, timeout=5.0)
            raw = channel.request(b"c")
            with pytest.raises(ServerBusyError) as excinfo:
                raise_if_busy(raw)
            assert isinstance(excinfo.value, RetryableError)
            assert excinfo.value.reason == ServerBusyError.QUEUE_FULL
            handler.release.set()
            channel.close()
            occupier.close()
            queued.close()


class TestDrain:
    def test_stop_answers_backlog_with_busy_draining(self):
        """Frames parsed but not yet submitted when drain starts are
        answered with BUSY(DRAINING), not silently dropped."""
        handler = GatedHandler()
        metrics = MetricsRegistry()
        server = TcpServer(
            handler,
            workers=1,
            queue_capacity=1,
            metrics=metrics,
        )
        occupier = dial(server)
        write_frame(occupier, b"a")
        assert handler.started.wait(5.0)
        queued = dial(server)
        write_frame(queued, b"b")
        deadline = time.monotonic() + 5.0
        while (
            metrics.gauge("server.queue_depth").value < 1
            and time.monotonic() < deadline
        ):
            time.sleep(0.005)
        # A plain connection executes one frame at a time, so the second
        # frame on the occupier's connection sits in its backlog.
        write_frame(occupier, b"backlogged")

        stopper = threading.Thread(target=server.stop, args=(5.0,))
        time.sleep(0.05)  # let the backlog frame reach its reader
        stopper.start()
        time.sleep(0.1)
        handler.release.set()
        stopper.join(timeout=10.0)

        assert bytes(read_frame(occupier, timeout=5.0)) == b"a"
        assert bytes(read_frame(occupier, timeout=5.0)) == BUSY_DRAINING
        assert bytes(read_frame(queued, timeout=5.0)) == b"b"
        assert metrics.counter("server.drain.graceful").value == 1
        assert metrics.counter("server.shed.draining").value >= 1
        occupier.close()
        queued.close()

    def test_grace_expiry_forces_and_rejects_queued_work(self):
        """A handler that never finishes: stop(grace) must still return,
        count a forced drain, and BUSY the queued-but-unstarted job."""
        handler = GatedHandler()
        metrics = MetricsRegistry()
        server = TcpServer(
            handler, workers=1, queue_capacity=4, metrics=metrics
        )
        occupier = dial(server)
        write_frame(occupier, b"a")
        assert handler.started.wait(5.0)
        queued = dial(server)
        write_frame(queued, b"b")
        time.sleep(0.05)

        started = time.monotonic()
        server.stop(grace=0.2)
        assert time.monotonic() - started < 5.0
        assert metrics.counter("server.drain.forced").value == 1
        assert metrics.counter("server.drain.rejected").value >= 1
        assert bytes(read_frame(queued, timeout=5.0)) == BUSY_DRAINING
        handler.release.set()
        occupier.close()
        queued.close()

    def test_stop_is_idempotent(self):
        server = TcpServer(echo, workers=1)
        server.stop(grace=1.0)
        server.stop(grace=1.0)  # second call returns without error

    def test_new_connections_refused_after_stop(self):
        server = TcpServer(echo, workers=1)
        host, port = server.host, server.port
        server.stop(grace=1.0)
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=1.0)

    def test_uds_socket_unlinked_only_after_listener_closed(self):
        import os

        from repro.transport.uds import UdsServer

        if not hasattr(socket, "AF_UNIX"):
            pytest.skip("platform lacks AF_UNIX")
        server = UdsServer(echo, workers=1)
        path = server.path
        assert os.path.exists(path)
        server.stop(grace=1.0)
        assert not os.path.exists(path)
        # A successor can immediately reclaim the path.
        successor = UdsServer(echo, path=path, workers=1)
        assert os.path.exists(path)
        successor.stop(grace=1.0)
        assert not os.path.exists(path)


class TestSlowLoris:
    def test_partial_frame_reaped_after_deadline(self):
        metrics = MetricsRegistry()
        with TcpServer(
            echo, workers=1, partial_read_timeout=0.2, metrics=metrics
        ) as server:
            healthy = dial(server)
            write_frame(healthy, b"ok")
            assert bytes(read_frame(healthy, timeout=5.0)) == b"ok"

            loris = dial(server)
            loris.sendall(_LEN.pack(1000)[:3])  # 3 bytes of a 4-byte header
            deadline = time.monotonic() + 5.0
            while (
                metrics.counter("server.connections.reaped_stalled").value < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.02)
            assert (
                metrics.counter("server.connections.reaped_stalled").value
                == 1
            )
            # The healthy connection (no partial frame) is untouched.
            write_frame(healthy, b"still-ok")
            assert bytes(read_frame(healthy, timeout=5.0)) == b"still-ok"
            healthy.close()
            loris.close()

    @pytest.mark.parametrize("transport", ["tcp", "shm"])
    def test_unread_reply_cannot_pin_the_worker(self, transport):
        """A client that sends a call and never reads the reply holds the
        only worker only until the write deadline reaps it; another
        client is then served."""
        big = b"x" * (32 << 20)  # far past any socket buffer or ring
        writing_big = threading.Event()

        def handler(request):
            if bytes(request) == b"big":
                writing_big.set()
                return big
            return bytes(request)

        metrics = MetricsRegistry()
        options = dict(workers=1, partial_read_timeout=0.5, metrics=metrics)
        if transport == "tcp":
            server = TcpServer(handler, **options)

            def request(payload):
                sock = dial(server)
                write_frame(sock, payload)
                return sock

            def call(payload):
                with contextlib.closing(request(payload)) as sock:
                    return bytes(read_frame(sock, timeout=10.0))

        else:
            from repro.transport.shm import (
                ShmChannel,
                ShmServer,
                _dial_shm,
                shm_supported,
            )

            if not shm_supported():
                pytest.skip("platform lacks AF_UNIX fd passing")
            server = ShmServer(handler, **options)

            def request(payload):
                duplex = _dial_shm(server.name, 5.0, 0)
                write_frame(duplex, payload)
                return duplex

            def call(payload):
                with contextlib.closing(ShmChannel(server.name, timeout=10.0)) as ch:
                    return bytes(ch.request(payload))

        with server:
            hog = request(b"big")  # never reads its reply
            try:
                assert writing_big.wait(5.0)
                started = time.monotonic()
                assert call(b"ok") == b"ok"
                assert time.monotonic() - started < 5.0
                assert (
                    metrics.counter("server.connections.reaped_stalled").value
                    == 1
                )
            finally:
                hog.close()

    def test_fault_channel_stall_mode_leaves_pool_clean(self):
        from repro.transport.fault import FaultInjectingChannel

        with TcpServer(echo, workers=1) as server:
            channel = TcpChannel(server.host, server.port, timeout=5.0)
            fault = FaultInjectingChannel(
                channel, mode="stall", fail_on_calls={1}, stall_after_bytes=6
            )
            with pytest.raises(RetryableError):
                fault.request(b"stalled-call")
            assert fault.stalled_connections == 1
            # The pooled connection was never poisoned: the retry works.
            assert fault.request(b"retried-call") == b"retried-call"
            fault.release_stalled()
            assert fault.stalled_connections == 0
            fault.close()


class TestContract:
    def test_live_connections_tracks_peers(self):
        with TcpServer(echo, workers=1) as server:
            assert server.live_connections == 0
            sock = dial(server)
            write_frame(sock, b"x")
            assert bytes(read_frame(sock, timeout=5.0)) == b"x"
            assert server.live_connections == 1
            sock.close()
            deadline = time.monotonic() + 5.0
            while server.live_connections and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.live_connections == 0

    def test_handler_exception_drops_connection_only(self):
        def bad(request):
            raise RuntimeError("protocol bug")

        with TcpServer(bad, workers=1) as server:
            sock = dial(server)
            write_frame(sock, b"x")
            with pytest.raises(TransportError):
                read_frame(sock, timeout=5.0)
            sock.close()
            # The server survives and serves the next connection... with
            # the same failing handler the accept machinery still works.
            replacement = dial(server)
            write_frame(replacement, b"y")
            with pytest.raises(TransportError):
                read_frame(replacement, timeout=5.0)
            replacement.close()

    def test_pipelined_inflight_cap_blocks_the_reader(self):
        """16 callers share one pipelined connection to 8 workers under
        ``max_inflight_per_conn=2``: at most 2 of its calls ever execute
        at once, none is shed, and every caller gets its own reply."""
        import sys

        from repro.transport.tcp import PipelinedTcpChannel

        running = 0
        peak = 0
        lock = threading.Lock()

        def slow_echo(request):
            nonlocal running, peak
            with lock:
                running += 1
                peak = max(peak, running)
            time.sleep(0.005)
            with lock:
                running -= 1
            return bytes(request)

        metrics = MetricsRegistry()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with TcpServer(
                slow_echo, workers=8, max_inflight_per_conn=2, metrics=metrics
            ) as server:
                channel = PipelinedTcpChannel(server.host, server.port, timeout=10.0)
                errors = []

                def caller(index):
                    for call in range(10):
                        payload = f"{index}-{call}".encode()
                        if channel.request(payload) != payload:
                            errors.append(payload)

                threads = [
                    threading.Thread(target=caller, args=(i,)) for i in range(16)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30.0)
                assert not any(thread.is_alive() for thread in threads)
                channel.close()
                assert errors == []
                assert peak == 2
                assert metrics.counter("server.shed.queue_full").value == 0
                assert metrics.counter("server.jobs.submitted").value == 160
                assert metrics.counter("server.jobs.completed").value == 160
        finally:
            sys.setswitchinterval(interval)
        # Every admitted frame was accounted as answered: the drain at
        # stop() found nothing outstanding.
        assert metrics.counter("server.drain.graceful").value == 1

    def test_staged_server_requires_subclass_address(self):
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.bind(("127.0.0.1", 0))
        sock.listen(1)
        server = StreamServer(echo, sock, label="raw", workers=1)
        try:
            with pytest.raises(NotImplementedError):
                _ = server.address
        finally:
            server.stop(grace=1.0)


@pytest.mark.soak
class TestSaturationSoak:
    def test_bounded_queue_under_sustained_overload(self):
        """Short saturation soak: hammer workers=2/queue=2 from 8
        threads for ~1.5s. The queue depth stays within its bound the
        whole time (bounded memory), BUSY replies are immediate, and
        every admitted request is answered exactly once."""

        def slowish(request):
            time.sleep(0.002)
            return bytes(request)

        metrics = MetricsRegistry()
        capacity = 2
        with TcpServer(
            slowish,
            workers=2,
            queue_capacity=capacity,
            metrics=metrics,
        ) as server:
            stop = threading.Event()
            depth_violations = []
            outcomes = {"ok": 0, "busy": 0}
            lock = threading.Lock()

            def sample_depth():
                gauge = metrics.gauge("server.queue_depth")
                while not stop.is_set():
                    if gauge.value > capacity:
                        depth_violations.append(gauge.value)
                    time.sleep(0.001)

            def hammer(seed):
                sock = dial(server)
                ok = busy = 0
                try:
                    while not stop.is_set():
                        payload = bytes([seed]) * (1 + seed)
                        write_frame(sock, payload)
                        response = bytes(read_frame(sock, timeout=10.0))
                        if response == BUSY_QUEUE_FULL:
                            busy += 1
                        else:
                            assert response == payload
                            ok += 1
                finally:
                    sock.close()
                    with lock:
                        outcomes["ok"] += ok
                        outcomes["busy"] += busy

            sampler = threading.Thread(target=sample_depth)
            sampler.start()
            threads = [
                threading.Thread(target=hammer, args=(i,)) for i in range(8)
            ]
            for thread in threads:
                thread.start()
            time.sleep(1.5)
            stop.set()
            for thread in threads:
                thread.join(timeout=15.0)
            sampler.join(timeout=5.0)

            assert not depth_violations  # bounded memory: depth <= capacity
            assert outcomes["ok"] > 0
            assert outcomes["busy"] > 0  # overload actually shed
            submitted = metrics.counter("server.jobs.submitted").value
            completed = metrics.counter("server.jobs.completed").value
            assert completed == submitted  # every admitted job answered
            shed = metrics.counter("server.shed.queue_full").value
            assert shed == outcomes["busy"]  # sheds and BUSYs reconcile
