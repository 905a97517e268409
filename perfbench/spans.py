"""In-memory spans around calls into the library's layers.

Tracing is installed from the benchmark's own files: :class:`Tracer`
replaces a module function or class method with a wrapper that records a
span (name, start, end, parent, call ID) and calls the original. The
library itself carries no tracing code and no tracing switch.

Spans nest per thread. The spans of one root (a benchmark call on the
client, one ``Dispatcher.handle`` on the server) are buffered until the
root ends and then stamped with the CALL frame's call ID, which is how
client and server spans of one call are joined across the two processes.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.core import restore_protocol
from repro.core.copy_restore import RestoreEngine
from repro.nrmi import invocation, runtime
from repro.rmi.dispatcher import Dispatcher
from repro.rmi.protocol import Op, read_call_header
from repro.serde.reader import ObjectReader
from repro.serde.writer import ObjectWriter
from repro.transport.shm import ShmChannel
from repro.transport.stream import PipelinedStreamChannel, StreamChannel
from repro.util.buffers import BufferReader

#: One finished span: (name, start_ns, end_ns, parent_id, span_id, call_id).
Span = Tuple[str, int, int, int, int, int]


def call_id_of_frame(frame: Any) -> int:
    """The at-most-once call ID of a CALL frame (0 for other frames)."""
    view = memoryview(frame)
    if len(view) < 3 or view[0] != Op.CALL:
        return 0
    reader = BufferReader(view[1:])
    return read_call_header(reader)[0]


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: List[int] = []
        self.pending: List[list] = []
        self.call_id = 0


class Tracer:
    """Records spans in memory; :meth:`uninstall` restores every original."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._state = _ThreadState()
        self._patches: List[Tuple[Any, str, Any]] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._count_lock = threading.Lock()

    def _enter(self, call_id: int) -> Tuple[int, int]:
        state = self._state
        span_id = next(self._ids)
        parent = state.stack[-1] if state.stack else 0
        if call_id:
            state.call_id = call_id
        state.stack.append(span_id)
        return span_id, parent

    def _exit(self, name: str, span_id: int, parent: int, start: int) -> None:
        end = time.perf_counter_ns()
        state = self._state
        state.stack.pop()
        state.pending.append([name, start, end, parent, span_id])
        if not state.stack:
            call_id = state.call_id
            self.spans.extend(tuple(item) + (call_id,) for item in state.pending)
            state.pending = []
            state.call_id = 0

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        span_id, parent = self._enter(0)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._exit(name, span_id, parent, start)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        call_id_of: Optional[Callable[[tuple], int]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        enter, leave = self._enter, self._exit

        def make(original: Callable) -> Callable:
            @functools.wraps(original)
            def traced(*args: Any, **kwargs: Any) -> Any:
                span_id, parent = enter(call_id_of(args) if call_id_of else 0)
                start = time.perf_counter_ns()
                try:
                    return original(*args, **kwargs)
                finally:
                    leave(name, span_id, parent, start)

            return traced

        self._patch(owner, attr, make)

    def count(
        self, owner: Any, attr: str, name: str, amount_of: Callable[[tuple], int]
    ) -> None:
        """Add ``amount_of(args)`` to ``counts[name]`` on every call."""
        counts, lock = self.counts, self._count_lock

        def make(original: Callable) -> Callable:
            @functools.wraps(original)
            def counted(*args: Any, **kwargs: Any) -> Any:
                amount = amount_of(args)
                with lock:
                    counts[name] += amount
                return original(*args, **kwargs)

            return counted

        self._patch(owner, attr, make)

    def _patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        # A class's own attribute, not an inherited one, so that uninstall
        # restores exactly what was there.
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _request_call_id(args: tuple) -> int:
    return call_id_of_frame(args[1])


def _wrap_policies(tracer: Tracer, attr: str, name: str) -> None:
    """Wrap *attr* on every restore policy class that defines its own."""
    base = restore_protocol.RestorePolicy
    for cls in list(vars(restore_protocol).values()):
        if isinstance(cls, type) and issubclass(cls, base) and attr in vars(cls):
            tracer.wrap(cls, attr, name)


def install_client(tracer: Tracer) -> None:
    """Spans at every layer boundary a client call crosses."""
    tracer.wrap(runtime, "client_call", "nrmi.client_call")
    tracer.wrap(invocation, "prepare_call", "nrmi.prepare")
    tracer.wrap(invocation, "compute_retained_indexed", "nrmi.retain")
    tracer.count(
        invocation, "compute_retained_indexed", "serde.objects", lambda args: len(args[0])
    )
    tracer.wrap(invocation, "complete_call", "nrmi.complete")
    tracer.wrap(ObjectWriter, "write_root", "serde.encode")
    tracer.wrap(ObjectReader, "read_root", "serde.decode")
    _wrap_policies(tracer, "parse_response", "core.parse_reply")
    tracer.wrap(RestoreEngine, "restore", "core.restore")
    tracer.wrap(StreamChannel, "request", "transport.request", _request_call_id)
    tracer.wrap(
        PipelinedStreamChannel, "request", "transport.request", _request_call_id
    )
    tracer.wrap(ShmChannel, "request_zero_copy", "transport.request_zero_copy")


def install_server(tracer: Tracer) -> None:
    """Spans at every layer boundary a served call crosses."""
    tracer.wrap(Dispatcher, "handle", "rmi.dispatch", _request_call_id)
    tracer.wrap(invocation, "handle_call", "nrmi.handle")
    tracer.wrap(invocation, "compute_retained_indexed", "nrmi.retain")
    tracer.wrap(ObjectReader, "read_root", "serde.decode")
    tracer.wrap(ObjectWriter, "write_root", "serde.encode")
    _wrap_policies(tracer, "build_response", "core.build_reply")


def install_service(tracer: Tracer, service: Any, methods: Iterable[str]) -> None:
    """Spans around a bound service's remote methods (its body)."""
    for method in methods:
        tracer.wrap(service, method, "nrmi.execute")


class LayerTimes:
    """Per-name totals over a set of spans: count, inclusive and self ns."""

    def __init__(self, spans: Iterable[Span]) -> None:
        spans = list(spans)
        self.count: Dict[str, int] = defaultdict(int)
        self.total_ns: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        name_of = {span[4]: span[0] for span in spans}
        for name, start, end, parent, _span_id, _call_id in spans:
            duration = end - start
            self.count[name] += 1
            self.total_ns[name] += duration
            self.self_ns[name] += duration
            if parent in name_of:
                self.self_ns[name_of[parent]] -= duration

    def total_us(self, name: str, calls: int) -> float:
        return self.total_ns.get(name, 0) / 1e3 / calls

    def self_us(self, name: str, calls: int) -> float:
        return self.self_ns.get(name, 0) / 1e3 / calls


def durations_by_call(spans: Iterable[Span], name: str) -> Dict[int, int]:
    """Summed duration of *name* spans per call ID (unstamped ones dropped)."""
    out: Dict[int, int] = defaultdict(int)
    for span_name, start, end, _parent, _span_id, call_id in spans:
        if span_name == name and call_id:
            out[call_id] += end - start
    return out
