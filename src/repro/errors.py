"""Exception hierarchy for the NRMI reproduction.

The hierarchy mirrors the split in the paper's Java implementation:
serialization failures, transport/remote failures (``java.rmi.RemoteException``
analogues), and middleware-protocol failures are distinct, so callers can
catch exactly the layer they care about.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class SerializationError(ReproError):
    """An object graph could not be serialized or deserialized."""


class NotSerializableError(SerializationError):
    """An object of an unregistered / unsupported type was encountered.

    The Java analogue is ``java.io.NotSerializableException``: reachable
    objects must be serializable for both call-by-copy and
    call-by-copy-restore (``Restorable extends Serializable``).
    """

    def __init__(self, obj: object, path: str = "") -> None:
        self.type_name = type(obj).__name__
        self.path = path
        where = f" at {path}" if path else ""
        super().__init__(
            f"object of type {self.type_name!r}{where} is not serializable; "
            "register the class or mark it Serializable/Restorable"
        )


class WireFormatError(SerializationError):
    """The byte stream is corrupt or written by an incompatible version."""


class ClassNotRegisteredError(SerializationError):
    """A wire-level class descriptor does not match any registered class."""

    def __init__(self, qualified_name: str) -> None:
        self.qualified_name = qualified_name
        super().__init__(
            f"class {qualified_name!r} is not registered with the receiver; "
            "both endpoints must register serializable classes"
        )


class RemoteError(ReproError):
    """Base for failures of remote invocation (``RemoteException``)."""


class TransportError(RemoteError):
    """The underlying channel failed (connection refused, closed, framing)."""


class RetryableError(TransportError):
    """A transient transport failure: the request may not have executed.

    Retrying is *safe only* with a call ID attached (the server's reply
    cache turns the retry into at-most-once); the retry layer in
    :mod:`repro.transport.reliability` is the one place allowed to resend.
    Connection resets, dropped frames, and injected faults are retryable;
    deliberate closes and policy failures are not.
    """


class ServerBusyError(RetryableError):
    """The server shed the request before executing it (overload).

    The stream server answers with a fast BUSY frame when its bounded job
    queue is full or it is draining for shutdown — the request body was
    never deserialized and the method never ran, so retrying is always
    safe. Subclassing :class:`RetryableError` puts BUSY on the normal
    retry/backoff path and counts it against the per-address circuit
    breaker, so persistent overload eventually fails fast instead of
    hammering the queue.
    """

    #: Wire reason codes carried in the BUSY frame's second byte.
    QUEUE_FULL = 0
    DRAINING = 1

    _REASONS = {QUEUE_FULL: "job queue full", DRAINING: "draining for shutdown"}

    def __init__(self, reason: int = QUEUE_FULL) -> None:
        self.reason = reason
        detail = self._REASONS.get(reason, f"reason {reason}")
        super().__init__(f"server busy ({detail}); the request did not execute")


class DeadlineExceededError(TransportError):
    """The per-call deadline elapsed before a reply arrived.

    Fatal, never retried: the budget is for the whole call, attempts
    included. The caller's heap is untouched (restore is reply-driven).
    """


class CircuitOpenError(TransportError):
    """The per-address circuit breaker is open; the call failed fast.

    Fatal for this call: the breaker has seen enough consecutive
    transport failures that probing the address again immediately would
    only add load. It transitions to half-open after its reset timeout.
    """

    def __init__(self, address: str, retry_after: float) -> None:
        self.address = address
        self.retry_after = retry_after
        super().__init__(
            f"circuit breaker open for {address}; "
            f"next probe allowed in {retry_after:.3f}s"
        )


def is_retryable(exc: BaseException) -> bool:
    """True when the failure is transient and a retry (with a call ID)
    could succeed. Deadline and breaker failures are terminal."""
    return isinstance(exc, RetryableError)


class MarshalError(RemoteError):
    """Arguments or results could not be marshalled for a remote call."""


class UnmarshalError(RemoteError):
    """A reply could not be unmarshalled on the receiving side."""


class NoSuchObjectError(RemoteError):
    """A remote reference points to an object no longer exported."""

    def __init__(self, object_id: int) -> None:
        self.object_id = object_id
        super().__init__(f"no exported object with id {object_id}")


class NotBoundError(RemoteError):
    """Registry lookup for a name that has no binding."""

    def __init__(self, name: str) -> None:
        self.name = name
        super().__init__(f"name {name!r} is not bound in the registry")


class AlreadyBoundError(RemoteError):
    """Registry ``bind`` for a name that already has a binding."""

    def __init__(self, name: str) -> None:
        self.name = name
        super().__init__(f"name {name!r} is already bound in the registry")


class RemoteInvocationError(RemoteError):
    """The remote method itself raised; carries the remote traceback text."""

    def __init__(self, exc_type_name: str, message: str, remote_traceback: str = "") -> None:
        self.exc_type_name = exc_type_name
        self.remote_message = message
        self.remote_traceback = remote_traceback
        super().__init__(f"remote method raised {exc_type_name}: {message}")


class RestoreError(ReproError):
    """The copy-restore phase failed (maps mismatched, bad payload)."""


class LinearMapMismatchError(RestoreError):
    """Original and returned linear maps cannot be matched up (step 4)."""

    def __init__(self, expected: int, received: int) -> None:
        self.expected = expected
        self.received = received
        super().__init__(
            f"linear map mismatch: caller recorded {expected} objects, "
            f"restore payload carries {received}"
        )


class DistributedLeakError(RemoteError):
    """The distributed GC exceeded its leak budget (cyclic remote garbage).

    Reproduces the paper's Table 6 observation: reference-counting DGC
    cannot reclaim distributed cycles, so the call-by-reference benchmark
    exhausts memory at 1024-node trees.
    """

    def __init__(self, leaked: int, budget: int) -> None:
        self.leaked = leaked
        self.budget = budget
        super().__init__(
            f"distributed cycle leak: {leaked} unreclaimable exported objects "
            f"exceed budget {budget} (reference-counting DGC cannot collect "
            "distributed cycles)"
        )
