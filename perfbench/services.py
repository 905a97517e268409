"""Services the benchmark server binds.

The tree service is the repository's own :class:`TreeService`; the echo
service is the benchmark's, because the library ships none. The corrupt
variants exist only for the benchmark's self-tests: every second reply
is wrong in exactly one node or one byte, which the load process's oracle
must count as a failed call. The first reply is right, so set-up passes.
"""

from __future__ import annotations

import itertools
from typing import Any

from repro.bench.mutators import TreeService
from repro.core.markers import Remote


class EchoService(Remote):
    """Returns its payload unchanged."""

    def echo(self, payload: bytes) -> bytes:
        return payload


class CorruptEchoService(EchoService):
    """Flips the first byte of every second reply."""

    def __init__(self) -> None:
        self._calls = itertools.count(1)

    def echo(self, payload: bytes) -> bytes:
        if next(self._calls) % 2:
            return payload
        return bytes([payload[0] ^ 0xFF]) + payload[1:]


class CorruptTreeService(TreeService):
    """Mutates as usual, then changes the root's payload on every second call."""

    def __init__(self) -> None:
        self._calls = itertools.count(1)

    def mutate_structure(self, tree: Any, seed: int) -> int:
        mutations = super().mutate_structure(tree, seed)
        if next(self._calls) % 2 == 0:
            tree.data += 1
        return mutations


SERVICES = {
    "clean": {"trees": TreeService, "echo": EchoService},
    "corrupt": {"trees": CorruptTreeService, "echo": CorruptEchoService},
}
