"""The benchmark's workloads: inputs from a seed, and the per-call oracle.

Every input is a pure function of ``(seed, caller, index)``, so a seed
regenerates a run's inputs exactly; the server only ever sees the
generated arguments. Inputs and expected results are built before a call
is timed and checked after it, outside the timed region.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.bench.mutators import mutate_structure
from repro.bench.trees import generate_workload
from repro.core.verify import fingerprint

TREE_NODES = 256

#: shm_echo payload sizes and their shares of calls.
SHM_SIZES = ((64, 0.6), (4096, 0.2), (65536, 0.2))


@dataclass
class CallInput:
    """One call's arguments plus what its oracle needs."""

    args: Tuple[Any, ...]
    expected: Any
    subject: Any = None


def _tree_seed(seed: int, caller: int, index: int) -> int:
    return (seed * 1_000_003 + caller * 10_007 + index) & 0x7FFFFFFF


def tree_input(seed: int, caller: int, index: int) -> CallInput:
    """A fresh aliased 256-node scenario-III tree and its local twin's result."""
    tree_seed = _tree_seed(seed, caller, index)
    mutation_seed = tree_seed ^ 0x5EED
    remote = generate_workload("III", TREE_NODES, tree_seed)
    twin = generate_workload("III", TREE_NODES, tree_seed)
    mutations = mutate_structure(twin.root, mutation_seed)
    expected = (mutations, fingerprint([twin.root, *twin.aliases]))
    return CallInput((remote.root, mutation_seed), expected, remote)


def tree_check(call: CallInput, result: Any) -> Optional[str]:
    mutations, expected_heap = call.expected
    if result != mutations:
        return f"returned {result!r}, local twin made {mutations} mutations"
    remote = call.subject
    if fingerprint([remote.root, *remote.aliases]) != expected_heap:
        return "restored tree + aliases differ from the local twin's heap"
    return None


class EchoInputs:
    """A per-caller stream of random payloads with seeded sizes."""

    def __init__(self, label: str, sizes: Tuple[Tuple[int, float], ...]) -> None:
        self.label = label
        self.sizes = sizes
        self._streams: Dict[Tuple[int, int], random.Random] = {}

    def __call__(self, seed: int, caller: int, index: int) -> CallInput:
        # Streams are consumed in index order, one per (seed, caller).
        rng = self._streams.get((seed, caller))
        if rng is None or index == 0:
            rng = self._streams[(seed, caller)] = random.Random(
                f"{self.label}:{seed}:{caller}"
            )
        draw = rng.random()
        size = self.sizes[-1][0]
        for candidate, share in self.sizes:
            if draw < share:
                size = candidate
                break
            draw -= share
        payload = rng.randbytes(size)
        return CallInput((payload,), payload)


def echo_check(call: CallInput, result: Any) -> Optional[str]:
    if result != call.expected:
        return f"reply of {len(result)} B differs from the {len(call.expected)} B payload"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    transport: str
    callers: int
    service: str
    method: str
    make_input: Callable[[int, int, int], CallInput]
    check: Callable[[CallInput, Any], Optional[str]]
    #: Calls per caller in one timed round (sized for roughly 0.3 s).
    round_calls: int


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="tree_restore",
            transport="tcp",
            callers=1,
            service="trees",
            method="mutate_structure",
            make_input=tree_input,
            check=tree_check,
            round_calls=16,
        ),
        Workload(
            name="echo_small",
            transport="tcp",
            callers=2,
            service="echo",
            method="echo",
            make_input=EchoInputs("echo_small", ((64, 1.0),)),
            check=echo_check,
            round_calls=250,
        ),
        # Not in BENCHMARK.json: its server dies under load (README.md).
        Workload(
            name="shm_echo",
            transport="shm",
            callers=1,
            service="echo",
            method="echo",
            make_input=EchoInputs("shm_echo", SHM_SIZES),
            check=echo_check,
            round_calls=200,
        ),
    )
}
