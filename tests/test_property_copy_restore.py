"""The paper's central guarantee, property-based.

For a single-threaded client and a stateless server, call-by-copy-restore
is indistinguishable from local call-by-reference (Section 4.1). We
generate random object graphs with random client-side aliases and random
server-side mutation programs, run each program (a) locally on one replica
and (b) remotely via NRMI on another, and assert the resulting heaps are
isomorphic — aliasing included.
"""

from hypothesis import given, settings, strategies as st

from repro.core.markers import Remote
from repro.nrmi.config import NRMIConfig
from repro.nrmi.runtime import Endpoint
from repro.transport.resolver import ChannelResolver

from tests.model_helpers import Box, Node, heap_fingerprint

# ---------------------------------------------------------------- programs
#
# A mutation program is a list of ops over a node table. The table starts
# as the workload's nodes; 'new' ops append to it, so later ops can target
# server-allocated nodes. Ops are interpreted identically locally and
# remotely — the server method below is the interpreter.

MAX_NODES = 6


def apply_program(box, program):
    """Interpret *program* against the graph rooted at *box*.

    ``box.payload`` is the node list; ``box.index`` (dict) and
    ``box.tags`` (set) exercise hashed-container restoration, and
    ``wrap`` ops exercise immutable-container rebuilding.
    """
    table = list(box.payload)
    for op in program:
        kind = op[0]
        if kind == "set_data":
            _, idx, value = op
            table[idx % len(table)].data = value
        elif kind == "link":
            _, src, dst = op
            target = None if dst is None else table[dst % len(table)]
            table[src % len(table)].next = target
        elif kind == "new":
            _, value, attach = op
            fresh = Node(value)
            fresh.next = table[attach % len(table)].next
            table[attach % len(table)].next = fresh
            table.append(fresh)
        elif kind == "detach":
            _, idx = op
            victim = table[idx % len(table)]
            if victim in box.payload:
                box.payload.remove(victim)
        elif kind == "reattach":
            _, idx = op
            candidate = table[idx % len(table)]
            if candidate not in box.payload:
                box.payload.append(candidate)
        elif kind == "index_put":
            _, idx, key = op
            box.index[key] = table[idx % len(table)]
        elif kind == "index_drop":
            _, key = op
            box.index.pop(key, None)
        elif kind == "tag":
            _, idx = op
            box.tags.add(table[idx % len(table)])
        elif kind == "untag":
            _, idx = op
            box.tags.discard(table[idx % len(table)])
        elif kind == "wrap":
            _, first, second = op
            box.pair = (table[first % len(table)], table[second % len(table)])
    if not program:
        return None
    last = program[-1][1]
    if not isinstance(last, int):
        return None
    return table[last % len(table)]


class ProgramService(Remote):
    def run(self, box, program):
        return apply_program(box, program)


node_index = st.integers(min_value=0, max_value=MAX_NODES * 2)
key_names = st.sampled_from(["alpha", "beta", "gamma"])
op = st.one_of(
    st.tuples(st.just("set_data"), node_index, st.integers(-100, 100)),
    st.tuples(st.just("link"), node_index, st.one_of(st.none(), node_index)),
    st.tuples(st.just("new"), st.integers(1000, 2000), node_index),
    st.tuples(st.just("detach"), node_index),
    st.tuples(st.just("reattach"), node_index),
    st.tuples(st.just("index_put"), node_index, key_names),
    st.tuples(st.just("index_drop"), key_names),
    st.tuples(st.just("tag"), node_index),
    st.tuples(st.just("untag"), node_index),
    st.tuples(st.just("wrap"), node_index, node_index),
)
programs = st.lists(op, min_size=1, max_size=12)
graph_shapes = st.lists(
    st.one_of(st.none(), node_index), min_size=1, max_size=MAX_NODES
)
alias_picks = st.lists(node_index, max_size=3)


def build_workload(shape, alias_indices):
    """Materialize a graph: node i's next = nodes[shape[i]] (or None)."""
    nodes = [Node(i) for i in range(len(shape))]
    for i, target in enumerate(shape):
        nodes[i].next = None if target is None else nodes[target % len(nodes)]
    box = Box(list(nodes))
    box.index = {}
    box.tags = set()
    box.pair = None
    aliases = [nodes[i % len(nodes)] for i in alias_indices]
    return box, aliases


_WORLD = None


def world():
    """One shared client/server pair for every generated example."""
    global _WORLD
    if _WORLD is None:
        resolver = ChannelResolver()
        server = Endpoint(name="prop-server", resolver=resolver)
        client = Endpoint(name="prop-client", resolver=resolver)
        server.bind("program", ProgramService())
        service = client.lookup(server.address, "program")
        _WORLD = (server, client, service)
    return _WORLD


def run_both(shape, alias_indices, program, policy="full"):
    box_local, aliases_local = build_workload(shape, alias_indices)
    result_local = apply_program(box_local, program)

    box_remote, aliases_remote = build_workload(shape, alias_indices)
    _server, client, service = world()
    object.__setattr__(client, "config", NRMIConfig(policy=policy))
    result_remote = service.run(box_remote, list(program))

    local_fp = heap_fingerprint([box_local, result_local] + aliases_local)
    remote_fp = heap_fingerprint([box_remote, result_remote] + aliases_remote)
    return local_fp, remote_fp


@settings(max_examples=80, deadline=None)
@given(graph_shapes, alias_picks, programs)
def test_copy_restore_equals_local_execution(shape, alias_indices, program):
    local_fp, remote_fp = run_both(shape, alias_indices, program, policy="full")
    assert local_fp == remote_fp


@settings(max_examples=60, deadline=None)
@given(graph_shapes, alias_picks, programs)
def test_delta_policy_equals_local_execution(shape, alias_indices, program):
    local_fp, remote_fp = run_both(shape, alias_indices, program, policy="delta")
    assert local_fp == remote_fp


@settings(max_examples=40, deadline=None)
@given(graph_shapes, alias_picks, programs)
def test_full_and_delta_agree(shape, alias_indices, program):
    _, full_fp = run_both(shape, alias_indices, program, policy="full")
    _, delta_fp = run_both(shape, alias_indices, program, policy="delta")
    assert full_fp == delta_fp
