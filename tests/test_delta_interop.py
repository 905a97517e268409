"""Delta copy-restore across every transport.

A ``delta`` call is always answered with the dirty-slot reply frame.
Over every transport it must restore the client heap byte-identically to
running the same mutation locally.
"""

import pytest

from repro.core.markers import Remote
from repro.nrmi.config import NRMIConfig
from repro.nrmi.runtime import Endpoint
from repro.transport.resolver import ChannelResolver
from repro.transport.simnet import NetworkModel, SimulatedChannel

from tests.model_helpers import Box, Node, heap_fingerprint

TRANSPORTS = ("inproc", "simnet", "tcp", "uds", "shm")


class ScrambleService(Remote):
    """A sparse mutation: touches one node, allocates one, keeps the rest."""

    def scramble(self, box):
        first = box.payload[0]
        first.data = ("touched", first.data)
        fresh = Node("fresh")
        fresh.next = first
        box.payload.append(fresh)
        return fresh


def make_heap(width=8):
    nodes = [Node(i) for i in range(width)]
    for left, right in zip(nodes, nodes[1:]):
        left.next = right
    box = Box(list(nodes))
    box.alias = nodes[3]  # alias into the middle: restore must preserve it
    return box


def local_fingerprint():
    box = make_heap()
    result = ScrambleService().scramble(box)
    return heap_fingerprint([box, result])


class InteropWorld:
    """One client/server pair over the requested transport."""

    def __init__(self, transport, client_config=None):
        self.resolver = ChannelResolver()
        self.server = Endpoint(name="interop-server", resolver=self.resolver)
        self.client = Endpoint(
            name="interop-client", config=client_config, resolver=self.resolver
        )
        self.server.bind("svc", ScrambleService())
        address = self.server.address
        if transport == "tcp":
            address = self.server.serve_tcp()
        elif transport == "uds":
            address = self.server.serve_uds()
        elif transport == "shm":
            address = self.server.serve_shm()
        elif transport == "simnet":
            self.resolver.set_wrapper(
                address,
                lambda inner: SimulatedChannel(inner, NetworkModel()),
            )
        self.service = self.client.lookup(address, "svc")

    def scramble_fingerprint(self):
        box = make_heap()
        result = self.service.scramble(box)
        return heap_fingerprint([box, result])

    def close(self):
        self.client.close()
        self.server.close()
        self.resolver.close_all()


@pytest.fixture(params=TRANSPORTS)
def transport(request):
    return request.param


def test_delta_equals_local(transport):
    world = InteropWorld(transport, client_config=NRMIConfig(policy="delta"))
    try:
        assert world.scramble_fingerprint() == local_fingerprint()
        # The reply really was the dirty-slot frame, on both ends.
        assert world.client.metrics.counter("delta.slot_replies").value == 1
        assert world.server.metrics.counter("delta.slots_clean").value > 0
        assert world.server.metrics.counter("delta.slots_dirty").value > 0
    finally:
        world.close()


def test_dirty_slot_reply_is_smaller_than_full_map():
    """Same mutation, same transport: the dirty-slot delta reply moves
    fewer bytes than the full-map reply."""
    sizes = {}
    for policy in ("full", "delta"):
        world = InteropWorld("inproc", client_config=NRMIConfig(policy=policy))
        try:
            channel = world.resolver.resolve(world.server.address)
            channel.stats.reset()
            world.scramble_fingerprint()
            sizes[policy] = channel.stats.snapshot()["bytes_received"]
        finally:
            world.close()
    assert sizes["delta"] < sizes["full"]
