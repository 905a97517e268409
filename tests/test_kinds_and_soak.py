"""Kind classification unit tests and a middleware soak test."""

import pytest

import os

from repro.rmi.remote_ref import RemoteDescriptor, RemotePointer
from repro.serde.kinds import (
    KIND_CACHE,
    Kind,
    classify,
    classify_uncached,
    is_immutable_container,
    is_mutable_kind,
)

from tests.model_helpers import Box, Node, SlottedPoint


class TestClassify:
    @pytest.mark.parametrize(
        "value", [None, True, 1, 1.5, complex(1, 2), "s", b"b"]
    )
    def test_primitives(self, value):
        assert classify(value) is Kind.PRIMITIVE

    def test_containers(self):
        assert classify([]) is Kind.LIST
        assert classify(()) is Kind.TUPLE
        assert classify(set()) is Kind.SET
        assert classify(frozenset()) is Kind.FROZENSET
        assert classify({}) is Kind.DICT
        assert classify(bytearray()) is Kind.BYTEARRAY

    def test_instances(self):
        assert classify(Box(1)) is Kind.OBJECT
        assert classify(SlottedPoint(1, 2)) is Kind.OBJECT

    def test_code_like_unsupported(self):
        assert classify(classify) is Kind.UNSUPPORTED      # function
        assert classify(Kind) is Kind.UNSUPPORTED          # class
        assert classify((x for x in [])) is Kind.UNSUPPORTED  # generator
        assert classify(os) is Kind.UNSUPPORTED            # module
        assert classify("".join) is Kind.UNSUPPORTED       # bound builtin

    def test_bare_object_unsupported(self):
        assert classify(object()) is Kind.UNSUPPORTED

    def test_bool_subclass_is_primitive(self):
        class MyInt(int):
            pass

        assert classify(MyInt(1)) is Kind.PRIMITIVE

    def test_mutable_kind_table(self):
        assert is_mutable_kind(Kind.LIST)
        assert is_mutable_kind(Kind.DICT)
        assert is_mutable_kind(Kind.SET)
        assert is_mutable_kind(Kind.BYTEARRAY)
        assert is_mutable_kind(Kind.OBJECT)
        assert not is_mutable_kind(Kind.TUPLE)
        assert not is_mutable_kind(Kind.FROZENSET)
        assert not is_mutable_kind(Kind.PRIMITIVE)

    def test_immutable_container_table(self):
        assert is_immutable_container(Kind.TUPLE)
        assert is_immutable_container(Kind.FROZENSET)
        assert not is_immutable_container(Kind.LIST)


class _MyInt(int):
    pass


class _MyStr(str):
    pass


class _MyList(list):
    pass


class _MyDict(dict):
    pass


class _SlotsBase:
    __slots__ = ("a",)


class _Mixed(_SlotsBase):
    pass


class _Lazy:
    """Answers unknown attributes itself, like a proxy."""

    def __getattr__(self, name):
        raise AttributeError(name)


class _Shy:
    """Hides its ``__dict__`` per instance: the type cannot decide the kind."""

    def __init__(self, hide):
        self.hide = hide

    def __getattribute__(self, name):
        if name == "__dict__" and object.__getattribute__(self, "hide"):
            raise AttributeError(name)
        return object.__getattribute__(self, name)


class _Liar:
    """Claims to be an int through ``__class__``."""

    @property
    def __class__(self):
        return int


def _function():
    pass


_MEMO_CORPUS = {
    "none": None,
    "bool": True,
    "int": 1,
    "float": 1.5,
    "complex": complex(1, 2),
    "str": "s",
    "bytes": b"b",
    "int-subclass": _MyInt(3),
    "str-subclass": _MyStr("x"),
    "list": [],
    "tuple": (),
    "set": set(),
    "frozenset": frozenset(),
    "dict": {},
    "bytearray": bytearray(),
    "list-subclass": _MyList(),
    "dict-subclass": _MyDict(),
    "slots-only": SlottedPoint(1, 2),
    "dict-class": Box(1),
    "mixed-class": _Mixed(),
    "function": _function,
    "class": Box,
    "module": os,
    "bare-object": object(),
    "getattr-class": _Lazy(),
    "getattribute-shown": _Shy(False),
    "getattribute-hidden": _Shy(True),
    "class-override": _Liar(),
    "remote-pointer": RemotePointer(None, RemoteDescriptor("inproc://x", 1)),
}


class TestClassifyMemo:
    """The per-type memo never changes what classify() answers."""

    @pytest.mark.parametrize("value", list(_MEMO_CORPUS.values()), ids=list(_MEMO_CORPUS))
    def test_memo_matches_uncached(self, value):
        expected = classify_uncached(value)
        saved = KIND_CACHE.pop(type(value), None)
        try:
            assert classify(value) is expected  # first sight fills the memo
            assert classify(value) is expected  # later calls read it
            assert classify(value) is expected
        finally:
            if saved is not None:
                KIND_CACHE[type(value)] = saved

    def test_expected_kinds(self):
        assert classify(_MyInt(3)) is Kind.PRIMITIVE
        assert classify(_MyList()) is Kind.OBJECT
        assert classify(_MyDict()) is Kind.OBJECT
        assert classify(_Mixed()) is Kind.OBJECT
        assert classify(_Liar()) is Kind.PRIMITIVE
        assert classify(_Shy(False)) is Kind.OBJECT
        assert classify(_Shy(True)) is Kind.UNSUPPORTED

    def test_per_type_answers_cached(self):
        for value in (_MyInt(3), Box(1), SlottedPoint(1, 2), _Mixed(), _function):
            classify(value)
            assert KIND_CACHE[type(value)] is classify_uncached(value)

    def test_per_instance_answers_not_cached(self):
        pointer = RemotePointer(None, RemoteDescriptor("inproc://x", 1))
        for value in (_Lazy(), _Shy(False), _Shy(True), _Liar(), pointer):
            classify(value)
            assert type(value) not in KIND_CACHE


class TestSoak:
    """Hundreds of mixed calls: nothing may accumulate or corrupt."""

    def test_sustained_mixed_traffic(self, endpoint_pair):
        from repro.core.markers import Remote

        class Mixed(Remote):
            def flip(self, box):
                box.payload = -box.payload
                return box.payload

            def read(self, box):
                return box.payload

            def fail_sometimes(self, n):
                if n % 7 == 0:
                    raise ValueError(f"planned {n}")
                return n

        service = endpoint_pair.serve(Mixed())
        from repro.errors import RemoteInvocationError

        failures = 0
        for n in range(300):
            box = Box(n)
            assert service.flip(box) == -n
            assert box.payload == -n
            try:
                service.fail_sometimes(n)
            except RemoteInvocationError:
                failures += 1
        assert failures == 300 // 7 + 1

        # Nothing restorable-related leaked into the export tables: only
        # the registry and the service itself are exported.
        assert endpoint_pair.server.exports.live_count() == 2
        assert endpoint_pair.client.exports.live_count() == 1  # registry

    def test_sustained_batches(self, endpoint_pair):
        from repro.core.markers import Remote

        class Adder(Remote):
            def add(self, a, b):
                return a + b

        service = endpoint_pair.serve(Adder())
        for _round in range(20):
            with endpoint_pair.client.batch() as batch:
                handles = [batch.call(service, "add", i, 1) for i in range(20)]
            assert [handle.result() for handle in handles] == list(range(1, 21))

    def test_alternating_policies_one_endpoint_pair(self, make_endpoint_pair):
        """A 'full' client and a 'delta' client share one server."""
        from repro.core.markers import Remote
        from repro.nrmi.config import NRMIConfig
        from repro.nrmi.runtime import Endpoint

        class Bump(Remote):
            def bump(self, box):
                box.payload += 1

        pair = make_endpoint_pair()
        pair.server.bind("bump", Bump())
        delta_client = Endpoint(
            config=NRMIConfig(policy="delta"), resolver=pair.resolver
        )
        try:
            full_stub = pair.client.lookup(pair.server.address, "bump")
            delta_stub = delta_client.lookup(pair.server.address, "bump")
            box_full, box_delta = Box(0), Box(100)
            for _ in range(25):
                full_stub.bump(box_full)
                delta_stub.bump(box_delta)
            assert box_full.payload == 25
            assert box_delta.payload == 125
        finally:
            delta_client.close()
