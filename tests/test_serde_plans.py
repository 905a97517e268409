"""Compiled serde plans: registry caching, version invalidation, identity.

The plan compiler (:mod:`repro.serde.plans`) must be invisible on the wire:
compiled and generic encoding agree byte for byte, and its caches must
follow ``__nrmi_version__`` — a bumped version means a stale plan would
stamp the wrong version into class descriptors, so the registry recompiles.

The exec-generated plans (:mod:`repro.serde.codegen`) add a second
invalidation axis: generated source bakes descriptor blobs in, so the
registry also recompiles them when the process-wide schema epoch moves.
"""

from dataclasses import replace

import pytest

from repro.core.markers import Restorable, Serializable
from repro.serde import codegen as codegen_mod
from repro.serde.codegen import (
    CodegenDecodePlan,
    CodegenEncodePlan,
    codegen_metrics,
)
from repro.serde.plans import DecodePlan, EncodePlan
from repro.serde.profiles import MODERN_PROFILE
from repro.serde.reader import ObjectReader
from repro.serde.registry import ClassRegistry, global_registry
from repro.serde.schema import global_schema_table
from repro.serde.writer import ObjectWriter

from tests.model_helpers import Node, Pair, heap_fingerprint

MODERN_NO_PLANS = replace(
    MODERN_PROFILE, name="modern-noplans", use_compiled_plans=False
)
# Interpreted-plan path with codegen off: the correctness oracle the
# generated functions must match byte for byte.
MODERN_NO_CODEGEN = replace(
    MODERN_PROFILE, name="modern-nocodegen", use_codegen=False
)


class Versioned(Serializable):
    __nrmi_version__ = 1

    def __init__(self, a=0, b=""):
        self.a = a
        self.b = b


class PlainRecord(Restorable):
    def __init__(self, x=None):
        self.x = x


class Leaf(Restorable):
    def __init__(self, v=0):
        self.v = v


class Holder(Restorable):
    """A list field first (generated decoders bail on lists), then
    scalars, then two nested plan-backed objects of another class."""

    def __init__(self, items=None, a=0, b="", left=None, right=None):
        self.items = items
        self.a = a
        self.b = b
        self.left = left
        self.right = right


@pytest.fixture
def registry():
    reg = ClassRegistry()
    reg.register(Versioned, name="versioned")
    reg.register(PlainRecord, name="plain-record")
    reg.register(Leaf, name="leaf")
    reg.register(Holder, name="holder")
    return reg


class TestPlanCache:
    def test_plans_are_cached_per_class(self, registry):
        first = registry.encode_plan_for(Versioned)
        second = registry.encode_plan_for(Versioned)
        assert isinstance(first, EncodePlan)
        assert first is second
        assert registry.decode_plan_for(Versioned) is registry.decode_plan_for(
            Versioned
        )

    def test_registries_do_not_share_plans(self, registry):
        other = ClassRegistry()
        other.register(Versioned, name="versioned")
        assert registry.encode_plan_for(Versioned) is not other.encode_plan_for(
            Versioned
        )

    def test_plan_records_class_version(self, registry):
        assert registry.encode_plan_for(Versioned).version == 1
        assert registry.decode_plan_for(Versioned).version == 1
        assert registry.encode_plan_for(PlainRecord).version == 0

    def test_version_bump_invalidates_encode_and_decode_plans(self, registry):
        stale_encode = registry.encode_plan_for(Versioned)
        stale_decode = registry.decode_plan_for(Versioned)
        Versioned.__nrmi_version__ = 2
        try:
            fresh_encode = registry.encode_plan_for(Versioned)
            fresh_decode = registry.decode_plan_for(Versioned)
            assert fresh_encode is not stale_encode
            assert fresh_decode is not stale_decode
            assert fresh_encode.version == 2
            assert fresh_decode.version == 2
            # Stable until the version moves again.
            assert registry.encode_plan_for(Versioned) is fresh_encode
        finally:
            Versioned.__nrmi_version__ = 1

    def test_bumped_version_reaches_the_wire(self, registry):
        """The recompiled plan stamps the new version into descriptors —
        the whole point of invalidation."""

        writer = ObjectWriter(profile=MODERN_PROFILE, registry=registry)
        writer.write_root(Versioned())
        before = writer.getvalue()
        Versioned.__nrmi_version__ = 7
        try:
            writer = ObjectWriter(profile=MODERN_PROFILE, registry=registry)
            writer.write_root(Versioned())
            after = writer.getvalue()
        finally:
            Versioned.__nrmi_version__ = 1
        assert before != after  # the descriptor carries the bumped version

    def test_invalidate_plans_single_class(self, registry):
        versioned = registry.encode_plan_for(Versioned)
        plain = registry.encode_plan_for(PlainRecord)
        registry.invalidate_plans(Versioned)
        assert registry.encode_plan_for(Versioned) is not versioned
        assert registry.encode_plan_for(PlainRecord) is plain

    def test_invalidate_plans_all(self, registry):
        encode = registry.encode_plan_for(Versioned)
        decode = registry.decode_plan_for(Versioned)
        registry.invalidate_plans()
        assert registry.encode_plan_for(Versioned) is not encode
        assert registry.decode_plan_for(Versioned) is not decode

    def test_decode_plan_shape(self, registry):
        plan = registry.decode_plan_for(PlainRecord)
        assert isinstance(plan, DecodePlan)
        instance = plan.factory()
        assert type(instance) is PlainRecord
        assert plan.needs_resolve is False
        assert plan.has_upgrade is False


class TestCodegenPlanCache:
    """The generated-function caches: version *and* epoch invalidation."""

    def test_codegen_plans_cached_per_class(self, registry):
        encode = registry.codegen_encode_plan_for(Versioned)
        decode = registry.codegen_decode_plan_for(Versioned)
        assert isinstance(encode, CodegenEncodePlan)
        assert isinstance(decode, CodegenDecodePlan)
        assert registry.codegen_encode_plan_for(Versioned) is encode
        assert registry.codegen_decode_plan_for(Versioned) is decode
        # Cached separately from the interpreted plans.
        assert registry.encode_plan_for(Versioned) is not encode

    def test_version_bump_recompiles_codegen_plans(self, registry):
        stale_encode = registry.codegen_encode_plan_for(Versioned)
        stale_decode = registry.codegen_decode_plan_for(Versioned)
        Versioned.__nrmi_version__ = 2
        try:
            fresh_encode = registry.codegen_encode_plan_for(Versioned)
            fresh_decode = registry.codegen_decode_plan_for(Versioned)
            assert fresh_encode is not stale_encode
            assert fresh_decode is not stale_decode
            assert fresh_encode.version == 2
            assert fresh_decode.version == 2
            # Stable until the version moves again.
            assert registry.codegen_encode_plan_for(Versioned) is fresh_encode
        finally:
            Versioned.__nrmi_version__ = 1

    def test_bumped_version_reaches_the_codegen_wire(self, registry):
        """The recompiled generated encoder stamps the new version into
        its baked class blob — a stale function would ship version 1."""
        writer = ObjectWriter(profile=MODERN_PROFILE, registry=registry)
        writer.write_root(Versioned())
        before = writer.getvalue()
        Versioned.__nrmi_version__ = 7
        try:
            writer = ObjectWriter(profile=MODERN_PROFILE, registry=registry)
            writer.write_root(Versioned())
            after = writer.getvalue()
            # ... and it matches what the interpreted path says version 7
            # looks like.
            oracle = ObjectWriter(
                profile=MODERN_NO_CODEGEN, registry=registry
            )
            oracle.write_root(Versioned())
            assert after == oracle.getvalue()
        finally:
            Versioned.__nrmi_version__ = 1
        assert before != after

    def test_schema_epoch_bump_recompiles_codegen_plans(self, registry):
        """A :meth:`GlobalSchemaTable.reset` invalidates every generated
        function (their source bakes descriptor blobs in); the interpreted
        plans, which consult the table at run time, survive."""
        codegen_encode = registry.codegen_encode_plan_for(Versioned)
        codegen_decode = registry.codegen_decode_plan_for(Versioned)
        interpreted = registry.encode_plan_for(Versioned)
        assert codegen_encode.epoch == global_schema_table.epoch
        global_schema_table.reset()
        fresh_encode = registry.codegen_encode_plan_for(Versioned)
        fresh_decode = registry.codegen_decode_plan_for(Versioned)
        assert fresh_encode is not codegen_encode
        assert fresh_decode is not codegen_decode
        assert fresh_encode.epoch == global_schema_table.epoch
        assert registry.encode_plan_for(Versioned) is interpreted

    def test_compiled_counter_counts_generated_functions(self, registry):
        before = codegen_metrics.counter("serde.codegen.compiled").value
        registry.codegen_encode_plan_for(Versioned)
        registry.codegen_decode_plan_for(Versioned)
        after = codegen_metrics.counter("serde.codegen.compiled").value
        assert after == before + 2
        # Cache hits don't recompile.
        registry.codegen_encode_plan_for(Versioned)
        assert codegen_metrics.counter("serde.codegen.compiled").value == after

    def test_compile_failure_falls_back_byte_identically(
        self, registry, monkeypatch
    ):
        """A codegen compile failure must degrade, not break: the fallback
        plan wraps the interpreted closure and the wire bytes are
        unchanged."""
        monkeypatch.setattr(
            codegen_mod,
            "_build_encode_source",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        fallbacks = codegen_metrics.counter("serde.codegen.fallbacks")
        before = fallbacks.value
        value = Versioned(a=11, b="degraded")
        writer = ObjectWriter(profile=MODERN_PROFILE, registry=registry)
        writer.write_root(value)
        broken = writer.getvalue()
        assert fallbacks.value == before + 1
        monkeypatch.undo()
        registry.invalidate_plans(Versioned)
        oracle = ObjectWriter(profile=MODERN_NO_CODEGEN, registry=registry)
        oracle.write_root(value)
        assert broken == oracle.getvalue()


class TestBailHandover:
    """A generated decoder that bails hands the rest of its object to the
    frame machine, and the frame machine hands each nested plan-backed
    object straight back to that class's generated decoder."""

    def test_nested_objects_after_a_bail_use_their_decoders(
        self, registry, monkeypatch
    ):
        value = Holder(
            items=[1, [2, 3]], a=7, b="after-bail", left=Leaf(1), right=Leaf(2)
        )
        writer = ObjectWriter(profile=MODERN_PROFILE, registry=registry)
        writer.write_root(value)
        payload = writer.getvalue()

        calls = {"holder": 0, "leaf": 0}
        for cls, key in ((Holder, "holder"), (Leaf, "leaf")):
            plan = registry.codegen_decode_plan_for(cls)
            assert plan.decode_fn is not None

            def counted(reader, stack, wire_version, _fn=plan.decode_fn, _key=key):
                calls[_key] += 1
                return _fn(reader, stack, wire_version)

            monkeypatch.setattr(plan, "decode_fn", counted)

        decoded = ObjectReader(
            payload, profile=MODERN_PROFILE, registry=registry
        ).read_root()
        assert calls == {"holder": 1, "leaf": 2}
        reference = ObjectReader(
            payload, profile=MODERN_NO_CODEGEN, registry=registry
        ).read_root()
        assert heap_fingerprint([decoded]) == heap_fingerprint([reference])
        assert heap_fingerprint([decoded]) == heap_fingerprint([value])


class TestByteIdentity:
    """Compiled output must be indistinguishable from the generic encoder's."""

    def _encode(self, value, profile, registry=None):
        writer = ObjectWriter(profile=profile, registry=registry)
        writer.write_root(value)
        return writer.getvalue()

    @pytest.mark.parametrize(
        "value",
        [
            Versioned(a=-(2**40), b="hello"),
            PlainRecord(x=[1, 2.5, "s", b"b", None, True]),
            Versioned(a=2**70, b="big ints take the INT_BIG path"),
            PlainRecord(x={"k": Versioned(a=1, b="nested")}),
        ],
        ids=["scalars", "container", "int-big", "nested"],
    )
    def test_isolated_registry_byte_identity(self, registry, value):
        compiled = self._encode(value, MODERN_PROFILE, registry)
        generic = self._encode(value, MODERN_NO_PLANS, registry)
        assert compiled == generic

    def test_global_registry_shared_and_cyclic(self):
        shared = Node(data="shared")
        shared.next = shared  # self cycle
        graph = Pair(first=[shared, shared], second=Node(data=shared))
        compiled = self._encode(graph, MODERN_PROFILE)
        generic = self._encode(graph, MODERN_NO_PLANS)
        assert compiled == generic
        decoded = ObjectReader(compiled, profile=MODERN_PROFILE).read_root()
        assert decoded.first[0] is decoded.first[1]
        assert decoded.first[0].next is decoded.first[0]
        assert decoded.second.data is decoded.first[0]

    def test_writer_uses_cached_plan_from_registry(self, registry):
        # Prime the registry cache, then confirm the writer's fast path
        # consults it (same plan object, no recompilation).
        plan = registry.encode_plan_for(Versioned)
        writer = ObjectWriter(profile=MODERN_PROFILE, registry=registry)
        writer.write_root(Versioned(a=3, b="warm"))
        assert registry.encode_plan_for(Versioned) is plan

    def test_memo_cap_matches_generic_path(self, registry):
        # Past the memo limit the compiled path must stop interning strings
        # exactly where the generic path does.
        values = PlainRecord(x=[f"s{i}" for i in range(64)] * 2)
        compiled_writer = ObjectWriter(
            profile=MODERN_PROFILE, registry=registry, memo_limit=16
        )
        compiled_writer.write_root(values)
        generic_writer = ObjectWriter(
            profile=MODERN_NO_PLANS, registry=registry, memo_limit=16
        )
        generic_writer.write_root(values)
        assert compiled_writer.getvalue() == generic_writer.getvalue()

    def test_global_registry_has_model_classes(self):
        # The property tests in test_property_serde.py rely on these.
        assert global_registry.is_registered(Node)
        assert global_registry.is_registered(Pair)
