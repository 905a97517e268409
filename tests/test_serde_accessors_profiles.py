"""Field accessors (portable vs optimized) and serialization profiles."""

import pytest

from repro.errors import SerializationError
from repro.serde.accessors import (
    OPTIMIZED_ACCESSOR,
    PORTABLE_ACCESSOR,
    OptimizedAccessor,
    accessor_by_name,
)
from repro.serde.profiles import (
    LEGACY_PROFILE,
    MODERN_PROFILE,
    profile_by_name,
)

from tests.model_helpers import Pair, SlottedPoint


@pytest.fixture(params=[PORTABLE_ACCESSOR, OPTIMIZED_ACCESSOR], ids=["portable", "optimized"])
def accessor(request):
    return request.param


class TestAccessorContract:
    def test_get_state_returns_fields(self, accessor):
        state = dict(accessor.get_state(Pair(1, 2)))
        assert state == {"first": 1, "second": 2}

    def test_get_state_slots(self, accessor):
        state = dict(accessor.get_state(SlottedPoint(5, 6)))
        assert state == {"x": 5, "y": 6}

    def test_set_state_replaces(self, accessor):
        pair = Pair(1, 2)
        accessor.set_state(pair, [("first", 10), ("second", 20)])
        assert (pair.first, pair.second) == (10, 20)

    def test_set_field(self, accessor):
        pair = Pair(1, 2)
        accessor.set_field(pair, "first", 99)
        assert pair.first == 99

    def test_new_instance_skips_init(self, accessor):
        created = []

        class Tracked:  # deliberately unregistered: accessors don't care
            def __init__(self):
                created.append(self)

        instance = accessor.new_instance(Tracked)
        assert isinstance(instance, Tracked)
        assert created == []

    def test_new_instance_slots(self, accessor):
        point = accessor.new_instance(SlottedPoint)
        point.x = 1
        assert point.x == 1

    def test_unset_slots_skipped(self, accessor):
        point = SlottedPoint.__new__(SlottedPoint)
        point.x = 3
        assert dict(accessor.get_state(point)) == {"x": 3}

    def test_state_order_stable(self, accessor):
        pair = Pair("a", "b")
        assert [name for name, _ in accessor.get_state(pair)] == ["first", "second"]


class TestPortableChecks:
    def test_dunder_field_rejected(self):
        pair = Pair(1, 2)
        pair.__dict__["__evil__"] = 1
        with pytest.raises(SerializationError):
            PORTABLE_ACCESSOR.get_state(pair)

    def test_invalid_field_name_rejected(self):
        with pytest.raises(SerializationError):
            PORTABLE_ACCESSOR.set_field(Pair(1, 2), "", 1)


class TestOptimizedCaching:
    def test_plan_cached_per_class(self):
        accessor = OptimizedAccessor()
        accessor.get_state(Pair(1, 2))
        plan_first = accessor._plans[Pair]
        accessor.get_state(Pair(3, 4))
        assert accessor._plans[Pair] is plan_first

    def test_has_dict_follows_layout(self):
        class SlotsOnly:
            __slots__ = ("a", "b")

        class DictOnly:
            pass

        class SlotsBase:
            __slots__ = ("a",)

        class MixedChild(SlotsBase):  # no __slots__: gains an instance dict
            pass

        class SlotsWithDict:
            __slots__ = ("a", "__dict__")

        accessor = OptimizedAccessor()
        assert accessor._plan_for(SlotsOnly).has_dict is False
        assert accessor._plan_for(DictOnly).has_dict is True
        assert accessor._plan_for(MixedChild).has_dict is True
        assert accessor._plan_for(SlotsWithDict).has_dict is True

    def test_mixed_hierarchy_state_without_instance_probe(self):
        class SlotsBase:
            __slots__ = ("a",)

        class MixedChild(SlotsBase):
            pass

        obj = MixedChild()
        obj.a = 1
        obj.b = 2
        accessor = OptimizedAccessor()
        assert sorted(accessor.get_state(obj)) == [("a", 1), ("b", 2)]
        accessor.set_state(obj, [("a", 3), ("b", 4)])
        assert (obj.a, obj.b) == (3, 4)

    def test_bulk_set_clears_stale_fields(self):
        accessor = OptimizedAccessor()
        pair = Pair(1, 2)
        pair.extra = "stale"
        accessor.set_state(pair, [("first", 9)])
        assert pair.first == 9
        assert not hasattr(pair, "extra")


class TestProfiles:
    def test_lookup_by_name(self):
        assert profile_by_name("legacy") is LEGACY_PROFILE
        assert profile_by_name("modern") is MODERN_PROFILE

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            profile_by_name("jdk9")

    def test_accessor_lookup(self):
        assert accessor_by_name("portable") is PORTABLE_ACCESSOR
        assert accessor_by_name("optimized") is OPTIMIZED_ACCESSOR
        with pytest.raises(ValueError):
            accessor_by_name("turbo")

    def test_profile_knobs(self):
        assert LEGACY_PROFILE.per_object_validation
        assert not LEGACY_PROFILE.intern_descriptors
        assert MODERN_PROFILE.intern_descriptors
        assert not MODERN_PROFILE.per_object_validation
