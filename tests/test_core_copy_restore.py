"""The restore engine (steps 5-6) at unit level.

These tests drive RestoreEngine directly with hand-built original/modified
pairs, checking in-place overwrite, pointer conversion, new-object
adoption, immutable rebuilding, and the hashed-container ordering rules.
"""

import pytest

from repro.bench.mutators import mutate_structure
from repro.bench.trees import TreeNode, generate_workload
from repro.core.copy_restore import RestoreEngine
from repro.core.matching import match_maps
from repro.core.restore_protocol import (
    ClientRestoreContext,
    FullRestorePolicy,
    ServerRestoreContext,
)
from repro.core.verify import fingerprint
from repro.nrmi.invocation import compute_retained
from repro.serde.accessors import OPTIMIZED_ACCESSOR, PORTABLE_ACCESSOR, OptimizedAccessor
from repro.serde.reader import ObjectReader
from repro.serde.writer import ObjectWriter
from repro.util.identity import IdentitySet

from tests.model_helpers import Box, Node, Pair, SlottedPoint


def restore(originals, modifieds, result=None, engine=None, skip=None):
    engine = engine or RestoreEngine()
    match = match_maps(originals, modifieds)
    return engine.restore(match, result, skip=skip)


@pytest.fixture(
    params=[PORTABLE_ACCESSOR, OPTIMIZED_ACCESSOR], ids=["portable", "optimized"]
)
def engine(request):
    """An engine per accessor: both must restore identically."""
    return RestoreEngine(accessor=request.param)


class Cached:
    """Dict-only with a transient: the optimized accessor's non-bulk branch."""

    __nrmi_transient__ = ("cache",)

    def __init__(self, data=None, cache=None):
        self.data = data
        self.cache = cache


class ValueHashed:
    """Hashes by its payload, so an overwrite changes its hash."""

    def __init__(self, payload=None):
        self.payload = payload

    def __hash__(self):
        return hash(self.payload)

    def __eq__(self, other):
        return isinstance(other, ValueHashed) and self.payload == other.payload


class SlotsBase:
    __slots__ = ("a",)


class Mixed(SlotsBase):
    """Slots from the base, an instance dict from the subclass."""

    def __init__(self, a=None, **fields):
        self.a = a
        self.__dict__.update(fields)


class TestObjectOverwrite:
    def test_field_value_overwritten_in_place(self):
        original, modified = Node(1), Node(99)
        restore([original], [modified])
        assert original.data == 99

    def test_identity_of_original_preserved(self):
        original, modified = Node(1), Node(2)
        alias = original
        restore([original], [modified])
        assert alias is original
        assert alias.data == 2

    def test_pointer_to_old_object_converted(self):
        orig_a, orig_b = Node("a"), Node("b")
        mod_a, mod_b = Node("a"), Node("b")
        mod_a.next = mod_b  # server linked a to b
        restore([orig_a, orig_b], [mod_a, mod_b])
        assert orig_a.next is orig_b  # NOT mod_b

    def test_new_field_added(self):
        original = Box(1)
        modified = Box(1)
        modified.added = "new"
        restore([original], [modified])
        assert original.added == "new"

    def test_stale_field_removed(self, engine):
        original = Box(1)
        original.stale = "old"
        modified = Box(2)
        restore([original], [modified], engine=engine)
        assert not hasattr(original, "stale")
        assert original.payload == 2

    def test_stats_count_old_and_new(self):
        orig = Node(1)
        mod = Node(2, next=Node("fresh"))
        _result, stats = restore([orig], [mod])
        assert stats.old_overwritten == 1
        assert stats.new_adopted == 1


class TestNewObjects:
    def test_new_object_adopted_with_converted_pointers(self):
        orig = Node("old")
        mod = Node("old-changed")
        fresh = Node("fresh", next=mod)  # new node points at modified old
        result, _stats = restore([orig], [mod], result=fresh)
        assert result is fresh
        assert fresh.next is orig  # converted to the original

    def test_chain_of_new_objects(self):
        orig = Node(0)
        mod = Node(0)
        chain = Node(1, Node(2, Node(3, mod)))
        result, _ = restore([orig], [mod], result=chain)
        assert result.next.next.next is orig

    def test_result_that_is_modified_old_becomes_original(self):
        orig, mod = Node(1), Node(2)
        result, _ = restore([orig], [mod], result=mod)
        assert result is orig


class TestContainers:
    def test_list_overwritten_in_place(self):
        original, modified = [1, 2, 3], [9, 8]
        restore([original], [modified])
        assert original == [9, 8]

    def test_list_pointer_conversion(self):
        orig_node, mod_node = Node(1), Node(2)
        original, modified = [], [mod_node]
        restore([original, orig_node], [modified, mod_node])
        assert original[0] is orig_node

    def test_dict_rebuilt(self):
        original = {"a": 1}
        modified = {"b": 2, "c": 3}
        restore([original], [modified])
        assert original == {"b": 2, "c": 3}

    def test_dict_object_keys_converted(self, engine):
        orig_key, mod_key = Node("k"), Node("k")
        original, modified = {orig_key: 1}, {mod_key: 2}
        restore([original, orig_key], [modified, mod_key], engine=engine)
        assert original[orig_key] == 2
        assert len(original) == 1

    def test_set_rebuilt_with_converted_members(self, engine):
        orig_member, mod_member = Node("m"), Node("m")
        original, modified = set(), {mod_member}
        restore([original, orig_member], [modified, mod_member], engine=engine)
        assert orig_member in original

    def test_bytearray_overwritten(self):
        original = bytearray(b"old")
        modified = bytearray(b"newer")
        restore([original], [modified])
        assert original == bytearray(b"newer")

    def test_value_hashed_key_rehashed_after_overwrite(self, engine):
        """Keys are inserted after field overwrites, so hashes are final."""
        orig_key = ValueHashed("k1")
        mod_key = ValueHashed("k2")  # server changed the key's payload
        original_dict = {}
        modified_dict = {mod_key: "v"}
        restore([original_dict, orig_key], [modified_dict, mod_key], engine=engine)
        assert orig_key.payload == "k2"
        assert original_dict[orig_key] == "v"  # findable under the NEW hash


class TestImmutables:
    def test_tuple_rebuilt_with_converted_refs(self, engine):
        orig, mod = Node(1), Node(2)
        original_box, modified_box = Box(None), Box((mod, "tag"))
        restore([original_box, orig], [modified_box, mod], engine=engine)
        assert original_box.payload[0] is orig
        assert original_box.payload[1] == "tag"

    def test_nested_tuples_converted(self, engine):
        orig, mod = Node(1), Node(2)
        original_box, modified_box = Box(None), Box(((mod,), (mod,)))
        restore([original_box, orig], [modified_box, mod], engine=engine)
        assert original_box.payload[0][0] is orig
        assert original_box.payload[1][0] is orig

    def test_shared_tuple_rebuilt_once(self, engine):
        orig, mod = Node(1), Node(2)
        shared = (mod,)
        original_box, modified_box = Box(None), Box([shared, shared])
        restore([original_box, orig], [modified_box, mod], engine=engine)
        assert original_box.payload[0] is original_box.payload[1]

    def test_frozenset_rebuilt(self, engine):
        original_box, modified_box = Box(None), Box(frozenset({1, 2}))
        restore([original_box], [modified_box], engine=engine)
        assert original_box.payload == frozenset({1, 2})

    def test_stats_count_rebuilds(self):
        orig, mod = Node(1), Node(2)
        _result, stats = restore(
            [Box(None), orig], [Box((mod,)), mod]
        )
        assert stats.immutables_rebuilt == 1


class TestCyclesAndAliasing:
    def test_cycle_in_modified_graph(self):
        orig_a, orig_b = Node("a"), Node("b")
        mod_a, mod_b = Node("a'"), Node("b'")
        mod_a.next = mod_b
        mod_b.next = mod_a
        restore([orig_a, orig_b], [mod_a, mod_b])
        assert orig_a.next is orig_b
        assert orig_b.next is orig_a

    def test_self_loop_created_by_server(self):
        orig, mod = Node(1), Node(1)
        mod.next = mod
        restore([orig], [mod])
        assert orig.next is orig

    def test_unreachable_old_object_still_restored(self):
        """The alias1/alias2 property: detached data must be updated."""
        orig_root, orig_detached = Node("root"), Node("d")
        orig_root.next = orig_detached
        mod_root, mod_detached = Node("root'"), Node("d-changed")
        mod_root.next = None  # server detached it...
        # ...but the linear map retains it, so it still arrives.
        restore([orig_root, orig_detached], [mod_root, mod_detached])
        assert orig_root.next is None
        assert orig_detached.data == "d-changed"


class TestSkipAndOpaque:
    def test_skip_objects_not_descended(self, engine):
        orig, mod = Node(1), Node(2)
        untouchable = Box("keep")
        mod.next = untouchable
        skip = IdentitySet([untouchable])
        restore([orig], [mod], engine=engine, skip=skip)
        assert orig.next is untouchable
        assert untouchable.payload == "keep"

    def test_opaque_predicate_blocks_rewrite(self):
        class Opaque(Box):
            pass

        engine = RestoreEngine(opaque=lambda o: isinstance(o, Opaque))
        orig, mod = Node(1), Node(2)
        sentinel = Opaque("s")
        mod.next = sentinel
        restore([orig], [mod], engine=engine)
        assert orig.next is sentinel
        assert sentinel.payload == "s"


class TestAccessorParity:
    """Cases whose overwrite differs per accessor branch, run under both."""

    def test_transient_kept_and_stale_dropped(self, engine):
        original = Cached(data=1, cache="local")
        original.stale = "old"
        modified = Cached.__new__(Cached)  # transients never travel
        modified.data = 2
        restore([original], [modified], engine=engine)
        assert original.data == 2
        assert original.cache == "local"
        assert not hasattr(original, "stale")

    def test_transient_absent_on_caller_stays_absent(self, engine):
        original = Cached.__new__(Cached)
        original.data = 1
        modified = Cached.__new__(Cached)
        modified.data = 2
        restore([original], [modified], engine=engine)
        assert vars(original) == {"data": 2}

    def test_slots_overwritten_and_unset_slot_dropped(self, engine):
        orig_next, mod_next = Node("n"), Node("n'")
        original = SlottedPoint(1, 2)
        modified = SlottedPoint.__new__(SlottedPoint)
        modified.x = mod_next  # y left unset by the server
        restore([original, orig_next], [modified, mod_next], engine=engine)
        assert original.x is orig_next
        assert not hasattr(original, "y")

    def test_mixed_hierarchy(self, engine):
        orig_node, mod_node = Node(1), Node(2)
        original = Mixed(a=0, b=0, stale="old")
        modified = Mixed(a=mod_node, b="new")
        restore([original, orig_node], [modified, mod_node], engine=engine)
        assert original.a is orig_node
        assert original.b == "new"
        assert not hasattr(original, "stale")
        assert orig_node.data == 2

    def test_delta_skip_resolves_to_originals(self, engine):
        """A delta reply: only the changed object travels; the unchanged
        one arrives already resolved to the caller's original."""
        orig_a, orig_b = Node("a"), Node("b")
        orig_b.next = orig_a
        mod_a = Node("a-changed", next=orig_b)  # points at the original b
        _result, stats = restore(
            [orig_a], [mod_a], engine=engine, skip=IdentitySet([orig_b])
        )
        assert orig_a.data == "a-changed"
        assert orig_a.next is orig_b
        assert orig_b.data == "b" and orig_b.next is orig_a
        assert (stats.old_overwritten, stats.new_adopted) == (1, 0)


class _CountingAccessor(OptimizedAccessor):
    """Records every object whose state the engine reads."""

    def __init__(self):
        super().__init__()
        self.read = []

    def get_state(self, obj):
        self.read.append(obj)
        return super().get_state(obj)


class TestRestoreStructure:
    """Hardware-independent guard on how much work one restore does."""

    @pytest.mark.parametrize("seed", [3, 11])
    def test_full_reply_reads_each_object_once(self, seed):
        workload = generate_workload("III", 256, seed)
        twin = generate_workload("III", 256, seed)

        writer = ObjectWriter()
        writer.write_root(workload.root)
        originals = compute_retained(writer.linear_map, [workload.root], OPTIMIZED_ACCESSOR)
        reader = ObjectReader(writer.getvalue())
        server_root = reader.read_root()
        retained = compute_retained(reader.linear_map, [server_root], OPTIMIZED_ACCESSOR)
        count = mutate_structure(server_root, seed)
        policy = FullRestorePolicy()
        payload = policy.build_response(
            count,
            ServerRestoreContext(retained=retained, restore_roots=[server_root]),
            None,
        )

        accessor = _CountingAccessor()
        assert accessor._plan_for(TreeNode).bulk_replace  # dict-only, no transients
        result, stats = policy.parse_response(
            payload,
            ClientRestoreContext(
                originals=originals, engine=RestoreEngine(accessor=accessor)
            ),
        )

        # Same heap as running the mutation locally on a twin tree.
        assert result == mutate_structure(twin.root, seed)
        assert fingerprint([workload.root, *workload.aliases]) == fingerprint(
            [twin.root, *twin.aliases]
        )
        # One state read per visited OBJECT (every visited object here is a
        # TreeNode), none on a restore target: the overwrite of a dict-only,
        # transient-free class never reads the state it replaces.
        visited = stats.old_overwritten + stats.new_adopted
        assert stats.old_overwritten == len(originals)
        assert len(accessor.read) == visited
        assert len({id(obj) for obj in accessor.read}) == visited
        targets = {id(obj) for obj in originals}
        assert not any(id(obj) in targets for obj in accessor.read)


class TestEngineAccessors:
    def test_portable_engine_equivalent(self):
        engine = RestoreEngine(accessor=PORTABLE_ACCESSOR)
        orig, mod = Node(1), Node(2, next=Node("new"))
        restore([orig], [mod], engine=engine)
        assert orig.data == 2
        assert orig.next.data == "new"
