"""Graph walker and LinearMap unit tests."""

from repro.serde.linear_map import LinearMap
from repro.serde.walker import count_reachable, reachable

from tests.model_helpers import Node, Pair


class TestChildOrder:
    """reachable() visits an object's children in their natural order."""

    def test_list_children(self):
        a, b = [1], [2]
        root = [a, "skipped", None, b]
        assert [id(o) for o in reachable([root])] == [id(root), id(a), id(b)]

    def test_dict_children_keys_and_values(self):
        key, value = (1,), [2]
        root = {key: value}
        assert [id(o) for o in reachable([root])] == [id(root), id(key), id(value)]

    def test_object_children(self):
        first, second = [1], [2]
        pair = Pair(first, second)
        assert [id(o) for o in reachable([pair])] == [id(pair), id(first), id(second)]

    def test_primitive_has_no_children(self):
        assert list(reachable([42])) == []
        assert list(reachable(["string"])) == []

    def test_tuple_and_set_children(self):
        inner = [1]
        root = (inner, 2)
        assert [id(o) for o in reachable([root])] == [id(root), id(inner)]
        frozen = (3,)
        assert [id(o) for o in reachable([{frozen}])][1:] == [id(frozen)]


class TestReachable:
    def test_counts_identity_objects_once(self):
        shared = [1]
        roots = [[shared, shared]]
        objects = list(reachable(roots))
        ids = [id(obj) for obj in objects]
        assert len(ids) == len(set(ids))
        assert any(obj is shared for obj in objects)

    def test_mutable_only_filters_tuples(self):
        roots = [([1, 2], (3, 4), "s")]
        mutable = list(reachable(roots, mutable_only=True))
        assert all(isinstance(obj, list) for obj in mutable)

    def test_cycle_terminates(self):
        a = Node("a")
        a.next = a
        assert count_reachable([a]) == 1

    def test_deep_chain_no_recursion_error(self):
        head = Node(0)
        current = head
        for i in range(20_000):
            current.next = Node(i + 1)
            current = current.next
        assert count_reachable([head]) == 20_001

    def test_stop_predicate_prunes(self):
        inner = Node("hidden")
        boundary = Pair(inner, None)
        root = [boundary]
        seen = list(reachable([root], stop=lambda o: isinstance(o, Pair)))
        assert any(obj is boundary for obj in seen)
        assert not any(obj is inner for obj in seen)

    def test_strings_are_values_not_heap_cells(self):
        seen = list(reachable([["abc"]]))
        assert "abc" not in seen
        assert len(seen) == 1  # just the list

    def test_preorder_deterministic(self):
        a, b = [1], [2]
        root = [a, b]
        first = [id(o) for o in reachable([root])]
        second = [id(o) for o in reachable([root])]
        assert first == second == [id(root), id(a), id(b)]


class TestLinearMap:
    def test_append_assigns_positions(self):
        lmap = LinearMap()
        a, b = [1], [2]
        assert lmap.append(a) == 0
        assert lmap.append(b) == 1

    def test_append_idempotent(self):
        lmap = LinearMap()
        a = [1]
        assert lmap.append(a) == 0
        assert lmap.append(a) == 0
        assert len(lmap) == 1

    def test_position_of_missing(self):
        assert LinearMap().position_of([1]) is None

    def test_contains_by_identity(self):
        lmap = LinearMap()
        a = [1]
        lmap.append(a)
        assert a in lmap
        assert [1] not in lmap

    def test_iteration_order(self):
        lmap = LinearMap()
        items = [[i] for i in range(5)]
        for item in items:
            lmap.append(item)
        assert [obj[0] for obj in lmap] == [0, 1, 2, 3, 4]
        assert lmap[3] == [3]

    def test_init_from_list(self):
        items = [[1], [2]]
        lmap = LinearMap(items)
        assert len(lmap) == 2
        assert lmap.position_of(items[1]) == 1

    def test_objects_property(self):
        items = [[1], [2]]
        assert LinearMap(items).objects == items
