"""Generic object-graph traversal.

Used by the copy-restore engine (classifying new vs old objects), the delta
encoder (change detection), the DGC (reachability of remote refs), and
tests (heap-state assertions). Traversal is iterative and identity-deduped.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.serde.accessors import FieldAccessor, OPTIMIZED_ACCESSOR
from repro.serde.kinds import KIND_CACHE, Kind, classify, is_mutable_kind

# ``Kind.X`` is a slow attribute lookup on an Enum class, and hashing a
# member runs Python code; the per-object loop below compares against these
# module names with ``is`` instead.
_PRIMITIVE = Kind.PRIMITIVE
_OBJECT = Kind.OBJECT
_DICT = Kind.DICT
_LIST = Kind.LIST
_TUPLE = Kind.TUPLE
_SET = Kind.SET
_FROZENSET = Kind.FROZENSET


def reachable(
    roots: List[Any],
    accessor: FieldAccessor = OPTIMIZED_ACCESSOR,
    mutable_only: bool = False,
    stop: Optional[Callable[[Any], bool]] = None,
) -> Iterator[Any]:
    """Iterate every object reachable from *roots*, each exactly once.

    Traversal is depth-first pre-order using an explicit stack, so depth is
    unbounded. An object's children are its field values (in
    ``accessor.get_state`` order), its items, or, for a dict, each key then
    its value. Primitives (including str/bytes) are not yielded — they are
    values, not identity-bearing heap cells. When *stop* returns True for
    an object, the object is yielded but not descended into (used by the
    RMI layer to stop at remote references).
    """
    get_state = accessor.get_state
    kind_of = KIND_CACHE.get
    # id -> object; holding the object pins its id for the whole walk.
    seen: Dict[int, Any] = {}
    stack = list(reversed(roots))
    pop = stack.pop
    push = stack.append
    while stack:
        obj = pop()
        kind = kind_of(type(obj)) or classify(obj)
        if kind is _PRIMITIVE:
            continue
        obj_id = id(obj)
        if obj_id in seen:
            continue
        seen[obj_id] = obj
        if not mutable_only or kind is _OBJECT or is_mutable_kind(kind):
            yield obj
        if stop is not None and stop(obj):
            continue
        if kind is _OBJECT:
            for _name, value in reversed(get_state(obj)):
                push(value)
        elif kind is _DICT:
            for key, value in reversed(list(obj.items())):
                push(value)
                push(key)
        elif kind is _LIST or kind is _TUPLE or kind is _SET or kind is _FROZENSET:
            stack.extend(reversed(list(obj)))


def count_reachable(roots: List[Any], accessor: FieldAccessor = OPTIMIZED_ACCESSOR) -> int:
    """Number of distinct identity-bearing objects reachable from *roots*."""
    return sum(1 for _ in reachable(roots, accessor))
