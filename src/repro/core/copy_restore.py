"""Steps 5-6 of the algorithm: in-place overwrite and pointer conversion.

Given the match between original and modified linear-map entries (step 4),
the engine:

* **step 5** — for each old object, overwrites the *original* version's
  state with the *modified* version's state, converting any pointer to a
  modified-old object into a pointer to the corresponding original;
* **step 6** — for each new object (allocated by the server), converts its
  pointers to modified-old objects into pointers to the originals.

Both steps run in a single traversal of the modified graph, as the paper's
Section 5.2.3 describes. The traversal records one flat ``(kind, target,
payload)`` entry per rewritable object — the object's captured state, list
items, bytes, dict pairs or set members — and an apply loop then replays
the records. The only subtlety Python adds over Java is hashed containers:
overwriting an object that is a key in a dict (or member of a set) can
change its hash, so the records form two waves — field/sequence overwrites
first, dict/set rebuilds last — and every key is hashed exactly once, after
its final state is in place.

Immutable containers (tuples, frozensets) cannot be overwritten; they are
rebuilt with converted elements, preserving sharing, and the *parents* get
the rebuilt value. This mirrors how Java treats Strings and boxed
primitives as values.

Pointer conversion is one ``id()``-keyed dict lookup per value: a value
that is a modified old object maps to its original, anything else (a
primitive, a new object, an object the delta path already resolved to its
original) maps to itself.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.matching import MatchResult
from repro.errors import RestoreError
from repro.serde.accessors import FieldAccessor, OPTIMIZED_ACCESSOR
from repro.serde.kinds import KIND_CACHE, Kind, classify
from repro.util.identity import IdentitySet

# ``Kind.X`` is a slow attribute lookup on an Enum class; the per-object
# loops below compare against these module names with ``is`` instead.
_PRIMITIVE = Kind.PRIMITIVE
_UNSUPPORTED = Kind.UNSUPPORTED
_OBJECT = Kind.OBJECT
_LIST = Kind.LIST
_TUPLE = Kind.TUPLE
_FROZENSET = Kind.FROZENSET
_DICT = Kind.DICT
_SET = Kind.SET
_BYTEARRAY = Kind.BYTEARRAY

#: The exact types classify() calls TUPLE and FROZENSET.
_REBUILT_TYPES = frozenset({tuple, frozenset})


class RestoreStats:
    """What a restore pass did — used by tests and the benchmark report."""

    __slots__ = ("old_overwritten", "new_adopted", "immutables_rebuilt")

    def __init__(self) -> None:
        self.old_overwritten = 0
        self.new_adopted = 0
        self.immutables_rebuilt = 0

    def __repr__(self) -> str:
        return (
            f"RestoreStats(old={self.old_overwritten}, new={self.new_adopted}, "
            f"immutables={self.immutables_rebuilt})"
        )


class RestoreEngine:
    """Applies the restore phase on the caller site.

    The engine is configured with a field accessor — the portable or the
    optimized one — which is the axis the paper's two NRMI implementations
    differ on (Section 5.3.1).
    """

    def __init__(
        self,
        accessor: FieldAccessor = OPTIMIZED_ACCESSOR,
        opaque: Optional[Callable[[Any], bool]] = None,
    ) -> None:
        self._accessor = accessor
        # Objects the engine must treat as leaves: neither overwritten nor
        # descended into. The RMI layer marks remote stubs and pointers
        # opaque — they pass by reference and own no restorable state.
        self._opaque = opaque

    def restore(
        self,
        match: MatchResult,
        result: Any = None,
        skip: Optional[IdentitySet] = None,
    ) -> Tuple[Any, RestoreStats]:
        """Reproduce the server's mutations on the caller's originals.

        ``match`` pairs each original object with its returned modified
        version; ``result`` is the (deep-copied) return value, whose
        pointers into the structure are converted too so the caller's view
        is seamless; ``skip`` holds objects that are *already* originals
        (delta restore resolves unchanged objects directly) and must be
        neither overwritten nor descended into.

        Returns ``(converted_result, stats)``.
        """
        get_state = self._accessor.get_state
        replace_state = self._accessor.replace_state
        opaque = self._opaque
        kind_of = KIND_CACHE.get
        original_of = match.original_by_id.get
        stats = RestoreStats()
        rebuilt: Dict[int, Any] = {}  # id(modified immutable) -> rebuilt
        old_overwritten = 0
        new_adopted = 0

        # ---- traversal of the modified graph, recording rewrites
        first_wave: List[Tuple[Kind, Any, Any]] = []   # fields and sequences
        second_wave: List[Tuple[Kind, Any, Any]] = []  # dict/set rebuilds
        # Skipped objects are treated exactly like already-visited ones.
        visited = {id(obj) for obj in skip} if skip else set()
        stack: List[Any] = [result]
        stack.extend(reversed(match.modifieds))
        pop = stack.pop
        push = stack.append
        while stack:
            obj = pop()
            kind = kind_of(type(obj)) or classify(obj)
            if kind is _PRIMITIVE or kind is _UNSUPPORTED:
                continue
            obj_id = id(obj)
            if obj_id in visited:
                continue
            if opaque is not None and opaque(obj):
                continue
            visited.add(obj_id)

            if kind is _TUPLE or kind is _FROZENSET:
                # Not rewritable; just keep walking through it.
                stack.extend(reversed(list(obj)))
                continue

            target = original_of(obj_id)
            if target is None:
                target = obj
                new_adopted += 1
            else:
                old_overwritten += 1

            if kind is _OBJECT:
                state = get_state(obj)
                for _name, value in reversed(state):
                    push(value)
                first_wave.append((kind, target, state))
            elif kind is _LIST:
                items = list(obj)
                stack.extend(reversed(items))
                first_wave.append((kind, target, items))
            elif kind is _BYTEARRAY:
                first_wave.append((kind, target, bytes(obj)))
            elif kind is _DICT:
                pairs = list(obj.items())
                for key, value in reversed(pairs):
                    push(value)
                    push(key)
                second_wave.append((kind, target, pairs))
            elif kind is _SET:
                items = list(obj)
                stack.extend(reversed(items))
                second_wave.append((kind, target, items))
            else:  # pragma: no cover - kinds are exhaustive above
                raise RestoreError(f"cannot restore object of kind {kind}")
        stats.old_overwritten = old_overwritten
        stats.new_adopted = new_adopted

        # ---- apply: fields and sequences first, hashed containers last.
        # Values convert inline (``original_of(id(v), v)``); only tuples and
        # frozensets take the _convert call that rebuilds them.
        for kind, target, payload in first_wave:
            if kind is _OBJECT:
                replace_state(target, [
                    (name, _convert(value, original_of, rebuilt, stats)
                     if type(value) in _REBUILT_TYPES
                     else original_of(id(value), value))
                    for name, value in payload
                ])
            elif kind is _LIST:
                target[:] = [
                    _convert(value, original_of, rebuilt, stats)
                    if type(value) in _REBUILT_TYPES
                    else original_of(id(value), value)
                    for value in payload
                ]
            else:
                target[:] = payload
        for kind, target, payload in second_wave:
            if kind is _DICT:
                converted = [
                    (
                        _convert(key, original_of, rebuilt, stats),
                        _convert(value, original_of, rebuilt, stats),
                    )
                    for key, value in payload
                ]
            else:
                converted = [_convert(item, original_of, rebuilt, stats) for item in payload]
            target.clear()
            target.update(converted)

        return _convert(result, original_of, rebuilt, stats), stats


def _convert(
    value: Any,
    original_of: Callable[..., Any],
    rebuilt: Dict[int, Any],
    stats: RestoreStats,
) -> Any:
    """Map a value in the modified graph to its caller-site value.

    A modified old object becomes its original; a tuple or frozenset is
    rebuilt with converted elements, once per identity so sharing
    survives; anything else — a primitive, a new (server-allocated) object
    whose own slots the traversal fixes, an already-original object —
    keeps its identity.
    """
    if type(value) not in _REBUILT_TYPES:
        return original_of(id(value), value)
    cached = rebuilt.get(id(value))
    if cached is not None:
        return cached
    items = [_convert(item, original_of, rebuilt, stats) for item in value]
    replacement = tuple(items) if type(value) is tuple else frozenset(items)
    rebuilt[id(value)] = replacement
    stats.immutables_rebuilt += 1
    return replacement
