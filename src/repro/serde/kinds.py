"""Classification of Python objects into wire-format kinds.

The classification is shared by the encoder, the graph walker, and the
copy-restore engine, so all three agree on which objects are *mutable
identity-bearing* (linear-map members, restorable in place) and which are
value-like (primitives and immutable containers, rewritten by reference in
their parents instead).
"""

from __future__ import annotations

import types
from enum import Enum, auto
from typing import Any, Dict


class Kind(Enum):
    """The serializer's view of an object's shape."""

    PRIMITIVE = auto()   # None, bool, int, float, complex, str, bytes
    LIST = auto()
    TUPLE = auto()
    SET = auto()
    FROZENSET = auto()
    DICT = auto()
    BYTEARRAY = auto()
    OBJECT = auto()      # class instance with fields
    UNSUPPORTED = auto()


_PRIMITIVE_TYPES = (type(None), bool, int, float, complex, str, bytes)

# Exact-type dispatch for containers: subclasses of list/dict/... carry
# class-specific behaviour and must be registered and treated as OBJECTs
# with container state, which this reproduction does not need — the paper's
# RestorableHashMap pattern is modelled by registered classes holding a
# container field.
_EXACT_KIND = {
    list: Kind.LIST,
    tuple: Kind.TUPLE,
    set: Kind.SET,
    frozenset: Kind.FROZENSET,
    dict: Kind.DICT,
    bytearray: Kind.BYTEARRAY,
}

#: ``type -> Kind`` memo behind :func:`classify`, seeded with the exact
#: containers and filled on first sight of every type whose instances all
#: classify alike. Graph walks probe it inline —
#: ``KIND_CACHE.get(type(obj)) or classify(obj)`` — so a visited object
#: costs one dict lookup instead of a call. Read-only outside this module.
KIND_CACHE: Dict[type, Kind] = dict(_EXACT_KIND)

_MUTABLE_KINDS = frozenset(
    {Kind.LIST, Kind.SET, Kind.DICT, Kind.BYTEARRAY, Kind.OBJECT}
)

_IMMUTABLE_CONTAINER_KINDS = frozenset({Kind.TUPLE, Kind.FROZENSET})


_CODE_LIKE_TYPES = (
    type,
    types.FunctionType,
    types.BuiltinFunctionType,
    types.MethodType,
    types.ModuleType,
    types.GeneratorType,
    types.CoroutineType,
)


def classify(obj: Any) -> Kind:
    """Return the wire kind of *obj*.

    Instances of arbitrary classes classify as ``OBJECT``; whether they are
    actually serializable is decided later against the class registry.
    Code-like objects (functions, classes, modules, generators) are
    unsupported: middleware moves data, never code.

    The answer is memoised per type in :data:`KIND_CACHE` whenever the type
    alone decides it (see :func:`_kind_is_per_type`).
    """
    obj_type = type(obj)
    kind = KIND_CACHE.get(obj_type)
    if kind is not None:
        return kind
    kind = classify_uncached(obj)
    if _kind_is_per_type(obj_type, kind):
        KIND_CACHE[obj_type] = kind
    return kind


def classify_uncached(obj: Any) -> Kind:
    """:func:`classify` without the per-type memo (the reference answer)."""
    kind = _EXACT_KIND.get(type(obj))
    if kind is not None:
        return kind
    if isinstance(obj, _PRIMITIVE_TYPES):
        # Covers bool/int/... subclasses too: they serialize by value.
        return Kind.PRIMITIVE
    if isinstance(obj, _CODE_LIKE_TYPES):
        return Kind.UNSUPPORTED
    if hasattr(obj, "__dict__") or hasattr(type(obj), "__slots__"):
        return Kind.OBJECT
    return Kind.UNSUPPORTED


def _kind_is_per_type(obj_type: type, kind: Kind) -> bool:
    """True when every instance of *obj_type* classifies as *kind*.

    Primitive and code-like answers hold for the whole type when the type
    really subclasses one of those tables; an ``isinstance`` that succeeded
    only through a ``__class__`` override does not. The ``OBJECT`` (and
    data-less ``UNSUPPORTED``) answer rests on ``hasattr`` probes, which a
    class with ``__getattr__``, an overridden ``__getattribute__`` or a
    ``__class__`` override can answer differently per instance. Note the
    builtins' own ``__getattribute__`` is not ``object``'s, so that guard
    must never sit in front of the primitive case.
    """
    if kind is Kind.PRIMITIVE:
        return issubclass(obj_type, _PRIMITIVE_TYPES)
    if issubclass(obj_type, _CODE_LIKE_TYPES):
        return True
    if obj_type.__getattribute__ is not object.__getattribute__:
        return False
    return not any(
        "__getattr__" in vars(klass) or "__class__" in vars(klass)
        for klass in obj_type.__mro__[:-1]
    )


def code_like_type_names() -> frozenset:
    """Names of the code-like types the serializer refuses to encode.

    Introspection hook for tooling (the ``repro.analysis`` linter keys its
    unserializable-field rule off this table) — kept next to the kind
    classifier so the lint and the runtime can never disagree about what
    counts as code.
    """
    return frozenset(t.__name__ for t in _CODE_LIKE_TYPES)


def primitive_type_names() -> frozenset:
    """Names of the primitive (by-value) types, for tooling."""
    return frozenset(t.__name__ for t in _PRIMITIVE_TYPES)


def is_mutable_kind(kind: Kind) -> bool:
    """True for kinds whose instances join the linear map."""
    return kind in _MUTABLE_KINDS


def is_immutable_container(kind: Kind) -> bool:
    """True for tuple/frozenset: traversed, but rebuilt rather than mutated."""
    return kind in _IMMUTABLE_CONTAINER_KINDS
