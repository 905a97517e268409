"""Field accessors: how the middleware reads and writes object state.

The paper's NRMI ships two implementations (Section 5.3.1):

* a **portable** one built on Java reflection — general and slow, with a
  security check paid on every field access;
* an **optimized** one built on the JVM's ``Unsafe`` direct-memory access —
  fast, but tied to JDK 1.4 internals.

The reproduction mirrors the split with two accessors sharing one interface:

* :class:`PortableAccessor` re-derives the field list on every call and
  routes each access through a per-field validation step (the analogue of
  reflection's security check);
* :class:`OptimizedAccessor` caches a per-class *field plan* (slot layout,
  instance factory) and reads ``__dict__`` in bulk.

Both handle ``__dict__`` classes, ``__slots__`` classes, and mixed
hierarchies. Instances are created without running ``__init__`` — the state
that matters is about to be overwritten anyway, and constructors of user
classes may have side effects middleware must not trigger.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, FrozenSet, List, Tuple

from repro.errors import SerializationError
from repro.serde.hooks import transient_fields

FieldState = List[Tuple[str, Any]]


def _collect_slot_names(cls: type) -> List[str]:
    """All ``__slots__`` names along the MRO, deduplicated in MRO order."""
    names: List[str] = []
    seen = set()
    for klass in reversed(cls.__mro__):
        slots = klass.__dict__.get("__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        for name in slots:
            if name in ("__dict__", "__weakref__") or name in seen:
                continue
            seen.add(name)
            names.append(name)
    return names


class FieldAccessor:
    """Interface for reading/writing instance state and making instances."""

    name = "abstract"

    def get_state(self, obj: Any) -> FieldState:
        """Return the instance's fields as an ordered (name, value) list."""
        raise NotImplementedError

    def set_state(self, obj: Any, state: FieldState) -> None:
        """Overwrite the instance's fields from an ordered (name, value) list."""
        raise NotImplementedError

    def set_field(self, obj: Any, name: str, value: Any) -> None:
        raise NotImplementedError

    def replace_state(self, obj: Any, state: FieldState) -> None:
        """Make *state* the instance's whole state (the restore overwrite).

        Transient fields never travel, so the caller's local values survive
        untouched; every other field the instance has and *state* lacks is
        deleted. The generic version diffs against :meth:`get_state`.
        """
        self._replace_by_diff(obj, state, transient_fields(type(obj)))

    def _replace_by_diff(
        self, obj: Any, state: FieldState, transients: FrozenSet[str]
    ) -> None:
        current = self.get_state(obj)
        preserved = [(name, value) for name, value in current if name in transients]
        stale = {name for name, _ in current}
        stale.difference_update(name for name, _ in state)
        stale.difference_update(transients)
        self.set_state(obj, state + preserved if preserved else state)
        for name in stale:
            try:
                object.__delattr__(obj, name)
            except AttributeError:
                pass

    def new_instance(self, cls: type) -> Any:
        """Allocate an instance of *cls* without running ``__init__``."""
        raise NotImplementedError


class PortableAccessor(FieldAccessor):
    """Reflection-style access: no caching, per-access validation.

    Every ``get_state`` walks the MRO afresh to discover slots, and every
    field read/write passes through :meth:`_check_access` — the stand-in for
    the per-field security check Java reflection imposes. This is the
    truthful cost model for the paper's "portable" implementation.
    """

    name = "portable"

    def _check_access(self, obj: Any, field_name: str) -> None:
        # Deliberately thorough: the legacy stack validates each access.
        if not isinstance(field_name, str) or not field_name:
            raise SerializationError(f"invalid field name {field_name!r}")
        if field_name.startswith("__") and field_name.endswith("__"):
            raise SerializationError(
                f"refusing to serialize dunder field {field_name!r} on "
                f"{type(obj).__name__}"
            )

    def get_state(self, obj: Any) -> FieldState:
        state: FieldState = []
        instance_dict = getattr(obj, "__dict__", None)
        if instance_dict is not None:
            for field_name in instance_dict:
                self._check_access(obj, field_name)
                state.append((field_name, getattr(obj, field_name)))
        for field_name in _collect_slot_names(type(obj)):
            self._check_access(obj, field_name)
            try:
                state.append((field_name, getattr(obj, field_name)))
            except AttributeError:
                continue  # unset slot: absent from the wire, like Java transient
        return state

    def set_state(self, obj: Any, state: FieldState) -> None:
        for field_name, value in state:
            self._check_access(obj, field_name)
            object.__setattr__(obj, field_name, value)

    def set_field(self, obj: Any, name: str, value: Any) -> None:
        self._check_access(obj, name)
        object.__setattr__(obj, name, value)

    def new_instance(self, cls: type) -> Any:
        return object.__new__(cls)


class _ClassPlan:
    """Cached per-class layout used by the optimized accessor."""

    __slots__ = ("cls", "slot_names", "has_dict", "transients", "bulk_replace", "factory")

    def __init__(self, cls: type) -> None:
        self.cls = cls
        self.slot_names: Tuple[str, ...] = tuple(_collect_slot_names(cls))
        # The layout decides: every class object has a ``__dict__``
        # attribute, but only instances of dict-bearing layouts do.
        self.has_dict = cls.__dictoffset__ != 0
        self.transients = transient_fields(cls)
        # Dict-only and transient-free: a restore overwrite is a wholesale
        # ``__dict__`` swap, which drops stale names by itself.
        self.bulk_replace = self.has_dict and not self.slot_names and not self.transients
        factory: Callable[[], Any] = object.__new__  # bound below
        self.factory = lambda: factory(cls)


class OptimizedAccessor(FieldAccessor):
    """Direct access with cached per-class plans (the "Unsafe" analogue)."""

    name = "optimized"

    def __init__(self) -> None:
        self._plans: Dict[type, _ClassPlan] = {}
        self._lock = threading.Lock()

    def _plan_for(self, cls: type) -> _ClassPlan:
        plan = self._plans.get(cls)
        if plan is None:
            with self._lock:
                plan = self._plans.get(cls)
                if plan is None:
                    plan = _ClassPlan(cls)
                    self._plans[cls] = plan
        return plan

    def get_state(self, obj: Any) -> FieldState:
        plan = self._plans.get(type(obj)) or self._plan_for(type(obj))
        if not plan.has_dict:
            state: FieldState = []
        elif not plan.slot_names:
            return list(obj.__dict__.items())
        else:
            state = list(obj.__dict__.items())
        for field_name in plan.slot_names:
            try:
                state.append((field_name, getattr(obj, field_name)))
            except AttributeError:
                continue
        return state

    def set_state(self, obj: Any, state: FieldState) -> None:
        plan = self._plan_for(type(obj))
        if plan.has_dict and not plan.slot_names:
            # Bulk path: replace the instance dict wholesale.
            instance_dict = obj.__dict__
            instance_dict.clear()
            instance_dict.update(state)
            return
        for field_name, value in state:
            object.__setattr__(obj, field_name, value)

    def replace_state(self, obj: Any, state: FieldState) -> None:
        plan = self._plans.get(type(obj)) or self._plan_for(type(obj))
        if plan.bulk_replace:
            instance_dict = obj.__dict__
            instance_dict.clear()
            instance_dict.update(state)
            return
        self._replace_by_diff(obj, state, plan.transients)

    def set_field(self, obj: Any, name: str, value: Any) -> None:
        object.__setattr__(obj, name, value)

    def new_instance(self, cls: type) -> Any:
        return self._plan_for(cls).factory()


#: Shared default instances. The portable accessor is stateless; the
#: optimized accessor's cache is monotonic, so sharing is safe.
PORTABLE_ACCESSOR = PortableAccessor()
OPTIMIZED_ACCESSOR = OptimizedAccessor()


def accessor_by_name(name: str) -> FieldAccessor:
    if name == "portable":
        return PORTABLE_ACCESSOR
    if name == "optimized":
        return OPTIMIZED_ACCESSOR
    raise ValueError(f"unknown accessor {name!r}; expected 'portable' or 'optimized'")
