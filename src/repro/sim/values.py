"""Value handling for simulated shared registers.

Registers in the simulator store *immutable snapshots*. If a process could
write a mutable ``set`` into a register and later mutate it in place, the
register's contents would change without a write step — violating
atomicity and silently corrupting every experiment built on top. To rule
this class of bug out entirely, every value is passed through
:func:`freeze` on its way into a register:

* ``set`` / ``frozenset``  -> ``frozenset`` (element-wise frozen)
* ``list`` / ``tuple``     -> ``tuple`` (element-wise frozen)
* ``dict``                 -> :class:`FrozenDict`
* scalars (int, str, bytes, bool, None, float, Enum) -> unchanged
* :data:`BOTTOM`           -> unchanged

Reads return the frozen value directly; because it is immutable it is safe
to hand the same object to every reader.

This module also defines :data:`BOTTOM`, the distinguished initial value
"⊥" of sticky registers (Section 8 of the paper), and :func:`stable_key`,
a deterministic total order over heterogeneous frozen values used by
Algorithm 2's Read to select "the tuple ⟨l, v⟩ such that ⟨l, v⟩ >= ⟨l', v'⟩
for all ⟨l', v'⟩" even when a Byzantine writer mixes value types.
"""

from __future__ import annotations

import enum
from typing import Any, Hashable, Iterator, Mapping, Tuple

from repro.errors import FrozenValueError


class _BottomType:
    """Singleton type of the distinguished initial value ``⊥``.

    ``⊥`` is not a member of the value domain V: the writer of a sticky
    register may never write it, and readers returning it signal "nothing
    written yet" (Definition 21). It is falsy, hashable, and compares
    equal only to itself.
    """

    _instance: "_BottomType | None" = None

    def __new__(cls) -> "_BottomType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "⊥"

    def __bool__(self) -> bool:
        return False

    def __reduce__(self):
        return (_BottomType, ())

    def __hash__(self) -> int:
        return hash("_repro_bottom_")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _BottomType)


#: The distinguished "nothing written yet" value of sticky registers.
BOTTOM = _BottomType()


def is_bottom(value: Any) -> bool:
    """Return True iff ``value`` is the distinguished ``⊥`` sentinel."""
    return isinstance(value, _BottomType)


class FrozenDict(Mapping[Any, Any]):
    """An immutable, hashable mapping used for structured register values.

    Register algorithms in this library mostly store frozensets and tuples,
    but experiment harnesses occasionally stash small records (e.g. message
    payloads) in registers; FrozenDict lets them do so without opening the
    mutability hole described in the module docstring.
    """

    __slots__ = ("_items", "_hash")

    def __init__(self, mapping: Mapping[Any, Any] | None = None, **kwargs: Any):
        source = dict(mapping or {})
        source.update(kwargs)
        self._items: dict = {freeze(k): freeze(v) for k, v in source.items()}
        self._hash: int | None = None

    def __getitem__(self, key: Any) -> Any:
        return self._items[freeze(key)]

    def __iter__(self) -> Iterator[Any]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._items.items()))
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FrozenDict):
            return self._items == other._items
        if isinstance(other, Mapping):
            return self._items == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{k!r}: {v!r}" for k, v in sorted_items(self))
        return f"FrozenDict({{{inner}}})"

    def set(self, key: Any, value: Any) -> "FrozenDict":
        """Return a copy of this mapping with ``key`` bound to ``value``."""
        updated = dict(self._items)
        updated[freeze(key)] = freeze(value)
        return FrozenDict(updated)


def sorted_items(mapping: Mapping[Any, Any]) -> list:
    """Items of ``mapping`` sorted by :func:`stable_key` for determinism."""
    return sorted(mapping.items(), key=lambda kv: stable_key(kv[0]))


_SCALARS = (int, float, str, bytes, bool, type(None), enum.Enum)


def freeze(value: Any) -> Any:
    """Return an immutable equivalent of ``value``.

    Raises :class:`FrozenValueError` for values that cannot be made
    immutable (arbitrary objects without a conversion rule) so that
    aliasing bugs surface at the write site rather than as corrupted
    histories much later.

    A value that is already frozen is returned *itself*, without a walk:
    every register write passes through here, and the values the
    algorithms write are frozensets of tuples they built from earlier
    reads. A plain ``tuple`` that hashes holds only hashable items all
    the way down, which is what the walk below would establish, so a
    C-speed ``hash()`` probe stands in for it; anything the probe
    rejects (a list, set or dict nested at any depth) takes the walk.

    One consequence: a ``tuple`` / ``frozenset`` *subclass* (a
    ``namedtuple``, say), or a hashable subclass of ``list`` / ``set`` /
    ``dict``, nested inside a plain hashable tuple or frozenset is kept
    as it is rather than normalised to a plain tuple — the walk's rule
    for user-defined hashable objects, applied to containers: by being
    hashable they promise immutability. Nothing under ``src/`` writes
    such a value. At top level a subclass still goes through the walk.
    """
    kind = type(value)
    if kind is frozenset or kind is int or kind is str:
        return value
    if kind is tuple:
        try:
            hash(value)
        except TypeError:
            pass
        else:
            return value
    return _freeze_walk(value)


def _freeze_walk(value: Any) -> Any:
    """Rebuild ``value`` bottom-up out of immutable containers."""
    if isinstance(value, _BottomType):
        return value
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, FrozenDict):
        return value
    if isinstance(value, (set, frozenset)):
        return frozenset(_freeze_walk(item) for item in value)
    if isinstance(value, (list, tuple)):
        return tuple(_freeze_walk(item) for item in value)
    if isinstance(value, dict):
        return FrozenDict(value)
    if isinstance(value, Hashable):
        # User-defined hashable objects (e.g. dataclasses with frozen=True)
        # are accepted as-is; by declaring themselves hashable they promise
        # immutability, matching Python convention.
        return value
    raise FrozenValueError(
        f"cannot store value of type {type(value).__name__!r} in a register; "
        f"use scalars, sets, tuples, or FrozenDict"
    )


def stable_key(value: Any) -> Tuple[str, str]:
    """A deterministic sort key valid across heterogeneous value types.

    Algorithm 2 orders tuples ``⟨l, v⟩`` lexicographically, breaking ties on
    the value itself (footnote 8 of the paper). When the writer is
    Byzantine, ``v`` can be anything, so a total order over *all* frozen
    values is needed. Sorting by ``(type name, repr)`` is deterministic,
    total, and — for homogeneous well-behaved values such as ints or strs
    of equal type — consistent across runs, which is all the algorithm
    requires (any fixed total order works).
    """
    return (type(value).__name__, repr(value))
