"""Unit and property tests for register value handling (repro.sim.values)."""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Hashable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FrozenValueError
from repro.sim.values import (
    BOTTOM,
    FrozenDict,
    freeze,
    is_bottom,
    stable_key,
)


class TestBottom:
    def test_singleton(self):
        from repro.sim.values import _BottomType

        assert _BottomType() is BOTTOM

    def test_falsy(self):
        assert not BOTTOM

    def test_repr(self):
        assert repr(BOTTOM) == "⊥"

    def test_equality_only_with_itself(self):
        assert BOTTOM == BOTTOM
        assert BOTTOM != 0
        assert BOTTOM != None  # noqa: E711 — deliberate: ⊥ is not None
        assert BOTTOM != ""
        assert BOTTOM != frozenset()

    def test_hashable_and_stable(self):
        assert hash(BOTTOM) == hash(BOTTOM)
        assert BOTTOM in {BOTTOM}

    def test_is_bottom(self):
        assert is_bottom(BOTTOM)
        assert not is_bottom(None)
        assert not is_bottom(0)

    def test_freeze_preserves_identity(self):
        assert freeze(BOTTOM) is BOTTOM


class TestFreeze:
    def test_scalars_unchanged(self):
        for value in (1, -3, 2.5, "s", b"b", True, None):
            assert freeze(value) == value

    def test_set_becomes_frozenset(self):
        frozen = freeze({1, 2})
        assert isinstance(frozen, frozenset)
        assert frozen == frozenset({1, 2})

    def test_list_becomes_tuple(self):
        assert freeze([1, 2]) == (1, 2)
        assert isinstance(freeze([1, 2]), tuple)

    def test_nested_structures(self):
        frozen = freeze([("a", [1, 2])])
        assert frozen == (("a", (1, 2)),)
        assert freeze({("a", (1, 2))}) == frozenset({("a", (1, 2))})

    def test_dict_becomes_frozendict(self):
        frozen = freeze({"k": [1]})
        assert isinstance(frozen, FrozenDict)
        assert frozen["k"] == (1,)

    def test_unfreezable_raises(self):
        class Mutable:
            __hash__ = None  # explicitly unhashable

        with pytest.raises(FrozenValueError):
            freeze(Mutable())

    def test_mutating_source_does_not_affect_frozen(self):
        source = {1, 2}
        frozen = freeze(source)
        source.add(3)
        assert frozen == frozenset({1, 2})

    def test_idempotent(self):
        once = freeze({1, (2, 3)})
        assert freeze(once) == once

    def test_already_frozen_value_is_returned_itself(self):
        for value in (
            (1, frozenset({(2, "x")}), (None, BOTTOM)),
            frozenset({(1, (2, 3))}),
            FrozenDict(a=(1, 2)),
            (FrozenDict(a=1), 2.5, b"b"),
        ):
            assert freeze(value) is value

    def test_list_at_depth_is_still_converted(self):
        # Frozenset elements are hashable by construction, so a list can
        # only hide in a tuple *beside* them; the hash probe must see it.
        value = (frozenset({(1, 2)}), (3, (4, [5, {6}])), {"k": [7]})
        frozen = freeze(value)
        assert frozen == (
            frozenset({(1, 2)}),
            (3, (4, (5, frozenset({6})))),
            FrozenDict(k=(7,)),
        )
        assert type(frozen[1][1][1]) is tuple
        hash(frozen)

    def test_unfreezable_at_depth_still_raises(self):
        class Mutable:
            __hash__ = None

        for value in ((1, (2, Mutable())), (1, (2, [Mutable()])), [(Mutable(),)]):
            with pytest.raises(FrozenValueError):
                freeze(value)

    def test_hashable_container_subclass_nested_in_plain_tuple_is_kept(self):
        # The one semantic edge of the fast path (see the docstring):
        # hashable promises immutability, for containers as for objects.
        class Point(namedtuple("Point", "x y")):
            pass

        class Tagged(frozenset):
            pass

        class Sealed(list):
            def __hash__(self):
                return hash(tuple(self))

        point, tagged, sealed = Point(1, 2), Tagged({3}), Sealed([4])
        frozen = freeze((point, (tagged, sealed)))
        assert frozen[0] is point
        assert frozen[1][0] is tagged and frozen[1][1] is sealed
        assert freeze(frozenset({point})) == frozenset({point})
        assert type(next(iter(freeze(frozenset({point}))))) is Point
        # At top level — or anywhere the walk runs — subclasses are
        # normalised as before.
        assert type(freeze(point)) is tuple
        assert type(freeze(tagged)) is frozenset
        assert type(freeze(sealed)) is tuple
        assert type(freeze([point])[0]) is tuple


class TestFrozenDict:
    def test_mapping_protocol(self):
        fd = FrozenDict({"a": 1, "b": 2})
        assert fd["a"] == 1
        assert len(fd) == 2
        assert set(fd) == {"a", "b"}

    def test_hashable_and_equal(self):
        assert hash(FrozenDict(a=1)) == hash(FrozenDict(a=1))
        assert FrozenDict(a=1) == FrozenDict(a=1)
        assert FrozenDict(a=1) != FrozenDict(a=2)

    def test_equality_with_plain_dict(self):
        assert FrozenDict(a=1) == {"a": 1}

    def test_set_returns_new(self):
        original = FrozenDict(a=1)
        updated = original.set("b", 2)
        assert "b" not in original
        assert updated["b"] == 2

    def test_values_frozen_on_construction(self):
        fd = FrozenDict(items=[1, 2])
        assert fd["items"] == (1, 2)


class TestStableKey:
    def test_total_order_across_types(self):
        values = [1, "1", (1,), frozenset({1}), None, BOTTOM]
        ordered = sorted(values, key=stable_key)
        assert sorted(ordered, key=stable_key) == ordered

    def test_consistent_for_equal_values(self):
        assert stable_key(5) == stable_key(5)
        assert stable_key("x") == stable_key("x")

    def test_discriminates_type(self):
        assert stable_key(1) != stable_key("1")


# ----------------------------------------------------------------------
# Property-based coverage
# ----------------------------------------------------------------------
freezable = st.recursive(
    st.one_of(
        st.integers(),
        st.text(max_size=8),
        st.booleans(),
        st.none(),
        st.just(BOTTOM),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.frozensets(
            children.filter(lambda v: not isinstance(v, list)), max_size=4
        ),
    ),
    max_leaves=12,
)


@given(freezable)
@settings(max_examples=150)
def test_freeze_always_hashable(value):
    """Every frozen value must be usable as a register snapshot (hashable)."""
    hash(freeze(value))


@given(freezable)
@settings(max_examples=150)
def test_freeze_idempotent_property(value):
    frozen = freeze(value)
    assert freeze(frozen) == frozen


@given(st.lists(freezable, max_size=8))
@settings(max_examples=100)
def test_stable_key_sorts_any_mix(values):
    """stable_key must induce a total order on arbitrary frozen values."""
    frozen = [freeze(v) for v in values]
    ordered = sorted(frozen, key=stable_key)
    assert sorted(ordered, key=stable_key) == ordered


# ----------------------------------------------------------------------
# Differential: freeze against the deep walk it short-cuts
# ----------------------------------------------------------------------
def reference_freeze(value):
    """The walk ``freeze`` was before it learned to return frozen values
    as they are: rebuild every container, bottom-up, unconditionally."""
    if value is BOTTOM or isinstance(
        value, (int, float, str, bytes, bool, type(None))
    ):
        return value
    if isinstance(value, (FrozenDict, dict)):
        return FrozenDict(
            {reference_freeze(k): reference_freeze(v) for k, v in value.items()}
        )
    if isinstance(value, (set, frozenset)):
        return frozenset(reference_freeze(item) for item in value)
    if isinstance(value, (list, tuple)):
        return tuple(reference_freeze(item) for item in value)
    if isinstance(value, Hashable):
        return value
    raise FrozenValueError(type(value).__name__)


def typed(value):
    """``value`` with every node tagged by its exact type.

    ``==`` alone cannot tell ``True`` from ``1`` or a subclass from its
    base; ``repr`` can, but a frozenset's depends on its insertion
    history. This is ``repr`` up to set order.
    """
    if type(value) is tuple:
        return (tuple, tuple(typed(item) for item in value))
    if type(value) is frozenset:
        return (frozenset, frozenset(typed(item) for item in value))
    if type(value) is FrozenDict:
        return (FrozenDict, frozenset((typed(k), typed(v)) for k, v in value.items()))
    return (type(value), value)


def nestings(order_stable: bool):
    """Nestings of int/str/None/⊥ in tuple/list/set/frozenset/dict/FrozenDict.

    With ``order_stable`` every set holds only ints in 0..7: each sits in
    its home slot of any hash table, so the set iterates — and prints —
    in one order however it was built, and ``stable_key`` (a ``repr``)
    is comparable between a set and its rebuilt copy.
    """
    leaves = st.one_of(
        st.integers(-3, 50), st.text(max_size=4), st.none(), st.just(BOTTOM)
    )
    small = st.integers(0, 7)

    def frozen_layer(children):
        return st.one_of(
            st.lists(children, max_size=3).map(tuple),
            st.frozensets(small if order_stable else children, max_size=3),
            st.dictionaries(leaves, children, max_size=2).map(FrozenDict),
        )

    hashables = st.recursive(leaves, frozen_layer, max_leaves=8)

    def any_layer(children):
        members = small if order_stable else hashables
        return st.one_of(
            st.lists(children, max_size=3),
            st.lists(children, max_size=3).map(tuple),
            st.sets(members, max_size=3),
            st.frozensets(members, max_size=3),
            st.dictionaries(leaves, children, max_size=2),
        )

    return st.recursive(hashables, any_layer, max_leaves=12)


@given(nestings(order_stable=False))
@settings(max_examples=400)
def test_freeze_equals_the_reference_walk(value):
    frozen, expected = freeze(value), reference_freeze(value)
    assert frozen == expected
    assert typed(frozen) == typed(expected)
    assert freeze(frozen) is frozen


@given(nestings(order_stable=True))
@settings(max_examples=300)
def test_freeze_and_the_reference_walk_share_a_stable_key(value):
    frozen, expected = freeze(value), reference_freeze(value)
    assert frozen == expected
    assert stable_key(frozen) == stable_key(expected)
