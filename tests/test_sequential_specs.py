"""Unit tests for the sequential specifications (repro.spec.sequential)."""

from __future__ import annotations

import pytest

from repro.sim.values import BOTTOM, is_bottom
from repro.spec.sequential import (
    DONE,
    FAIL,
    SUCCESS,
    AtomicRegisterSpec,
    AuthenticatedRegisterSpec,
    StickyRegisterSpec,
    TestOrSetSpec,
    VerifiableRegisterSpec,
)


def run_ops(spec, ops):
    """Apply ops sequentially; return the list of responses."""
    state = spec.initial_state()
    responses = []
    for op, args in ops:
        state, response = spec.apply(state, op, args)
        responses.append(response)
    return responses


class TestRegularRegister:
    def test_read_initial(self):
        assert run_ops(AtomicRegisterSpec(initial=7), [("read", ())]) == [7]

    def test_read_after_writes(self):
        responses = run_ops(
            AtomicRegisterSpec(initial=0),
            [("write", (1,)), ("write", (2,)), ("read", ())],
        )
        assert responses == [DONE, DONE, 2]

    def test_unknown_op(self):
        with pytest.raises(ValueError):
            AtomicRegisterSpec().apply(None, "sign", (1,))


class TestVerifiableSpec:
    def test_definition_10_scenario(self):
        spec = VerifiableRegisterSpec(initial=0)
        responses = run_ops(
            spec,
            [
                ("verify", (5,)),   # nothing signed -> False
                ("write", (5,)),
                ("verify", (5,)),   # written but unsigned -> False
                ("sign", (5,)),     # success
                ("verify", (5,)),   # True
                ("sign", (6,)),     # never written -> fail
                ("verify", (6,)),   # False
                ("read", ()),       # 5
            ],
        )
        assert responses == [False, DONE, False, SUCCESS, True, FAIL, False, 5]

    def test_sign_older_value(self):
        # The writer may sign any value it ever wrote, even after
        # overwriting it (Section 4).
        spec = VerifiableRegisterSpec(initial=0)
        responses = run_ops(
            spec,
            [("write", (1,)), ("write", (2,)), ("sign", (1,)), ("verify", (1,))],
        )
        assert responses == [DONE, DONE, SUCCESS, True]

    def test_initial_value_not_signed(self):
        spec = VerifiableRegisterSpec(initial=0)
        assert run_ops(spec, [("verify", (0,))]) == [False]

    def test_state_hashable(self):
        spec = VerifiableRegisterSpec(initial=0)
        state = spec.initial_state()
        state, _ = spec.apply(state, "write", (1,))
        hash(state)


class TestAuthenticatedSpec:
    def test_definition_15_scenario(self):
        spec = AuthenticatedRegisterSpec(initial=0)
        responses = run_ops(
            spec,
            [
                ("verify", (0,)),  # v0 always verifies
                ("verify", (5,)),  # not written
                ("write", (5,)),
                ("verify", (5,)),  # auto-signed
                ("read", ()),
                ("write", (6,)),
                ("verify", (5,)),  # older values keep verifying
                ("read", ()),
            ],
        )
        assert responses == [True, False, DONE, True, 5, DONE, True, 6]


class TestStickySpec:
    def test_first_write_sticks(self):
        spec = StickyRegisterSpec()
        responses = run_ops(
            spec,
            [("read", ()), ("write", ("A",)), ("write", ("B",)), ("read", ())],
        )
        assert is_bottom(responses[0])
        assert responses[1:] == [DONE, DONE, "A"]

    def test_bottom_unwritable(self):
        spec = StickyRegisterSpec()
        with pytest.raises(ValueError):
            spec.apply(spec.initial_state(), "write", (BOTTOM,))


class TestTestOrSetSpec:
    def test_definition_26(self):
        spec = TestOrSetSpec()
        assert run_ops(spec, [("test", ()), ("set", ()), ("test", ())]) == [
            0,
            DONE,
            1,
        ]

    def test_set_idempotent(self):
        spec = TestOrSetSpec()
        responses = run_ops(spec, [("set", ()), ("set", ()), ("test", ())])
        assert responses == [DONE, DONE, 1]
