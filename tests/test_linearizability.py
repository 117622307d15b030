"""Unit and property tests for the Wing–Gong checker (repro.spec.linearizability)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LinearizabilityViolation
from repro.sim.history import OperationRecord
from repro.spec.linearizability import find_linearization
from repro.spec.sequential import (
    DONE,
    AtomicRegisterSpec,
    TestOrSetSpec,
    VerifiableRegisterSpec,
)


def record(op_id, pid, op, args, inv, resp, result, obj="r"):
    return OperationRecord(
        op_id=op_id, pid=pid, obj=obj, op=op, args=args,
        invoked_at=inv, responded_at=resp, result=result,
    )


class TestSequentialHistories:
    def test_trivial_sequential(self):
        spec = AtomicRegisterSpec(initial=0)
        records = [
            record(0, 1, "write", (5,), 0, 1, DONE),
            record(1, 2, "read", (), 2, 3, 5),
        ]
        result = find_linearization(records, spec)
        assert result.ok and result.order == [0, 1]

    def test_sequential_violation(self):
        spec = AtomicRegisterSpec(initial=0)
        records = [
            record(0, 1, "write", (5,), 0, 1, DONE),
            record(1, 2, "read", (), 2, 3, 99),  # impossible value
        ]
        assert not find_linearization(records, spec).ok

    def test_empty_history(self):
        assert find_linearization([], AtomicRegisterSpec()).ok


class TestConcurrency:
    def test_concurrent_read_can_go_either_side(self):
        # write(5) overlaps a read; the read may return 0 or 5.
        spec = AtomicRegisterSpec(initial=0)
        for observed in (0, 5):
            records = [
                record(0, 1, "write", (5,), 0, 10, DONE),
                record(1, 2, "read", (), 2, 8, observed),
            ]
            assert find_linearization(records, spec).ok, observed

    def test_concurrent_read_cannot_invent(self):
        spec = AtomicRegisterSpec(initial=0)
        records = [
            record(0, 1, "write", (5,), 0, 10, DONE),
            record(1, 2, "read", (), 2, 8, 7),
        ]
        assert not find_linearization(records, spec).ok

    def test_precedence_respected(self):
        # read -> 0 strictly AFTER write(5) completed: not linearizable.
        spec = AtomicRegisterSpec(initial=0)
        records = [
            record(0, 1, "write", (5,), 0, 1, DONE),
            record(1, 2, "read", (), 5, 6, 0),
        ]
        assert not find_linearization(records, spec).ok

    def test_new_old_inversion_rejected(self):
        # Two sequential reads around a concurrent write must not observe
        # new-then-old (atomicity, not just regularity).
        spec = AtomicRegisterSpec(initial=0)
        records = [
            record(0, 1, "write", (5,), 0, 100, DONE),
            record(1, 2, "read", (), 10, 20, 5),   # sees new value
            record(2, 2, "read", (), 30, 40, 0),   # then old -> illegal
        ]
        assert not find_linearization(records, spec).ok


class TestIncompleteOperations:
    def test_incomplete_write_may_take_effect(self):
        spec = AtomicRegisterSpec(initial=0)
        records = [
            record(0, 1, "write", (5,), 0, None, None),  # never responded
            record(1, 2, "read", (), 10, 11, 5),
        ]
        assert find_linearization(records, spec).ok

    def test_incomplete_write_may_be_dropped(self):
        spec = AtomicRegisterSpec(initial=0)
        records = [
            record(0, 1, "write", (5,), 0, None, None),
            record(1, 2, "read", (), 10, 11, 0),
        ]
        result = find_linearization(records, spec)
        assert result.ok
        assert result.order == [1]  # the pending write was dropped

    def test_incomplete_cannot_explain_anything(self):
        spec = AtomicRegisterSpec(initial=0)
        records = [
            record(0, 1, "write", (5,), 0, None, None),
            record(1, 2, "read", (), 10, 11, 7),
        ]
        assert not find_linearization(records, spec).ok


class TestVerifiableObjectHistories:
    def test_relay_violation_not_linearizable(self):
        spec = VerifiableRegisterSpec(initial=0)
        records = [
            record(0, 1, "write", (5,), 0, 1, DONE),
            record(1, 1, "sign", (5,), 2, 3, "success"),
            record(2, 2, "verify", (5,), 4, 5, True),
            record(3, 3, "verify", (5,), 6, 7, False),  # after a true!
        ]
        assert not find_linearization(records, spec).ok

    def test_concurrent_sign_verify_flexible(self):
        spec = VerifiableRegisterSpec(initial=0)
        for outcome in (True, False):
            records = [
                record(0, 1, "write", (5,), 0, 1, DONE),
                record(1, 1, "sign", (5,), 2, 10, "success"),
                record(2, 2, "verify", (5,), 3, 9, outcome),
            ]
            assert find_linearization(records, spec).ok, outcome


class TestBudget:
    def test_budget_exhaustion_is_loud(self):
        # Many concurrent identical test-or-set ops blow up the search
        # budget deterministically when it is set absurdly low.
        spec = TestOrSetSpec()
        records = [
            record(i, i + 1, "test", (), 0, 100, 0) for i in range(8)
        ]
        with pytest.raises(LinearizabilityViolation):
            find_linearization(records, spec, max_nodes=3)


# ----------------------------------------------------------------------
# Property: any actually-sequential execution of the spec linearizes,
# and responses tampered into impossible values are rejected.
# ----------------------------------------------------------------------
@st.composite
def sequential_register_history(draw):
    count = draw(st.integers(min_value=1, max_value=8))
    spec = AtomicRegisterSpec(initial=0)
    state = spec.initial_state()
    records = []
    time = 0
    for op_id in range(count):
        if draw(st.booleans()):
            value = draw(st.integers(min_value=1, max_value=5))
            state, response = spec.apply(state, "write", (value,))
            op, args = "write", (value,)
        else:
            state, response = spec.apply(state, "read", ())
            op, args = "read", ()
        records.append(
            record(op_id, 1 + op_id % 3, op, args, time, time + 1, response)
        )
        time += 2
    return records


@given(sequential_register_history())
@settings(max_examples=80)
def test_sequential_spec_runs_always_linearize(records):
    assert find_linearization(records, AtomicRegisterSpec(initial=0)).ok


@given(sequential_register_history(), st.randoms())
@settings(max_examples=80)
def test_tampered_read_rejected(records, rng):
    reads = [r for r in records if r.op == "read"]
    if not reads:
        return
    victim = rng.choice(reads)
    tampered = [
        r if r.op_id != victim.op_id else record(
            r.op_id, r.pid, r.op, r.args, r.invoked_at, r.responded_at, 424242
        )
        for r in records
    ]
    assert not find_linearization(tampered, AtomicRegisterSpec(initial=0)).ok
