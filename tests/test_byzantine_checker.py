"""Unit tests for the synthesis rules (repro.spec.byzantine).

Each family's synthesis rule is exercised on hand-crafted histories
through the judge's second half, ``linearize(*restrict(…),
rules.synthesize)``, under the family's binding: with a *correct*
writer it must agree with plain linearization; with a *Byzantine*
writer it must accept exactly the histories the paper's constructions
(Definitions 78 / 143, Appendix C) can justify, and reject relay/
uniqueness violations with a pinpointed reason.
"""

from __future__ import annotations

import pytest

from repro.scenarios import binding_for
from repro.sim.history import History
from repro.sim.values import BOTTOM
from repro.spec.judge import linearize, restrict

WRITER = 1


def byzantine_verdict(family, history, correct, obj, owner=WRITER):
    """``family``'s ``H'`` built from ``H|correct`` and linearized once."""
    binding = binding_for(family)
    records, case = restrict(history, correct, obj, binding.spec_factory(), owner)
    return linearize(records, case, binding.rules.synthesize)


def build_history(entries):
    """entries: list of (pid, obj, op, args, inv, resp, result)."""
    history = History()
    ids = []
    for pid, obj, op, args, inv, resp, result in entries:
        op_id = history.record_invocation(pid, obj, op, args, inv)
        history.record_response(op_id, result, resp)
        ids.append(op_id)
    return history, ids


class TestVerifiableCorrectWriter:
    def test_clean_history(self):
        history, _ = build_history(
            [
                (1, "v", "write", (5,), 0, 1, "done"),
                (1, "v", "sign", (5,), 2, 3, "success"),
                (2, "v", "verify", (5,), 4, 5, True),
                (3, "v", "read", (), 6, 7, 5),
            ]
        )
        verdict = byzantine_verdict("verifiable", history, {1, 2, 3}, "v")
        assert verdict.ok
        assert verdict.linearization is not None

    def test_unforgeable_violation(self):
        history, _ = build_history(
            [(2, "v", "verify", (5,), 0, 1, True)]  # nothing ever signed
        )
        verdict = byzantine_verdict("verifiable", history, {1, 2, 3}, "v")
        assert not verdict.ok


class TestVerifiableByzantineWriter:
    def test_deny_scenario_accepted(self):
        # The writer is Byzantine: correct readers saw and verified 7;
        # the construction must synthesize Write(7)+Sign(7) and accept.
        history, _ = build_history(
            [
                (2, "v", "read", (), 10, 11, 7),
                (2, "v", "verify", (7,), 12, 20, True),
                (3, "v", "verify", (7,), 30, 40, True),
                (3, "v", "read", (), 50, 51, 0),  # after erasure
            ]
        )
        verdict = byzantine_verdict("verifiable", history, {2, 3, 4}, "v")
        assert verdict.ok, verdict.reason
        synthesized_ops = {(r.op, r.args) for r in verdict.synthesized}
        assert ("sign", (7,)) in synthesized_ops
        assert ("write", (7,)) in synthesized_ops

    def test_relay_violation_rejected(self):
        history, _ = build_history(
            [
                (2, "v", "verify", (7,), 0, 10, True),
                (3, "v", "verify", (7,), 20, 30, False),  # relay broken
            ]
        )
        verdict = byzantine_verdict("verifiable", history, {2, 3, 4}, "v")
        assert not verdict.ok
        assert "relay" in verdict.reason

    def test_false_before_true_is_fine(self):
        history, _ = build_history(
            [
                (2, "v", "verify", (7,), 0, 5, False),
                (3, "v", "verify", (7,), 10, 20, True),
            ]
        )
        verdict = byzantine_verdict("verifiable", history, {2, 3, 4}, "v")
        assert verdict.ok, verdict.reason

    def test_concurrent_mixed_verifies_accepted(self):
        # A false verify overlapping a true one is allowed (the Sign
        # linearizes between the false's invocation and the true's
        # response).
        history, _ = build_history(
            [
                (2, "v", "verify", (7,), 0, 100, True),
                (3, "v", "verify", (7,), 50, 60, False),
            ]
        )
        verdict = byzantine_verdict("verifiable", history, {2, 3, 4}, "v")
        assert verdict.ok, verdict.reason


class TestAuthenticatedByzantineWriter:
    def test_obs19_violation_rejected(self):
        # A read returned 7, then a later verify(7) said false: the glue
        # write cannot land after t0 -> must be rejected (Lemma 142).
        history, _ = build_history(
            [
                (2, "a", "read", (), 0, 10, 7),
                (3, "a", "verify", (7,), 20, 30, False),
            ]
        )
        verdict = byzantine_verdict("authenticated", history, {2, 3, 4}, "a")
        assert not verdict.ok

    def test_erasure_with_v0_fallback_accepted(self):
        # Reader 2 read and verified 7; after erasure reader 3's read
        # falls back to v0 and verify(7) still holds (relay).
        history, _ = build_history(
            [
                (2, "a", "read", (), 0, 10, 7),
                (2, "a", "verify", (7,), 12, 20, True),
                (3, "a", "read", (), 30, 40, 0),
                (3, "a", "verify", (7,), 42, 50, True),
            ]
        )
        verdict = byzantine_verdict("authenticated", history, {2, 3, 4}, "a")
        assert verdict.ok, verdict.reason

    def test_verify_v0_false_rejected(self):
        history, _ = build_history(
            [(2, "a", "verify", (0,), 0, 5, False)]
        )
        verdict = byzantine_verdict("authenticated", history, {2, 3, 4}, "a")
        assert not verdict.ok

    def test_correct_writer_plain_linearization(self):
        history, _ = build_history(
            [
                (1, "a", "write", (5,), 0, 1, "done"),
                (2, "a", "verify", (5,), 2, 3, True),
                (2, "a", "read", (), 4, 5, 5),
            ]
        )
        verdict = byzantine_verdict("authenticated", history, {1, 2, 3}, "a")
        assert verdict.ok


class TestStickyByzantineWriter:
    def test_agreeing_reads_accepted(self):
        history, _ = build_history(
            [
                (2, "s", "read", (), 0, 10, BOTTOM),
                (2, "s", "read", (), 20, 30, "A"),
                (3, "s", "read", (), 40, 50, "A"),
            ]
        )
        verdict = byzantine_verdict("sticky", history, {2, 3, 4}, "s")
        assert verdict.ok, verdict.reason
        assert any(r.op == "write" for r in verdict.synthesized)

    def test_distinct_values_rejected(self):
        history, _ = build_history(
            [
                (2, "s", "read", (), 0, 10, "A"),
                (3, "s", "read", (), 20, 30, "B"),
            ]
        )
        verdict = byzantine_verdict("sticky", history, {2, 3, 4}, "s")
        assert not verdict.ok
        assert "uniqueness" in verdict.reason

    def test_bottom_after_value_rejected(self):
        history, _ = build_history(
            [
                (2, "s", "read", (), 0, 10, "A"),
                (3, "s", "read", (), 20, 30, BOTTOM),
            ]
        )
        verdict = byzantine_verdict("sticky", history, {2, 3, 4}, "s")
        assert not verdict.ok

    def test_all_bottom_accepted(self):
        history, _ = build_history(
            [
                (2, "s", "read", (), 0, 10, BOTTOM),
                (3, "s", "read", (), 20, 30, BOTTOM),
            ]
        )
        assert byzantine_verdict("sticky", history, {2, 3, 4}, "s").ok


class TestTestOrSetChecker:
    def test_byzantine_setter_relay_ok(self):
        history, _ = build_history(
            [
                (2, "t", "test", (), 0, 10, 0),
                (2, "t", "test", (), 20, 30, 1),
                (3, "t", "test", (), 40, 50, 1),
            ]
        )
        verdict = byzantine_verdict("test_or_set", history, {2, 3, 4}, "t")
        assert verdict.ok, verdict.reason

    def test_byzantine_setter_relay_violation(self):
        history, _ = build_history(
            [
                (2, "t", "test", (), 0, 10, 1),
                (3, "t", "test", (), 20, 30, 0),
            ]
        )
        verdict = byzantine_verdict("test_or_set", history, {2, 3, 4}, "t")
        assert not verdict.ok
        assert "Lemma 28(3)" in verdict.reason

    def test_correct_setter(self):
        history, _ = build_history(
            [
                (1, "t", "set", (), 0, 5, "done"),
                (2, "t", "test", (), 10, 20, 1),
            ]
        )
        assert byzantine_verdict("test_or_set", history, {1, 2, 3}, "t").ok

    def test_correct_setter_missed_set(self):
        history, _ = build_history(
            [
                (1, "t", "set", (), 0, 5, "done"),
                (2, "t", "test", (), 10, 20, 0),  # must have seen the set
            ]
        )
        assert not byzantine_verdict("test_or_set", history, {1, 2, 3}, "t").ok


class TestRestriction:
    def test_byzantine_reader_ops_ignored(self):
        # A Byzantine reader's absurd recorded results must not poison
        # the verdict: H|correct drops them.
        history, _ = build_history(
            [
                (1, "v", "write", (5,), 0, 1, "done"),
                (1, "v", "sign", (5,), 2, 3, "success"),
                (2, "v", "verify", (5,), 4, 5, True),
                (4, "v", "verify", (5,), 6, 7, "garbage-result"),
            ]
        )
        verdict = byzantine_verdict("verifiable", history, {1, 2, 3}, "v")
        assert verdict.ok
