"""Unit tests for the observable-property rules (repro.spec.properties), each
run over ``H|correct`` under its family's binding."""

from __future__ import annotations

import pytest

from repro.scenarios import binding_for
from repro.sim.history import History
from repro.sim.values import BOTTOM
from repro.spec.judge import linearize, restrict


def build_history(entries):
    """A history from ``(pid, obj, op, args, inv, resp, result)`` rows;
    ``resp=None`` leaves the operation pending."""
    history = History()
    for pid, obj, op, args, inv, resp, result in entries:
        op_id = history.record_invocation(pid, obj, op, args, inv)
        if resp is not None:
            history.record_response(op_id, result, resp)
    return history


ALL = {1, 2, 3, 4}


def properties(family, history, correct, obj, owner=1):
    """``family``'s property rule over ``H|correct`` on ``obj``."""
    binding = binding_for(family)
    records, case = restrict(history, correct, obj, binding.spec_factory(), owner)
    return binding.rules.properties(records, case)


class TestVerifiableProperties:
    def test_clean(self):
        history = build_history(
            [
                (1, "v", "write", (5,), 0, 1, "done"),
                (1, "v", "sign", (5,), 2, 3, "success"),
                (2, "v", "verify", (5,), 4, 5, True),
                (3, "v", "verify", (9,), 6, 7, False),
                (3, "v", "read", (), 8, 9, 5),
            ]
        )
        report = properties("verifiable", history, ALL, "v")
        assert report.ok, report.summary()
        assert len(report.checked) == 5

    def test_validity_violation(self):
        history = build_history(
            [
                (1, "v", "write", (5,), 0, 1, "done"),
                (1, "v", "sign", (5,), 2, 3, "success"),
                (2, "v", "verify", (5,), 10, 11, False),
            ]
        )
        report = properties("verifiable", history, ALL, "v")
        assert not report.ok
        assert any("Obs 11" in v for v in report.violations)

    def test_unforgeability_violation(self):
        history = build_history([(2, "v", "verify", (5,), 0, 1, True)])
        report = properties("verifiable", history, ALL, "v")
        assert not report.ok
        assert any("Obs 12" in v for v in report.violations)

    def test_relay_violation(self):
        history = build_history(
            [
                (2, "v", "verify", (5,), 0, 1, True),
                (3, "v", "verify", (5,), 5, 6, False),
            ]
        )
        report = properties("verifiable", history, {2, 3, 4}, "v")
        assert not report.ok
        assert any("Obs 13" in v for v in report.violations)

    def test_relay_checked_for_byzantine_writer_too(self):
        # With the writer outside `correct`, validity/unforgeability are
        # skipped but relay still applies.
        history = build_history(
            [
                (2, "v", "verify", (5,), 0, 1, True),
                (3, "v", "verify", (5,), 5, 6, True),
            ]
        )
        report = properties("verifiable", history, {2, 3, 4}, "v")
        assert report.ok
        assert report.checked == ["relay (Obs 13)"]

    def test_sign_without_write_flagged(self):
        history = build_history(
            [(1, "v", "sign", (9,), 0, 1, "success")]
        )
        report = properties("verifiable", history, ALL, "v")
        assert not report.ok

    def test_read_of_unwritten_value_flagged(self):
        history = build_history([(2, "v", "read", (), 0, 1, 77)])
        report = properties("verifiable", history, ALL, "v")
        assert not report.ok

    def test_concurrent_sign_verify_not_flagged(self):
        # The verify overlaps the sign: either outcome is consistent.
        history = build_history(
            [
                (1, "v", "write", (5,), 0, 1, "done"),
                (1, "v", "sign", (5,), 2, 20, "success"),
                (2, "v", "verify", (5,), 5, 15, False),
            ]
        )
        report = properties("verifiable", history, ALL, "v")
        assert report.ok, report.summary()


class TestAuthenticatedProperties:
    def test_clean(self):
        history = build_history(
            [
                (1, "a", "write", (5,), 0, 1, "done"),
                (2, "a", "verify", (5,), 2, 3, True),
                (2, "a", "verify", (0,), 4, 5, True),
                (3, "a", "read", (), 6, 7, 5),
                (3, "a", "verify", (5,), 8, 9, True),
            ]
        )
        report = properties("authenticated", history, ALL, "a")
        assert report.ok, report.summary()

    def test_obs19_violation(self):
        history = build_history(
            [
                (2, "a", "read", (), 0, 1, 7),
                (3, "a", "verify", (7,), 5, 6, False),
            ]
        )
        report = properties("authenticated", history, {2, 3, 4}, "a")
        assert not report.ok
        assert any("Obs 19" in v for v in report.violations)

    def test_initial_must_verify(self):
        history = build_history([(2, "a", "verify", (0,), 0, 1, False)])
        report = properties("authenticated", history, {2, 3, 4}, "a")
        assert not report.ok
        assert any("Lemma 113" in v for v in report.violations)

    def test_validity_violation(self):
        history = build_history(
            [
                (1, "a", "write", (5,), 0, 1, "done"),
                (2, "a", "verify", (5,), 5, 6, False),
            ]
        )
        report = properties("authenticated", history, ALL, "a")
        assert not report.ok
        assert any("Obs 16" in v for v in report.violations)

    def test_unforgeability_violation(self):
        history = build_history([(2, "a", "verify", (5,), 0, 1, True)])
        report = properties("authenticated", history, ALL, "a")
        assert not report.ok
        assert any("Obs 17" in v for v in report.violations)


class TestStickyProperties:
    def test_clean(self):
        history = build_history(
            [
                (1, "s", "write", ("A",), 0, 5, "done"),
                (2, "s", "read", (), 6, 7, "A"),
                (3, "s", "read", (), 8, 9, "A"),
            ]
        )
        report = properties("sticky", history, ALL, "s")
        assert report.ok, report.summary()

    def test_uniqueness_violation_distinct_values(self):
        history = build_history(
            [
                (2, "s", "read", (), 0, 1, "A"),
                (3, "s", "read", (), 2, 3, "B"),
            ]
        )
        report = properties("sticky", history, {2, 3, 4}, "s")
        assert not report.ok
        assert any("Obs 24" in v for v in report.violations)

    def test_uniqueness_violation_bottom_after_value(self):
        history = build_history(
            [
                (2, "s", "read", (), 0, 1, "A"),
                (3, "s", "read", (), 5, 6, BOTTOM),
            ]
        )
        report = properties("sticky", history, {2, 3, 4}, "s")
        assert not report.ok

    def test_validity_violation(self):
        history = build_history(
            [
                (1, "s", "write", ("A",), 0, 5, "done"),
                (2, "s", "read", (), 6, 7, BOTTOM),
            ]
        )
        report = properties("sticky", history, ALL, "s")
        assert not report.ok
        assert any("Obs 22" in v for v in report.violations)

    def test_unforgeability_wrong_value(self):
        history = build_history(
            [
                (1, "s", "write", ("A",), 0, 5, "done"),
                (2, "s", "read", (), 6, 7, "Z"),
            ]
        )
        report = properties("sticky", history, ALL, "s")
        assert not report.ok

    def test_read_before_write_invocation_flagged(self):
        history = build_history(
            [
                (2, "s", "read", (), 0, 1, "A"),      # responded before...
                (1, "s", "write", ("A",), 10, 15, "done"),  # ...write invoked
            ]
        )
        report = properties("sticky", history, ALL, "s")
        assert not report.ok


class TestTestOrSetProperties:
    def test_clean(self):
        history = build_history(
            [
                (2, "t", "test", (), 0, 1, 0),
                (1, "t", "set", (), 2, 3, "done"),
                (3, "t", "test", (), 4, 5, 1),
            ]
        )
        report = properties("test_or_set", history, ALL, "t")
        assert report.ok, report.summary()

    def test_lemma_28_each_clause(self):
        # (1) validity
        history = build_history(
            [
                (1, "t", "set", (), 0, 1, "done"),
                (2, "t", "test", (), 2, 3, 0),
            ]
        )
        report = properties("test_or_set", history, ALL, "t")
        assert any("Lemma 28.1" in v for v in report.violations)
        # (2) unforgeability
        history = build_history([(2, "t", "test", (), 0, 1, 1)])
        report = properties("test_or_set", history, ALL, "t")
        assert any("Lemma 28.2" in v for v in report.violations)
        # (3) relay
        history = build_history(
            [
                (2, "t", "test", (), 0, 1, 1),
                (3, "t", "test", (), 2, 3, 0),
            ]
        )
        report = properties("test_or_set", history, {2, 3, 4}, "t")
        assert any("Lemma 28.3" in v for v in report.violations)


class TestPendingWriterOperation:
    """A pending operation of the correct writer may still take effect.

    Each history below is Byzantine linearizable — the linearization
    completes the pending writer operation before the response that
    depends on it — so the absence rules must accept it, exactly as the
    family's Byzantine checker does.
    """

    def test_inflight_sign_suppresses_unforgeability(self):
        pending = build_history(
            [
                (1, "v", "sign", (5,), 0, None, None),
                (2, "v", "verify", (5,), 1, 2, True),
            ]
        )
        report = properties("verifiable", pending, ALL, "v")
        assert report.ok, report.summary()
        # Without any sign invocation the same verify is a forgery.
        bare = build_history([(2, "v", "verify", (5,), 1, 2, True)])
        report = properties("verifiable", bare, ALL, "v")
        assert any("Obs 12" in v for v in report.violations)

    def test_failed_sign_still_does_not_count(self):
        history = build_history(
            [
                (1, "v", "sign", (5,), 0, 1, "fail"),
                (2, "v", "verify", (5,), 2, 3, True),
            ]
        )
        report = properties("verifiable", history, ALL, "v")
        assert any("Obs 12" in v for v in report.violations)

    @pytest.mark.parametrize(
        "family, entries",
        [
            (
                "verifiable",
                [(1, "r", "write", (5,), 0, None, None), (2, "r", "read", (), 1, 2, 5)],
            ),
            (
                "verifiable",
                [
                    (1, "r", "write", (5,), 0, 1, "done"),
                    (1, "r", "sign", (5,), 2, None, None),
                    (2, "r", "verify", (5,), 3, 4, True),
                ],
            ),
            (
                "authenticated",
                [
                    (1, "r", "write", (5,), 0, None, None),
                    (2, "r", "verify", (5,), 1, 2, True),
                ],
            ),
            (
                "authenticated",
                [(1, "r", "write", (5,), 0, None, None), (2, "r", "read", (), 1, 2, 5)],
            ),
            (
                "sticky",
                [(1, "r", "write", (5,), 0, None, None), (2, "r", "read", (), 1, 2, 5)],
            ),
            (
                "test_or_set",
                [(1, "r", "set", (), 0, None, None), (2, "r", "test", (), 1, 2, 1)],
            ),
        ],
    )
    def test_pending_writer_operation_accepted(self, family, entries):
        history = build_history(entries)
        # Both halves of the family's rules, as the campaign runs them.
        binding = binding_for(family)
        records, case = restrict(history, ALL, "r", binding.spec_factory(), 1)
        assert linearize(records, case, binding.rules.synthesize).ok
        report = binding.rules.properties(records, case)
        assert report.ok, report.summary()


class TestReportComposition:
    def test_and_composes(self):
        ok_history = build_history([(2, "t", "test", (), 0, 1, 0)])
        bad_history = build_history([(2, "t", "test", (), 0, 1, 1)])
        good = properties("test_or_set", ok_history, ALL, "t")
        bad = properties("test_or_set", bad_history, ALL, "t")
        combined = good & bad
        assert not combined.ok
        assert combined.checked == good.checked + bad.checked
