"""Early-exit oracle modes: the history hook, monitors, integration.

Covers the three layers of the early-exit stack:

* ``History.on_complete`` — the hook that feeds each completed
  operation to the armed monitor;
* :class:`repro.spec.properties.EarlyPropertyMonitor` — the monotone
  per-family rules (doom only on violations stable under extension),
  the one incremental checker early-exit runs arm;
* the run integration — ``fuzz(..., early_exit=True)`` actually stops a
  violating run before the horizon while preserving the verdict.
"""

from __future__ import annotations

import pytest

from repro.explore import explore, fuzz, make_scenario
from repro.explore.fuzzer import run_one_fuzz
from repro.sim.history import History
from repro.spec.properties import EarlyPropertyMonitor
from repro.spec.sequential import DONE, SUCCESS


def _record(history: History, pid, op, args, result, obj="r"):
    op_id = history.record_invocation(pid, obj, op, args, history.max_time() + 1)
    history.record_response(op_id, result, history.max_time() + 1)
    return op_id


class TestHistoryHook:
    def test_on_complete_fires_with_completed_record(self):
        history = History()
        seen = []
        history.on_complete = seen.append
        op_id = history.record_invocation(1, "r", "write", (5,), 0)
        assert seen == []  # invocation alone is not a completion
        history.record_response(op_id, DONE, 1)
        assert len(seen) == 1
        assert seen[0].op_id == op_id and seen[0].complete


class TestEarlyPropertyMonitor:
    def test_test_or_set_relay_doom(self):
        history = History()
        monitor = EarlyPropertyMonitor(
            history, "test_or_set", correct={2, 3}, obj="tos", writer=1
        )
        history.on_complete = monitor.on_complete
        _record(history, 2, "test", (), 1, obj="tos")
        assert monitor.doomed is None
        _record(history, 3, "test", (), 0, obj="tos")
        assert monitor.doomed is not None and "relay" in monitor.doomed

    def test_verifiable_validity_doom(self):
        history = History()
        monitor = EarlyPropertyMonitor(
            history, "verifiable", correct={1, 2}, obj="r", writer=1, initial=0
        )
        history.on_complete = monitor.on_complete
        _record(history, 1, "write", (5,), DONE)
        _record(history, 1, "sign", (5,), SUCCESS)
        assert monitor.doomed is None
        _record(history, 2, "verify", (5,), False)
        assert monitor.doomed is not None and "validity" in monitor.doomed

    def test_inflight_sign_suppresses_unforgeability_doom(self):
        # Conservative absence rule: an in-flight Sign invocation could
        # still complete successfully, so Verify -> true must not doom.
        history = History()
        monitor = EarlyPropertyMonitor(
            history, "verifiable", correct={1, 2}, obj="r", writer=1, initial=0
        )
        history.on_complete = monitor.on_complete
        history.record_invocation(1, "r", "sign", (5,), 0)  # never responds
        _record(history, 2, "verify", (5,), True)
        assert monitor.doomed is None
        # Without any sign invocation the same verify dooms immediately.
        bare = History()
        monitor2 = EarlyPropertyMonitor(
            bare, "verifiable", correct={1, 2}, obj="r", writer=1, initial=0
        )
        bare.on_complete = monitor2.on_complete
        _record(bare, 2, "verify", (5,), True)
        assert monitor2.doomed is not None and "unforgeability" in monitor2.doomed

    def test_byzantine_writer_skips_writer_rules(self):
        history = History()
        monitor = EarlyPropertyMonitor(
            history, "verifiable", correct={2, 3}, obj="r", writer=1, initial=0
        )
        history.on_complete = monitor.on_complete
        # Verify -> true with no sign anywhere: under a Byzantine writer
        # unforgeability carries no obligation, so no doom.
        _record(history, 2, "verify", (5,), True)
        assert monitor.doomed is None

    def test_sticky_uniqueness_doom(self):
        history = History()
        monitor = EarlyPropertyMonitor(
            history, "sticky", correct={2, 3}, obj="r", writer=1
        )
        history.on_complete = monitor.on_complete
        history.record_invocation(1, "r", "write", (7,), 0)
        _record(history, 2, "read", (), 7)
        assert monitor.doomed is None
        _record(history, 3, "read", (), 8)
        assert monitor.doomed is not None and "uniqueness" in monitor.doomed


class TestRunIntegration:
    #: The committed-corpus violating configuration: naive strawman under
    #: the flip-flop collusion, violating from fuzz seed 0.
    SCENARIO = make_scenario(
        "register",
        kind="naive-quorum",
        n=4,
        seed=0,
        reader_adversaries=((4, "flipflop"),),
    )

    def test_early_exit_truncates_violating_run_same_verdict(self):
        full_violation, full_steps, full_done = run_one_fuzz(self.SCENARIO, 0)
        early_violation, early_steps, early_done = run_one_fuzz(
            self.SCENARIO, 0, early_exit=True
        )
        assert full_done and early_done
        assert full_violation is not None and early_violation is not None
        # The whole point: the doomed run stops well before the horizon.
        assert early_steps < full_steps
        # Both runs flag the same property family even though the
        # truncated history can report fewer violating pairs.
        assert "validity" in full_violation.reason
        assert "validity" in early_violation.reason

    def test_early_exit_preserves_clean_runs_exactly(self):
        clean = make_scenario(
            "register", kind="verifiable", n=4, seed=0
        )
        v1, s1, c1 = run_one_fuzz(clean, 3)
        v2, s2, c2 = run_one_fuzz(clean, 3, early_exit=True)
        assert v1 is None and v2 is None
        assert (s1, c1) == (s2, c2)

    def test_fuzz_early_exit_same_violating_seeds(self):
        full = fuzz(self.SCENARIO, budget=6, shards=1)
        early = fuzz(self.SCENARIO, budget=6, shards=1, early_exit=True)
        full_seeds = sorted(
            v.seed
            for r in full.shard_results
            for v in r.violations
        )
        early_seeds = sorted(
            v.seed
            for r in early.shard_results
            for v in r.violations
        )
        assert full_seeds == early_seeds and full_seeds
        assert early.steps < full.steps

    def test_explore_early_exit_doom_inside_depth_window(self):
        # Regression: an early-exited run aborts mid-step, so its
        # effects/chosen/fingerprints arrays end one entry short of
        # trace/runnables. When the doom lands *inside* the depth
        # window (huge depth bound), the expansion loop used to index
        # past the truncated arrays (IndexError) instead of reporting
        # the violation.
        early = explore(
            make_scenario("theorem29", f=1),
            depth_bound=340,
            preemption_bound=1,
            budget=40,
            early_exit=True,
            stop_on_violation=True,
        )
        full = explore(
            make_scenario("theorem29", f=1),
            depth_bound=340,
            preemption_bound=1,
            budget=40,
            stop_on_violation=True,
        )
        assert sorted(v.fingerprint() for v in early.violations) == sorted(
            v.fingerprint() for v in full.violations
        )
        assert early.violations

    def test_explore_early_exit_same_theorem29_verdict(self):
        bounds = dict(depth_bound=10, preemption_bound=2, budget=120)
        full = explore(make_scenario("theorem29", f=1), **bounds)
        early = explore(
            make_scenario("theorem29", f=1), early_exit=True, **bounds
        )
        assert sorted(v.fingerprint() for v in full.violations) == sorted(
            v.fingerprint() for v in early.violations
        )
        assert full.runs == early.runs
        assert full.unique_states == early.unique_states
