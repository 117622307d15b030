"""The schedule-space exploration subsystem (repro.explore).

Covers the four cooperating pieces: the TraceScheduler record/replay
layer (any run replays bit-identically from its decision trace), the
bounded systematic explorer (finds the seeded Theorem 29 violation at
``n = 3f``, certifies the control clean), the swarm fuzzer (finds the
same class, deduplicates, shards deterministically), and the shrinker
(deterministic minimal counterexamples that convert to
ScriptedScheduler scripts).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import SchedulerError
from repro.sim import (
    RandomScheduler,
    RoundRobinScheduler,
    ScriptedScheduler,
    System,
    TraceScheduler,
)
from repro.explore import (
    Violation,
    adversary_grid,
    commutes,
    execute_trace,
    explore,
    fuzz,
    make_scenario,
    run_one_fuzz,
    shrink,
    theorem29_symmetry,
)
from repro.explore.forkexec import fork_available
from repro.explore.fuzzer import SwarmScheduler, fuzz_scheduler

#: Shared bounds: must find the f=1 violation and keep the control
#: clean (both verified with far larger budgets during development).
BOUNDS = dict(depth_bound=14, preemption_bound=2)


# ----------------------------------------------------------------------
# Record / replay
# ----------------------------------------------------------------------
class TestTraceScheduler:
    def test_records_indices_and_preemptions(self):
        from repro.sim.process import pause_steps

        system = System(n=3, scheduler=TraceScheduler(prefix=(0, 0, 1)))
        for pid in system.pids:
            system.spawn(pid, "client", pause_steps(2))
        system.run(100)
        scheduler = system.scheduler
        assert scheduler.trace[:3] == [0, 0, 1]
        assert len(scheduler.trace) == 9  # 3 coroutines x (2 pauses + finish)
        assert scheduler.cumulative_preemptions[0] == 0
        assert scheduler.cumulative_preemptions[-1] >= 1

    def test_unrealizable_prefix_raises(self):
        from repro.sim.process import pause_steps

        system = System(n=2, scheduler=TraceScheduler(prefix=(5,)))
        for pid in system.pids:
            system.spawn(pid, "client", pause_steps(1))
        with pytest.raises(SchedulerError):
            system.step()

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(
        max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_any_fuzzed_run_replays_to_identical_history(self, seed):
        # Record a random-schedule run, then replay its decision trace:
        # the histories must match event for event.
        scenario = make_scenario("theorem29", f=1)
        scheduler = TraceScheduler(prefix=(), fallback=fuzz_scheduler(seed))
        built = scenario.build(scheduler)
        built.drive()
        recorded = built.system.history.describe()

        replay = scenario.build(TraceScheduler(prefix=tuple(scheduler.trace)))
        replay.drive()
        assert replay.system.history.describe() == recorded
        assert replay.system.clock == built.system.clock

    def test_fingerprint_tracks_state_not_clock(self):
        from repro.sim.process import pause_steps

        # Identical builds stepped identically fingerprint identically.
        def build():
            system = System(n=2)
            system.spawn(1, "client", pause_steps(3))
            return system

        a, b = build(), build()
        assert a.fingerprint() == b.fingerprint()
        a.step()
        assert a.fingerprint() != b.fingerprint()
        b.step()
        assert a.fingerprint() == b.fingerprint()


# ----------------------------------------------------------------------
# Systematic exploration
# ----------------------------------------------------------------------
class TestSystematicExplorer:
    def test_finds_theorem29_violation_at_3f(self):
        report = explore(
            make_scenario("theorem29", f=1),
            budget=300,
            stop_on_violation=True,
            **BOUNDS,
        )
        assert report.violations, report.summary()
        assert "relay" in report.violations[0].reason
        assert report.runs_per_sec > 0 and report.states_per_sec > 0

    def test_certifies_control_clean_at_3f_plus_1(self):
        report = explore(
            make_scenario("theorem29", f=1, extra_correct=True),
            budget=300,
            **BOUNDS,
        )
        assert not report.violations, report.violations[0].describe()

    def test_fair_baseline_is_clean(self):
        # The bug needs search: a plain round-robin run does not violate.
        record = execute_trace(make_scenario("theorem29", f=1), ())
        assert record.completed and record.violation is None

    def test_pruning_counters_move(self):
        report = explore(make_scenario("theorem29", f=1), budget=150, **BOUNDS)
        assert report.pruned_preemption > 0
        assert report.pruned_sleep > 0
        assert report.unique_states > 0

    def test_bfs_mode_also_finds_it(self):
        report = explore(
            make_scenario("theorem29", f=1),
            budget=300,
            mode="bfs",
            stop_on_violation=True,
            **BOUNDS,
        )
        assert report.violations, report.summary()

    def test_commutation_table(self):
        read_a, read_b = ("read", "x"), ("read", "y")
        write_a, write_b = ("write", "x"), ("write", "y")
        assert commutes(read_a, read_a)
        assert commutes(read_a, write_b)
        assert not commutes(read_a, write_a)
        assert not commutes(write_a, write_a)
        assert commutes(("pause",), write_a)
        assert not commutes(("sync",), ("pause",))


# ----------------------------------------------------------------------
# Fork-based prefix sharing
# ----------------------------------------------------------------------
def _report_facts(report):
    """Everything a search report asserts about the schedule space."""
    return {
        "runs": report.runs,
        "steps": report.steps,
        "states": report.states,
        "unique_states": report.unique_states,
        "incomplete": report.incomplete,
        "pruned_fingerprint": report.pruned_fingerprint,
        "pruned_sleep": report.pruned_sleep,
        "pruned_preemption": report.pruned_preemption,
        "pruned_dpor": report.pruned_dpor,
        "pruned_symmetry": report.pruned_symmetry,
        "races_detected": report.races_detected,
        "blocked_fallbacks": report.blocked_fallbacks,
        "recorded_steps": report.recorded_steps,
        "exhausted": report.exhausted,
        "violations": sorted(v.fingerprint() for v in report.violations),
        "violation_traces": sorted(str(v.trace) for v in report.violations),
    }


@pytest.mark.skipif(not fork_available(), reason="needs os.fork")
class TestForkPrefixSharing:
    def test_fork_engine_matches_replay_engine(self):
        # The load-bearing differential: both executors must drain the
        # identical bounded tree — same states, prunes, and violations.
        scenario = make_scenario("theorem29", f=1)
        replay = explore(scenario, budget=100, prefix_sharing="replay", **BOUNDS)
        forked = explore(scenario, budget=100, prefix_sharing="fork", **BOUNDS)
        assert replay.engine == "replay" and forked.engine == "fork"
        assert _report_facts(replay) == _report_facts(forked)

    def test_fork_engine_matches_replay_on_bfs(self):
        scenario = make_scenario("theorem29", f=1)
        replay = explore(
            scenario, budget=60, mode="bfs", prefix_sharing="replay", **BOUNDS
        )
        forked = explore(
            scenario, budget=60, mode="bfs", prefix_sharing="fork", **BOUNDS
        )
        assert _report_facts(replay) == _report_facts(forked)

    @pytest.mark.parametrize("reduction", ["dpor", "dpor+symmetry"])
    def test_fork_engine_matches_replay_under_dpor(self, reduction):
        # Forked children ship the same windowed records the replay
        # engine builds, so the race scan drives the same search.
        scenario = make_scenario("theorem29", f=2, extra_correct=True)
        kwargs = dict(
            budget=80, depth_bound=6, preemption_bound=2, reduction=reduction,
            symmetry=theorem29_symmetry(f=2, extra_correct=True),
        )
        replay = explore(scenario, prefix_sharing="replay", **kwargs)
        forked = explore(scenario, prefix_sharing="fork", **kwargs)
        assert replay.engine == "replay" and forked.engine == "fork"
        assert forked.shared_steps > 0 and forked.races_detected > 0
        assert _report_facts(replay) == _report_facts(forked)

    def test_sharing_counters_move(self):
        report = explore(
            make_scenario("theorem29", f=1),
            budget=80,
            prefix_sharing="fork",
            **BOUNDS,
        )
        assert report.shared_steps > 0
        assert report.replayed_steps > 0
        # Singleton sibling groups (nothing to share) fall back to plain
        # replay instead of paying the fork tax, and the replayed counter
        # includes them — so sharing no longer dominates at small bounds;
        # it just has to fire for every multi-sibling group.
        assert "shared" in report.summary()

    def test_replay_engine_reports_no_sharing(self):
        report = explore(
            make_scenario("theorem29", f=1),
            budget=30,
            prefix_sharing="replay",
            **BOUNDS,
        )
        assert report.shared_steps == 0
        assert report.replayed_steps > 0

    def test_stop_on_violation_cleans_up_speculative_children(self):
        report = explore(
            make_scenario("theorem29", f=1),
            budget=300,
            prefix_sharing="fork",
            stop_on_violation=True,
            **BOUNDS,
        )
        assert report.violations

    def test_close_kills_and_reaps_unconsumed_children(self):
        import os

        from repro.explore.explorer import execute_trace
        from repro.explore.forkexec import MISS, SKIPPED, BranchExecutor

        scenario = make_scenario("theorem29", f=1)
        base = execute_trace(scenario, (), depth_bound=14, fingerprints=True)
        depth = 3
        siblings = [
            index
            for index in range(len(base.runnables[depth]))
            if index != base.trace[depth]
        ][:2]
        assert len(siblings) == 2
        executor = BranchExecutor(scenario, 14)
        parent = base.trace[:depth]
        executor.register_group(parent, siblings)
        fetched = executor.fetch(parent + (siblings[0],))
        assert fetched is not MISS and fetched is not SKIPPED
        # The second sibling was forked speculatively and never
        # consumed; close() must kill and reap it (only the executor's
        # own children — never a process-wide wait).
        leftover = [entry[0] for entry in executor._pending.values() if entry]
        assert leftover
        executor.close()
        assert not executor._pending
        for pid in leftover:
            with pytest.raises((ProcessLookupError, ChildProcessError)):
                os.kill(pid, 0)
                os.waitpid(pid, os.WNOHANG)

    def test_invalid_prefix_sharing_rejected(self):
        with pytest.raises(ValueError):
            explore(make_scenario("theorem29", f=1), prefix_sharing="nope")

    def test_memoize_off_matches_replay_engine(self):
        # With memoization off neither engine may fingerprint: states
        # stays 0 on both, and the reports still agree field for field.
        scenario = make_scenario("theorem29", f=1)
        replay = explore(
            scenario, budget=40, memoize=False, prefix_sharing="replay", **BOUNDS
        )
        forked = explore(
            scenario, budget=40, memoize=False, prefix_sharing="fork", **BOUNDS
        )
        assert replay.states == forked.states == 0
        assert _report_facts(replay) == _report_facts(forked)

    def test_child_crash_propagates_not_skips(self, monkeypatch):
        # A scenario bug inside a forked sibling must fail the search
        # loudly (as the replay engine would), not shrink the tree.
        from repro.explore import explorer as explorer_mod
        from repro.explore.forkexec import ForkChildError

        original = explorer_mod.InstrumentedRun.finish

        def crashing_finish(self):
            if len(self.scheduler.prefix) >= 1:
                raise ValueError("injected scenario bug")
            return original(self)

        monkeypatch.setattr(
            explorer_mod.InstrumentedRun, "finish", crashing_finish
        )
        with pytest.raises(ForkChildError, match="injected scenario bug"):
            explore(
                make_scenario("theorem29", f=1),
                budget=30,
                prefix_sharing="fork",
                **BOUNDS,
            )


# ----------------------------------------------------------------------
# Swarm fuzzing
# ----------------------------------------------------------------------
class TestSwarmFuzzer:
    def test_finds_and_dedupes_violations(self):
        report = fuzz(make_scenario("theorem29", f=1), budget=120, shards=1)
        assert len(report.violations) == 1  # one class, many violating runs
        assert sum(report.violation_counts.values()) > 1
        assert report.runs == 120
        assert report.runs_per_sec > 0

    def test_control_is_clean(self):
        report = fuzz(
            make_scenario("theorem29", f=1, extra_correct=True),
            budget=120,
            shards=1,
        )
        assert not report.violations, report.violations[0].describe()

    def test_sharded_campaign_matches_inline_findings(self):
        scenario = make_scenario("theorem29", f=1)
        inline = fuzz(scenario, budget=40, shards=1)
        sharded = fuzz(scenario, budget=40, shards=2)
        assert sharded.shards == 2
        assert sharded.runs == inline.runs == 40
        assert sorted(v.seed for v in _all_violations(sharded)) == sorted(
            v.seed for v in _all_violations(inline)
        )

    def test_register_workloads_hold_under_swarm(self):
        # Algorithms 1-3 must survive the adversary-combination grid.
        grid = adversary_grid("verifiable", n=4, seeds=(0,))
        report = fuzz(grid, budget=len(grid), shards=1)
        assert not report.violations, report.violations[0].describe()

    def test_swarm_scheduler_is_deterministic_per_seed(self):
        scenario = make_scenario("theorem29", f=1)
        first = run_one_fuzz(scenario, seed=3)
        second = run_one_fuzz(scenario, seed=3)
        assert (first[0] is None) == (second[0] is None)
        if first[0] is not None:
            assert first[0].trace == second[0].trace
        assert first[1] == second[1]

    def test_swarm_scheduler_draws_weights_lazily(self):
        scheduler = SwarmScheduler(seed=1)
        scheduler.select([(1, "a"), (2, "b")], clock=0)
        assert set(scheduler._weights) == {(1, "a"), (2, "b")}


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------
class TestShrinker:
    @pytest.fixture(scope="class")
    def found(self):
        scenario = make_scenario("theorem29", f=1)
        report = fuzz(scenario, budget=40, shards=1, stop_on_violation=True)
        assert report.violations
        return scenario, report.violations[0]

    def test_shrinks_and_replays_to_same_verdict(self, found):
        scenario, violation = found
        shrunk = shrink(scenario, violation)
        assert len(shrunk.trace) <= len(violation.trace)
        assert shrunk.original.fingerprint() == Violation(
            scenario=scenario.label(), reason=shrunk.reason, trace=shrunk.trace
        ).fingerprint()
        # Deterministic replay: the shrunk trace reproduces the same
        # violation class, twice.
        for _ in range(2):
            record = execute_trace(scenario, shrunk.trace)
            assert record.violation is not None
            assert record.violation.fingerprint() == violation.fingerprint()

    def test_script_is_a_runnable_scripted_scheduler(self, found):
        scenario, violation = found
        shrunk = shrink(scenario, violation)
        source = shrunk.script_source()
        assert "ScriptedScheduler" in source and "RoundRobinScheduler" in source
        # The rendered script *is* the schedule: driving the scenario
        # with it reproduces the violation without any trace machinery.
        built = scenario.build(
            ScriptedScheduler(
                list(shrunk.script), fallback=RoundRobinScheduler(), strict=False
            )
        )
        built.drive()
        reason = built.check()
        assert reason is not None and "relay" in reason

    @pytest.mark.parametrize("max_replays", [2, 5, 9, 600])
    def test_result_is_the_last_reproducing_run_with_no_closing_replay(
        self, found, max_replays, monkeypatch
    ):
        # The shrinker reports the run of its final trace without
        # re-executing it: every simulated run is a counted replay, and
        # what it reports is what a fresh replay of that trace gives —
        # also when the budget ends a phase half-way.
        import sys

        # (``repro.explore.shrink`` the attribute is the function.)
        shrink_module = sys.modules["repro.explore.shrink"]
        runs = []

        def counting(*args, **kwargs):
            runs.append(args[1])
            return execute_trace(*args, **kwargs)

        monkeypatch.setattr(shrink_module, "execute_trace", counting)
        scenario, violation = found
        shrunk = shrink(scenario, violation, max_replays=max_replays)
        assert shrunk.replays == len(runs)
        record = execute_trace(scenario, shrunk.trace)
        assert record.violation.reason == shrunk.reason
        assert tuple(record.chosen[: len(shrunk.trace)]) == shrunk.script

    def test_rejects_non_reproducing_trace(self):
        scenario = make_scenario("theorem29", f=1)
        bogus = Violation(
            scenario=scenario.label(), reason="made up", trace=(0, 0, 0)
        )
        with pytest.raises(ValueError):
            shrink(scenario, bogus)


class TestShrinkerProperties:
    """ddmin-output properties: reproduction and idempotence.

    The shrinker runs its phase pipeline to a fixpoint, so for *every*
    violating seed: (a) the minimized trace still reproduces the same
    violation class, and (b) shrinking an already-shrunk trace is a
    no-op — the property that keeps corpus entries stable across
    campaigns. Checked over the first few violating fuzz seeds rather
    than one hand-picked run.
    """

    SCENARIO = make_scenario("theorem29", f=1)

    @pytest.fixture(scope="class")
    def violations(self):
        found = []
        for seed in range(200):
            violation, _steps, _completed = run_one_fuzz(self.SCENARIO, seed)
            if violation is not None:
                found.append(violation)
            if len(found) == 3:
                break
        assert found, "no violating fuzz seed in range — fuzzer regression?"
        return found

    def test_ddmin_output_still_reproduces_the_violation(self, violations):
        for violation in violations:
            shrunk = shrink(self.SCENARIO, violation)
            assert len(shrunk.trace) <= len(violation.trace)
            record = execute_trace(self.SCENARIO, shrunk.trace)
            assert record.violation is not None
            assert record.violation.fingerprint() == violation.fingerprint()

    def test_shrinking_a_shrunk_trace_is_a_noop(self, violations):
        for violation in violations:
            shrunk = shrink(self.SCENARIO, violation)
            again = shrink(
                self.SCENARIO,
                Violation(
                    scenario=self.SCENARIO.label(),
                    reason=shrunk.reason,
                    trace=shrunk.trace,
                    schedule="shrunk",
                ),
            )
            assert again.trace == shrunk.trace
            assert again.reason == shrunk.reason
            # An already-minimal trace needs only the fixpoint check: a
            # single pass over the pipeline, far below the replay budget.
            assert again.replays <= shrunk.replays


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestExploreCli:
    def test_list_flag(self, capsys):
        from repro.analysis.__main__ import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "E5" in out and "explore" in out

    def test_explore_smoke_passes(self, capsys):
        from repro.analysis.__main__ import main

        assert main(["explore", "--budget", "120"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "ScriptedScheduler" in out  # the shrunk script was printed

    def test_explore_help_exits_cleanly(self):
        from repro.analysis.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["explore", "--help"])
        assert excinfo.value.code == 0


def _all_violations(report):
    return [v for shard in report.shard_results for v in shard.violations]
