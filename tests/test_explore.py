"""The schedule-space exploration subsystem (repro.explore).

Covers the four cooperating pieces: the TraceScheduler record/replay
layer (any run replays bit-identically from its decision trace), the
bounded systematic explorer (finds the seeded Theorem 29 violation at
``n = 3f``, certifies the control clean), the swarm fuzzer (finds the
same class, deduplicates), and the shrinker (deterministic minimal
decision traces that replay the violation, within their replay
budget).
"""

from __future__ import annotations

import gc
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, SchedulerError
from repro.sim import (
    RandomScheduler,
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
from repro.explore.explorer import paused_gc
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
        assert len(scheduler.runnables) == 9
        # Preemptions are counted off the explorer's record: (0, 0, 1)
        # switches away from a still-runnable coroutine at step 2.
        record = execute_trace(
            make_scenario("theorem29", f=1), (0, 0, 1), depth_bound=3
        )
        assert record.trace[:3] == (0, 0, 1)
        assert record.cumulative_preemptions == (0, 0, 0, 1)

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
        "replayed_steps": report.replayed_steps,
        "exhausted": report.exhausted,
        "violations": sorted(v.fingerprint() for v in report.violations),
        "violation_traces": sorted(str(v.trace) for v in report.violations),
    }


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

    def test_commutation_table(self):
        read_a, read_b = ("read", "x"), ("read", "y")
        write_a, write_b = ("write", "x"), ("write", "y")
        assert commutes(read_a, read_a)
        assert commutes(read_a, write_b)
        assert not commutes(read_a, write_a)
        assert not commutes(write_a, write_a)
        assert commutes(("wait",), write_a)  # a Pause: empty read set
        assert not commutes(("sync",), ("wait",))
        # An Await reads the registers it watches.
        await_xy = ("wait", "x", "y")
        assert not commutes(await_xy, write_a)
        assert not commutes(write_b, await_xy)
        assert commutes(await_xy, ("write", "z"))
        assert commutes(await_xy, read_a)
        assert commutes(await_xy, ("wait", "x"))
        assert commutes(await_xy, ("send", 1))

    def test_search_is_deterministic(self):
        # Re-execution from the root is the only executor: two searches
        # of the same tree must agree on every counter and violation.
        scenario = make_scenario("theorem29", f=1)
        first = explore(scenario, budget=60, **BOUNDS)
        second = explore(scenario, budget=60, **BOUNDS)
        assert first.violations
        assert _report_facts(first) == _report_facts(second)

    @pytest.mark.parametrize("reduction", ["dpor", "dpor+symmetry"])
    def test_dpor_search_is_deterministic(self, reduction):
        # The windowed records feed the race scan; replaying them twice
        # must drive the identical search.
        scenario = make_scenario("theorem29", f=2, extra_correct=True)
        kwargs = dict(
            budget=80, depth_bound=6, preemption_bound=2, reduction=reduction,
            symmetry=theorem29_symmetry(f=2, extra_correct=True),
        )
        first = explore(scenario, **kwargs)
        second = explore(scenario, **kwargs)
        assert first.races_detected > 0 and first.replayed_steps > 0
        assert _report_facts(first) == _report_facts(second)

    @pytest.mark.parametrize("symmetry", [(), ((4,),), ((4,), (5,))])
    def test_symmetry_folding_without_a_group_is_refused(self, symmetry):
        # No group of two pids folds nothing: the run would be plain
        # dpor reported under another reduction's name.
        with pytest.raises(ConfigurationError, match="use 'dpor'"):
            explore(
                make_scenario("theorem29", f=1),
                budget=5,
                reduction="dpor+symmetry",
                symmetry=symmetry,
            )

    def test_fingerprint_memo_is_always_on(self):
        report = explore(make_scenario("theorem29", f=1), budget=80, **BOUNDS)
        assert report.states > 0
        assert report.pruned_fingerprint > 0
        assert 0 < report.unique_states <= report.states

    def test_replay_counter_moves(self):
        report = explore(make_scenario("theorem29", f=1), budget=30, **BOUNDS)
        assert report.replayed_steps > 0

    @pytest.mark.parametrize("engine", ["fork", "auto", "nope"])
    def test_only_the_replay_executor_exists(self, engine):
        with pytest.raises(ValueError, match="prefix_sharing"):
            explore(make_scenario("theorem29", f=1), prefix_sharing=engine)

    @pytest.mark.parametrize("bound", ["depth_bound", "preemption_bound"])
    def test_negative_bounds_are_refused(self, bound):
        # A negative bound drains an empty tree: without the refusal the
        # violating n = 3f cell would read "exhausted, no violations".
        with pytest.raises(ValueError, match=bound):
            explore(make_scenario("theorem29", f=1), **{**BOUNDS, bound: -1})

    @pytest.mark.parametrize("budget", [0, -3])
    def test_a_budget_below_one_is_refused(self, budget):
        # No run is no search: the violating n = 3f cell would otherwise
        # report 0 runs and no violation.
        with pytest.raises(ValueError, match="budget"):
            explore(make_scenario("theorem29", f=1), budget=budget)

    def test_scenario_bug_in_a_run_propagates(self, monkeypatch):
        # A scenario bug raised while finishing a deviated run must fail
        # the search loudly, not be skipped like an unrealizable prefix.
        from repro.explore import explorer as explorer_mod

        original = explorer_mod.InstrumentedRun.finish

        def crashing_finish(self):
            if len(self.scheduler.prefix) >= 1:
                raise ValueError("injected scenario bug")
            return original(self)

        monkeypatch.setattr(
            explorer_mod.InstrumentedRun, "finish", crashing_finish
        )
        with pytest.raises(ValueError, match="injected scenario bug"):
            explore(make_scenario("theorem29", f=1), budget=30, **BOUNDS)

    @pytest.mark.parametrize(
        "label_part",
        ["flipflop", "verify_freshness=False", "'drop'", "'partition'"],
    )
    def test_stopping_on_a_violation_is_not_exhaustion(self, label_part):
        # Each cell violates on the very first (root) run, which leaves
        # the frontier empty at the stop: that drained nothing.
        from repro.scenarios import grid

        (record,) = [
            rec
            for rec in grid(expect_violation=True, engine="swarm")
            if label_part in rec.spec.label()
        ]
        scenario = make_scenario(record.spec.name, **dict(record.spec.params))
        stopped = explore(
            scenario, depth_bound=6, budget=20, stop_on_violation=True
        )
        assert stopped.runs == 1 and stopped.violations
        assert not stopped.exhausted
        assert "budget reached" in stopped.summary()
        full = explore(scenario, depth_bound=6, budget=20)
        assert full.runs == 20 and not full.exhausted


# ----------------------------------------------------------------------
# Swarm fuzzing
# ----------------------------------------------------------------------
class TestSwarmFuzzer:
    def test_finds_and_dedupes_violations(self):
        report = fuzz(make_scenario("theorem29", f=1), budget=120)
        assert len(report.violations) == 1  # one class, many violating runs
        assert sum(report.violation_counts.values()) > 1
        assert report.runs == 120
        assert report.runs_per_sec > 0

    @pytest.mark.parametrize("budget", [0, -3])
    def test_a_budget_below_one_is_refused(self, budget):
        # "no violations in 0 runs" would certify work never done.
        with pytest.raises(ValueError, match="budget"):
            fuzz(make_scenario("theorem29", f=1), budget=budget)

    def test_control_is_clean(self):
        report = fuzz(
            make_scenario("theorem29", f=1, extra_correct=True),
            budget=120,
        )
        assert not report.violations, report.violations[0].describe()

    def test_register_workloads_hold_under_swarm(self):
        # Algorithms 1-3 must survive the adversary-combination grid.
        grid = adversary_grid("verifiable", n=4, seeds=(0,))
        report = fuzz(grid, budget=len(grid))
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


def _count_builds(monkeypatch):
    """Record the label of every scenario built from now on."""
    from repro.scenarios.registry import Scenario

    builds = []
    original = Scenario.build

    def counting(self, *args, **kwargs):
        builds.append(self.label())
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Scenario, "build", counting)
    return builds


class TestHuntingRecordsAsItRuns:
    """A hunting campaign records its find in the run that finds it.

    The recorded run must report exactly what the bare run plus its
    capture replay report, and must spare that second execution.
    """

    @staticmethod
    def _expect_violation_swarm_cells():
        from repro.campaign import default_matrix

        cells = [
            cell
            for cell in default_matrix(smoke=True)
            if cell.engine == "swarm" and cell.expect_violation
        ]
        assert len(cells) >= 8, [cell.implementation for cell in cells]
        return cells

    def test_hunting_find_equals_the_capture_replay_find(self):
        for cell in self._expect_violation_swarm_cells():
            compared = 0
            for seed in range(cell.seed0, cell.seed0 + cell.budget):
                certified = run_one_fuzz(cell.scenario, seed)
                hunted = run_one_fuzz(cell.scenario, seed, hunting=True)
                assert hunted[1:] == certified[1:], (cell.implementation, seed)
                if certified[0] is None:
                    assert hunted[0] is None, (cell.implementation, seed)
                    continue
                # Field for field: scenario, reason, trace, schedule, seed.
                assert hunted[0] == certified[0], (cell.implementation, seed)
                compared += 1
                if compared == 2:
                    break
            assert compared, f"{cell.implementation}: no violating seed"

    def test_a_hunting_shard_builds_one_scenario_per_run(self, monkeypatch):
        scenario = make_scenario("theorem29", f=1)
        first = next(
            seed for seed in range(40) if run_one_fuzz(scenario, seed)[0]
        )
        builds = _count_builds(monkeypatch)
        report = fuzz(scenario, budget=40, stop_on_violation=True)
        assert report.violations and report.violations[0].seed == first
        assert report.runs == first + 1
        assert len(builds) == first + 1

    def test_a_certifying_shard_replays_an_unexpected_find_once(
        self, monkeypatch
    ):
        scenario = make_scenario("theorem29", f=1)
        first = next(
            seed for seed in range(40) if run_one_fuzz(scenario, seed)[0]
        )
        builds = _count_builds(monkeypatch)
        report = fuzz(scenario, budget=first + 1)
        assert report.violations and report.violations[0].seed == first
        assert len(builds) == report.runs + 1


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------
class _Node:
    """A reference-cycle participant (plain objects take weakrefs)."""


def _cycle():
    """A two-node reference cycle and a weakref to one of its nodes."""
    first, second = _Node(), _Node()
    first.peer, second.peer = second, first
    return weakref.ref(first)


class TestPausedGc:
    @pytest.fixture(autouse=True)
    def _collector_on(self):
        was_enabled = gc.isenabled()
        gc.enable()
        yield
        (gc.enable if was_enabled else gc.disable)()

    def test_a_cycle_made_inside_is_reclaimed_on_exit(self):
        with paused_gc():
            assert not gc.isenabled()
            ref = _cycle()
            assert ref() is not None
        assert ref() is None
        assert gc.isenabled()

    def test_a_nested_block_does_not_collect(self):
        with paused_gc():
            with paused_gc():
                ref = _cycle()
            assert ref() is not None and not gc.isenabled()
        assert ref() is None and gc.isenabled()

    def test_a_disabled_collector_stays_disabled(self):
        gc.disable()
        with paused_gc():
            ref = _cycle()
        assert ref() is not None and not gc.isenabled()

    def test_shrink_runs_with_the_collector_paused(self, monkeypatch):
        import sys

        shrink_module = sys.modules["repro.explore.shrink"]
        enabled = []
        real = shrink_module.execute_trace

        def spy(*args, **kwargs):
            enabled.append(gc.isenabled())
            return real(*args, **kwargs)

        monkeypatch.setattr(shrink_module, "execute_trace", spy)
        scenario = make_scenario("theorem29", f=1)
        report = fuzz(scenario, budget=40, stop_on_violation=True)
        shrink(scenario, report.violations[0], max_replays=3)
        assert enabled and not any(enabled)
        assert gc.isenabled()


class TestShrinker:
    @pytest.fixture(scope="class")
    def found(self):
        scenario = make_scenario("theorem29", f=1)
        report = fuzz(scenario, budget=40, stop_on_violation=True)
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

    def test_depth0_replay_matches_a_fully_recorded_one(self, found):
        # A depth-0 replay records only what its callers read; the
        # verdict and the step count must equal those of a run that
        # records every windowed step.
        scenario, violation = found
        trace = violation.trace
        for prefix in (
            (),
            trace[:1],
            trace[: len(trace) // 4],
            trace[: len(trace) // 2],
            trace,
            tuple(0 for _ in trace[:40]),
        ):
            lean = execute_trace(scenario, prefix)
            full = execute_trace(scenario, prefix, fingerprints=True)
            assert lean.violation == full.violation
            assert (lean.steps, lean.completed) == (full.steps, full.completed)
            assert lean.effects == () and len(full.effects) >= len(prefix)

    def test_fixpoint_reports_whether_the_budget_ran_out(
        self, found, monkeypatch
    ):
        scenario, violation = found
        done = shrink(scenario, violation)
        assert done.fixpoint and done.replays < 600
        assert "replay budget spent" not in done.describe()

        builds = _count_builds(monkeypatch)
        cut = shrink(scenario, violation, max_replays=4)
        assert not cut.fixpoint
        assert cut.replays == len(builds) == 4
        assert "replay budget spent" in cut.describe()

    def test_the_replay_budget_is_never_overshot(self, monkeypatch):
        # Every phase asks the budget before each replay, normalization
        # included: a budget that ends mid-pass is spent exactly, and
        # the cut result never claims a fixpoint. The replays of the
        # unbounded shrink are memoized by prefix, so the sweep re-runs
        # the shrinker's control flow over real verdicts without
        # re-simulating them.
        import sys

        from repro.campaign import default_matrix

        shrink_module = sys.modules["repro.explore.shrink"]
        real = shrink_module._reproduces
        seen = {}

        def memoized(scenario, prefix, fingerprint, ctx=None):
            key = tuple(prefix)
            if key not in seen:
                seen[key] = real(scenario, prefix, fingerprint, ctx=ctx)
            return seen[key]

        monkeypatch.setattr(shrink_module, "_reproduces", memoized)
        (cell,) = [
            cell
            for cell in default_matrix(smoke=True)
            if cell.implementation == "asset_transfer" and cell.expect_violation
        ]
        report = fuzz(
            cell.scenario, budget=cell.budget, stop_on_violation=True
        )
        violation = report.violations[0]
        unbounded = shrink(cell.scenario, violation)
        assert unbounded.fixpoint and unbounded.replays >= 80
        for max_replays in range(2, 80):
            cut = shrink(cell.scenario, violation, max_replays=max_replays)
            assert cut.replays == max_replays, (max_replays, cut.replays)
            assert not cut.fixpoint, max_replays

    def test_rejects_non_reproducing_trace(self):
        scenario = make_scenario("theorem29", f=1)
        bogus = Violation(
            scenario=scenario.label(), reason="made up", trace=(0, 0, 0)
        )
        with pytest.raises(ValueError):
            shrink(scenario, bogus)


class TestShrinkerProperties:
    """ddmin-output properties: reproduction and idempotence.

    Under the default budget the shrinker runs its phase pipeline to a
    fixpoint, so for *every* violating seed: (a) the minimized trace
    still reproduces the same violation class, and (b) shrinking an
    already-shrunk trace is a no-op — the property that keeps corpus
    entries stable across campaigns. Checked over the first few
    violating fuzz seeds rather than one hand-picked run.
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
            assert shrunk.fixpoint
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
