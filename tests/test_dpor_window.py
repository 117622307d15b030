"""The recording window of the explorer's executor (barrier lemma).

``InstrumentedRun`` stops recording once (a) every coroutine seen
runnable inside the horizon has stepped past the window and (b) a
``sync`` step at an index at or past the window has been recorded —
under every reduction. These tests pin why that is enough:

* the lemma itself, on ``analyze_run`` as a pure function: cutting a
  trace anywhere after the first post-horizon ``sync`` step changes
  nothing, and cutting before it can lose a request;
* the recorder against an independent full-trace oracle, on prefixes
  real explorations executed;
* runs with no barrier record to their last step;
* the certify cell's full report.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import scenarios as registry
from repro.explore import (
    execute_trace,
    explore,
    make_scenario,
    theorem29_symmetry,
)
from repro.explore import explorer as explorer_mod
from repro.explore.dpor import SymmetryFolder, analyze_run
from repro.explore.explorer import effect_signature
from repro.sim import Await, Pause, RoundRobinScheduler, TraceScheduler

SYNC = ("sync",)


# ----------------------------------------------------------------------
# The lemma, on analyze_run alone
# ----------------------------------------------------------------------
_CIDS = [(pid, role) for pid in (1, 2, 3) for role in ("client", "help")]
_REGISTERS = ("x", "y")
_SIGNATURES = st.one_of(
    st.sampled_from(_REGISTERS).map(lambda r: ("read", r)),
    st.sampled_from(_REGISTERS).map(lambda r: ("write", r)),
    st.lists(st.sampled_from(_REGISTERS), max_size=2).map(
        lambda names: ("wait", *names)
    ),
    st.sampled_from((1, 2, 3)).map(lambda p: ("send", p)),
    st.sampled_from((1, 2, 3)).map(lambda p: ("recv", p)),
    st.just(("bcast",)),
    st.just(SYNC),
)
_STEPS = st.lists(
    st.tuples(st.sampled_from(_CIDS), _SIGNATURES), min_size=1, max_size=40
)


def _first_barrier(effects, limit):
    for index in range(limit, len(effects)):
        if effects[index] == SYNC:
            return index
    return None


class TestBarrierLemma:
    @settings(max_examples=400, deadline=None)
    @given(steps=_STEPS, limit=st.integers(min_value=0, max_value=12))
    def test_any_cut_after_the_barrier_is_the_whole_run(self, steps, limit):
        chosen = [cid for cid, _ in steps]
        effects = [sig for _, sig in steps]
        barrier = _first_barrier(effects, limit)
        if barrier is None:
            return  # no barrier: the recorder keeps the whole run
        whole = analyze_run(chosen, effects, limit)
        for cut in range(barrier + 1, len(steps) + 1):
            assert analyze_run(chosen[:cut], effects[:cut], limit) == whole

    def test_a_cut_before_the_barrier_can_lose_a_request(self):
        # The bound is tight: A's write (inside the horizon) races B's
        # read two steps *past* the horizon, before any sync. Cutting at
        # the horizon — or anywhere short of the read — drops the request.
        a, b, c = (1, "client"), (2, "client"), (3, "client")
        chosen = [a, b, c, b, c]
        effects = [("write", "x"), ("wait",), ("wait",), ("read", "x"), SYNC]
        limit = 2
        assert _first_barrier(effects, limit) == 4
        assert analyze_run(chosen, effects, limit) == (1, [(0, b)])
        assert analyze_run(chosen[:3], effects[:3], limit) == (0, [])
        # ... and from the barrier on, nothing moves.
        assert analyze_run(chosen[:4], effects[:4], limit) == (1, [(0, b)])

    def test_a_race_ending_at_the_barrier_is_kept(self):
        # The barrier step itself must be inside the record: a sync
        # conflicts with everything, so it can close a window race.
        a, b = (1, "client"), (2, "client")
        chosen = [a, b]
        effects = [("write", "x"), SYNC]
        assert analyze_run(chosen, effects, 1) == (1, [(0, b)])
        assert analyze_run(chosen[:1], effects[:1], 1) == (0, [])


class TestWaitSignatures:
    def test_an_await_is_a_read_of_what_it_watches(self):
        assert effect_signature(Await((("x", 0), ("y", 1)))) == (
            "wait", "x", "y",
        )
        assert effect_signature(Await(())) == ("wait",)
        assert effect_signature(Pause()) == ("wait",)
        a, b = (1, "help"), (2, "client")
        # wait-then-write on a watched register races like read-then-write
        assert analyze_run([a, b], [("wait", "x"), ("write", "x")], 1) == (
            1, [(0, b)],
        )
        # ... and write-then-wait like write-then-read.
        assert analyze_run([b, a], [("write", "x"), ("wait", "y", "x")], 1) == (
            1, [(0, a)],
        )
        # A wait on nothing (a Pause) races nothing but a sync.
        assert analyze_run([a, b], [("wait",), ("write", "x")], 1) == (0, [])
        assert analyze_run([a, b], [("wait", "y"), ("write", "x")], 1) == (
            0, [],
        )

    def test_a_wait_touches_the_owners_it_watches(self):
        folder = SymmetryFolder(((2, 3, 4),), {"x": 2, "y": 3, "z": 4})
        reader = (1, "help")
        assert folder.first_touches(
            [reader, reader], [("wait",), ("wait", "y", "x")], 2
        ) == {3: 1, 2: 1}


# ----------------------------------------------------------------------
# The recorder against an independent full-trace oracle
# ----------------------------------------------------------------------
def _full_trace(scenario, prefix, depth_bound):
    """Every step of the run, observed by a recorder that never detaches."""
    scheduler = TraceScheduler(
        prefix=prefix, fallback=RoundRobinScheduler(), horizon=depth_bound
    )
    built = scenario.build(scheduler)
    system = built.system
    networked = system.network is not None
    chosen, effects = [], []

    def on_step(cid, effect):
        chosen.append(cid)
        effects.append(
            SYNC if effect is None
            else effect_signature(effect, cid[0], networked)
        )

    system.on_step = on_step
    try:
        built.drive()
    finally:
        system.release_coroutines()
    return chosen, effects, scheduler.runnables


def _explored_prefixes(monkeypatch, scenario, depth_bound, reduction, symmetry):
    """The decision prefixes a real (small) exploration executes."""
    prefixes = []
    original = explorer_mod.execute_trace

    def logging_execute(scenario, prefix=(), **kwargs):
        prefixes.append(tuple(prefix))
        return original(scenario, prefix, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(explorer_mod, "execute_trace", logging_execute)
        explore(
            scenario,
            depth_bound=depth_bound,
            preemption_bound=2,
            budget=20,
            reduction=reduction,
            symmetry=symmetry,
        )
    assert len(prefixes) > 1
    return prefixes


def _theorem29(depth_bound, **kwargs):
    return (
        make_scenario("theorem29", **kwargs),
        theorem29_symmetry(**kwargs),
        depth_bound,
    )


def _from_grid(depth_bound, label):
    return registry.resolve(label).spec, (), depth_bound


#: name -> (scenario, declared symmetry, depth bound)
_CELLS = {
    "theorem29-f1": _theorem29(14, f=1),
    # Deep enough that helpers park inside the horizon: a parked
    # coroutine must not hold the window open.
    "theorem29-f1-deep": _theorem29(30, f=1),
    "theorem29-f2-control": _theorem29(6, f=2, extra_correct=True),
    "broadcast-n3": _from_grid(
        6,
        "broadcast/systematic:broadcast"
        "(byzantine=((3, 'equivocate'),),f=1,n=3,seed=0)",
    ),
    "reliable-broadcast-n4": _from_grid(
        6,
        "reliable_broadcast/systematic:reliable_broadcast"
        "(byzantine=((4, 'equivocate'),),f=1,n=4,seed=0)",
    ),
    "verifiable-register": _from_grid(
        5,
        "verifiable/swarm:register"
        "(kind=verifiable,n=4,reader_adversaries=(),seed=0,"
        "writer_adversary=none)",
    ),
    "mp-register-networked": _from_grid(
        4,
        "mp_emulation/swarm:mp_register"
        "(f=1,faults=(('drop', 1, 0, 1.0),),n=4,seed=0)",
    ),
}


@pytest.mark.parametrize("cell", sorted(_CELLS))
def test_window_record_matches_full_trace_oracle(cell, monkeypatch):
    scenario, symmetry, depth_bound = _CELLS[cell]
    reduction = "dpor+symmetry" if symmetry else "dpor"
    # Folding reads first_touches; cells without a declared symmetry get
    # one made-up group (every cell has n >= 3) so the function is still
    # exercised.
    folder = explorer_mod._symmetry_folder(
        scenario, symmetry or ((1, 2, 3),), None
    )
    closed_early = 0
    for prefix in _explored_prefixes(
        monkeypatch, scenario, depth_bound, reduction, symmetry
    ):
        record = execute_trace(scenario, prefix, depth_bound=depth_bound)
        chosen, effects, runnables = _full_trace(scenario, prefix, depth_bound)
        recorded = len(record.effects)
        assert len(record.chosen) == recorded
        assert record.steps == len(effects)
        # A prefix of the whole run ...
        assert list(record.chosen) == chosen[:recorded]
        assert list(record.effects) == effects[:recorded]
        # ... that ends only after the barrier, and after every
        # coroutine the sleep-set test can ask about has stepped ...
        window = max(depth_bound, len(prefix))
        if recorded < len(effects):
            closed_early += 1
            assert SYNC in record.effects[window:]
            for depth, runnable in enumerate(runnables):
                for cid in runnable:
                    if cid in chosen[depth:]:
                        assert cid in record.chosen[depth:]
        # ... so every search-loop query reads the same off both.
        horizon = min(depth_bound, len(record.trace), recorded)
        assert analyze_run(record.chosen, record.effects, horizon) == (
            analyze_run(chosen, effects, horizon)
        )
        assert folder.first_touches(
            record.chosen, record.effects, horizon
        ) == folder.first_touches(chosen, effects, horizon)
    assert closed_early, "no run of this cell ever closed its window"


# ----------------------------------------------------------------------
# No barrier: the record runs to the last step
# ----------------------------------------------------------------------
class TestRunsWithoutABarrier:
    def test_step_limit_inside_the_open_window_records_everything(self):
        depth_bound = 6
        closes_at = len(
            execute_trace(
                make_scenario("theorem29", f=1), depth_bound=depth_bound
            ).effects
        )
        assert closes_at > depth_bound + 1
        # One step short of where the window would have closed.
        limited = make_scenario("theorem29", f=1, max_steps=closes_at - 1)
        record = execute_trace(limited, depth_bound=depth_bound)
        assert not record.completed
        assert len(record.effects) == record.steps == closes_at - 1

    def test_full_runs_still_close_the_window(self):
        record = execute_trace(make_scenario("theorem29", f=1), depth_bound=6)
        assert record.completed
        assert len(record.effects) < record.steps // 4

    def test_a_coroutine_parked_inside_the_horizon_lets_the_window_close(self):
        # At depth 30 helpers park (for good) inside the horizon: they
        # never step again, so waiting for them would record the run.
        record = execute_trace(make_scenario("theorem29", f=1), depth_bound=30)
        assert record.completed
        assert len(record.effects) < record.steps // 4


# ----------------------------------------------------------------------
# The certify cell, pinned whole
# ----------------------------------------------------------------------
def test_certify_cell_report_is_pinned():
    """`explore-certify`'s dpor half (benchmarks/e2e): host-independent."""
    report = explore(
        make_scenario("theorem29", f=2, extra_correct=True),
        reduction="dpor+symmetry",
        symmetry=theorem29_symmetry(f=2, extra_correct=True),
        depth_bound=6,
        preemption_bound=2,
        budget=4000,
    )
    assert report.exhausted and not report.violations
    assert {
        "runs": report.runs,
        "states": report.states,
        "steps": report.steps,
        "races_detected": report.races_detected,
        "pruned_dpor": report.pruned_dpor,
        "pruned_symmetry": report.pruned_symmetry,
        "pruned_sleep": report.pruned_sleep,
        "pruned_preemption": report.pruned_preemption,
        "pruned_fingerprint": report.pruned_fingerprint,
        "replayed_steps": report.replayed_steps,
        "incomplete": report.incomplete,
    } == {
        "runs": 315,
        "states": 1890,
        "steps": 85_945,
        "races_detected": 2690,
        "pruned_dpor": 3406,
        "pruned_symmetry": 164,
        "pruned_sleep": 1454,
        "pruned_preemption": 216,
        "pruned_fingerprint": 49,
        "replayed_steps": 1301,
        "incomplete": 0,
    }
    # The recorder's window closes after about 37 steps a run; the rest
    # of each run executes unrecorded.
    assert report.recorded_steps == 11_642
    assert "11642 of 85945 steps recorded" in report.summary()
    assert f"{report.blocked_fallbacks} blocked-coroutine fallbacks" in (
        report.summary()
    )
