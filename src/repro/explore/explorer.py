"""Bounded systematic exploration of the schedule space.

Stateless (re-execution based) model checking over scheduler decision
traces: each node of the search tree is a decision-index prefix (see
:class:`repro.sim.TraceScheduler`); executing a node replays its prefix
and completes the run with a *fair* round-robin fallback, so every
explored schedule is a full history the spec checkers can judge. The
search is bounded three ways:

* **depth bound** — deviations from the fallback are only injected in
  the first ``depth_bound`` steps (the classic bounded-model-checking
  frontier);
* **preemption bound** — prefixes that switch away from a runnable
  coroutine more than ``preemption_bound`` times are pruned, the CHESS
  observation that real schedule bugs need very few preemptions;
* **budget** — a hard cap on executed runs.

``reduction`` selects how the remaining tree is cut:

* ``"sleep"`` (the default, and the differential baseline) expands every runnable
  sibling at every depth, pruned two ways: **fingerprint
  memoization** — :meth:`repro.sim.System.fingerprint` hashes the
  forward-relevant state after every prefix step; a node whose state
  was already expanded at the same or shallower depth is not expanded
  again (commuting interleavings reconverge here) — and
  **sleep-set-style commutation pruning** — a sibling whose next effect
  commutes with every already-explored sibling's next effect at that
  node is skipped: swapping adjacent commuting steps cannot produce a
  new state, so some explored ordering covers it. A coroutine's next
  effect at a node is read off the base run (it is invariant until the
  coroutine steps), so no extra executions are needed.
* ``"dpor"`` inverts the expansion: no sibling is scheduled until a
  reason exists. Each executed run is scanned for *races* — pairs of
  conflicting steps by different coroutines, adjacent in the
  happens-before order :mod:`repro.explore.dpor` computes from the
  recorded effect signatures — and each race adds exactly one
  source-set backtrack candidate at the last node before the race,
  instead of expanding every runnable sibling. The fingerprint memo
  composes: a memo-pruned node is neither expanded nor race-scanned
  (the covering node's suffix was), which is what keeps the backtrack
  frontier from re-deriving the interleavings the memo already
  collapsed. Two conservative escapes keep the bounded search honest:
  a backtrack whose deviation would bust the preemption budget is
  re-anchored at the latest budget-feasible ancestor (the bounded-POR
  conservative point — without it, race-driven deviations are all
  preemption-expensive while the baseline reaches the same classes by
  switching early and running one coroutine for free), and a backtrack
  for a coroutine that is not runnable at its node — parked on an
  ``Await``, or retired — falls back to requesting every enabled
  sibling there (the disabled-process treatment of source-set DPOR).
* ``"dpor+symmetry"`` additionally folds backtrack
  candidates drawn from a scenario-declared interchangeable-process
  group onto one canonical representative while both processes are
  still untouched by the prefix
  (:class:`repro.explore.dpor.SymmetryFolder`) — the explorer-side
  version of the oracle's interchangeable-client reduction.

Depth, preemption and budget bounds apply identically in every mode.
All reductions are heuristic in the strict sense (the fingerprint
abstracts non-primitive locals; symmetry trusts the scenario's
declaration; and while the commutation algebra models a register wait
exactly — an ``Await`` is a read of the registers it watches, and a
parked coroutine is not runnable — the ``Pause`` loops that remain
are waits with an empty read set, which assumes their guards depend
only on operation completion, message arrival or their own
counters), so the report keeps separate counters for
each and ``exhausted`` only claims the *bounded, reduced* tree was
drained. ``tests/test_dpor_differential.py`` pins that all three modes
reach identical verdicts and violation classes across the scenario
families.
"""

from __future__ import annotations

import contextlib
import gc
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import SchedulerError, StepLimitExceeded
from repro.scenarios.registry import REDUCTIONS, Scenario, Violation
from repro.sim.effects import (
    Await,
    Broadcast,
    Pause,
    ReadRegister,
    ReceiveAll,
    Send,
    WriteRegister,
)
from repro.sim.scheduler import CoroutineId, RoundRobinScheduler, TraceScheduler
from repro.spec.context import CheckContext
from repro.explore.dpor import NEVER, SymmetryFolder, analyze_run

#: Effect signature: ("read", reg) / ("write", reg) / ("wait", reg...)
#: / ("send", dest_pid) / ("recv", own_pid) / ("bcast",) / ("sync",) for
#: anything that touches history or retires a coroutine. A wait's
#: registers are its read set: an ``Await``'s watched registers, none
#: for a ``Pause``. Signatures drive the commutation test below.
EffectSignature = Tuple[str, ...]

_WAIT_SIG: EffectSignature = ("wait",)
_SYNC_SIG: EffectSignature = ("sync",)
_BCAST_SIG: EffectSignature = ("bcast",)

#: Effect-type -> signature kind, filled lazily per concrete type (the
#: per-step isinstance chain showed up in profiles; subclasses resolve
#: through their nearest classified base, mirroring System._HANDLERS).
_SIG_KINDS: Dict[type, str] = {
    ReadRegister: "read",
    WriteRegister: "write",
    Pause: "wait",
    Await: "wait",
    Send: "send",
    Broadcast: "bcast",
    ReceiveAll: "recv",
}


def _resolve_sig_kind(effect_type: type) -> str:
    for base in effect_type.__mro__[1:]:
        kind = _SIG_KINDS.get(base)
        if kind is not None:
            _SIG_KINDS[effect_type] = kind
            return kind
    _SIG_KINDS[effect_type] = "sync"
    return "sync"


def effect_signature(
    effect: object,
    pid: Optional[int] = None,
    networked: bool = False,
) -> EffectSignature:
    """Classify one executed effect for the commutation test.

    Message effects are keyed by the mailbox they touch: ``Send`` by its
    destination, ``ReceiveAll`` by the stepping process's own ``pid``
    (it drains its own mailbox — pass it, or the effect degrades to
    ``sync``). ``networked`` must be True when the system routes
    messages through an installed network model: delivery then consumes
    the network's RNG in submission order, so reordering two sends is
    observable and the signatures conservatively stay ``sync``.
    """
    kind = _SIG_KINDS.get(type(effect))
    if kind is None:
        kind = _resolve_sig_kind(type(effect))
    if kind == "read":
        return ("read", effect.register)
    if kind == "write":
        return ("write", effect.register)
    if kind == "wait":
        return _wait_signature(effect.watch)
    if networked:
        return _SYNC_SIG
    if kind == "send":
        return ("send", effect.to)
    if kind == "bcast":
        return _BCAST_SIG
    if kind == "recv":
        return ("recv", pid) if pid is not None else _SYNC_SIG
    return _SYNC_SIG


def _wait_signature(watch) -> EffectSignature:
    if not watch:
        return _WAIT_SIG
    return ("wait", *(name for name, _ in watch))


def commutes(a: EffectSignature, b: EffectSignature) -> bool:
    """Whether two adjacent steps can swap without changing the state.

    Reads commute with reads; register accesses commute unless they
    race on the same register with a write involved; a wait is a read
    of each register it watches (whether it parks depends on their
    values), so it conflicts only with a write to one of them — a
    ``Pause`` watches nothing and commutes with every register access
    and message effect. Message effects commute with each other unless
    they touch the same mailbox — a broadcast touches every mailbox —
    and always commute with register accesses (mailboxes and registers
    are disjoint state). Anything classified ``sync`` — Invoke/Respond
    (they flip client ``done`` flags that pause loops poll), networked
    message submission, and coroutine retirement — conservatively
    commutes with nothing.
    """
    ka, kb = a[0], b[0]
    if ka == "sync" or kb == "sync":
        return False
    if ka == "wait":
        return kb != "write" or b[1] not in a[1:]
    if kb == "wait":
        return ka != "write" or a[1] not in b[1:]
    a_msg = ka in ("send", "recv", "bcast")
    b_msg = kb in ("send", "recv", "bcast")
    if a_msg != b_msg:
        return True  # one mailbox op, one register op: disjoint state
    if a_msg:
        if ka == "bcast" or kb == "bcast":
            return False  # a broadcast touches every mailbox
        return a[1] != b[1]
    if ka == "read" and kb == "read":
        return True
    return a[1] != b[1]


@dataclass
class RunRecord:
    """Everything one re-execution exposes to the search loop."""

    trace: Tuple[int, ...]
    chosen: Tuple[CoroutineId, ...]
    runnables: Tuple[Tuple[CoroutineId, ...], ...]
    cumulative_preemptions: Tuple[int, ...]
    effects: Tuple[EffectSignature, ...]
    fingerprints: Tuple[int, ...]
    completed: bool
    steps: int
    violation: Optional[Violation] = None


@dataclass
class ExploreReport:
    """Outcome of one bounded exploration campaign."""

    scenario: str
    mode: str
    depth_bound: int
    preemption_bound: int
    budget: int
    runs: int = 0
    steps: int = 0
    #: Steps the per-step recorder observed before its window closed
    #: (sum of ``len(record.effects)`` over executed runs); the rest of
    #: ``steps`` ran uninstrumented.
    recorded_steps: int = 0
    states: int = 0
    unique_states: int = 0
    incomplete: int = 0
    pruned_fingerprint: int = 0
    pruned_sleep: int = 0
    pruned_preemption: int = 0
    #: Reduction mode: "sleep", "dpor" or "dpor+symmetry".
    reduction: str = "sleep"
    #: Siblings never scheduled because no race demanded them (dpor
    #: modes: runnable siblings at opened nodes minus executed
    #: backtracks).
    pruned_dpor: int = 0
    #: Backtrack candidates folded onto a symmetric representative.
    pruned_symmetry: int = 0
    #: Happens-before-adjacent conflicting pairs found in executed runs.
    races_detected: int = 0
    #: Times a backtrack's coroutine was not runnable at its node and
    #: the search fell back to requesting every enabled sibling there.
    blocked_fallbacks: int = 0
    exhausted: bool = False
    elapsed: float = 0.0
    violations: List[Violation] = field(default_factory=list)
    #: Prefix steps re-executed from the root to reach decision points.
    replayed_steps: int = 0

    @property
    def runs_per_sec(self) -> float:
        """Executed schedules per wall-clock second."""
        return self.runs / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def states_per_sec(self) -> float:
        """State fingerprints computed per wall-clock second."""
        return self.states / self.elapsed if self.elapsed > 0 else 0.0

    def summary(self) -> str:
        """One-paragraph rendering for the CLI."""
        verdict = (
            f"{len(self.violations)} violation class(es) found"
            if self.violations
            else "no violations"
        )
        tree = "bounded tree exhausted" if self.exhausted else "budget reached"
        if self.reduction == "sleep":
            pruning = (
                f"pruned {self.pruned_fingerprint} by fingerprint / "
                f"{self.pruned_sleep} by sleep sets / "
                f"{self.pruned_preemption} by preemption bound"
            )
        else:
            pruning = (
                f"{self.races_detected} races detected, pruned "
                f"{self.pruned_dpor} by dpor / {self.pruned_symmetry} "
                f"by symmetry / {self.pruned_preemption} by preemption bound, "
                f"{self.blocked_fallbacks} blocked-coroutine fallbacks, "
                f"{self.recorded_steps} of {self.steps} steps recorded"
            )
        return (
            f"{self.scenario}: {verdict} in {self.runs} runs "
            f"({self.mode}/{self.reduction}, "
            f"depth<={self.depth_bound}, "
            f"preemptions<={self.preemption_bound}; {tree}); "
            f"{self.runs_per_sec:.0f} runs/s, {self.states_per_sec:.0f} states/s, "
            f"{self.unique_states} unique states, "
            + pruning
        )


def execute_trace(
    scenario: Scenario,
    prefix: Sequence[int] = (),
    depth_bound: int = 0,
    fingerprints: bool = False,
    schedule_label: str = "",
    ctx: Optional[CheckContext] = None,
) -> RunRecord:
    """Replay ``prefix`` against a fresh build of ``scenario``.

    The run completes under a fair round-robin fallback; the first
    ``depth_bound`` steps additionally record runnable sets, effect
    signatures and (optionally) state fingerprints for the search loop
    (the effect record runs a little further — see
    :class:`InstrumentedRun` for where its window closes).
    Raises :class:`SchedulerError` when the prefix is not realizable.
    ``ctx`` shares oracle caches across replays.
    """
    return InstrumentedRun(
        scenario, prefix, depth_bound, fingerprints, schedule_label, ctx=ctx
    ).finish()


class InstrumentedRun:
    """One scenario execution with windowed per-step instrumentation.

    The explorer's node executor: construction builds the scenario
    under a :class:`TraceScheduler` that replays the decision prefix,
    and :meth:`finish` drives the run to completion and packages the
    :class:`RunRecord`. :func:`execute_trace` is simply construct +
    finish.

    Recording is *windowed*: per-step observations stop — and the
    ``on_step`` hook detaches, so the completion tail runs on
    ``run_until``'s inlined fast path — once nothing the search loop can
    still ask about remains open. The window is
    ``max(depth_bound, len(prefix))`` steps (``chosen``/``effects``
    always cover the full forced prefix: the shrinker converts prefix
    decisions into scripts), and it closes, the same way under every
    reduction, at the first step past it by which both

    (a) every coroutine seen runnable inside the horizon has stepped
        beyond the window or retired — the sleep-set test
        (:func:`_next_effect_at`, which dpor's inherited sleep sets read
        too) asks for a coroutine's first step at or after a depth below
        ``depth_bound``, and under the round-robin fallback every live
        coroutine steps within one rotation past the horizon; and
    (b) a ``sync`` step at an index at or past the window has been
        recorded — the happens-before barrier after which no race the
        bounded search can reverse can end (the barrier lemma of
        :mod:`repro.explore.dpor`), so the race scan reads the same
        races and requests off the window as off the whole run.

    A run with no such step (it hit the step limit) records to its last
    step. The windowed record answers every search-loop query
    identically to a full-length record.
    """

    def __init__(
        self,
        scenario: Scenario,
        prefix: Sequence[int] = (),
        depth_bound: int = 0,
        fingerprints: bool = False,
        schedule_label: str = "",
        ctx: Optional[CheckContext] = None,
    ):
        self.scenario = scenario
        self.depth_bound = depth_bound
        self.fingerprints = fingerprints
        self.schedule_label = schedule_label
        self.scheduler = TraceScheduler(
            prefix=prefix, fallback=RoundRobinScheduler(), horizon=depth_bound
        )
        self.built = scenario.build(self.scheduler, ctx=ctx)
        self.system = self.built.system
        #: Networked systems route Send/Broadcast through the network
        #: model's RNG, so message signatures degrade to "sync" (see
        #: effect_signature).
        self._networked = self.system.network is not None
        self.signatures: List[EffectSignature] = []
        self.chosen: List[CoroutineId] = []
        self.prints: List[int] = []
        #: None until the recording window may close; then the cids whose
        #: post-horizon next effect is still unknown.
        self._pending: Optional[set] = None
        #: Whether a ``sync`` step at an index >= the window was recorded.
        self._barrier = False
        self._window = max(depth_bound, len(prefix))
        self.system.on_step = self._on_step

    def _on_step(self, cid: CoroutineId, effect: object) -> None:
        if effect is None:
            sig = _SYNC_SIG
        else:
            effect_type = type(effect)
            kind = _SIG_KINDS.get(effect_type)
            if kind is None:
                kind = _resolve_sig_kind(effect_type)
            if kind == "wait":
                sig = _wait_signature(effect.watch)
            elif kind == "read":
                sig = ("read", effect.register)
            elif kind == "write":
                sig = ("write", effect.register)
            elif self._networked:
                sig = _SYNC_SIG
            elif kind == "send":
                sig = ("send", effect.to)
            elif kind == "bcast":
                sig = _BCAST_SIG
            elif kind == "recv":
                sig = ("recv", cid[0])
            else:
                sig = _SYNC_SIG
        signatures = self.signatures
        signatures.append(sig)
        self.chosen.append(cid)
        if self.fingerprints and len(self.prints) < self.depth_bound:
            self.prints.append(self.system.fingerprint())
        if len(signatures) > self._window:
            pending = self._pending
            if pending is None:
                pending = set()
                for runnable in self.scheduler.runnables:
                    pending.update(runnable)
                # A coroutine retired or parked by now took its last
                # windowed step at or after every depth it was runnable
                # at, so its queries are already answered.
                pending.intersection_update(self.system.runnable())
                self._pending = pending
            pending.discard(cid)
            if sig is _SYNC_SIG:
                self._barrier = True
            if self._barrier and not pending:
                # Window closed: nothing left to observe, run the tail
                # of the schedule without per-step instrumentation.
                self.system.on_step = None

    def finish(self) -> RunRecord:
        """Drive to completion, judge the history, build the record.

        Disposes the run even when drive()/check() raise (unrealizable
        prefixes surface as SchedulerError here): the search loop runs
        with the cyclic collector paused, so an undisposed run would
        leak its whole System.
        """
        built = self.built
        scheduler = self.scheduler
        completed = True
        try:
            try:
                built.drive()
            except StepLimitExceeded:
                completed = False
            reason = built.check() if completed else None
        except BaseException:
            self.dispose()
            raise
        violation = (
            Violation(
                scenario=self.scenario.label(),
                reason=reason,
                trace=tuple(scheduler.trace),
                schedule=self.schedule_label or scheduler.describe(),
            )
            if reason
            else None
        )
        record = RunRecord(
            trace=tuple(scheduler.trace),
            chosen=tuple(self.chosen),
            runnables=tuple(scheduler.runnables),
            cumulative_preemptions=tuple(scheduler.cumulative_preemptions),
            effects=tuple(self.signatures),
            fingerprints=tuple(self.prints),
            completed=completed,
            steps=len(scheduler.trace),
            violation=violation,
        )
        self.dispose()
        return record

    def dispose(self) -> None:
        """Release the run's coroutines (see System.release_coroutines)."""
        self.system.release_coroutines()


@contextlib.contextmanager
def paused_gc():
    """Suspend the cyclic garbage collector around a search loop.

    Exploration churns short-lived systems, records and effect tuples at
    a rate that keeps the generational collector busy scanning objects
    that are about to die anyway; pausing it for the duration of a
    bounded campaign is worth several percent of throughput. Reference
    counting still reclaims everything acyclic immediately, and one
    explicit collection on exit picks up the cycles.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
            gc.collect()


def _next_effect_at(
    record: RunRecord, depth: int, cid: CoroutineId
) -> Optional[EffectSignature]:
    """``cid``'s pending effect at step ``depth`` of the base run.

    A coroutine's next effect is fixed until it steps, so it equals the
    effect it executed at its first step >= ``depth`` in this run (None
    when it never stepped again — then nothing is known and no pruning
    applies).
    """
    for later in range(depth, len(record.chosen)):
        if record.chosen[later] == cid:
            return record.effects[later]
    return None


class _DporNode:
    """Backtrack bookkeeping for one node of the dpor search tree.

    Everything here is a function of the node's decision prefix (the
    fallback is deterministic), so whichever run opens the node first
    can fill it in for every later run passing through.
    """

    __slots__ = (
        "runnable", "done", "base_preemptions", "previous", "live", "sleep",
    )

    def __init__(
        self,
        runnable: Tuple[CoroutineId, ...],
        base_preemptions: int,
        previous: Optional[CoroutineId],
        live: frozenset,
        sleep: frozenset,
    ):
        self.runnable = runnable
        #: Runnable indices already executed or pruned at this node.
        self.done: Set[int] = set()
        self.base_preemptions = base_preemptions
        self.previous = previous
        #: Grouped pids still untouched by the prefix (symmetry mode).
        self.live = live
        #: Inherited sleep set (source-set DPOR): coroutines whose
        #: scheduling here is covered by an already-explored sibling
        #: subtree of an ancestor — backtrack requests for them are
        #: redundant. A sleeper wakes (drops out) on the first step it
        #: does not commute with.
        self.sleep = sleep


_NO_LIVE: frozenset = frozenset()


def _symmetry_folder(
    scenario: Scenario,
    symmetry: Sequence[Sequence[int]],
    ctx: Optional[CheckContext],
) -> Optional[SymmetryFolder]:
    """Build the folder for ``reduction="dpor+symmetry"``.

    Probe-builds the scenario once to read the register->owner map off
    the installed specs (folding attributes register accesses to group
    members through ownership). Returns None when no declared group has
    two members — folding then never fires.
    """
    if not symmetry:
        return None
    probe = InstrumentedRun(scenario, (), 0, ctx=ctx)
    try:
        registers = probe.system.registers
        owners = {
            name: registers.spec(name).writer for name in registers.names()
        }
    finally:
        probe.dispose()
    folder = SymmetryFolder(symmetry, owners)
    return folder if folder else None


def explore(
    scenario: Scenario,
    depth_bound: int = 14,
    preemption_bound: int = 2,
    budget: int = 1_000,
    mode: str = "dfs",
    stop_on_violation: bool = False,
    prefix_sharing: str = "replay",
    ctx: Optional[CheckContext] = None,
    reduction: str = "sleep",
    symmetry: Sequence[Sequence[int]] = (),
) -> ExploreReport:
    """Systematically search bounded schedules of ``scenario``.

    Returns an :class:`ExploreReport`; ``report.violations`` holds one
    representative :class:`Violation` per deduplicated violation class.

    ``reduction`` picks the pruning strategy (see the module docstring):
    ``"sleep"`` expands every runnable sibling under fingerprint memo +
    sleep sets; ``"dpor"`` schedules only race-driven source-set
    backtracks; ``"dpor+symmetry"`` additionally folds backtracks over
    the interchangeable process groups in ``symmetry`` (pid sequences,
    e.g. a :class:`repro.scenarios.ScenarioRecord.symmetry`
    declaration — ignored in the other modes). All modes reach
    identical verdicts and violation classes on the shipped scenarios
    (pinned by ``tests/test_dpor_differential.py``); the dpor modes
    reach them in several-fold fewer runs.

    Every node is executed by re-running its decision prefix from a
    fresh build of the scenario; ``report.replayed_steps`` counts the
    prefix steps that costs. ``prefix_sharing`` is a residue kept only
    because ``benchmarks/e2e/workloads.py`` still passes ``"replay"``:
    any other value raises, and the keyword goes with that harness's
    next revision (ROADMAP item 1). ``report.exhausted`` claims the
    bounded tree was drained, so it is False whenever ``budget`` or
    ``stop_on_violation`` ended the search.

    A :class:`CheckContext` (one is created when ``ctx`` is None) shares
    the oracle layer's memo tables across every run of the exploration:
    sibling schedules that commute into the same history pay for one
    verdict.
    """
    if mode not in ("dfs", "bfs"):
        raise ValueError(f"mode must be 'dfs' or 'bfs', got {mode!r}")
    if reduction not in REDUCTIONS:
        raise ValueError(
            f"reduction must be one of {', '.join(map(repr, REDUCTIONS))}, "
            f"got {reduction!r}"
        )
    if prefix_sharing != "replay":
        raise ValueError(
            f"prefix_sharing must be 'replay', got {prefix_sharing!r}"
        )
    if ctx is None:
        ctx = CheckContext()
    use_dpor = reduction != "sleep"
    folder = (
        _symmetry_folder(scenario, symmetry, ctx)
        if reduction == "dpor+symmetry"
        else None
    )
    report = ExploreReport(
        scenario=scenario.label(),
        mode=mode,
        depth_bound=depth_bound,
        preemption_bound=preemption_bound,
        budget=budget,
        reduction=reduction,
    )
    started = time.perf_counter()
    frontier: Deque[Tuple[int, ...]] = deque([()])
    seen_states: Dict[int, int] = {}
    seen_violations: Set[str] = set()
    #: dpor modes: decision prefix -> backtrack bookkeeping.
    nodes: Dict[Tuple[int, ...], _DporNode] = {}
    label = f"explore({mode})"

    with paused_gc():
        while frontier and report.runs < budget:
            prefix = frontier.pop() if mode == "dfs" else frontier.popleft()
            try:
                record = execute_trace(
                    scenario,
                    prefix,
                    depth_bound=depth_bound,
                    fingerprints=True,
                    schedule_label=label,
                    ctx=ctx,
                )
            except SchedulerError:
                # The prefix stopped being realizable (can happen when a
                # sibling index exceeds the runnable count mid-tree).
                continue
            report.replayed_steps += len(prefix)
            report.runs += 1
            report.steps += record.steps
            report.recorded_steps += len(record.effects)
            report.states += len(record.fingerprints)
            if not record.completed:
                report.incomplete += 1
                continue
            if record.violation is not None:
                key = record.violation.fingerprint()
                if key not in seen_violations:
                    seen_violations.add(key)
                    report.violations.append(record.violation)
                if stop_on_violation:
                    break

            # Fingerprint memoization: skip expanding a node whose
            # state was already expanded at the same or a shallower
            # depth. A completed run records a fingerprint, runnable
            # set and effect for each of its first ``depth_bound``
            # steps, and no prefix is longer; step-limited runs were
            # skipped above.
            if prefix:
                node_state = record.fingerprints[len(prefix) - 1]
                known_depth = seen_states.get(node_state)
                if known_depth is not None and known_depth <= len(prefix):
                    report.pruned_fingerprint += 1
                    continue
                seen_states[node_state] = len(prefix)
            for depth, state in enumerate(record.fingerprints, start=1):
                seen_states.setdefault(state, depth)
            report.unique_states = len(seen_states)

            if use_dpor:
                # Race-driven expansion, composed with the memo
                # prune above: open a node for every depth of this
                # run's path, then schedule only the source-set
                # backtracks the race scan demands (instead of every
                # runnable sibling, which is what the "sleep" branch
                # below does).
                horizon = min(depth_bound, len(record.trace))
                touches = (
                    folder.first_touches(
                        record.chosen, record.effects, horizon
                    )
                    if folder is not None
                    else None
                )
                for depth in range(len(prefix), horizon):
                    node_key = record.trace[:depth]
                    node = nodes.get(node_key)
                    if node is None:
                        runnable = record.runnables[depth]
                        live = (
                            frozenset(
                                p
                                for p in folder.group_of
                                if touches.get(p, NEVER) >= depth
                            )
                            if folder is not None
                            else _NO_LIVE
                        )
                        # Inherit the parent's sleep set plus its
                        # other explored siblings, then wake every
                        # sleeper the step into this node does not
                        # commute with (a sleeper's own next effect
                        # is unchanged until it is scheduled, so it
                        # is read off this run).
                        sleep: frozenset = _NO_LIVE
                        parent = (
                            nodes.get(node_key[:-1]) if depth else None
                        )
                        if parent is not None:
                            executed = record.effects[depth - 1]
                            prev_index = record.trace[depth - 1]
                            sleepers = set(parent.sleep)
                            for i in parent.done:
                                if i != prev_index and i < len(
                                    parent.runnable
                                ):
                                    sleepers.add(parent.runnable[i])
                            if sleepers:
                                stepping = record.chosen[depth - 1]
                                sleepers.discard(stepping)
                                sleep = frozenset(
                                    q
                                    for q in sleepers
                                    if (
                                        pending := _next_effect_at(
                                            record, depth - 1, q
                                        )
                                    )
                                    is not None
                                    and commutes(pending, executed)
                                )
                        node = _DporNode(
                            runnable=runnable,
                            base_preemptions=(
                                record.cumulative_preemptions[depth]
                            ),
                            previous=(
                                record.chosen[depth - 1]
                                if depth > 0
                                else None
                            ),
                            live=live,
                            sleep=sleep,
                        )
                        nodes[node_key] = node
                        report.pruned_dpor += len(runnable) - 1
                    node.done.add(record.trace[depth])
                races, requests = analyze_run(
                    record.chosen, record.effects, horizon
                )
                report.races_detected += races
                for depth, cid in requests:
                    node_key = record.trace[:depth]
                    node = nodes.get(node_key)
                    if node is None:
                        continue
                    runnable = node.runnable
                    if folder is not None:
                        canonical = folder.canonical(
                            cid, runnable, node.live
                        )
                        if canonical != cid:
                            report.pruned_symmetry += 1
                            cid = canonical
                    if cid in node.sleep:
                        # Covered by an already-explored sibling
                        # subtree (source-set sleep inheritance).
                        report.pruned_sleep += 1
                        continue
                    try:
                        index = runnable.index(cid)
                    except ValueError:
                        # The racing coroutine is blocked at the
                        # deviation point (its guard depends on
                        # state the race scan cannot see), so the
                        # source set degenerates: conservatively
                        # request every enabled coroutine here, the
                        # classic disabled-process fallback of
                        # dynamic partial-order reduction.
                        report.blocked_fallbacks += 1
                        for index in range(len(runnable)):
                            if index in node.done:
                                continue
                            other = runnable[index]
                            switch_cost = (
                                1
                                if node.previous is not None
                                and other != node.previous
                                and node.previous in runnable
                                else 0
                            )
                            if (
                                node.base_preemptions + switch_cost
                                > preemption_bound
                            ):
                                report.pruned_preemption += 1
                                node.done.add(index)
                                continue
                            node.done.add(index)
                            report.pruned_dpor -= 1
                            frontier.append(node_key + (index,))
                        continue
                    if index in node.done:
                        continue
                    previous = node.previous
                    switch_cost = (
                        1
                        if previous is not None
                        and cid != previous
                        and previous in runnable
                        else 0
                    )
                    if (
                        node.base_preemptions + switch_cost
                        > preemption_bound
                    ):
                        report.pruned_preemption += 1
                        node.done.add(index)
                        # Bounded-search completeness patch (the
                        # conservative points of bounded partial-
                        # order reduction): a race-derived backtrack
                        # that busts the preemption budget may still
                        # be coverable by deviating earlier. The
                        # latest budget-feasible ancestor always
                        # includes the path's own last context
                        # switch (deviating there costs exactly the
                        # switch the path already paid), so anchor
                        # the request there instead of silently
                        # dropping the class.
                        for back in range(depth - 1, -1, -1):
                            anchor = nodes.get(record.trace[:back])
                            if anchor is None:
                                continue
                            prev = anchor.previous
                            cost = (
                                1
                                if prev is not None
                                and cid != prev
                                and prev in anchor.runnable
                                else 0
                            )
                            if (
                                anchor.base_preemptions + cost
                                > preemption_bound
                            ):
                                continue
                            acid = cid
                            if folder is not None:
                                canonical = folder.canonical(
                                    acid, anchor.runnable, anchor.live
                                )
                                if canonical != acid:
                                    report.pruned_symmetry += 1
                                    acid = canonical
                            if acid in anchor.sleep:
                                report.pruned_sleep += 1
                                break
                            try:
                                aindex = anchor.runnable.index(acid)
                            except ValueError:
                                continue
                            if aindex not in anchor.done:
                                anchor.done.add(aindex)
                                report.pruned_dpor -= 1
                                anchor_key = record.trace[:back]
                                frontier.append(anchor_key + (aindex,))
                            break
                        continue
                    node.done.add(index)
                    report.pruned_dpor -= 1
                    frontier.append(node_key + (index,))
                continue

            # Expand: deviate from this run at every depth past the
            # forced prefix, up to the bounds.
            horizon = min(depth_bound, len(record.trace))
            for depth in range(len(prefix), horizon):
                runnable = record.runnables[depth]
                chosen_index = record.trace[depth]
                explored_sigs: List[EffectSignature] = [record.effects[depth]]
                base_preemptions = record.cumulative_preemptions[depth]
                previous = record.chosen[depth - 1] if depth > 0 else None
                deviations: List[int] = []
                for index, cid in enumerate(runnable):
                    if index == chosen_index:
                        continue
                    switch_cost = (
                        1
                        if previous is not None
                        and cid != previous
                        and previous in runnable
                        else 0
                    )
                    if base_preemptions + switch_cost > preemption_bound:
                        report.pruned_preemption += 1
                        continue
                    pending = _next_effect_at(record, depth, cid)
                    if pending is not None and all(
                        commutes(pending, sig) for sig in explored_sigs
                    ):
                        report.pruned_sleep += 1
                        continue
                    if pending is not None:
                        explored_sigs.append(pending)
                    deviations.append(index)
                parent_trace = record.trace[:depth]
                for index in deviations:
                    frontier.append(parent_trace + (index,))
        else:
            # Only a drained frontier ends the loop here: a budget stop
            # leaves it non-empty, and a stop_on_violation break skips
            # this clause.
            report.exhausted = not frontier
    report.elapsed = time.perf_counter() - started
    return report
