"""Schedulers: who takes the next step.

The asynchronous model of the paper places no constraint on relative
process speeds, but correctness proofs (termination in particular) assume
*correct processes take infinitely many steps*. The simulator realizes
this with pluggable schedulers:

* :class:`RoundRobinScheduler` — strictly fair; every live coroutine takes
  a step every |coroutines| steps. The termination theorems (43, 112, 179)
  hold on every round-robin run, so most tests use it.
* :class:`RandomScheduler` — seeded uniform choice with an enforced
  starvation bound, giving reproducible "chaotic but fair" interleavings
  for randomized stress tests and hypothesis properties.
* :class:`ScriptedScheduler` — an explicit list of coroutine ids. This is
  how the Theorem 29 / Figure 1 histories place steps at exact virtual
  times (t1 .. t7) and how regression tests pin down past bugs'
  interleavings.
* :class:`PriorityScheduler` — biases some coroutines to run more often
  (e.g. starving Help daemons to stress the helping mechanism).
* :class:`TraceScheduler` — the record/replay choice-point layer used by
  ``repro.explore``. Every kernel step presents its runnable list in a
  deterministic sorted order, so the *index* chosen at each step is a
  complete, compact encoding of the interleaving: replaying the same
  index trace against the same scenario reproduces the run bit for bit.

A *coroutine id* is a ``(pid, role)`` pair — each process typically runs a
``"client"`` coroutine (its operations) and a ``"help"`` daemon
(Section 3.3's steps outside operation intervals).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from bisect import bisect
from itertools import accumulate
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import SchedulerError

#: A coroutine identity: (process id, role name).
CoroutineId = Tuple[int, str]


class Scheduler(ABC):
    """Strategy deciding which runnable coroutine takes the next step."""

    @abstractmethod
    def select(self, runnable: Sequence[CoroutineId], clock: int) -> CoroutineId:
        """Pick one element of ``runnable`` to advance at time ``clock``.

        ``runnable`` is never empty and is presented in a deterministic
        (sorted) order by the kernel.
        """

    def describe(self) -> str:
        """A short human-readable label for reports."""
        return type(self).__name__


class RoundRobinScheduler(Scheduler):
    """Strictly fair rotation over coroutine ids.

    The rotation order is the sorted order of coroutine ids; coroutines
    that finish simply drop out. Every live coroutine takes a step at
    least once per full rotation, which satisfies the fairness premise of
    all the paper's termination proofs.

    ``select`` runs once per kernel step, so the rotation is O(1) on the
    hot path: the kernel hands schedulers one cached immutable tuple
    until membership changes, and as long as the same tuple comes back,
    "first id greater than the last choice" is simply the next position.
    The scan fallback handles membership changes and non-tuple callers.
    """

    def __init__(self) -> None:
        self._last: Optional[CoroutineId] = None
        self._seen: Optional[Tuple[CoroutineId, ...]] = None
        self._index = -1

    def select(self, runnable: Sequence[CoroutineId], clock: int) -> CoroutineId:
        return runnable[self.select_index(runnable, clock)]

    def select_index(self, runnable: Sequence[CoroutineId], clock: int) -> int:
        """Like :meth:`select` but returns the chosen *index*.

        The record/replay layer (:class:`TraceScheduler`) stores decision
        indices; exposing the index directly saves it a linear
        ``runnable.index`` scan on every step. This is the primary entry
        point (``select`` wraps it), so the rotation fast path pays one
        call, not two.

        NOTE: :meth:`TraceScheduler.select` inlines this exact rotation
        as its fused fallback fast path (one call per kernel step is
        measurably cheaper than two) — any change to the algorithm here
        must be mirrored there.
        """
        if runnable is self._seen:
            index = self._index + 1
            if index >= len(runnable):
                index = 0
        else:
            last = self._last
            index = 0
            if last is not None:
                for position, cid in enumerate(runnable):
                    if cid > last:
                        index = position
                        break
            if type(runnable) is tuple:
                self._seen = runnable
        self._index = index
        self._last = runnable[index]
        return index


class _FairScheduler(Scheduler):
    """Epoch-cached starvation bookkeeping shared by the fuzz schedulers.

    The kernel hands schedulers one cached immutable runnable tuple
    until membership changes; while that object is stable, the per-step
    fairness question — "is anyone starving, and who longest?" — reduces
    to one compare against a maintained argmin of last-ran times. The
    O(n) rescan happens only when the runnable tuple changes or the
    argmin itself was scheduled. Selection semantics are bit-identical
    to the original per-step scan: the starving choice is the first
    runnable-order coroutine with the minimal last-ran time
    (``vals.index(min(vals))`` — first minimal position, at C speed).

    Subclasses inline this state directly in their ``select_index``
    hot paths; the base only provides construction and the epoch
    rebuild.
    """

    def __init__(self, bound: int) -> None:
        if bound < 1:
            raise SchedulerError("fairness_bound must be >= 1")
        self._bound = bound
        self._last_ran: Dict[CoroutineId, int] = {}
        self._fepoch: Optional[Sequence[CoroutineId]] = None
        self._fvals: List[int] = []
        self._fargmin = 0

    def _rebuild_fairness(self, runnable: Sequence[CoroutineId]) -> None:
        get = self._last_ran.get
        vals = [get(cid, 0) for cid in runnable]
        self._fvals = vals
        self._fargmin = vals.index(min(vals))
        self._fepoch = runnable if type(runnable) is tuple else None

    def select(self, runnable: Sequence[CoroutineId], clock: int) -> CoroutineId:
        return runnable[self.select_index(runnable, clock)]

    def select_index(self, runnable: Sequence[CoroutineId], clock: int) -> int:
        raise NotImplementedError


class RandomScheduler(_FairScheduler):
    """Seeded random scheduling with a hard starvation bound.

    Pure random choice is fair only with probability 1; a bounded run
    could in principle starve a coroutine long enough to make a
    termination test flaky. ``fairness_bound`` closes that hole: any
    coroutine that has not run for that many *global* steps is scheduled
    immediately. With the default bound this is rarely triggered and the
    interleaving stays effectively random.
    """

    def __init__(self, seed: int = 0, fairness_bound: int = 512):
        super().__init__(fairness_bound)
        self._rng = random.Random(seed)
        self._randbelow = self._rng._randbelow
        self._seed = seed

    def select_index(self, runnable: Sequence[CoroutineId], clock: int) -> int:
        """Index-direct selection (see RoundRobinScheduler.select_index).

        Draw-for-draw identical to ``rng.choice(list(runnable))`` with a
        per-step starving scan: ``_randbelow`` is exactly the draw
        ``choice`` makes, and the maintained argmin is the same
        first-minimal starving coroutine the scan-and-``min`` found.
        """
        if runnable is not self._fepoch:
            self._rebuild_fairness(runnable)
        vals = self._fvals
        argmin = self._fargmin
        if clock - vals[argmin] >= self._bound:
            index = argmin
        else:
            index = self._randbelow(len(runnable))
        vals[index] = clock
        self._last_ran[runnable[index]] = clock
        if index == argmin:
            self._fargmin = vals.index(min(vals))
        return index

    def describe(self) -> str:
        return f"RandomScheduler(seed={self._seed}, bound={self._bound})"


class ScriptedScheduler(Scheduler):
    """Follow an explicit schedule, then fall back to a base scheduler.

    The script is an iterable of coroutine ids. Each entry is consumed in
    order; if the scripted coroutine is not currently runnable the
    behaviour is controlled by ``strict``:

    * ``strict=True`` (default) — raise :class:`SchedulerError`; used by
      the Theorem 29 construction where a missed step would silently
      invalidate the indistinguishability argument.
    * ``strict=False`` — skip the entry.

    When the script is exhausted, control passes to ``fallback`` (round
    robin unless specified), letting attacks drive a precise prefix and
    then release the system to run freely.
    """

    def __init__(
        self,
        script: Iterable[CoroutineId],
        fallback: Optional[Scheduler] = None,
        strict: bool = True,
    ):
        self._script: Iterator[CoroutineId] = iter(script)
        self._fallback = fallback or RoundRobinScheduler()
        self._strict = strict
        self._exhausted = False

    def select(self, runnable: Sequence[CoroutineId], clock: int) -> CoroutineId:
        while not self._exhausted:
            try:
                wanted = next(self._script)
            except StopIteration:
                self._exhausted = True
                break
            if wanted in runnable:
                return wanted
            if self._strict:
                raise SchedulerError(
                    f"scripted coroutine {wanted!r} not runnable at time "
                    f"{clock}; runnable = {list(runnable)}"
                )
        return self._fallback.select(runnable, clock)

    @property
    def exhausted(self) -> bool:
        """True once every scripted entry has been consumed."""
        return self._exhausted


class PriorityScheduler(_FairScheduler):
    """Weighted random choice, for biased (but still fair) interleavings.

    ``weights`` maps coroutine ids to positive weights; unlisted
    coroutines get weight 1. A starvation bound keeps runs fair, so a
    weight of 0.01 on every Help daemon models "helpers are very slow"
    without ever freezing them — useful for stressing the asker/witness
    machinery of Algorithms 1–3.
    """

    def __init__(
        self,
        weights: Dict[CoroutineId, float],
        seed: int = 0,
        fairness_bound: int = 2048,
    ):
        for cid, w in weights.items():
            if w <= 0:
                raise SchedulerError(f"weight for {cid!r} must be positive, got {w}")
        super().__init__(fairness_bound)
        self._weights = dict(weights)
        self._rng = random.Random(seed)
        self._random = self._rng.random
        #: Cumulative weights for the current runnable tuple, rebuilt on
        #: membership change (weights are fixed once assigned, so a
        #: cached prefix-sum stays valid for the epoch).
        self._cum_epoch: Optional[Sequence[CoroutineId]] = None
        self._cum: List[float] = []
        self._total = 0.0

    def _on_new_runnable(self, runnable: Sequence[CoroutineId]) -> None:
        """Hook for subclasses that assign weights on first sight."""

    def select_index(self, runnable: Sequence[CoroutineId], clock: int) -> int:
        """Index-direct selection (see RoundRobinScheduler.select_index).

        Draw-for-draw identical to the original per-step
        ``rng.choices(list(runnable), weights=...)``: ``choices`` with
        ``k=1`` consumes one ``random()`` and bisects the cumulative
        weights — reproduced here against the epoch-cached prefix sums.
        """
        if runnable is not self._cum_epoch:
            self._on_new_runnable(runnable)
            weights_get = self._weights.get
            self._cum = list(
                accumulate(weights_get(cid, 1.0) for cid in runnable)
            )
            self._total = self._cum[-1] + 0.0
            self._cum_epoch = runnable if type(runnable) is tuple else None
        if runnable is not self._fepoch:
            self._rebuild_fairness(runnable)
        vals = self._fvals
        argmin = self._fargmin
        if clock - vals[argmin] >= self._bound:
            index = argmin
        else:
            index = bisect(
                self._cum, self._random() * self._total, 0, len(runnable) - 1
            )
        vals[index] = clock
        self._last_ran[runnable[index]] = clock
        if index == argmin:
            self._fargmin = vals.index(min(vals))
        return index


class TraceScheduler(Scheduler):
    """Replay a decision-index prefix, then record a fallback's choices.

    A *decision trace* is a sequence of integers: entry ``i`` is the
    index into the (sorted, deterministic) runnable list at step ``i``.
    Because the kernel presents runnable coroutines in a fixed order,
    the trace pins the entire interleaving of a run — this is the
    choice-point layer that makes any run reproducible and lets
    ``repro.explore`` enumerate, fuzz, and shrink schedules.

    The scheduler replays ``prefix`` first (raising
    :class:`SchedulerError` when an index is out of range, i.e. the
    prefix is not realizable against this scenario), then delegates to
    ``fallback`` — round robin unless specified, so every bounded prefix
    extends to a *fair* completion. The decision-index :attr:`trace` is
    recorded for the whole run (it is the replay script); the runnable
    tuple of each step (:attr:`runnables`) is only kept for the first
    ``horizon`` steps, which is all the systematic explorer's frontier
    expansion reads (``horizon=None``, the default, keeps it for every
    step). The coroutine chosen at such a step is
    ``runnables[i][trace[i]]``; counting preemptions is the explorer's
    job.
    """

    def __init__(
        self,
        prefix: Sequence[int] = (),
        fallback: Optional[Scheduler] = None,
        horizon: Optional[int] = None,
    ):
        self._prefix = tuple(prefix)
        self._fallback = fallback or RoundRobinScheduler()
        #: Index-direct fast path (no ``runnable.index`` scan) for
        #: fallbacks that expose ``select_index`` (round robin does).
        self._fallback_index = getattr(self._fallback, "select_index", None)
        #: Plain round-robin fallbacks are fused into select() itself —
        #: one call per kernel step instead of two. The rotation state
        #: lives here; the fallback object is then never consulted.
        self._fused_rr = type(self._fallback) is RoundRobinScheduler
        self._rr_last: Optional[CoroutineId] = (
            self._fallback._last if self._fused_rr else None
        )
        self._rr_seen: Optional[Tuple[CoroutineId, ...]] = None
        self._rr_index = -1
        #: Single int compare on the hot path (huge -> record forever).
        self._record_until = (1 << 62) if horizon is None else horizon
        #: Index chosen at each step (prefix entries included).
        self.trace: List[int] = []
        #: Runnable tuple at each of the first ``horizon`` steps.
        self.runnables: List[Tuple[CoroutineId, ...]] = []

    def select(self, runnable: Sequence[CoroutineId], clock: int) -> CoroutineId:
        trace = self.trace
        depth = len(trace)
        prefix = self._prefix
        if depth < len(prefix):
            index = prefix[depth]
            if not 0 <= index < len(runnable):
                raise SchedulerError(
                    f"trace index {index} out of range at step {depth}: "
                    f"only {len(runnable)} runnable coroutines"
                )
            choice = runnable[index]
        elif self._fused_rr:
            # Inlined RoundRobinScheduler rotation (see select_index
            # there): next position while the runnable tuple is the
            # kernel's cached one, first-greater scan on change.
            if runnable is self._rr_seen:
                index = self._rr_index + 1
                if index >= len(runnable):
                    index = 0
            else:
                last = self._rr_last
                index = 0
                if last is not None:
                    for position, cid in enumerate(runnable):
                        if cid > last:
                            index = position
                            break
                if type(runnable) is tuple:
                    self._rr_seen = runnable
            self._rr_index = index
            choice = runnable[index]
            self._rr_last = choice
        elif self._fallback_index is not None:
            index = self._fallback_index(runnable, clock)
            choice = runnable[index]
        else:
            choice = self._fallback.select(runnable, clock)
            index = runnable.index(choice)
        if depth < self._record_until:
            self.runnables.append(tuple(runnable))
        trace.append(index)
        return choice

    @property
    def prefix(self) -> Tuple[int, ...]:
        """The forced decision prefix this scheduler replays."""
        return self._prefix

    def describe(self) -> str:
        return (
            f"TraceScheduler(prefix_len={len(self._prefix)}, "
            f"fallback={self._fallback.describe()})"
        )


def steps(cid: CoroutineId, count: int) -> List[CoroutineId]:
    """Script helper: ``count`` consecutive steps of ``cid``."""
    return [cid] * count


def interleave(*cids: CoroutineId, rounds: int = 1) -> List[CoroutineId]:
    """Script helper: ``rounds`` rounds of the given ids in order."""
    return list(cids) * rounds
