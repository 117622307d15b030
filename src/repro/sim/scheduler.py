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
* :class:`PriorityScheduler` — biases some coroutines to run more often
  (e.g. starving Help daemons to stress the helping mechanism).

  Both fair schedulers pick in O(1): they keep the runnable positions
  in recency order (least recently run first), so the starving
  candidate is always the head. That order holds only because the
  clocks a scheduler is asked at never decrease, which the kernel's
  one-tick-per-step clock guarantees.
* :class:`TraceScheduler` — the record/replay choice-point layer used by
  ``repro.explore``. Every kernel step presents its runnable list in a
  deterministic sorted order, so the *index* chosen at each step is a
  complete, compact encoding of the interleaving: replaying the same
  index trace against the same scenario reproduces the run bit for
  bit. It is the one stored form of a schedule: shrunk counterexamples,
  corpus entries and hand-pinned test interleavings are all index
  prefixes.

Every scheduler answers one question, :meth:`Scheduler.select_index`:
the *index* into the runnable tuple of the coroutine that moves next.
The kernel runs every step through one loop (``System._drive``) that
asks exactly that; :meth:`Scheduler.select` is the same pick returned
as a coroutine id, and :class:`TraceScheduler` asks its fallback's
``select_index`` once its prefix runs out.

A *coroutine id* is a ``(pid, role)`` pair — each process typically runs a
``"client"`` coroutine (its operations) and a ``"help"`` daemon
(Section 3.3's steps outside operation intervals).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from bisect import bisect
from collections import OrderedDict
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SchedulerError

#: A coroutine identity: (process id, role name).
CoroutineId = Tuple[int, str]


class Scheduler(ABC):
    """Strategy deciding which runnable coroutine takes the next step."""

    @abstractmethod
    def select_index(self, runnable: Sequence[CoroutineId], clock: int) -> int:
        """Index into ``runnable`` of the coroutine to advance at ``clock``.

        ``runnable`` is never empty and is presented in a deterministic
        (sorted) order by the kernel, as one cached tuple until its
        membership changes.
        """

    def select(self, runnable: Sequence[CoroutineId], clock: int) -> CoroutineId:
        """The coroutine :meth:`select_index` picks."""
        return runnable[self.select_index(runnable, clock)]

    def describe(self) -> str:
        """A short human-readable label for reports."""
        return type(self).__name__


class RoundRobinScheduler(Scheduler):
    """Strictly fair rotation over coroutine ids.

    The rotation order is the sorted order of coroutine ids; coroutines
    that finish simply drop out. Every live coroutine takes a step at
    least once per full rotation, which satisfies the fairness premise of
    all the paper's termination proofs.

    ``select_index`` runs once per kernel step, so the rotation is O(1)
    on the hot path: the kernel hands schedulers one cached immutable
    tuple until membership changes, and as long as the same tuple comes
    back, "first id greater than the last choice" is simply the next
    position.
    The scan fallback handles membership changes and non-tuple callers.
    """

    def __init__(self) -> None:
        self._last: Optional[CoroutineId] = None
        self._seen: Optional[Tuple[CoroutineId, ...]] = None
        self._index = -1

    def select_index(self, runnable: Sequence[CoroutineId], clock: int) -> int:
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
    """Starvation bookkeeping shared by the fuzz schedulers, O(1) a pick.

    Semantics: a coroutine that has not run for ``bound`` steps is
    forced, and the one forced is the first in runnable order among
    those with the minimal last-ran clock (``vals.index(min(vals))``).

    The kernel hands schedulers one cached immutable runnable tuple
    until membership changes; for the life of that tuple (an *epoch*)
    the last-ran clocks live in ``_vals``, one per position, and the
    positions sit in ``_order`` sorted by ``(last-ran clock, position)``.
    A pick stamps its coroutine with the current clock, so the
    **clocks a scheduler sees must never decrease** (they start at 0 or
    later, and only 0 may repeat): each stamp is then the largest value
    held, and moving the picked position to the end of ``_order`` keeps
    the sort. The argmin is the head of ``_order``, read again only when
    the argmin itself was picked. A pick that leaves its clock unchanged
    (the clock-0 tie: a never-run coroutine picked at clock 0) does not
    move. The kernel's clock starts at 0 and rises by one per step.

    A new runnable tuple starts a new epoch: the old epoch's clocks are
    written back to ``_last_ran`` and the new positions are sorted
    stably by clock, which keeps "first minimal position". A non-tuple
    runnable starts a new epoch on every call.
    """

    def __init__(self, bound: int) -> None:
        if bound < 1:
            raise SchedulerError("fairness_bound must be >= 1")
        self._bound = bound
        self._last_ran: Dict[CoroutineId, int] = {}
        self._epoch: Optional[Sequence[CoroutineId]] = None
        self._cids: Tuple[CoroutineId, ...] = ()
        self._vals: List[int] = []
        self._order: OrderedDict = OrderedDict()
        self._to_end = self._order.move_to_end
        self._argmin = 0

    def _new_epoch(self, runnable: Sequence[CoroutineId]) -> None:
        """Rebuild the per-position state for ``runnable``."""
        last_ran = self._last_ran
        last_ran.update(zip(self._cids, self._vals))
        cids = runnable if type(runnable) is tuple else tuple(runnable)
        get = last_ran.get
        vals = [get(cid, 0) for cid in cids]
        order = OrderedDict.fromkeys(sorted(range(len(vals)), key=vals.__getitem__))
        self._cids = cids
        self._vals = vals
        self._order = order
        self._to_end = order.move_to_end
        self._argmin = next(iter(order))
        self._epoch = runnable if cids is runnable else None


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
        self._getrandbits = self._rng.getrandbits
        self._seed = seed
        self._bits = 0

    def _new_epoch(self, runnable: Sequence[CoroutineId]) -> None:
        super()._new_epoch(runnable)
        self._bits = len(runnable).bit_length()

    def select_index(self, runnable: Sequence[CoroutineId], clock: int) -> int:
        """Draw-for-draw identical to ``rng.choice(list(runnable))`` with a
        per-step starving scan: the ``getrandbits`` loop is exactly the
        ``_randbelow`` draw ``choice`` makes, and the head of ``_order``
        is the same first-minimal starving coroutine the scan found.
        """
        if runnable is not self._epoch:
            self._new_epoch(runnable)
        vals = self._vals
        argmin = self._argmin
        if clock - vals[argmin] >= self._bound:
            index = argmin
        else:
            n = len(runnable)
            bits = self._bits
            index = self._getrandbits(bits)
            while index >= n:
                index = self._getrandbits(bits)
        if vals[index] != clock:
            vals[index] = clock
            self._to_end(index)
            if index == argmin:
                self._argmin = next(iter(self._order))
        return index

    def describe(self) -> str:
        return f"RandomScheduler(seed={self._seed}, bound={self._bound})"


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
        #: Cumulative weights for the current epoch (weights are fixed
        #: once assigned, so the prefix sums stay valid until the
        #: runnable tuple changes), their total and the last position.
        self._cum: List[float] = []
        self._total = 0.0
        self._hi = 0

    def _on_new_runnable(self, runnable: Sequence[CoroutineId]) -> None:
        """Hook for subclasses that assign weights on first sight."""

    def _new_epoch(self, runnable: Sequence[CoroutineId]) -> None:
        self._on_new_runnable(runnable)
        weights_get = self._weights.get
        self._cum = list(accumulate(weights_get(cid, 1.0) for cid in runnable))
        self._total = self._cum[-1] + 0.0
        self._hi = len(self._cum) - 1
        super()._new_epoch(runnable)

    def select_index(self, runnable: Sequence[CoroutineId], clock: int) -> int:
        """Draw-for-draw identical to the original per-step
        ``rng.choices(list(runnable), weights=...)``: ``choices`` with
        ``k=1`` consumes one ``random()`` and bisects the cumulative
        weights — reproduced here against the epoch's prefix sums.
        """
        if runnable is not self._epoch:
            self._new_epoch(runnable)
        vals = self._vals
        argmin = self._argmin
        if clock - vals[argmin] >= self._bound:
            index = argmin
        else:
            index = bisect(self._cum, self._random() * self._total, 0, self._hi)
        if vals[index] != clock:
            vals[index] = clock
            self._to_end(index)
            if index == argmin:
                self._argmin = next(iter(self._order))
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
        #: Single int compare on the hot path (huge -> record forever).
        self._record_until = (1 << 62) if horizon is None else horizon
        #: Index chosen at each step (prefix entries included).
        self.trace: List[int] = []
        #: Runnable tuple at each of the first ``horizon`` steps.
        self.runnables: List[Tuple[CoroutineId, ...]] = []

    def select_index(self, runnable: Sequence[CoroutineId], clock: int) -> int:
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
        else:
            index = self._fallback.select_index(runnable, clock)
        if depth < self._record_until:
            self.runnables.append(tuple(runnable))
        trace.append(index)
        return index

    @property
    def prefix(self) -> Tuple[int, ...]:
        """The forced decision prefix this scheduler replays."""
        return self._prefix

    def describe(self) -> str:
        return (
            f"TraceScheduler(prefix_len={len(self._prefix)}, "
            f"fallback={self._fallback.describe()})"
        )
