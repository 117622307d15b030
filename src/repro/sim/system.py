"""The simulation kernel: effect interpreter, virtual clock, fault bookkeeping.

:class:`System` owns the shared memory (:class:`RegisterFile`), the
history, the virtual clock, and a set of coroutines. Each call to
:meth:`System.step`:

1. asks the scheduler to pick one runnable coroutine,
2. advances the clock,
3. resumes the coroutine with the result of its previous effect,
4. executes the newly yielded effect against the shared state.

A coroutine that yields :class:`~repro.sim.effects.Await` *parks*: it
leaves the runnable set until a write to one of its watched registers
(every write goes through ``_exec_write``) makes it runnable again.

Because exactly one effect executes per step, every register access is
atomic and the history's virtual times are a total order of steps — the
precise setting of Section 3 of the paper.

Fault model bookkeeping: the system tracks which pids are *declared*
Byzantine. This has **no influence on what those processes may do** — a
Byzantine process is simply one running an arbitrary program — but it
lets checkers compute ``H|correct`` and tests assert on the declared
fault bound ``f``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, SchedulerError, StepLimitExceeded
from repro.sim.effects import (
    Annotate,
    Await,
    Broadcast,
    Effect,
    Invoke,
    Pause,
    ReadRegister,
    ReceiveAll,
    Respond,
    Send,
    WriteRegister,
)
from repro.sim.fingerprint import (
    PRIMITIVE_TYPES as _PRIMITIVE_TYPES,
    abstract_value as _abstract_value,
    combine64,
    digest64,
    generator_signature as _generator_signature,
)
from repro.sim.history import Annotation, History
from repro.sim.process import Program
from repro.sim.registers import RegisterFile, RegisterSpec
from repro.sim.scheduler import CoroutineId, RoundRobinScheduler, Scheduler


@dataclass(slots=True)
class _Coroutine:
    """Kernel-internal state of one spawned program."""

    cid: CoroutineId
    program: Program
    started: bool = False
    finished: bool = False
    #: Parked on an Await: not runnable until a write to a register in
    #: ``watch`` (the names it waits on) wakes it.
    parked: bool = False
    watch: Tuple[str, ...] = ()
    next_send: Any = None
    steps_taken: int = 0
    error: Optional[BaseException] = None
    #: Bound ``program.send``, cached at spawn — the kernel resumes the
    #: coroutine every step, and the attribute chase shows up in profiles.
    resume: Optional[Callable[[Any], Any]] = None

    def __post_init__(self) -> None:
        self.resume = self.program.send


@dataclass(slots=True)
class StepMetrics:
    """Aggregate counters exposed for the analysis layer."""

    total_steps: int = 0
    reads: int = 0
    writes: int = 0
    #: Pause and Await steps.
    pauses: int = 0
    invocations: int = 0
    responses: int = 0
    messages_sent: int = 0

    def snapshot(self) -> Dict[str, int]:
        """Plain-dict copy for report tables."""
        return {
            "total_steps": self.total_steps,
            "reads": self.reads,
            "writes": self.writes,
            "pauses": self.pauses,
            "invocations": self.invocations,
            "responses": self.responses,
            "messages_sent": self.messages_sent,
        }


class System:
    """One simulated asynchronous shared-memory (or message-passing) system.

    Args:
        n: Number of processes; pids are ``1 .. n`` and pid 1 is the
            conventional writer in single-writer experiments.
        f: Declared maximum number of Byzantine processes. Purely
            bookkeeping (see module docstring); defaults to ``(n-1)//3``.
        scheduler: Interleaving strategy; round-robin when omitted.
        record_accesses: Keep a full register access log (slow; debugging).
        enforce_bound: When True (default), :meth:`declare_byzantine`
            refuses to exceed ``f`` — experiments that deliberately break
            the bound pass ``enforce_bound=False``.
    """

    def __init__(
        self,
        n: int,
        f: Optional[int] = None,
        scheduler: Optional[Scheduler] = None,
        record_accesses: bool = False,
        enforce_bound: bool = True,
    ):
        if n < 1:
            raise ConfigurationError(f"n must be >= 1, got {n}")
        self.n = n
        self.f = (n - 1) // 3 if f is None else f
        if self.f < 0:
            raise ConfigurationError(f"f must be >= 0, got {self.f}")
        self.scheduler: Scheduler = scheduler or RoundRobinScheduler()
        self.registers = RegisterFile(record_accesses=record_accesses)
        self.history = History()
        self.clock = 0
        self.metrics = StepMetrics()
        self._coroutines: Dict[CoroutineId, _Coroutine] = {}
        #: Sorted runnable tuple, rebuilt lazily. Sorting every step was
        #: the kernel's hottest line under campaign replay; the cache is
        #: invalidated whenever membership changes (spawn / despawn /
        #: coroutine retirement), which is rare compared to steps. A
        #: tuple, so the shared object handed to schedulers is immutable.
        self._runnable_cache: Optional[Tuple[CoroutineId, ...]] = None
        #: Register name -> coroutines parked on it. Empty whenever
        #: nothing is parked on a register, so a write pays one
        #: truthiness test for the wake-up check.
        self._watchers: Dict[str, List[CoroutineId]] = {}
        self._byzantine: set[int] = set()
        self._enforce_bound = enforce_bound
        self._mailboxes: Dict[int, List[Tuple[int, Any]]] = {
            pid: [] for pid in self.pids
        }
        # Incremental-fingerprint caches for the two components the
        # kernel owns directly (registers and history keep their own):
        # per-item digests, the XOR fold, and the dirty set of items
        # touched since the last fingerprint() call.
        self._mbox_digests: Dict[int, int] = {}
        self._mbox_dirty: set = set(self.pids)
        self._mbox_fold = 0
        self._co_digests: Dict[CoroutineId, int] = {}
        self._co_dirty: set = set()
        self._co_fold = 0
        #: Whether an incremental fingerprint() has ever been requested.
        #: Until then the per-step coroutine dirty-tracking is skipped —
        #: pure overhead for the (fuzzing/campaign) runs that never
        #: fingerprint — and the first call marks everything dirty.
        self._fp_live = False
        #: Message-delivery hook installed by ``repro.mp.network``; None in
        #: pure shared-memory systems (Send/Broadcast then deliver
        #: immediately into mailboxes).
        self.network: Any = None
        #: Step observer hook installed by ``repro.explore``: called after
        #: every executed step with ``(cid, effect)`` — ``effect`` is None
        #: for the StopIteration step that retires a coroutine. Must not
        #: mutate the system.
        self.on_step: Optional[Callable[[CoroutineId, Any], None]] = None

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    @property
    def pids(self) -> range:
        """All process ids, ``1 .. n``."""
        return range(1, self.n + 1)

    @property
    def byzantine(self) -> frozenset:
        """Pids declared Byzantine."""
        return frozenset(self._byzantine)

    @property
    def correct(self) -> frozenset:
        """Pids not declared Byzantine."""
        return frozenset(set(self.pids) - self._byzantine)

    def declare_byzantine(self, *pids: int) -> None:
        """Mark processes as Byzantine for bookkeeping purposes."""
        for pid in pids:
            if pid not in self.pids:
                raise ConfigurationError(f"unknown pid {pid}")
            self._byzantine.add(pid)
        if self._enforce_bound and len(self._byzantine) > self.f:
            raise ConfigurationError(
                f"declared {len(self._byzantine)} Byzantine processes but f={self.f}; "
                f"pass enforce_bound=False to experiment beyond the bound"
            )

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def install_register(self, spec: RegisterSpec) -> None:
        """Install a register into shared memory."""
        self.registers.install(spec)

    def install_registers(self, specs: Iterable[RegisterSpec]) -> None:
        """Install every register spec."""
        self.registers.install_all(specs)

    def spawn(self, pid: int, role: str, program: Program) -> CoroutineId:
        """Register a coroutine ``(pid, role)`` running ``program``."""
        if pid not in self.pids:
            raise ConfigurationError(f"unknown pid {pid}")
        cid: CoroutineId = (pid, role)
        if cid in self._coroutines:
            raise ConfigurationError(f"coroutine {cid!r} already spawned")
        self._coroutines[cid] = _Coroutine(cid=cid, program=program)
        self._runnable_cache = None
        self._co_dirty.add(cid)
        return cid

    def despawn(self, cid: CoroutineId) -> None:
        """Remove a coroutine (e.g. to crash a process mid-run)."""
        co = self._coroutines.pop(cid, None)
        if co is not None and co.parked:
            self._unwatch(cid, co)
        self._runnable_cache = None
        self._co_dirty.add(cid)

    def release_coroutines(self) -> None:
        """Drop every coroutine and detach the step observer.

        Spawned generators close over the system while the coroutine
        table references them, forming a cycle only the garbage
        collector can break. Search loops that churn thousands of
        short-lived systems run with the cyclic collector paused and
        call this once a run's verdict is extracted, so plain reference
        counting reclaims the whole run immediately. The system is not
        steppable afterwards; registers and history remain readable.
        """
        self._coroutines.clear()
        self._watchers.clear()
        self._co_digests.clear()
        self._co_dirty.clear()
        self._co_fold = 0
        self._runnable_cache = None
        self.on_step = None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def runnable(self) -> Tuple[CoroutineId, ...]:
        """Coroutines that can take a step, in deterministic order.

        Returns the kernel's cached tuple directly (no per-call list
        allocation); callers that want to mutate must copy.
        """
        return self._runnable()

    def _runnable(self) -> Tuple[CoroutineId, ...]:
        """The cached runnable tuple the kernel hands to schedulers."""
        cache = self._runnable_cache
        if cache is None:
            cache = self._runnable_cache = tuple(
                sorted(
                    cid
                    for cid, co in self._coroutines.items()
                    if not (co.finished or co.parked)
                )
            )
        return cache

    def step(self) -> bool:
        """Advance one coroutine by one effect; False if none runnable."""
        runnable = self._runnable_cache
        if runnable is None:
            runnable = self._runnable()
        if not runnable:
            return False
        cid = self.scheduler.select(runnable, self.clock)
        co = self._coroutines.get(cid)
        if co is None or co.finished:
            raise SchedulerError(f"scheduler chose non-runnable coroutine {cid!r}")
        clock = self.clock + 1
        self.clock = clock
        self.metrics.total_steps += 1
        co.steps_taken += 1
        if self._fp_live:
            self._co_dirty.add(cid)
        if self.network is not None:
            self.network.tick(clock, self)
        try:
            if co.started:
                effect = co.resume(co.next_send)
            else:
                co.started = True
                effect = co.resume(None)
        except StopIteration:
            co.finished = True
            self._runnable_cache = None
            if self.on_step is not None:
                self.on_step(cid, None)
            return True
        # Inlined _execute fast path: one dict probe per step; the
        # method handles subclass resolution and unknown effects.
        handler = self._HANDLERS.get(type(effect))
        if handler is None:
            co.next_send = self._execute(cid, effect)
        else:
            co.next_send = handler(self, cid[0], effect)
        if self.on_step is not None:
            self.on_step(cid, effect)
        return True

    def run(self, max_steps: int) -> int:
        """Take up to ``max_steps`` steps; returns how many were taken."""
        taken = 0
        step = self.step
        while taken < max_steps and step():
            taken += 1
        return taken

    def run_until(
        self,
        predicate: Callable[[], bool],
        max_steps: int = 200_000,
        label: str = "goal",
    ) -> int:
        """Step until ``predicate()`` holds; raise StepLimitExceeded otherwise.

        The predicate is checked before each step, so a predicate that
        already holds costs zero steps. Liveness tests rely on the raised
        :class:`StepLimitExceeded` to flag non-termination.

        This is the kernel's hottest loop (every scenario drives through
        it), so the uninstrumented case — no ``on_step`` observer, no
        network — runs an inlined copy of :meth:`step`'s body with the
        lookups hoisted out of the loop. The two bodies must stay
        behaviourally identical; the record/replay determinism tests
        pin them together. Steps with hooks installed take the plain
        :meth:`step` path, so observers still see every step.
        """
        taken = 0
        step = self.step
        coroutines_get = self._coroutines.get
        handlers_get = self._HANDLERS.get
        metrics = self.metrics
        co_dirty_add = self._co_dirty.add
        scheduler = self.scheduler
        scheduler_select = scheduler.select
        # Index-direct selection when the scheduler exposes it (all the
        # in-tree non-wrapping schedulers do); decision-identical, one
        # call instead of two.
        select_index = getattr(scheduler, "select_index", None)
        # The network hook is installed at system construction (before
        # any drive) and never detaches mid-run; hoisting it leaves one
        # on_step load on the per-step instrumentation check. on_step
        # *does* detach mid-run (the explorer's recording window), so it
        # must stay a per-step load.
        network = self.network
        # total_steps is only observed between runs, so the fast path
        # batches the counter into one add per run_until call (exception
        # exits included) instead of one per step.
        batched = 0
        try:
            while True:
                if predicate():
                    return taken
                if taken >= max_steps:
                    raise StepLimitExceeded(
                        f"{label} not reached within {max_steps} steps "
                        f"(clock={self.clock})",
                        steps=taken,
                    )
                if network is not None or self.on_step is not None:
                    if not step():
                        raise StepLimitExceeded(
                            f"{label} unreachable: no runnable coroutines left "
                            f"(clock={self.clock})",
                            steps=taken,
                        )
                    taken += 1
                    continue
                # ---- inlined step() body (uninstrumented fast path) ----
                runnable = self._runnable_cache
                if runnable is None:
                    runnable = self._runnable()
                if not runnable:
                    raise StepLimitExceeded(
                        f"{label} unreachable: no runnable coroutines left "
                        f"(clock={self.clock})",
                        steps=taken,
                    )
                if select_index is not None:
                    cid = runnable[select_index(runnable, self.clock)]
                else:
                    cid = scheduler_select(runnable, self.clock)
                co = coroutines_get(cid)
                if co is None or co.finished:
                    raise SchedulerError(
                        f"scheduler chose non-runnable coroutine {cid!r}"
                    )
                self.clock += 1
                batched += 1
                co.steps_taken += 1
                # _fp_live is re-read per step on purpose: a predicate
                # may call fingerprint() mid-run, and hoisting the flag
                # would leave the steps after that call untracked (a
                # silently stale fingerprint).
                if self._fp_live:
                    co_dirty_add(cid)
                try:
                    if co.started:
                        effect = co.resume(co.next_send)
                    else:
                        co.started = True
                        effect = co.resume(None)
                except StopIteration:
                    co.finished = True
                    self._runnable_cache = None
                else:
                    handler = handlers_get(type(effect))
                    if handler is None:
                        co.next_send = self._execute(cid, effect)
                    else:
                        co.next_send = handler(self, cid[0], effect)
                taken += 1
        finally:
            metrics.total_steps += batched

    def steps_of(self, cid: CoroutineId) -> int:
        """Steps taken so far by coroutine ``cid`` (0 if never spawned)."""
        co = self._coroutines.get(cid)
        return 0 if co is None else co.steps_taken

    # ------------------------------------------------------------------
    # Effect interpreter
    # ------------------------------------------------------------------
    def _execute(self, cid: CoroutineId, effect: Effect) -> Any:
        handler = self._HANDLERS.get(type(effect))
        if handler is None:
            # Await needs the coroutine, not just its pid, so it stays
            # off the handler table and off the step loops' fast path.
            if isinstance(effect, Await):
                return self._exec_await(cid, effect)
            # Effect subclasses dispatch through their nearest handled
            # base; the resolution is cached (class-wide) per concrete
            # type.
            for base in type(effect).__mro__[1:]:
                found = self._HANDLERS.get(base)
                if found is not None:
                    self._HANDLERS[type(effect)] = found
                    handler = found
                    break
            else:
                raise ConfigurationError(
                    f"unknown effect {effect!r} from {cid!r}"
                )
        return handler(self, cid[0], effect)

    def _exec_read(self, pid: int, effect: ReadRegister) -> Any:
        self.metrics.reads += 1
        # Fast path for the most frequent effect in the repository: an
        # allowed SWMR/SWSR read with no access log. Anything unusual —
        # unknown name, permission check, logging — delegates to
        # RegisterFile.read, which owns the error semantics.
        registers = self.registers
        name = effect.register
        spec = registers._specs.get(name)
        if (
            spec is None
            or registers._record_accesses
            or (spec.readers is not None and pid not in spec.readers)
        ):
            return registers.read(pid, name, self.clock)
        registers._read_counts[name] += 1
        return registers._values[name]

    def _exec_write(self, pid: int, effect: WriteRegister) -> None:
        self.metrics.writes += 1
        self.registers.write(pid, effect.register, effect.value, self.clock)
        if self._watchers:
            self._wake(effect.register)
        return None

    def _exec_await(self, cid: CoroutineId, effect: Await) -> None:
        """Park ``cid`` unless a watched register moved since it was read."""
        self.metrics.pauses += 1
        registers = self.registers
        specs = registers._specs
        values = registers._values
        pid = cid[0]
        changed = False
        for name, seen in effect.watch:
            spec = specs.get(name)
            if spec is None or (
                spec.readers is not None and pid not in spec.readers
            ):
                # Raises exactly what a ReadRegister of it would.
                registers.read(pid, name, self.clock)
            if values[name] != seen:
                changed = True
        if changed:
            return None
        co = self._coroutines[cid]
        co.parked = True
        co.watch = names = tuple(dict.fromkeys(name for name, _ in effect.watch))
        watchers = self._watchers
        for name in names:
            watchers.setdefault(name, []).append(cid)
        self._runnable_cache = None
        return None

    def _wake(self, name: str) -> None:
        """Make every coroutine parked on register ``name`` runnable."""
        cids = self._watchers.pop(name, None)
        if cids is None:
            return
        coroutines = self._coroutines
        for cid in cids:
            co = coroutines[cid]
            self._unwatch(cid, co)
            if self._fp_live:
                self._co_dirty.add(cid)
        self._runnable_cache = None

    def _unwatch(self, cid: CoroutineId, co: _Coroutine) -> None:
        """Unpark ``co`` and drop it from every watcher list."""
        watchers = self._watchers
        for name in co.watch:
            parked = watchers.get(name)
            if parked is not None:
                parked.remove(cid)
                if not parked:
                    del watchers[name]
        co.parked = False
        co.watch = ()

    def _exec_pause(self, pid: int, effect: Pause) -> None:
        self.metrics.pauses += 1
        return None

    def _exec_invoke(self, pid: int, effect: Invoke) -> int:
        self.metrics.invocations += 1
        return self.history.record_invocation(
            pid, effect.obj, effect.op, effect.args, self.clock
        )

    def _exec_respond(self, pid: int, effect: Respond) -> None:
        self.metrics.responses += 1
        self.history.record_response(effect.op_id, effect.result, self.clock)
        return None

    def _exec_annotate(self, pid: int, effect: Annotate) -> int:
        self.history.record_annotation(
            Annotation(time=self.clock, pid=pid, label=effect.label,
                       payload=effect.payload)
        )
        return self.clock

    def _exec_send(self, pid: int, effect: Send) -> None:
        self.metrics.messages_sent += 1
        self._send(pid, effect.to, effect.payload)
        return None

    def _exec_broadcast(self, pid: int, effect: Broadcast) -> None:
        # Bookkeeping hoisted out of the delivery loop: destinations are
        # exactly 1..n (always valid), and the counter is bumped once.
        n = self.n
        payload = effect.payload
        self.metrics.messages_sent += n
        if self.network is not None:
            clock = self.clock
            for dest in range(1, n + 1):
                self.network.submit(pid, dest, payload, clock)
        else:
            mailboxes = self._mailboxes
            dirty = self._mbox_dirty
            message = (pid, payload)
            for dest in range(1, n + 1):
                mailboxes[dest].append(message)
                dirty.add(dest)
        return None

    def _exec_receive_all(self, pid: int, effect: ReceiveAll) -> Tuple:
        box = self._mailboxes[pid]
        if not box:
            return ()
        delivered = tuple(box)
        box.clear()
        self._mbox_dirty.add(pid)
        return delivered

    #: Effect-type dispatch table, class-level so instances stay
    #: cycle-free (a per-instance dict of bound methods would keep every
    #: System alive until a GC cycle pass — real pressure when campaigns
    #: build thousands of short-lived systems). Handlers are plain
    #: functions called as ``handler(self, pid, effect)``.
    _HANDLERS: Dict[type, Callable[["System", int, Any], Any]] = {
        ReadRegister: _exec_read,
        WriteRegister: _exec_write,
        Pause: _exec_pause,
        Invoke: _exec_invoke,
        Respond: _exec_respond,
        Annotate: _exec_annotate,
        Send: _exec_send,
        Broadcast: _exec_broadcast,
        ReceiveAll: _exec_receive_all,
    }

    def _send(self, sender: int, dest: int, payload: Any) -> None:
        if not 1 <= dest <= self.n:
            raise ConfigurationError(f"send to unknown pid {dest}")
        if self.network is not None:
            self.network.submit(sender, dest, payload, self.clock)
        else:
            self._mailboxes[dest].append((sender, payload))
            self._mbox_dirty.add(dest)

    def deliver(self, sender: int, dest: int, payload: Any) -> None:
        """Place a message into ``dest``'s mailbox (network layer hook)."""
        self._mailboxes[dest].append((sender, payload))
        self._mbox_dirty.add(dest)

    # ------------------------------------------------------------------
    # State fingerprinting (repro.explore hook)
    # ------------------------------------------------------------------
    @staticmethod
    def _co_digest(cid: CoroutineId, co: _Coroutine) -> int:
        """Digest of one coroutine's resume point (see fingerprint())."""
        return digest64(
            "co\x00"
            + repr(
                (
                    cid,
                    co.started,
                    co.finished,
                    co.parked,
                    _generator_signature(co.program),
                    _abstract_value(co.next_send),
                )
            )
        )

    def _flush_mailbox_fold(self) -> int:
        """Re-digest mailboxes touched since the last fingerprint."""
        dirty = self._mbox_dirty
        if dirty:
            digests = self._mbox_digests
            mailboxes = self._mailboxes
            fold = self._mbox_fold
            for pid in dirty:
                fresh = digest64(f"mbox\x00{pid}\x00{tuple(mailboxes[pid])!r}")
                fold ^= digests.get(pid, 0) ^ fresh
                digests[pid] = fresh
            dirty.clear()
            self._mbox_fold = fold
        return self._mbox_fold

    def _flush_coroutine_fold(self) -> int:
        """Re-digest coroutines that stepped / spawned / despawned."""
        dirty = self._co_dirty
        if dirty:
            digests = self._co_digests
            coroutines = self._coroutines
            fold = self._co_fold
            for cid in dirty:
                co = coroutines.get(cid)
                fresh = 0 if co is None else self._co_digest(cid, co)
                fold ^= digests.pop(cid, 0) ^ fresh
                if co is not None:
                    digests[cid] = fresh
            dirty.clear()
            self._co_fold = fold
        return self._co_fold

    def fingerprint(self, full: bool = False) -> int:
        """A 64-bit abstraction of the *forward-relevant* system state.

        Two states with equal fingerprints behave identically (modulo the
        abstraction below) under identical future schedules, which is
        what the systematic explorer's memoization needs: once a
        fingerprint has been expanded, schedules reconverging to it can
        be pruned. The digest covers register contents, mailboxes, and
        each coroutine's resume point — the chain of suspended generator
        frames (code identity + instruction offset) plus their
        *primitive* local variables (loop counters, accumulated counts).
        Non-primitive locals are abstracted to their type name, so the
        fingerprint is an over-approximation of state equality; the
        explorer reports fingerprint pruning separately for this reason.

        The digest also covers the history's *verdict-relevant* content
        — each operation's identity, completion and result — because
        exploration verdicts are predicates on the history: two states
        with identical registers but different recorded results must
        not be merged. Virtual times (the clock and per-event
        timestamps) are excluded so that commuting interleavings of the
        same events still converge; precedence differences expressed
        purely through interval timing are the remaining approximation.

        The digest is maintained *incrementally*: each component
        (registers, mailboxes, history, coroutines) keeps per-item
        digests combined by XOR fold, and a step only re-hashes the
        items it actually touched (dirty-tracking via bump-on-mutate
        counters in the component classes), making the per-step cost
        O(|delta|) rather than O(|state|). ``full=True`` bypasses every
        cache and recomputes from scratch — the correctness oracle; the
        two paths must agree on every reachable state
        (``tests/test_fingerprint_incremental.py`` holds them to it).
        """
        # In-flight network messages are forward-relevant (two states
        # differing only in undelivered messages diverge later), so the
        # network's own incremental fold — which, unlike every other
        # component, includes delivery times — XORs into the mailbox
        # component. Domain-separated item prefixes ("mbox" vs "net")
        # keep the two from cancelling; shared-memory systems (network
        # is None) fingerprint exactly as before.
        network = self.network
        net_fold = 0
        if network is not None:
            fold = getattr(network, "fingerprint_fold", None)
            if fold is not None:
                net_fold = fold(full=full)
        if full:
            mbox = 0
            for pid, box in self._mailboxes.items():
                mbox ^= digest64(f"mbox\x00{pid}\x00{tuple(box)!r}")
            cos = 0
            for cid, co in self._coroutines.items():
                cos ^= self._co_digest(cid, co)
            return combine64(
                self.registers.fingerprint_fold(full=True),
                mbox ^ net_fold,
                self.history.fingerprint_fold(full=True),
                cos,
            )
        if not self._fp_live:
            # First incremental request: start per-step dirty-tracking
            # and re-digest every live coroutine once (steps taken while
            # tracking was off never entered the dirty set).
            self._fp_live = True
            self._co_dirty.update(self._coroutines)
        return combine64(
            self.registers.fingerprint_fold(),
            self._flush_mailbox_fold() ^ net_fold,
            self.history.fingerprint_fold(),
            self._flush_coroutine_fold(),
        )

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """One-line summary for logs and benchmark labels."""
        return (
            f"System(n={self.n}, f={self.f}, byz={sorted(self._byzantine)}, "
            f"clock={self.clock}, sched={self.scheduler.describe()})"
        )
