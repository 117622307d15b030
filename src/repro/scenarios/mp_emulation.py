"""Explorable scenarios for the message-passing SWMR emulation.

Brings :mod:`repro.mp.swmr_emulation` — the [11]-style quorum emulation
the paper's closing remark relies on — into the conformance matrix,
*with fault injection*: a scenario composes the emulation with a
:class:`repro.faults.FaultPlan` applied through
:class:`repro.faults.FaultyNetwork`, optionally rebuilds reliable
channels with :class:`repro.faults.RetransmitChannels`, and always runs
a :class:`repro.faults.ProgressMonitor` so a run that loses liveness
ends in a first-class ``STALLED`` verdict instead of a burned step
budget.

Verdict shape: a clean run's history (writer ``write``\\ s + reader
``read``\\ s on one emulated register) is judged by linearization
against :class:`repro.spec.AtomicRegisterSpec`. The writer/reader
workload here keeps its own writes sequential, but that does not make
the emulation's regular semantics atomic: a new/old inversion needs
only one write and two reads that overlap it, and only the reader
write-back round closes it.
A stalled run skips the oracle and reports the monitor's diagnosis
(pending operations plus what the plan is suppressing); the reason
string starts with ``STALLED:`` and its digit-masked class is stable
across schedules, so stall verdicts dedupe, shrink, and persist to the
corpus exactly like safety violations.

The monitor's signal is one int: network deliveries plus recorded
responses plus the emulation's count of replica protocol-state changes
(:attr:`repro.mp.RegisterEmulation.progress`, bumped by the cores
themselves). Each is a monotone counter, so the sum moves exactly when
one of them does and the per-step check is one read and one compare.

The pinned matrix cells (see :mod:`repro.scenarios.catalog`):

* reliable baseline — clean;
* fair-lossy + dup + reorder with retransmit channels — clean, with
  verdicts byte-identical to the baseline (the reliable-channel
  assumption, rebuilt);
* one crash-stop replica (``<= f``) — clean, byte-identical too;
* total loss of the writer's outgoing links without retransmit —
  ``STALLED`` (the write can never reach its ``n - f`` quorum);
* a partition window splitting the system 2|2 for the whole run, even
  *with* retransmit — ``STALLED`` (no partition side holds a quorum;
  retransmission cannot defeat a partition).

Cost note: a step of these cells pays only for what it reads. The
kernel's one step loop ticks the network, and a tick with nothing due
is one compare of the in-flight heap's head; the fault
judge tests only the rules that match a link; a replica daemon's
retransmit poll returns at once below its earliest pending deadline.

Engine note: the cells run the swarm engine. Systematic exploration is
*sound* here — the network heap folds into ``System.fingerprint`` — but
the emulation's protocol state (a
:class:`repro.mp.swmr_emulation.ReplicaCore` per process, channel
tables) lives in Python objects the coroutine fingerprint abstracts to
type names, so memoization would over-merge; swarm fuzzing does not
fingerprint and is unaffected.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Tuple

from repro.core.interfaces import AlgorithmBase
from repro.faults import FaultPlan, FaultyNetwork, ProgressMonitor, RetransmitChannels
from repro.errors import StallDetected
from repro.mp import RandomDelayNetwork, RegisterEmulation
from repro.sim import ScriptClient, System, all_done
from repro.spec.context import CheckContext
from repro.spec.judge import judge
from repro.scenarios.bindings import binding_for
from repro.scenarios.registry import BuiltScenario, register_builder

#: Writes by process 1, reader processes (pids ``2..READERS + 1``) and
#: reads per reader.
WRITES = 2
READERS = 2
READS = 2

#: Upper bound of a message's random delivery delay, in steps (the
#: lower bound is :class:`RandomDelayNetwork`'s 1).
MAX_DELAY = 6


class _EmulatedRegister:
    """The emulated register ``r`` as a script target: ``r.write`` / ``r.read``.

    A read paces its re-queries from 16 polls, not
    :meth:`RegisterEmulation.read`'s default 64: the pinned ``mp_register``
    cells' steps and verdicts are those of 16.
    """

    name = "r"
    OPERATIONS = ("write", "read")
    op = AlgorithmBase.op

    def __init__(self, emu: RegisterEmulation):
        self._emu = emu

    def procedure_write(self, pid: int, value: Any) -> Any:
        return self._emu.write(pid, "r", value)

    def procedure_read(self, pid: int) -> Any:
        return self._emu.read(pid, "r", requery_every=16)


def build_mp_register(
    scheduler: Any,
    n: int = 4,
    f: int = 1,
    seed: int = 0,
    faults: Tuple[Tuple[Any, ...], ...] = (),
    fault_seed: int = 0,
    retransmit: bool = False,
    max_steps: int = 150_000,
    ctx: Optional[CheckContext] = None,
):
    """A seeded register workload over the mp emulation, under faults.

    Process 1 writes :data:`WRITES` values to one emulated register while
    :data:`READERS` reader processes each perform :data:`READS` reads;
    every process also runs a replica daemon. The ``faults`` tuple is a
    :class:`repro.faults.FaultPlan` spec applied via
    :class:`FaultyNetwork` over a :class:`RandomDelayNetwork` seeded with
    ``seed`` (delays ``1..MAX_DELAY``); ``retransmit=True`` frames all
    protocol traffic through :class:`RetransmitChannels`. The
    :class:`ProgressMonitor` judges a stall over its default window.

    Identical ``(seed, fault_seed)`` pairs under identical schedules
    reproduce identical runs — fault draws are a pure function of the
    submission sequence (``tests/test_faults.py`` pins this end to end).
    """
    system = System(n=n, f=f, scheduler=scheduler)
    inner = RandomDelayNetwork(seed=seed, max_delay=MAX_DELAY)
    if faults:
        network: Any = FaultyNetwork(inner, FaultPlan.from_spec(faults, seed=fault_seed))
    else:
        network = inner
    system.network = network
    channels = RetransmitChannels(system) if retransmit else None
    emu = RegisterEmulation(system, channels=channels)
    emu.add_register("r", writer=1, initial=0)
    for pid in system.pids:
        system.spawn(pid, "replica", emu.replica_program(pid))

    target = _EmulatedRegister(emu)
    rng = random.Random(seed)
    clients: List[Tuple[int, ScriptClient]] = []

    def spawn_client(pid: int, rows: List[Tuple[str, Tuple[Any, ...]]]) -> None:
        client = ScriptClient(target, pid, rows, pause_between=rng.randrange(5, 20))
        clients.append((pid, client))
        system.spawn(pid, "client", client.program())

    spawn_client(1, [("write", (100 + index,)) for index in range(WRITES)])
    for pid in range(2, 2 + READERS):
        spawn_client(pid, [("read", ())] * READS)

    def describe_pending() -> str:
        parts = []
        for pid, client in clients:
            if client.done:
                continue
            index, rows = len(client.results), client.rows
            op = rows[index][0] if index < len(rows) else "?"
            parts.append(f"p{pid} {op}#{index + 1}/{len(rows)}")
        return ", ".join(parts) if parts else "none"

    # One int (see the module docstring): a sum of monotone counters.
    metrics, progress = system.metrics, emu.progress
    monitor = ProgressMonitor(
        system,
        signals=lambda: network.delivered + metrics.responses + progress.value,
        describe_pending=describe_pending,
        network=network if network is not inner else None,
        channels=channels,
    )
    stall: Dict[str, str] = {}

    clients_done = all_done([client for _pid, client in clients])

    def goal() -> bool:
        if clients_done():
            return True
        monitor.observe()
        return False

    def drive() -> None:
        try:
            system.run_until(goal, max_steps, label="mp register clients")
        except StallDetected as exc:
            # The run *completed* (its trace replays and shrinks); the
            # stall is the verdict, reported by check() below.
            stall["reason"] = exc.reason

    binding = binding_for("mp_emulation")
    spec = binding.spec_factory()

    def check() -> Optional[str]:
        if "reason" in stall:
            return stall["reason"]
        return judge(
            system.history,
            system.correct,
            "r",
            spec,
            binding.rules,
            ctx=ctx,
        )

    return BuiltScenario(system=system, drive=drive, check=check)


register_builder("mp_register", build_mp_register)
