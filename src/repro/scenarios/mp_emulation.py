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

Engine note: the cells run the swarm engine. Systematic exploration is
*sound* here — the network heap folds into ``System.fingerprint`` — but
the emulation's protocol state (:class:`repro.mp.ReplicaState`, channel
tables) lives in Python objects the coroutine fingerprint abstracts to
type names, so memoization would over-merge; swarm fuzzing does not
fingerprint and is unaffected.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Tuple

from repro.faults import FaultPlan, FaultyNetwork, ProgressMonitor, RetransmitChannels
from repro.errors import StallDetected
from repro.mp import RandomDelayNetwork, RegisterEmulation
from repro.sim import OpCall, ScriptClient, System, all_done
from repro.spec.context import CheckContext
from repro.spec.judge import judge
from repro.scenarios.bindings import binding_for
from repro.scenarios.registry import BuiltScenario, register_builder


def build_mp_register(
    scheduler: Any,
    n: int = 4,
    f: int = 1,
    seed: int = 0,
    writes: int = 2,
    readers: int = 2,
    reads: int = 2,
    faults: Tuple[Tuple[Any, ...], ...] = (),
    fault_seed: int = 0,
    retransmit: bool = False,
    min_delay: int = 1,
    max_delay: int = 6,
    requery_every: int = 16,
    stall_window: int = 2_500,
    max_steps: int = 150_000,
    max_nodes: int = 2_000_000,
    ctx: Optional[CheckContext] = None,
):
    """A seeded register workload over the mp emulation, under faults.

    Process 1 writes ``writes`` values to one emulated register while
    ``readers`` reader processes (pids ``2..readers+1``) each perform
    ``reads`` reads; every process also runs a replica daemon. The
    ``faults`` tuple is a :class:`repro.faults.FaultPlan` spec applied
    via :class:`FaultyNetwork` over a :class:`RandomDelayNetwork`
    seeded with ``seed``; ``retransmit=True`` frames all protocol
    traffic through :class:`RetransmitChannels`.

    Identical ``(seed, fault_seed)`` pairs under identical schedules
    reproduce identical runs — fault draws are a pure function of the
    submission sequence (``tests/test_faults.py`` pins this end to end).
    """
    system = System(n=n, f=f, scheduler=scheduler)
    inner = RandomDelayNetwork(seed=seed, min_delay=min_delay, max_delay=max_delay)
    if faults:
        network: Any = FaultyNetwork(inner, FaultPlan.from_spec(faults, seed=fault_seed))
    else:
        network = inner
    system.network = network
    channels = RetransmitChannels(system) if retransmit else None
    emu = RegisterEmulation(system, f=f, channels=channels)
    emu.add_register("r", writer=1, initial=0)
    for pid in system.pids:
        system.spawn(pid, "replica", emu.replica_program(pid))

    rng = random.Random(seed)
    client_rows: List[Tuple[int, ScriptClient, List[OpCall]]] = []

    def spawn_client(pid: int, calls: List[OpCall]) -> None:
        client = ScriptClient(calls, pause_between=rng.randrange(5, 20))
        client_rows.append((pid, client, calls))
        system.spawn(pid, "client", client.program())

    spawn_client(
        1,
        [
            OpCall(
                "r",
                "write",
                (100 + index,),
                lambda index=index: emu.write(1, "r", 100 + index),
            )
            for index in range(writes)
        ],
    )
    for pid in range(2, 2 + readers):
        spawn_client(
            pid,
            [
                OpCall(
                    "r",
                    "read",
                    (),
                    lambda pid=pid: emu.read(pid, "r", requery_every=requery_every),
                )
                for _ in range(reads)
            ],
        )

    def describe_pending() -> str:
        parts = []
        for pid, client, calls in client_rows:
            if client.done:
                continue
            index = len(client.results)
            op = calls[index].op if index < len(calls) else "?"
            parts.append(f"p{pid} {op}#{index + 1}/{len(calls)}")
        return ", ".join(parts) if parts else "none"

    monitor = ProgressMonitor(
        system,
        signals=lambda: (
            network.delivered,
            system.metrics.responses,
            emu.progress_version(),
        ),
        window=stall_window,
        describe_pending=describe_pending,
        network=network if network is not inner else None,
        channels=channels,
    )
    stall: Dict[str, str] = {}

    clients_done = all_done([client for _pid, client, _calls in client_rows])

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
    spec = binding.spec_factory(initial=0)

    def check() -> Optional[str]:
        if "reason" in stall:
            return stall["reason"]
        return judge(
            system.history,
            system.correct,
            "r",
            spec,
            binding.rules,
            max_nodes=max_nodes,
            ctx=ctx,
        )

    return BuiltScenario(system=system, drive=drive, check=check)


register_builder("mp_register", build_mp_register)
