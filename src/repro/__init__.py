"""repro — SWMR registers with signature properties, without signatures.

A faithful, executable reproduction of Hu & Toueg, *"You can lie but not
deny: SWMR registers with signature properties in systems with Byzantine
processes"* (PODC 2025; arXiv:2504.09805). The library provides:

* a deterministic shared-memory simulator for asynchronous systems with
  Byzantine processes (``repro.sim``),
* the paper's three register algorithms — verifiable, authenticated, and
  sticky (``repro.core``) — plus test-or-set, a signature-based
  comparator, and a naive strawman,
* linearizability / Byzantine-linearizability checkers and the register
  types' observable-property verdicts (``repro.spec``),
* a library of Byzantine behaviours and the executable Theorem 29 /
  Figure 1 impossibility construction (``repro.adversary``),
* downstream applications: non-equivocating broadcast, reliable
  broadcast, atomic snapshot (``repro.apps``),
* a message-passing substrate with an ``n > 3f`` SWMR-register emulation
  (``repro.mp``),
* fault injection and a live asyncio cluster serving the emulated
  registers over real sockets (``repro.faults``, ``repro.net``),
* a unified scenario registry — declarative records (topology, family,
  adversary, workload, oracle binding, expected verdict) that the
  explorer, campaign and corpus all derive their scenarios from
  (``repro.scenarios``),
* a schedule-space exploration engine — bounded systematic search, swarm
  fuzzing, counterexample shrinking (``repro.explore``),
* a differential conformance campaign layer with a persistent,
  replayable violation corpus, and its queue-backed service
  (``repro.campaign``, ``repro.service``), and
* the experiment tables E1–E12 and the CLI (``repro.analysis``).

This module exports only what the quickstart below needs; everything
else is imported from its own subpackage, so ``import repro`` stays
cheap.

Quickstart::

    from repro import build_shared_memory_system, VerifiableRegister

    system = build_shared_memory_system(n=4)
    reg = VerifiableRegister(system, "vreg", initial=0).install()
    reg.start_helpers()
    # ... spawn clients that `yield from reg.op(pid, "write", 7)` etc.

See ``examples/quickstart.py`` for a complete runnable scenario.
"""

from repro.core import VerifiableRegister
from repro.sim import System

__version__ = "1.0.0"


def build_shared_memory_system(
    n: int,
    f: int | None = None,
    scheduler=None,
    record_accesses: bool = False,
    enforce_bound: bool = True,
) -> System:
    """Create a shared-memory system with pids ``1 .. n``.

    Thin convenience wrapper over :class:`repro.sim.System` so the common
    path reads naturally in examples and experiments.
    """
    return System(
        n=n,
        f=f,
        scheduler=scheduler,
        record_accesses=record_accesses,
        enforce_bound=enforce_bound,
    )


__all__ = [
    "System",
    "VerifiableRegister",
    "build_shared_memory_system",
    "__version__",
]
