"""Srikanth–Toueg authenticated broadcast, signature-free ([13]).

The historical ancestor of the paper's witness mechanism: in a
message-passing system with ``n > 3f``, *authenticated broadcast*
provides the properties of signed communication — correctness,
unforgeability, and relay — without signatures, via echo amplification:

* ``broadcast(m, k)``: the sender sends ``⟨init, s, m, k⟩`` to all.
* On receiving ``⟨init, s, m, k⟩`` from ``s`` itself, a process sends
  ``⟨echo, s, m, k⟩`` to all.
* On receiving ``⟨echo, s, m, k⟩`` from ``f + 1`` distinct processes, a
  process sends its own echo (if it has not yet) — at least one of the
  ``f + 1`` is correct, so the sender really initiated the message.
* On receiving ``⟨echo, s, m, k⟩`` from ``n - f`` distinct processes, a
  process **accepts** ``(s, m, k)``.

Section 2 of the paper explains why this machinery, transplanted to
shared memory, is *not* enough: acceptance here is **eventual** — there
is no moment at which a non-accepting process can definitively answer
"no", which is exactly what a ``Verify`` operation must do. The
experiment E9b runs this implementation next to Algorithm 1 to exhibit
the difference: `accepted` sets grow monotonically, but the module
deliberately offers no terminating negative query.
"""

from __future__ import annotations

from typing import Any, Dict, List, Set, Tuple

from repro.errors import ConfigurationError
from repro.sim.effects import Broadcast, Pause, ReceiveAll
from repro.sim.process import Program
from repro.sim.system import System
from repro.sim.values import freeze

#: An authenticated-broadcast triple: (sender, message, sequence-number).
Triple = Tuple[int, Any, int]


class AuthenticatedBroadcast:
    """ST87 echo-amplified broadcast over the system's network.

    Every correct process runs :meth:`daemon` (its sole mailbox
    consumer). A sender calls :meth:`broadcast` from a client coroutine.
    Acceptance is observable through :meth:`accepted_by`.
    """

    def __init__(self, system: System):
        if system.network is None:
            raise ConfigurationError("AuthenticatedBroadcast requires a network")
        self.system = system
        self.f = system.f
        self.n = system.n
        self._echo_votes: Dict[int, Dict[Triple, Set[int]]] = {}
        self._echoed: Dict[int, Set[Triple]] = {}
        self._accepted: Dict[int, Set[Triple]] = {}

    # ------------------------------------------------------------------
    def accepted_by(self, pid: int) -> Set[Triple]:
        """The triples process ``pid`` has accepted so far."""
        return set(self._accepted.get(pid, set()))

    def everyone_accepted(self, triple: Triple, pids: List[int]) -> bool:
        """Whether every listed process has accepted ``triple``."""
        return all(triple in self._accepted.get(pid, set()) for pid in pids)

    # ------------------------------------------------------------------
    def broadcast(self, pid: int, message: Any, seq: int) -> Program:
        """Send the init message; fire-and-forget (acceptance is eventual)."""
        yield Broadcast(("init", pid, freeze(message), seq))
        return None

    def daemon(self, pid: int) -> Program:
        """Echo/accept daemon; the process's sole mailbox consumer."""
        votes = self._echo_votes.setdefault(pid, {})
        echoed = self._echoed.setdefault(pid, set())
        accepted = self._accepted.setdefault(pid, set())
        while True:
            messages = yield ReceiveAll()
            if not messages:
                yield Pause()
                continue
            for sender, payload in messages:
                if not isinstance(payload, tuple) or len(payload) != 4:
                    continue
                kind, origin, message, seq = payload
                if not isinstance(origin, int) or not isinstance(seq, int):
                    continue
                triple: Triple = (origin, message, seq)
                if kind == "init" and sender == origin:
                    # Echo only messages genuinely sent by their sender —
                    # the channel authentication at work.
                    if triple not in echoed:
                        echoed.add(triple)
                        yield Broadcast(("echo", origin, message, seq))
                elif kind == "echo":
                    supporters = votes.setdefault(triple, set())
                    supporters.add(sender)
                    if len(supporters) >= self.f + 1 and triple not in echoed:
                        echoed.add(triple)
                        yield Broadcast(("echo", origin, message, seq))
                    if len(supporters) >= self.n - self.f:
                        accepted.add(triple)
