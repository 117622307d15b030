"""Non-equivocating broadcast from sticky registers (Section 8).

The paper's own application sketch: to broadcast a message ``m``, a
process writes ``m`` into a SWMR sticky register it owns; to deliver,
any process reads that register and delivers the (unique) non-⊥ value.
Stickiness gives *non-equivocation* (Clement et al. [4]): once any
correct process delivers ``m`` from sender ``s``, every correct process
that subsequently reads delivers the same ``m`` — a Byzantine sender
cannot show different messages to different receivers.

:class:`NonEquivocatingBroadcast` manages one sticky register per
(sender, slot) pair, so each sender can broadcast a bounded sequence of
messages, each individually non-equivocating — the shape consensus-style
protocols need ("this register holds the process' proposal"; Section 1).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Tuple

from repro.core.interfaces import AlgorithmBase
from repro.core.sticky import StickyRegister
from repro.errors import ConfigurationError
from repro.sim.process import Program
from repro.sim.system import System


class NonEquivocatingBroadcast:
    """Bounded-slot broadcast where every delivered message is unique.

    Args:
        system: The simulated system.
        name: Instance prefix.
        slots: Number of broadcast slots per sender; slot ``i`` of sender
            ``s`` is backed by its own sticky register.
        f: Fault bound forwarded to the sticky registers.

    Operations (recorded on object ``{name}``):

    * ``broadcast(sender, slot, m)`` — write ``m`` into the slot.
    * ``deliver(receiver, sender, slot)`` — read the slot; returns the
      message or ``⊥`` when nothing is deliverable yet.
    """

    OPERATIONS = ("broadcast", "deliver")

    def __init__(
        self,
        system: System,
        name: str = "neb",
        slots: int = 1,
        f: Optional[int] = None,
    ):
        if slots < 1:
            raise ConfigurationError(f"slots must be >= 1, got {slots}")
        self.system = system
        self.name = name
        self.slots = slots
        self.f = system.f if f is None else f
        self._registers: Dict[Tuple[int, int], StickyRegister] = {}
        for sender in system.pids:
            for slot in range(slots):
                self._registers[(sender, slot)] = StickyRegister(
                    system,
                    name=f"{name}/S[{sender}][{slot}]",
                    writer=sender,
                    f=self.f,
                )

    # ------------------------------------------------------------------
    def install(self) -> "NonEquivocatingBroadcast":
        """Install every backing sticky register."""
        for register in self._registers.values():
            register.install()
        return self

    def start_helpers(self, pids: Optional[Iterable[int]] = None) -> None:
        """Start Help daemons for every backing register.

        One daemon per (process, register) pair; the sticky registers are
        independent instances so their helpers are too.
        """
        for register in self._registers.values():
            register.start_helpers(pids)

    def register_for(self, sender: int, slot: int = 0) -> StickyRegister:
        """The sticky register backing ``(sender, slot)``."""
        key = (sender, slot)
        if key not in self._registers:
            raise ConfigurationError(f"no slot {slot} for sender {sender}")
        return self._registers[key]

    # ------------------------------------------------------------------
    def procedure_broadcast(self, sender: int, slot: int, message: Any) -> Program:
        """Write the message into the sender's slot register."""
        register = self.register_for(sender, slot)
        result = yield from register.procedure_write(sender, message)
        return result

    def procedure_deliver(self, receiver: int, sender: int, slot: int) -> Program:
        """Read the slot register; ``⊥`` means nothing deliverable yet.

        Self-delivery (``receiver == sender``) cannot use the sticky
        register's Read — in the paper's model the writer is not among
        its own readers. Instead the sender reads its *witness* register
        ``R_sender``: a correct process's witness register only ever
        holds a value backed by ``n - f`` echoes, i.e. exactly the value
        every other correct process's Read converges to, so uniqueness
        is preserved.
        """
        register = self.register_for(sender, slot)
        if receiver == sender:
            from repro.sim.effects import ReadRegister

            value = yield ReadRegister(register.reg_witness(sender))
            return value
        value = yield from register.procedure_read(receiver)
        return value

    op = AlgorithmBase.op
