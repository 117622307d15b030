"""Byzantine reliable broadcast: the signature-based comparator of [5].

Cohen & Keidar give a Byzantine-linearizable *reliable broadcast* object
from SWMR registers **with signatures** for ``n > 2f``. The paper's
Section 1/2 claim is that replacing the signed registers with its
signature-free registers yields the first signature-free implementation,
at the cost of requiring ``n > 3f``. That translation *is*
:class:`repro.apps.broadcast.NonEquivocatingBroadcast` — the
``reliable_broadcast`` scenario family runs it as object ``rbc`` over
registers named ``rbc/slots`` — and this module keeps the signed
original, :class:`SignedReliableBroadcast`, that experiment E8 compares
it against.

Object semantics (per-sender, per-sequence-number slots):

* ``broadcast(sender, seq, m)`` — sender publishes message ``m`` for
  slot ``seq``.
* ``deliver(receiver, sender, seq)`` — returns the message of that slot,
  or ``⊥`` when none is deliverable yet.

Guarantees for correct processes:

* **Integrity / non-equivocation** — no two correct processes ever
  deliver different messages for the same ``(sender, seq)``, even when
  the sender is Byzantine.
* **Validity** — if a correct sender's ``broadcast`` completes, every
  later ``deliver`` of that slot returns the message.
* **Totality (relay)** — once any correct process delivers ``m ≠ ⊥``
  from a slot, every later ``deliver`` of that slot returns ``m``.

The signature-free implementation maps each slot to one sticky register
— the paper's point that its registers make the [5] construction's
signature machinery unnecessary: stickiness *is* signed
non-equivocation there. (A variant on authenticated registers is
possible; the sticky mapping is the direct one because reliable
broadcast's integrity is exactly uniqueness.)
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.core.signature_baseline import SignatureOracle
from repro.core.interfaces import DONE, AlgorithmBase
from repro.sim.effects import ReadRegister, WriteRegister
from repro.sim.process import Program
from repro.sim.registers import swmr
from repro.sim.system import System
from repro.sim.values import BOTTOM, freeze, is_bottom


class SignedReliableBroadcast:
    """The signature-based comparator (the original [5] shape, n > 2f).

    Each sender owns one SWMR register per slot holding ``(m, token)``;
    a receiver delivers ``m`` when the oracle validates the token, and
    *relays* the signed pair into its own relay register before
    delivering — which is what prevents later deniability. A Byzantine
    sender can still *equivocate* by overwriting its slot with a second
    validly-signed message before anyone delivers; the experiment E8
    demonstrates exactly that residual attack (it is why [4] pairs
    transferable authentication *with* non-equivocation), while the
    sticky-register version above excludes it by construction.
    """

    OPERATIONS = ("broadcast", "deliver")

    def __init__(
        self,
        system: System,
        name: str = "sig-rbc",
        slots: int = 4,
    ):
        self.system = system
        self.name = name
        self.slots = slots
        self.oracle = SignatureOracle()

    # ------------------------------------------------------------------
    def reg_slot(self, sender: int, seq: int) -> str:
        """Sender's signed-message register for slot ``seq``."""
        return f"{self.name}/M[{sender}][{seq}]"

    def reg_relay(self, pid: int, sender: int, seq: int) -> str:
        """``pid``'s relay register for slot ``(sender, seq)``."""
        return f"{self.name}/RELAY[{pid}][{sender}][{seq}]"

    def install(self) -> "SignedReliableBroadcast":
        """Install slot and relay registers for every process."""
        for sender in self.system.pids:
            for seq in range(self.slots):
                self.system.install_register(
                    swmr(self.reg_slot(sender, seq), sender, initial=BOTTOM)
                )
                for pid in self.system.pids:
                    self.system.install_register(
                        swmr(
                            self.reg_relay(pid, sender, seq), pid, initial=BOTTOM
                        )
                    )
        return self

    def start_helpers(self, pids: Optional[Iterable[int]] = None) -> None:
        """No helpers needed — signatures are self-certifying."""

    # ------------------------------------------------------------------
    def procedure_broadcast(self, sender: int, seq: int, message: Any) -> Program:
        """Sign and publish ``message`` in the sender's slot register."""
        message = freeze(message)
        token = self.oracle.sign(sender, (seq, message))
        yield WriteRegister(self.reg_slot(sender, seq), (message, token))
        return DONE

    def procedure_deliver(self, receiver: int, sender: int, seq: int) -> Program:
        """Deliver a validly signed message from the slot or any relay."""
        found: Any = BOTTOM
        raw = yield ReadRegister(self.reg_slot(sender, seq))
        found = self._validate(sender, seq, raw)
        if is_bottom(found):
            for pid in self.system.pids:
                raw = yield ReadRegister(self.reg_relay(pid, sender, seq))
                found = self._validate(sender, seq, raw)
                if not is_bottom(found):
                    break
        if not is_bottom(found):
            # Relay before delivering: the signed pair is now pinned in a
            # register the Byzantine sender cannot erase.
            yield WriteRegister(self.reg_relay(receiver, sender, seq), found)
            return found[0]
        return BOTTOM

    op = AlgorithmBase.op

    # ------------------------------------------------------------------
    def _validate(self, sender: int, seq: int, raw: Any) -> Any:
        """Return the signed pair when ``raw`` validly signs slot ``seq``."""
        if (
            isinstance(raw, tuple)
            and len(raw) == 2
            and self.oracle.valid(sender, (seq, raw[0]), raw[1])
        ):
            return raw
        return BOTTOM
