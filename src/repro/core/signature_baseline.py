"""Signature-based comparator registers (the baseline the paper replaces).

The algorithms in the literature that the paper's registers make
signature-free (e.g. Cohen–Keidar [5]) assume *unforgeable digital
signatures*. To compare against that world, this module provides:

* :class:`SignatureOracle` — a trusted, in-simulator signing authority.
  ``sign(pid, value)`` mints a token; ``valid(pid, value, token)`` checks
  it. Forgery is impossible *by construction* (the oracle records every
  mint), which models exactly the abstract unforgeability the paper's
  footnote 1 attributes to cryptographic schemes. Byzantine processes may
  replay, withhold, or relay tokens — everything real signatures allow —
  but cannot mint tokens for other pids, because ``sign`` is only
  reachable through the owner's effect (it is invoked inside the owner's
  procedures).
* :class:`SignedVerifiableRegister` — a verifiable register built *with*
  signatures: one value register plus per-process relay registers. Note
  its fault bound: it works for any ``n > f`` (readers never need a
  quorum — a signature is self-certifying), which is precisely why
  signature-based algorithms in [5] tolerate ``n > 2f`` while the
  signature-free translations need ``n > 3f``. The step-complexity
  benchmark (E10) quantifies the other side of the trade: Verify here is
  O(n) reads with no rounds, whereas Algorithm 1's Verify pays the
  witness machinery.

The oracle is *simulation infrastructure*, not shared memory: calls do
not consume steps (like local crypto operations, they happen inside a
process's step).
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterable, Optional, Set, Tuple

from repro.core.interfaces import (
    DONE,
    FAIL,
    SUCCESS,
    AlgorithmBase,
    as_frozenset,
)
from repro.errors import ProtocolViolation
from repro.sim.effects import ReadRegister, WriteRegister
from repro.sim.process import Program, idle_forever
from repro.sim.registers import RegisterSpec, swmr
from repro.sim.values import freeze


class SignatureOracle:
    """A perfect signature scheme: unforgeable by bookkeeping.

    Tokens are opaque ints; the oracle records which ``(signer, value)``
    pair each token certifies. Since tokens can only enter the system via
    ``sign`` and validation consults the mint record, no sequence of
    Byzantine actions can produce a token validating a never-signed pair
    — the exact abstraction "forging requires solving a hard problem"
    idealizes.
    """

    def __init__(self) -> None:
        self._counter = itertools.count(1)
        self._minted: Dict[int, Tuple[int, Any]] = {}

    def sign(self, signer: int, value: Any) -> int:
        """Mint a token certifying that ``signer`` signed ``value``."""
        token = next(self._counter)
        self._minted[token] = (signer, freeze(value))
        return token

    def valid(self, signer: int, value: Any, token: Any) -> bool:
        """Whether ``token`` certifies ``(signer, value)``."""
        if not isinstance(token, int):
            return False
        minted = self._minted.get(token)
        return minted is not None and minted == (signer, freeze(value))

    def minted_count(self) -> int:
        """How many tokens were ever minted (for metrics)."""
        return len(self._minted)


class SignedVerifiableRegister(AlgorithmBase):
    """Verifiable register assuming signatures; tolerates any ``n > f``.

    Shared state:

    * ``{name}/V`` — the writer's value register (last written value).
    * ``{name}/SIG`` — the writer's signed-set register: a set of
      ``(value, token)`` pairs.
    * ``{name}/RELAY[k]`` — reader k's relay register: signed pairs k has
      itself validated, re-published so later verifiers succeed even
      after the writer erases ``SIG`` (the relay property).

    ``Verify(v)`` scans ``SIG`` and every relay register; on finding a
    valid pair it copies the pair to its own relay register *before*
    returning true, which is what makes relay (Observation 13) hold: the
    evidence is now in a correct process's register forever.
    """

    OPERATIONS = ("write", "read", "sign", "verify")

    def __init__(
        self,
        system,
        name: str = "sigreg",
        writer: int = 1,
        f: Optional[int] = None,
        initial: Any = None,
        oracle: Optional[SignatureOracle] = None,
    ):
        super().__init__(system, name, writer=writer, f=f, initial=initial)
        self.oracle = oracle or SignatureOracle()
        self._written: Set[Any] = set()

    # ------------------------------------------------------------------
    def reg_value(self) -> str:
        """``V`` — the writer's plain value register."""
        return f"{self.name}/V"

    def reg_signed(self) -> str:
        """``SIG`` — the writer's set of (value, token) pairs."""
        return f"{self.name}/SIG"

    def reg_relay(self, k: int) -> str:
        """``RELAY_k`` — reader k's validated-pairs register."""
        return f"{self.name}/RELAY[{k}]"

    def register_specs(self) -> Iterable[RegisterSpec]:
        yield swmr(self.reg_value(), self.writer, initial=self.initial)
        yield swmr(self.reg_signed(), self.writer, initial=frozenset())
        for k in self.readers:
            yield swmr(self.reg_relay(k), k, initial=frozenset())

    # ------------------------------------------------------------------
    def procedure_write(self, pid: int, v: Any) -> Program:
        """Plain write into the value register."""
        self._require_writer(pid)
        v = freeze(v)
        yield WriteRegister(self.reg_value(), v)
        self._written.add(v)
        return DONE

    def procedure_read(self, pid: int) -> Program:
        """Plain read of the value register."""
        self._require_reader(pid)
        value = yield ReadRegister(self.reg_value())
        return value

    def procedure_sign(self, pid: int, v: Any) -> Program:
        """Mint a signature for a previously written value and publish it."""
        self._require_writer(pid)
        v = freeze(v)
        if v not in self._written:
            return FAIL
        token = self.oracle.sign(pid, v)
        current = as_frozenset((yield ReadRegister(self.reg_signed())))
        yield WriteRegister(self.reg_signed(), current | {(v, token)})
        return SUCCESS

    def procedure_verify(self, pid: int, v: Any) -> Program:
        """Scan writer + relay registers for a valid signature on ``v``."""
        self._require_reader(pid)
        v = freeze(v)
        evidence: Optional[Tuple[Any, Any]] = None
        raw = yield ReadRegister(self.reg_signed())
        evidence = self._find_valid(v, raw)
        if evidence is None:
            for k in self.readers:
                raw = yield ReadRegister(self.reg_relay(k))
                evidence = self._find_valid(v, raw)
                if evidence is not None:
                    break
        if evidence is None:
            return False
        if pid != self.writer:
            mine = as_frozenset((yield ReadRegister(self.reg_relay(pid))))
            if evidence not in mine:
                # Publish the evidence before returning true: this is the
                # step that makes the relay property unconditional.
                yield WriteRegister(self.reg_relay(pid), mine | {evidence})
        return True

    def procedure_help(self, pid: int) -> Program:
        """No helper needed — signatures are self-certifying.

        Provided (as a no-op daemon) so harness code can treat all
        register types uniformly.
        """
        return idle_forever()

    # ------------------------------------------------------------------
    def _find_valid(self, v: Any, raw: Any) -> Optional[Tuple[Any, Any]]:
        """First well-formed pair in ``raw`` that validly signs ``v``."""
        for entry in as_frozenset(raw):
            if isinstance(entry, tuple) and len(entry) == 2:
                value, token = entry
                if value == v and self.oracle.valid(self.writer, v, token):
                    return entry
        return None
