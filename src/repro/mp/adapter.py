"""Run shared-memory algorithms unchanged over emulated registers.

The paper's final remark: because SWMR registers can be emulated in
message-passing systems with ``n > 3f`` [11], verifiable, authenticated
and sticky registers exist there too — *the same algorithms, different
substrate*. This module makes that literal: :func:`translate` wraps any
shared-memory program (a generator of effects) and re-interprets its
``ReadRegister`` / ``WriteRegister`` effects as runs of the emulation's
quorum protocols, leaving every other effect untouched.

So experiment E9 executes Algorithm 1's *exact code* — the same
generators, line for line — over messages.

Caveats (each a substitution for an assumption of the paper's model):

* The emulation does not enforce SWSR read restrictions (any process may
  query any emulated register); Algorithms 1–3 never read registers they
  should not, so this is unobservable for correct code.
* The emulation provides regular (not fully atomic) semantics under
  read/write concurrency: two non-overlapping reads that both overlap
  one write may see the new value and then the old one (the reader
  write-back round that closes this is opt-in,
  ``RegisterEmulation.read(write_back=True)``, and the translation does
  not use it). E9's schedules keep low-level writes non-overlapping,
  but that does not make regular and atomic coincide: the inversion
  needs only one write and two reads. Write-back is what closes it.
* The translation inherits the emulation's *channel* assumption: over
  the default reliable network nothing extra is needed, while over a
  fair-lossy :class:`repro.faults.FaultyNetwork` the emulation must be
  constructed with ``channels=RetransmitChannels(...)`` — the adapter
  is transport-agnostic, so translated algorithms ride the retransmit
  layer without change.
"""

from __future__ import annotations

from typing import Any

from repro.core.interfaces import AlgorithmBase
from repro.mp.swmr_emulation import RegisterEmulation
from repro.sim.effects import PAUSE, Await, ReadRegister, WriteRegister
from repro.sim.process import Program


def declare_registers(emu: RegisterEmulation, impl: AlgorithmBase) -> None:
    """Declare every register of ``impl`` as an emulated register.

    Used *instead of* ``impl.install()``: the register family lives in
    the emulation's replicas, not in the system's shared memory.
    """
    for spec in impl.register_specs():
        emu.add_register(spec.name, writer=spec.writer, initial=spec.initial)


def translate(emu: RegisterEmulation, pid: int, program: Program) -> Program:
    """Re-interpret a shared-memory program's register effects over messages.

    Every ``ReadRegister`` becomes an emulated quorum read, every
    ``WriteRegister`` an emulated quorum write, and every ``Await`` a
    ``Pause``: the watched registers live in the replicas, not in the
    kernel, so over messages a wait is still a poll. ``Invoke``/
    ``Respond``/``Pause`` and the rest pass straight through to the
    kernel, so histories record identically to the shared-memory runs.
    """
    to_send: Any = None
    first = True
    while True:
        try:
            effect = next(program) if first else program.send(to_send)
        except StopIteration as stop:
            return stop.value
        first = False
        if isinstance(effect, ReadRegister):
            to_send = yield from emu.read(pid, effect.register)
        elif isinstance(effect, WriteRegister):
            yield from emu.write(pid, effect.register, effect.value)
            to_send = None
        elif isinstance(effect, Await):
            to_send = yield PAUSE
        else:
            to_send = yield effect


def translated_op(
    emu: RegisterEmulation, impl: AlgorithmBase, pid: int, opname: str, *args: Any
) -> Program:
    """A recorded operation of ``impl`` executed over the emulation."""
    return translate(emu, pid, impl.op(pid, opname, *args))


def translated_help(
    emu: RegisterEmulation, impl: AlgorithmBase, pid: int
) -> Program:
    """``impl``'s Help daemon executed over the emulation."""
    return translate(emu, pid, impl.procedure_help(pid))
