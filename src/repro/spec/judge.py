"""One judge for every verdict: Byzantine linearizability (Definitions 6–9).

A history ``H`` is *Byzantine linearizable* w.r.t. an object when some
history ``H'`` with ``H'|correct = H|correct`` is linearizable. Every
CLEAN or VIOLATING verdict in the repo is that one definition plus a
family's :class:`Rules`:

* ``synthesize`` — how ``H'`` is built from ``H|correct`` when the
  object's owner is Byzantine (or, for the applications, which have no
  single owner, always): the paper's Appendix constructions for the
  registers (:mod:`repro.spec.byzantine`), the witness-state settled
  slots and spec encodings of the applications;
* ``properties`` — an optional linear-time screen (the paper's
  Observations, :mod:`repro.spec.properties`) whose failures are the
  verdict when it fails;
* ``label`` — the reason prefix of a failed linearization.

:func:`judge` restricts the history to the correct processes, applies
the property rule, then the synthesis rule, and linearizes once, through
:func:`repro.spec.linearizability.find_linearization` — whose
``linearize`` table, keyed by the exact records linearized (synthesized
ones included), is the only whole-result memo. That key stays sound for
every family, including the applications whose synthesis reads register
witness state rather than the history.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.sim.history import History, OperationRecord, fresh_op_ids
from repro.spec.context import CheckContext
from repro.spec.linearizability import find_linearization
from repro.spec.sequential import SequentialSpec


@dataclass(frozen=True)
class Case:
    """What a family's rules read besides the correct records.

    Attributes:
        obj: The judged object.
        spec: Its sequential specification.
        owner: The pid owning the object (the register writer, the
            test-or-set setter), or None for objects with no single owner.
        owner_correct: Whether ``owner`` is a correct process.
        history: The full history (synthesized ids must avoid all of it).
        witness: Run-side evidence a rule may read (the applications'
            settled Byzantine slots), or None.
    """

    obj: str
    spec: SequentialSpec
    owner: Optional[int]
    owner_correct: bool
    history: History
    witness: Any = None

    def fresh_ids(self) -> Iterator[int]:
        """Operation ids unused by the full history, ascending."""
        return itertools.count(fresh_op_ids(self.history, 1)[0])


#: ``(correct records, case) -> H'|obj`` or a failure reason. ``H'``
#: lists the correct records (possibly re-encoded for the spec, same
#: order and length) followed by the synthesized ones.
Synthesize = Callable[[List[OperationRecord], Case], Union[str, List[OperationRecord]]]


@dataclass(frozen=True)
class Rules:
    """How one implementation family's histories are judged.

    Attributes:
        label: Prefix of a failed linearization's reason
            (``"{label} linearizability: …"``); None uses the object name.
        synthesize: Builds ``H'`` (see :data:`Synthesize`); applied when
            the owner is Byzantine, or always for ownerless objects.
            None judges ``H|correct`` as is.
        properties: ``(correct records, case) -> PropertyReport``; a
            failing report is the verdict.
    """

    label: Optional[str] = None
    synthesize: Optional[Synthesize] = None
    properties: Optional[Callable[[List[OperationRecord], Case], Any]] = None


@dataclass
class ByzantineVerdict:
    """Result of a Byzantine-linearizability check.

    Attributes:
        ok: Whether a witnessing ``H'`` + linearization was found.
        reason: Failure explanation (empty on success).
        synthesized: The operations ``H'`` adds to ``H|correct``.
        linearization: Witness order of operation ids, when ok.
        explored: Search nodes expanded by the underlying checker.
    """

    ok: bool
    reason: str = ""
    synthesized: List[OperationRecord] = field(default_factory=list)
    linearization: Optional[List[int]] = None
    explored: int = 0

    def __bool__(self) -> bool:
        return self.ok


def restrict(
    history: History,
    correct: Iterable[int],
    obj: str,
    spec: SequentialSpec,
    owner: Optional[int] = None,
    witness: Any = None,
) -> Tuple[List[OperationRecord], Case]:
    """``H|correct`` on ``obj`` (pending operations included) and its case."""
    correct = set(correct)
    records = [r for r in history.operations(obj=obj) if r.pid in correct]
    case = Case(obj, spec, owner, owner in correct, history, witness)
    return records, case


def linearize(
    records: List[OperationRecord],
    case: Case,
    synthesize: Optional[Synthesize] = None,
    max_nodes: int = 2_000_000,
    ctx: Optional[CheckContext] = None,
) -> ByzantineVerdict:
    """Build ``H'`` from the correct records and linearize it once."""
    h_prime: Sequence[OperationRecord] = records
    if synthesize is not None and not case.owner_correct:
        outcome = synthesize(records, case)
        if isinstance(outcome, str):
            return ByzantineVerdict(ok=False, reason=outcome)
        h_prime = outcome
    synthesized = list(h_prime[len(records):])
    result = find_linearization(h_prime, case.spec, max_nodes=max_nodes, ctx=ctx)
    if result.ok:
        return ByzantineVerdict(
            ok=True,
            synthesized=synthesized,
            linearization=result.order,
            explored=result.explored,
        )
    reason = result.reason
    if case.owner is not None and not case.owner_correct:
        reason = "synthesized history failed to linearize:\n" + reason
    return ByzantineVerdict(
        ok=False, reason=reason, synthesized=synthesized, explored=result.explored
    )


def judge(
    history: History,
    correct: Iterable[int],
    obj: str,
    spec: SequentialSpec,
    rules: Rules,
    owner: Optional[int] = None,
    witness: Any = None,
    max_nodes: int = 2_000_000,
    ctx: Optional[CheckContext] = None,
) -> Optional[str]:
    """The verdict on ``obj``: None when clean, else the reason.

    Property failures are joined by ``"; "``; a failed Byzantine
    linearization reads ``"{label} linearizability: {reason}"``.
    """
    records, case = restrict(history, correct, obj, spec, owner, witness)
    if rules.properties is not None:
        report = rules.properties(records, case)
        if not report.ok:
            return "; ".join(report.violations)
    verdict = linearize(records, case, rules.synthesize, max_nodes, ctx)
    if verdict.ok:
        return None
    return f"{rules.label or obj} linearizability: {verdict.reason}"
