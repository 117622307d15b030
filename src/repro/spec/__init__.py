"""Correctness checking: sequential specs, linearizability, properties.

One judge (:func:`repro.spec.judge.judge`) decides every verdict:
Byzantine linearizability (Definitions 6–9) under a family's
:class:`~repro.spec.judge.Rules` —

* observable-property rules (:mod:`repro.spec.properties`) — fast,
  exact renditions of the paper's Observations, screened first;
* synthesis rules (:mod:`repro.spec.byzantine`) — the paper's
  constructive Appendix arguments building ``H'`` for a Byzantine
  owner, linearized once by the Wing–Gong checker.

The judge and its two halves are the only way in: ``judge(history,
correct, obj, spec, rules, owner=…)`` for a verdict,
``linearize(*restrict(…), rules.synthesize)`` for the synthesized
``H'`` and its witness order, and ``rules.properties(*restrict(…))``
for one property rule; :func:`find_linearization` linearizes plain
records. A family's spec and rules come from its row in
``repro.scenarios.bindings``.
"""

from repro.spec.context import CheckContext
from repro.spec.judge import ByzantineVerdict, Rules, judge
from repro.spec.linearizability import LinearizationResult, find_linearization
from repro.spec.properties import PropertyReport
from repro.spec.sequential import (
    AssetTransferSpec,
    AtomicRegisterSpec,
    AuthenticatedRegisterSpec,
    BroadcastSpec,
    SequentialSpec,
    SnapshotSpec,
    StickyRegisterSpec,
    TestOrSetSpec,
    VerifiableRegisterSpec,
)

__all__ = [
    "AssetTransferSpec",
    "AtomicRegisterSpec",
    "AuthenticatedRegisterSpec",
    "BroadcastSpec",
    "ByzantineVerdict",
    "CheckContext",
    "LinearizationResult",
    "PropertyReport",
    "Rules",
    "SequentialSpec",
    "SnapshotSpec",
    "StickyRegisterSpec",
    "TestOrSetSpec",
    "VerifiableRegisterSpec",
    "find_linearization",
    "judge",
]
