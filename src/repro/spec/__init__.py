"""Correctness checking: sequential specs, linearizability, properties.

One judge (:func:`repro.spec.judge.judge`) decides every verdict:
Byzantine linearizability (Definitions 6–9) under a family's
:class:`~repro.spec.judge.Rules` —

* observable-property rules (:mod:`repro.spec.properties`) — fast,
  exact renditions of the paper's Observations, screened first;
* synthesis rules (:mod:`repro.spec.byzantine`) — the paper's
  constructive Appendix arguments building ``H'`` for a Byzantine
  owner, linearized once by the Wing–Gong checker.
"""

from repro.spec.context import CheckContext
from repro.spec.judge import ByzantineVerdict, Rules, judge
from repro.spec.byzantine import (
    check_authenticated,
    check_sticky,
    check_test_or_set,
    check_verifiable,
)
from repro.spec.linearizability import (
    LinearizationResult,
    check_linearizable,
    find_linearization,
)
from repro.spec.properties import (
    PropertyReport,
    check_authenticated_properties,
    check_sticky_properties,
    check_test_or_set_properties,
    check_verifiable_properties,
)
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
    "check_authenticated",
    "check_authenticated_properties",
    "check_linearizable",
    "check_sticky",
    "check_sticky_properties",
    "check_test_or_set",
    "check_test_or_set_properties",
    "check_verifiable",
    "check_verifiable_properties",
    "find_linearization",
    "judge",
]
