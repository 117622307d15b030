"""Correctness checking: sequential specs, linearizability, properties.

Two complementary verdicts:

* observable-property checks (:mod:`repro.spec.properties`) — fast,
  exact renditions of the paper's Observations;
* full Byzantine linearizability (:mod:`repro.spec.byzantine`) — the
  paper's constructive Appendix arguments driving a Wing–Gong checker.
"""

from repro.spec.context import CheckContext
from repro.spec.byzantine import (
    ByzantineVerdict,
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
    AuthenticatedRegisterSpec,
    BroadcastSpec,
    RegularRegisterSpec,
    SequentialSpec,
    SnapshotSpec,
    StickyRegisterSpec,
    TestOrSetSpec,
    VerifiableRegisterSpec,
)

__all__ = [
    "AssetTransferSpec",
    "AuthenticatedRegisterSpec",
    "BroadcastSpec",
    "ByzantineVerdict",
    "CheckContext",
    "LinearizationResult",
    "PropertyReport",
    "RegularRegisterSpec",
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
]
