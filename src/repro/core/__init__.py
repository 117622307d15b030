"""The paper's primary contribution: registers with signature properties.

* :class:`VerifiableRegister` — Algorithm 1 (Write/Read/Sign/Verify).
* :class:`AuthenticatedRegister` — Algorithm 2 (atomically signed writes).
* :class:`StickyRegister` — Algorithm 3 (write-once uniqueness).
* Test-or-set wrappers — Section 10's possibility direction.
* :class:`SignedVerifiableRegister` — signature-based comparator.
* :class:`NaiveVerifiableRegister` — the erasable strawman of Section 5.1,
  and the other broken variants of :mod:`repro.core.naive` (E11, E12).
* :class:`WitnessRegister` — the ask/answer layer Algorithms 1–3 share.
"""

from repro.core.authenticated import (
    AuthenticatedRegister,
    max_tuple,
    timestamped_values,
    well_formed_tuples,
)
from repro.core.interfaces import (
    DONE,
    FAIL,
    SUCCESS,
    AlgorithmBase,
    WitnessRegister,
    as_frozenset,
    as_int,
    as_reply_pair,
)
from repro.core.naive import (
    EarlyWriteStickyRegister,
    NaiveQuorumVerifiableRegister,
    NaiveVerifiableRegister,
    NoResetVerifiableRegister,
)
from repro.core.signature_baseline import SignatureOracle, SignedVerifiableRegister
from repro.core.sticky import StickyRegister
from repro.core.test_or_set import (
    SET_FLAG,
    QuorumTestOrSet,
    TestOrSetFromAuthenticated,
    TestOrSetFromSticky,
    TestOrSetFromVerifiable,
)
from repro.core.verifiable import VerifiableRegister

__all__ = [
    "AlgorithmBase",
    "AuthenticatedRegister",
    "DONE",
    "EarlyWriteStickyRegister",
    "FAIL",
    "NaiveQuorumVerifiableRegister",
    "NaiveVerifiableRegister",
    "NoResetVerifiableRegister",
    "QuorumTestOrSet",
    "SET_FLAG",
    "SUCCESS",
    "SignatureOracle",
    "SignedVerifiableRegister",
    "StickyRegister",
    "TestOrSetFromAuthenticated",
    "TestOrSetFromSticky",
    "TestOrSetFromVerifiable",
    "VerifiableRegister",
    "WitnessRegister",
    "as_frozenset",
    "as_int",
    "as_reply_pair",
    "max_tuple",
    "timestamped_values",
    "well_formed_tuples",
]
