"""Applications built on the paper's registers (Sections 1, 2, 8).

* :class:`NonEquivocatingBroadcast` — sticky-register broadcast with the
  uniqueness property of [4]; it is also the signature-free translation
  of Cohen & Keidar's reliable broadcast object (n > 3f).
* :class:`SignedReliableBroadcast` — the signature-based comparator
  (n > 2f), including its residual equivocation weakness.
* :class:`AtomicSnapshot` — the signature-free translation of [5]'s
  Byzantine atomic snapshot, with verified embedded-scan adoption.
"""

from repro.apps.asset_transfer import AssetTransfer, settle, well_formed_transfer
from repro.apps.broadcast import NonEquivocatingBroadcast
from repro.apps.reliable_broadcast import SignedReliableBroadcast
from repro.apps.snapshot import EMPTY_SEGMENT, AtomicSnapshot, well_formed_segment

__all__ = [
    "AssetTransfer",
    "AtomicSnapshot",
    "settle",
    "well_formed_transfer",
    "EMPTY_SEGMENT",
    "NonEquivocatingBroadcast",
    "SignedReliableBroadcast",
    "well_formed_segment",
]
