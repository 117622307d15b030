"""Online linearizability oracle: live windows through the offline checker.

The tentpole invariant of the live runtime is that it adds **zero new
checker code**: sampled windows of the live history are serialized into
the same :class:`~repro.sim.history.OperationRecord` shape the
virtual-time kernel produces, and judged by the *unmodified* Wing–Gong
search (:func:`repro.spec.find_linearization`) through a shared
:class:`~repro.spec.CheckContext`.

Why windows are sound:

* The load generator is round-based with a full barrier between rounds,
  so every operation invoked in round *r* responds in round *r* — each
  window is a self-contained history with no dangling concurrency into
  its neighbours.
* Timestamps come from the server host's single monotonic clock and are
  taken *inside* the operation (invocation when the node starts it,
  response when the quorum wait completes), so each recorded interval
  contains the operation's linearization point. On one host there is no
  clock-skew caveat to discharge.
* The per-window spec is re-anchored: a register window starts from the
  last value written in earlier rounds, an asset-transfer window from
  the balances implied by earlier rounds' ``"ok"`` transfers (balance
  effects of a transfer multiset are order-independent, so the anchor
  does not depend on the earlier rounds' linearization order).

Evidence files (``kind = "net-window"``) are corpus-style JSON — frozen
via the same conventions as ``repro.campaign.corpus`` (sorted keys,
compact separators) — and carry everything needed to re-check offline:
:func:`check_evidence` rebuilds the records and spec, re-runs the exact
same search, and re-emits the document; a byte-identical result is the
acceptance test that the online path adds nothing to the offline one.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.net import wire
from repro.sim.history import History, OperationRecord
from repro.spec import CheckContext, find_linearization
from repro.spec.sequential import AssetTransferSpec, AtomicRegisterSpec

#: Version stamp of the evidence document format.
EVIDENCE_VERSION = 1
#: The ``kind`` field of live-window evidence documents.
EVIDENCE_KIND = "net-window"

#: Search budget for window checks. Windows are bounded by the load
#: generator's round size, so this is generous.
WINDOW_MAX_NODES = 2_000_000


class LiveHistory:
    """A :class:`History` timestamped by the host's monotonic clock.

    Times are integer nanoseconds since the history's epoch — integral
    so records round-trip through JSON exactly, monotonic so precedence
    (Definition 1) means what it meant in virtual time.
    """

    def __init__(self) -> None:
        self.history = History()
        self._epoch = time.monotonic_ns()
        #: Completed operations — a progress signal for the monitor.
        self.responses = 0

    def now(self) -> int:
        return time.monotonic_ns() - self._epoch

    def invoke(self, pid: int, obj: str, op: str, args: Tuple[Any, ...]) -> int:
        return self.history.record_invocation(
            pid, obj, op, wire.freeze(args), self.now()
        )

    def respond(self, op_id: int, result: Any) -> None:
        self.history.record_response(op_id, wire.freeze(result), self.now())
        self.responses += 1

    def __len__(self) -> int:
        return len(self.history)


# ----------------------------------------------------------------------
# Record / spec (de)serialization
# ----------------------------------------------------------------------
def record_to_json(record: OperationRecord, base: int) -> Dict[str, Any]:
    """One record as a JSON document, times rebased to the window start."""
    return {
        "op_id": record.op_id,
        "pid": record.pid,
        "obj": record.obj,
        "op": record.op,
        "args": list(record.args),
        "invoked_at": record.invoked_at - base,
        "responded_at": (
            None if record.responded_at is None else record.responded_at - base
        ),
        "result": record.result,
    }


def record_from_json(doc: Dict[str, Any]) -> OperationRecord:
    """The inverse of :func:`record_to_json` (arrays refrozen to tuples)."""
    args = wire.freeze(doc["args"])
    if not isinstance(args, tuple):
        raise ConfigurationError(f"record args must be an array: {doc!r}")
    return OperationRecord(
        op_id=doc["op_id"],
        pid=doc["pid"],
        obj=doc["obj"],
        op=doc["op"],
        args=args,
        invoked_at=doc["invoked_at"],
        responded_at=doc["responded_at"],
        result=wire.freeze(doc["result"]),
    )


def spec_to_json(spec: Any) -> Dict[str, Any]:
    """The window spec as JSON (register and asset-transfer only)."""
    if isinstance(spec, AtomicRegisterSpec):
        # The tag keeps the spec's old class name so evidence files
        # written before the rename still re-check.
        return {"type": "regular_register", "initial": spec.initial}
    if isinstance(spec, AssetTransferSpec):
        return {
            "type": "asset_transfer",
            "accounts": list(spec.accounts),
            "initial": list(spec.initial),
        }
    raise ConfigurationError(f"no JSON form for spec {spec!r}")


def spec_from_json(doc: Dict[str, Any]) -> Any:
    kind = doc.get("type")
    if kind == "regular_register":
        return AtomicRegisterSpec(initial=wire.freeze(doc["initial"]))
    if kind == "asset_transfer":
        return AssetTransferSpec(
            accounts=wire.freeze(doc["accounts"]),
            initial=wire.freeze(doc["initial"]),
        )
    raise ConfigurationError(f"unknown spec type {kind!r}")


# ----------------------------------------------------------------------
# Window evidence
# ----------------------------------------------------------------------
def window_evidence(
    label: str,
    window: int,
    obj: str,
    spec: Any,
    records: Sequence[OperationRecord],
    ctx: Optional[CheckContext] = None,
) -> Dict[str, Any]:
    """Check one sampled window; return its full evidence document.

    The search runs on the records *after* a JSON round trip (times
    rebased, values refrozen) — i.e. on exactly what
    :func:`check_evidence` will rebuild — so the offline re-check is
    byte-identical by construction, not by luck.
    """
    base = min((r.invoked_at for r in records), default=0)
    record_docs = [record_to_json(r, base) for r in records]
    rebuilt = [record_from_json(d) for d in record_docs]
    result = find_linearization(rebuilt, spec, max_nodes=WINDOW_MAX_NODES, ctx=ctx)
    return {
        "version": EVIDENCE_VERSION,
        "kind": EVIDENCE_KIND,
        "label": label,
        "window": window,
        "object": obj,
        "spec": spec_to_json(spec),
        "records": record_docs,
        "verdict": {
            "ok": result.ok,
            "order": result.order,
            "explored": result.explored,
            "reason": result.reason,
        },
    }


def check_evidence(
    doc: Dict[str, Any], ctx: Optional[CheckContext] = None
) -> Dict[str, Any]:
    """Re-run an evidence document's check offline; return the re-emission.

    The caller compares ``evidence_bytes(doc)`` with
    ``evidence_bytes(check_evidence(doc))`` — byte equality proves the
    online verdict is exactly what the offline checker computes from the
    serialized window.
    """
    if doc.get("kind") != EVIDENCE_KIND:
        raise ConfigurationError(f"not a {EVIDENCE_KIND} document: {doc.get('kind')!r}")
    if doc.get("version") != EVIDENCE_VERSION:
        raise ConfigurationError(f"unknown evidence version {doc.get('version')!r}")
    spec = spec_from_json(doc["spec"])
    records = [record_from_json(d) for d in doc["records"]]
    return window_evidence(
        doc["label"], doc["window"], doc["object"], spec, records, ctx=ctx
    )


def evidence_bytes(doc: Dict[str, Any]) -> bytes:
    """Canonical serialization (corpus conventions: sorted keys, compact)."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def window_slices(history: History, boundaries: Sequence[int]) -> List[List[OperationRecord]]:
    """Split a history into per-window record lists by invocation index.

    ``boundaries`` holds the history length observed at each barrier
    (monotone, last = final length); window *i* is the records invoked
    between barrier *i* and barrier *i + 1*.
    """
    records = history.all()
    out: List[List[OperationRecord]] = []
    start = 0
    for end in boundaries:
        out.append(records[start:end])
        start = end
    return out
