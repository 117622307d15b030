"""Live-network runtime: asyncio socket clusters with chaos injection.

``repro.net`` deploys the [11]-style SWMR quorum emulation as an
n-process cluster on localhost TCP sockets. It is the second *driver*
of the protocol, not a second implementation: the replica state
machine (:class:`repro.mp.swmr_emulation.ReplicaCore`), the retransmit
channel (:class:`repro.faults.channels.ChannelCore`) and the stall
judgement (:class:`repro.faults.monitor.StallWindow`) are the objects
the simulator drives in virtual time; here they run on sockets and
``time.monotonic()``. What this package adds is everything a real
deployment needs around those cores:

* :mod:`repro.net.wire` — length-prefixed JSON framing shared by nodes,
  chaos proxies, and remote clients.
* :mod:`repro.net.chaos` — a genuine socket-layer chaos proxy applying
  the unchanged :class:`repro.faults.FaultPlan` vocabulary (drop / dup /
  delay rules, timed group partitions, crash-stop with optional
  restart-and-recover) with seeded determinism per rule.
* :mod:`repro.net.channels` — :class:`WallClockChannels`, the channel
  core on ``float`` seconds with seeded downward jitter and a
  per-peer retransmit timeout estimated from measured round trips
  (RFC 6298, from the first resend on), which each node's one deadline
  timer fires on.
* :mod:`repro.net.monitor` — :class:`WallClockProgressMonitor`, an
  asyncio task sampling the stall window: a hung cluster becomes a
  first-class ``STALLED`` verdict with a waiting-on/suppression
  diagnosis instead of a hang.
* :mod:`repro.net.node` — one cluster process: a TCP server that feeds
  peer frames to its replica core and puts the core's replies on the
  wire, paced client operations (read / write / transfer / balance),
  crash-restart recovery, and the remote-client request protocol.
* :mod:`repro.net.loadgen` — hundreds of concurrent clients driving
  read/write/transfer mixes in barrier-separated rounds, with latency
  and throughput percentiles.
* :mod:`repro.net.oracle` — the online oracle: each round's operations
  form a self-contained window in the existing ``History`` record
  format, checked by the unmodified Wing–Gong search through
  :class:`repro.spec.CheckContext`, and serialized as corpus-compatible
  JSON evidence the offline path re-checks byte-identically.
* :mod:`repro.net.cluster` — orchestration: boot, chaos, load, verdict
  (``CLEAN`` / ``VIOLATING`` / ``STALLED``).

The CLI lives in :mod:`repro.analysis.net`
(``python -m repro.analysis net --serve/--load/--chaos/--check``).
"""

from repro.net.channels import WallClockChannels
from repro.net.chaos import ChaosClock, ChaosProxy
from repro.net.cluster import (
    CLEAN,
    STALLED,
    VIOLATING,
    LiveCluster,
    LiveProfile,
    LiveRunReport,
    run_live,
)
from repro.net.loadgen import LoadGenerator, LoadStats
from repro.net.monitor import WallClockProgressMonitor
from repro.net.node import NetNode
from repro.net.oracle import (
    EVIDENCE_KIND,
    EVIDENCE_VERSION,
    check_evidence,
    evidence_bytes,
    window_evidence,
)

__all__ = [
    "CLEAN",
    "STALLED",
    "VIOLATING",
    "ChaosClock",
    "ChaosProxy",
    "EVIDENCE_KIND",
    "EVIDENCE_VERSION",
    "LiveCluster",
    "LiveProfile",
    "LiveRunReport",
    "LoadGenerator",
    "LoadStats",
    "NetNode",
    "WallClockChannels",
    "WallClockProgressMonitor",
    "check_evidence",
    "evidence_bytes",
    "run_live",
    "window_evidence",
]
