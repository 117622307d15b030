"""The retransmission channel core on wall-clock seconds.

A live node rebuilds the reliable-channel assumption over its sockets
with the same state machine the simulator explores —
:class:`repro.faults.channels.ChannelCore`: ``("CH", seq, payload)``
framing, always-ack, seqno dedup, capped exponential backoff, bounded
retries surfaced in ``exhausted``. :class:`WallClockChannels` is that
core with times in ``float`` seconds and seeded *downward* jitter
switched on (so ``max_backoff`` stays a true bound on every retransmit
gap, which :class:`repro.net.monitor.WallClockProgressMonitor`'s window
validation relies on).

Where the simulator keeps one :class:`repro.faults.RetransmitChannels`
per system, each :class:`repro.net.NetNode` owns one
:class:`WallClockChannels` (a real process owns only its own channel
state) and passes it ``time.monotonic()``; live reports and
virtual-time reports carry the same metric keys.
"""

from __future__ import annotations

from repro.faults.channels import ChannelCore


class WallClockChannels(ChannelCore):
    """Reliable per-destination channels for one live node.

    Args:
        pid: The owning node's pid (jitter seeding and diagnostics).
        base_timeout: Seconds before the first retransmit of a frame.
        max_backoff: Cap, in seconds, on the doubling retransmit
            interval (a true bound: jitter only shortens a gap).
        max_retries: Retransmit attempts before a frame is abandoned
            (counted in :attr:`exhausted`).
        jitter: Fraction of each backoff randomly shaved off.
        seed: Jitter seed.
    """

    def __init__(
        self,
        pid: int,
        base_timeout: float = 0.05,
        max_backoff: float = 0.8,
        max_retries: int = 12,
        jitter: float = 0.25,
        seed: int = 0,
    ):
        super().__init__(pid, base_timeout, max_backoff, max_retries, jitter, seed)
