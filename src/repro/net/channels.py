"""The retransmission channel core on wall-clock seconds.

A live node rebuilds the reliable-channel assumption over its sockets
with the same state machine the simulator explores —
:class:`repro.faults.channels.ChannelCore`: ``("CH", seq, payload)``
framing, always-ack, seqno dedup, capped exponential backoff, bounded
retries surfaced in ``exhausted``. :class:`WallClockChannels` is that
core with times in ``float`` seconds, seeded *downward* jitter switched
on (so ``max_backoff`` stays a true bound on every retransmit gap, which
:class:`repro.net.monitor.WallClockProgressMonitor`'s window validation
relies on), and a retransmit timeout measured per destination instead
of fixed: the Jacobson/Karels estimator of RFC 6298, ``RTO = SRTT +
4·RTTVAR`` clamped to ``[MIN_RTO, max_backoff]``, sampled only from
frames acked on their first copy (Karn's rule), and only once the
endpoint has had to resend a frame: a link that loses nothing keeps
``base_timeout``, the RTO before the first sample, and with it a
deadline timer that seldom wakes. The virtual-time driver keeps the
fixed ``base_timeout``, so simulated runs do not move.

Where the simulator keeps one :class:`repro.faults.RetransmitChannels`
per system, each :class:`repro.net.NetNode` owns one
:class:`WallClockChannels` (a real process owns only its own channel
state) and passes it ``time.monotonic()``, on sends and on receipts;
live reports and virtual-time reports carry the same metric keys.
"""

from __future__ import annotations

from typing import Dict, List

from repro.faults.channels import ChannelCore

#: The lowest RTO the estimator may set, in seconds. Loopback round
#: trips are well under it; it keeps a host stall of a few milliseconds
#: (a busy event loop, a descheduled process) from reading as loss.
MIN_RTO = 0.01


class WallClockChannels(ChannelCore):
    """Reliable per-destination channels for one live node.

    Args:
        pid: The owning node's pid (jitter seeding and diagnostics).
        base_timeout: Seconds before the first retransmit of a frame
            until a round trip to its destination has been measured
            (round trips are timed from this endpoint's first resend
            on).
        max_backoff: Cap, in seconds, on the RTO and on the doubling
            retransmit interval (a true bound: jitter only shortens a
            gap).
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
        #: Per destination: [SRTT, RTTVAR], once sampled; the RTO they
        #: give goes into the core's table.
        self._rtt: Dict[int, List[float]] = {}

    def _round_trip(self, dst: int, sample: float) -> None:
        # Until this endpoint has had to resend, a short RTO buys nothing
        # and costs a deadline-timer wake-up per RTO that finds nothing
        # due, so sampling starts at the first retransmit.
        if not self.retransmitted:
            return
        # Updated in place, with RFC 6298's gains (beta = 1/4, alpha =
        # 1/8) as literals: this runs on every first-copy ack.
        estimate = self._rtt.get(dst)
        if estimate is None:
            srtt, rttvar = self._rtt[dst] = [sample, sample / 2]
        else:
            srtt, rttvar = estimate
            estimate[1] = rttvar = 0.75 * rttvar + 0.25 * abs(srtt - sample)
            estimate[0] = srtt = 0.875 * srtt + 0.125 * sample
        rto = srtt + 4 * rttvar
        self._rto[dst] = MIN_RTO if rto < MIN_RTO else min(rto, self.max_backoff)
