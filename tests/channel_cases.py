"""The retransmit-channel cases, written once for both façades.

:class:`repro.faults.RetransmitChannels` (every process of a simulated
system, ``Send`` effects, the system's clock) and
:class:`repro.net.WallClockChannels` (one live node, raw payloads, the
caller's clock) are two façades over one
:class:`repro.faults.channels.ChannelCore`. The adapters below present
either as *one endpoint* with one vocabulary — ``frame`` / ``due`` /
``receive`` in ``(dst, payload)`` pairs — so :class:`ChannelFacadeCases`
states each behaviour once; ``tests/test_faults.py`` and
``tests/test_net.py`` bind it to their façade, and
``tests/test_protocol_core.py`` drives both adapters with one schedule.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.faults import RetransmitChannels
from repro.net import WallClockChannels


def _deadlines(core):
    """``(dst, seq) -> (sent_at, attempts, due)`` of every pending frame."""
    return {
        key: (frame.sent_at, frame.attempts, frame.due)
        for key, frame in core._pending.items()
    }


class ClockedSystem:
    """The slice of System the channel/monitor layers consume."""

    def __init__(self, n=3):
        self.n = n
        self.clock = 0


class VirtualEndpoint:
    """Process ``pid``'s view of a :class:`RetransmitChannels`."""

    def __init__(self, pid=1, **timing):
        self.pid = pid
        self.system = ClockedSystem()
        self.channels = RetransmitChannels(self.system, **timing)
        self.core = self.channels._cores[pid]

    def frame(self, dst, payload, now):
        self.system.clock = now
        (effect,) = self.channels.send_effects(self.pid, dst, payload)
        assert effect.to == dst
        return effect.payload

    def due(self, now):
        effects = self.channels.due_retransmits(self.pid, now)
        return [(effect.to, effect.payload) for effect in effects]

    def receive(self, sender, payload, now):
        self.system.clock = now
        inner, effects = self.channels.on_receive(self.pid, sender, payload)
        assert all(effect.to == sender for effect in effects)
        return inner, [effect.payload for effect in effects]

    def pending(self):
        return self.channels.pending_count(self.pid)

    def deadlines(self):
        return _deadlines(self.core)

    def metrics(self):
        return self.channels.metrics()


class WallEndpoint:
    """A :class:`WallClockChannels` with jitter off (times may be ints)."""

    def __init__(self, pid=1, **timing):
        self.channels = self.core = WallClockChannels(pid, jitter=0, **timing)

    def frame(self, dst, payload, now):
        return self.channels.frame(dst, payload, now)

    def due(self, now):
        return self.channels.due_retransmits(now)

    def receive(self, sender, payload, now):
        return self.channels.on_receive(sender, payload, now)

    def pending(self):
        return self.channels.pending_count()

    def deadlines(self):
        return _deadlines(self.core)

    def metrics(self):
        return self.channels.metrics()


class ChannelFacadeCases:
    """Subclass as ``Test…`` with ``endpoint`` set to an adapter above."""

    endpoint = None

    def test_framing_and_sequence_numbers(self):
        ch = self.endpoint()
        assert ch.frame(2, "a", 0) == ("CH", 1, "a")
        assert ch.frame(2, "b", 0) == ("CH", 2, "b")
        assert ch.frame(3, "c", 0) == ("CH", 1, "c")  # numbered per destination
        assert ch.pending() == 3 and ch.metrics()["sent"] == 3

    def test_receiver_acks_and_dedups(self):
        ch = self.endpoint(pid=2)
        framed = ("CH", 1, ("WRITE", "r", 1, 7))
        assert ch.receive(1, framed, 0) == (("WRITE", "r", 1, 7), [("CH-ACK", 1)])
        # A duplicate is absorbed, but re-acked: the previous ack may
        # have been the lost leg.
        assert ch.receive(1, framed, 0) == (None, [("CH-ACK", 1)])
        assert ch.metrics()["duplicates_dropped"] == 1
        # Dedup is per sender.
        assert ch.receive(3, framed, 0)[0] == ("WRITE", "r", 1, 7)

    def test_ack_clears_pending(self):
        ch = self.endpoint()
        ch.frame(2, "x", 0)
        assert ch.receive(2, ("CH-ACK", 1), 1) == (None, [])
        assert ch.pending() == 0 and ch.metrics()["acked"] == 1
        # A duplicated or stray ack is harmless.
        ch.receive(2, ("CH-ACK", 1), 1)
        ch.receive(2, ("CH-ACK", 99), 1)
        assert ch.metrics()["acked"] == 1

    def test_retransmit_backoff_doubles_and_caps(self):
        ch = self.endpoint(base_timeout=4, max_backoff=16, max_retries=10)
        ch.frame(2, "x", 0)
        resend = [(2, ("CH", 1, "x"))]
        # Due at 4 (base), then 4 + 8 (base * 2^1), then every 16 (the cap).
        for quiet, due in ((3, 4), (11, 12), (27, 28), (43, 44)):
            assert ch.due(quiet) == []
            assert ch.due(due) == resend
        assert ch.metrics()["retransmitted"] == 4

    def test_exhaustion_abandons_the_frame(self):
        ch = self.endpoint(base_timeout=1, max_backoff=1, max_retries=2)
        ch.frame(2, "x", 0)
        resends = sum(len(ch.due(now)) for now in range(10, 110, 10))
        metrics = ch.metrics()
        assert resends == 2  # the full retry budget, then silence
        # A metric, not an exception.
        assert metrics["exhausted"] == 1 and metrics["pending"] == 0

    def test_unframed_payloads_pass_through(self):
        ch = self.endpoint(pid=2)
        assert ch.receive(1, ("READ", "r", 7), 0) == (("READ", "r", 7), [])
        assert ch.receive(1, "bare", 0) == ("bare", [])
        # A malformed frame (non-int seq) is discarded, not crashed on.
        assert ch.receive(1, ("CH", "seq", "x"), 0) == (None, [])
        assert ch.receive(1, ("CH", True, "x"), 0) == (None, [])
        # Nor does an ack with one: True == 1 and 2.0 == 2 hash like the
        # real sequence numbers, but acknowledge nothing.
        ch.frame(1, "a", 0)
        ch.frame(1, "b", 0)
        assert ch.receive(1, ("CH-ACK", True), 0) == (None, [])
        assert ch.receive(1, ("CH-ACK", 2.0), 0) == (None, [])
        assert ch.pending() == 2 and ch.metrics()["acked"] == 0

    def test_non_positive_sequence_numbers_are_refused(self):
        # Peers number frames from 1. A frame numbered 0 or below is
        # neither delivered nor acked, and the dedup window keeps nothing
        # for it: such a number could never fold into the delivered
        # prefix, so storing it would grow receiver state without bound.
        ch = self.endpoint(pid=2)
        for seq in (0, -7):
            assert ch.receive(1, ("CH", seq, "p"), 0) == (None, [])
        assert ch.receive(1, ("CH", 1, "q"), 0) == ("q", [("CH-ACK", 1)])
        window = ch.core._seen[1]
        assert (window.low, window.above) == (1, set())
        assert ch.metrics()["duplicates_dropped"] == 0

    def test_rejects_bad_timing(self):
        for timing in (
            dict(base_timeout=0),
            dict(base_timeout=10, max_backoff=5),
            dict(max_retries=-1),
        ):
            with pytest.raises(ConfigurationError):
                self.endpoint(**timing)
