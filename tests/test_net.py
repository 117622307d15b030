"""Tests for the live-network runtime (repro.net).

Wire framing, the wall-clock retransmit channels and progress monitor,
the asyncio socket cluster end to end (fault-free, under seeded chaos,
under a quorum-starving partition, and through a crash-restart), the
online oracle's corpus-compatible evidence with its byte-identical
offline re-check, and the registry/CLI integration of the net family.

Everything here runs real localhost TCP sockets on wall clocks, so the
cluster tests use deliberately small profiles; the pinned smoke cells
at CI scale live in the registry (``scenarios --list --consumer net``)
and run through ``python -m repro.analysis net``.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.errors import ConfigurationError, NetworkError
from repro.faults import FaultPlan
from repro.net import (
    CLEAN,
    STALLED,
    ChaosClock,
    ChaosProxy,
    LiveCluster,
    LiveProfile,
    NetNode,
    WallClockChannels,
    WallClockProgressMonitor,
    check_evidence,
    evidence_bytes,
    run_live,
    window_evidence,
)
from repro.net import wire
from repro.net.channels import MIN_RTO
from repro.spec import CheckContext
from tests.channel_cases import ChannelFacadeCases, WallEndpoint


# ----------------------------------------------------------------------
# Wire framing
# ----------------------------------------------------------------------
class TestWire:
    def roundtrip(self, doc):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(wire.encode(doc))
            reader.feed_eof()
            return await wire.read_doc(reader)

        return asyncio.run(go())

    def test_roundtrip_refreezes_a_batch_and_freeze_restores_tuples(self):
        # Tuples serialize as JSON arrays; the decode path re-freezes a
        # msg batch so protocol payloads stay hashable after the trip,
        # and receivers freeze any other field themselves.
        payload = ("WRITE", "reg:1", (3, (4, 5)))
        assert self.roundtrip(wire.msg(payload, ("ACK", "reg:1", 3))) == {
            "t": "msg",
            "m": (payload, ("ACK", "reg:1", 3)),
        }
        doc = self.roundtrip({"t": "req", "args": payload})
        assert doc == {"t": "req", "args": ["WRITE", "reg:1", [3, [4, 5]]]}
        assert wire.freeze(doc["args"]) == payload

    def test_eof_mid_frame_reads_as_disconnect(self):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(wire.encode({"a": 1})[:3])  # truncated prefix
            reader.feed_eof()
            return await wire.read_doc(reader)

        assert asyncio.run(go()) is None

    def test_oversized_frame_rejected_both_ways(self):
        with pytest.raises(NetworkError):
            wire.encode({"blob": "x" * wire.MAX_FRAME})

        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data((wire.MAX_FRAME + 1).to_bytes(4, "big") + b"{}")
            return await wire.read_doc(reader)

        with pytest.raises(NetworkError):
            asyncio.run(go())

    def test_handshake_and_message_shapes(self):
        assert wire.hello(3) == {"t": "hello", "pid": 3}
        assert wire.msg(("ACK", 1)) == {"t": "msg", "m": (("ACK", 1),)}
        assert wire.msg(("ACK", 1), ("ACK", 2))["m"] == (("ACK", 1), ("ACK", 2))


# ----------------------------------------------------------------------
# Wall-clock retransmit channels
# ----------------------------------------------------------------------
class TestWallClockChannels(ChannelFacadeCases):
    """The shared channel cases, plus what only this façade has."""

    endpoint = WallEndpoint

    @staticmethod
    def round_trip(ch, dst, sent, acked):
        """Frame to ``dst`` at ``sent``, ack it at ``acked``."""
        _kind, seq, _payload = ch.frame(dst, "x", sent)
        assert ch.on_receive(dst, ("CH-ACK", seq), acked) == (None, [])

    @staticmethod
    def resend_once(ch):
        """Lose one frame to peer 9 and ack its resend: ``ch`` has now
        retransmitted, so it times round trips, and nothing is pending."""
        _kind, seq, _payload = ch.frame(9, "lost", 0.0)
        assert len(ch.due_retransmits(1.0)) == 1
        ch.on_receive(9, ("CH-ACK", seq), 1.0)
        assert ch.pending_count() == 0 and ch._rtt == {}

    @pytest.mark.parametrize("sample", [None, 0.3, 0.0001])
    def test_backoff_caps_and_jitter_stays_below_the_cap(self, sample):
        # Before any round trip, after one that pushes the RTO to the
        # cap, and after one that pulls it to the floor.
        ch = WallClockChannels(
            pid=1, base_timeout=0.05, max_backoff=0.4, jitter=0.25, seed=3
        )
        if sample is not None:
            self.resend_once(ch)
            self.round_trip(ch, 2, 0.0, sample)
        rto = ch.rto(2)
        assert rto == {None: 0.05, 0.3: 0.4, 0.0001: MIN_RTO}[sample]
        ch.frame(2, "x", now=1.0)
        # Jitter is downward-only, so the first interval never exceeds
        # the RTO and the cap is a true upper bound: sampled one cap
        # after the previous resend, the frame is always due.
        assert len(ch.due_retransmits(1.0 + rto)) == 1
        now = 1.0 + rto
        for _ in range(11):
            now += 0.4
            assert len(ch.due_retransmits(now)) == 1
        # And it does shave: some interval came in under its backoff.
        ch = WallClockChannels(pid=1, base_timeout=0.05, jitter=0.25, seed=3)
        for dst in range(2, 12):
            ch.frame(dst, "x", now=0.0)
        assert len(ch.due_retransmits(0.0499)) >= 1

    def test_the_rto_is_base_timeout_until_a_round_trip_is_measured(self):
        ch = WallClockChannels(pid=1, base_timeout=0.05, jitter=0)
        assert ch.rto(2) == 0.05
        # Nothing resent yet: a clean round trip is not timed.
        self.round_trip(ch, 3, 0.0, 0.002)
        assert ch.rto(3) == 0.05 and ch._rtt == {}
        ch.frame(2, "x", now=1.0)
        assert ch.due_retransmits(1.0499) == []
        assert len(ch.due_retransmits(1.05)) == 1
        # From the first resend on, first-copy round trips are timed...
        self.round_trip(ch, 3, 2.0, 2.002)
        assert ch.rto(3) == MIN_RTO
        # ...but not by an ack without a clock (the two-argument call of
        # the channel probe in benchmarks/e2e/layers.py): that clears
        # the frame and times nothing.
        ch.frame(2, "y", now=3.0)
        ch.on_receive(2, ("CH-ACK", 2))
        assert ch.pending_count() == 1 and ch.rto(2) == 0.05

    def test_srtt_and_rttvar_follow_rfc_6298(self):
        ch = WallClockChannels(pid=1, base_timeout=0.05, max_backoff=0.8, jitter=0)
        self.resend_once(ch)
        # First sample R: SRTT = R, RTTVAR = R/2. Then RTTVAR = 3/4 RTTVAR
        # + 1/4 |SRTT - R| (old SRTT), SRTT = 7/8 SRTT + 1/8 R; RTO =
        # SRTT + 4 RTTVAR. Worked by hand:
        expected = [
            (0.020, 0.020, 0.010, 0.060),
            (0.004, 0.018, 0.0115, 0.064),
            (0.030, 0.0195, 0.011625, 0.066),
        ]
        for index, (sample, srtt, rttvar, rto) in enumerate(expected):
            self.round_trip(ch, 2, float(index), index + sample)
            assert tuple(ch._rtt[2]) == pytest.approx((srtt, rttvar))
            assert ch.rto(2) == pytest.approx(rto)
        assert ch.rto(3) == 0.05  # per destination
        # The next frame's first deadline is one RTO out.
        ch.frame(2, "x", now=10.0)
        assert ch.due_retransmits(10.0 + 0.066 - 1e-9) == []
        assert len(ch.due_retransmits(10.0 + 0.066 + 1e-9)) == 1

    def test_the_rto_is_clamped_to_the_floor_and_the_cap(self):
        ch = WallClockChannels(pid=1, base_timeout=0.05, max_backoff=0.4, jitter=0)
        self.resend_once(ch)
        for index in range(20):
            self.round_trip(ch, 2, float(index), index + 0.0001)
        assert ch.rto(2) == MIN_RTO
        self.round_trip(ch, 3, 0.0, 5.0)
        assert ch.rto(3) == 0.4

    def test_a_retransmitted_frame_gives_no_sample(self):
        # Karn's rule: an ack after a resend may answer either copy.
        ch = WallClockChannels(pid=1, base_timeout=0.05, jitter=0)
        ch.frame(2, "x", now=0.0)
        assert len(ch.due_retransmits(0.05)) == 1
        ch.on_receive(2, ("CH-ACK", 1), 0.051)
        assert ch.pending_count() == 0 and ch.acked == 1
        assert ch.rto(2) == 0.05 and ch._rtt == {}

    def test_a_forged_or_stray_ack_moves_nothing(self):
        ch = WallClockChannels(pid=1, base_timeout=0.05, jitter=0)
        self.resend_once(ch)
        ch.frame(2, "x", now=0.0)
        for sender, payload in (
            (2, ("CH-ACK", 7)),  # nothing sent under that seq
            (3, ("CH-ACK", 1)),  # seq 1 went to 2, not to 3
            (2, ("CH-ACK", True)),  # == 1, but not a sequence number
            (2, ("CH-ACK", 1.0)),
            (2, ("CH-ACK", "1")),
        ):
            assert ch.on_receive(sender, payload, 0.02) == (None, [])
        assert ch.pending_count() == 1 and ch.acked == 1  # the resend's
        assert ch.rto(2) == ch.rto(3) == 0.05 and ch._rtt == {}

    def test_rejects_bad_jitter(self):
        with pytest.raises(ConfigurationError):
            WallClockChannels(pid=1, jitter=1.5)


# ----------------------------------------------------------------------
# Wall-clock progress monitor
# ----------------------------------------------------------------------
class TestWallClockProgressMonitor:
    def test_rejects_window_within_channel_backoff(self):
        ch = WallClockChannels(pid=1, base_timeout=0.05, max_backoff=0.8)
        with pytest.raises(ConfigurationError) as info:
            WallClockProgressMonitor(
                signals=lambda: (), window=0.8, channels=(ch,)
            )
        assert "capped backoff" in str(info.value)
        WallClockProgressMonitor(signals=lambda: (), window=0.81, channels=(ch,))

    def test_stall_fires_with_diagnosis_and_progress_defers_it(self):
        async def go():
            counter = [0]
            monitor = WallClockProgressMonitor(
                signals=lambda: (counter[0],),
                window=0.1,
                describe_pending=lambda: "c0 write(reg:1) 0.1s",
                describe_suppression=lambda: "plan[test]",
            )
            monitor.start()
            try:
                # Progress keeps the window open...
                for _ in range(3):
                    counter[0] += 1
                    await asyncio.sleep(0.05)
                assert not monitor.stalled_event.is_set()
                # ...silence closes it.
                await asyncio.wait_for(monitor.stalled_event.wait(), 2.0)
            finally:
                await monitor.stop()
            return monitor.stalled

        stalled = asyncio.run(go())
        assert stalled.startswith("STALLED: no progress for 0.1s (wall clock)")
        assert "pending: c0 write(reg:1) 0.1s" in stalled
        assert "plan[test]" in stalled


# ----------------------------------------------------------------------
# Shutdown
# ----------------------------------------------------------------------
class TestShutdown:
    def test_stop_returns_while_peers_hold_connections_open(self):
        # Since Python 3.12.1 ``Server.wait_closed()`` waits for every
        # accepted connection, so a stop() that awaits it before closing
        # them never returns once a single peer has dialled in.
        async def go():
            node = NetNode(1, 4, 1, {"reg:1": (1, 0)})
            await node.start()
            proxy = ChaosProxy(
                FaultPlan.from_spec(()), 1, ("127.0.0.1", node.port), ChaosClock()
            )
            await proxy.start()
            # A peer dials in through the proxy, sends one frame, and
            # then just holds the connection.
            reader, writer = await asyncio.open_connection("127.0.0.1", proxy.port)
            writer.write(wire.encode(wire.hello(2)))
            writer.write(wire.encode(wire.msg(("READ", "reg:1", 1))))
            await writer.drain()
            for _ in range(100):
                if node.delivered:
                    break
                await asyncio.sleep(0.01)
            assert node.delivered == 1
            await asyncio.wait_for(proxy.stop(), 5.0)
            await asyncio.wait_for(node.stop(), 5.0)
            # Crash-stop: the peer's connection was dropped, not drained.
            assert await asyncio.wait_for(reader.read(), 5.0) == b""
            writer.close()

        asyncio.run(go())


# ----------------------------------------------------------------------
# The cluster end to end
# ----------------------------------------------------------------------
def small_profile(**overrides):
    params = dict(
        n=4,
        f=1,
        clients=8,
        rounds=1,
        ops_per_client=2,
        seed=0,
        label="test.net",
    )
    params.update(overrides)
    return LiveProfile(**params)


class TestLiveCluster:
    def test_fault_free_load_is_clean_on_every_window(self):
        report = run_live(small_profile())
        assert report.verdict == CLEAN and report.clean
        assert report.rounds_completed == 1
        assert report.windows and all(
            doc["verdict"]["ok"] for doc in report.windows
        )
        # One window per register plus the asset-transfer window.
        assert {doc["object"] for doc in report.windows} == {
            "assets",
            "reg:1",
            "reg:2",
            "reg:3",
            "reg:4",
        }
        summary = report.load
        assert summary["ops"] == 8 * 2 and summary["ops_per_s"] > 0

    def test_seeded_chaos_with_retransmit_stays_clean(self):
        report = run_live(
            small_profile(
                faults=(
                    ("drop", 0, 0, 0.2),
                    ("dup", 0, 0, 0.1),
                    ("delay", 0, 0, 0.15, 9),
                ),
                fault_seed=7,
            )
        )
        assert report.verdict == CLEAN
        dropped = sum(
            proxy["dropped"] for proxy in report.chaos["proxies"].values()
        )
        assert dropped > 0  # the proxies really were lossy...
        retransmitted = sum(
            node["channels"]["retransmitted"] for node in report.nodes
        )
        assert retransmitted > 0  # ...and the channel layer healed them.

    def test_quorum_starving_partition_pins_stalled(self):
        report = run_live(
            small_profile(
                faults=(("partition", ((1, 2), (3, 4)), 0, None),),
                fault_seed=3,
                window=1.0,
                max_backoff=0.3,
            )
        )
        assert report.verdict == STALLED
        assert report.diagnosis.startswith("STALLED: no progress")
        assert "pending:" in report.diagnosis
        assert "plan[partition(1,2|3,4)" in report.diagnosis
        assert "cut=" in report.diagnosis  # suppressed-link diagnosis
        assert report.rounds_completed == 0

    def test_crash_restart_recovers_and_stays_clean(self):
        report = run_live(
            small_profile(
                rounds=2,
                faults=(("crash", 3, 200, 700),),
                fault_seed=1,
                window=3.0,
            )
        )
        assert report.verdict == CLEAN
        assert report.rounds_completed == 2


# ----------------------------------------------------------------------
# Evidence: corpus-compatible JSON, byte-identical offline re-check
# ----------------------------------------------------------------------
class TestEvidence:
    def run_clean(self):
        return run_live(small_profile())

    def test_every_window_rechecks_byte_identically(self):
        report = self.run_clean()
        ctx = CheckContext()
        for doc in report.windows:
            stored = evidence_bytes(doc)
            # Through a full JSON round trip, as the offline CLI path
            # (`net --check`) reads it back from disk.
            reloaded = json.loads(stored.decode("ascii"))
            assert evidence_bytes(check_evidence(reloaded, ctx=ctx)) == stored

    def test_tampered_evidence_is_rejected(self):
        report = self.run_clean()
        doc = json.loads(evidence_bytes(report.windows[0]).decode("ascii"))
        doc["kind"] = "not-a-window"
        with pytest.raises(ConfigurationError):
            check_evidence(doc)

    def test_verdict_flip_is_detected_offline(self):
        report = self.run_clean()
        doc = json.loads(evidence_bytes(report.windows[0]).decode("ascii"))
        doc["verdict"]["ok"] = not doc["verdict"]["ok"]
        rechecked = check_evidence(doc)
        assert rechecked["verdict"]["ok"] != doc["verdict"]["ok"]
        assert evidence_bytes(rechecked) != evidence_bytes(doc)


# ----------------------------------------------------------------------
# Registry + CLI integration
# ----------------------------------------------------------------------
class TestNetRegistry:
    def net_records(self):
        from repro.scenarios.registry import all_records

        return [rec for rec in all_records() if rec.family == "net"]

    def test_pinned_cells_resolve_to_profiles(self):
        from repro.scenarios.net_live import profile_for_record

        records = self.net_records()
        assert len(records) == 3
        expectations = [rec.expect_violation for rec in records]
        assert expectations == [False, False, True]  # clean, lossy, split
        for rec in records:
            profile = profile_for_record(rec)
            assert isinstance(profile, LiveProfile)
            assert (profile.n, profile.f) == (rec.n, rec.f)
            assert profile.label == rec.label()

    def test_live_cells_refuse_to_build_under_a_scheduler(self):
        from repro.scenarios.registry import resolve_spec
        from repro.sim import RandomScheduler

        spec = resolve_spec("net_cluster", (("clients", 8),))
        with pytest.raises(ConfigurationError) as info:
            spec.build(RandomScheduler(seed=0))
        assert "wall-clock" in str(info.value)

    def test_cli_check_accepts_cluster_evidence(self, tmp_path, capsys):
        from repro.analysis.net import main as net_main

        report = run_live(small_profile())
        path = tmp_path / "evidence.json"
        body = b"[" + b",".join(
            evidence_bytes(doc) for doc in report.windows
        ) + b"]"
        path.write_bytes(body)
        assert net_main(["--check", str(path)]) == 0
        out = capsys.readouterr().out
        assert "byte-identically" in out

    def test_cli_cell_lookup_by_fingerprint_and_label(self):
        from repro.analysis.net import _build_profile

        record = self.net_records()[0]

        class Args:
            cell = record.fingerprint()

        profile, expect = _build_profile(Args())
        assert profile.label == record.label() and expect is False
        Args.cell = record.label()
        profile, _expect = _build_profile(Args())
        assert profile.label == record.label()
