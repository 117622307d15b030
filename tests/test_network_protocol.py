"""The Network protocol: one conformance driver over every implementation.

``System.network`` accepts anything satisfying
:class:`repro.mp.Network` (``submit`` / ``tick`` / ``pending``). This
suite drives :class:`RandomDelayNetwork`, :class:`ScriptedNetwork` and
:class:`repro.faults.FaultyNetwork` (over both) through the same
kernel-level driver, pins the :meth:`ScriptedNetwork.release_matching`
edge cases, and checks the incremental network fingerprint folds against
their from-scratch oracles — both standalone and folded through
``System.fingerprint``, and both when read from the first event and when
first read mid-run (the folds are maintained only once somebody asks).
"""

from __future__ import annotations

import pytest

from repro.errors import NetworkError
from repro.faults import FaultPlan, FaultyNetwork
from repro.mp import Network, RandomDelayNetwork, ScriptedNetwork
from repro.sim import Pause, ReceiveAll, Send, System


def _release_all(network):
    inner = network.inner if isinstance(network, FaultyNetwork) else network
    inner.release_all()


#: name -> (factory, pump). The pump releases held messages for the
#: scripted implementations; delay-based ones deliver on their own.
IMPLEMENTATIONS = {
    "random-delay": (lambda: RandomDelayNetwork(seed=3, max_delay=5), None),
    "scripted": (ScriptedNetwork, _release_all),
    "faulty-over-random": (
        lambda: FaultyNetwork(
            RandomDelayNetwork(seed=3, max_delay=5), FaultPlan.from_spec(())
        ),
        None,
    ),
    "faulty-delaying": (
        lambda: FaultyNetwork(
            RandomDelayNetwork(seed=3, max_delay=5),
            FaultPlan.from_spec((("delay", 0, 0, 1.0, 7),)),
        ),
        None,
    ),
    "faulty-over-scripted": (
        lambda: FaultyNetwork(ScriptedNetwork(), FaultPlan.from_spec(())),
        _release_all,
    ),
}


class TestNetworkConformance:
    """Every implementation through one driver, against the protocol."""

    @pytest.mark.parametrize("name", sorted(IMPLEMENTATIONS))
    def test_satisfies_the_protocol(self, name):
        factory, _pump = IMPLEMENTATIONS[name]
        assert isinstance(factory(), Network)

    @pytest.mark.parametrize("name", sorted(IMPLEMENTATIONS))
    def test_delivers_everything_exactly_once(self, name):
        factory, pump = IMPLEMENTATIONS[name]
        system = System(n=3)
        system.network = factory()
        boxes = {2: [], 3: []}

        def sender():
            for index in range(4):
                yield Send(2, ("m", index))
                yield Send(3, ("m", index))

        def receiver(pid):
            def program():
                while True:
                    boxes[pid].extend((yield ReceiveAll()))
                    yield Pause()

            return program()

        system.spawn(1, "s", sender())
        system.spawn(2, "r", receiver(2))
        system.spawn(3, "r", receiver(3))
        system.run(80)
        if pump is not None:
            assert boxes == {2: [], 3: []}  # scripted: nothing moves alone
            pump(system.network)
        system.run(200)
        expected = [(1, ("m", index)) for index in range(4)]
        assert boxes[2] == expected and boxes[3] == expected
        assert system.network.pending() == 0

    @pytest.mark.parametrize("name", sorted(IMPLEMENTATIONS))
    def test_pending_counts_undelivered_messages(self, name):
        factory, pump = IMPLEMENTATIONS[name]
        network = factory()
        for index in range(3):
            network.submit(1, 2, ("m", index), now=0)
        assert network.pending() == 3

        delivered = []

        class _Sink:
            @staticmethod
            def deliver(sender, dest, payload):
                delivered.append((sender, dest, payload))

        if pump is not None:
            pump(network)
        # Delay rules re-submit into the inner network on the first
        # tick; a second, later tick drains the inner queue too.
        network.tick(1_000, _Sink())
        network.tick(2_000, _Sink())
        assert network.pending() == 0
        assert len(delivered) == 3


class TestFoldsArePaidOnFirstUse:
    """No implementation digests a message before somebody asks for the
    fold; the first ask rebuilds it from the queue and every later event
    maintains it — for all five, standalone and through ``System``."""

    class _Sink:
        @staticmethod
        def deliver(sender, dest, payload):
            pass

    def drive(self, network, pump, indexes):
        for index in indexes:
            network.submit(1 + index % 2, 2 + index % 3, ("m", index), index)
            if pump is not None and index % 4 == 3:
                pump(network)
            if index % 7 == 0:
                network.tick(index, self._Sink())
            yield index

    @pytest.mark.parametrize("name", sorted(IMPLEMENTATIONS))
    def test_first_fold_mid_run_equals_the_oracle_and_stays_equal(self, name):
        factory, pump = IMPLEMENTATIONS[name]
        network = factory()
        for _ in self.drive(network, pump, range(14)):
            pass
        # The oracle may be consulted any number of times before the
        # first incremental read without starting the maintenance (a
        # gate flipped here would leave the fold short of these 14).
        early = network.fingerprint_fold(full=True)
        assert early != 0
        for _ in self.drive(network, pump, range(14, 27)):
            pass
        assert network.pending() > 0
        first = network.fingerprint_fold()
        assert first == network.fingerprint_fold(full=True) != early
        for _ in self.drive(network, pump, range(27, 70)):
            assert network.fingerprint_fold() == network.fingerprint_fold(full=True)
        if pump is not None:
            pump(network)
        network.tick(1_000, self._Sink())
        network.tick(2_000, self._Sink())
        assert network.pending() == 0
        assert network.fingerprint_fold() == network.fingerprint_fold(full=True) == 0

    @pytest.mark.parametrize("name", sorted(IMPLEMENTATIONS))
    def test_late_system_fingerprint_equals_an_always_observed_twin(self, name):
        factory, pump = IMPLEMENTATIONS[name]

        def build():
            system = System(n=3)
            system.network = factory()

            def sender():
                for index in range(12):
                    yield Send(2 + index % 2, ("m", index))

            def receiver():
                while True:
                    yield ReceiveAll()
                    yield Pause()

            system.spawn(1, "s", sender())
            system.spawn(2, "r", receiver())
            system.spawn(3, "r", receiver())
            return system

        def step(system, index):
            system.run(1)
            if pump is not None and index % 5 == 4:
                pump(system.network)

        late, observed = build(), build()
        for index in range(17):
            step(late, index)
            step(observed, index)
            observed.fingerprint()
        assert late.network.pending() > 0
        assert late.fingerprint(full=True) == observed.fingerprint()
        assert late.fingerprint() == late.fingerprint(full=True)
        for index in range(17, 90):
            step(late, index)
            step(observed, index)
            assert late.fingerprint() == late.fingerprint(full=True)
            assert late.fingerprint() == observed.fingerprint()
        assert late.network.pending() == 0


class TestReleaseMatching:
    """ScriptedNetwork.release_matching edge cases."""

    def held(self):
        network = ScriptedNetwork()
        network.submit(1, 2, "a", now=0)
        network.submit(1, 3, "b", now=0)
        network.submit(2, 3, "c", now=0)
        network.submit(1, 2, "d", now=0)
        return network

    def test_limit_applies_after_the_filters(self):
        network = self.held()
        # Three messages match sender=1; the limit keeps the first two
        # (held order), not two arbitrary ones.
        assert network.release_matching(sender=1, limit=2) == 2
        assert [entry[3] for entry in network.held()] == ["c", "d"]

    def test_sender_and_dest_filters_compose(self):
        network = self.held()
        assert network.release_matching(sender=1, dest=2) == 2
        assert [entry[3] for entry in network.held()] == ["b", "c"]

    def test_zero_matches_is_a_no_op(self):
        network = self.held()
        assert network.release_matching(sender=9) == 0
        assert len(network.held()) == 4

    def test_release_unknown_id_raises(self):
        network = self.held()
        with pytest.raises(NetworkError):
            network.release(99)
        # The failed release left the held set untouched.
        assert len(network.held()) == 4

    def test_delivery_order_is_release_order_across_partial_releases(self):
        network = self.held()
        delivered = []

        class _Sink:
            @staticmethod
            def deliver(sender, dest, payload):
                delivered.append(payload)

        # Two partial releases out of submission order: deliveries must
        # follow release order, and stay stable within each release.
        network.release_matching(dest=3)  # b, c
        network.release_matching(dest=2)  # a, d
        network.tick(1, _Sink())
        assert delivered == ["b", "c", "a", "d"]
        assert network.pending() == 0


class TestNetworkFingerprintFolds:
    """Incremental folds == from-scratch oracles, standalone and in System."""

    class _Sink:
        @staticmethod
        def deliver(sender, dest, payload):
            pass

    def test_random_delay_fold_incremental_matches_full(self):
        network = RandomDelayNetwork(seed=7, max_delay=9)
        for index in range(40):
            network.submit(1 + index % 2, 2, ("m", index), index)
            if index % 7 == 0:
                network.tick(index, self._Sink())
            assert network.fingerprint_fold() == network.fingerprint_fold(full=True)
        network.tick(1_000, self._Sink())
        assert network.fingerprint_fold() == 0

    def test_scripted_fold_tracks_held_and_release_queue(self):
        network = ScriptedNetwork()
        for index in range(6):
            network.submit(1, 2, ("m", index), 0)
            assert network.fingerprint_fold() == network.fingerprint_fold(full=True)
        network.release_matching(limit=2)
        assert network.fingerprint_fold() == network.fingerprint_fold(full=True)
        network.release(4)
        assert network.fingerprint_fold() == network.fingerprint_fold(full=True)
        network.tick(1, self._Sink())
        assert network.fingerprint_fold() == network.fingerprint_fold(full=True)
        network.release_all()
        network.tick(2, self._Sink())
        assert network.fingerprint_fold() == 0

    def test_queue_fold_distinguishes_release_order(self):
        # Same held set released in different orders must fold apart:
        # the release queue delivers in order, so order is state.
        def fold(first_dest, second_dest):
            network = ScriptedNetwork()
            network.submit(1, 2, "x", 0)
            network.submit(1, 3, "y", 0)
            network.release_matching(dest=first_dest)
            network.release_matching(dest=second_dest)
            return network.fingerprint_fold()

        assert fold(2, 3) != fold(3, 2)

    def test_system_fingerprint_folds_the_network(self):
        def build():
            system = System(n=2)
            system.network = RandomDelayNetwork(seed=1, max_delay=30)

            def sender():
                yield Send(2, "x")
                yield Send(2, "y")

            def receiver():
                while True:
                    yield ReceiveAll()

            system.spawn(1, "s", sender())
            system.spawn(2, "r", receiver())
            return system

        system = build()
        system.run(3)
        # Mid-flight: incremental == full, identical builds agree, and
        # the in-flight queue is part of the digest (drain it and the
        # fingerprint moves).
        assert system.network.pending() > 0
        mid = system.fingerprint()
        assert mid == system.fingerprint(full=True)
        twin = build()
        twin.run(3)
        assert mid == twin.fingerprint()
        system.run(200)
        assert system.network.pending() == 0
        assert system.fingerprint() == system.fingerprint(full=True)
        assert system.fingerprint() != mid

    def test_faulty_network_fold_reaches_system_fingerprint(self):
        system = System(n=2)
        system.network = FaultyNetwork(
            RandomDelayNetwork(seed=1, max_delay=30),
            FaultPlan.from_spec((("delay", 0, 0, 1.0, 50),)),
        )

        def sender():
            yield Send(2, "x")

        def receiver():
            while True:
                yield ReceiveAll()

        system.spawn(1, "s", sender())
        system.spawn(2, "r", receiver())
        system.run(5)
        assert system.network.pending() == 1  # held by the delay rule
        assert system.fingerprint() == system.fingerprint(full=True)
        before = system.fingerprint()
        system.run(200)
        assert system.network.pending() == 0
        assert system.fingerprint() == system.fingerprint(full=True)
        assert system.fingerprint() != before
