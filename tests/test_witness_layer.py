"""The shared ask/answer layer of Algorithms 1–3.

Verify (Algorithms 1 and 2) and the sticky Read (Algorithm 3) share one
asker round, and all three Help daemons share one asker scan and one
reply write (``WitnessRegister`` in ``repro.core.interfaces``). These
tests pin what that layer yields: the per-step ``(coroutine, effect)``
sequence of seeded register runs, the asker round's ``n <= 3f`` dead
end, and the ``0 <= f < n`` configuration guard.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields

import pytest

from repro.core import AuthenticatedRegister, StickyRegister, VerifiableRegister
from repro.errors import ConfigurationError
from repro.scenarios import make_scenario
from repro.sim import Pause, ReadRegister, RoundRobinScheduler, System, WriteRegister
from repro.sim.values import stable_key


def effect_trace(kind: str, writer_adversary: str):
    """Step count and blake2b digest of one round-robin register run.

    Each step is encoded as its coroutine id, the effect's class and
    ``stable_key`` of the effect's field values (register name and
    value for reads and writes), so the digest does not depend on
    ``PYTHONHASHSEED``.
    """
    built = make_scenario(
        "register", kind=kind, n=4, seed=0, writer_adversary=writer_adversary
    ).build(RoundRobinScheduler())
    digest = hashlib.blake2b(digest_size=16)
    steps = 0

    def on_step(cid, effect):
        nonlocal steps
        steps += 1
        if effect is None:
            body = "end"
        else:
            values = tuple(getattr(effect, f.name) for f in fields(effect))
            body = f"{type(effect).__name__} {stable_key(values)}"
        digest.update(f"{cid[0]}:{cid[1]} {body}\n".encode())

    built.system.on_step = on_step
    built.drive()
    assert built.check() is None
    return steps, digest.hexdigest()


@pytest.mark.parametrize(
    "kind, writer_adversary, steps, digest",
    [
        ("verifiable", "none", 1493, "927d7379238aa5d3a6ff96c287364022"),
        ("verifiable", "deny", 1502, "f0ab8aa193d76282204fffe623126f65"),
        ("authenticated", "none", 2028, "75a5bb1bd0f3bdb30ac32c887316771c"),
        ("authenticated", "deny", 2060, "9442b99569a57909f440c14ff0a55772"),
        ("sticky", "none", 1992, "1e43962123bdccd8c39168edd9c7b686"),
        ("sticky", "equivocate", 2034, "62043ace1e3fcb4e8d24e21c70c091b2"),
    ],
)
def test_effect_sequence_pinned(kind, writer_adversary, steps, digest):
    assert effect_trace(kind, writer_adversary) == (steps, digest)


@pytest.mark.parametrize(
    "register_class", [VerifiableRegister, AuthenticatedRegister, StickyRegister]
)
def test_ask_dead_end_only_pauses(register_class):
    # Every pid already classified: after bumping C_k the round can only
    # pause (the n <= 3f dead end) and never polls a reply channel.
    register = register_class(System(n=4), "reg")
    round_ = register.ask(2, set(register.pids))
    assert next(round_) == ReadRegister(register.reg_counter(2))
    assert round_.send(0) == WriteRegister(register.reg_counter(2), 1)
    for _ in range(50):
        assert round_.send(None) == Pause()


@pytest.mark.parametrize("f", [-1, 4, 5])
def test_fault_bound_outside_zero_to_n_refused(f):
    # At f >= n Verify's n - f yes-quorum is empty: the first reply of
    # any kind would verify a never-written value.
    with pytest.raises(ConfigurationError, match="0 <= f < n"):
        VerifiableRegister(System(n=4), f=f)


def test_fault_bound_below_n_accepted():
    assert VerifiableRegister(System(n=4), f=3).f == 3
