"""Register workloads: generation, adversaries, the builder.

Everything the randomized experiments (E1–E3, E10), the campaign's
register cells and the test suite share lives here:

* :func:`make_register` — registry of register implementations by kind.
* :func:`random_register_workload` — seeded operation scripts shaped to
  each register type's vocabulary (writers write/sign, readers read and
  verify a mix of signed, unsigned and never-written values).
* the ``register`` scenario builder, which *is* the harness: it builds a
  system + register + helpers + scripted clients (+ optional
  adversaries) for Algorithms 1–3 and the ablation strawmen,
  parameterized by kind, n, seed and adversary mix, and its
  ``BuiltScenario`` drives the run and judges it with both register
  oracles (observable properties, then Byzantine linearizability).
  Every caller runs it the same way —
  ``make_scenario("register", ...).build(scheduler)``, ``drive()``,
  ``check()`` — whether the scheduler is the experiments' seeded
  :class:`~repro.sim.RandomScheduler` or an explorer's.
* :func:`adversary_grid`, which fans the E1–E3 adversary mixes into
  ``register`` specs so swarm campaigns can spread Byzantine behaviour
  combinations across cores.

Determinism: every random choice flows from the spec's seed and the
scheduler's, so any failing configuration replays exactly from its
spec label — which the experiment tables and the test suite print on
failure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.adversary import behaviors
from repro.core import (
    AuthenticatedRegister,
    NaiveQuorumVerifiableRegister,
    SignedVerifiableRegister,
    StickyRegister,
    VerifiableRegister,
)
from repro.errors import ConfigurationError
from repro.scenarios.bindings import checker_for_kind
from repro.scenarios.registry import (
    BuiltScenario,
    Scenario,
    make_scenario,
    register_builder,
)
from repro.scenarios.sweeps import SWEEP_ADVERSARIES, feasible_mixes
from repro.sim import FunctionClient, OpCall, ScriptClient, System
from repro.sim.process import all_done, pause_steps
from repro.sim.scheduler import Scheduler
from repro.spec import CheckContext


def make_register(
    kind: str,
    system: System,
    name: str = "reg",
    writer: int = 1,
    f: Optional[int] = None,
    initial: Any = 0,
) -> Any:
    """Instantiate a register implementation by kind name."""
    if kind == "verifiable":
        return VerifiableRegister(system, name, writer=writer, f=f, initial=initial)
    if kind == "authenticated":
        return AuthenticatedRegister(system, name, writer=writer, f=f, initial=initial)
    if kind == "sticky":
        return StickyRegister(system, name, writer=writer, f=f)
    if kind == "signed":
        return SignedVerifiableRegister(
            system, name, writer=writer, f=f, initial=initial
        )
    if kind == "naive-quorum":
        return NaiveQuorumVerifiableRegister(
            system, name, writer=writer, f=f, initial=initial
        )
    raise ConfigurationError(f"unknown register kind {kind!r}")


# ----------------------------------------------------------------------
# Random scripts
# ----------------------------------------------------------------------
@dataclass
class Workload:
    """Operation scripts for one scenario.

    ``writer_ops`` is a list of (op, args); ``reader_ops[pid]`` likewise.
    """

    writer_ops: List[Tuple[str, Tuple[Any, ...]]]
    reader_ops: Dict[int, List[Tuple[str, Tuple[Any, ...]]]]


def random_register_workload(
    kind: str,
    readers: Sequence[int],
    seed: int,
    writer_op_count: int = 6,
    reader_op_count: int = 5,
    domain: Sequence[Any] = (10, 20, 30),
) -> Workload:
    """Seeded scripts shaped to the register kind's operation vocabulary.

    Readers probe written, signed, *and* never-written values so that
    both verify outcomes are exercised; sticky writers attempt repeat
    writes (which must be idempotent no-ops).
    """
    rng = random.Random(seed)
    domain = list(domain)
    foreign = [d * 1000 + 7 for d in domain]  # values nobody ever writes
    writer_ops: List[Tuple[str, Tuple[Any, ...]]] = []

    if kind == "sticky":
        writer_ops.append(("write", (rng.choice(domain),)))
        if rng.random() < 0.5:
            writer_ops.append(("write", (rng.choice(domain),)))
    elif kind == "authenticated":
        for _ in range(writer_op_count):
            writer_ops.append(("write", (rng.choice(domain),)))
    else:  # verifiable-shaped vocabularies
        written: List[Any] = []
        for _ in range(writer_op_count):
            if written and rng.random() < 0.45:
                # Sign something (usually written, sometimes not).
                pool = written if rng.random() < 0.8 else foreign
                writer_ops.append(("sign", (rng.choice(pool),)))
            else:
                value = rng.choice(domain)
                written.append(value)
                writer_ops.append(("write", (value,)))

    reader_ops: Dict[int, List[Tuple[str, Tuple[Any, ...]]]] = {}
    for pid in readers:
        ops: List[Tuple[str, Tuple[Any, ...]]] = []
        for _ in range(reader_op_count):
            if kind == "sticky":
                ops.append(("read", ()))
            elif rng.random() < 0.4:
                ops.append(("read", ()))
            else:
                pool = domain if rng.random() < 0.75 else foreign
                ops.append(("verify", (rng.choice(pool),)))
        reader_ops[pid] = ops
    return Workload(writer_ops=writer_ops, reader_ops=reader_ops)


# ----------------------------------------------------------------------
# Adversary registry
# ----------------------------------------------------------------------
#: Names the ``register`` builder accepts as writer / reader adversaries.
WRITER_ADVERSARIES = ("none", "silent", "deny", "equivocate", "garbage")
READER_ADVERSARIES = ("silent", "garbage", "lying", "stonewall", "flipflop")


def writer_adversary_program(
    name: str, register: Any, kind: str, domain: Sequence[Any]
) -> Any:
    """Instantiate a Byzantine *writer* behaviour for ``register``."""
    if name == "silent":
        return behaviors.silent()
    if name == "garbage":
        return behaviors.garbage_spammer(
            behaviors.owned_register_names(register, register.writer)
        )
    if name == "deny":
        if kind == "authenticated":
            return behaviors.denying_writer_authenticated(register, domain[0])
        return behaviors.denying_writer_verifiable(register, domain[0])
    if name == "equivocate":
        if kind == "sticky":
            return behaviors.equivocating_writer_sticky(
                register, domain[0], domain[-1]
            )
        return behaviors.equivocating_writer_verifiable(register, domain)
    raise ConfigurationError(f"unknown writer adversary {name!r}")


def reader_adversary_program(
    name: str, register: Any, pid: int, kind: str, domain: Sequence[Any]
) -> Any:
    """Instantiate a Byzantine *reader/helper* behaviour for ``register``."""
    if name == "silent":
        return behaviors.silent()
    if name == "garbage":
        return behaviors.garbage_spammer(
            behaviors.owned_register_names(register, pid)
        )
    if name == "lying":
        if kind == "sticky":
            return behaviors.sticky_lying_witness(register, pid, domain[0])
        return behaviors.lying_witness(register, pid, [d * 31 + 1 for d in domain])
    if name == "stonewall":
        return behaviors.stonewalling_witness(register, pid)
    if name == "flipflop":
        return behaviors.flip_flop_witness(register, pid, domain[0], yes_rounds=2)
    raise ConfigurationError(f"unknown reader adversary {name!r}")


# ----------------------------------------------------------------------
# Randomized register workloads (Algorithms 1-3 and ablations)
# ----------------------------------------------------------------------
#: Value domain of the generated operations and of the adversaries.
_DOMAIN = (10, 20, 30)

#: Pause steps before each reader's script (reader ``i`` waits
#: ``(i + 1) * _READER_STAGGER``), so reads overlap the writer's
#: operations rather than trivially following them. It is think time,
#: not a wait on a register, so it stays a run of pauses — and it is
#: what lets the swarm reach the §5.1 strawman: over swarm seeds 0–99
#: the naive flip-flop cell violates in 93 runs with the stagger and in
#: 10 without it (``tests/test_naive.py`` guards that rate).
_READER_STAGGER = 40


def _build_register(
    scheduler: Scheduler,
    kind: str = "verifiable",
    n: int = 4,
    seed: int = 0,
    writer_adversary: str = "none",
    reader_adversaries: Tuple[Tuple[int, str], ...] = (),
    max_steps: int = 2_000_000,
    ctx: Optional[CheckContext] = None,
) -> BuiltScenario:
    """A seeded register workload under any scheduler.

    The seed shapes the operation scripts (:func:`random_register_workload`)
    while the scheduler owns the interleaving; pid 1 is the writer, the
    register starts at ``0`` and ``f`` is the system default
    ``(n - 1) // 3``. ``writer_adversary`` is ``"none"`` for a correct
    scripted writer, else a :data:`WRITER_ADVERSARIES` behaviour;
    ``reader_adversaries`` is a tuple of (pid, behaviour) pairs (not a
    dict) so specs stay hashable.
    """
    readers_cast = dict(reader_adversaries)
    system = System(n=n, scheduler=scheduler)
    register = make_register(kind, system, "reg", writer=1)
    register.install()

    byzantine = set(readers_cast)
    if writer_adversary != "none":
        byzantine.add(register.writer)
    if byzantine:
        system.declare_byzantine(*byzantine)
    register.start_helpers(sorted(system.correct))

    correct_readers = [pid for pid in register.readers if pid not in byzantine]
    workload = random_register_workload(kind, correct_readers, seed)

    clients: List[ScriptClient] = []
    if writer_adversary == "none":
        writer_calls = [
            OpCall(
                register.name,
                op,
                args,
                (lambda op=op, args=args: getattr(
                    register, f"procedure_{op}"
                )(register.writer, *args)),
            )
            for op, args in workload.writer_ops
        ]
        writer_client = ScriptClient(writer_calls, pause_between=5)
        clients.append(writer_client)
        system.spawn(register.writer, "client", writer_client.program())
    else:
        system.spawn(
            register.writer,
            "client",
            writer_adversary_program(writer_adversary, register, kind, _DOMAIN),
        )

    for index, pid in enumerate(correct_readers):
        calls = [
            OpCall(
                register.name,
                op,
                args,
                (lambda pid=pid, op=op, args=args: getattr(
                    register, f"procedure_{op}"
                )(pid, *args)),
            )
            for op, args in workload.reader_ops.get(pid, [])
        ]
        client = ScriptClient(calls, pause_between=7)
        clients.append(client)

        def staggered(client=client, delay=(index + 1) * _READER_STAGGER):
            yield from pause_steps(delay)
            yield from client.program()

        wrapper = FunctionClient(staggered)
        client._wrapper = wrapper  # keep completion observable
        system.spawn(pid, "client", wrapper.program())

    for pid, name in sorted(readers_cast.items()):
        system.spawn(
            pid,
            "client",
            reader_adversary_program(name, register, pid, kind, _DOMAIN),
        )

    # The completion watcher for each client is its stagger wrapper when
    # one exists; resolving that once keeps the per-step done-predicate
    # off the getattr chain.
    all_scripts_done = all_done([getattr(c, "_wrapper", c) for c in clients])

    def drive() -> None:
        system.run_until(all_scripts_done, max_steps, label="all clients")

    def check() -> Optional[str]:
        check_properties, check_byzantine = checker_for_kind(kind)
        # The sticky checkers take no initial value (it is always ⊥).
        initial = {} if kind == "sticky" else {"initial": 0}
        report = check_properties(
            system.history,
            system.correct,
            register.name,
            writer=register.writer,
            ctx=ctx,
            **initial,
        )
        verdict = check_byzantine(
            system.history,
            system.correct,
            register.name,
            writer=register.writer,
            ctx=ctx,
            **initial,
        )
        if not report.ok:
            return "; ".join(report.violations)
        if not verdict.ok:
            return f"Byzantine linearizability: {verdict.reason}"
        return None

    return BuiltScenario(system=system, drive=drive, check=check)


# Builders must stay importable from worker processes (top level of
# their module), because pool workers re-resolve specs by name.
register_builder("register", _build_register)


def adversary_grid(
    kind: str = "verifiable",
    n: int = 4,
    seeds: Sequence[int] = (0, 1),
    mixes: Optional[Sequence[Tuple[str, Dict[int, str]]]] = None,
) -> List[Scenario]:
    """Scenario specs cycling register adversary behaviour combinations.

    The swarm fuzzer fans these across cores: each spec pairs a seeded
    workload with one adversary mix from the E1–E3 sweeps (the
    registry-owned behaviour-combination axis of a swarm campaign,
    orthogonal to the schedule axis), filtered to the topology by
    :func:`repro.scenarios.sweeps.feasible_mixes` exactly as in
    ``correctness_sweep``. ``mixes`` overrides the sweep table — the
    catalog expands its campaign-growth grids
    (``repro.scenarios.sweeps.EXTRA_SWEEP_ADVERSARIES``) through the
    same filter and spec construction by passing them here.
    """
    if mixes is None:
        if kind not in SWEEP_ADVERSARIES:
            raise ConfigurationError(
                f"no adversary sweep for register kind {kind!r}; "
                f"known: {', '.join(sorted(SWEEP_ADVERSARIES))}"
            )
        mixes = SWEEP_ADVERSARIES[kind]
    return [
        make_scenario(
            "register",
            kind=kind,
            n=n,
            seed=seed,
            writer_adversary=writer_adversary,
            reader_adversaries=tuple(sorted(readers.items())),
        )
        for seed in seeds
        for writer_adversary, readers in feasible_mixes(mixes, n)
    ]
