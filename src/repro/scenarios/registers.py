"""Register workloads: generation, the scenario harness, the builder.

Everything the randomized experiments (E1–E3, E10), the ``register``
scenario builder and the test suite share lives here:

* :func:`make_register` — registry of register implementations by kind.
* :class:`PreparedRegisterScenario` — builds a system + register +
  helpers + scripted clients (+ optional adversaries), runs it to
  completion, and produces both correctness verdicts.
* :func:`random_register_workload` — seeded operation scripts shaped to
  each register type's vocabulary (writers write/sign, readers read and
  verify a mix of signed, unsigned and never-written values).
* the ``register`` scenario builder — those workloads (Algorithms 1–3
  plus ablation strawmen) parameterized by kind, n, seed and adversary
  mix under an exploration scheduler — and :func:`adversary_grid`, which
  fans the E1–E3 adversary mixes into ``register`` specs so swarm
  campaigns can spread Byzantine behaviour combinations across cores.

Determinism: every random choice flows from the caller's seed, so any
failing configuration replays exactly from its ``(kind, n, f, seed,
adversary)`` coordinates — which the test suite prints on failure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.adversary import behaviors
from repro.core import (
    AuthenticatedRegister,
    NaiveQuorumVerifiableRegister,
    SignedVerifiableRegister,
    StickyRegister,
    VerifiableRegister,
)
from repro.errors import ConfigurationError, EarlyExitInterrupt
from repro.scenarios.bindings import checker_for_kind, monitor_family_for_kind
from repro.scenarios.registry import (
    BuiltScenario,
    Scenario,
    make_scenario,
    register_builder,
)
from repro.scenarios.sweeps import SWEEP_ADVERSARIES, feasible_mixes
from repro.sim import (
    FunctionClient,
    OpCall,
    RandomScheduler,
    ScriptClient,
    System,
)
from repro.sim.process import all_done, pause_steps
from repro.sim.scheduler import Scheduler
from repro.spec import (
    ByzantineVerdict,
    CheckContext,
    PropertyReport,
)
from repro.spec.properties import EarlyPropertyMonitor


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
#: Names accepted by RegisterScenario's writer_adversary / reader_adversary.
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
# Scenario harness
# ----------------------------------------------------------------------
@dataclass
class ScenarioOutcome:
    """Everything a finished scenario exposes for checking and metrics."""

    kind: str
    n: int
    f: int
    seed: int
    adversary: str
    system: System
    register: Any
    report: PropertyReport
    verdict: ByzantineVerdict
    steps: int

    @property
    def ok(self) -> bool:
        """True iff both the property report and the linearization passed."""
        return bool(self.report) and bool(self.verdict)

    def coordinates(self) -> str:
        """Replay coordinates for failure messages."""
        return (
            f"kind={self.kind} n={self.n} f={self.f} seed={self.seed} "
            f"adversary={self.adversary}"
        )

    def failure_detail(self) -> str:
        """Full diagnostics: coordinates, report, verdict, history."""
        return "\n".join(
            [
                self.coordinates(),
                "property report: " + self.report.summary(),
                "byzantine verdict: "
                + ("ok" if self.verdict.ok else self.verdict.reason),
                "history:",
                self.system.history.describe(),
            ]
        )


@dataclass
class PreparedRegisterScenario:
    """A fully built register scenario that has not yet taken a step.

    The build/run/check split exists for ``repro.explore``: the explorer
    installs its ``on_step`` observer and trace scheduler between
    construction and execution. :func:`run_register_scenario` is the
    one-shot convenience wrapper that most callers keep using.
    """

    kind: str
    n: int
    f: int
    seed: int
    adversary: str
    system: System
    register: Any
    initial: Any
    done: Callable[[], bool]
    #: Shared oracle caches for this run's checks (optional accelerator).
    ctx: Optional[CheckContext] = None
    #: Early-exit monitor wired to the history (None without early_exit).
    monitor: Optional[EarlyPropertyMonitor] = None

    def run(self, max_steps: int = 2_000_000) -> int:
        """Drive the system until every scripted client finished.

        With an early-exit monitor attached, the run additionally stops
        the moment the partial history carries a violation that no
        extension can retract (the monitor's one-shot
        :class:`~repro.errors.EarlyExitInterrupt`) — the final
        :meth:`finish` check on the truncated history then reports it
        without simulating the tail.
        """
        try:
            return self.system.run_until(
                self.done, max_steps, label="all clients"
            )
        except EarlyExitInterrupt:
            # Only an armed monitor raises. Fresh systems clock from
            # zero, so the clock *is* the step count of this
            # (truncated) run.
            return self.system.clock

    def finish(self, steps: int) -> ScenarioOutcome:
        """Check the produced history and package the outcome."""
        check_properties, check_byzantine = checker_for_kind(self.kind)
        if self.kind == "sticky":
            report = check_properties(
                self.system.history,
                self.system.correct,
                self.register.name,
                writer=self.register.writer,
                ctx=self.ctx,
            )
            verdict = check_byzantine(
                self.system.history,
                self.system.correct,
                self.register.name,
                writer=self.register.writer,
                ctx=self.ctx,
            )
        else:
            report = check_properties(
                self.system.history,
                self.system.correct,
                self.register.name,
                writer=self.register.writer,
                initial=self.initial,
                ctx=self.ctx,
            )
            verdict = check_byzantine(
                self.system.history,
                self.system.correct,
                self.register.name,
                writer=self.register.writer,
                initial=self.initial,
                ctx=self.ctx,
            )
        return ScenarioOutcome(
            kind=self.kind,
            n=self.n,
            f=self.f,
            seed=self.seed,
            adversary=self.adversary,
            system=self.system,
            register=self.register,
            report=report,
            verdict=verdict,
            steps=steps,
        )


def prepare_register_scenario(
    kind: str,
    n: int,
    seed: int = 0,
    f: Optional[int] = None,
    writer_adversary: str = "none",
    reader_adversaries: Optional[Dict[int, str]] = None,
    workload: Optional[Workload] = None,
    scheduler: Optional[Scheduler] = None,
    domain: Sequence[Any] = (10, 20, 30),
    initial: Any = 0,
    reader_stagger: int = 40,
    ctx: Optional[CheckContext] = None,
    early_exit: bool = False,
) -> PreparedRegisterScenario:
    """Build (but do not run) one complete register scenario.

    Args:
        kind: One of :func:`repro.scenarios.bindings.register_kinds`.
        n: Process count (pid 1 is the writer).
        seed: Drives the scheduler and the workload generator.
        f: Fault bound (defaults to ``(n-1)//3``).
        writer_adversary: ``"none"`` for a correct scripted writer, else a
            :data:`WRITER_ADVERSARIES` behaviour.
        reader_adversaries: pid -> behaviour name for Byzantine readers.
        workload: Pre-built scripts (random ones are generated when None).
        scheduler: Defaults to a seeded :class:`RandomScheduler`.
        domain: Value domain for generated operations.
        reader_stagger: Pause steps inserted before each reader's script
            so operations overlap the writer's rather than trivially
            following it.
        ctx: Shared :class:`CheckContext` for the final checks.
        early_exit: Attach an :class:`EarlyPropertyMonitor` so the run
            stops as soon as the partial history is irrecoverably
            violating (see :meth:`PreparedRegisterScenario.run`).
    """
    reader_adversaries = dict(reader_adversaries or {})
    adversary_label = writer_adversary
    if reader_adversaries:
        pretty = ",".join(
            f"p{pid}:{name}" for pid, name in sorted(reader_adversaries.items())
        )
        adversary_label += f"+{pretty}"

    system = System(
        n=n, f=f, scheduler=scheduler or RandomScheduler(seed=seed)
    )
    register = make_register(kind, system, "reg", writer=1, f=f, initial=initial)
    register.install()

    byzantine = set(reader_adversaries)
    if writer_adversary != "none":
        byzantine.add(register.writer)
    if byzantine:
        system.declare_byzantine(*byzantine)
    register.start_helpers(sorted(system.correct))

    correct_readers = [pid for pid in register.readers if pid not in byzantine]
    if workload is None:
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
            writer_adversary_program(writer_adversary, register, kind, domain),
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

        def staggered(client=client, delay=(index + 1) * reader_stagger):
            yield from pause_steps(delay)
            yield from client.program()

        wrapper = FunctionClient(staggered)
        client._wrapper = wrapper  # keep completion observable
        system.spawn(pid, "client", wrapper.program())

    for pid, name in sorted(reader_adversaries.items()):
        system.spawn(
            pid,
            "client",
            reader_adversary_program(name, register, pid, kind, domain),
        )

    # The completion watcher for each client is its stagger wrapper when
    # one exists; resolving that once keeps the per-step done-predicate
    # off the getattr chain.
    all_scripts_done = all_done([getattr(c, "_wrapper", c) for c in clients])

    monitor: Optional[EarlyPropertyMonitor] = None
    if early_exit:
        monitor = EarlyPropertyMonitor(
            system.history,
            monitor_family_for_kind(kind),
            system.correct,
            register.name,
            writer=register.writer,
            initial=initial,
            interrupt=True,
        )
        system.history.on_complete = monitor.on_complete

    return PreparedRegisterScenario(
        kind=kind,
        n=n,
        f=system.f if f is None else f,
        seed=seed,
        adversary=adversary_label,
        system=system,
        register=register,
        initial=initial,
        done=all_scripts_done,
        ctx=ctx,
        monitor=monitor,
    )


def run_register_scenario(
    kind: str,
    n: int,
    seed: int = 0,
    f: Optional[int] = None,
    writer_adversary: str = "none",
    reader_adversaries: Optional[Dict[int, str]] = None,
    workload: Optional[Workload] = None,
    scheduler: Optional[Scheduler] = None,
    domain: Sequence[Any] = (10, 20, 30),
    initial: Any = 0,
    max_steps: int = 2_000_000,
    reader_stagger: int = 40,
) -> ScenarioOutcome:
    """Build, run, and check one complete register scenario.

    See :func:`prepare_register_scenario` for the parameters; this
    wrapper drives the prepared scenario to completion and returns a
    :class:`ScenarioOutcome` with verdicts already computed.
    """
    prepared = prepare_register_scenario(
        kind,
        n,
        seed=seed,
        f=f,
        writer_adversary=writer_adversary,
        reader_adversaries=reader_adversaries,
        workload=workload,
        scheduler=scheduler,
        domain=domain,
        initial=initial,
        reader_stagger=reader_stagger,
    )
    steps = prepared.run(max_steps)
    return prepared.finish(steps)


# ----------------------------------------------------------------------
# Randomized register workloads (Algorithms 1-3 and ablations)
# ----------------------------------------------------------------------
def _build_register(
    scheduler: Scheduler,
    kind: str = "verifiable",
    n: int = 4,
    seed: int = 0,
    writer_adversary: str = "none",
    reader_adversaries: Tuple[Tuple[int, str], ...] = (),
    max_steps: int = 2_000_000,
    ctx: Optional[CheckContext] = None,
    early_exit: bool = False,
) -> BuiltScenario:
    """A seeded register workload under an exploration scheduler.

    Thin adapter over :func:`prepare_register_scenario`; the seed shapes
    the operation scripts while the explorer's scheduler owns the
    interleaving. ``reader_adversaries`` is a tuple of pairs (not a
    dict) so specs stay hashable.
    """
    prepared = prepare_register_scenario(
        kind,
        n,
        seed=seed,
        writer_adversary=writer_adversary,
        reader_adversaries=dict(reader_adversaries),
        scheduler=scheduler,
        ctx=ctx,
        early_exit=early_exit,
    )
    outcome_box: List[Any] = []

    def drive() -> None:
        steps = prepared.run(max_steps)
        outcome_box.append(steps)

    def check() -> Optional[str]:
        outcome = prepared.finish(outcome_box[0] if outcome_box else 0)
        if outcome.ok:
            return None
        if not outcome.report.ok:
            return "; ".join(outcome.report.violations)
        return f"Byzantine linearizability: {outcome.verdict.reason}"

    return BuiltScenario(system=prepared.system, drive=drive, check=check)


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
