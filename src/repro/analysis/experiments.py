"""Experiment drivers E1–E12 and the one table that judges them.

Each driver runs one experiment of the reproduction plan and returns
``(headers, rows)`` ready for ``reporting.render_table``.
:data:`EXPERIMENTS` maps every experiment id to its title, its driver
at the sizes ``python -m repro.analysis`` runs, and ``holds`` — the
qualitative shape the paper predicts for the table. The CLI iterates it
and ``tests/test_experiments.py`` executes every entry, so there is one
statement of what each table must show.

The drivers are deliberately deterministic: seeds are fixed parameters,
so the tables regenerate bit-identically.
"""

from __future__ import annotations

import statistics
from typing import (
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.adversary import behaviors, run_figure1
from repro.analysis.metrics import (
    LatencyStats,
    merge_latency_samples,
    operation_latencies,
)
from repro.apps import SignedReliableBroadcast
from repro.core import (
    AuthenticatedRegister,
    NaiveQuorumVerifiableRegister,
    StickyRegister,
    TestOrSetFromAuthenticated,
    TestOrSetFromSticky,
    TestOrSetFromVerifiable,
    VerifiableRegister,
    as_reply_pair,
)
from repro.errors import StepLimitExceeded
from repro.mp import (
    AuthenticatedBroadcast,
    RandomDelayNetwork,
    RegisterEmulation,
    declare_registers,
    translate,
    translated_help,
)
from repro.scenarios import BuiltScenario, Scenario, binding_for, grid, make_scenario
from repro.scenarios.registers import adversary_grid
from repro.scenarios.sweeps import SWEEP_ADVERSARIES, feasible_mixes
from repro.sim import (
    FunctionClient,
    OpCall,
    PriorityScheduler,
    RandomScheduler,
    ScriptClient,
    System,
    WriteRegister,
)
from repro.sim.process import all_done, idle_forever, pause_steps
from repro.sim.values import is_bottom
from repro.spec import judge

Headers = Sequence[str]
Rows = List[Sequence[Any]]


# ----------------------------------------------------------------------
# Running a registry scenario
# ----------------------------------------------------------------------
def _run(spec: Scenario) -> Tuple[BuiltScenario, Optional[str]]:
    """Build ``spec`` under ``RandomScheduler`` at the spec's own seed,
    drive it to completion and judge it with the builder's oracle;
    returns the finished run and the violation reason (None if clean)."""
    built = spec.build(RandomScheduler(seed=dict(spec.params)["seed"]))
    built.drive()
    return built, built.check()


# ----------------------------------------------------------------------
# E1–E3: correctness sweeps for Algorithms 1–3 (Theorems 14, 20, 25)
# ----------------------------------------------------------------------
# The adversary mixes each sweep cycles through, and the filter that fits
# them to a topology, are owned by the unified scenario registry — one
# source for these sweeps, adversary_grid and the campaign's register
# cells (see repro.scenarios.sweeps).


def correctness_sweep(
    kind: str,
    ns: Sequence[int] = (4, 7, 10),
    seeds: Sequence[int] = (0, 1, 2),
) -> Tuple[Headers, Rows]:
    """Randomized histories across n, seeds, and adversary mixes.

    For each configuration: run the seeded ``register`` scenario, judge
    it with the builder's oracles (observable properties, Obs 11–24,
    then full Byzantine linearizability), and report pass/fail plus the
    mean verify/read latency of correct processes. Any failure row
    carries the failing run's spec label, from which it replays.
    """
    rows: Rows = []
    for n in ns:
        f = (n - 1) // 3
        for adv_writer, readers in feasible_mixes(SWEEP_ADVERSARIES[kind], n):
            specs = adversary_grid(
                kind, n=n, seeds=seeds, mixes=[(adv_writer, readers)]
            )
            runs = [(spec,) + _run(spec) for spec in specs]
            all_ok = all(reason is None for _spec, _built, reason in runs)
            pooled = merge_latency_samples(
                operation_latencies(
                    built.system.history, obj="reg", pids=built.system.correct
                )
                for _spec, built, _reason in runs
            )
            probe_op = "read" if kind == "sticky" else "verify"
            probe = pooled.get(probe_op, [])
            adversary = adv_writer
            if readers:
                adversary += "+" + ",".join(
                    f"p{pid}:{name}" for pid, name in sorted(readers.items())
                )
            rows.append(
                (
                    n,
                    f,
                    adversary,
                    len(runs),
                    all_ok,
                    round(statistics.mean(probe), 1) if probe else "-",
                    max(probe) if probe else "-",
                    "" if all_ok else next(
                        spec.label()
                        for spec, _built, reason in runs
                        if reason is not None
                    ),
                )
            )
    headers = (
        "n",
        "f",
        "adversary",
        "runs",
        "correct",
        f"mean {'read' if kind == 'sticky' else 'verify'} steps",
        "max",
        "failure",
    )
    return headers, rows


# ----------------------------------------------------------------------
# E5: Theorem 29 / Figure 1
# ----------------------------------------------------------------------
def impossibility_table(
    fs: Sequence[int] = (1, 2, 3),
) -> Tuple[Headers, Rows]:
    """The Figure 1 histories vs the quorum candidate, n = 3f and 3f + 1.

    At ``n = 3f`` both threshold choices are attacked (the default
    ``n - f`` and the lowered ``f``); each must break one Lemma 28
    property. At ``n = 3f + 1`` the default threshold must survive.
    """
    rows: Rows = []
    for f in fs:
        strict = run_figure1(f=f)
        rows.append(
            (
                3 * f,
                f,
                strict.accept_threshold,
                strict.h1_test_result,
                strict.h2_test_result,
                strict.h3_test_result,
                strict.indistinguishable,
                strict.violated or "nothing",
            )
        )
        lowered = run_figure1(f=f, accept_threshold=f)
        rows.append(
            (
                3 * f,
                f,
                lowered.accept_threshold,
                lowered.h1_test_result,
                lowered.h2_test_result,
                lowered.h3_test_result,
                lowered.indistinguishable,
                lowered.violated or "nothing",
            )
        )
        control = run_figure1(f=f, extra_correct=True)
        rows.append(
            (
                3 * f + 1,
                f,
                control.accept_threshold,
                control.h1_test_result,
                control.h2_test_result,
                control.h3_test_result,
                control.indistinguishable,
                control.violated or "nothing",
            )
        )
    headers = (
        "n",
        "f",
        "accept τ",
        "H1 Test",
        "H2 Test'",
        "H3 Test'",
        "pb views equal",
        "violated",
    )
    return headers, rows


# ----------------------------------------------------------------------
# E6: test-or-set from each register (Observation 30)
# ----------------------------------------------------------------------
def test_or_set_table(
    n: int = 4, seeds: Sequence[int] = (0, 1, 2)
) -> Tuple[Headers, Rows]:
    """Set/Test workloads on all three register-backed test-or-sets.

    (Not a pytest test despite the name — see the trailing ``__test__``.)

    Each run: a setter Set, concurrent and subsequent Tests by every
    reader, plus one run with a *Byzantine-silent* setter (Tests must
    then all agree on 0 or follow the relay rule).
    """
    rows: Rows = []
    oracle = binding_for("test_or_set")
    builders = {
        "verifiable": lambda system: TestOrSetFromVerifiable(
            VerifiableRegister(system, "tosreg", initial=0), name="tos"
        ),
        "authenticated": lambda system: TestOrSetFromAuthenticated(
            AuthenticatedRegister(system, "tosreg", initial=0), name="tos"
        ),
        "sticky": lambda system: TestOrSetFromSticky(
            StickyRegister(system, "tosreg"), name="tos"
        ),
    }
    for kind, builder in builders.items():
        for setter_mode in ("correct", "byzantine-silent"):
            all_ok = True
            latencies: List[int] = []
            for seed in seeds:
                system = System(n=n, scheduler=RandomScheduler(seed=seed))
                tos = builder(system)
                tos.install()
                if setter_mode == "byzantine-silent":
                    system.declare_byzantine(1)
                    tos.start_helpers(sorted(system.correct))
                    system.spawn(1, "client", behaviors.silent())
                else:
                    tos.start_helpers()
                    setter = ScriptClient(
                        [OpCall("tos", "set", (), lambda: tos.procedure_set(1))]
                    )
                    system.spawn(1, "client", setter.program())
                testers: List[ScriptClient] = []
                for pid in range(2, n + 1):
                    client = ScriptClient(
                        [
                            OpCall(
                                "tos",
                                "test",
                                (),
                                lambda pid=pid: tos.procedure_test(pid),
                            )
                            for _ in range(2)
                        ],
                        pause_between=11,
                    )
                    testers.append(client)
                    system.spawn(pid, "client", client.program())
                system.run_until(all_done(testers), 2_000_000)
                reason = judge(
                    system.history, system.correct, "tos", oracle.spec_factory(),
                    oracle.rules, owner=1,
                )
                all_ok = all_ok and reason is None
                latencies.extend(
                    operation_latencies(
                        system.history, obj="tos", pids=system.correct
                    ).get("test", [])
                )
            rows.append(
                (
                    kind,
                    setter_mode,
                    len(seeds),
                    all_ok,
                    round(statistics.mean(latencies), 1) if latencies else "-",
                )
            )
    headers = ("backing register", "setter", "runs", "correct", "mean test steps")
    return headers, rows


# ----------------------------------------------------------------------
# E7 / E8: applications
# ----------------------------------------------------------------------
def _cast(spec: Scenario) -> str:
    """An app spec's Byzantine cast as ``p4:deny``-style text."""
    byzantine = dict(spec.params).get("byzantine", ())
    return ",".join(f"p{pid}:{name}" for pid, name in byzantine) or "none"


def _distinct_delivered(system: System, sender: int) -> int:
    """Distinct non-⊥ messages correct processes delivered from
    ``sender``'s slot 0 (each E8 system runs one broadcast object)."""
    return len(
        {
            record.result
            for record in system.history.operations(
                op="deliver", complete_only=True
            )
            if record.pid in system.correct
            and record.args == (sender, 0)
            and not is_bottom(record.result)
        }
    )


def broadcast_table(seeds: Sequence[int] = (0, 1)) -> Tuple[Headers, Rows]:
    """Non-equivocating + reliable broadcast under an equivocating sender.

    The signature-free (sticky) rows are the registry's ``n = 4``
    equivocating-sender records of both broadcast families, judged by
    their :class:`repro.spec.BroadcastSpec` oracle: they must come back
    linearizable with at most one message delivered from the
    equivocator's slot. The signature-based comparator is run under the
    same attack to exhibit its residual weakness (two different
    validly-signed messages delivered), which is the [4] observation
    that signatures alone do not give uniqueness; no registry oracle
    judges it, because that failure *is* the row.
    """
    rows: Rows = []
    # Each spec is registered once per engine; one run per spec suffices.
    sticky = {
        record.spec: record
        for record in grid(
            families=("broadcast", "reliable_broadcast"), expect_violation=False
        )
        if record.n == 4 and _cast(record.spec) == "p4:equivocate"
    }
    for seed in seeds:
        for record in sticky.values():
            spec = record.seeded(seed).spec
            built, reason = _run(spec)
            delivered = _distinct_delivered(built.system, sender=4)
            rows.append(
                (
                    f"{spec.name} (sticky)",
                    seed,
                    "equivocating sender",
                    delivered,
                    delivered <= 1,
                    reason is None,
                )
            )

        # --- signature-based comparator under the same attack. ---
        system = System(n=4, scheduler=RandomScheduler(seed=seed))
        sig = SignedReliableBroadcast(system, "sigrbc", slots=1).install()
        system.declare_byzantine(1)

        def equivocating_sender():
            # Sign-and-publish msgA, then overwrite with signed msgB:
            # both validly signed, so receivers at different times
            # deliver different messages.
            yield from sig.procedure_broadcast(1, 0, "msgA")
            yield from pause_steps(40)
            yield from sig.procedure_broadcast(1, 0, "msgB")
            yield from idle_forever()

        system.spawn(1, "client", equivocating_sender())
        receivers: List[ScriptClient] = []
        for pid in range(2, 5):
            client = ScriptClient(
                [
                    OpCall(
                        "sigrbc",
                        "deliver",
                        (1, 0),
                        lambda pid=pid: sig.procedure_deliver(pid, 1, 0),
                    )
                    for _ in range(3)
                ],
                pause_between=29,
            )
            receivers.append(client)
            system.spawn(pid, "client", client.program())
        system.run_until(all_done(receivers), 2_000_000)
        delivered = _distinct_delivered(system, sender=1)
        rows.append(
            (
                "signed (n>2f comparator)",
                seed,
                "equivocating sender",
                delivered,
                delivered <= 1,
                "-",
            )
        )
    headers = (
        "implementation",
        "seed",
        "attack",
        "distinct delivered",
        "unique",
        "linearizable",
    )
    return headers, rows


def snapshot_table(seeds: Sequence[int] = (0, 1)) -> Tuple[Headers, Rows]:
    """Atomic snapshot: concurrent updates and scans, Byzantine peers.

    One row per expect-clean ``snapshot`` record of the registry (the
    witness-then-deny helper and the stale-scan Byzantine updater, at
    ``n = 3f`` and ``n = 3f + 1``) and seed, judged by the record's own
    :class:`repro.spec.SnapshotSpec` linearizability oracle over the
    correct processes' updates and scans.
    """
    rows: Rows = []
    for record in grid(families=("snapshot",), expect_violation=False):
        for seed in seeds:
            built, reason = _run(record.seeded(seed).spec)
            system = built.system
            scans = system.history.restrict(system.correct).operations(
                op="scan", complete_only=True
            )
            rows.append(
                (
                    _cast(record.spec),
                    record.n,
                    record.f,
                    seed,
                    len(scans),
                    reason is None,
                )
            )
    headers = ("byzantine", "n", "f", "seed", "scans", "linearizable")
    return headers, rows


# ----------------------------------------------------------------------
# E9: message passing
# ----------------------------------------------------------------------
def message_passing_table(seeds: Sequence[int] = (0, 1)) -> Tuple[Headers, Rows]:
    """Algorithm 1 over the MP register emulation, plus ST87 acceptance."""
    rows: Rows = []
    for seed in seeds:
        system = System(n=4, f=1)
        system.network = RandomDelayNetwork(seed=seed, max_delay=6)
        emu = RegisterEmulation(system)
        reg = VerifiableRegister(system, "vreg", initial=0)
        declare_registers(emu, reg)
        for pid in system.pids:
            system.spawn(pid, "replica", emu.replica_program(pid))
            system.spawn(pid, "help", translated_help(emu, reg, pid))

        def writer():
            yield from translate(emu, 1, reg.op(1, "write", 9))
            result = yield from translate(emu, 1, reg.op(1, "sign", 9))
            return result

        w = FunctionClient(writer)
        system.spawn(1, "client", w.program())
        system.run_until(lambda: w.done, 4_000_000)

        def reader():
            value = yield from translate(emu, 2, reg.op(2, "read"))
            good = yield from translate(emu, 2, reg.op(2, "verify", 9))
            bad = yield from translate(emu, 2, reg.op(2, "verify", 555))
            return (value, good, bad)

        r = FunctionClient(reader)
        system.spawn(2, "client", r.program())
        system.run_until(lambda: r.done, 8_000_000)
        value, good, bad = r.result
        rows.append(
            (
                "Alg 1 over MP emulation",
                seed,
                system.clock,
                system.metrics.messages_sent,
                value == 9 and good is True and bad is False,
            )
        )

        # ST87 authenticated broadcast acceptance (the related-work
        # comparator whose acceptance is eventual, not linearizable).
        system2 = System(n=4, f=1)
        system2.network = RandomDelayNetwork(seed=seed + 100, max_delay=6)
        ab = AuthenticatedBroadcast(system2)
        for pid in system2.pids:
            system2.spawn(pid, "daemon", ab.daemon(pid))
        b = FunctionClient(lambda: ab.broadcast(1, "m", 1))
        system2.spawn(1, "client", b.program())
        system2.run_until(
            lambda: ab.everyone_accepted((1, "m", 1), list(system2.pids)),
            1_000_000,
        )
        rows.append(
            (
                "ST87 authenticated broadcast",
                seed,
                system2.clock,
                system2.metrics.messages_sent,
                True,
            )
        )
    headers = ("protocol", "seed", "steps", "messages", "correct")
    return headers, rows


# ----------------------------------------------------------------------
# E10: step complexity vs the signature baseline
# ----------------------------------------------------------------------
def step_complexity_table(
    ns: Sequence[int] = (4, 7, 10, 13),
    seeds: Sequence[int] = (0, 1, 2),
) -> Tuple[Headers, Rows]:
    """Mean operation latency (steps) by register kind and n.

    The shape to expect: the signature baseline's Verify is O(n) reads
    with no waiting; Algorithm 1's Verify pays the witness round
    machinery, growing faster with n — that gap is the *price of
    removing signatures*, and the fault bound (n > 3f vs n > f) is what
    the price buys.
    """
    rows: Rows = []
    for kind in ("verifiable", "signed", "authenticated", "sticky"):
        for n in ns:
            pooled: Dict[str, List[int]] = {}
            for seed in seeds:
                built, _reason = _run(
                    make_scenario("register", kind=kind, n=n, seed=seed)
                )
                for op, samples in operation_latencies(
                    built.system.history, obj="reg", pids=built.system.correct
                ).items():
                    pooled.setdefault(op, []).extend(samples)
            for op in sorted(pooled):
                stats = LatencyStats.from_samples(pooled[op])
                rows.append(
                    (kind, n, op, stats.count, round(stats.mean, 1), stats.maximum)
                )
    headers = ("kind", "n", "operation", "samples", "mean steps", "max steps")
    return headers, rows


# ----------------------------------------------------------------------
# E11: the §5.1 mechanism ablations
# ----------------------------------------------------------------------
def ablation_naive_quorum(seed: int = 0) -> Tuple[Headers, Rows]:
    """Flip-flop collusion vs naive quorum Verify vs Algorithm 1.

    Setup (n = 4, f = 1): a correct writer signs ``v``; the Byzantine
    helper p4 answers "yes" to the first verifier round and "no"
    afterwards; p2's Help daemon is scheduled very slowly (legal
    asynchrony). The naive "first n - f replies vs threshold" Verify then
    gives verifier A true and verifier B false — a relay violation —
    while Algorithm 1 under the *same* adversary and schedule stays
    correct (its set1 is monotonic and set0 resets give re-ask chances).
    """
    rows: Rows = []
    for kind in ("naive-quorum", "verifiable"):
        system = System(
            n=4,
            scheduler=PriorityScheduler(
                weights={(2, "help:reg"): 0.002}, seed=seed, fairness_bound=40_000
            ),
        )
        register = (
            NaiveQuorumVerifiableRegister(system, "reg", initial=0)
            if kind == "naive-quorum"
            else VerifiableRegister(system, "reg", initial=0)
        )
        register.install()
        system.declare_byzantine(4)
        register.start_helpers([1, 2, 3])
        system.spawn(
            4, "client", behaviors.flip_flop_witness(register, 4, 10, yes_rounds=1)
        )

        writer = ScriptClient(
            [
                OpCall("reg", "write", (10,), lambda: register.procedure_write(1, 10)),
                OpCall("reg", "sign", (10,), lambda: register.procedure_sign(1, 10)),
            ]
        )
        system.spawn(1, "client", writer.program())
        system.run_until(lambda: writer.done, 1_000_000)

        verifier_a = ScriptClient(
            [OpCall("reg", "verify", (10,), lambda: register.procedure_verify(3, 10))]
        )
        system.spawn(3, "client", verifier_a.program())
        system.run_until(lambda: verifier_a.done, 1_000_000)

        verifier_b = ScriptClient(
            [OpCall("reg", "verify", (10,), lambda: register.procedure_verify(2, 10))]
        )
        system.spawn(2, "client", verifier_b.program())
        system.run_until(lambda: verifier_b.done, 1_000_000)

        first = verifier_a.result_of("verify")
        second = verifier_b.result_of("verify")
        relay_ok = not (first is True and second is False)
        rows.append((kind, first, second, relay_ok))
    headers = ("verify strategy", "verifier A", "verifier B (later)", "relay holds")
    return headers, rows


def ablation_set0_reset(max_steps: int = 60_000) -> Tuple[Headers, Rows]:
    """Liveness ablation: Verify with and without the set0 reset.

    Orchestrated race (n = 4, f = 1, Byzantine writer silent after
    signing): reader p2 verifies; p3's helper answers "no" *before* the
    writer's sign lands; p4's and p2's helpers answer "yes" after. With
    the paper's reset, the "no" voter is re-asked and the Verify returns
    true. Without the reset (Lemma 37(3)'s mechanism disabled) the
    verify is left waiting on the silent Byzantine writer forever — a
    liveness failure, detected as a step-budget exhaustion.
    """
    rows: Rows = []
    for reset in (True, False):
        system = System(n=4)
        register = VerifiableRegister(system, "reg", initial=0, reset_set0=reset)
        register.install()
        system.declare_byzantine(1)

        # Stage 1: only p3's helper runs; p2 starts Verify(7); p3 replies
        # "no" (the writer has signed nothing yet).
        system.spawn(3, "help:reg", register.procedure_help(3))
        verifier = ScriptClient(
            [OpCall("reg", "verify", (7,), lambda: register.procedure_verify(2, 7))]
        )
        system.spawn(2, "client", verifier.program())

        def p3_replied_no() -> bool:
            payload, counter = as_reply_pair(
                system.registers.peek(register.reg_reply(3, 2))
            )
            return counter is not None and counter >= 1 and 7 not in payload

        system.run_until(p3_replied_no, max_steps, label="p3's no-reply")
        system.run(600)  # let the verifier consume the reply

        # Stage 2: the Byzantine writer "signs" 7 by writing its register
        # directly, then goes silent forever.
        def byz_sign():
            yield WriteRegister(register.reg_witness(1), frozenset({7}))

        signer = FunctionClient(byz_sign)
        system.spawn(1, "byz", signer.program())
        system.run_until(lambda: signer.done, max_steps, label="byz sign")

        # Stage 3: p4's and p2's helpers come up and reply "yes".
        system.spawn(4, "help:reg", register.procedure_help(4))
        system.spawn(2, "help:reg", register.procedure_help(2))
        try:
            system.run_until(lambda: verifier.done, max_steps, label="verify")
            result: Any = verifier.result_of("verify")
            terminated = True
        except StepLimitExceeded:
            result = "-"
            terminated = False
        rows.append(
            (
                "with set0 reset (paper)" if reset else "without reset (ablated)",
                terminated,
                result,
            )
        )
    headers = ("variant", "verify terminates", "result")
    return headers, rows


# Despite its name, the E6 driver is not a pytest test function.
test_or_set_table.__test__ = False  # type: ignore[attr-defined]


# ----------------------------------------------------------------------
# E12: the §9.1 sticky-write ablation
# ----------------------------------------------------------------------
def ablation_sticky_write_wait(max_steps: int = 200_000) -> Tuple[Headers, Rows]:
    """Why Write must wait for ``n - f`` witnesses (Section 9.1).

    The paper: "without this wait, a process may invoke a Read after a
    Write(v) completes and get back ⊥ rather than v". Staged race
    (n = 4, f = 1): a Byzantine stonewaller always reports "not a
    witness"; the correct helpers come up only after the writer's Write
    returned. With the wait removed, the Write returns before any
    witness exists, the subsequent Read collects ``f + 1`` ⊥-reports and
    returns ⊥ — violating validity (Obs 22). With the paper's wait the
    Write cannot return that early and the Read gets the value.
    """
    rows: Rows = []
    for wait in (True, False):
        system = System(n=4)
        register = StickyRegister(system, "s", wait_for_witnesses=wait)
        register.install()
        system.declare_byzantine(4)

        # Replies "I witness nothing" (⊥) to every asker round, fast.
        system.spawn(
            4, "client", behaviors.stonewalling_witness([register], 4, period=1)
        )

        # Shared timeline for both variants: only p3's helper is up when
        # the Write is issued; p1's and p2's helpers are slow (legal
        # asynchrony) and arrive later.
        register.start_helpers([3])
        writer = ScriptClient(
            [OpCall("s", "write", ("V",), lambda: register.procedure_write(1, "V"))]
        )
        system.spawn(1, "client", writer.program())

        if wait:
            # Paper's algorithm: the Write blocks until n - f witnesses
            # exist, which needs the late helpers; only after they come
            # up does Write (and, after it, the Read) proceed.
            system.run(400)
            assert not writer.done, "Write returned without witnesses?!"
            register.start_helpers([1, 2])
            system.run_until(lambda: writer.done, max_steps, label="sticky write")
            reader = ScriptClient(
                [OpCall("s", "read", (), lambda: register.procedure_read(2))]
            )
            system.spawn(2, "client", reader.program())
            system.run_until(lambda: reader.done, max_steps, label="sticky read")
        else:
            # Ablated: the Write returns immediately — before any
            # witness exists. The Read that follows races the Byzantine
            # stonewaller (one ⊥-report) and the lone early helper,
            # which cannot be a witness yet (only 2 of the required 3
            # echoes exist) and so also reports ⊥ — two ⊥-reports exceed
            # f and the Read returns ⊥ after a completed Write.
            system.run_until(lambda: writer.done, max_steps, label="sticky write")
            reader = ScriptClient(
                [OpCall("s", "read", (), lambda: register.procedure_read(2))]
            )
            system.spawn(2, "client", reader.program())
            system.run_until(lambda: reader.done, max_steps, label="sticky read")
            register.start_helpers([1, 2])  # too late for this reader
        result = reader.result_of("read")
        validity_holds = result == "V"
        rows.append(
            (
                "with n-f wait (paper)" if wait else "without wait (ablated)",
                repr(result),
                validity_holds,
            )
        )
    headers = ("variant", "read after write", "validity (Obs 22) holds")
    return headers, rows


def mechanism_ablations() -> Tuple[Headers, Rows]:
    """E11: both §5.1 ablations as one "did it go as the paper says" table."""
    _headers, relay_rows = ablation_naive_quorum()
    _headers, liveness_rows = ablation_set0_reset()
    rows: Rows = [
        (
            f"relay: {row[0]}",
            f"A={row[1]} B={row[2]}",
            # The paper's Verify must preserve relay; the naive one must
            # demonstrably break it.
            row[3] if row[0] == "verifiable" else not row[3],
        )
        for row in relay_rows
    ] + [
        (
            f"liveness: {row[0]}",
            f"terminates={row[1]}",
            row[1] if "paper" in row[0] else not row[1],
        )
        for row in liveness_rows
    ]
    return ("ablation", "observation", "as expected"), rows


# ----------------------------------------------------------------------
# The experiment table: id -> title, driver at the CLI's sizes, shape
# ----------------------------------------------------------------------
class Experiment(NamedTuple):
    """One paper-facing table and the shape it must reproduce."""

    title: str
    driver: Callable[[], Tuple[Headers, Rows]]
    #: ``holds(headers, rows)``: whether the table shows what the paper
    #: proves (the PASS/FAIL verdict of the CLI and of the tier-1 test).
    holds: Callable[[Headers, Rows], bool]


def _columns(headers: Headers, rows: Rows, *names: str) -> List[Tuple[Any, ...]]:
    """Each row cut down to the named columns, in the order given."""
    indexes = [list(headers).index(name) for name in names]
    return [tuple(row[index] for index in indexes) for row in rows]


def _all_correct(headers: Headers, rows: Rows) -> bool:
    return all(correct for (correct,) in _columns(headers, rows, "correct"))


def _sweep_holds(headers: Headers, rows: Rows) -> bool:
    """E1–E3: some configuration ran, and every one was correct."""
    return bool(rows) and _all_correct(headers, rows)


def _boundary_holds(headers: Headers, rows: Rows) -> bool:
    """E5: a Lemma 28 property breaks exactly when ``n = 3f``."""
    return all(
        (violated != "nothing") == (n == 3 * f)
        for n, f, violated in _columns(headers, rows, "n", "f", "violated")
    )


def _snapshot_holds(headers: Headers, rows: Rows) -> bool:
    """E7: some run happened, and every one linearized."""
    return bool(rows) and all(
        clean for (clean,) in _columns(headers, rows, "linearizable")
    )


def _broadcast_holds(headers: Headers, rows: Rows) -> bool:
    """E8: sticky is linearizable and never equivocates; the signed
    comparator demonstrably does equivocate."""
    verdicts = _columns(
        headers, rows, "implementation", "unique", "linearizable"
    )
    sticky = [(unique, clean) for name, unique, clean in verdicts if "sticky" in name]
    signed = [unique for name, unique, _clean in verdicts if "signed" in name]
    return (
        bool(sticky)
        and all(unique and clean is True for unique, clean in sticky)
        and not all(signed)
    )


def _step_complexity_holds(headers: Headers, rows: Rows) -> bool:
    """E10: the price of removing signatures, and that it grows with n.

    Signature-free Verify costs more mean steps than the signed one at
    every measured ``n``, and Algorithm 1's Verify mean strictly
    increases with ``n``.
    """
    verify = {
        (kind, n): mean
        for kind, n, operation, mean in _columns(
            headers, rows, "kind", "n", "operation", "mean steps"
        )
        if operation == "verify"
    }
    ns = sorted(n for kind, n in verify if kind == "verifiable")
    free = [verify["verifiable", n] for n in ns]
    return (
        bool(ns)
        and all(verify["verifiable", n] > verify["signed", n] for n in ns)
        and all(small < large for small, large in zip(free, free[1:]))
    )


#: Every experiment ``python -m repro.analysis`` runs, in CLI order. E4
#: (property-checker throughput) and E13 (explorer throughput) are
#: timing measurements, reported by ``benchmarks/e2e`` instead.
EXPERIMENTS: Dict[str, Experiment] = {
    "E1": Experiment(
        "E1 — verifiable register (Theorem 14)",
        lambda: correctness_sweep("verifiable", ns=(4, 7), seeds=(0, 1)),
        _sweep_holds,
    ),
    "E2": Experiment(
        "E2 — authenticated register (Theorem 20)",
        lambda: correctness_sweep("authenticated", ns=(4, 7), seeds=(0, 1)),
        _sweep_holds,
    ),
    "E3": Experiment(
        "E3 — sticky register (Theorem 25)",
        lambda: correctness_sweep("sticky", ns=(4, 7), seeds=(0, 1)),
        _sweep_holds,
    ),
    "E5": Experiment(
        "E5 — Theorem 29 / Figure 1",
        lambda: impossibility_table(fs=(1, 2)),
        _boundary_holds,
    ),
    "E6": Experiment(
        "E6 — test-or-set (Observation 30)",
        lambda: test_or_set_table(n=4, seeds=(0, 1)),
        _all_correct,
    ),
    "E7": Experiment(
        "E7 — Byzantine atomic snapshot",
        lambda: snapshot_table(seeds=(0,)),
        _snapshot_holds,
    ),
    "E8": Experiment(
        "E8 — broadcast uniqueness",
        lambda: broadcast_table(seeds=(0,)),
        _broadcast_holds,
    ),
    "E9": Experiment(
        "E9 — Algorithm 1 over message passing",
        lambda: message_passing_table(seeds=(0,)),
        _all_correct,
    ),
    "E10": Experiment(
        "E10 — step complexity",
        lambda: step_complexity_table(ns=(4, 7), seeds=(0,)),
        _step_complexity_holds,
    ),
    "E11": Experiment(
        "E11 — §5.1 mechanism ablations",
        mechanism_ablations,
        lambda headers, rows: all(row[-1] for row in rows),
    ),
    "E12": Experiment(
        "E12 — sticky Write witness-wait ablation",
        ablation_sticky_write_wait,
        lambda headers, rows: rows[0][2] is True and rows[1][2] is False,
    ),
}
