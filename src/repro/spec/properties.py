"""Observable-property verdicts for the paper's register types.

These are the *directly checkable* guarantees the paper states as
Observations — validity, unforgeability, relay (verifiable: Obs 11–13;
authenticated: Obs 16–19), stickiness/uniqueness (Obs 22–24), and the
Lemma 28 properties of test-or-set. Unlike full (Byzantine)
linearizability they are linear-time in the history length, so the
randomized stress experiments (E4) can check thousands of runs.

Each ``*_properties`` function is a family's property rule for
:func:`repro.spec.judge.judge`: it reads the *correct* processes'
operations only — Byzantine processes' invocations carry no obligations
— and conditions writer-dependent properties (validity, unforgeability)
on the writer being correct (``case.owner_correct``), exactly as the
paper's statements do. The ``check_*_properties`` names apply one rule
to a whole history.

A check returns a :class:`PropertyReport`; reports compose with ``&``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.sim.history import History, OperationRecord
from repro.sim.values import freeze, is_bottom
from repro.spec.judge import Case, restrict
from repro.spec.sequential import (
    SUCCESS,
    AuthenticatedRegisterSpec,
    StickyRegisterSpec,
    TestOrSetSpec,
    VerifiableRegisterSpec,
)


@dataclass
class PropertyReport:
    """Outcome of one or more property checks.

    Attributes:
        ok: True iff no violation was found.
        violations: Human-readable violation descriptions.
        checked: Names of the properties that were evaluated.
    """

    ok: bool = True
    violations: List[str] = field(default_factory=list)
    checked: List[str] = field(default_factory=list)

    def record(self, name: str, failures: Iterable[str]) -> None:
        """Fold the failures of check ``name`` into this report."""
        self.checked.append(name)
        for failure in failures:
            self.ok = False
            self.violations.append(f"[{name}] {failure}")

    def __and__(self, other: "PropertyReport") -> "PropertyReport":
        return PropertyReport(
            ok=self.ok and other.ok,
            violations=self.violations + other.violations,
            checked=self.checked + other.checked,
        )

    def __bool__(self) -> bool:
        return self.ok

    def summary(self) -> str:
        """One-paragraph rendering for assertion messages."""
        status = "OK" if self.ok else "VIOLATIONS"
        lines = [f"{status}; checked: {', '.join(self.checked)}"]
        lines.extend(self.violations)
        return "\n".join(lines)


_Grouped = Dict[str, List[OperationRecord]]


def _gather(records: Sequence[OperationRecord]) -> Tuple[_Grouped, _Grouped]:
    """One scan of the correct processes' ops on the object, by name.

    Returns ``(done, invoked)``: the completed operations, and every
    invoked one, pending included. Pending operations carry no result,
    so only the absence rules read ``invoked`` — "did the correct writer
    invoke X before this response?" — where a pending operation may
    still take effect (a pending Sign may still succeed). Grouping in a
    single pass replaces the four-to-five full scans the per-op filter
    calls used to cost on the campaign hot path.
    """
    done: _Grouped = {}
    invoked: _Grouped = {}
    for record in records:
        invoked.setdefault(record.op, []).append(record)
        if record.complete:
            done.setdefault(record.op, []).append(record)
    return done, invoked


def _value(record: OperationRecord) -> Any:
    return freeze(record.args[0]) if record.args else None


# ----------------------------------------------------------------------
# Shared building blocks
# ----------------------------------------------------------------------
def _relay_failures(verifies: Sequence[OperationRecord]) -> Iterable[str]:
    """Obs 13 / 18: Verify(v) -> true precedes Verify(v) -> false."""
    for earlier in verifies:
        if earlier.result is not True:
            continue
        for later in verifies:
            if later.result is False and earlier.precedes(later):
                if _value(earlier) == _value(later):
                    yield (
                        f"{earlier.describe()} returned true but the later "
                        f"{later.describe()} returned false"
                    )


# ----------------------------------------------------------------------
# Verifiable register (Observations 11-13)
# ----------------------------------------------------------------------
def check_verifiable_properties(
    history: History,
    correct: Iterable[int],
    obj: str,
    writer: int,
    initial: Any = None,
) -> PropertyReport:
    """Validity, unforgeability, relay, and read-regularity checks."""
    spec = VerifiableRegisterSpec(initial=freeze(initial))
    return verifiable_properties(*restrict(history, correct, obj, spec, writer))


def verifiable_properties(
    records: List[OperationRecord], case: Case
) -> PropertyReport:
    """The verifiable register's property rule (Observations 11–13)."""
    report = PropertyReport()
    grouped, invoked = _gather(records)
    verifies = grouped.get("verify", [])
    report.record("relay (Obs 13)", _relay_failures(verifies))

    if case.owner_correct:
        signs = grouped.get("sign", [])
        writes = grouped.get("write", [])
        reads = grouped.get("read", [])

        def validity() -> Iterable[str]:
            # Obs 11: a successful Sign(v) makes every later Verify(v) true.
            for sign in signs:
                if sign.result != SUCCESS:
                    continue
                for verify in verifies:
                    if (
                        sign.precedes(verify)
                        and _value(verify) == _value(sign)
                        and verify.result is not True
                    ):
                        yield (
                            f"{sign.describe()} succeeded but the later "
                            f"{verify.describe()} returned {verify.result!r}"
                        )

        def unforgeability() -> Iterable[str]:
            # Obs 12 (via Cor 61): Verify(v) -> true requires a Sign(v)
            # invoked before the verify responded that succeeded or is
            # still pending.
            for verify in verifies:
                if verify.result is not True:
                    continue
                value = _value(verify)
                if not any(
                    (sign.result == SUCCESS or not sign.complete)
                    and _value(sign) == value
                    and sign.invoked_at < verify.responded_at
                    for sign in invoked.get("sign", ())
                ):
                    yield (
                        f"{verify.describe()} returned true but the correct "
                        f"writer never signed {value!r} in time"
                    )

        def sign_requires_write() -> Iterable[str]:
            # Def 10: Sign(v) succeeds iff a Write(v) precedes it.
            for sign in signs:
                value = _value(sign)
                wrote_before = any(
                    w.precedes(sign) and _value(w) == value for w in writes
                )
                if sign.result == SUCCESS and not wrote_before:
                    yield f"{sign.describe()} succeeded without a prior write"
                if sign.result != SUCCESS and wrote_before:
                    yield f"{sign.describe()} failed despite a prior write"

        def read_regularity() -> Iterable[str]:
            # Necessary condition of Def 10's read clause: a read returns
            # the initial value or some value written before it responded.
            v0 = case.spec.initial
            for read in reads:
                value = freeze(read.result)
                if value == v0:
                    continue
                if not any(
                    _value(w) == value and w.invoked_at < read.responded_at
                    for w in invoked.get("write", ())
                ):
                    yield (
                        f"{read.describe()} returned a value the correct "
                        f"writer never wrote"
                    )

        report.record("validity (Obs 11)", validity())
        report.record("unforgeability (Obs 12)", unforgeability())
        report.record("sign-requires-write (Def 10)", sign_requires_write())
        report.record("read-regularity (Def 10)", read_regularity())
    return report


# ----------------------------------------------------------------------
# Authenticated register (Observations 16-19)
# ----------------------------------------------------------------------
def check_authenticated_properties(
    history: History,
    correct: Iterable[int],
    obj: str,
    writer: int,
    initial: Any = None,
) -> PropertyReport:
    """Validity, unforgeability, relay, and the Obs 19 read guarantee."""
    spec = AuthenticatedRegisterSpec(initial=freeze(initial))
    return authenticated_properties(*restrict(history, correct, obj, spec, writer))


def authenticated_properties(
    records: List[OperationRecord], case: Case
) -> PropertyReport:
    """The authenticated register's property rule (Observations 16–19)."""
    v0 = case.spec.initial
    report = PropertyReport()
    grouped, invoked = _gather(records)
    verifies = grouped.get("verify", [])
    reads = grouped.get("read", [])
    report.record("relay (Obs 18)", _relay_failures(verifies))

    def read_then_verify() -> Iterable[str]:
        # Obs 19 holds even under a Byzantine writer: whatever a correct
        # read returned must verify from then on.
        for read in reads:
            value = freeze(read.result)
            for verify in verifies:
                if (
                    read.precedes(verify)
                    and _value(verify) == value
                    and verify.result is not True
                ):
                    yield (
                        f"{read.describe()} returned {value!r} but the later "
                        f"{verify.describe()} returned {verify.result!r}"
                    )

    report.record("read-then-verify (Obs 19)", read_then_verify())

    def initial_always_verifies() -> Iterable[str]:
        # Def 15 deems v0 signed; Lemma 113 proves Verify(v0) never fails.
        for verify in verifies:
            if _value(verify) == v0 and verify.result is not True:
                yield f"{verify.describe()} rejected the initial value"

    report.record("initial-verifies (Lemma 113)", initial_always_verifies())

    if case.owner_correct:
        writes = grouped.get("write", [])

        def validity() -> Iterable[str]:
            # Obs 16: a completed Write(v) makes every later Verify(v) true.
            for write in writes:
                for verify in verifies:
                    if (
                        write.precedes(verify)
                        and _value(verify) == _value(write)
                        and verify.result is not True
                    ):
                        yield (
                            f"{write.describe()} completed but the later "
                            f"{verify.describe()} returned {verify.result!r}"
                        )

        def unforgeability() -> Iterable[str]:
            # Obs 17: Verify(v) -> true requires v = v0 or a Write(v)
            # invoked before the verify responded.
            for verify in verifies:
                if verify.result is not True:
                    continue
                value = _value(verify)
                if value == v0:
                    continue
                if not any(
                    _value(w) == value and w.invoked_at < verify.responded_at
                    for w in invoked.get("write", ())
                ):
                    yield (
                        f"{verify.describe()} returned true but the correct "
                        f"writer never wrote {value!r} in time"
                    )

        def read_regularity() -> Iterable[str]:
            for read in reads:
                value = freeze(read.result)
                if value == v0:
                    continue
                if not any(
                    _value(w) == value and w.invoked_at < read.responded_at
                    for w in invoked.get("write", ())
                ):
                    yield (
                        f"{read.describe()} returned a value the correct "
                        f"writer never wrote"
                    )

        report.record("validity (Obs 16)", validity())
        report.record("unforgeability (Obs 17)", unforgeability())
        report.record("read-regularity (Def 15)", read_regularity())
    return report


# ----------------------------------------------------------------------
# Sticky register (Observations 22-24)
# ----------------------------------------------------------------------
def check_sticky_properties(
    history: History,
    correct: Iterable[int],
    obj: str,
    writer: int,
) -> PropertyReport:
    """Validity, unforgeability, and uniqueness checks."""
    spec = StickyRegisterSpec()
    return sticky_properties(*restrict(history, correct, obj, spec, writer))


def sticky_properties(records: List[OperationRecord], case: Case) -> PropertyReport:
    """The sticky register's property rule (Observations 22–24)."""
    report = PropertyReport()
    grouped, invoked = _gather(records)
    reads = grouped.get("read", [])

    def uniqueness() -> Iterable[str]:
        # Obs 24 strengthened to the full stickiness statement: all non-⊥
        # reads agree, and after a non-⊥ read no later read returns ⊥.
        seen: dict = {}
        for read in reads:
            if not is_bottom(read.result):
                seen.setdefault(freeze(read.result), read)
        if len(seen) > 1:
            pretty = ", ".join(sorted(repr(v) for v in seen))
            yield f"correct reads returned distinct values: {pretty}"
        for earlier in reads:
            if is_bottom(earlier.result):
                continue
            for later in reads:
                if earlier.precedes(later) and is_bottom(later.result):
                    yield (
                        f"{earlier.describe()} returned a value but the "
                        f"later {later.describe()} returned ⊥"
                    )

    report.record("uniqueness (Obs 24)", uniqueness())

    if case.owner_correct:
        writes = grouped.get("write", [])

        def validity() -> Iterable[str]:
            # Obs 22: after the first Write(v) completes, reads return v.
            if not writes:
                return
            first = min(writes, key=lambda w: w.invoked_at)
            value = _value(first)
            for read in reads:
                if first.precedes(read) and freeze(read.result) != value:
                    yield (
                        f"{first.describe()} completed but the later "
                        f"{read.describe()} returned {read.result!r}"
                    )

        def unforgeability() -> Iterable[str]:
            # Obs 23: a non-⊥ read returns the first write's value, and
            # only after that write was invoked (it may still be pending).
            first = min(
                invoked.get("write", ()), key=lambda w: w.invoked_at, default=None
            )
            for read in reads:
                if is_bottom(read.result):
                    continue
                if first is None:
                    yield (
                        f"{read.describe()} returned a value but the correct "
                        f"writer never wrote"
                    )
                    continue
                if freeze(read.result) != _value(first):
                    yield (
                        f"{read.describe()} returned {read.result!r}, not the "
                        f"first written value {_value(first)!r}"
                    )
                elif read.responded_at <= first.invoked_at:
                    yield (
                        f"{read.describe()} returned the value before the "
                        f"write was even invoked"
                    )

        report.record("validity (Obs 22)", validity())
        report.record("unforgeability (Obs 23)", unforgeability())
    return report


# ----------------------------------------------------------------------
# Test-or-set (Lemma 28)
# ----------------------------------------------------------------------
def check_test_or_set_properties(
    history: History,
    correct: Iterable[int],
    obj: str,
    setter: int,
) -> PropertyReport:
    """The three properties every correct test-or-set history satisfies."""
    spec = TestOrSetSpec()
    return test_or_set_properties(*restrict(history, correct, obj, spec, setter))


def test_or_set_properties(
    records: List[OperationRecord], case: Case
) -> PropertyReport:
    """Test-or-set's property rule (Lemma 28)."""
    report = PropertyReport()
    grouped, invoked = _gather(records)
    tests = grouped.get("test", [])

    def relay() -> Iterable[str]:
        # Lemma 28(3): Test -> 1 preceding Test' forces Test' -> 1.
        for earlier in tests:
            if earlier.result != 1:
                continue
            for later in tests:
                if earlier.precedes(later) and later.result != 1:
                    yield (
                        f"{earlier.describe()} returned 1 but the later "
                        f"{later.describe()} returned {later.result!r}"
                    )

    report.record("relay (Lemma 28.3)", relay())

    if case.owner_correct:
        sets = grouped.get("set", [])

        def validity() -> Iterable[str]:
            # Lemma 28(1): a completed Set forces later Tests to return 1.
            for set_op in sets:
                for test in tests:
                    if set_op.precedes(test) and test.result != 1:
                        yield (
                            f"{set_op.describe()} completed but the later "
                            f"{test.describe()} returned {test.result!r}"
                        )

        def unforgeability() -> Iterable[str]:
            # Lemma 28(2): Test -> 1 requires Set invoked before it
            # returned (it may still be pending).
            for test in tests:
                if test.result != 1:
                    continue
                if not any(
                    s.invoked_at < test.responded_at for s in invoked.get("set", ())
                ):
                    yield (
                        f"{test.describe()} returned 1 but the correct "
                        f"setter never invoked Set in time"
                    )

        report.record("validity (Lemma 28.1)", validity())
        report.record("unforgeability (Lemma 28.2)", unforgeability())
    return report
