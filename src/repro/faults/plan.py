"""Declarative fault plans: seeded, replayable, fingerprint-stable.

A :class:`FaultPlan` is built from a tuple-of-tuples *spec* — the same
hashable shape scenario parameters use, so a plan travels inside a
:class:`repro.scenarios.Scenario` unchanged and survives the corpus
loader's JSON round trip. The vocabulary:

* ``("drop", src, dst, p)`` — drop each matching message with
  probability ``p`` (fair-lossy links: every message is dropped
  independently, so an infinitely-retransmitted message is delivered
  eventually).
* ``("dup", src, dst, p)`` — submit a second copy with probability ``p``.
* ``("delay", src, dst, p, extra)`` — with probability ``p`` hold the
  message for ``extra`` additional virtual-time steps before handing it
  to the wrapped network (large ``extra`` on a few links produces
  reorder storms).
* ``("partition", (group, group, ...), start, end)`` — between clocks
  ``start <= now < end`` (``end=None`` means forever), messages whose
  endpoints sit in *different* groups are suppressed; a pid absent from
  every group communicates freely. Both submission and delivery are
  checked, so messages already in flight when the window opens are cut
  too.
* ``("crash", pid, at)`` — crash-stop: from clock ``at`` on, nothing the
  pid sends is submitted and nothing addressed to it is delivered.
* ``("crash", pid, at, recover_at)`` — crash-recovery: the suppression
  window closes at ``recover_at``. This models a process that was
  unreachable (its volatile protocol state survives); true lose-state
  recovery would need process-level support.

``src``/``dst`` use ``0`` as a wildcard (pids are ``1..n``); pids,
endpoints and clock times are non-bool ints, checked at parse, so a
spec from a ``--chaos`` literal or a corpus entry either parses into a
plan that judges every message or raises :class:`ConfigurationError`.

A :class:`FaultJudge` applies a plan to messages, one at a time, on
either clock: :class:`repro.faults.FaultyNetwork` in virtual time and
:class:`repro.net.chaos.ChaosProxy` on the wall clock. It has two
checkpoints — *submission* (sender crashed, then partition, then every
matching link rule draws once, in plan order) and *delivery* (either
endpoint crashed, then partition) — and keeps the one suppression
ledger both drivers report. The drivers differ only in their draw
source: the simulator hands every rule the same plan-seeded stream, so
its decisions are a pure function of the submission sequence (which is
what makes faulty runs replayable and shrinkable); each proxy gives
every rule a stream of its own, so a rule's decisions depend only on
the payloads that rule examined, however the sender batched them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.sim.fingerprint import digest64

#: Fault kinds a plan spec may contain, with their arities.
_LINK_KINDS = {"drop": 4, "dup": 4, "delay": 5}


def _check_prob(kind: str, prob: Any) -> float:
    if type(prob) not in (int, float) or not 0 <= prob <= 1:
        raise ConfigurationError(f"{kind} probability must be in [0, 1], got {prob!r}")
    return float(prob)


def _check_int(kind: str, what: str, value: Any, low: int) -> int:
    """``value`` if it is an int (not a bool) ``>= low``."""
    if type(value) is not int or value < low:
        raise ConfigurationError(f"{kind} {what} must be an int >= {low}, got {value!r}")
    return value


@dataclass(frozen=True)
class _LinkRule:
    """One probabilistic per-link rule (drop / dup / delay)."""

    kind: str
    src: int  # 0 = any sender
    dst: int  # 0 = any destination
    prob: float
    extra: int = 0  # delay only

    def matches(self, sender: int, dest: int) -> bool:
        return (self.src in (0, sender)) and (self.dst in (0, dest))


@dataclass(frozen=True)
class _Partition:
    """A timed partition window over disjoint process groups."""

    groups: Tuple[frozenset, ...]
    start: int
    end: Optional[int]  # None = until the end of the run

    def active(self, now: int) -> bool:
        return now >= self.start and (self.end is None or now < self.end)

    def cuts(self, sender: int, dest: int, now: int) -> bool:
        if sender == dest or not self.active(now):
            return False
        side_s = side_d = None
        for index, group in enumerate(self.groups):
            if sender in group:
                side_s = index
            if dest in group:
                side_d = index
        return side_s is not None and side_d is not None and side_s != side_d

    def describe(self) -> str:
        body = "|".join(
            ",".join(str(pid) for pid in sorted(group)) for group in self.groups
        )
        end = "inf" if self.end is None else str(self.end)
        return f"partition({body})@[{self.start},{end})"


@dataclass(frozen=True)
class _Crash:
    """Crash-stop (``recover_at=None``) or crash-recovery of one pid."""

    pid: int
    at: int
    recover_at: Optional[int] = None

    def down(self, now: int) -> bool:
        return now >= self.at and (self.recover_at is None or now < self.recover_at)

    def describe(self) -> str:
        if self.recover_at is None:
            return f"crash(p{self.pid}@{self.at})"
        return f"crash(p{self.pid}@[{self.at},{self.recover_at}))"


@dataclass(frozen=True)
class FaultPlan:
    """A parsed, validated fault plan (see module docstring).

    Construct with :meth:`from_spec`; the original spec tuple is kept so
    the plan fingerprints and reprs exactly as declared.
    """

    spec: Tuple[Tuple[Any, ...], ...]
    seed: int = 0
    link_rules: Tuple[_LinkRule, ...] = field(default=(), compare=False)
    partitions: Tuple[_Partition, ...] = field(default=(), compare=False)
    crashes: Tuple[_Crash, ...] = field(default=(), compare=False)

    @classmethod
    def from_spec(cls, spec: Any, seed: int = 0) -> "FaultPlan":
        """Parse and validate a declarative spec into a plan."""
        if not isinstance(spec, (tuple, list)):
            raise ConfigurationError(f"fault spec must be a tuple of tuples, got {spec!r}")
        link_rules = []
        partitions = []
        crashes = []
        frozen = []
        for entry in spec:
            if not isinstance(entry, (tuple, list)) or not entry:
                raise ConfigurationError(f"malformed fault entry {entry!r}")
            entry = tuple(entry)
            kind = entry[0]
            if isinstance(kind, str) and kind in _LINK_KINDS:
                if len(entry) != _LINK_KINDS[kind]:
                    raise ConfigurationError(
                        f"{kind} takes {_LINK_KINDS[kind] - 1} arguments, got {entry!r}"
                    )
                src = _check_int(kind, "src", entry[1], 0)
                dst = _check_int(kind, "dst", entry[2], 0)
                prob = _check_prob(kind, entry[3])
                extra = 0
                if kind == "delay":
                    extra = _check_int(kind, "extra", entry[4], 1)
                link_rules.append(_LinkRule(kind, src, dst, prob, extra))
            elif kind == "partition":
                if len(entry) != 4:
                    raise ConfigurationError(f"partition takes 3 arguments, got {entry!r}")
                _k, groups, start, end = entry
                if (
                    not isinstance(groups, (tuple, list))
                    or len(groups) < 2
                    or not all(isinstance(group, (tuple, list)) for group in groups)
                ):
                    raise ConfigurationError(
                        f"partition needs >= 2 groups of pids, got {groups!r}"
                    )
                parsed = tuple(
                    frozenset(_check_int(kind, "member", pid, 1) for pid in group)
                    for group in groups
                )
                _check_int(kind, "start", start, 0)
                if end is not None:
                    _check_int(kind, "end", end, start + 1)
                seen: set = set()
                for group in parsed:
                    if not group:
                        raise ConfigurationError("partition group may not be empty")
                    if seen & group:
                        raise ConfigurationError(
                            f"partition groups must be disjoint, got {groups!r}"
                        )
                    seen |= group
                partitions.append(_Partition(parsed, start, end))
                entry = ("partition", tuple(tuple(sorted(g)) for g in parsed), start, end)
            elif kind == "crash":
                if len(entry) not in (3, 4):
                    raise ConfigurationError(f"crash takes 2 or 3 arguments, got {entry!r}")
                pid = _check_int(kind, "pid", entry[1], 1)
                at = _check_int(kind, "time", entry[2], 0)
                recover_at = None
                if len(entry) == 4:
                    recover_at = _check_int(kind, "recovery", entry[3], at + 1)
                crashes.append(_Crash(pid, at, recover_at))
            else:
                raise ConfigurationError(f"unknown fault kind {kind!r} in {entry!r}")
            frozen.append(entry)
        return cls(
            spec=tuple(frozen),
            seed=seed,
            link_rules=tuple(link_rules),
            partitions=tuple(partitions),
            crashes=tuple(crashes),
        )

    # ------------------------------------------------------------------
    def crashed(self, pid: int, now: int) -> bool:
        """Whether ``pid`` is down at clock ``now``."""
        for crash in self.crashes:
            if crash.pid == pid and crash.down(now):
                return True
        return False

    def partitioned(self, sender: int, dest: int, now: int) -> bool:
        """Whether an active partition window cuts ``sender -> dest``."""
        for partition in self.partitions:
            if partition.cuts(sender, dest, now):
                return True
        return False

    def crashed_pids(self, now: int) -> Tuple[int, ...]:
        """Pids down at clock ``now`` (for diagnoses)."""
        return tuple(
            sorted({crash.pid for crash in self.crashes if crash.down(now)})
        )

    # ------------------------------------------------------------------
    def fingerprint(self) -> int:
        """64-bit digest of the declared spec + seed (stable identity)."""
        return digest64(f"faultplan\x00{self.seed}\x00{self.spec!r}")

    def describe(self) -> str:
        """Compact human summary used in STALLED diagnoses."""
        parts = []
        for rule in self.link_rules:
            src = "*" if rule.src == 0 else str(rule.src)
            dst = "*" if rule.dst == 0 else str(rule.dst)
            tail = f",+{rule.extra}" if rule.kind == "delay" else ""
            parts.append(f"{rule.kind}({src}->{dst},p={rule.prob:g}{tail})")
        parts.extend(partition.describe() for partition in self.partitions)
        parts.extend(crash.describe() for crash in self.crashes)
        return " ".join(parts) if parts else "no-faults"

    def describe_suppression(
        self, now: int, suppressed_links: Dict[Tuple[int, int], int]
    ) -> str:
        """One-line summary of what the plan is cutting at clock ``now``:
        ``plan[...] down=... cut=src->dst:count`` (the four most
        suppressed links) — the suppression half of a STALLED diagnosis,
        for the simulator's network and the live chaos proxies alike."""
        parts = [f"plan[{self.describe()}]"]
        crashed = self.crashed_pids(now)
        if crashed:
            parts.append("down=" + ",".join(f"p{pid}" for pid in crashed))
        if suppressed_links:
            top = sorted(suppressed_links.items(), key=lambda item: -item[1])[:4]
            parts.append(
                "cut=" + ",".join(f"{src}->{dst}:{count}" for (src, dst), count in top)
            )
        return " ".join(parts)


class FaultJudge:
    """One plan's verdict on each message, and the ledger of verdicts.

    Args:
        plan: The plan to apply.
        streams: One ``random.Random`` per link rule, in plan order —
            the driver's draw source (the same object repeated when all
            rules share one stream).
    """

    def __init__(self, plan: FaultPlan, streams: Sequence[Any]):
        self.plan = plan
        self._draws = tuple(
            (rule, stream.random)
            for rule, stream in zip(plan.link_rules, streams, strict=True)
        )
        self.dropped = 0
        #: Extra copies made by dup rules.
        self.duplicated = 0
        #: Copies held back by delay rules.
        self.delayed = 0
        self.partitioned = 0
        self.suppressed_crash = 0
        #: (sender, dest) -> suppression count, for diagnoses.
        self.suppressed_links: Dict[Tuple[int, int], int] = {}

    def submit(self, sender: int, dest: int, now: int) -> Tuple[int, int]:
        """Submission checkpoint: ``(copies, extra_delay)`` for one
        message sent at clock ``now``; ``copies == 0`` means suppressed.

        Every matching rule draws exactly once, in plan order, even after
        the message's fate is sealed — so each stream's position depends
        only on the messages its rules matched, not on which faults fired.
        """
        plan = self.plan
        if plan.crashed(sender, now):
            self.suppressed_crash += 1
        elif plan.partitioned(sender, dest, now):
            self.partitioned += 1
        else:
            copies, extra, dropped = 1, 0, False
            for rule, draw in self._draws:
                if rule.matches(sender, dest) and draw() < rule.prob:
                    if rule.kind == "drop":
                        dropped = True
                    elif rule.kind == "dup":
                        copies += 1
                    else:
                        extra += rule.extra
            if not dropped:
                self.duplicated += copies - 1
                if extra:
                    self.delayed += copies
                return copies, extra
            self.dropped += 1
        self._cut(sender, dest)
        return 0, 0

    def deliverable(self, sender: int, dest: int, now: int) -> bool:
        """Delivery checkpoint: whether one copy due at clock ``now``
        still gets through (a window that opened in flight cuts it)."""
        plan = self.plan
        if plan.crashed(dest, now) or plan.crashed(sender, now):
            self.suppressed_crash += 1
        elif plan.partitioned(sender, dest, now):
            self.partitioned += 1
        else:
            return True
        self._cut(sender, dest)
        return False

    def _cut(self, sender: int, dest: int) -> None:
        key = (sender, dest)
        self.suppressed_links[key] = self.suppressed_links.get(key, 0) + 1

    def metrics(self) -> Dict[str, int]:
        """The suppression counters, keyed as both drivers report them."""
        return {
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "delayed": self.delayed,
            "partitioned": self.partitioned,
            "suppressed_crash": self.suppressed_crash,
        }

    def describe_suppression(self, now: int) -> str:
        """One-line summary of what the plan is cutting at clock ``now``."""
        return self.plan.describe_suppression(now, self.suppressed_links)
