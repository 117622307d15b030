"""Dynamic partial-order reduction over executed effect traces.

The systematic explorer (:mod:`repro.explore.explorer`) is stateless:
every node of its search tree is a decision prefix, and every executed
run is a *complete* schedule whose per-step effect signatures the
instrumentation records (up to the barrier below, past which nothing
the scan can act on happens). That executed trace is exactly the input
classical DPOR (Flanagan–Godefroid 2005) needs: independence between
two concrete steps is computable from their signatures (the same
``commutes`` algebra the sleep-set pruning uses), so the happens-before
order of a run — and with it every *race*, a pair of conflicting steps
by different coroutines that are adjacent in that order — falls out of
one linear scan with vector clocks.

This module is the analysis half of the explorer's ``reduction="dpor"``
modes; it deliberately knows nothing about frontiers or budgets:

* :func:`analyze_run` scans one executed run and returns the detected
  races together with *backtrack requests*: for each race ``(i, j)``
  the coroutine whose scheduling at the pre-state of step ``i`` starts
  reversing the race. Following the source-set refinement of optimal
  DPOR (Abdulla–Aronis–Jonsson–Sagonas 2014), the requested coroutine
  is the first event of ``notdep(i) · proc(j)`` — always an *initial*
  of that sequence — and the search loop skips the request whenever the
  initial is already explored at that node. Requesting a single initial
  (rather than computing the full initial set) can only add
  exploration, never lose it, so the reduction stays sound while the
  scan stays linear.
* :class:`SymmetryFolder` implements the interchangeable-process
  folding of ``reduction="dpor+symmetry"``: for scenarios that declare
  symmetric process groups (see
  :class:`repro.scenarios.ScenarioRecord.symmetry`), two backtrack
  candidates from the same group are *canonicalized* onto the
  least-pid live representative as long as neither process has been
  touched by the prefix — their coroutines still sit in their initial
  (declared-interchangeable) states, so the reached state is invariant
  under the transposition and one branch's subtree is the renaming
  image of the other's. Violation fingerprints digit-mask pids
  (:meth:`repro.explore.Violation.fingerprint`), so the fold preserves
  verdicts *and* violation classes.

Happens-before is the conflict closure of the ``commutes`` algebra:
same-coroutine program order, plus an edge for every pair of
non-commuting steps. A coroutine parked on an ``Await`` is *disabled*
until a write to a watched register: its wait step reads every watched
register, so the waking write conflicts with it. The wake-up itself
adds no edge (the woken coroutine's next step follows its wait by
program order only), which can add races but never hide one. When the
requested coroutine of a backtrack is parked or retired at its node,
the search loop falls back to the classic conservative treatment and
expands every enabled sibling there instead. The race
scan tracks, per resource, only the accesses that can still be an
*immediate* predecessor of a later conflict (same-register last write +
reads since it, same-mailbox last touch, last broadcast, last sync,
and — for sync steps, which conflict with everything — every
coroutine's last step); older accesses are happens-before-ordered
through the tracked ones, so no race within the scanned window is
missed.

**Bounded windows.** The explorer only *controls* the first
``depth_bound`` decisions; beyond them every run finishes under a fixed
round-robin completion tail. ``analyze_run`` therefore only emits
requests for races whose first step lies inside that window — a race
materializing entirely in the tail has no controllable pre-state to
backtrack to. This is where the reduction is genuinely weaker than the
sleep baseline's blind enumeration: a prefix deviation also shifts how
the uncontrolled tail *aligns*, and at very tight horizons (the n = 3
broadcast cells at ``depth_bound = 5``) that alignment effect produces
violation classes no in-window race predicts. Parity with the baseline
is re-verified per shipped cell by ``tests/test_dpor_differential.py``;
every shipped campaign cell sits at ``depth_bound >= 6``, inside the
verified regime.

**The barrier lemma.** Let ``s`` be the first index ``>= limit`` whose
signature is ``sync``. Then for every cut ``c > s``,
``analyze_run(chosen[:c], effects[:c], limit) == analyze_run(chosen,
effects, limit)`` — which is why the explorer's recorder
(:class:`repro.explore.explorer.InstrumentedRun`) detaches after ``s``
and the scan reads a window instead of the whole run. Proof:

1. A ``sync`` step conflicts with everything: its candidates are every
   other coroutine's last step, and once each is merged (or found
   already ordered) its clock dominates every step before it. Step
   ``s``, like every later ``sync`` step, is a full happens-before
   barrier.
2. Every step ``j > s`` has a candidate at or after ``s`` carrying such
   a clock — ``last_sync`` for the non-``sync`` heads, the last step of
   the coroutine that took step ``s`` for a ``sync`` head (when that
   step is ``j``'s own coroutine's, ``j`` starts from its clock by
   program order). Candidates are merged latest-first, so by the time a
   candidate ``i < limit <= s`` is examined ``j``'s clock already covers
   it: no race ``(i, j)`` with ``i < limit`` has ``j > s``.
3. Only races with ``i < limit`` are counted or turned into requests,
   and the winner of a race ``(i, j)`` is read off steps
   ``i + 1 .. j <= s``; the cut keeps all of them.

The bound is tight — a race may end *at* ``s`` or anywhere before it
(``tests/test_dpor_window.py`` has the counterexample) — and it says
nothing new about races with both steps past the horizon: those never
produced a request, with or without the cut, so the tail-race boundary
above is neither widened nor narrowed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.sim.scheduler import CoroutineId

#: Mirrors ``repro.explore.explorer.EffectSignature`` (a structural
#: alias; redefined here so the explorer can import this module).
EffectSignature = Tuple[str, ...]

#: ``first_touches`` sentinel for "never touched inside the window".
NEVER = 1 << 30


def analyze_run(
    chosen: Sequence[CoroutineId],
    effects: Sequence[EffectSignature],
    limit: int,
) -> Tuple[int, List[Tuple[int, CoroutineId]]]:
    """Detect races in one executed run; derive backtrack requests.

    ``chosen`` / ``effects`` are the run's per-step records (coroutine
    and effect signature of every executed step, in order — the whole
    run, or any prefix of it reaching past the first ``sync`` step at
    an index ``>= limit``: the module doc's barrier lemma);
    ``limit`` is the deviation horizon — races whose *earlier* step
    lies at or past it cannot be reversed by the bounded search, so
    they produce no request (the happens-before edge is still applied).

    Returns ``(races_detected, requests)`` where each request is
    ``(depth, cid)``: schedule ``cid`` instead of the base choice at
    the node ``trace[:depth]``. Requests are deduplicated.
    """
    total = min(len(chosen), len(effects))
    if total == 0:
        return 0, []

    # Coroutine -> dense index, in order of first appearance.
    proc_index: Dict[CoroutineId, int] = {}
    for cid in chosen:
        if cid not in proc_index:
            proc_index[cid] = len(proc_index)
    width = len(proc_index)
    zero = (0,) * width

    # Per-step: owning proc index, per-proc local step number, and the
    # vector clock *after* the step (vc[p] = number of p's steps that
    # happen-before-or-equal this one).
    step_proc: List[int] = [0] * total
    step_local: List[int] = [0] * total
    step_vc: List[Tuple[int, ...]] = [zero] * total
    local_count = [0] * width

    # Immediate-predecessor tracking (see module doc).
    last_step_of: List[Optional[int]] = [None] * width
    last_sync: Optional[int] = None
    last_write: Dict[str, int] = {}
    reads_since_write: Dict[str, List[int]] = {}
    last_mbox: Dict[int, int] = {}
    last_bcast: Optional[int] = None

    races: List[Tuple[int, int]] = []

    for j in range(total):
        p = proc_index[chosen[j]]
        sig = effects[j]
        head = sig[0]

        candidates: List[Optional[int]]
        if head == "sync":
            candidates = [s for q, s in enumerate(last_step_of) if q != p]
        elif head == "wait":
            # A wait reads every register it watches (none: a Pause).
            candidates = [last_write.get(name) for name in sig[1:]]
            candidates.append(last_sync)
        elif head == "read":
            candidates = [last_write.get(sig[1]), last_sync]
        elif head == "write":
            register = sig[1]
            candidates = [last_write.get(register), last_sync]
            candidates.extend(reads_since_write.get(register, ()))
        elif head in ("send", "recv"):
            candidates = [last_mbox.get(sig[1]), last_bcast, last_sync]
        else:  # bcast
            candidates = list(last_mbox.values())
            candidates.append(last_bcast)
            candidates.append(last_sync)

        own_prev = last_step_of[p]
        vc = step_vc[own_prev] if own_prev is not None else zero
        # Later candidates first: merging a later conflicting step's
        # clock may already order an earlier one (then it is not an
        # immediate predecessor and not a race).
        for i in sorted(
            {c for c in candidates if c is not None}, reverse=True
        ):
            q = step_proc[i]
            if q == p:
                continue  # program order, already inside vc
            if vc[q] >= step_local[i]:
                continue  # happens-before through an intermediate step
            races.append((i, j))
            vc = tuple(map(max, vc, step_vc[i]))

        local = local_count[p] + 1
        local_count[p] = local
        vc = vc[:p] + (local,) + vc[p + 1:]
        step_proc[j] = p
        step_local[j] = local
        step_vc[j] = vc
        last_step_of[p] = j

        if head == "sync":
            last_sync = j
        elif head == "read" or head == "wait":
            for name in sig[1:]:
                reads_since_write.setdefault(name, []).append(j)
        elif head == "write":
            last_write[sig[1]] = j
            reads_since_write.pop(sig[1], None)
        elif head in ("send", "recv"):
            last_mbox[sig[1]] = j
        elif head == "bcast":
            last_bcast = j
            last_mbox.clear()

    # Backtrack requests: for each reversible race, the first step after
    # i that does not happen-after i — the head of notdep(i) · proc(j),
    # hence an initial of it (nothing in the sequence precedes it).
    requests: List[Tuple[int, CoroutineId]] = []
    seen: Set[Tuple[int, CoroutineId]] = set()
    reversible = 0
    for i, j in races:
        if i >= limit:
            continue
        reversible += 1
        pi, li = step_proc[i], step_local[i]
        winner = chosen[j]
        for k in range(i + 1, j):
            if step_vc[k][pi] < li:
                winner = chosen[k]
                break
        request = (i, winner)
        if request not in seen:
            seen.add(request)
            requests.append(request)
    return reversible, requests


class SymmetryFolder:
    """Canonicalizes backtrack candidates under process renaming.

    ``groups`` are the scenario-declared interchangeable process sets
    (pids whose initial coroutine/register/mailbox configurations map
    onto each other under any permutation of the group);
    ``register_owners`` maps register names to their writer pid, which
    is how a register access in an effect signature is attributed to a
    group member. A grouped pid is *touched* by a step when the step is
    its own, reads, writes or waits on a register it owns, or targets
    its mailbox; until either pid of a transposition is touched, the
    reached state is a fixed point of that transposition and the two
    branches explore renaming-equivalent subtrees.
    """

    def __init__(
        self,
        groups: Sequence[Sequence[int]],
        register_owners: Dict[str, Optional[int]],
    ):
        self.groups: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(sorted(group)) for group in groups if len(group) >= 2
        )
        self.group_of: Dict[int, Tuple[int, ...]] = {
            pid: group for group in self.groups for pid in group
        }
        self.owners = register_owners

    def __bool__(self) -> bool:
        return bool(self.groups)

    def first_touches(
        self,
        chosen: Sequence[CoroutineId],
        effects: Sequence[EffectSignature],
        limit: int,
    ) -> Dict[int, int]:
        """First step index breaking each grouped pid's interchangeability.

        Only the first ``limit`` steps matter (nodes exist only below
        the deviation horizon); untouched pids are absent (treat as
        :data:`NEVER`).
        """
        members = self.group_of
        touched: Dict[int, int] = {}
        horizon = min(limit, len(chosen), len(effects))
        for k in range(horizon):
            if len(touched) == len(members):
                break
            pid = chosen[k][0]
            if pid in members and pid not in touched:
                touched[pid] = k
            sig = effects[k]
            head = sig[0]
            if head in ("read", "write", "wait"):
                for name in sig[1:]:
                    owner = self.owners.get(name)
                    if owner in members and owner not in touched:
                        touched[owner] = k
            elif head in ("send", "recv"):
                dest = sig[1]
                if dest in members and dest not in touched:
                    touched[dest] = k
            elif head == "bcast":  # touches every mailbox
                for pid in members:
                    if pid not in touched:
                        touched[pid] = k
        return touched

    def canonical(
        self,
        cid: CoroutineId,
        runnable: Sequence[CoroutineId],
        live: frozenset,
    ) -> CoroutineId:
        """The least live same-group representative of ``cid``.

        ``live`` holds the grouped pids still untouched at the node;
        a candidate outside every group, or already touched, is its own
        representative.
        """
        pid, role = cid
        group = self.group_of.get(pid)
        if group is None or pid not in live:
            return cid
        for other in group:
            if other == pid:
                break
            if other in live and (other, role) in runnable:
                return (other, role)
        return cid
