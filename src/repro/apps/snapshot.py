"""Signature-free Byzantine atomic snapshot (the second [5] translation).

An *atomic snapshot* object has one segment per process; ``update(v)``
sets the caller's segment and ``scan()`` returns an instantaneous view
of all segments. Afek et al. [1] gave the classic crash-tolerant
algorithm (double collect + helping); Cohen & Keidar [5] adapted it to
Byzantine processes using signatures: the danger is that a *scan
adopted from a helper* could be fabricated by a Byzantine process, and
signatures let the adopter check every component. The paper's Section 1
claim is that authenticated registers supply exactly the needed checks
without signatures, at ``n > 3f``. This module implements that design:

* Each segment is one **authenticated register** (Algorithm 2); a
  Byzantine process can overwrite *its own* segment but cannot forge a
  component of anyone else's.
* ``scan`` does repeated collects. Two identical consecutive collects
  form a *direct* scan. Otherwise, if some updater moved twice, its
  embedded scan (written with its update) is **verified component by
  component** via each segment register's ``Verify`` before adoption —
  a fabricated embedded scan fails verification because its components
  were never written (unforgeability, Obs 17).
* Verification alone bounds *authenticity*, not *freshness*: every
  genuinely-written value verifies forever, and ``EMPTY_SEGMENT``
  verifies by definition, so a Byzantine updater could serve an
  authentic-but-stale (even all-initial) embedded scan. The scan
  therefore also enforces a **seq watermark**: components of an adopted
  embedded scan must not regress below the per-owner sequence numbers
  the scanner observed directly in its own first collect (see
  ``_verify_embedded`` for the one race window that is exempted). An
  owner serving a stale embedded scan joins the blacklist like any
  other exposed-Byzantine owner.
* ``update`` first takes a scan and embeds it in the written value
  (the helping handshake of [1]). The embedded scan is the
  **unprojected** triple view — each component must remain verifiable
  against its segment register, which only the genuinely-written
  triples are (see ``procedure_scan``).

Segments hold tuples ``(seq, value, embedded_scan)``; client-facing
scans return a tuple of ``(seq, value)`` pairs indexed by pid.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.authenticated import AuthenticatedRegister
from repro.core.interfaces import DONE, AlgorithmBase
from repro.errors import ConfigurationError
from repro.sim.effects import Pause
from repro.sim.process import Program
from repro.sim.system import System
from repro.sim.values import freeze

#: Segment value meaning "never updated".
EMPTY_SEGMENT = (0, None, None)
#: Double-collect rounds a scan may take before it gives up.
MAX_COLLECT_ROUNDS = 64


def well_formed_segment(raw: Any) -> Tuple[int, Any, Any]:
    """Parse a segment register value defensively.

    A Byzantine updater can write arbitrary garbage into its own
    segment; ill-formed values read as the empty segment, which is the
    pessimistic-but-safe interpretation (the process "never updated").
    """
    if (
        isinstance(raw, tuple)
        and len(raw) == 3
        and isinstance(raw[0], int)
        and not isinstance(raw[0], bool)
        and raw[0] >= 0
    ):
        return (raw[0], raw[1], raw[2])
    return EMPTY_SEGMENT


class AtomicSnapshot:
    """Byzantine-tolerant single-writer snapshot from authenticated registers.

    Operations (recorded on object ``{name}``):

    * ``update(pid, value)`` — set the caller's segment.
    * ``scan(pid)`` — return a view: a tuple of ``(seq, value)`` per pid
      in pid order.

    :data:`MAX_COLLECT_ROUNDS` bounds the double-collect phase; when direct
    scans keep failing (segments keep moving) the embedded-scan adoption
    path provides termination exactly as in [1]. The bound only guards
    against a *pathological* adversary starving every path; hitting it
    raises rather than returning an unlinearizable view.

    ``verify_freshness`` gates the seq-watermark check on adopted
    embedded scans (see the module doc). It exists so the pre-fix
    freshness hole stays reproducible: the corpus keeps a shrunk
    counterexample recorded with ``verify_freshness=False``, and one
    campaign cell pins that configuration VIOLATING. Production use is
    the default ``True``.
    """

    OPERATIONS = ("update", "scan")

    def __init__(
        self,
        system: System,
        name: str = "snap",
        f: Optional[int] = None,
        verify_freshness: bool = True,
    ):
        self.system = system
        self.name = name
        self.f = system.f if f is None else f
        self.verify_freshness = verify_freshness
        self._segments: Dict[int, AuthenticatedRegister] = {
            pid: AuthenticatedRegister(
                system,
                name=f"{name}/seg[{pid}]",
                writer=pid,
                f=self.f,
                initial=EMPTY_SEGMENT,
            )
            for pid in system.pids
        }
        self._seq: Dict[int, int] = {pid: 0 for pid in system.pids}

    # ------------------------------------------------------------------
    def install(self) -> "AtomicSnapshot":
        """Install every segment register."""
        for register in self._segments.values():
            register.install()
        return self

    def start_helpers(self, pids: Optional[Iterable[int]] = None) -> None:
        """Start Help daemons of every segment register."""
        for register in self._segments.values():
            register.start_helpers(pids)

    def segment(self, pid: int) -> AuthenticatedRegister:
        """The authenticated register backing ``pid``'s segment."""
        return self._segments[pid]

    # ------------------------------------------------------------------
    def _collect(self, pid: int) -> Program:
        """One collect: read every segment (via the *register's* Read).

        Using the authenticated Read (not a raw register read) means each
        component is already verified-or-v0 — a Byzantine segment owner
        cannot show a collect a value that will not verify later.
        """
        view: List[Tuple[int, Any, Any]] = []
        for owner in sorted(self._segments):
            if owner == pid:
                raw = yield from self._read_own(pid)
            else:
                raw = yield from self._segments[owner].procedure_read(pid)
            view.append(well_formed_segment(raw))
        return tuple(view)

    def _read_own(self, pid: int) -> Program:
        """Read the caller's own segment.

        Algorithm 2's Read is reader-only (the writer has no reply
        channel of its own), so the owner reads its segment's backing
        tuple set directly and projects the max — safe because the owner
        is the only writer.
        """
        from repro.core.authenticated import max_tuple, well_formed_tuples
        from repro.sim.effects import ReadRegister

        register = self._segments[pid]
        raw = yield ReadRegister(register.reg_witness(pid))
        tuples = well_formed_tuples(raw)
        if tuples:
            return max_tuple(tuples)[1]
        return freeze(EMPTY_SEGMENT)

    def procedure_update(self, pid: int, value: Any) -> Program:
        """Scan, then write ``(seq, value, embedded_scan)`` to own segment."""
        embedded = yield from self.procedure_scan(pid, _nested=True)
        self._seq[pid] += 1
        payload = (self._seq[pid], freeze(value), embedded)
        yield from self._segments[pid].procedure_write(pid, payload)
        return DONE

    def procedure_scan(self, pid: int, _nested: bool = False) -> Program:
        """Double collect with verified embedded-scan adoption.

        Returns the client-facing ``((seq, value), ...)`` pair view, or —
        when ``_nested`` (the scan embedded inside an update) — the raw
        triple view ``((seq, value, embedded), ...)``. The distinction is
        load-bearing: an update must embed *triples*, because each
        embedded component is later re-verified against its segment's
        authenticated register, and only the genuinely-written triple
        verifies. Embedding the projected pair view would make every
        correct updater's embedded scan parse as all-initial — stale by
        construction and indistinguishable from the freshness attack.

        A segment owner whose embedded scan *fails* verification has
        proven itself Byzantine (a correct updater's embedded scan always
        verifies — its components are genuinely written values). Such
        owners are **blacklisted** for the rest of this scan: their
        segment's churn no longer invalidates the double collect, and
        their component is reported as its last collected (and therefore
        individually verified) value. Without this, a Byzantine updater
        could starve every scan forever by moving endlessly with
        garbage embedded scans — the liveness role signatures play in
        [5], recovered here from the registers' Verify.
        """
        moved_once: Dict[int, Tuple[int, Any, Any]] = {}
        moved_round: Dict[int, int] = {}
        blacklist: set = set()
        owners = sorted(self._segments)
        previous = yield from self._collect(pid)
        # Freshness watermark: the per-owner seqs this scan has observed
        # *directly*. A correct updater's embedded scan adopted later was
        # taken inside our interval, so (modulo the race `_verify_embedded`
        # exempts) its components can only be at least this fresh.
        floor = tuple(component[0] for component in previous)
        for round_index in range(1, MAX_COLLECT_ROUNDS + 1):
            current = yield from self._collect(pid)
            stable = all(
                current[index] == previous[index]
                for index, owner in enumerate(owners)
                if owner not in blacklist
            )
            if stable:
                return current if _nested else self._project(current)
            adopted = yield from self._try_adopt(
                pid,
                previous,
                current,
                moved_once,
                moved_round,
                blacklist,
                floor,
                round_index,
            )
            if adopted is not None:
                return adopted if _nested else self._project(adopted)
            previous = current
            yield Pause()
        raise ConfigurationError(
            f"scan by p{pid} exhausted {MAX_COLLECT_ROUNDS} collect "
            f"rounds without converging or adopting"
        )

    def _try_adopt(
        self,
        pid: int,
        previous: Sequence[Tuple[int, Any, Any]],
        current: Sequence[Tuple[int, Any, Any]],
        moved_once: Dict[int, Tuple[int, Any, Any]],
        moved_round: Dict[int, int],
        blacklist: set,
        floor: Sequence[int],
        round_index: int,
    ) -> Program:
        """Adopt a twice-moved updater's embedded scan, after verifying it.

        A mover's second observed update began after our scan started, so
        its embedded scan was taken inside our interval (the [1]
        argument). Verification of every component against its segment's
        authenticated register blocks fabricated views, and the freshness
        watermark blocks authentic-but-stale ones; an owner caught either
        way joins the blacklist.
        """
        owners = sorted(self._segments)
        for index, owner in enumerate(owners):
            if owner == pid or owner in blacklist:
                continue
            if current[index] == previous[index]:
                continue
            if owner in moved_once and current[index] != moved_once[owner]:
                embedded = current[index][2]
                verified = yield from self._verify_embedded(
                    pid,
                    embedded,
                    mover=owner,
                    floor=floor,
                    early_mover=moved_round.get(owner) == 1,
                )
                if verified is not None:
                    return verified
                blacklist.add(owner)  # exposed as Byzantine
            if owner not in moved_once:
                moved_once[owner] = current[index]
                moved_round[owner] = round_index
        return None

    def _verify_embedded(
        self,
        pid: int,
        embedded: Any,
        mover: Optional[int] = None,
        floor: Sequence[int] = (),
        early_mover: bool = False,
    ) -> Program:
        """Check an embedded scan component-by-component.

        Returns the verified *triple* view (``None`` if bogus) so that
        nested adoption re-embeds verifiable components; the caller
        projects to pairs only at the client boundary.

        Two independent checks per component:

        * **Authenticity** — the value was genuinely written (the
          segment register's Verify; ``EMPTY_SEGMENT`` is v0 and always
          authentic; own-segment components are checked against our own
          seq counter instead, since Verify of our own register would
          accept anything we ever wrote).
        * **Freshness** (when ``verify_freshness``) — the component's
          seq must not regress below ``floor``, the seqs this scan's
          *first* collect observed directly. Soundness: for a correct
          mover, the adopted update's embedded collect read owner ``A``'s
          segment *after* the mover's previous write completed, which is
          after our first-collect read of the mover — and, because a
          collect reads owners in sorted order, after our first-collect
          read of every ``A < mover`` too. Correct segments are
          seq-monotone, so those components cannot be below our floor.
          The one unprovable case — ``A > mover`` when the mover's first
          observed change was already on our second collect
          (``early_mover``: its embedded collect may have read ``A``
          before our first collect got there) — is exempted rather than
          risk blacklisting a correct helper over a race.
        """
        owners = sorted(self._segments)
        if not isinstance(embedded, tuple) or len(embedded) != len(owners):
            return None
        view: List[Tuple[int, Any, Any]] = []
        for index, owner in enumerate(owners):
            component = well_formed_segment(embedded[index])
            view.append(component)
            if self.verify_freshness and floor:
                exempt = early_mover and mover is not None and owner > mover
                if not exempt and component[0] < floor[index]:
                    return None  # authentic-or-initial but provably stale
            if component == EMPTY_SEGMENT:
                continue  # the initial value always verifies
            if owner == pid:
                # Own segment: we know what we wrote; accept only values
                # we actually produced.
                if component[0] > self._seq[pid]:
                    return None
                continue
            ok = yield from self._segments[owner].procedure_verify(
                pid, component
            )
            if not ok:
                return None
        return tuple(view)

    @staticmethod
    def _project(
        view: Sequence[Tuple[int, Any, Any]]
    ) -> Tuple[Tuple[int, Any], ...]:
        """Strip embedded scans from a view: ``((seq, value), ...)``."""
        return tuple((seq, value) for (seq, value, _embedded) in view)

    op = AlgorithmBase.op
