"""Fork-based prefix sharing for the systematic explorer.

The stateless explorer re-executes every node of the search tree from
the root, so all siblings of a node pay the same prefix again — a
depth-``d`` subtree costs O(d^2) prefix steps on top of the completion
tails. The kernel state cannot be checkpointed in-process (live
generator frames are neither picklable nor clonable), but on POSIX it
*can* be checkpointed by the operating system: ``os.fork`` hands a child
a copy-on-write snapshot of the whole process, suspended generators
included, for free.

:class:`BranchExecutor` exploits that. When the search loop expands a
node it registers each depth's sibling set as a *group*; when the first
sibling of a group is popped, the executor

1. materializes the shared parent prefix **once**, in-process, via
   :class:`repro.explore.explorer.InstrumentedRun` (the exact code path
   plain re-execution uses, so scheduler and recorder state match a
   from-scratch replay bit for bit);
2. forks one child per sibling; each child appends its decision index
   to the inherited scheduler's prefix, drives the run to completion —
   a continuation bit-identical to a from-scratch execution of
   ``parent + (index,)`` — and pickles the resulting
   :class:`~repro.explore.explorer.RunRecord` down a pipe;
3. hands records back to the search loop strictly at *pop* time, so the
   loop processes results in exactly the order plain re-execution
   would, and reports (memoization, pruning counters, unique states,
   verdicts) are identical between the two engines.

Children exit through ``os._exit`` (no atexit/buffer replay) and are
reaped on fetch; :meth:`BranchExecutor.close` kills and reaps whatever
speculative work the budget cut off. On platforms without ``fork`` the
explorer falls back to plain re-execution; ``explore(...,
prefix_sharing="auto")`` also prefers re-execution on hosts with fewer
than four CPUs, where the fork/IPC tax outweighs sharing (children have
too few cores to overlap on).
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import traceback
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SchedulerError

#: Sentinel: the executor does not manage this prefix — re-execute it.
MISS = object()
#: Sentinel: the prefix is unrealizable — skip it silently (the mirror
#: of the SchedulerError `continue` on the replay path).
SKIPPED = object()

Prefix = Tuple[int, ...]


class ForkChildError(RuntimeError):
    """A forked sibling crashed (anything but an unrealizable prefix).

    The replay engine would have propagated the underlying exception;
    the fork engine re-raises it here — carrying the child's traceback
    text — so a scenario bug never silently shrinks the explored tree.
    """


def fork_available() -> bool:
    """Whether this platform supports the fork branch executor."""
    return hasattr(os, "fork") and sys.platform not in ("win32", "emscripten", "wasi")


class BranchExecutor:
    """Executes sibling groups of the search tree from shared prefixes.

    One instance serves one ``explore()`` call; it is not thread-safe
    and must be :meth:`close`\\ d (the search loop does so in a
    ``finally``).
    """

    def __init__(
        self,
        scenario,
        depth_bound: int,
        schedule_label: str = "",
        fingerprints: bool = True,
        ctx=None,
        early_exit: bool = False,
    ):
        self._scenario = scenario
        self._depth_bound = depth_bound
        self._schedule_label = schedule_label
        self._fingerprints = fingerprints
        #: Oracle caches / early-exit flag forwarded to every run. The
        #: ctx lives in the parent; forked children mutate a copy-on-write
        #: snapshot that dies with them (correctness is unaffected, only
        #: the hit rate is lower than on the replay engine).
        self._ctx = ctx
        self._early_exit = early_exit
        #: parent trace -> sibling indices, registered but not launched.
        self._groups: Dict[Prefix, List[int]] = {}
        #: child prefix -> owning parent trace.
        self._member: Dict[Prefix, Prefix] = {}
        #: child prefix -> (pid, read fd), or None when pre-skipped.
        self._pending: Dict[Prefix, Optional[Tuple[int, int]]] = {}
        #: Prefix steps executed once per group to materialize the share.
        self.replayed_steps = 0
        #: Prefix steps the forked children inherited instead of paying.
        self.shared_steps = 0

    # ------------------------------------------------------------------
    def register_group(self, parent_trace: Prefix, indices: Sequence[int]) -> None:
        """Declare the siblings ``parent_trace + (i,)`` for later execution.

        Registration is incremental: the dpor search loop discovers one
        backtrack at a time, so siblings registered before the group's
        first fetch accumulate into one shared-prefix launch. Members
        added after the launch simply miss and fall back to replay.
        """
        if not indices:
            return
        group = self._groups.setdefault(parent_trace, [])
        for index in indices:
            child = parent_trace + (index,)
            if child not in self._member:
                group.append(index)
                self._member[child] = parent_trace

    def fetch(self, prefix: Prefix):
        """The RunRecord for ``prefix``, or the MISS / SKIPPED sentinel.

        Launches the owning group on first touch; subsequent siblings of
        the same group collect their already-forked results.
        """
        if prefix in self._pending:
            return self._collect(prefix)
        parent = self._member.get(prefix)
        if parent is None or parent not in self._groups:
            return MISS
        self._launch(parent)
        if prefix in self._pending:
            return self._collect(prefix)
        return MISS

    # ------------------------------------------------------------------
    def _launch(self, parent_trace: Prefix) -> None:
        from repro.explore.explorer import InstrumentedRun

        indices = self._groups.pop(parent_trace)
        if len(indices) == 1:
            # A singleton group shares its prefix with nobody: forking
            # would pay the in-process prefix materialization *plus* the
            # fork/pickle/pipe tax with zero overlap — strictly worse
            # than plain replay. Drop the membership so the search loop
            # re-executes it.
            self._member.pop(parent_trace + (indices[0],), None)
            return
        run = None
        try:
            run = InstrumentedRun(
                self._scenario,
                parent_trace,
                self._depth_bound,
                fingerprints=self._fingerprints,
                schedule_label=self._schedule_label,
                ctx=self._ctx,
                early_exit=self._early_exit,
            )
            realizable = run.run_prefix_steps(len(parent_trace))
        except SchedulerError:
            # The whole group replays an unrealizable prefix; every
            # sibling would raise identically — skip them all.
            if run is not None:
                run.dispose()
            for index in indices:
                self._pending[parent_trace + (index,)] = None
            return
        if not realizable:
            # The run ended before the prefix was consumed (should not
            # happen for prefixes cut from a longer base run); drop the
            # memberships so the search loop re-executes plainly.
            for index in indices:
                self._member.pop(parent_trace + (index,), None)
            run.dispose()
            return
        self.replayed_steps += len(parent_trace)
        for index in indices:
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                # Child: finish the inherited run as sibling `index`.
                os.close(read_fd)
                try:
                    run.extend_prefix(index)
                    payload = pickle.dumps(
                        run.finish(), protocol=pickle.HIGHEST_PROTOCOL
                    )
                except SchedulerError:
                    # Unrealizable sibling -> explicit skip (the mirror
                    # of the replay path's `continue`).
                    payload = pickle.dumps(None)
                except BaseException as exc:
                    # Anything else is a real bug: ship the traceback so
                    # the parent re-raises instead of silently skipping.
                    try:
                        payload = pickle.dumps(
                            ("error", traceback.format_exc())
                        )
                    except Exception:
                        payload = pickle.dumps(("error", repr(exc)))
                try:
                    with os.fdopen(write_fd, "wb") as out:
                        out.write(payload)
                except BaseException:
                    pass
                os._exit(0)
            os.close(write_fd)
            self._pending[parent_trace + (index,)] = (pid, read_fd)
            self.shared_steps += len(parent_trace)
        run.dispose()

    def _collect(self, prefix: Prefix):
        entry = self._pending.pop(prefix)
        self._member.pop(prefix, None)
        if entry is None:
            return SKIPPED
        pid, read_fd = entry
        with os.fdopen(read_fd, "rb") as source:
            payload = source.read()
        os.waitpid(pid, 0)
        if not payload:
            raise ForkChildError(
                f"fork child for prefix {prefix!r} died without reporting "
                f"(killed or crashed before writing its record)"
            )
        record = pickle.loads(payload)
        if record is None:
            return SKIPPED
        if type(record) is tuple and record and record[0] == "error":
            raise ForkChildError(
                f"fork child for prefix {prefix!r} crashed:\n{record[1]}"
            )
        return record

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Kill and reap speculative children the search never consumed."""
        for entry in self._pending.values():
            if entry is None:
                continue
            pid, read_fd = entry
            try:
                os.close(read_fd)
            except OSError:
                pass
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError, OSError):
                pass
            try:
                os.waitpid(pid, 0)
            except (ChildProcessError, OSError):
                pass
        self._pending.clear()
        self._groups.clear()
        self._member.clear()
