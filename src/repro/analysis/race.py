"""Happens-before data-race detection for the ``repro.openmp`` runtime.

The detector consumes the event stream that the runtime emits through
:data:`repro.obs.hooks.openmp` and maintains:

* a vector clock per logical thread (FastTrack-style: clocks advance on
  release/fork/join/barrier, accesses are recorded as epochs);
* a clock per lock (``critical`` sections, ``omp_lock_t``, the lock inside
  :class:`~repro.openmp.sync.AtomicCounter`);
* per-location shadow state: last-write epoch plus per-thread read epochs —
  enough to decide, for every access, whether the previous conflicting
  access is ordered before it;
* an Eraser-style candidate lockset per location as a fallback heuristic:
  a location written by several threads whose accesses share no common lock
  is suspicious even if this particular schedule happened to order them.

Unlike the probabilistic lost-update demonstration, the happens-before
verdict is *deterministic*: two threads that update a shared location with
no ordering edge between them are reported on every run, whatever the
scheduler did.

Usage::

    from repro.analysis import TrackedVar, race_detector

    with race_detector() as detector:
        counter = AtomicCounter(0)          # instrumented by the runtime
        x = TrackedVar(0, name="x")         # explicitly tracked variable
        ... run parallel code ...
    report = detector.report()
"""

from __future__ import annotations

import contextlib
import sys
import threading
from typing import Any, Generator

from ..obs.hooks import openmp as _hooks
from .diagnostics import ERROR, INFO, WARNING, AnalysisReport, Diagnostic
from .vectorclock import Epoch, VectorClock

__all__ = ["RaceDetector", "TrackedVar", "instrument", "race_detector"]

#: Source files whose frames are runtime machinery, not user code.
_RUNTIME_MARKERS = ("repro/openmp", "repro\\openmp", "repro/analysis", "repro\\analysis")


def _caller_site(skip_self: bool = True) -> str:
    """``file:line`` of the nearest stack frame outside the runtime layers."""
    frame = sys._getframe(1)
    while frame is not None:
        filename = frame.f_code.co_filename
        if not any(marker in filename for marker in _RUNTIME_MARKERS):
            return f"{filename}:{frame.f_lineno}"
        frame = frame.f_back
    return "<unknown>"


class _Shadow:
    """Per-location shadow state: write epoch, read epochs, lockset."""

    __slots__ = ("label", "write", "reads", "lockset", "threads", "written", "reported")

    def __init__(self, label: str) -> None:
        self.label = label
        self.write: Epoch | None = None
        self.reads: dict[int, Epoch] = {}
        self.lockset: set[Any] | None = None  # None until the first access
        self.threads: set[int] = set()
        self.written = False
        self.reported = False


class RaceDetector:
    """Vector-clock happens-before engine over the runtime's event stream."""

    def __init__(self, target: str = "openmp") -> None:
        self.target = target
        self._mutex = threading.Lock()
        self._tids: dict[int, int] = {}  # OS ident -> dense logical tid
        self._clocks: dict[int, VectorClock] = {}
        self._lock_clocks: dict[Any, VectorClock] = {}
        self._held: dict[int, list[Any]] = {}
        # fork/join bookkeeping, keyed by team identity
        self._birth: dict[int, tuple[int, VectorClock]] = {}
        self._finals: dict[int, list[VectorClock]] = {}
        # barrier generations: (team, tid) -> count, (team, generation) -> acc
        self._barrier_count: dict[tuple[int, int], int] = {}
        self._barrier_acc: dict[tuple[int, int], VectorClock] = {}
        # task bookkeeping: handle id -> clock snapshots
        self._task_submit: dict[int, VectorClock] = {}
        self._task_final: dict[int, VectorClock] = {}
        self._shadows: dict[Any, _Shadow] = {}
        self.diagnostics: list[Diagnostic] = []
        self.notes: list[str] = []
        self._access_count = 0

    # ------------------------------------------------------------------ plumbing
    def _tid(self) -> int:
        ident = threading.get_ident()
        tid = self._tids.get(ident)
        if tid is None:
            tid = self._tids[ident] = len(self._tids)
            clock = VectorClock()
            clock.tick(tid)
            self._clocks[tid] = clock
            self._held[tid] = []
        return tid

    def _clock(self, tid: int) -> VectorClock:
        return self._clocks[tid]

    # ------------------------------------------------------------------ observer
    def __call__(self, event: str, *args: Any) -> None:
        with self._mutex:
            handler = getattr(self, f"_on_{event}", None)
            if handler is not None:
                handler(*args)

    # -- fork / join -------------------------------------------------------------
    def _on_fork(self, team: Any) -> None:
        tid = self._tid()
        clock = self._clock(tid)
        self._birth[id(team)] = (tid, clock.copy())
        self._finals[id(team)] = []
        clock.tick(tid)

    def _on_thread_begin(self, team: Any, thread_num: int) -> None:
        tid = self._tid()
        birth = self._birth.get(id(team))
        if birth is None:
            return
        parent_tid, birth_clock = birth
        if tid == parent_tid:
            return  # the master thread runs in the forking thread
        fresh = birth_clock.copy()
        fresh.tick(tid)
        self._clocks[tid] = fresh

    def _on_thread_end(self, team: Any, thread_num: int) -> None:
        tid = self._tid()
        finals = self._finals.get(id(team))
        if finals is not None:
            finals.append(self._clock(tid).copy())

    def _on_join(self, team: Any) -> None:
        tid = self._tid()
        clock = self._clock(tid)
        clock.join_all(self._finals.pop(id(team), []))
        self._birth.pop(id(team), None)
        clock.tick(tid)

    # -- barriers ----------------------------------------------------------------
    def _on_barrier_enter(self, team: Any) -> None:
        tid = self._tid()
        generation = self._barrier_count.get((id(team), tid), 0)
        self._barrier_count[(id(team), tid)] = generation + 1
        acc = self._barrier_acc.setdefault((id(team), generation), VectorClock())
        acc.join(self._clock(tid))

    def _on_barrier_exit(self, team: Any) -> None:
        tid = self._tid()
        generation = self._barrier_count.get((id(team), tid), 1) - 1
        acc = self._barrier_acc.get((id(team), generation))
        clock = self._clock(tid)
        if acc is not None:
            clock.join(acc)
        clock.tick(tid)

    # -- locks -------------------------------------------------------------------
    def _on_acquire(self, key: Any) -> None:
        tid = self._tid()
        held = self._lock_clocks.get(key)
        if held is not None:
            self._clock(tid).join(held)
        self._held[tid].append(key)

    def _on_release(self, key: Any) -> None:
        tid = self._tid()
        clock = self._clock(tid)
        self._lock_clocks[key] = clock.copy()
        clock.tick(tid)
        stack = self._held[tid]
        if key in stack:
            stack.remove(key)

    # -- tasks -------------------------------------------------------------------
    def _on_task_submit(self, hid: int) -> None:
        tid = self._tid()
        clock = self._clock(tid)
        self._task_submit[hid] = clock.copy()
        clock.tick(tid)

    def _on_task_start(self, hid: int) -> None:
        tid = self._tid()
        submitted = self._task_submit.get(hid)
        if submitted is not None:
            self._clock(tid).join(submitted)

    def _on_task_end(self, hid: int) -> None:
        tid = self._tid()
        clock = self._clock(tid)
        self._task_final[hid] = clock.copy()
        clock.tick(tid)

    def _on_task_join(self, hid: int) -> None:
        tid = self._tid()
        final = self._task_final.get(hid)
        if final is not None:
            self._clock(tid).join(final)

    def _on_task_join_all(self) -> None:
        tid = self._tid()
        self._clock(tid).join_all(self._task_final.values())

    # -- reductions (informational) ----------------------------------------------
    def _on_reduction(self, name: str) -> None:
        note = (
            f"reduction {name!r} combined private per-thread partials at the "
            "join — no shared-state updates to race on"
        )
        if note not in self.notes:
            self.notes.append(note)

    # -- memory accesses ----------------------------------------------------------
    def _label_for(self, obj: Any) -> str:
        name = getattr(obj, "_analysis_name", None)
        site = getattr(obj, "_site", None)
        kind = type(obj).__name__
        if name:
            return f"{kind} {name!r}" + (f" allocated at {site}" if site else "")
        if site:
            return f"{kind} allocated at {site}"
        return f"{kind} @0x{id(obj):x}"

    def _shadow(self, key: Any, obj: Any) -> _Shadow:
        shadow = self._shadows.get(key)
        if shadow is None:
            shadow = self._shadows[key] = _Shadow(self._label_for(obj))
        return shadow

    def _update_lockset(self, shadow: _Shadow, tid: int) -> None:
        # Write-lockset only (Eraser's refinement): a post-join read under a
        # different lock must not empty the candidate set of the writes.
        held = set(self._held[tid])
        if shadow.lockset is None:
            shadow.lockset = held
        else:
            shadow.lockset &= held
        shadow.threads.add(tid)

    def _report_race(
        self, shadow: _Shadow, prev: Epoch, prev_kind: str, cur: Epoch, cur_kind: str
    ) -> None:
        if shadow.reported:
            return
        shadow.reported = True
        lockset = sorted(str(k) for k in (shadow.lockset or ()))
        self.diagnostics.append(
            Diagnostic(
                kind="data-race",
                severity=ERROR,
                message=(
                    f"data race on {shadow.label}: unordered "
                    f"{prev_kind} and {cur_kind} (no happens-before edge)"
                ),
                location=shadow.label,
                details={
                    "first access": prev.describe(prev_kind),
                    "second access": cur.describe(cur_kind),
                    "candidate lockset": lockset or "(empty)",
                },
            )
        )

    def _on_read(self, key: Any, obj: Any) -> None:
        tid = self._tid()
        self._access_count += 1
        site = _caller_site()
        clock = self._clock(tid)
        shadow = self._shadow(key, obj)
        write = shadow.write
        if write is not None and write.tid != tid and not write.happens_before(clock):
            self._report_race(shadow, write, "write", clock.epoch(tid, site), "read")
        shadow.reads[tid] = clock.epoch(tid, site)

    def _on_write(self, key: Any, obj: Any) -> None:
        tid = self._tid()
        self._access_count += 1
        site = _caller_site()
        clock = self._clock(tid)
        shadow = self._shadow(key, obj)
        cur = clock.epoch(tid, site)
        write = shadow.write
        if write is not None and write.tid != tid and not write.happens_before(clock):
            self._report_race(shadow, write, "write", cur, "write")
        for read in shadow.reads.values():
            if read.tid != tid and not read.happens_before(clock):
                self._report_race(shadow, read, "read", cur, "write")
                break
        shadow.write = cur
        shadow.reads.clear()
        self._update_lockset(shadow, tid)
        shadow.written = True

    # ------------------------------------------------------------------ reporting
    def finalize(self) -> None:
        """Run the Eraser-style lockset fallback over locations with no
        happens-before violation in the observed schedule."""
        with self._mutex:
            for shadow in self._shadows.values():
                if shadow.reported or not shadow.written:
                    continue
                if len(shadow.threads) >= 2 and not shadow.lockset:
                    self.diagnostics.append(
                        Diagnostic(
                            kind="lockset-empty",
                            severity=WARNING,
                            message=(
                                f"{shadow.label} is written by "
                                f"{len(shadow.threads)} threads holding no "
                                "common lock (Eraser lockset fallback); this "
                                "schedule happened to order the accesses"
                            ),
                            location=shadow.label,
                        )
                    )

    def report(self, target: str | None = None) -> AnalysisReport:
        report = AnalysisReport(
            target=target or self.target,
            engine="race-detector",
            diagnostics=list(self.diagnostics),
            notes=list(self.notes),
        )
        if not self.diagnostics:
            report.add(
                Diagnostic(
                    kind="summary",
                    severity=INFO,
                    message=(
                        f"no data race: {self._access_count} tracked accesses "
                        f"across {len(self._tids)} threads, all ordered by "
                        "happens-before"
                    ),
                )
            )
        return report


class TrackedVar:
    """A shared variable whose every access flows through the detector.

    The teaching patternlets mostly race on the runtime's own
    :class:`~repro.openmp.sync.AtomicCounter` (already instrumented);
    ``TrackedVar`` is for learner code that shares an arbitrary value::

        x = TrackedVar(0, name="x")
        x.write(x.read() + 1)     # an unprotected read-modify-write
    """

    __slots__ = ("_value", "_analysis_name", "_site")

    def __init__(self, value: Any = 0, name: str | None = None) -> None:
        self._value = value
        self._analysis_name = name
        self._site = _caller_site()

    def read(self) -> Any:
        if _hooks.enabled:
            _hooks.emit("read", id(self), self)
        return self._value

    def write(self, value: Any) -> None:
        if _hooks.enabled:
            _hooks.emit("write", id(self), self)
        self._value = value

    def add(self, delta: Any = 1) -> Any:
        """An *unprotected* read-modify-write (the classic racy increment)."""
        value = self.read()
        value = value + delta
        self.write(value)
        return value

    @property
    def value(self) -> Any:
        return self.read()

    @value.setter
    def value(self, new: Any) -> None:
        self.write(new)

    def peek(self) -> Any:
        """Read without emitting an access event (for reporting code)."""
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = self._analysis_name or f"0x{id(self):x}"
        return f"<TrackedVar {label} value={self._value!r}>"


def instrument(value: Any, name: str | None = None) -> Any:
    """Wrap ``value`` for race tracking.

    Objects the runtime already instruments (anything exposing runtime
    hooks, such as :class:`~repro.openmp.sync.AtomicCounter`) pass through
    unchanged; plain values are wrapped in a :class:`TrackedVar`.
    """
    from ..openmp.sync import AtomicAccumulator, AtomicCounter

    if isinstance(value, (TrackedVar, AtomicCounter, AtomicAccumulator)):
        return value
    return TrackedVar(value, name=name)


@contextlib.contextmanager
def race_detector(target: str = "openmp") -> Generator[RaceDetector, None, None]:
    """Attach a fresh :class:`RaceDetector` to the runtime for the scope."""
    detector = RaceDetector(target=target)
    _hooks.attach(detector)
    try:
        yield detector
    finally:
        _hooks.detach(detector)
        detector.finalize()
