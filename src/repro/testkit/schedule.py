"""Deterministic schedule control for the ``repro.openmp`` runtime.

The shared-memory runtime already announces every synchronization and
memory event through :data:`repro.obs.hooks.openmp` — and observers run *in
the emitting thread*, which means an observer can park that thread.  The
:class:`ScheduleController` exploits this: it serializes a team so that
exactly one member runs at a time, and at every instrumented yield point
(shared reads/writes, lock acquisitions, barriers) it hands the turn to
whichever thread a pluggable :class:`Scheduler` picks.  The result is a
*deterministic* interleaving: the same scheduler decisions produce the
same execution, every run, on any machine.

Yield discipline.  Events are emitted *before* the operation they
announce (``read``/``write`` precede the access, ``acquire_enter``
precedes the lock attempt), so a thread parked at an event has not yet
performed the operation — the granted thread always executes exactly its
announced pending op.  Threads never block on a real lock while
unscheduled: a thread wanting a held lock parks on its turn gate and only
becomes runnable once the owner has released, so multi-waiter lock
handoff is scheduler-chosen, not OS-chosen.

Schedules are summarized as compact **replay tokens**: at each decision
with more than one runnable thread, the chosen team-thread number is
appended (base-36); forced decisions are omitted.  ``o1.<nthreads>.<chars>``
replays byte-for-byte via :class:`ReplayScheduler`.

The controller fails *open*: a stall watchdog releases every gate if no
progress happens for ``stall_timeout`` seconds (e.g. a body blocked on an
uninstrumented primitive), so a bad schedule degrades to a free-running
— but flagged — execution instead of hanging the test suite.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..obs.hooks import openmp as _hooks

__all__ = [
    "Decision",
    "ScheduledRun",
    "Scheduler",
    "RandomScheduler",
    "RoundRobinScheduler",
    "ReplayScheduler",
    "ConflictEagerScheduler",
    "ScheduleController",
    "run_scheduled",
    "encode_token",
    "decode_token",
    "lost_update_witness",
]

# Thread states.  WAITING threads are parked on their turn gate and
# runnable (subject to lock availability); BARRIER threads sit in the real
# team barrier; TRANSIT threads were released by the barrier and are racing
# to their next park point (no decisions fire until they all re-park).
WAITING, RUNNING, BARRIER, TRANSIT, DONE = (
    "waiting", "running", "barrier", "transit", "done",
)

_TOKEN_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class Decision:
    """One scheduling decision: who could run, what they would do, who ran."""

    index: int
    runnable: tuple[int, ...]
    pending: dict[int, tuple]
    chosen: int

    @property
    def forced(self) -> bool:
        return len(self.runnable) == 1


class Scheduler:
    """Strategy interface: consulted only at branch points (>1 runnable)."""

    def choose(
        self, runnable: Sequence[int], pending: dict[int, tuple], last: int | None
    ) -> int:
        raise NotImplementedError


class RandomScheduler(Scheduler):
    """Seeded uniform choice — the fuzzing strategy."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._rng = random.Random(seed)

    def choose(self, runnable, pending, last):
        return self._rng.choice(list(runnable))


class RoundRobinScheduler(Scheduler):
    """Fair rotation: the lowest thread above the last choice, cycling."""

    def __init__(self) -> None:
        self._last = -1

    def choose(self, runnable, pending, last):
        above = [t for t in runnable if t > self._last]
        choice = min(above) if above else min(runnable)
        self._last = choice
        return choice


class ReplayScheduler(Scheduler):
    """Replay a recorded branch-choice sequence; deterministic fill beyond it.

    When the recorded choice is impossible (the workload changed shape) the
    scheduler falls back to the lowest runnable thread and clears
    :attr:`faithful`, so callers can tell an exact replay from a best-effort
    one.  Past the end of the sequence it prefers to keep the current thread
    running (fewest context switches), else picks the lowest runnable.
    """

    def __init__(self, choices: Sequence[int]) -> None:
        self.choices = list(choices)
        self.consumed = 0
        self.faithful = True

    def choose(self, runnable, pending, last):
        if self.consumed < len(self.choices):
            want = self.choices[self.consumed]
            self.consumed += 1
            if want in runnable:
                return want
            self.faithful = False
            return min(runnable)
        if last is not None and last in runnable:
            return last
        return min(runnable)


class ConflictEagerScheduler(Scheduler):
    """Deterministic lost-update hunter, used by lint-seeded exploration.

    Tracks open read→write windows the way :func:`lost_update_witness`
    does and, at every branch, prefers in order: a write landing inside
    another thread's open window (that *is* the witness), a read
    overlapping someone else's window, any other shared read, waking a
    parked thread.  Ties break toward the lowest thread number, so the
    schedule — and its replay token — is fully deterministic.
    """

    def __init__(self) -> None:
        self._open: dict[Any, set[int]] = {}

    def _rank(self, t: int, op: tuple) -> int:
        kind = op[0]
        if kind == "write" and self._open.get(op[1], set()) - {t}:
            return 0
        if kind == "read":
            return 1 if self._open.get(op[1], set()) - {t} else 2
        if kind in ("start", "resume"):
            return 3
        return 4

    def choose(self, runnable, pending, last):
        chosen = min(runnable, key=lambda t: (self._rank(t, pending[t]), t))
        op = pending[chosen]
        if op[0] == "read":
            self._open.setdefault(op[1], set()).add(chosen)
        elif op[0] == "write":
            self._open.get(op[1], set()).discard(chosen)
        return chosen


def encode_token(nthreads: int, decisions: Sequence[Decision]) -> str:
    """Compact replay token: version, team width, branch choices (base-36)."""
    chars = "".join(
        _TOKEN_DIGITS[d.chosen] for d in decisions if not d.forced
    )
    return f"o1.{nthreads}.{chars or '-'}"


def decode_token(token: str) -> tuple[int, list[int]]:
    """Parse a replay token into ``(nthreads, branch_choices)``."""
    parts = token.split(".")
    if len(parts) != 3 or parts[0] != "o1":
        raise ValueError(
            f"bad schedule token {token!r}: expected 'o1.<nthreads>.<choices>'"
        )
    try:
        nthreads = int(parts[1])
    except ValueError:
        raise ValueError(f"bad thread count in schedule token {token!r}") from None
    if parts[2] == "-":
        return nthreads, []
    try:
        choices = [_TOKEN_DIGITS.index(c) for c in parts[2]]
    except ValueError:
        raise ValueError(f"bad choice characters in schedule token {token!r}") from None
    return nthreads, choices


class ScheduleController:
    """Observer that serializes a team and drives it from a :class:`Scheduler`.

    Attach with ``repro.obs.hooks.openmp.attach(controller)`` (plain
    observer); the first ``fork`` it sees becomes the controlled region.
    Nested regions are serialized by the runtime (team of one) and pass
    through uncontrolled.
    """

    def __init__(self, scheduler: Scheduler, stall_timeout: float = 10.0) -> None:
        self.scheduler = scheduler
        self.stall_timeout = stall_timeout
        self.decisions: list[Decision] = []
        self.stalled = False
        self.nthreads = 0

        self._mutex = threading.Lock()
        self._active_team: int | None = None
        self._threads: dict[int, int] = {}  # OS ident -> team thread num
        self._gates: dict[int, threading.Semaphore] = {}
        self._states: dict[int, str] = {}
        self._pending: dict[int, tuple] = {}
        self._lock_owner: dict[Any, int] = {}
        self._barrier_set: set[int] = set()
        self._transit = 0
        self._registered = 0
        self._done = 0
        self._started = False
        self._current: int | None = None
        self._last: int | None = None
        self._heartbeat = 0
        self._closed = False

    # ------------------------------------------------------------- scheduling
    def _runnable(self, t: int) -> bool:
        state = self._states[t]
        if state != WAITING:
            return False
        op = self._pending[t]
        if op[0] == "acquire":  # parked before a lock attempt: needs it free
            return op[1] not in self._lock_owner
        return True

    def _dispatch(self) -> None:
        """Pick and grant the next thread.  Caller holds ``_mutex``."""
        if self._current is not None or self._transit or not self._started:
            return
        runnable = tuple(t for t in sorted(self._states) if self._runnable(t))
        if not runnable:
            return  # everyone is in the barrier (or finished)
        if len(runnable) == 1:
            chosen = runnable[0]
        else:
            chosen = self.scheduler.choose(
                runnable, {t: self._pending[t] for t in runnable}, self._last
            )
            if chosen not in runnable:  # defensive: a broken strategy
                chosen = min(runnable)
        self.decisions.append(
            Decision(
                index=len(self.decisions),
                runnable=runnable,
                pending={t: self._pending[t] for t in runnable},
                chosen=chosen,
            )
        )
        self._current = chosen
        self._last = chosen
        self._states[chosen] = RUNNING
        self._gates[chosen].release()

    def _park(self, t: int, op: tuple) -> None:
        """Announce ``op``, give up the turn, wait to be granted it back."""
        with self._mutex:
            self._heartbeat += 1
            self._states[t] = WAITING
            self._pending[t] = op
            if self._current == t:
                self._current = None
            self._dispatch()
        self._gates[t].acquire()

    # --------------------------------------------------------------- observer
    def __call__(self, event: str, *args: Any) -> None:
        if self.stalled or self._closed:
            return
        handler = getattr(self, f"_ev_{event}", None)
        if handler is not None:
            handler(*args)

    def _tnum(self) -> int | None:
        return self._threads.get(threading.get_ident())

    # -- region lifecycle --------------------------------------------------
    def _ev_fork(self, team: Any) -> None:
        with self._mutex:
            if self._active_team is None:
                self._active_team = id(team)
                self.nthreads = team.num_threads

    def _ev_thread_begin(self, team: Any, n: int) -> None:
        if id(team) != self._active_team:
            return
        ident = threading.get_ident()
        with self._mutex:
            self._threads[ident] = n
            self._gates[n] = threading.Semaphore(0)
            self._states[n] = WAITING
            self._pending[n] = ("start",)
            self._registered += 1
            self._heartbeat += 1
            if self._registered == self.nthreads:
                self._started = True
                self._dispatch()
        self._gates[n].acquire()

    def _ev_thread_end(self, team: Any, n: int) -> None:
        t = self._tnum()
        if t is None or id(team) != self._active_team:
            return
        with self._mutex:
            self._heartbeat += 1
            if self._states.get(t) == TRANSIT:  # died inside a broken barrier
                self._transit -= 1
            self._barrier_set.discard(t)
            self._states[t] = DONE
            self._done += 1
            if self._current == t:
                self._current = None
            self._dispatch()

    def _ev_join(self, team: Any) -> None:
        if id(team) != self._active_team:
            return
        with self._mutex:
            # Reset so a subsequent region in the same run is controlled too.
            self._active_team = None
            self._threads.clear()
            self._states.clear()
            self._pending.clear()
            self._gates.clear()
            self._lock_owner.clear()
            self._barrier_set.clear()
            self._transit = 0
            self._registered = 0
            self._done = 0
            self._started = False
            self._current = None

    # -- yield points ------------------------------------------------------
    def _ev_read(self, key: Any, obj: Any) -> None:
        t = self._tnum()
        if t is not None and self._states.get(t) == RUNNING:
            self._park(t, ("read", key))

    def _ev_write(self, key: Any, obj: Any) -> None:
        t = self._tnum()
        if t is not None and self._states.get(t) == RUNNING:
            self._park(t, ("write", key))

    def _ev_acquire_enter(self, key: Any) -> None:
        t = self._tnum()
        if t is not None and self._states.get(t) == RUNNING:
            # Park *before* the real acquire; _runnable() admits the thread
            # only once the lock is free, so it never blocks unscheduled.
            self._park(t, ("acquire", key))

    def _ev_acquire(self, key: Any) -> None:
        t = self._tnum()
        if t is not None and self._states.get(t) == RUNNING:
            with self._mutex:
                self._lock_owner[key] = t

    def _ev_release(self, key: Any) -> None:
        t = self._tnum()
        if t is not None and self._states.get(t) == RUNNING:
            with self._mutex:
                self._lock_owner.pop(key, None)

    # -- barriers ----------------------------------------------------------
    def _ev_barrier_enter(self, team: Any) -> None:
        t = self._tnum()
        if t is None or id(team) != self._active_team:
            return
        with self._mutex:
            self._heartbeat += 1
            self._states[t] = BARRIER
            self._barrier_set.add(t)
            self._pending[t] = ("barrier",)
            if self._current == t:
                self._current = None
            live = {u for u, s in self._states.items() if s != DONE}
            if self._barrier_set >= live:
                # Last arrival: the real barrier is about to release everyone
                # at once.  Hold decisions until each member re-parks.
                for m in self._barrier_set:
                    self._states[m] = TRANSIT
                self._transit = len(self._barrier_set)
                self._barrier_set.clear()
            else:
                self._dispatch()
        # fall through to the real team barrier

    def _ev_barrier_exit(self, team: Any) -> None:
        t = self._tnum()
        if t is None or id(team) != self._active_team:
            return
        if self._states.get(t) != TRANSIT:
            return
        with self._mutex:
            self._heartbeat += 1
            self._transit -= 1
            self._states[t] = WAITING
            self._pending[t] = ("resume",)
            if self._transit == 0:
                self._dispatch()
        self._gates[t].acquire()

    # ------------------------------------------------------------- fail-open
    def close(self) -> None:
        """Stop controlling; release every parked thread (idempotent)."""
        with self._mutex:
            self._closed = True
            gates = list(self._gates.values())
        for gate in gates:
            for _ in range(64):
                gate.release()

    def _watch(self, finished: threading.Event) -> None:
        last_beat = -1
        while not finished.wait(self.stall_timeout):
            with self._mutex:
                beat = self._heartbeat
            if beat == last_beat:
                self.stalled = True
                self.close()
                return
            last_beat = beat


@dataclass
class ScheduledRun:
    """Outcome of :func:`run_scheduled`."""

    result: Any
    error: BaseException | None
    decisions: list[Decision]
    nthreads: int
    stalled: bool
    faithful: bool = True
    token: str = ""

    @property
    def ok(self) -> bool:
        return self.error is None and not self.stalled


def run_scheduled(
    fn: Callable[[], Any],
    scheduler: Scheduler,
    stall_timeout: float = 10.0,
) -> ScheduledRun:
    """Run ``fn`` with its parallel regions driven by ``scheduler``.

    Returns the function's result (or captured exception), the decision
    trace, and the replay token that reproduces this exact interleaving.
    """
    controller = ScheduleController(scheduler, stall_timeout=stall_timeout)
    finished = threading.Event()
    watchdog = threading.Thread(
        target=controller._watch, args=(finished,),
        name="testkit-watchdog", daemon=True,
    )
    _hooks.attach(controller)
    watchdog.start()
    result: Any = None
    error: BaseException | None = None
    try:
        result = fn()
    except BaseException as exc:  # noqa: BLE001 - reported, not swallowed
        error = exc
    finally:
        finished.set()
        _hooks.detach(controller)
        controller.close()
    faithful = getattr(scheduler, "faithful", True)
    return ScheduledRun(
        result=result,
        error=error,
        decisions=controller.decisions,
        nthreads=controller.nthreads,
        stalled=controller.stalled,
        faithful=faithful,
        token=encode_token(controller.nthreads, controller.decisions),
    )


def lost_update_witness(decisions: Sequence[Decision]) -> tuple | None:
    """Find an overlapping read-modify-write in a decision trace.

    Returns ``(key, reader, writer)`` when thread ``writer`` wrote ``key``
    while ``reader`` was between its read and its write of the same key —
    the interleaving that *guarantees* a lost update — else ``None``.
    Granted ops are executed in decision order, so scanning the trace is
    exact, not heuristic.
    """
    open_rmw: dict[Any, set[int]] = {}  # key -> threads mid read...write
    for d in decisions:
        op = d.pending[d.chosen]
        if op[0] == "read":
            open_rmw.setdefault(op[1], set()).add(d.chosen)
        elif op[0] == "write":
            readers = open_rmw.get(op[1], set())
            others = readers - {d.chosen}
            if others:
                return (op[1], min(others), d.chosen)
            readers.discard(d.chosen)
    return None
