"""MPI correctness checking for the ``repro.mpi`` runtime.

The checker layers on the same hook points the tracer uses — per-rank view
objects and mailboxes of ``COMM_WORLD`` — rather than forking the runtime's
code paths.  It watches a world run and diagnoses the classic student
mistakes:

* **deadlock**: every blocking call registers a wait-for edge (``recv``
  waits on its source, ``ssend`` on its destination, a collective on the
  whole communicator); when the runtime's watchdog aborts the world, the
  registered edges are turned into a cycle naming the ranks involved;
* **mismatched messages**: a typed receive whose matched message carries a
  different dtype or element count, or an object-mode message landing in a
  typed receive;
* **collective ordering**: the per-rank log of collective calls must agree
  across ranks (same operation, same root, same count) — the MPI standard's
  "called in the same order on every rank" rule;
* **resource leaks at finalize**: nonblocking requests never waited on,
  messages never received (the tag-mismatch symptom), RMA windows never
  freed.

Entry points: :func:`mpi_checker` (a context manager that audits every
world created in its scope) and :func:`check_run` (run one SPMD function
under the checker).
"""

from __future__ import annotations

import contextlib
import threading
from typing import Any, Callable, Generator

import numpy as np

from ..mpi import runtime as _runtime
from ..mpi.buffers import parse_buffer
from ..mpi.constants import ANY_SOURCE, ANY_TAG
from ..mpi.errors import DeadlockError, MPIError, TruncationError
from ..mpi.request import BufferRecvRequest, RecvRequest, SendRequest
from ..mpi.window import _WinCore
from .diagnostics import ERROR, INFO, WARNING, AnalysisReport, Diagnostic

__all__ = ["MPIChecker", "mpi_checker", "check_run"]

#: Collective verbs wrapped on each rank view; values are the positional
#: index of the ``root`` argument (None: rootless collective).
_COLLECTIVES: dict[str, int | None] = {
    "barrier": None,
    "Barrier": None,
    "bcast": 1,
    "scatter": 1,
    "gather": 1,
    "allgather": None,
    "alltoall": None,
    "reduce": 2,
    "allreduce": None,
    "scan": None,
    "exscan": None,
    "Bcast": 1,
    "Scatter": 2,
    "Scatterv": 2,
    "Gather": 2,
    "Gatherv": 2,
    "Allgather": None,
    "Alltoall": None,
    "Reduce": 3,
    "Allreduce": None,
}


class _WorldState:
    """Everything observed about one audited world."""

    def __init__(self, world: Any, index: int) -> None:
        self.world = world
        self.index = index
        self.size = world.size
        self.blocked: dict[int, dict[str, Any]] = {}
        self.collectives: dict[int, list[tuple[str, Any]]] = {
            r: [] for r in range(world.size)
        }
        self.requests: list[tuple[int, str, Any]] = []
        self.last_msg: dict[int, Any] = {}
        self.message_count = 0


def _describe_peer(peer: Any) -> str:
    return "ANY_SOURCE" if peer == ANY_SOURCE else str(peer)


class MPIChecker:
    """Audit one or more worlds; produce an :class:`AnalysisReport`."""

    def __init__(self, target: str = "mpi") -> None:
        self.target = target
        self._mutex = threading.Lock()
        self._states: list[_WorldState] = []
        self.diagnostics: list[Diagnostic] = []
        self.notes: list[str] = []

    # ------------------------------------------------------------------ attach
    def _on_world(self, world: Any) -> None:
        self.attach(world)

    def attach(self, world: Any) -> _WorldState:
        """Instrument every rank view and mailbox of ``world``'s COMM_WORLD."""
        state = _WorldState(world, len(self._states))
        with self._mutex:
            self._states.append(state)
        for rank, view in enumerate(world.comm_views):
            self._wrap_view(state, view, rank)
        for rank, mailbox in enumerate(world.comm_core.user_boxes):
            self._wrap_mailbox(state, mailbox, rank)
        return state

    def _wrap_mailbox(self, state: _WorldState, mailbox: Any, rank: int) -> None:
        original_get = mailbox.get

        def checked_get(source: int, tag: int, _orig=original_get, _rank=rank):
            msg = _orig(source, tag)
            state.last_msg[_rank] = msg
            state.message_count += 1
            return msg

        mailbox.get = checked_get  # type: ignore[method-assign]

    # ------------------------------------------------------------ blocking state
    def _enter_blocked(
        self, state: _WorldState, rank: int, op: str, peer: Any, tag: Any
    ) -> None:
        with self._mutex:
            state.blocked[rank] = {"op": op, "peer": peer, "tag": tag}

    def _exit_blocked(self, state: _WorldState, rank: int) -> None:
        # On success only: a rank that died blocked keeps its entry, which is
        # exactly the snapshot the wait-for graph needs.
        with self._mutex:
            state.blocked.pop(rank, None)

    # ------------------------------------------------------------------ wrapping
    def _wrap_view(self, state: _WorldState, view: Any, rank: int) -> None:
        checker = self

        def wrap_blocking(name: str, peer_kw: str, peer_default: Any) -> None:
            original = getattr(view, name)

            def wrapper(*args: Any, _orig=original, **kwargs: Any) -> Any:
                peer = kwargs.get(peer_kw, args[1] if len(args) > 1 else peer_default)
                tag = kwargs.get("tag", args[2] if len(args) > 2 else ANY_TAG)
                checker._enter_blocked(state, rank, name, peer, tag)
                result = _orig(*args, **kwargs)
                checker._exit_blocked(state, rank)
                return result

            setattr(view, name, wrapper)

        wrap_blocking("recv", "source", ANY_SOURCE)
        wrap_blocking("probe", "source", ANY_SOURCE)

        original_Recv = view.Recv

        def checked_Recv(
            buf: Any,
            source: int = ANY_SOURCE,
            tag: int = ANY_TAG,
            status: Any = None,
        ) -> None:
            spec = parse_buffer(buf)
            checker._enter_blocked(state, rank, "Recv", source, tag)
            try:
                original_Recv(buf, source, tag, status)
            except TruncationError as exc:
                checker._add(
                    "count-mismatch",
                    ERROR,
                    f"rank {rank}: {exc}",
                    state,
                )
                raise
            except TypeError as exc:
                checker._add(
                    "type-mismatch",
                    ERROR,
                    f"rank {rank}: typed Recv matched an object-mode send "
                    f"({exc})",
                    state,
                )
                raise
            checker._exit_blocked(state, rank)
            checker._check_typed_match(state, rank, spec)

        view.Recv = checked_Recv

        original_ssend = view.ssend

        def checked_ssend(obj: Any, dest: int, tag: int = 0) -> None:
            checker._enter_blocked(state, rank, "ssend", dest, tag)
            original_ssend(obj, dest, tag)
            checker._exit_blocked(state, rank)

        view.ssend = checked_ssend

        for name in ("isend", "Isend", "issend"):
            original = getattr(view, name)

            def nb_send(
                obj: Any, dest: int, tag: int = 0, _orig=original, _name=name
            ) -> Any:
                request = _orig(obj, dest, tag)
                checker._track_request(state, rank, _name, request)
                if getattr(request, "_sync", None) is not None:
                    original_wait = request.wait

                    def blocked_wait(status: Any = None) -> Any:
                        checker._enter_blocked(
                            state, rank, f"{_name}.wait", dest, tag
                        )
                        result = original_wait(status=status)
                        checker._exit_blocked(state, rank)
                        return result

                    request.wait = blocked_wait  # type: ignore[method-assign]
                return request

            setattr(view, name, nb_send)

        for name in ("irecv", "Irecv"):
            original = getattr(view, name)

            def nb_recv(
                buf: Any = None,
                source: int = ANY_SOURCE,
                tag: int = ANY_TAG,
                _orig=original,
                _name=name,
            ) -> Any:
                request = _orig(buf, source, tag)
                checker._track_request(state, rank, _name, request)
                original_wait = request.wait

                def blocked_wait(status: Any = None) -> Any:
                    checker._enter_blocked(state, rank, f"{_name}.wait", source, tag)
                    result = original_wait(status=status)
                    checker._exit_blocked(state, rank)
                    return result

                request.wait = blocked_wait  # type: ignore[method-assign]
                return request

            setattr(view, name, nb_recv)

        for name, root_index in _COLLECTIVES.items():
            original = getattr(view, name)

            def collective(
                *args: Any,
                _orig=original,
                _name=name,
                _root_index=root_index,
                **kwargs: Any,
            ) -> Any:
                root = kwargs.get("root")
                if root is None and _root_index is not None and len(args) > _root_index:
                    root = args[_root_index]
                with checker._mutex:
                    state.collectives[rank].append((_name.lower(), root))
                checker._enter_blocked(state, rank, f"collective:{_name}", None, None)
                result = _orig(*args, **kwargs)
                checker._exit_blocked(state, rank)
                return result

            setattr(view, name, collective)

    def _track_request(self, state: _WorldState, rank: int, kind: str, request: Any) -> None:
        with self._mutex:
            state.requests.append((rank, kind, request))

    # ------------------------------------------------------------------ checks
    def _add(
        self,
        kind: str,
        severity: str,
        message: str,
        state: _WorldState | None = None,
        location: str | None = None,
        details: dict[str, Any] | None = None,
    ) -> None:
        details = dict(details or {})
        if state is not None and len(self._states) > 1:
            details.setdefault("world", state.index)
        self.diagnostics.append(
            Diagnostic(
                kind=kind,
                severity=severity,
                message=message,
                location=location,
                details=details,
            )
        )

    def _check_typed_match(self, state: _WorldState, rank: int, spec: Any) -> None:
        msg = state.last_msg.get(rank)
        if msg is None or isinstance(msg.payload, bytes):
            return
        payload = np.asarray(msg.payload)
        want = spec.datatype.np_dtype
        if payload.dtype != want:
            self._add(
                "type-mismatch",
                WARNING,
                f"rank {rank}: message from rank {msg.source} (tag {msg.tag}) "
                f"carries dtype {payload.dtype} but the receive buffer is "
                f"{np.dtype(want)}; the runtime silently converted it",
                state,
            )
        elif payload.size != spec.count:
            self._add(
                "count-mismatch",
                WARNING,
                f"rank {rank}: message from rank {msg.source} (tag {msg.tag}) "
                f"has {payload.size} element(s) but the receive buffer expects "
                f"{spec.count}; trailing elements were left untouched",
                state,
            )

    # -- wait-for graph ------------------------------------------------------------
    def _wait_edges(self, state: _WorldState, rank: int) -> list[int]:
        entry = state.blocked.get(rank)
        if entry is None:
            return []
        op, peer = entry["op"], entry["peer"]
        others = [r for r in range(state.size) if r != rank]
        if op.startswith("collective:"):
            return others
        if peer == ANY_SOURCE or peer is None:
            return others
        return [int(peer)]

    def _find_cycle(self, state: _WorldState) -> list[int] | None:
        color: dict[int, int] = {}  # 0 unseen / 1 on stack / 2 done
        parent: dict[int, int] = {}

        def dfs(node: int) -> list[int] | None:
            color[node] = 1
            for succ in self._wait_edges(state, node):
                if succ not in state.blocked:
                    continue
                if color.get(succ, 0) == 1:
                    cycle = [succ, node]
                    cur = node
                    while cur != succ and cur in parent:
                        cur = parent[cur]
                        if cur != succ:
                            cycle.append(cur)
                    return list(reversed(cycle))
                if color.get(succ, 0) == 0:
                    parent[succ] = node
                    found = dfs(succ)
                    if found:
                        return found
            color[node] = 2
            return None

        for start in sorted(state.blocked):
            if color.get(start, 0) == 0:
                found = dfs(start)
                if found:
                    return found
        return None

    def _blocked_summary(self, state: _WorldState) -> list[str]:
        lines = []
        for rank in sorted(state.blocked):
            entry = state.blocked[rank]
            op, peer, tag = entry["op"], entry["peer"], entry["tag"]
            if op.startswith("collective:"):
                lines.append(f"rank {rank}: blocked in {op.split(':', 1)[1]}")
            else:
                lines.append(
                    f"rank {rank}: blocked in {op}"
                    f"(peer={_describe_peer(peer)}, tag={tag})"
                )
        return lines

    def _check_deadlock(self, state: _WorldState) -> None:
        error = state.world._abort_error
        if not isinstance(error, DeadlockError):
            return
        cycle = self._find_cycle(state)
        if cycle:
            hops = " -> ".join(f"rank {r}" for r in [*cycle, cycle[0]])
            message = f"deadlock: wait-for cycle {hops}"
        else:
            ranks = ", ".join(str(r) for r in sorted(state.blocked)) or "all"
            message = f"deadlock: ranks {ranks} blocked with no progress possible"
        self._add(
            "deadlock",
            ERROR,
            message,
            state,
            details={"blocked ranks": self._blocked_summary(state)},
        )

    # -- collective ordering --------------------------------------------------------
    def _check_collective_order(self, state: _WorldState) -> None:
        logs = state.collectives
        depth = max((len(calls) for calls in logs.values()), default=0)
        for position in range(depth):
            seen: dict[tuple[str, Any], list[int]] = {}
            missing: list[int] = []
            for rank in range(state.size):
                calls = logs[rank]
                if position < len(calls):
                    seen.setdefault(calls[position], []).append(rank)
                else:
                    missing.append(rank)
            if len(seen) > 1:
                description = "; ".join(
                    f"rank(s) {','.join(map(str, ranks))} called "
                    f"{name}" + (f"(root={root})" if root is not None else "()")
                    for (name, root), ranks in sorted(seen.items())
                )
                self._add(
                    "collective-mismatch",
                    ERROR,
                    f"collective call #{position} differs across ranks: "
                    f"{description}",
                    state,
                )
                return  # later positions are desynchronized noise
            if missing and seen:
                (name, root), ranks = next(iter(seen.items()))
                call = f"{name}" + (f"(root={root})" if root is not None else "()")
                self._add(
                    "collective-mismatch",
                    ERROR,
                    f"collective call #{position}: rank(s) "
                    f"{','.join(map(str, ranks))} called {call} but rank(s) "
                    f"{','.join(map(str, missing))} never did",
                    state,
                )
                return

    # -- finalize-time leak checks ---------------------------------------------------
    def _check_leaks(self, state: _WorldState) -> None:
        if state.world.aborted:
            return  # leaks after an abort are a symptom, not the disease
        for rank, kind, request in state.requests:
            leaked = False
            if isinstance(request, (RecvRequest, BufferRecvRequest)):
                leaked = not request._done
            elif isinstance(request, SendRequest):
                leaked = request._sync is not None and not request._sync.is_set()
            if leaked:
                self._add(
                    "leaked-request",
                    WARNING,
                    f"rank {rank}: {kind} request was never completed "
                    "(missing wait/test)",
                    state,
                )
        for rank, mailbox in enumerate(state.world.comm_core.user_boxes):
            with mailbox._lock:
                pending = list(mailbox._pending)
            for msg in pending:
                self._add(
                    "unconsumed-message",
                    WARNING,
                    f"message from rank {msg.source} to rank {rank} "
                    f"(tag {msg.tag}, {msg.nbytes} bytes) was never received — "
                    "tag mismatch or missing recv",
                    state,
                )
        for obj in state.world.registry._objects.values():
            if isinstance(obj, _WinCore) and not obj.freed:
                self._add(
                    "unfreed-window",
                    WARNING,
                    "an RMA window was never freed (missing Win.Free)",
                    state,
                )

    # ------------------------------------------------------------------ reporting
    def finalize(self) -> None:
        """Run all end-of-run checks over every audited world."""
        for state in self._states:
            self._check_deadlock(state)
            self._check_collective_order(state)
            self._check_leaks(state)

    def report(self, target: str | None = None) -> AnalysisReport:
        report = AnalysisReport(
            target=target or self.target,
            engine="mpi-checker",
            diagnostics=list(self.diagnostics),
            notes=list(self.notes),
        )
        if not self.diagnostics:
            matched = sum(s.message_count for s in self._states)
            worlds = len(self._states)
            report.add(
                Diagnostic(
                    kind="summary",
                    severity=INFO,
                    message=(
                        f"no MPI misuse: {worlds} world(s) audited, "
                        f"{matched} matched message(s), collectives in order, "
                        "no leaked requests or windows"
                    ),
                )
            )
        return report


@contextlib.contextmanager
def mpi_checker(target: str = "mpi") -> Generator[MPIChecker, None, None]:
    """Audit every :class:`~repro.mpi.runtime.World` created in this scope."""
    checker = MPIChecker(target=target)
    _runtime.add_world_hook(checker._on_world)
    try:
        yield checker
    finally:
        _runtime.remove_world_hook(checker._on_world)
        checker.finalize()


def check_run(
    fn: Callable[..., Any], np_procs: int, *args: Any, **kwargs: Any
) -> tuple[list[Any] | None, AnalysisReport]:
    """Run an SPMD function under the checker.

    Returns ``(per-rank results, report)``; results are ``None`` when the
    run failed (the failure itself is folded into the report).
    """
    from ..mpi import mpirun

    with mpi_checker() as checker:
        try:
            results = mpirun(fn, np_procs, *args, **kwargs)
        except MPIError as exc:
            checker.notes.append(f"run failed: {type(exc).__name__}: {exc}")
            results = None
    return results, checker.report()
