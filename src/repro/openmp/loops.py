"""``parallel for``: the worksharing loop with scheduling and reductions."""

from __future__ import annotations

from typing import Any, Callable

from . import backends as _backends
from ..obs.hooks import openmp as _hooks
from .env import get_config
from .reduction import Reduction, get_reduction
from .scheduling import (
    DynamicScheduler,
    GuidedScheduler,
    static_block_ranges,
    static_chunks,
)
from .team import get_num_threads, get_thread_num, parallel_region

__all__ = ["parallel_for", "for_loop", "parallel_for_chunks"]


def _thread_indices(
    n: int,
    schedule: str,
    chunk: int | None,
    shared_scheduler: Any,
):
    """The calling thread's iteration stream under the requested schedule."""
    thread = get_thread_num()
    num_threads = get_num_threads()
    if schedule == "static":
        if chunk is None:
            return static_block_ranges(n, num_threads)[thread]
        return static_chunks(n, num_threads, chunk, thread)
    return iter(shared_scheduler)


def for_loop(
    body: Callable[[int], Any],
    n: int,
    schedule: str | None = None,
    chunk: int | None = None,
    reduction: "str | Reduction | None" = None,
) -> Any:
    """Worksharing loop *inside* an existing parallel region.

    Must be reached by every team member (like ``#pragma omp for``).  The
    shared scheduler for dynamic/guided schedules is materialized in team
    shared state by the first arriving thread.

    Returns the reduction result (same value on every thread) if a
    reduction was requested, else ``None``.
    """
    from .sync import barrier
    from .team import _next_worksharing_occurrence, current_team

    cfg = get_config()
    schedule = (schedule or cfg.schedule).lower()
    if schedule == "runtime":
        schedule, chunk = cfg.schedule, cfg.chunk
    team = current_team()
    occurrence = _next_worksharing_occurrence()
    shared_scheduler = None
    if schedule in ("dynamic", "guided"):
        num_threads = get_num_threads()
        if team is None:
            shared_scheduler = (
                DynamicScheduler(n, chunk or 1)
                if schedule == "dynamic"
                else GuidedScheduler(n, num_threads, chunk or 1)
            )
        else:
            # Keyed by the region's Nth-worksharing-loop occurrence, not by
            # id(body): the same body object reaching a second loop must get
            # a fresh scheduler, not the first loop's exhausted one.
            key = f"for#{occurrence}#{n}#{schedule}"
            with team._single_guard:
                if key not in team.shared:
                    team.shared[key] = (
                        DynamicScheduler(n, chunk or 1)
                        if schedule == "dynamic"
                        else GuidedScheduler(n, num_threads, chunk or 1)
                    )
                shared_scheduler = team.shared[key]
    elif schedule != "static":
        raise ValueError(f"unknown schedule {schedule!r}")

    red = get_reduction(reduction) if reduction is not None else None
    if red is not None and _hooks.enabled:
        _hooks.emit("reduction", red.name)
    if _hooks.enabled:
        _hooks.emit("ws_loop_begin", n, schedule)
    partial = red.identity if red is not None else None
    for i in _thread_indices(n, schedule, chunk, shared_scheduler):
        value = body(i)
        if red is not None:
            partial = red.combine(partial, value)
    if _hooks.enabled:
        _hooks.emit("ws_loop_end", n)

    if red is None:
        barrier()
        return None
    # Combine partials through team shared state, then broadcast the result.
    if team is None:
        return partial
    with team._single_guard:
        if _hooks.enabled:
            _hooks.emit("acquire", ("lock", id(team._single_guard)))
        team.shared.setdefault("__partials__", []).append(partial)
        if _hooks.enabled:
            _hooks.emit("release", ("lock", id(team._single_guard)))
    barrier()
    thread = get_thread_num()
    if thread == 0:
        team.shared["__result__"] = red.fold(team.shared.pop("__partials__"))
    barrier()
    return team.shared["__result__"]


def parallel_for(
    n: int,
    body: Callable[[int], Any],
    num_threads: int | None = None,
    schedule: str = "static",
    chunk: int | None = None,
    reduction: "str | Reduction | None" = None,
    backend: str | None = None,
) -> Any:
    """``#pragma omp parallel for``: fork, share the loop, join.

    Parameters
    ----------
    n:
        Iteration count; the loop body is called once per ``i in range(n)``.
    body:
        ``body(i)``; its return value feeds the reduction if one is given.
    schedule, chunk:
        OpenMP schedule kind (``static``/``dynamic``/``guided``) and chunk.
    reduction:
        Operator name (``"+"``, ``"*"``, ``"max"``, ...) or a custom
        :class:`~repro.openmp.reduction.Reduction`.
    backend:
        ``"threads"`` (concurrent, GIL-bound) or ``"processes"`` (real
        multicore parallelism; ``body`` must be picklable).  ``None``
        defers to :func:`~repro.openmp.env.get_config` / ``OMP_BACKEND``.

    Returns the reduction result, or ``None`` when no reduction was asked.

    Example
    -------
    >>> parallel_for(1000, lambda i: i, num_threads=4, reduction="+")
    499500
    """
    if n < 0:
        raise ValueError(f"iteration count must be non-negative, got {n}")
    red = get_reduction(reduction) if reduction is not None else None
    if red is not None and _hooks.enabled:
        _hooks.emit("reduction", red.name)

    shared_scheduler: Any = None
    schedule = schedule.lower()
    cfg = get_config()
    if schedule == "runtime":
        schedule, chunk = cfg.schedule, cfg.chunk
    nthreads = num_threads if num_threads is not None else cfg.num_threads
    if _backends.resolve_backend(backend) == "processes" and nthreads > 1 and n > 0:
        if schedule not in ("static", "dynamic", "guided"):
            raise ValueError(f"unknown schedule {schedule!r}")
        return _backends.process_parallel_for(
            n, body, nthreads, schedule, chunk, reduction
        )
    if schedule == "dynamic":
        shared_scheduler = DynamicScheduler(n, chunk or 1)
    elif schedule == "guided":
        shared_scheduler = GuidedScheduler(n, nthreads, chunk or 1)
    elif schedule != "static":
        raise ValueError(f"unknown schedule {schedule!r}")

    def member() -> Any:
        if _hooks.enabled:
            _hooks.emit("ws_loop_begin", n, schedule)
        partial = red.identity if red is not None else None
        for i in _thread_indices(n, schedule, chunk, shared_scheduler):
            value = body(i)
            if red is not None:
                partial = red.combine(partial, value)
        if _hooks.enabled:
            _hooks.emit("ws_loop_end", n)
        return partial

    partials = parallel_region(member, num_threads=nthreads)
    if red is not None:
        return red.fold(partials)
    return None


def parallel_for_chunks(
    n: int,
    kernel: Callable[[int, int], Any],
    num_workers: int | None = None,
    schedule: str | None = None,
    chunk: int | None = None,
    reduction: "str | Reduction | None" = None,
    backend: str | None = None,
) -> Any:
    """Chunked worksharing: ``kernel(lo, hi)`` per contiguous index batch.

    The batch decomposition (:func:`~repro.openmp.backends.chunk_ranges`)
    is identical for both backends, so an exemplar written against this
    entry point runs the same kernel under threads and processes — only
    the executor changes.  With a reduction, per-chunk results are folded;
    otherwise the per-chunk results are returned in batch order.

    Under ``backend="processes"`` the kernel must be picklable (module-
    level function or ``functools.partial`` over one).
    """
    if n < 0:
        raise ValueError(f"iteration count must be non-negative, got {n}")
    cfg = get_config()
    schedule = (schedule or cfg.schedule).lower()
    if schedule == "runtime":
        schedule, chunk = cfg.schedule, cfg.chunk
    workers = num_workers if num_workers is not None else cfg.num_threads
    ranges = _backends.chunk_ranges(n, workers, schedule, chunk)
    results = _backends.run_chunks(
        kernel, ranges, workers=workers, backend=backend
    )
    if reduction is not None:
        red = get_reduction(reduction)
        if _hooks.enabled:
            _hooks.emit("reduction", red.name)
        return red.fold(results)
    return results
