"""Forest-fire simulation exemplar.

The distributed module's second exemplar (the one participants planned to
adopt): a probabilistic fire-spread model on a square forest.  A fire
starts at the center tree; each burning tree ignites each of its four
neighbors with probability ``prob``; a tree burns for one time step.  The
experiment sweeps ``prob`` from 0.1 to 1.0, running many independent
trials per point, and reports the average fraction of forest burned and
the average number of iterations — producing the classic S-curve with a
percolation-style phase transition near prob ~ 0.5.

Decomposition: trials are independent Monte-Carlo samples, so both the
thread and MPI versions split *trials* across workers.  Each (prob, trial)
pair derives its own seed from a root seed, making every variant return
bit-identical curves regardless of worker count — the property the tests
pin down.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
# NumPy loads numpy.random on first use.  Load it with this module, before
# any pool worker or MPI rank is forked, so no child imports it per fork.
import numpy.random  # noqa: F401

from ..mpi import mpirun
from ..openmp import parallel_for_chunks
from ..platforms.simclock import Workload
from .kernels import resolve_kernel

__all__ = [
    "FirePoint",
    "FireCurve",
    "burn_once",
    "trial_chunk",
    "trial_chunk_vector",
    "fire_curve_seq",
    "fire_curve_omp",
    "fire_curve_mpi",
    "forestfire_workload",
    "DEFAULT_PROBS",
]

#: The sweep the CSinParallel exemplar runs: 0.1, 0.2, ..., 1.0.
DEFAULT_PROBS: tuple[float, ...] = tuple(round(0.1 * i, 1) for i in range(1, 11))

# Cell states.
_UNBURNT, _SMOLDERING, _BURNING, _BURNT = 0, 1, 2, 3


def _trial_seed(root_seed: int, prob_index: int, trial: int) -> int:
    """Deterministic per-(prob, trial) seed, independent of decomposition."""
    return hash((root_seed, prob_index, trial)) & 0x7FFFFFFF


def burn_once(size: int, prob: float, seed: int) -> tuple[float, int]:
    """Run one fire to completion; return (fraction burned, iterations).

    Vectorized stepping: each iteration ignites the four neighbors of every
    burning cell with independent probability ``prob``.
    """
    if size < 1:
        raise ValueError("forest size must be >= 1")
    if not 0.0 <= prob <= 1.0:
        raise ValueError(f"spread probability must be in [0, 1], got {prob}")
    rng = np.random.default_rng(seed)
    forest = np.zeros((size, size), dtype=np.int8)
    forest[size // 2, size // 2] = _BURNING
    iterations = 0
    while (forest == _BURNING).any():
        burning = forest == _BURNING
        # Neighbor exposure: a cell is exposed once per burning neighbor.
        exposed = np.zeros_like(burning)
        exposed[1:, :] |= burning[:-1, :]
        exposed[:-1, :] |= burning[1:, :]
        exposed[:, 1:] |= burning[:, :-1]
        exposed[:, :-1] |= burning[:, 1:]
        catch = exposed & (forest == _UNBURNT)
        ignite = catch & (rng.random(forest.shape) < prob)
        forest[burning] = _BURNT
        forest[ignite] = _BURNING
        iterations += 1
    return float((forest == _BURNT).mean()), iterations


@dataclass(frozen=True)
class FirePoint:
    """One point of the burn curve."""

    prob: float
    avg_burned: float
    avg_iterations: float
    trials: int


@dataclass
class FireCurve:
    """The full sweep result."""

    size: int
    points: list[FirePoint]
    mode: str

    @property
    def probs(self) -> list[float]:
        return [p.prob for p in self.points]

    @property
    def burned(self) -> list[float]:
        return [p.avg_burned for p in self.points]

    def is_monotone_nondecreasing(self, slack: float = 0.08) -> bool:
        """The S-curve property: more spread probability, more forest burned."""
        b = self.burned
        return all(b[i + 1] >= b[i] - slack for i in range(len(b) - 1))

    def transition_prob(self) -> float:
        """First probability where at least half the forest burns on average."""
        for p in self.points:
            if p.avg_burned >= 0.5:
                return p.prob
        return 1.0

    def format_table(self) -> str:
        lines = [
            f"forest fire, {self.size}x{self.size}, "
            f"{self.points[0].trials} trials/point [{self.mode}]",
            f"{'prob':>6} {'burned %':>9} {'iters':>7}",
        ]
        for pt in self.points:
            lines.append(
                f"{pt.prob:>6.1f} {100 * pt.avg_burned:>8.1f}% {pt.avg_iterations:>7.1f}"
            )
        return "\n".join(lines)


def _point(
    size: int, prob: float, prob_index: int, trials: list[int], root_seed: int
) -> list[tuple[int, float, int]]:
    """Per-trial (trial, burned, iterations) results for the given indices.

    Returning per-trial rows (instead of a partial sum) lets every variant
    combine them in trial order, so the curves are bit-identical no matter
    how trials were distributed across workers.
    """
    return [
        (t, *burn_once(size, prob, _trial_seed(root_seed, prob_index, t)))
        for t in trials
    ]


def _fold_point(
    prob: float, rows: list[tuple[int, float, int]], trials: int
) -> FirePoint:
    """Average per-trial rows deterministically (sorted by trial index)."""
    rows = sorted(rows)
    if len(rows) != trials or [t for t, _, _ in rows] != list(range(trials)):
        raise ValueError("trial decomposition did not cover each trial exactly once")
    burned_sum = sum(b for _, b, _ in rows)
    iters_sum = sum(i for _, _, i in rows)
    return FirePoint(prob, burned_sum / trials, iters_sum / trials, trials)


def fire_curve_seq(
    probs: tuple[float, ...] = DEFAULT_PROBS,
    trials: int = 10,
    size: int = 25,
    seed: int = 2020,
) -> FireCurve:
    """Sequential sweep."""
    points = []
    for pi, prob in enumerate(probs):
        rows = _point(size, prob, pi, list(range(trials)), seed)
        points.append(_fold_point(prob, rows, trials))
    return FireCurve(size, points, mode="seq")


def trial_chunk(
    size: int, prob: float, prob_index: int, root_seed: int, lo: int, hi: int
) -> list[tuple[int, float, int]]:
    """Chunk kernel: per-trial rows for trial indices [lo, hi)."""
    return _point(size, prob, prob_index, list(range(lo, hi)), root_seed)


def trial_chunk_vector(
    size: int, prob: float, prob_index: int, root_seed: int, lo: int, hi: int
) -> list[tuple[int, float, int]]:
    """Vectorized chunk kernel: all trials in [lo, hi) step together.

    The forests stack into one ``(trials, size, size)`` array so the
    neighbor-exposure and ignition masks are batched NumPy passes.  Each
    trial keeps its *own* RNG stream, drawn once per step while that trial
    still burns — exactly the draw order of :func:`burn_once` — so the
    rows are bit-identical to the loop kernel's, trial by trial.
    """
    if size < 1:
        raise ValueError("forest size must be >= 1")
    if not 0.0 <= prob <= 1.0:
        raise ValueError(f"spread probability must be in [0, 1], got {prob}")
    trials = list(range(lo, hi))
    k = len(trials)
    if k == 0:
        return []
    rngs = [
        np.random.default_rng(_trial_seed(root_seed, prob_index, t)) for t in trials
    ]
    forest = np.zeros((k, size, size), dtype=np.int8)
    forest[:, size // 2, size // 2] = _BURNING
    iterations = np.zeros(k, dtype=np.int64)
    draws = np.ones((k, size, size), dtype=np.float64)
    active = np.ones(k, dtype=bool)
    while active.any():
        burning = forest == _BURNING
        exposed = np.zeros_like(burning)
        exposed[:, 1:, :] |= burning[:, :-1, :]
        exposed[:, :-1, :] |= burning[:, 1:, :]
        exposed[:, :, 1:] |= burning[:, :, :-1]
        exposed[:, :, :-1] |= burning[:, :, 1:]
        catch = exposed & (forest == _UNBURNT)
        for i in np.flatnonzero(active):
            draws[i] = rngs[i].random((size, size))
        ignite = catch & (draws < prob) & active[:, None, None]
        forest[burning & active[:, None, None]] = _BURNT
        forest[ignite] = _BURNING
        iterations[active] += 1
        active = (forest == _BURNING).any(axis=(1, 2))
    burned = (forest == _BURNT).mean(axis=(1, 2))
    return [
        (t, float(b), int(i)) for t, b, i in zip(trials, burned, iterations)
    ]


def fire_curve_omp(
    probs: tuple[float, ...] = DEFAULT_PROBS,
    trials: int = 10,
    size: int = 25,
    seed: int = 2020,
    num_threads: int = 4,
    backend: str | None = None,
    kernel: str | None = None,
) -> FireCurve:
    """Parallel sweep: trial batches are shared across the worker team.

    Per-(prob, trial) seeding keeps the curve bit-identical to the
    sequential sweep on either backend, regardless of worker count —
    and the ``kernel="vector"`` batched stepper preserves per-trial RNG
    streams, so it holds across kernel variants too.
    """
    chunk_fn = (
        trial_chunk_vector if resolve_kernel(kernel) == "vector" else trial_chunk
    )
    points = []
    for pi, prob in enumerate(probs):
        chunks = parallel_for_chunks(
            trials,
            functools.partial(chunk_fn, size, prob, pi, seed),
            num_workers=num_threads,
            schedule="dynamic",
            backend=backend,
        )
        rows = [row for part in chunks for row in part]
        points.append(_fold_point(prob, rows, trials))
    return FireCurve(size, points, mode="omp")


def fire_curve_mpi(
    probs: tuple[float, ...] = DEFAULT_PROBS,
    trials: int = 10,
    size: int = 25,
    seed: int = 2020,
    np_procs: int = 4,
) -> FireCurve:
    """MPI sweep: each rank runs a stride of the trials, reduce assembles."""

    def body(comm):
        rank, nprocs = comm.Get_rank(), comm.Get_size()
        out = []
        for pi, prob in enumerate(probs):
            mine = [t for t in range(trials) if t % nprocs == rank]
            local = _point(size, prob, pi, mine, seed)
            gathered = comm.gather(local, root=0)
            if rank == 0:
                rows = [row for part in gathered for row in part]
                out.append(_fold_point(prob, rows, trials))
        return out if rank == 0 else None

    points = mpirun(body, np_procs)[0]
    return FireCurve(size, points, mode="mpi")


def forestfire_workload(size: int, trials: int, num_probs: int = 10) -> Workload:
    """Cost-model description of the sweep for the platform benches.

    One trial steps the whole grid ~O(size) times at ~8 ops/cell/step;
    trial durations vary with the burn outcome, giving moderate imbalance.
    """
    ops_per_trial = 8.0 * size * size * (size * 0.6)
    return Workload(
        name=f"forestfire({size}x{size}, {trials} trials)",
        total_ops=ops_per_trial * trials * num_probs,
        serial_fraction=0.002,
        messages=lambda p: 2.0 * (p - 1) * num_probs,
        message_bytes=lambda p: 16.0 * (p - 1) * num_probs,
        imbalance=0.15,
    )


def trace_demo(paradigm: str = "openmp", backend: str | None = None) -> FireCurve:
    """Small fixed-size run for ``repro trace forestfire``."""
    probs = (0.3, 0.6)
    if paradigm == "mpi":
        return fire_curve_mpi(probs, trials=4, size=15, np_procs=4)
    return fire_curve_omp(
        probs, trials=4, size=15, num_threads=4, backend=backend
    )
