"""The ``exemplars_threads`` and ``exemplars_processes`` workloads.

One round is the ten exemplar runs a learner meets at the end of the two
modules -- integration, drug design, forest fire, heat and sorting, each in
its OpenMP form and its MPI form -- at two threads/ranks, in an order drawn
from the seed.  The threads workload runs them on the teaching runtime
(thread teams, in-process MPI ranks); the processes workload runs the same
calls on the same inputs on the persistent OpenMP pool
(``backend="processes"``) and forked MPI ranks (``REPRO_MPI_BACKEND``).

The latency these workloads report is one sitting of the ten runs
(``benchlib.sitting_percentile``).  Single runs differ up to eightfold
between exemplars, so a percentile over their raw times lands on the edge
between two exemplars and jumps from run to run, and a 30 s run holds too
few rounds for a percentile over round times to be more than its slowest
round or two; each exemplar's own median is printed with every run and
reported per layer.
"""

from __future__ import annotations

import math
import time
from typing import Any, Callable

import benchlib as bl

INTEGRATION_N = 200_000
LIGANDS = 400
LIGAND_LEN = (2, 24)
FIRE_TRIALS = 10
FIRE_SIZE = 25
FIRE_SEED = 2020
HEAT_CELLS = 20_000
HEAT_STEPS = 200
HEAT_ALPHA = 0.25
SORT_VALUES = 50_000
WORKERS = 2
SEQ_REPEATS = 3
LAUNCHES = 10
RECORDER_CAPACITY = 1 << 20


class Inputs:
    """The exemplars' inputs, made from the seed.

    The forest fire keeps the exemplar's own root seed: its run time follows
    the burn pattern, which moves it by up to a fifth between root seeds, and
    work that changes with the seed would be noise in every comparison of two
    seeds.  The ligands, the rod's hot end and the values to sort come from
    the seed; their amount of work does not depend on it.
    """

    fire_seed = FIRE_SEED

    def __init__(self, seed: int) -> None:
        rng = bl.rng_for("exemplars", seed, "inputs")
        letters = "abcdefghijklmnopqrstuvwxyz"
        self.ligands = [
            "".join(rng.choice(letters) for _ in range(rng.randint(*LIGAND_LEN)))
            for _ in range(LIGANDS)
        ]
        self.hot_end = rng.uniform(50.0, 150.0)
        self.values = [rng.random() for _ in range(SORT_VALUES)]


def exemplar_calls(inp: Inputs, backend: str) -> dict[str, Callable[[], Any]]:
    """The ten timed calls.  The MPI backend comes from ``REPRO_MPI_BACKEND``."""
    import repro.exemplars as ex

    return {
        "integration_omp": lambda: ex.integrate_omp(
            INTEGRATION_N, num_threads=WORKERS, backend=backend),
        "drugdesign_omp": lambda: ex.run_omp(
            inp.ligands, num_threads=WORKERS, backend=backend),
        "forestfire_omp": lambda: ex.fire_curve_omp(
            trials=FIRE_TRIALS, size=FIRE_SIZE, seed=inp.fire_seed,
            num_threads=WORKERS, backend=backend),
        "heat_omp": lambda: ex.heat_omp(
            HEAT_CELLS, HEAT_STEPS, HEAT_ALPHA, inp.hot_end,
            num_threads=WORKERS, backend=backend),
        "sorting_omp": lambda: ex.merge_sort_blocks(
            inp.values, num_workers=WORKERS, backend=backend),
        "integration_mpi": lambda: ex.integrate_mpi(INTEGRATION_N, np_procs=WORKERS),
        "drugdesign_mpi": lambda: ex.run_mpi_master_worker(inp.ligands, np_procs=WORKERS),
        "forestfire_mpi": lambda: ex.fire_curve_mpi(
            trials=FIRE_TRIALS, size=FIRE_SIZE, seed=inp.fire_seed, np_procs=WORKERS),
        "heat_mpi": lambda: ex.heat_mpi(
            HEAT_CELLS, HEAT_STEPS, HEAT_ALPHA, inp.hot_end, np_procs=WORKERS),
        "sorting_mpi": lambda: ex.odd_even_sort_mpi(inp.values, np_procs=WORKERS),
    }


def sequential_calls(inp: Inputs) -> dict[str, Callable[[], Any]]:
    """The exemplars' sequential references on the same inputs."""
    import repro.exemplars as ex

    return {
        "integration_seq": lambda: ex.integrate_seq(
            ex.quarter_circle, 0.0, 2.0, INTEGRATION_N),
        "drugdesign_seq": lambda: ex.run_seq(inp.ligands),
        "forestfire_seq": lambda: ex.fire_curve_seq(
            trials=FIRE_TRIALS, size=FIRE_SIZE, seed=inp.fire_seed),
        "heat_seq": lambda: ex.heat_seq(HEAT_CELLS, HEAT_STEPS, HEAT_ALPHA, inp.hot_end),
        "sorting_seq": lambda: ex.merge_sort_seq(inp.values),
    }


# ---------------------------------------------------------------------------
# Output checks: independent computations and properties.  Each returns a
# reason when the output is wrong, None when it is right.
# ---------------------------------------------------------------------------

def heat_reference(n: int, steps: int, alpha: float, hot_end: float) -> Any:
    """The explicit heat stencil as a convolution with fixed ends."""
    import numpy as np

    u = np.zeros(n)
    u[0] = hot_end
    kernel = np.array([alpha, 1.0 - 2.0 * alpha, alpha])
    for _ in range(steps):
        u = np.concatenate(([u[0]], np.convolve(u, kernel, mode="valid"), [u[-1]]))
    return u


class References:
    """What every output is checked against, computed once per run."""

    def __init__(self, inp: Inputs) -> None:
        import repro.exemplars as ex

        self.inputs = inp
        self.sorted = sorted(inp.values)
        self.integral_seq = ex.integrate_seq(ex.quarter_circle, 0.0, 2.0, INTEGRATION_N)
        self.drug_scores = ex.run_seq(inp.ligands).scores
        self.fire_points = fire_rows(ex.fire_curve_seq(
            trials=FIRE_TRIALS, size=FIRE_SIZE, seed=inp.fire_seed))
        self.heat = heat_reference(HEAT_CELLS, HEAT_STEPS, HEAT_ALPHA, inp.hot_end)


def fire_rows(curve: Any) -> list[tuple]:
    return [(p.prob, p.avg_burned, p.avg_iterations, p.trials) for p in curve.points]


def check_sorting(out: Any, expected: list[float]) -> str | None:
    if list(out) != expected:
        return "sorting: output differs from sorted()"
    return None


def check_integration(out: Any, seq_value: float, n: int = INTEGRATION_N) -> str | None:
    # The quarter circle is concave and decreasing on [0, 2]: the trapezoid
    # sum lies below pi by at most h * (f(0) - f(2)) / 2.
    bound = (2.0 / n) * (2.0 - 0.0) / 2.0
    if not isinstance(out, float) or not 0.0 <= math.pi - out <= bound:
        return f"integration: {out!r} is not within {bound:g} below pi"
    if abs(out - seq_value) > 1e-9:
        return f"integration: {out!r} differs from integrate_seq {seq_value!r}"
    return None


def check_drugdesign(out: Any, ligands: list[str], scores: list[int]) -> str | None:
    if list(out.ligands) != ligands or list(out.scores) != scores:
        return "drugdesign: scores differ from run_seq"
    return None


def check_forestfire(out: Any, rows: list[tuple]) -> str | None:
    if fire_rows(out) != rows:
        return "forestfire: points differ from fire_curve_seq"
    return None


def check_heat(out: Any, reference: Any, hot_end: float) -> str | None:
    import numpy as np

    u = np.asarray(out)
    if u.shape != reference.shape:
        return f"heat: shape {u.shape}"
    if u[0] != hot_end or u[-1] != 0.0:
        return "heat: the fixed ends moved"
    if u.min() < 0.0 or u.max() > hot_end:
        return "heat: outside [0, hot end] (maximum principle)"
    if not np.allclose(u, reference, rtol=0.0, atol=1e-9 * hot_end):
        return "heat: differs from the reference stencil"
    return None


def check_output(name: str, out: Any, ref: References) -> str | None:
    kind = name.split("_")[0]
    if kind == "sorting":
        return check_sorting(out, ref.sorted)
    if kind == "integration":
        return check_integration(out, ref.integral_seq)
    if kind == "drugdesign":
        return check_drugdesign(out, ref.inputs.ligands, ref.drug_scores)
    if kind == "forestfire":
        return check_forestfire(out, ref.fire_points)
    return check_heat(out, ref.heat, ref.inputs.hot_end)


# ---------------------------------------------------------------------------
# Pool lifetime
# ---------------------------------------------------------------------------

def stop_pool(result: bl.RunResult) -> None:
    """Shut the persistent pool down and wait until its workers have ended."""
    from repro.openmp.backends import shutdown_pool

    workers = bl.child_pids()
    shutdown_pool()
    left = bl.wait_ended(workers)
    if left:
        result.fail_check(f"pool workers {left} still running after shutdown")


def _trivial_body(comm: Any) -> int:
    return comm.Get_rank()


# ---------------------------------------------------------------------------
# Traced run: profile of each exemplar call from the program's own events
# ---------------------------------------------------------------------------

class LayerTotals:
    """Per-layer sums over the timed phase, read from each call's profile."""

    def __init__(self) -> None:
        self.omp_busy = self.omp_barrier = 0.0
        self.mpi_busy = self.mpi_wait = 0.0
        self.chunk_spans: list[float] = []
        self.dispatch: list[float] = []  # per run_chunks call
        self.messages = self.message_bytes = self.collectives = 0
        self.dropped = 0

    def add(self, profile: Any, dispatch_calls: list[tuple[float, float]]) -> None:
        for lane in profile.lanes:
            if lane.kind == "omp-thread":
                self.omp_busy += lane.busy_s
                self.omp_barrier += lane.waits_s.get("barrier", 0.0)
            elif lane.kind == "mpi-rank":
                self.mpi_busy += lane.busy_s
                self.mpi_wait += lane.extent_s - lane.busy_s
        chunks = [s for s in profile.spans if s.cat == "chunk"
                  and profile.lanes[s.lane].kind == "omp-worker"]
        self.chunk_spans.extend(s.duration for s in chunks)
        for t0, t1 in dispatch_calls:
            inside = [s.duration for s in chunks if s.t0 >= t0 and s.t1 <= t1]
            if inside:
                self.dispatch.append((t1 - t0) - max(inside))
        for edges in (profile.p2p_edges, profile.coll_edges):
            for row in edges.values():
                self.messages += row["messages"]
                self.message_bytes += row["bytes"]
        self.collectives += sum(profile.metrics.collective_calls.values())
        self.dropped += profile.dropped


def wrap_run_chunks(tracer: bl.Tracer, undo: list) -> None:
    """A span around every ``run_chunks`` call the exemplars make."""
    import repro.exemplars.heat as heat_mod
    import repro.exemplars.sorting as sorting_mod
    import repro.openmp.backends as backends

    traced = tracer.wrap("openmp.run_chunks", backends.run_chunks)
    for owner in (backends, heat_mod, sorting_mod):
        bl.patch(owner, "run_chunks", traced, undo)


def traced_call(tracer: bl.Tracer, name: str, fn: Callable[[], Any],
                totals: LayerTotals) -> tuple[Any, float]:
    from repro import obs

    first = len(tracer.spans)
    with obs.record(capacity=RECORDER_CAPACITY) as rec:
        t0 = time.perf_counter()
        out = tracer.call(f"exemplar.{name}", fn, trace=tracer.new_trace())
        dt = time.perf_counter() - t0
    root = first
    calls = [(s[2], s[3]) for s in tracer.spans[first:] if s[1] == "openmp.run_chunks"]
    profile = obs.build_profile(rec.events(), dropped=rec.dropped)
    totals.add(profile, calls)
    for span in profile.spans:
        tracer.add(f"obs.{span.cat}", span.t0, span.t1, root)
    return out, dt


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool,
        result: bl.RunResult) -> None:
    from repro import obs

    backend = bl.BACKEND_BY_WORKLOAD[workload]
    inp = Inputs(seed)
    calls = exemplar_calls(inp, backend)
    ref = References(inp)

    tracer = bl.Tracer() if trace else None
    undo: list = []
    try:
        for name in bl.EXEMPLAR_RUNS:  # warm-up: fork the pool, fill caches
            calls[name]()

        if tracer is not None:
            wrap_run_chunks(tracer, undo)
        totals = LayerTotals()
        times: dict[str, list[float]] = {name: [] for name in bl.EXEMPLAR_RUNS}
        pickles_start = obs.serialization_totals()
        timed, rnd = 0.0, 0
        while timed < seconds:
            order = list(bl.EXEMPLAR_RUNS)
            bl.rng_for("exemplars", seed, "order", rnd).shuffle(order)
            round_time = 0.0
            for name in order:
                result.attempted += 1
                t0 = time.perf_counter()
                try:
                    if tracer is None:
                        out = calls[name]()
                        dt = time.perf_counter() - t0
                    else:
                        out, dt = traced_call(tracer, name, calls[name], totals)
                    reason = check_output(name, out, ref)
                except Exception as exc:  # noqa: BLE001 - a crashed run is a failed one
                    dt, reason = time.perf_counter() - t0, f"{name}: {exc!r}"
                round_time += dt
                times[name].append(dt)
                if reason is not None:
                    result.failed += 1
                    if len(result.problems) < 5:
                        result.problems.append(reason)
            timed += round_time
            rnd += 1
        pickles_end = obs.serialization_totals()

        ops_per_s = result.attempted / timed
        medians = {name: bl.ms(bl.median(samples)) for name, samples in times.items()}
        result.note(f"rounds {rnd}, runs {result.attempted}, timed {timed:.3f} s")
        result.note("median ms: " + " ".join(f"{n}={v:.2f}" for n, v in medians.items()))

        if tracer is None:
            result.values.update({
                "ops_per_s": ops_per_s,
                "p50_ms": bl.ms(bl.sitting_percentile(times, 50)),
                "p90_ms": bl.ms(bl.sitting_percentile(times, 90)),
            })
        else:
            bl.unpatch(undo)
            result.values.update(layer_values(inp, totals, medians, pickles_start,
                                              pickles_end, ops_per_s))
            written = tracer.write(bl.OUT_DIR / f"spans-{workload}.jsonl.gz")
            result.note(f"wrote {written} spans to {bl.OUT_DIR.name}/spans-{workload}.jsonl.gz")

        workers = bl.child_pids()
        if tracer is not None:
            result.values["openmp.pool.worker_fds"] = sum(bl.fd_count(p) for p in workers)
            result.values["openmp.pool.worker_rss_mb"] = sum(bl.rss_kb(p) for p in workers) / 1024
        else:
            forked_ranks = WORKERS if backend == "processes" else 0
            result.values["peak_rss_mb"] = bl.peak_rss_mb(workers, forked_ranks)
    finally:
        bl.unpatch(undo)
        if backend == "processes":
            stop_pool(result)
    if tracer is None:
        setups = bl.cold_setups(workload, seed)
        result.values["setup_s"] = bl.median(setups)
        result.note(f"cold set-ups {' '.join(f'{s:.3f}' for s in setups)} s")


def layer_values(inp: Inputs, totals: LayerTotals, medians: dict[str, float],
                 pickles_start: dict, pickles_end: dict, ops_per_s: float) -> dict:
    """Per-layer values; the sequential references and the trivial launches
    are timed here, after the timed phase, with no recorder active."""
    from repro.mpi import mpirun

    seq_ms = {}
    for name, fn in sequential_calls(inp).items():
        samples = []
        for _ in range(SEQ_REPEATS):
            t0 = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - t0)
        seq_ms[f"exemplars.{name}_ms"] = bl.ms(bl.median(samples))
    launches = []
    for _ in range(LAUNCHES):
        t0 = time.perf_counter()
        mpirun(_trivial_body, WORKERS)
        launches.append(time.perf_counter() - t0)
    return {
        "openmp.busy_s": totals.omp_busy,
        "openmp.barrier_wait_s": totals.omp_barrier,
        "openmp.pool.chunks": len(totals.chunk_spans),
        "openmp.pool.dispatch_ms": bl.ms(bl.median(totals.dispatch)) if totals.dispatch else 0.0,
        "openmp.pool.compute_ms":
            bl.ms(bl.median(totals.chunk_spans)) if totals.chunk_spans else 0.0,
        "mpi.launch_ms": bl.ms(bl.median(launches)),
        "mpi.messages": totals.messages,
        "mpi.message_bytes": totals.message_bytes,
        "mpi.collectives": totals.collectives,
        "mpi.busy_s": totals.mpi_busy,
        "mpi.wait_s": totals.mpi_wait,
        "mpi.pickle_calls": pickles_end["pickle_calls"] - pickles_start["pickle_calls"],
        "mpi.pickled_bytes": pickles_end["pickled_bytes"] - pickles_start["pickled_bytes"],
        **seq_ms,
        **{f"exemplars.{name}_ms": value for name, value in medians.items()},
        "obs.traced_ops_per_s": ops_per_s,
        "obs.dropped_events": totals.dropped,
    }
