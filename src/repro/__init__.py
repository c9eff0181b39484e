"""repro — reproduction of "Teaching PDC in the Time of COVID: Hands-on
Materials for Remote Learning" (Adams, Brown, Matthews, Shoop; EduPar 2021).

The package rebuilds the paper's teaching-materials system from scratch:

* :mod:`repro.mpi` — an in-process MPI with the mpi4py API (thread-per-rank
  runtime, real collective algorithms, ``mpirun`` emulation);
* :mod:`repro.openmp` — an OpenMP-style shared-memory runtime on threads;
* :mod:`repro.analysis` — a happens-before race detector and an MPI
  correctness checker over the two runtimes (``repro analyze``);
* :mod:`repro.patternlets` — the patternlet catalog for both paradigms;
* :mod:`repro.exemplars` — numerical integration, drug design, forest fire;
* :mod:`repro.platforms` — Raspberry Pi / Colab / Chameleon / St. Olaf VM
  models with deterministic performance simulation;
* :mod:`repro.runestone` — the interactive-handout engine, the Colab
  notebook emulator, and the actual module content;
* :mod:`repro.kits` — the $100 mailed kit (Table I) and system image;
* :mod:`repro.assessment` — survey instruments, a from-scratch paired
  t-test, and the calibrated cohort behind Table II and Figures 3-4;
* :mod:`repro.core` — curriculum, session simulation, the workshop pilot.

Quick start
-----------
>>> from repro import mpirun
>>> mpirun(lambda comm: comm.Get_rank(), 4)
[0, 1, 2, 3]
"""

from ._lazy import attach as _attach

__version__ = "1.0.0"

# Each name is imported on first use, so importing a leaf such as
# ``repro.serve`` loads neither NumPy nor either parallel runtime.
_EXPORTS = {
    "MPI": "mpi",
    "mpirun": "mpi",
    "run_script": "mpi",
    "parallel_for": "openmp",
    "parallel_region": "openmp",
    "all_patternlets": "patternlets",
    "get_patternlet": "patternlets",
}
__all__ = [*_EXPORTS, "__version__"]
__getattr__, __dir__ = _attach(
    __name__,
    _EXPORTS,
    submodules=(
        "analysis", "assessment", "bench", "cli", "core", "exemplars", "kits",
        "mpi", "obs", "openmp", "patternlets", "platforms", "runestone", "serve",
        "testkit",
    ),
)
