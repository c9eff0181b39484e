"""``mpirun``/``mpiexec`` emulation.

Two launch styles:

* **Function mode** — :func:`mpirun` runs ``fn(comm, *args)`` SPMD on N rank
  threads and returns the per-rank results.  This is the programmatic API
  the patternlets and exemplars use.
* **Script mode** — :func:`run_script` executes Python *source text* once per
  rank, each rank with private module globals, a captured ``print``, and a
  ``mpi4py``-compatible ``MPI`` module injected, so code written exactly like
  the paper's Colab cells (``from mpi4py import MPI`` ... ``mpirun -np 4
  python 00spmd.py``) runs unchanged.  The notebook emulation layer parses
  the shell command with :func:`parse_mpirun_command`.
"""

from __future__ import annotations

import os
import shlex
import sys
import types
from dataclasses import dataclass, field
from typing import Any, Callable

from .constants import DEFAULT_DEADLOCK_TIMEOUT
from .runtime import World, _pop_world, _push_world

__all__ = [
    "mpirun",
    "run_script",
    "parse_mpirun_command",
    "MpirunInvocation",
    "ScriptResult",
    "install_mpi4py_shim",
    "MPI_BACKENDS",
]


#: Valid values for the launcher's execution-backend axis.
MPI_BACKENDS = ("threads", "processes")


def _resolve_mpi_backend(backend: str | None) -> str:
    name = (backend or os.environ.get("REPRO_MPI_BACKEND") or "threads")
    name = name.strip().lower()
    if name not in MPI_BACKENDS:
        raise ValueError(
            f"unknown MPI backend {name!r}; expected one of {MPI_BACKENDS}"
        )
    return name


def mpirun(
    fn: Callable[..., Any],
    np: int,
    *args: Any,
    hostname: str = "d6ff4f902ed6",
    deadlock_timeout: float = DEFAULT_DEADLOCK_TIMEOUT,
    backend: str | None = None,
    **kwargs: Any,
) -> list[Any]:
    """Run an SPMD function across ``np`` ranks; return per-rank results.

    ``backend`` selects rank execution: ``"threads"`` (default — rank
    threads in one address space) or ``"processes"`` (forked OS ranks with
    pipe transport for real multicore speedup).  Both run the same
    communicator; what needs one address space — ``ssend``/``issend``,
    windows, files, the ``MPI.COMM_WORLD`` proxy — stays on threads (see
    :mod:`repro.mpi.procs`).  ``None`` defers to the ``REPRO_MPI_BACKEND``
    environment variable.
    """
    if _resolve_mpi_backend(backend) == "processes":
        from .procs import run_procs

        return run_procs(
            fn,
            np,
            *args,
            hostname=hostname,
            deadlock_timeout=deadlock_timeout,
            **kwargs,
        )
    world = World(np, hostname=hostname, deadlock_timeout=deadlock_timeout)
    _push_world(world)
    try:
        return world.run(fn, args=args, kwargs=kwargs)
    finally:
        _pop_world(world)


def install_mpi4py_shim() -> types.ModuleType:
    """Make ``from mpi4py import MPI`` resolve to our in-process runtime.

    Idempotent; refuses to shadow a *real* mpi4py installation if one is
    importable (it is not in the reproduction environment, but be safe).
    """
    from . import api

    existing = sys.modules.get("mpi4py")
    if existing is not None and getattr(existing, "__repro_shim__", False):
        return existing
    if existing is not None:  # pragma: no cover - real mpi4py present
        raise RuntimeError("a real mpi4py is already imported; refusing to shadow it")
    shim = types.ModuleType("mpi4py")
    shim.MPI = api
    shim.__repro_shim__ = True
    sys.modules["mpi4py"] = shim
    sys.modules["mpi4py.MPI"] = api
    return shim


@dataclass
class MpirunInvocation:
    """Parsed form of an ``mpirun``-style shell command."""

    np: int
    program: str
    script: str
    extra_args: list[str] = field(default_factory=list)
    allow_run_as_root: bool = False


def parse_mpirun_command(command: str) -> MpirunInvocation:
    """Parse ``mpirun [--allow-run-as-root] -np N python file.py [args...]``.

    Accepts both ``-np`` and the ``-mp`` typo that appears in the paper's
    Fig. 2 screenshot, plus ``-n`` and ``--np``.
    """
    tokens = shlex.split(command)
    if not tokens or tokens[0] not in {"mpirun", "mpiexec"}:
        raise ValueError(f"not an mpirun command: {command!r}")
    np = None
    allow_root = False
    rest: list[str] = []
    i = 1
    while i < len(tokens):
        tok = tokens[i]
        if tok in {"-np", "-n", "--np", "-mp", "--n"}:
            if i + 1 >= len(tokens):
                raise ValueError(f"{tok} requires a value")
            np = int(tokens[i + 1])
            i += 2
        elif tok == "--allow-run-as-root":
            allow_root = True
            i += 1
        elif tok.startswith("-") and np is None and tok[1:].isdigit():
            np = int(tok[1:])
            i += 1
        else:
            rest.append(tok)
            i += 1
    if np is None:
        np = 1
    if np < 1:
        raise ValueError(f"process count must be positive, got {np}")
    if not rest:
        raise ValueError(f"no program given in mpirun command: {command!r}")
    program = rest[0]
    if program.startswith("python"):
        if len(rest) < 2:
            raise ValueError("mpirun ... python requires a script path")
        script = rest[1]
        extra = rest[2:]
    else:
        script = program
        extra = rest[1:]
    return MpirunInvocation(
        np=np,
        program=program,
        script=script,
        extra_args=extra,
        allow_run_as_root=allow_root,
    )


@dataclass
class ScriptResult:
    """Outcome of a script-mode launch."""

    np: int
    stdout_lines: list[str]
    per_rank_lines: dict[int, list[str]]

    @property
    def stdout(self) -> str:
        return "\n".join(self.stdout_lines)


def run_script(
    source: str,
    np: int,
    *,
    script_name: str = "<mpi-script>",
    argv: list[str] | None = None,
    hostname: str = "d6ff4f902ed6",
    deadlock_timeout: float = DEFAULT_DEADLOCK_TIMEOUT,
) -> ScriptResult:
    """Execute Python source SPMD on ``np`` rank threads, capturing prints.

    Each rank gets a private globals dict (so module-level state is
    per-process, as with real ``mpirun``), a ``print`` that records to the
    world console in arrival order, and ``sys.argv``-style arguments via the
    ``ARGV`` global.
    """
    install_mpi4py_shim()
    code = compile(source, script_name, "exec")
    world = World(np, hostname=hostname, deadlock_timeout=deadlock_timeout)

    def entry(comm) -> None:
        rank = comm.Get_rank()

        def rank_print(*values: Any, sep: str = " ", end: str = "\n") -> None:
            text = sep.join(str(v) for v in values) + ("" if end == "\n" else end)
            world.console.write(rank, text)

        scope: dict[str, Any] = {
            "__name__": "__main__",
            "__file__": script_name,
            "print": rank_print,
            "ARGV": list(argv or []),
        }
        exec(code, scope)  # noqa: S102 - deliberate: this *is* the interpreter

    _push_world(world)
    try:
        world.run(entry)
    finally:
        _pop_world(world)
    return ScriptResult(
        np=np,
        stdout_lines=world.console.lines(),
        per_rank_lines={r: world.console.lines(r) for r in range(np)},
    )
