"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os

import pytest

from repro.mpi import fork_available
from repro.mpi import mpirun as _mpirun


def pytest_collection_modifyitems(config, items):
    """Auto-skip ``multicore`` tests on single-CPU runners, and keep the
    thread run of a backend-parametrized case under its plain test id."""
    skip = None
    if (os.cpu_count() or 1) < 2:
        skip = pytest.mark.skip(reason="needs >1 CPU for the processes backend")
    for item in items:
        if skip is not None and "multicore" in item.keywords:
            item.add_marker(skip)
        spec = getattr(item, "callspec", None)
        if spec is not None and spec.params.get("mpi_backend") == "threads":
            _drop_threads_id(item)


def _drop_threads_id(item):
    """``test_x[threads]`` -> ``test_x``, ``test_x[threads-4]`` -> ``test_x[4]``.

    The backend suites ran on threads alone before they ran on both, so the
    thread run keeps the id that selections, CI filters and test histories
    already use; only the process run carries a ``processes`` id.
    """
    old = item.name
    new = old.replace("[threads]", "").replace("[threads-", "[").replace("-threads]", "]")
    item.name = new
    item._nodeid = item.nodeid[: len(item.nodeid) - len(old)] + new


@pytest.fixture(params=["threads", "processes"])
def mpi_backend(request, monkeypatch):
    """Run a case once per MPI backend (``REPRO_MPI_BACKEND``), so both
    honour one contract.  Apply it to a whole suite with
    ``pytestmark = pytest.mark.usefixtures("mpi_backend")``.

    A case that needs one address space — Python objects shared between
    ranks, ``ssend``'s ``threading.Event``, windows, files, the
    ``MPI.COMM_WORLD`` proxy — carries ``@pytest.mark.threads_only(reason=...)``
    and is skipped on processes with that reason.
    """
    if request.param == "processes":
        marker = request.node.get_closest_marker("threads_only")
        if marker is not None:
            pytest.skip(f"needs one address space: {marker.kwargs['reason']}")
        if not fork_available():
            pytest.skip("process ranks need the fork start method")
    monkeypatch.setenv("REPRO_MPI_BACKEND", request.param)
    return request.param


#: Keep worst-case hangs short in tests: a genuinely stuck world should fail
#: the test in a couple of seconds, not the default 30.
TEST_DEADLOCK_TIMEOUT = 8.0


def spmd(fn, np, *args, **kwargs):
    """mpirun with a test-friendly watchdog."""
    kwargs.setdefault("deadlock_timeout", TEST_DEADLOCK_TIMEOUT)
    return _mpirun(fn, np, *args, **kwargs)


@pytest.fixture
def run_spmd():
    return spmd
