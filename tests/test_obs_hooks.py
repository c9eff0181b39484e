"""The merged hook seam: one class, one instance and one flag per runtime."""

from __future__ import annotations

import pytest

from repro.mpi import mpirun
from repro.obs import hooks
from repro.openmp import barrier, critical, parallel_region

SEAMS = {"openmp": hooks.openmp, "mpi": hooks.mpi}


def _openmp_program() -> None:
    def body():
        with critical():
            pass
        barrier()

    parallel_region(body, num_threads=2)


def _mpi_program() -> None:
    def body(comm):
        if comm.Get_rank() == 0:
            comm.send("x", dest=1)
        else:
            comm.recv(source=0)
        return comm.allreduce(comm.Get_rank())

    assert mpirun(body, 2) == [1, 1]


PROGRAMS = {"openmp": _openmp_program, "mpi": _mpi_program}


class TestOneSeamPerRuntime:
    def test_one_class_two_instances(self):
        assert isinstance(hooks.openmp, hooks.HookSeam)
        assert isinstance(hooks.mpi, hooks.HookSeam)
        assert hooks.openmp is not hooks.mpi

    @pytest.mark.parametrize("mine, other", [("openmp", "mpi"), ("mpi", "openmp")])
    def test_observer_sees_none_of_the_other_runtimes_events(self, mine, other):
        seen, stamped = [], []

        def plain(event, *args):
            seen.append(event)

        def timed(ts, event, *args):
            stamped.append(event)

        seam = SEAMS[mine]
        seam.attach(plain)
        seam.attach(timed, timestamped=True)
        try:
            assert seam.enabled and not SEAMS[other].enabled
            PROGRAMS[other]()
            SEAMS[other].emit("send", 0, 0, 1, 0, 8)
            assert not SEAMS[other].enabled
            assert seen == [] and stamped == []
            PROGRAMS[mine]()
            assert seen and sorted(seen) == sorted(stamped)
        finally:
            seam.detach(plain)
            seam.detach(timed)
        assert not seam.enabled and not SEAMS[other].enabled
