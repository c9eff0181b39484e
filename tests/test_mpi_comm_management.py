"""Communicator management: Split, Dup, Create, groups, Cartesian topology."""

import pytest

from repro.mpi import SUM, Group, PROC_NULL, UNDEFINED
from repro.mpi.cartesian import compute_dims
from tests.conftest import spmd

pytestmark = pytest.mark.usefixtures("mpi_backend")


class TestSplit:
    def test_split_by_parity(self):
        def body(comm):
            rank = comm.Get_rank()
            sub = comm.Split(color=rank % 2, key=rank)
            return (sub.Get_rank(), sub.Get_size(), sub.allreduce(rank, op=SUM))

        outs = spmd(body, 6)
        evens = sum(r for r in range(6) if r % 2 == 0)
        odds = sum(r for r in range(6) if r % 2 == 1)
        for rank, (sub_rank, sub_size, total) in enumerate(outs):
            assert sub_size == 3
            assert sub_rank == rank // 2
            assert total == (evens if rank % 2 == 0 else odds)

    def test_split_key_reverses_order(self):
        def body(comm):
            rank = comm.Get_rank()
            sub = comm.Split(color=0, key=-rank)
            return sub.Get_rank()

        outs = spmd(body, 4)
        assert outs == [3, 2, 1, 0]

    def test_split_undefined_yields_none(self):
        def body(comm):
            rank = comm.Get_rank()
            color = UNDEFINED if rank == 0 else 1
            sub = comm.Split(color=color, key=rank)
            if rank == 0:
                return sub
            return sub.Get_size()

        outs = spmd(body, 4)
        assert outs[0] is None
        assert outs[1:] == [3, 3, 3]

    def test_split_twice_gives_independent_comms(self):
        def body(comm):
            a = comm.Split(color=0, key=comm.Get_rank())
            b = comm.Split(color=comm.Get_rank() % 2, key=comm.Get_rank())
            return (a.Get_size(), b.Get_size(), a.allreduce(1), b.allreduce(1))

        outs = spmd(body, 4)
        assert all(o == (4, 2, 4, 2) for o in outs)

    def test_messages_in_subcomm_do_not_leak_to_parent(self):
        def body(comm):
            rank = comm.Get_rank()
            sub = comm.Split(color=0, key=rank)
            if rank == 0:
                sub.send("sub-message", dest=1, tag=3)
            comm.barrier()
            if rank == 1:
                # the parent communicator must see nothing pending
                leaked = comm.iprobe(source=0, tag=3)
                value = sub.recv(source=0, tag=3)
                return (leaked, value)
            return None

        assert spmd(body, 2)[1] == (False, "sub-message")

    def test_dup_has_same_shape(self):
        def body(comm):
            dup = comm.Dup()
            return (dup.Get_rank(), dup.Get_size(), dup.allreduce(1))

        outs = spmd(body, 3)
        assert outs == [(0, 3, 3), (1, 3, 3), (2, 3, 3)]

    def test_create_from_subgroup(self):
        def body(comm):
            group = comm.Get_group().Incl([0, 2])
            sub = comm.Create(group)
            if sub is None:
                return None
            return (sub.Get_rank(), sub.Get_size())

        outs = spmd(body, 4)
        assert outs == [(0, 2), None, (1, 2), None]


class TestGroup:
    def test_incl_excl(self):
        g = Group(range(6))
        assert g.Incl([1, 3, 5]).ranks == (1, 3, 5)
        assert g.Excl([0, 1]).ranks == (2, 3, 4, 5)

    def test_get_rank_and_undefined(self):
        g = Group([10, 20, 30])
        assert g.Get_rank(20) == 1
        assert g.Get_rank(99) == UNDEFINED

    def test_translate_ranks(self):
        a = Group([5, 6, 7, 8])
        b = Group([8, 6])
        assert Group.Translate_ranks(a, [0, 1, 3], b) == [UNDEFINED, 1, 0]

    def test_set_operations(self):
        a, b = Group([1, 2, 3]), Group([3, 4])
        assert Group.Union(a, b).ranks == (1, 2, 3, 4)
        assert Group.Intersection(a, b).ranks == (3,)
        assert Group.Difference(a, b).ranks == (1, 2)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Group([1, 1, 2])

    def test_excl_out_of_range_raises(self):
        with pytest.raises(IndexError):
            Group([1, 2]).Excl([5])


class TestComputeDims:
    @pytest.mark.parametrize(
        "nnodes,ndims,expected",
        [
            (12, 2, [4, 3]),
            (8, 3, [2, 2, 2]),
            (7, 2, [7, 1]),
            (16, 2, [4, 4]),
            (1, 3, [1, 1, 1]),
            (30, 2, [6, 5]),
        ],
    )
    def test_balanced_factorization(self, nnodes, ndims, expected):
        dims = compute_dims(nnodes, ndims)
        assert dims == expected
        product = 1
        for d in dims:
            product *= d
        assert product == nnodes

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            compute_dims(0, 2)
        with pytest.raises(ValueError):
            compute_dims(4, 0)


class TestCartesian:
    def test_coords_roundtrip_3x2(self):
        def body(comm):
            cart = comm.Create_cart((3, 2), periods=(False, False))
            coords = cart.Get_coords(cart.Get_rank())
            assert cart.Get_cart_rank(coords) == cart.Get_rank()
            return coords

        outs = spmd(body, 6)
        assert outs == [[0, 0], [0, 1], [1, 0], [1, 1], [2, 0], [2, 1]]

    def test_shift_nonperiodic_boundaries_are_proc_null(self):
        def body(comm):
            cart = comm.Create_cart((4,), periods=(False,))
            return cart.Shift(0, 1)

        outs = spmd(body, 4)
        assert outs[0] == (PROC_NULL, 1)
        assert outs[1] == (0, 2)
        assert outs[3] == (2, PROC_NULL)

    def test_shift_periodic_wraps(self):
        def body(comm):
            cart = comm.Create_cart((4,), periods=(True,))
            return cart.Shift(0, 1)

        outs = spmd(body, 4)
        assert outs[0] == (3, 1)
        assert outs[3] == (2, 0)

    def test_excess_ranks_get_none(self):
        def body(comm):
            cart = comm.Create_cart((2,), periods=(False,))
            return None if cart is None else cart.Get_size()

        assert spmd(body, 4) == [2, 2, None, None]

    def test_cart_rank_outside_a_nonperiodic_dimension_raises(self):
        def body(comm):
            cart = comm.Create_cart((2, 2), periods=(True, False))
            wrapped = cart.Get_cart_rank([2, 1])  # periodic: wraps to row 0
            try:
                cart.Get_cart_rank([0, 2])
            except ValueError:
                return (wrapped, "refused")
            return (wrapped, "wrapped")

        assert spmd(body, 4) == [(1, "refused")] * 4

    def test_messages_in_cart_do_not_leak_to_parent(self):
        def body(comm):
            rank = comm.Get_rank()
            cart = comm.Create_cart((2,), periods=(False,))
            if rank == 0:
                cart.send("cart-message", dest=1, tag=3)
            comm.barrier()
            if rank == 1:
                leaked = comm.iprobe(source=0, tag=3)
                return (leaked, cart.recv(source=0, tag=3))
            return None

        assert spmd(body, 2)[1] == (False, "cart-message")

    def test_grid_too_large_raises(self):
        from repro.mpi import RankFailedError

        def body(comm):
            comm.Create_cart((4, 4))

        with pytest.raises(RankFailedError):
            spmd(body, 4)

    def test_halo_exchange_along_ring(self):
        """The classic neighbor exchange the forest-fire row decomposition uses."""

        def body(comm):
            cart = comm.Create_cart((comm.Get_size(),), periods=(True,))
            left, right = cart.Shift(0, 1)
            return cart.sendrecv(cart.Get_rank(), dest=right, source=left)

        outs = spmd(body, 5)
        assert outs == [(r - 1) % 5 for r in range(5)]

    def test_get_topo(self):
        def body(comm):
            cart = comm.Create_cart((2, 2), periods=(True, False))
            return cart.Get_topo()

        dims, periods, coords = spmd(body, 4)[3]
        assert dims == (2, 2)
        assert periods == (True, False)
        assert coords == (1, 1)
