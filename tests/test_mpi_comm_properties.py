"""Property tests for communicator management: Split partitions, Cartesian
coordinate bijections, group algebra."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mpi import SUM, Group, UNDEFINED
from repro.mpi.cartesian import compute_dims
from tests.conftest import spmd

FAST = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@FAST
@given(data=st.data())
def test_split_partitions_the_communicator(data):
    size = data.draw(st.integers(1, 6))
    colors = data.draw(
        st.lists(st.integers(0, 2), min_size=size, max_size=size)
    )
    keys = data.draw(
        st.lists(st.integers(-5, 5), min_size=size, max_size=size)
    )

    def body(comm):
        rank = comm.Get_rank()
        sub = comm.Split(color=colors[rank], key=keys[rank])
        return (sub.Get_rank(), sub.Get_size(), sub.allgather(rank))

    outs = spmd(body, size)
    for color in set(colors):
        members = [r for r in range(size) if colors[r] == color]
        # every member of a color agrees on size and membership
        for r in members:
            sub_rank, sub_size, gathered = outs[r]
            assert sub_size == len(members)
            assert sorted(gathered) == members
        # ranks within the subcommunicator are ordered by (key, parent rank)
        expected_order = sorted(members, key=lambda r: (keys[r], r))
        for new_rank, parent in enumerate(expected_order):
            assert outs[parent][0] == new_rank


@FAST
@given(data=st.data())
def test_split_undefined_ranks_get_none_and_rest_still_work(data):
    size = data.draw(st.integers(2, 6))
    dropped = data.draw(
        st.sets(st.integers(0, size - 1), max_size=size - 1)
    )

    def body(comm):
        rank = comm.Get_rank()
        color = UNDEFINED if rank in dropped else 0
        sub = comm.Split(color=color, key=rank)
        if sub is None:
            return None
        return sub.allreduce(rank, op=SUM)

    outs = spmd(body, size)
    kept = [r for r in range(size) if r not in dropped]
    for r in range(size):
        if r in dropped:
            assert outs[r] is None
        else:
            assert outs[r] == sum(kept)


@FAST
@given(
    dims=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    periods_seed=st.integers(0, 7),
)
def test_cartesian_coords_are_a_bijection(dims, periods_seed):
    nnodes = 1
    for d in dims:
        nnodes *= d
    if nnodes > 8:
        return  # keep worlds small
    periods = [(periods_seed >> i) & 1 == 1 for i in range(len(dims))]

    def body(comm):
        cart = comm.Create_cart(dims, periods=periods)
        coords = cart.Get_coords(cart.Get_rank())
        assert cart.Get_cart_rank(coords) == cart.Get_rank()
        return coords

    outs = spmd(body, nnodes)
    assert len({tuple(c) for c in outs}) == nnodes  # distinct coordinates per rank
    for coords in outs:
        assert all(0 <= c < d for c, d in zip(coords, dims))


@FAST
@given(
    nnodes=st.integers(1, 256),
    ndims=st.integers(1, 4),
)
def test_compute_dims_properties(nnodes, ndims):
    dims = compute_dims(nnodes, ndims)
    assert len(dims) == ndims
    product = 1
    for d in dims:
        product *= d
    assert product == nnodes
    assert dims == sorted(dims, reverse=True)  # non-increasing, per MPI


@FAST
@given(
    universe=st.sets(st.integers(0, 20), min_size=1, max_size=10),
    other=st.sets(st.integers(0, 20), max_size=10),
)
def test_group_algebra_laws(universe, other):
    a = Group(sorted(universe))
    b = Group(sorted(other))
    union = Group.Union(a, b)
    inter = Group.Intersection(a, b)
    diff = Group.Difference(a, b)
    assert set(union.ranks) == universe | other
    assert set(inter.ranks) == universe & other
    assert set(diff.ranks) == universe - other
    # inclusion-exclusion on sizes
    assert len(union) == len(a) + len(b) - len(inter)
    # translate every rank of the intersection consistently
    for world_rank in inter.ranks:
        pos_a = a.Get_rank(world_rank)
        translated = Group.Translate_ranks(a, [pos_a], b)[0]
        assert b.ranks[translated] == world_rank
