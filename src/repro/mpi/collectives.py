"""Collective-communication algorithms.

Every collective in :class:`repro.mpi.comm.Intracomm` is implemented here on
top of internal point-to-point transfers in a dedicated *collective context*
(a second mailbox set per communicator), exactly as real MPI libraries
separate contexts so user ``ANY_TAG`` receives can never steal collective
traffic.

Algorithms implemented (selectable via :mod:`repro.mpi.algorithms`):

===============  =================================================
collective       algorithms
===============  =================================================
barrier          dissemination (lg P rounds)
bcast            binomial tree, scatter+ring-allgather
                 (Rabenseifner-style), linear
reduce           binomial tree (commutative ops), linear rank-order
                 fold (always valid; required for non-commutative)
scatter/gather   linear to/from root
allgather        ring (P-1 steps), gather+bcast (linear)
alltoall         pairwise exchange
scan/exscan      linear chain
allreduce        recursive doubling, ring (reduce-scatter +
                 allgather for chunkable commutative payloads,
                 allgather+rank-order fold otherwise), linear
                 (reduce + bcast), hierarchical / two-dimensional
                 topology-aware schedules
===============  =================================================

The transport callbacks ``send(dest, phase, payload)`` and
``recv(source, phase) -> payload`` are supplied by the communicator; payloads
are opaque (pickled bytes for object collectives, NumPy arrays for buffer
collectives), so each algorithm is written once and reused by both the
lowercase and uppercase verbs.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Sequence

from ..obs.hooks import mpi as _hooks
from .ops import Op

Send = Callable[[int, int, Any], None]
Recv = Callable[[int, int], Any]
Split = Callable[[Any, int], Sequence[Any]]
Concat = Callable[[Sequence[Any]], Any]

__all__ = [
    "barrier_dissemination",
    "bcast_binomial",
    "bcast_linear",
    "bcast_scatter_allgather",
    "reduce_linear",
    "reduce_binomial",
    "scatter_linear",
    "gather_linear",
    "allgather_ring",
    "allgather_linear",
    "alltoall_pairwise",
    "scan_linear",
    "exscan_linear",
    "allreduce_recursive_doubling",
    "allreduce_ring",
    "allreduce_linear",
    "allreduce_hierarchical",
    "allreduce_two_dimensional",
    "split_bytes",
    "shifted",
    "traced_collective",
    "payload_nbytes",
]


def traced_collective(fn: Callable[..., Any]) -> Callable[..., Any]:
    """Bracket a communicator collective with ``coll_enter``/``coll_exit``.

    Decorates ``Intracomm``/``ProcComm`` methods; the communicator supplies
    its context id via ``_obs_cid`` and its rank via ``_rank``.  With no
    observer on the MPI hook seam the wrapper is a single falsy branch over
    the undecorated call.
    """
    name = fn.__name__

    @functools.wraps(fn)
    def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
        if not _hooks.enabled:
            return fn(self, *args, **kwargs)
        cid = self._obs_cid
        rank = self._rank
        _hooks.emit("coll_enter", cid, rank, name)
        try:
            return fn(self, *args, **kwargs)
        finally:
            _hooks.emit("coll_exit", cid, rank, name)

    return wrapper


def payload_nbytes(payload: Any) -> int:
    """Best-effort byte size of a transport payload (teaching precision)."""
    if payload is None:
        return 0
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    nbytes = getattr(payload, "nbytes", None)
    if isinstance(nbytes, int):
        return nbytes
    return 0


def shifted(send: Send, recv: Recv, base: int) -> tuple[Send, Recv]:
    """Offset every phase by ``base`` so composed algorithms never collide."""

    def send2(dest: int, phase: int, payload: Any) -> None:
        send(dest, base + phase, payload)

    def recv2(source: int, phase: int) -> Any:
        return recv(source, base + phase)

    return send2, recv2


def split_bytes(payload: bytes, n: int) -> list[bytes]:
    """Split ``payload`` into ``n`` near-equal contiguous slices (some may
    be empty); ``b"".join`` of the result reproduces the input exactly."""
    total = len(payload)
    base, extra = divmod(total, n)
    chunks: list[bytes] = []
    offset = 0
    for i in range(n):
        span = base + (1 if i < extra else 0)
        chunks.append(payload[offset : offset + span])
        offset += span
    return chunks


def barrier_dissemination(rank: int, size: int, send: Send, recv: Recv) -> None:
    """Dissemination barrier: ceil(lg P) rounds of shifted token exchange."""
    if size == 1:
        return
    k = 1
    phase = 0
    while k < size:
        send((rank + k) % size, phase, b"")
        recv((rank - k) % size, phase)
        k <<= 1
        phase += 1


def bcast_binomial(rank: int, size: int, root: int, payload: Any, send: Send, recv: Recv) -> Any:
    """Binomial-tree broadcast; returns the payload at every rank.

    Ranks are renumbered relative to the root so the tree is rooted at 0;
    at step ``k`` every rank that already has the data forwards it to the
    peer ``2^k`` positions away.
    """
    if size == 1:
        return payload
    vrank = (rank - root) % size
    # Walk up to the lowest set bit of vrank: that bit names our parent.
    # vrank 0 has no set bit; its mask grows past size, covering all children.
    mask = 1
    while mask < size and not (vrank & mask):
        mask <<= 1
    if vrank != 0:
        parent = ((vrank - mask) + root) % size
        payload = recv(parent, 0)
    # Children sit at vrank + m for every power of two m below our parent bit.
    child = mask >> 1
    while child > 0:
        if vrank + child < size:
            send((vrank + child + root) % size, 0, payload)
        child >>= 1
    return payload


def bcast_linear(rank: int, size: int, root: int, payload: Any, send: Send, recv: Recv) -> Any:
    """Root sends to everyone directly (O(P) at the root)."""
    if rank == root:
        for dest in range(size):
            if dest != root:
                send(dest, 0, payload)
        return payload
    return recv(root, 0)


def reduce_linear(
    rank: int,
    size: int,
    root: int,
    value: Any,
    op: Op,
    send: Send,
    recv: Recv,
) -> Any:
    """Gather to root and fold strictly in rank order (any op, any size)."""
    if rank != root:
        send(root, 0, value)
        return None
    parts = []
    for src in range(size):
        parts.append(value if src == root else recv(src, 0))
    return op.reduce_sequence(parts)


def reduce_binomial(
    rank: int,
    size: int,
    root: int,
    value: Any,
    op: Op,
    send: Send,
    recv: Recv,
) -> Any:
    """Binomial-tree reduction (requires a commutative-safe op ordering).

    At step ``k`` ranks whose ``k``-th bit is set send their partial to the
    peer ``2^k`` below and retire; the survivor combines.  With the virtual
    renumbering, partials always combine lower-vrank ⊕ higher-vrank, which
    preserves rank order within each subtree.
    """
    vrank = (rank - root) % size
    acc = value
    mask = 1
    while mask < size:
        if vrank & mask:
            dest = ((vrank & ~mask) + root) % size
            send(dest, 0, acc)
            return None
        partner = vrank | mask
        if partner < size:
            incoming = recv((partner + root) % size, 0)
            acc = op(acc, incoming)
        mask <<= 1
    return acc if rank == root else None


def scatter_linear(
    rank: int,
    size: int,
    root: int,
    chunks: Sequence[Any] | None,
    send: Send,
    recv: Recv,
) -> Any:
    """Root sends chunk ``i`` to rank ``i``; returns the local chunk."""
    if rank == root:
        assert chunks is not None
        for dest in range(size):
            if dest != root:
                send(dest, 0, chunks[dest])
        return chunks[root]
    return recv(root, 0)


def gather_linear(
    rank: int,
    size: int,
    root: int,
    value: Any,
    send: Send,
    recv: Recv,
) -> list[Any] | None:
    """Every rank sends its value to root; root returns the ordered list."""
    if rank != root:
        send(root, 0, value)
        return None
    return [value if src == root else recv(src, 0) for src in range(size)]


def allgather_ring(rank: int, size: int, value: Any, send: Send, recv: Recv) -> list[Any]:
    """Ring allgather: P-1 steps, each forwarding the newest-received block.

    The block index at every step is a pure function of ``(rank, step)``, so
    no metadata rides along with the payload — the wire carries the block
    bytes alone, which keeps the buffer path zero-copy.
    """
    blocks: list[Any] = [None] * size
    blocks[rank] = value
    if size == 1:
        return blocks
    right = (rank + 1) % size
    left = (rank - 1) % size
    for step in range(size - 1):
        send(right, step, blocks[(rank - step) % size])
        blocks[(rank - step - 1) % size] = recv(left, step)
    return blocks


def allgather_linear(
    rank: int,
    size: int,
    value: Any,
    send: Send,
    recv: Recv,
    *,
    concat: Concat | None = None,
) -> Any:
    """Gather to rank 0 then broadcast the assembled result (phases 0 and 1).

    With ``concat`` the root joins the blocks before the broadcast and every
    rank returns the joined payload (needed by transports that can only ship
    flat buffers); without it every rank returns the ordered block list.
    """
    gathered = gather_linear(rank, size, 0, value, send, recv)
    if rank == 0 and concat is not None:
        gathered = concat(gathered)
    send2, recv2 = shifted(send, recv, 1)
    return bcast_linear(rank, size, 0, gathered, send2, recv2)


def bcast_scatter_allgather(
    rank: int,
    size: int,
    root: int,
    payload: Any,
    send: Send,
    recv: Recv,
    *,
    split: Split,
    concat: Concat,
) -> Any:
    """Rabenseifner-style broadcast: scatter chunks, then ring allgather.

    Bandwidth-optimal for large payloads: every rank moves ~2·n/P bytes per
    step instead of the full n.  Phase 0 is the scatter; the ring runs on
    phases 1..P-1.
    """
    if size == 1:
        return payload
    if rank == root:
        chunks = split(payload, size)
        for dest in range(size):
            if dest != root:
                send(dest, 0, chunks[dest])
        mine = chunks[rank]
    else:
        mine = recv(root, 0)
    send2, recv2 = shifted(send, recv, 1)
    blocks = allgather_ring(rank, size, mine, send2, recv2)
    if rank == root:
        return payload
    return concat(blocks)


def alltoall_pairwise(
    rank: int,
    size: int,
    outgoing: Sequence[Any],
    send: Send,
    recv: Recv,
) -> list[Any]:
    """Pairwise-exchange all-to-all: step k swaps with rank XOR-shifted by k."""
    incoming: list[Any] = [None] * size
    incoming[rank] = outgoing[rank]
    for step in range(1, size):
        dest = (rank + step) % size
        src = (rank - step) % size
        send(dest, step, outgoing[dest])
        incoming[src] = recv(src, step)
    return incoming


def scan_linear(rank: int, size: int, value: Any, op: Op, send: Send, recv: Recv) -> Any:
    """Inclusive prefix reduction along the rank chain."""
    acc = value
    if rank > 0:
        acc = op(recv(rank - 1, 0), value)
    if rank + 1 < size:
        send(rank + 1, 0, acc)
    return acc


def exscan_linear(
    rank: int, size: int, value: Any, op: Op, send: Send, recv: Recv
) -> Any:
    """Exclusive prefix reduction; rank 0 receives None (MPI: undefined)."""
    prefix = None
    if rank > 0:
        prefix = recv(rank - 1, 0)
    if rank + 1 < size:
        outgoing = value if prefix is None else op(prefix, value)
        send(rank + 1, 0, outgoing)
    return prefix


def allreduce_recursive_doubling(
    rank: int, size: int, value: Any, op: Op, send: Send, recv: Recv
) -> Any:
    """Recursive-doubling allreduce for commutative ops.

    For non-power-of-two sizes the excess ranks fold into a partner first
    and receive the final result at the end (the standard pre/post phase).
    """
    pof2 = 1
    while pof2 * 2 <= size:
        pof2 *= 2
    rem = size - pof2

    acc = value
    # Pre-phase: the first 2*rem ranks pair up; odd ones retire.
    if rank < 2 * rem:
        if rank % 2:  # odd: send partial down, wait for final result later
            send(rank - 1, 100, acc)
            return recv(rank - 1, 101)
        incoming = recv(rank + 1, 100)
        acc = op(acc, incoming)
        newrank = rank // 2
    elif rank < size:
        newrank = rank - rem
    # Core recursive doubling among pof2 survivors.
    def old(nr: int) -> int:
        return nr * 2 if nr < rem else nr + rem

    mask = 1
    phase = 0
    while mask < pof2:
        partner = old(newrank ^ mask)
        send(partner, phase, acc)
        incoming = recv(partner, phase)
        acc = op(acc, incoming) if (newrank & mask) == 0 else op(incoming, acc)
        mask <<= 1
        phase += 1
    # Post-phase: deliver results to the retired odd ranks.
    if rank < 2 * rem:
        send(rank + 1, 101, acc)
    return acc


def allreduce_linear(
    rank: int, size: int, value: Any, op: Op, send: Send, recv: Recv
) -> Any:
    """Reference allreduce: rank-order fold at 0, then linear broadcast.

    Exact for every associative op (commutative or not); every other
    allreduce algorithm is differentially tested against this one.
    """
    result = reduce_linear(rank, size, 0, value, op, send, recv)
    send2, recv2 = shifted(send, recv, 1)
    return bcast_linear(rank, size, 0, result, send2, recv2)


def allreduce_ring(
    rank: int,
    size: int,
    value: Any,
    op: Op,
    send: Send,
    recv: Recv,
    *,
    split: Split | None = None,
    concat: Concat | None = None,
) -> Any:
    """Ring allreduce (reduce-scatter + allgather), the HPC/DL classic.

    With ``split``/``concat`` and a commutative op the payload is cut into P
    chunks and each rank reduces one chunk while it circulates — 2(P-1)
    steps of n/P bytes each.  The rotating chunk walk folds contributions in
    ring order rather than rank order, so for non-commutative ops (or
    unsplittable payloads) it falls back to an atomic variant: ring
    allgather of whole values followed by a local rank-order fold, which is
    exact for any associative op.
    """
    if size == 1:
        return value
    if split is None or concat is None or not op.commute:
        blocks = allgather_ring(rank, size, value, send, recv)
        return op.reduce_sequence(blocks)
    chunks = list(split(value, size))
    right = (rank + 1) % size
    left = (rank - 1) % size
    # Reduce-scatter: after P-1 steps rank r owns the fully reduced chunk
    # (r+1) mod P.
    for step in range(size - 1):
        send(right, step, chunks[(rank - step) % size])
        idx = (rank - step - 1) % size
        chunks[idx] = op(recv(left, step), chunks[idx])
    # Allgather the reduced chunks on phases P-1 .. 2P-3.
    for step in range(size - 1):
        send(right, size - 1 + step, chunks[(rank + 1 - step) % size])
        idx = (rank - step) % size
        chunks[idx] = recv(left, size - 1 + step)
    return concat(chunks)


def allreduce_hierarchical(
    rank: int,
    size: int,
    value: Any,
    op: Op,
    send: Send,
    recv: Recv,
    node_of: Callable[[int], int],
) -> Any:
    """Two-level allreduce over a node hierarchy.

    Intra-node: members send to their node leader (lowest rank on the node),
    which folds in rank order.  Inter-node: leaders ring-allgather their
    partials and fold in node order.  Intra-node again: leaders broadcast
    the result to their members.  Exact for non-commutative ops as long as
    ``node_of`` maps contiguous rank blocks to nodes (packed placement, as
    :meth:`repro.platforms.machine.Cluster.nodes_for` produces).
    """
    if size == 1:
        return value
    my_node = node_of(rank)
    members = [r for r in range(size) if node_of(r) == my_node]
    leader = members[0]
    leaders = sorted({min(r for r in range(size) if node_of(r) == n)
                      for n in {node_of(r) for r in range(size)}})
    n_leaders = len(leaders)
    if rank != leader:
        # Phase 0: hand the contribution to the leader; the final result
        # comes back on phase n_leaders (after the inter-node exchange).
        send(leader, 0, value)
        return recv(leader, n_leaders)
    parts = [value if r == leader else recv(r, 0) for r in members]
    partial = op.reduce_sequence(parts)
    if n_leaders > 1:
        my_idx = leaders.index(leader)
        right = leaders[(my_idx + 1) % n_leaders]
        left = leaders[(my_idx - 1) % n_leaders]
        blocks: list[Any] = [None] * n_leaders
        blocks[my_idx] = partial
        # Ring allgather among leaders on phases 1 .. n_leaders-1.
        for step in range(n_leaders - 1):
            send(right, 1 + step, blocks[(my_idx - step) % n_leaders])
            blocks[(my_idx - step - 1) % n_leaders] = recv(left, 1 + step)
        partial = op.reduce_sequence(blocks)
    for member in members:
        if member != leader:
            send(member, n_leaders, partial)
    return partial


def _allreduce_ring_subset(
    me_idx: int,
    members: Sequence[int],
    value: Any,
    op: Op,
    send: Send,
    recv: Recv,
    base_phase: int,
) -> Any:
    """Atomic ring allreduce restricted to ``members`` (global rank ids)."""
    n = len(members)
    if n == 1:
        return value
    right = members[(me_idx + 1) % n]
    left = members[(me_idx - 1) % n]
    blocks: list[Any] = [None] * n
    blocks[me_idx] = value
    for step in range(n - 1):
        send(right, base_phase + step, blocks[(me_idx - step) % n])
        blocks[(me_idx - step - 1) % n] = recv(left, base_phase + step)
    return op.reduce_sequence(blocks)


def allreduce_two_dimensional(
    rank: int,
    size: int,
    value: Any,
    op: Op,
    send: Send,
    recv: Recv,
    rows: int,
) -> Any:
    """2D-mesh allreduce: reduce along rows, then along columns.

    Ranks are laid out row-major on a ``rows × cols`` grid (``rows`` must
    divide ``size``).  Each stage is an atomic ring allreduce over the
    row/column subset; both stages fold in rank order, so the algorithm is
    exact for non-commutative associative ops.  Latency is
    (cols-1)+(rows-1) steps instead of P-1.
    """
    if size == 1:
        return value
    if rows <= 0 or size % rows:
        raise ValueError(f"rows={rows} must divide the world size {size}")
    cols = size // rows
    row_members = [rank - rank % cols + c for c in range(cols)]
    col_members = [rank % cols + r * cols for r in range(rows)]
    partial = _allreduce_ring_subset(
        row_members.index(rank), row_members, value, op, send, recv, 0
    )
    return _allreduce_ring_subset(
        col_members.index(rank), col_members, partial, op, send, recv,
        max(cols - 1, 0),
    )
