"""Nonblocking-communication request objects (``isend``/``irecv``)."""

from __future__ import annotations

import contextlib
import threading
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from ..obs.hooks import mpi as _hooks
from .message import USER, wait_event
from .status import Status


@contextlib.contextmanager
def _wait_span(comm: "Intracomm") -> Iterator[None]:
    """Bracket a blocking request wait with wait_enter/wait_exit events."""
    if not _hooks.enabled:
        yield
        return
    cid, rank = comm._obs_cid, comm._rank
    _hooks.emit("wait_enter", cid, rank)
    try:
        yield
    finally:
        _hooks.emit("wait_exit", cid, rank)

if TYPE_CHECKING:  # pragma: no cover
    from .comm import Intracomm


class Request:
    """Handle to a pending nonblocking operation.

    Our sends are eager-buffered, so a send request is complete as soon as
    the envelope is enqueued (synchronous sends complete when matched).  A
    receive request completes when a matching message can be dequeued.
    """

    @classmethod
    def Waitall(cls, requests: Sequence["Request"], statuses: list[Status] | None = None) -> list[Any]:
        """Wait on every request; returns the list of receive payloads."""
        out = []
        for i, req in enumerate(requests):
            status = None
            if statuses is not None:
                while len(statuses) <= i:
                    statuses.append(Status())
                status = statuses[i]
            out.append(req.wait(status=status))
        return out

    @classmethod
    def Waitany(cls, requests: Sequence["Request"]) -> tuple[int, Any]:
        """Poll until some request completes; returns (index, payload)."""
        while True:
            for i, req in enumerate(requests):
                done, payload = req.test()
                if done:
                    return i, payload

    # Subclasses implement wait/test.
    def wait(self, status: Status | None = None) -> Any:  # pragma: no cover - abstract
        raise NotImplementedError

    def test(self, status: Status | None = None) -> tuple[bool, Any]:  # pragma: no cover
        raise NotImplementedError

    # Uppercase aliases (mpi4py has both spellings).
    def Wait(self, status: Status | None = None) -> Any:
        return self.wait(status=status)

    def Test(self, status: Status | None = None) -> tuple[bool, Any]:
        return self.test(status=status)


class SendRequest(Request):
    """Request returned by ``isend``/``Isend``."""

    def __init__(self, comm: "Intracomm", sync_event: threading.Event | None = None) -> None:
        self._comm = comm
        self._sync = sync_event

    def wait(self, status: Status | None = None) -> None:
        if self._sync is not None:
            with _wait_span(self._comm):
                wait_event(self._sync, self._comm._tp.world)
        return None

    def test(self, status: Status | None = None) -> tuple[bool, None]:
        if self._sync is not None and not self._sync.is_set():
            return False, None
        return True, None


class RecvRequest(Request):
    """Request returned by ``irecv``: completes on a matching arrival."""

    def __init__(self, comm: "Intracomm", source: int, tag: int) -> None:
        self._comm = comm
        self._source = source
        self._tag = tag
        self._done = False
        self._payload: Any = None

    def _decode(self, msg: Any) -> Any:
        return self._comm._loads(msg)

    def _complete(self, msg: Any, status: Status | None) -> None:
        self._payload = self._decode(msg)
        self._done = True
        if status is not None:
            status._set(msg.source, msg.tag, msg.nbytes)

    def _match(self, block: bool) -> Any:
        return self._comm._tp.match(USER, self._source, self._tag, block)

    def wait(self, status: Status | None = None) -> Any:
        if not self._done:
            with _wait_span(self._comm):
                msg = self._match(True)
            self._complete(msg, status)
        return self._payload

    def test(self, status: Status | None = None) -> tuple[bool, Any]:
        if not self._done:
            msg = self._match(False)
            if msg is None:
                return False, None
            self._complete(msg, status)
        return True, self._payload


class BufferRecvRequest(RecvRequest):
    """Request returned by the uppercase ``Irecv``: fills a typed buffer."""

    def __init__(self, comm: "Intracomm", spec: Any, source: int, tag: int) -> None:
        super().__init__(comm, source, tag)
        self._spec = spec

    def _decode(self, msg: Any) -> None:
        self._comm._fill_array(self._spec, self._comm._unpack(msg))


__all__ = ["Request", "SendRequest", "RecvRequest", "BufferRecvRequest"]
