"""A helper process forked from this one, and the frames it exchanges with it.

The corpus's back-half reader (``backhalf``) and ``generate``'s dataset
writer (``pipeline._write_dataset``) each run in one. A frame is an 8-byte
little-endian length and that many bytes, most often a ``marshal`` dump.
The child writes frames to one pipe and, when started with ``replies``,
reads the parent's from another.

The child ignores SIGINT, which reaches the whole process group: the parent
handles it, and ``Forked.close`` stops the child with SIGTERM and reaps it.
The child leaves through ``os._exit``, never through the parent's
``finally`` blocks or exit handlers: with 0 once its work returns, 1 after
any exception. A child that exits before sending a frame the parent waits
for has closed its end of the pipe, so the wait ends in EOF and an
InternalInvariantError naming its exit code, never a hang.

Modules import this one only when they fork, so a command that forks
nothing neither compiles nor loads it.
"""

from __future__ import annotations

import marshal
import os
import signal
from typing import BinaryIO, Callable

from .errors import InternalInvariantError


class Link:
    """The child's ends of the pipes: ``send`` an object to the parent,
    ``send_bytes`` bytes as they are, ``recv`` an object from it (EOFError
    if the parent closed its end)."""

    def __init__(self, inbound: BinaryIO | None, outbound: BinaryIO):
        self._inbound, self._outbound = inbound, outbound

    def send(self, obj: object) -> None:
        self.send_bytes(marshal.dumps(obj))

    def send_bytes(self, data: bytes) -> None:
        _write_frame(self._outbound, data)

    def recv(self) -> object:
        data = _read_frame(self._inbound)
        if data is None:
            raise EOFError("the parent closed its pipe")
        return marshal.loads(data)


class Forked:
    """A forked child process running ``work(link)``, seen from the parent:
    its pid and the parent's ends of the pipes. ``name`` names it in
    errors."""

    def __init__(self, name: str, pid: int, inbound: BinaryIO, outbound: BinaryIO | None):
        self._name, self._pid = name, pid
        self._inbound, self._outbound = inbound, outbound

    @classmethod
    def start(
        cls, name: str, work: Callable[[Link], None], *, replies: bool = False
    ) -> "Forked | None":
        """Fork a child that runs ``work`` with a ``Link`` to this process,
        which may send it frames if ``replies``. Return None, and the caller
        does the work itself, if the fork fails with an OSError (no process
        to spare)."""
        up = os.pipe()  # child -> parent
        down = os.pipe() if replies else ()  # parent -> child
        try:
            pid = os.fork()
        except BaseException as e:
            for fd in (*up, *down):
                os.close(fd)
            if isinstance(e, OSError):
                return None
            raise
        if pid == 0:  # the child
            code = 1
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                os.close(up[0])
                if down:
                    os.close(down[1])
                work(Link(open(down[0], "rb") if down else None, open(up[1], "wb")))
                code = 0
            finally:
                os._exit(code)
        os.close(up[1])
        if down:
            os.close(down[0])
        return cls(name, pid, open(up[0], "rb"), open(down[1], "wb") if down else None)

    def recv(self) -> object:
        """The child's next frame, decoded; a child that exited before
        sending it is an InternalInvariantError naming its exit code."""
        data = _read_frame(self._inbound)
        if data is None:
            raise self._died()
        return marshal.loads(data)

    def recv_after(self, head: bytes) -> bytearray:
        """``head`` followed by the bytes of the child's next frame, in one
        buffer: the frame is read into the space after ``head``, so the two
        are never held apart and then copied together."""
        size = _read_size(self._inbound)
        if size is None:
            raise self._died()
        out = bytearray(len(head) + size)
        out[: len(head)] = head
        if self._inbound.readinto(memoryview(out)[len(head) :]) < size:
            raise self._died()
        return out

    def send(self, obj: object) -> None:
        """Send the child a frame; a child that exited is an
        InternalInvariantError naming its exit code."""
        try:
            _write_frame(self._outbound, marshal.dumps(obj))
        except BrokenPipeError:
            raise self._died() from None

    def _died(self) -> InternalInvariantError:
        _, status = os.waitpid(self._pid, 0)
        self._pid = 0
        return InternalInvariantError(
            f"{self._name} process exited with code {os.waitstatus_to_exitcode(status)}"
        )

    def close(self) -> None:
        """Stop the child if it still runs, reap it and close the pipes."""
        if self._pid:
            os.kill(self._pid, signal.SIGTERM)
            try:
                os.waitpid(self._pid, 0)
            except ChildProcessError:  # reaped already (SIGCHLD ignored)
                pass
            self._pid = 0
        self._inbound.close()
        if self._outbound is not None:
            try:
                self._outbound.close()
            except BrokenPipeError:  # a frame the dead child never read
                pass


def _write_frame(fh: BinaryIO, data: bytes) -> None:
    fh.write(len(data).to_bytes(8, "little"))
    fh.write(data)
    fh.flush()


def _read_size(fh: BinaryIO) -> int | None:
    """The next frame's size; None at EOF."""
    head = fh.read(8)
    return int.from_bytes(head, "little") if len(head) == 8 else None


def _read_frame(fh: BinaryIO) -> bytes | None:
    """A frame's bytes; None at EOF, or if the frame is cut short."""
    size = _read_size(fh)
    if size is None:
        return None
    data = fh.read(size)
    return data if len(data) == size else None
