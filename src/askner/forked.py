"""A helper process forked from this one: when to fork it, the frames it
exchanges with this process, and how its errors come back.

Three helpers each run in one: the corpus's back-half reader
(``backhalf``), ``generate``'s dataset writer (``pipeline._write_back``)
and ``selftrain``'s validation scorer (``selftrain._score_states``).
``Forked.start`` forks one only when that can pay and is safe: this process
may run on a second CPU (on one, the helper would only compete with it and
add its handoff), the platform has ``os.fork``, and no other thread runs (a
process forked while another thread holds a lock can deadlock; ``generate``'s
fetch threads have all ended before it reads the corpus). Otherwise, or when
the pipes or the fork fail, it returns None and the caller does the work
itself.

A frame is an 8-byte little-endian header and the number of bytes it
names, most often a ``marshal`` dump. The child writes frames to one pipe
and, when started with ``replies``, reads the parent's from another. An
exception that the child's work raises ends its frames: it is pickled into
an error frame, whose header has its top bit set, and ``Forked.recv`` and
``Forked.recv_after`` raise it in the parent, after every frame before it.
An exception that cannot be pickled and unpickled is sent as an
InternalInvariantError naming the helper instead.

The child ignores SIGINT, which reaches the whole process group: the parent
handles it, and ``Forked.close`` stops the child with SIGTERM and reaps it.
The child leaves through ``os._exit``, never through the parent's
``finally`` blocks or exit handlers. A child that exits before sending a
frame the parent waits for has closed its end of the pipe, so the wait ends
in EOF and an InternalInvariantError naming its exit code, never a hang.

Modules import this one where they may fork, and ``pipeline`` where it
sizes the remote fetch pool, so a command that does neither (``eval``,
``judge-stats``) neither compiles nor loads it.
"""

from __future__ import annotations

import marshal
import os
import signal
import threading
from typing import BinaryIO, Callable

from .errors import InternalInvariantError

# The header bit that marks an error frame.
_ERROR = 1 << 63


def available_cpus() -> int:
    """CPUs this process may run on: the one CPU count the package reads,
    for the fork policy and the width of the remote fetch pool."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


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
        does the work itself, when the module docstring's terms do not hold
        or a pipe or the fork fails with an OSError (no process or file to
        spare)."""
        if available_cpus() < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
            return None
        fds: list[int] = []
        try:
            fds += os.pipe()  # child -> parent
            if replies:
                fds += os.pipe()  # parent -> child
            pid = os.fork()
        except BaseException as e:
            for fd in fds:
                os.close(fd)
            if isinstance(e, OSError):
                return None
            raise
        up_read, up_write, *down = fds
        if pid == 0:  # the child
            code = 1
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                os.close(up_read)
                if down:
                    os.close(down[1])
                outbound = open(up_write, "wb")
                try:
                    work(Link(open(down[0], "rb") if down else None, outbound))
                except Exception as e:
                    _write_frame(outbound, _pickled(name, e), _ERROR)
                code = 0
            finally:
                os._exit(code)
        os.close(up_write)
        if down:
            os.close(down[0])
        return cls(name, pid, open(up_read, "rb"), open(down[1], "wb") if down else None)

    def recv(self) -> object:
        """The child's next frame, decoded (see ``_next_size``)."""
        size = self._next_size()
        data = self._inbound.read(size)
        if len(data) < size:
            raise self._died()
        return marshal.loads(data)

    def recv_after(self, head: bytes) -> bytearray:
        """``head`` followed by the bytes of the child's next frame, in one
        buffer: the frame is read into the space after ``head``, so the two
        are never held apart and then copied together."""
        size = self._next_size()
        out = bytearray(len(head) + size)
        out[: len(head)] = head
        if self._inbound.readinto(memoryview(out)[len(head) :]) < size:
            raise self._died()
        return out

    def _next_size(self) -> int:
        """The size of the child's next frame. An error frame's exception is
        raised here; a child that exited before sending the frame is an
        InternalInvariantError naming its exit code."""
        size = _read_size(self._inbound)
        if size is None:
            raise self._died()
        if size & _ERROR:
            import pickle  # only an error frame needs it

            data = self._inbound.read(size ^ _ERROR)
            if len(data) < size ^ _ERROR:
                raise self._died()
            raise pickle.loads(data)
        return size

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


def _pickled(name: str, error: Exception) -> bytes:
    """``error`` pickled, if it comes back from a pickle round trip; else an
    InternalInvariantError that says so, pickled."""
    import pickle  # only an error frame needs it

    try:
        data = pickle.dumps(error)
        pickle.loads(data)
    except Exception as e:
        data = pickle.dumps(InternalInvariantError(f"{name} cannot send back {error!r}: {e}"))
    return data


def _write_frame(fh: BinaryIO, data: bytes, flags: int = 0) -> None:
    fh.write((len(data) | flags).to_bytes(8, "little"))
    fh.write(data)
    fh.flush()


def _read_size(fh: BinaryIO) -> int | None:
    """The next frame's header; None at EOF."""
    head = fh.read(8)
    return int.from_bytes(head, "little") if len(head) == 8 else None


def _read_frame(fh: BinaryIO) -> bytes | None:
    """A frame's bytes; None at EOF, or if the frame is cut short."""
    size = _read_size(fh)
    if size is None:
        return None
    data = fh.read(size)
    return data if len(data) == size else None
