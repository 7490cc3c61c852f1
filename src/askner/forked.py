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
names, most often a ``marshal`` dump. Each helper has two pipes, one each
way, and ``Link`` reads and writes the frames at both ends: the child's
end is a ``Link``, the parent's a ``Forked``, which adds the child's pid.
An exception that the child's work raises ends its frames: it is pickled
into an error frame, whose header has its top bit set, and ``recv`` and
``recv_after`` raise it in the parent, after every frame before it. An
exception that cannot be pickled and unpickled is sent as an
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
    """One end of a helper's pair of pipes, which reads and writes every
    frame: ``send`` an object, ``send_bytes`` bytes as they are, ``recv``
    an object, ``recv_after`` bytes after a head. ``recv`` and
    ``recv_after`` raise the exception an error frame holds; a pipe closed
    at the other end raises ``_closed()``, an EOFError here."""

    def __init__(self, inbound: BinaryIO, outbound: BinaryIO):
        self._inbound, self._outbound = inbound, outbound

    def send(self, obj: object) -> None:
        self.send_bytes(marshal.dumps(obj))

    def send_bytes(self, data: bytes) -> None:
        self._write_frame(data, 0)

    def _write_frame(self, data: bytes, flags: int) -> None:
        try:
            self._outbound.write((len(data) | flags).to_bytes(8, "little"))
            self._outbound.write(data)
            self._outbound.flush()
        except BrokenPipeError:
            raise self._closed() from None

    def recv(self) -> object:
        return marshal.loads(self._read(self._next_size()))

    def recv_after(self, head: bytes) -> bytearray:
        """``head`` followed by the bytes of the next frame, in one buffer:
        the frame is read into the space after ``head``, so the two are
        never held apart and then copied together."""
        size = self._next_size()
        out = bytearray(len(head) + size)
        out[: len(head)] = head
        if self._inbound.readinto(memoryview(out)[len(head) :]) < size:
            raise self._closed()
        return out

    def _next_size(self) -> int:
        """The size of the next frame; an error frame's exception is raised
        here."""
        size = int.from_bytes(self._read(8), "little")
        if size & _ERROR:
            import pickle  # only an error frame needs it

            raise pickle.loads(self._read(size ^ _ERROR))
        return size

    def _read(self, size: int) -> bytes:
        data = self._inbound.read(size)
        if len(data) < size:
            raise self._closed()
        return data

    def _closed(self) -> Exception:
        return EOFError("the other end closed its pipe")


class Forked(Link):
    """A forked child process running ``work(link)``, seen from the parent:
    the parent's end of the pipes and the child's pid. ``name`` names it in
    errors: a pipe the child closed, by exiting, is an InternalInvariantError
    naming its exit code."""

    def __init__(self, name: str, pid: int, inbound: BinaryIO, outbound: BinaryIO):
        super().__init__(inbound, outbound)
        self._name, self._pid = name, pid

    @classmethod
    def start(cls, name: str, work: Callable[[Link], None]) -> "Forked | None":
        """Fork a child that runs ``work`` with its ``Link`` to this process.
        Return None, and the caller does the work itself, when the module
        docstring's terms do not hold or a pipe or the fork fails with an
        OSError (no process or file to spare)."""
        if available_cpus() < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
            return None
        fds: list[int] = []
        try:
            fds += os.pipe()  # child -> parent
            fds += os.pipe()  # parent -> child
            pid = os.fork()
        except BaseException as e:
            for fd in fds:
                os.close(fd)
            if isinstance(e, OSError):
                return None
            raise
        up_read, up_write, down_read, down_write = fds
        if pid == 0:  # the child
            code = 1
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                os.close(up_read)
                os.close(down_write)
                link = Link(open(down_read, "rb"), open(up_write, "wb"))
                try:
                    work(link)
                except Exception as e:
                    link._write_frame(_pickled(name, e), _ERROR)
                code = 0
            finally:
                os._exit(code)
        os.close(up_write)
        os.close(down_read)
        return cls(name, pid, open(up_read, "rb"), open(down_write, "wb"))

    def _closed(self) -> InternalInvariantError:
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
