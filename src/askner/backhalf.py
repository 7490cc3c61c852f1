"""The back half of a corpus read, walked by a forked reader process.

``retrieval.load_corpus`` cuts the file at the first line end after its
byte midpoint and starts a ``BackHalf``. ``fork`` hands the reader the
path, ``keep`` and ``visit`` without copying them. The reader counts the
lines before the cut, walks its half with ``walk_corpus``, and sends back
marshal frames over a pipe: that count; then ``(id, text, surfaces,
held)`` for each record in line order, ``_FRAME_RECORDS`` to a frame (text
and surfaces are None for a record neither held nor visited); then the
number of records. It stops at its first DataError, its own repeated ids
included, which ``forked`` sends back in place of that number. It buffers
every frame until its walk is done: writing as it went, it would block on
the full pipe until the command had read its own half. The command merges
the frames in line order (``BackHalf.merge``). It keeps the token tuples
as ``marshal`` gives them: the reader's surfaces are interned
(``retrieval.sentence_from_record``), and ``marshal`` loads a string
dumped interned as this process's own interned string, so the two halves
share one string per distinct surface with nothing rebuilt.

The reader is a ``forked.Forked`` child: it ignores SIGINT,
``BackHalf.close`` stops it, and a reader that dies exits before its last
frame, so the wait for that frame ends in an InternalInvariantError, never
a hang.

``load_corpus`` imports this module when it reads a corpus, since this one
imports ``retrieval``.
"""

from __future__ import annotations

import marshal
import os
from itertools import islice
from pathlib import Path
from typing import Callable, Container, Mapping

from .errors import DataError
from .forked import Forked, Link
from .retrieval import (
    Corpus,
    CorpusSentence,
    jsonl_records,
    line_breaks,
    text_lines,
    walk_corpus,
)

# Records per frame. The command builds and drops one frame at a time. On
# a 10,000-sentence corpus held whole, frames of 500 left its resident size
# after the read about 0.2 MiB above a single read's, frames of 100 about
# 0.1 MiB.
_FRAME_RECORDS = 100


class BackHalf:
    """The forked reader of a corpus file's back half, seen from the
    command: the child and the byte offset ``cut`` it starts at."""

    def __init__(self, path: str | Path, source: str, cut: int, reader: Forked):
        self._path, self._source, self.cut = path, source, cut
        self._reader = reader

    @classmethod
    def start(
        cls,
        path: str | Path,
        source: str,
        keep: Container[str] | None,
        visit: Mapping[str, Callable] | None,
    ) -> "BackHalf | None":
        """Fork the reader of the bytes after the cut. Return None, and
        the command reads the whole file, if there are none or
        ``Forked.start`` does not fork."""
        with open(path, "rb") as fh:
            size = fh.seek(0, os.SEEK_END)
            fh.seek(size // 2)
            fh.readline()
            cut = fh.tell()
        if cut >= size:
            return None
        reader = Forked.start(
            "corpus reader", lambda link: read_back(path, source, cut, keep, visit, link)
        )
        return cls(path, source, cut, reader) if reader else None

    def merge(
        self,
        out: Corpus,
        unkept: set[str],
        visit: Mapping[str, Callable[[CorpusSentence], None]] | None,
    ) -> int:
        """Add the back half to the front half's ``out``, in line order:
        check each id against the front's held (``out``) and unheld
        (``unkept``) ids, and run ``visit``'s callbacks here. Raise the back
        half's first error (the reader's own comes from ``recv``); otherwise
        return how many records it holds. Each frame is dropped before the
        next is read."""
        first = self._reader.recv()
        index = 0
        while type(frame := self._reader.recv()) is list:
            for sid, text, tokens, held in frame:
                if sid in out or sid in unkept:
                    raise DataError(f"{self._where(first, index)}: duplicate sentence_id {sid!r}")
                index += 1
                if text is None:
                    continue
                sent = CorpusSentence(sid, text, tokens)
                callback = visit.get(sid) if visit else None
                if callback is not None:
                    callback(sent)
                if held:
                    out[sid] = sent
        return frame

    def _where(self, first: int, index: int) -> str:
        """The location of the back half's record ``index`` (0-based), found
        by reading the half again: only a repeated id needs it."""
        with open(self._path, "rb") as fh:
            fh.seek(self.cut)
            records = jsonl_records(text_lines(fh, self._source, first), self._source, first)
            return next(islice(records, index, None))[1]

    def close(self) -> None:
        """Stop the reader if it still runs, reap it and close the pipe."""
        self._reader.close()


def read_back(
    path: str | Path,
    source: str,
    cut: int,
    keep: Container[str] | None,
    visit: Mapping[str, Callable] | None,
    link: Link,
) -> None:
    """The forked reader's work (see the module docstring): walk the bytes
    after ``cut`` and send the frames over ``link``."""
    frames = []
    records: list[tuple] = []
    seen: set[str] = set()
    try:
        with open(path, "rb") as fh:
            first = 1
            while fh.tell() < cut:
                chunk = fh.read(min(cut - fh.tell(), 1 << 20))
                if chunk.endswith(b"\r"):  # keep a "\r\n" in one chunk
                    chunk += fh.read(1)
                first += line_breaks(chunk)
            frames.append(marshal.dumps(first))
            for where, sid, sent, held, _ in walk_corpus(
                text_lines(fh, source, first), source, first, keep, visit
            ):
                if sid in seen:
                    raise DataError(f"{where}: duplicate sentence_id {sid!r}")
                seen.add(sid)
                if sent is None:
                    records.append((sid, None, None, False))
                else:
                    records.append((sid, sent.text, sent.tokens, held))
                if len(records) == _FRAME_RECORDS:
                    frames.append(marshal.dumps(records))
                    records = []
    finally:  # the records before an error come before it
        if records:
            frames.append(marshal.dumps(records))
        for frame in frames:
            link.send_bytes(frame)
    link.send(len(seen))
