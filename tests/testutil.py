"""Shared builders for tests: quick sentences, phrases, the hand-built
evaluation fixture used by the metric tests, and the means to test code
that forks a helper process."""

from __future__ import annotations

import os
import re
from contextlib import contextmanager
from typing import Iterator
from unittest import mock

import pytest

from askner.annotator import LabeledSentence
from askner.retrieval import CorpusSentence, RetrievedPhrase

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="the code under test forks a helper process"
)


@contextmanager
def recorded_forks() -> Iterator[list[int]]:
    """The pids ``os.fork`` gives this process while the block runs. Each
    must have been reaped when the block ends, whatever was raised."""
    pids: list[int] = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    try:
        with mock.patch.object(os, "fork", recording_fork):
            yield pids
    finally:
        for pid in pids:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)


@pytest.fixture
def forked() -> Iterator[list[int]]:
    """``recorded_forks`` over the whole test."""
    with recorded_forks() as pids:
        yield pids


def sent(sid: str, text: str) -> CorpusSentence:
    """Whitespace-tokenized sentence: its tokens are the text's words."""
    return CorpusSentence(sid, text, tuple(re.findall(r"\S+", text)))


def phrase(
    qid="t:q",
    rank=1,
    surface="X",
    score=None,
    sid="s1",
    start=0,
    end=None,
) -> RetrievedPhrase:
    if score is None:
        score = float(100 - rank)
    if end is None:
        end = start + len(surface)
    return RetrievedPhrase(
        question_id=qid,
        rank=rank,
        surface=surface,
        score=score,
        sentence_id=sid,
        char_start=start,
        char_end=end,
    )


def labeled(sid: str, tokens, tags) -> LabeledSentence:
    return LabeledSentence(sid, tuple(tokens), tuple(tags))


# A small corpus where every kind of mistake appears by design: correct
# spans, a boundary error, a type confusion, a spurious prediction, and a
# miss. Overall: gold 12, predicted 12, correct 9 ->
# precision = recall = f1 = 0.75. Per type: PER gold 5 / pred 4 / correct 3,
# LOC gold 5 / pred 5 / correct 4, ORG gold 2 / pred 3 / correct 2.
def conlleval_fixture() -> tuple[list[LabeledSentence], list[LabeledSentence]]:
    rows = [
        # sid, tokens, gold tags, predicted tags
        ("s01", "John Smith visited Paris".split(),
         ["B-PER", "I-PER", "O", "B-LOC"],
         ["B-PER", "I-PER", "O", "B-LOC"]),
        ("s02", "Mary lives in New York City".split(),
         ["B-PER", "O", "O", "B-LOC", "I-LOC", "I-LOC"],
         ["B-PER", "O", "O", "B-LOC", "I-LOC", "O"]),
        ("s03", "IBM hired Anna".split(),
         ["B-ORG", "O", "B-PER"],
         ["B-ORG", "O", "B-ORG"]),
        ("s04", "It rained all day".split(),
         ["O", "O", "O", "O"],
         ["O", "O", "O", "O"]),
        ("s05", "Berlin and London agreed".split(),
         ["B-LOC", "O", "B-LOC", "O"],
         ["B-LOC", "O", "B-LOC", "O"]),
        ("s06", "Acme Corp expanded".split(),
         ["B-ORG", "I-ORG", "O"],
         ["B-ORG", "I-ORG", "O"]),
        ("s07", "We met Ada yesterday".split(),
         ["O", "O", "B-PER", "O"],
         ["O", "O", "B-PER", "O"]),
        ("s08", "Storms hit the coast".split(),
         ["O", "O", "O", "O"],
         ["B-PER", "O", "O", "O"]),
        ("s09", "Turing proved it".split(),
         ["B-PER", "O", "O"],
         ["O", "O", "O"]),
        ("s10", "Oslo froze over".split(),
         ["B-LOC", "O", "O"],
         ["B-LOC", "O", "O"]),
    ]
    gold = [labeled(sid, toks, g) for sid, toks, g, _ in rows]
    pred = [labeled(sid, toks, p) for sid, toks, _, p in rows]
    return gold, pred
