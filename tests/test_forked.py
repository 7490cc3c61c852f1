"""The three forked helpers seen through ``forked``: an error a helper
raises is raised by its caller as a one-CPU run raises it, a helper that
cannot send its error back or that dies is an internal error naming it, and
a pipe that cannot be opened leaves the work to the caller. Then the frames
themselves, at both ends of a small echo helper."""

from __future__ import annotations

import json
import marshal
import os
import threading

import pytest

from askner import pipeline, retrieval, selftrain
from askner.annotator import build_dictionary
from askner.errors import DataError, InternalInvariantError
from askner.forked import Forked
from askner.normalizer import NormalizedPhrase, RuleSet
from askner.perceptron import AveragedPerceptronTagger
from askner.retrieval import CorpusSentence, load_corpus
from askner.selftrain import SelfTrainConfig, run_self_training
from testutil import cpus, labeled, needs_fork, recorded_forks


def _reader(monkeypatch, tmp_path, fault):
    """A corpus read whose sentence "h", in the reader's half, runs
    ``fault``."""
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(
        json.dumps({"sentence_id": sid, "text": "Oslo", "tokens": [["Oslo", 0, 4]]}) + "\n"
        for sid in "abcdefghi"
    ), encoding="utf-8")
    build = retrieval.sentence_from_record

    def built(obj, *args):
        if obj["sentence_id"] == "h":
            fault()
        return build(obj, *args)

    monkeypatch.setattr(retrieval, "sentence_from_record", built)
    return lambda: load_corpus(path)


def _writer(monkeypatch, tmp_path, fault):
    """A dataset write whose sentence "s3", in the writer's half, runs
    ``fault`` as it is tagged."""
    dictionary = build_dictionary([(NormalizedPhrase("Oslo", "city"), 1)])
    tokens = ("Oslo", "is", "cold")
    sentences = [CorpusSentence(f"s{i}", " ".join(tokens), tokens) for i in range(4)]
    emit_bio = pipeline.emit_bio

    def tagged(sentences, typed):
        if any(s.sentence_id == "s3" for s in sentences):
            fault()
        return emit_bio(sentences, typed)

    monkeypatch.setattr(pipeline, "emit_bio", tagged)
    return lambda: pipeline._write_dataset(dictionary, list(sentences), RuleSet.from_ids([]))


def _scorer(monkeypatch, tmp_path, fault):
    """A self-training run whose first validation score runs ``fault``."""
    generated = [labeled("g1", ["Oslo", "is", "cold"], ["B-city", "O", "O"])]
    validation = [labeled("v1", ["Oslo", "rains"], ["B-city", "O"])]
    config = SelfTrainConfig(t_begin=1, t_update=1, max_iterations=2)
    evaluate = selftrain._evaluate

    def scored(*args):
        fault()
        return evaluate(*args)

    monkeypatch.setattr(selftrain, "_evaluate", scored)
    return lambda: run_self_training(
        generated, [s.tokens for s in generated], validation, AveragedPerceptronTagger, config
    )


# Each helper's name, how to set up a call to the code that forks it, and
# how many pipes it opens.
HELPERS = {
    "corpus reader": (_reader, 2),
    "dataset writer": (_writer, 2),
    "validation scorer": (_scorer, 2),
}


def _outcome(call, n):
    """What ``call`` returns, or the type and message of what it raises, on
    ``n`` CPUs, and how many helpers it forked."""
    with cpus(n), recorded_forks() as pids:
        try:
            outcome = call()
        except Exception as e:
            outcome = type(e), str(e)
    return outcome, len(pids)


def _unpicklable():
    error = RuntimeError("cannot be sent")
    error.lock = threading.Lock()
    return error


class _TwoArgumentError(Exception):
    """Pickles, but unpickling calls ``__init__`` with one argument."""

    def __init__(self, what, why):
        super().__init__(f"{what}: {why}")


@needs_fork
@pytest.mark.parametrize("helper", HELPERS)
@pytest.mark.parametrize("error", [DataError("bad data"), ValueError("bad value")])
def test_an_error_in_a_helper_is_raised_as_one_cpu_raises_it(
    monkeypatch, tmp_path, helper, error
):
    def fault():
        raise error

    call = HELPERS[helper][0](monkeypatch, tmp_path, fault)
    one, _ = _outcome(call, 1)
    assert one == (type(error), str(error))
    assert _outcome(call, 2) == (one, 1)


@needs_fork
@pytest.mark.parametrize("helper", HELPERS)
@pytest.mark.parametrize("make_error", [_unpicklable, lambda: _TwoArgumentError("a", "b")])
def test_an_error_a_helper_cannot_send_back_is_an_internal_error(
    monkeypatch, tmp_path, helper, make_error
):
    def fault():
        raise make_error()

    call = HELPERS[helper][0](monkeypatch, tmp_path, fault)
    (kind, message), forks = _outcome(call, 2)
    assert (kind, forks) == (InternalInvariantError, 1)
    assert message.startswith(f"{helper} cannot send back {make_error()!r}: ")


@needs_fork
@pytest.mark.parametrize("helper", HELPERS)
def test_a_helper_that_exits_is_an_internal_error_naming_its_code(
    monkeypatch, tmp_path, helper
):
    here = os.getpid()

    def fault():
        if os.getpid() != here:
            os._exit(5)

    call = HELPERS[helper][0](monkeypatch, tmp_path, fault)
    assert _outcome(call, 2) == (
        (InternalInvariantError, f"{helper} process exited with code 5"), 1
    )


@needs_fork
@pytest.mark.parametrize("helper, failing", [
    (helper, failing) for helper, (_, pipes) in HELPERS.items() for failing in range(pipes)
])
def test_a_pipe_that_cannot_be_opened_leaves_the_work_here(
    monkeypatch, tmp_path, helper, failing
):
    call = HELPERS[helper][0](monkeypatch, tmp_path, lambda: None)
    one, _ = _outcome(call, 1)
    opened = []
    pipe = os.pipe

    def short_of_files():
        if len(opened) == failing:
            raise OSError(24, "Too many open files")
        opened.append(pipe())
        return opened[-1]

    fds = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    monkeypatch.setattr(os, "pipe", short_of_files)
    assert _outcome(call, 2) == (one, 0)
    assert len(opened) == failing
    if fds is not None:
        assert len(os.listdir("/proc/self/fd")) == fds


# -- frames, seen at both ends of one helper ------------------------------------


def _echo(link):
    """Send back each object received: bytes as a raw frame, anything else
    as an object; on EOF, send "EOF" and return."""
    while True:
        try:
            obj = link.recv()
        except EOFError:
            link.send("EOF")
            return
        if type(obj) is bytes:
            link.send_bytes(obj)
        else:
            link.send(obj)


def _echo_helper() -> Forked:
    with cpus(2):
        helper = Forked.start("echo", _echo)
    assert helper is not None
    return helper


@needs_fork
def test_frames_carry_objects_and_bytes_both_ways():
    with recorded_forks() as pids:
        helper = _echo_helper()
        try:
            for obj in [None, 7, "Oslo", ["a", ("b", 2.5)], {"k": b"\x00\xff"}]:
                helper.send(obj)
                assert helper.recv() == obj
            helper.send_bytes(marshal.dumps(("raw", 1)))
            assert helper.recv() == ("raw", 1)
            helper.send(b"tail")
            assert helper.recv_after(b"head ") == bytearray(b"head tail")
            helper.send(b"")
            assert helper.recv_after(b"") == bytearray()
        finally:
            helper.close()
    assert len(pids) == 1


@needs_fork
@pytest.mark.parametrize("receive", ["recv", "recv_after"])
def test_a_child_that_exits_after_a_frame_header_is_an_internal_error(receive):
    def header_only(link):
        link._outbound.write((10).to_bytes(8, "little") + b"cut")
        link._outbound.flush()
        os._exit(7)

    with recorded_forks() as pids, cpus(2):
        helper = Forked.start("half-frame", header_only)
        try:
            with pytest.raises(
                InternalInvariantError, match="^half-frame process exited with code 7$"
            ):
                if receive == "recv":
                    helper.recv()
                else:
                    helper.recv_after(b"head")
        finally:
            helper.close()
    assert len(pids) == 1


@needs_fork
def test_a_child_reads_eof_once_the_parent_closes_its_end():
    with recorded_forks() as pids:
        helper = _echo_helper()
        try:
            helper.send("before")
            assert helper.recv() == "before"
            helper._outbound.close()
            assert helper.recv() == "EOF"
            # the child returned from its work: it exited 0, and is reaped here
            with pytest.raises(InternalInvariantError, match="^echo process exited with code 0$"):
                helper.recv()
        finally:
            helper.close()
    assert len(pids) == 1
