"""generate's dataset writer (``pipeline._write_dataset``): the back half of
the kept sentences matched, typed and formatted in a forked process gives
the bytes and entity count of one pass over all of them."""

from __future__ import annotations

import os

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from askner import pipeline
from askner.annotator import assign_types, build_dictionary, emit_bio, match_sentences
from askner.conll import format_conll
from askner.errors import DataError, InternalInvariantError
from askner.normalizer import NormalizedPhrase, RuleSet
from askner.retrieval import CorpusSentence
from testutil import cpus, needs_fork, recorded_forks


def _ref_write(dictionary, sentences, rules):
    """The dataset and entity count of one pass over every sentence."""
    spans = match_sentences(dictionary, sentences, rules) if dictionary.entries else []
    typed = assign_types(dictionary, spans)
    return format_conll(emit_bio(sentences, typed)).encode("utf-8"), len(typed)


def _write(dictionary, sentences, rules, n):
    """``_write_dataset`` as it runs on ``n`` CPUs."""
    with cpus(n), recorded_forks() as pids:
        dataset, entities = pipeline._write_dataset(dictionary, list(sentences), rules)
    assert len(pids) == (n > 1 and len(sentences) > 1)
    return bytes(dataset), entities


# Capitalized words match; lowercase ones match only when rule 9 is off or
# they are part of a longer match. "WHO" is an abbreviation pattern.
_WORDS = ["Oslo", "Lima", "New", "York", "fever", "Dengue", "WHO", "the", "is", "cold"]
_SURFACES = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3).map(" ".join)
_TYPES = st.sampled_from(["city", "disease", "org"])


@st.composite
def _inputs(draw):
    phrases = draw(st.lists(
        st.tuples(_SURFACES, _TYPES, st.none() | st.just("WHO"), st.integers(1, 5)),
        max_size=8,
    ))
    # every key under two types at least once, so that apportionment runs
    if phrases and draw(st.booleans()):
        surface, _, _, _ = phrases[0]
        phrases += [(surface, "city", None, 2), (surface, "disease", None, 3)]
    quality = draw(st.lists(_SURFACES, max_size=3))
    dictionary = build_dictionary(
        ((NormalizedPhrase(s, t, abbreviation=a), n) for s, t, a, n in phrases), quality
    )
    # unique ids in no particular order, so that id order and corpus order
    # differ across the cut
    ids = draw(st.lists(st.integers(0, 99), unique=True, max_size=12))
    sentences = []
    for i in ids:
        tokens = tuple(draw(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=8)))
        sentences.append(CorpusSentence(f"s{i:02d}", " ".join(tokens), tokens))
    rules = RuleSet.from_ids(draw(st.sets(st.sampled_from([9, 10]))))
    return dictionary, sentences, rules


@needs_fork
@seed(27)
@settings(max_examples=120, deadline=None)
@given(_inputs())
def test_a_split_write_gives_the_bytes_and_count_of_one_pass(inputs):
    dictionary, sentences, rules = inputs
    expected = _ref_write(dictionary, sentences, rules)
    assert _write(dictionary, sentences, rules, 1) == expected
    assert _write(dictionary, sentences, rules, 2) == expected


def _straddling():
    """Six sentences, each with one "Oslo", a key claimed by two types, and
    ids in reverse order: the front half holds the three largest ids."""
    dictionary = build_dictionary(
        [(NormalizedPhrase("Oslo", "city"), 2), (NormalizedPhrase("Oslo", "disease"), 1),
         (NormalizedPhrase("Lima", "city"), 1)]
    )
    sentences = [
        CorpusSentence(f"s{i}", f"Oslo and Lima {i}", ("Oslo", "and", "Lima", str(i)))
        for i in range(6, 0, -1)
    ]
    return dictionary, sentences, RuleSet.from_ids([9])


@needs_fork
def test_a_key_split_between_types_is_apportioned_over_both_halves():
    dictionary, sentences, rules = _straddling()
    dataset, entities = _write(dictionary, sentences, rules, 2)
    assert (dataset, entities) == _ref_write(dictionary, sentences, rules)
    # four "Oslo" of six are cities, dealt in id order: s1-s4, of which s4
    # is in the front half and s1-s3 are in the back
    blocks = dataset.decode("utf-8").split("\n\n")
    oslo = [block.split("\n")[0] for block in blocks]
    assert oslo == ["Oslo\tB-disease"] * 2 + ["Oslo\tB-city"] * 4
    assert entities == 12


@needs_fork
def test_one_sentence_is_written_here():
    dictionary, sentences, rules = _straddling()
    assert _write(dictionary, sentences[:1], rules, 2) == _ref_write(
        dictionary, sentences[:1], rules
    )


def _only_in_the_writer(parent, error):
    """A replacement for a stage that raises ``error`` in a forked writer
    and runs the stage itself here."""
    original = getattr(pipeline, parent)

    def stage(*args, **kwargs):
        if os.getpid() != here:
            raise error
        return original(*args, **kwargs)

    here = os.getpid()
    return stage


@needs_fork
@pytest.mark.parametrize("stage", ["match_sentences", "emit_bio", "format_conll"])
@pytest.mark.parametrize("error", [
    DataError("a data error in the writer"),
    InternalInvariantError("an internal error in the writer"),
])
def test_an_error_in_the_writer_is_raised_here(monkeypatch, stage, error):
    dictionary, sentences, rules = _straddling()
    monkeypatch.setattr(pipeline, stage, _only_in_the_writer(stage, error))
    with pytest.raises(type(error), match=f"^{error}$"):
        _write(dictionary, sentences, rules, 2)


@needs_fork
def test_any_other_error_in_the_writer_is_raised_as_itself(monkeypatch):
    dictionary, sentences, rules = _straddling()
    monkeypatch.setattr(
        pipeline, "emit_bio", _only_in_the_writer("emit_bio", RuntimeError("boom"))
    )
    with pytest.raises(RuntimeError, match="^boom$"):
        _write(dictionary, sentences, rules, 2)


@needs_fork
@pytest.mark.parametrize("stage", ["match_sentences", "assign_types", "format_conll"])
def test_an_interrupt_here_stops_the_writer(monkeypatch, stage):
    dictionary, sentences, rules = _straddling()
    original = getattr(pipeline, stage)
    here = os.getpid()

    def interrupted(*args, **kwargs):
        if os.getpid() == here:
            raise KeyboardInterrupt
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline, stage, interrupted)
    with pytest.raises(KeyboardInterrupt):
        _write(dictionary, sentences, rules, 2)


@needs_fork
@pytest.mark.parametrize("code", [0, 7])
def test_a_writer_that_dies_is_an_internal_error(monkeypatch, code):
    dictionary, sentences, rules = _straddling()
    monkeypatch.setattr(pipeline, "_write_back", lambda *args: os._exit(code))
    with pytest.raises(
        InternalInvariantError, match=f"dataset writer process exited with code {code}"
    ):
        _write(dictionary, sentences, rules, 2)


@needs_fork
def test_a_failed_fork_writes_here(monkeypatch):
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    dictionary, sentences, rules = _straddling()
    fds = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    monkeypatch.setattr(os, "fork", no_fork)
    with cpus(2):
        dataset, entities = pipeline._write_dataset(dictionary, list(sentences), rules)
    assert (dataset, entities) == _ref_write(dictionary, sentences, rules)
    if fds is not None:
        assert len(os.listdir("/proc/self/fd")) == fds
