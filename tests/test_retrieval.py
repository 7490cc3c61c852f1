import json
import math
import re
from types import SimpleNamespace

import pytest

from askner.errors import DataError
from askner.retrieval import (
    collect_training_sentences,
    fetch_remote,
    ingest_results,
    load_corpus,
    read_results,
    sentence_from_record,
    serialize_results,
)
from testutil import phrase, sent


# -- corpus loading ---------------------------------------------------------


def _write_corpus(tmp_path, records):
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
    return path


def _record(sid="s1", text="Leprosy is chronic", candidates=None):
    tokens = []
    pos = 0
    for word in text.split():
        start = text.index(word, pos)
        tokens.append([word, start, start + len(word)])
        pos = start + len(word)
    rec = {"sentence_id": sid, "text": text, "tokens": tokens}
    if candidates is not None:
        rec["candidates"] = candidates
    return rec


def test_load_corpus_roundtrip(tmp_path):
    path = _write_corpus(tmp_path, [_record("s1"), _record("s2", "Oslo froze", [[0, 4]])])
    corpus = load_corpus(path)
    assert list(corpus) == ["s1", "s2"]
    # an extra key such as "candidates" is ignored
    assert corpus["s2"] == sentence_from_record(_record("s2", "Oslo froze"))
    assert corpus["s1"].surfaces() == ("Leprosy", "is", "chronic")


def test_load_corpus_duplicate_id(tmp_path):
    path = _write_corpus(tmp_path, [_record("s1"), _record("s1")])
    with pytest.raises(DataError, match="duplicate sentence_id"):
        load_corpus(path)


def test_load_corpus_bad_json_names_line(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps(_record()) + "\n{broken\n", encoding="utf-8")
    with pytest.raises(DataError, match=":2"):
        load_corpus(path)


def test_load_corpus_holds_only_kept_sentences_in_corpus_order(tmp_path):
    path = _write_corpus(tmp_path, [_record(f"s{i}") for i in range(5)])
    visited = []
    corpus = load_corpus(path, {"s3", "s1", "absent"}, visited.append)
    assert list(corpus) == ["s1", "s3"]
    assert corpus.total == 5
    assert [s.sentence_id for s in visited] == ["s0", "s1", "s2", "s3", "s4"]


def test_load_corpus_without_keep_holds_every_sentence(tmp_path):
    path = _write_corpus(tmp_path, [_record("s2"), _record("s1", "Oslo froze", [[0, 4]])])
    corpus = load_corpus(path, None)
    assert corpus == load_corpus(path) == {
        "s2": sentence_from_record(_record("s2")),
        "s1": sentence_from_record(_record("s1", "Oslo froze", [[0, 4]])),
    }
    assert list(corpus) == ["s2", "s1"]
    assert corpus.total == 2


@pytest.mark.parametrize(
    "line, message",
    [
        (json.dumps(_record("s1")), "duplicate sentence_id 's1'"),
        ("{broken", "invalid JSON"),
        (json.dumps(dict(_record("s3"), tokens=[["Leprosy", 0]])), "malformed tokens"),
        (json.dumps(dict(_record("s3"), tokens=[["Lepra", 0, 7]])), "!= text slice"),
        (json.dumps({"sentence_id": "s3", "text": "Oslo", "tokens": []}), "no tokens"),
        # token fields are not coerced: a string or float offset, a number as
        # surface, a boolean offset and a fourth field are all malformed
        (
            json.dumps({"sentence_id": "s3", "text": "ab 5", "tokens": [["ab", "0", 2.0], [5, 3, 4]]}),
            "token 0 must be [string, int, int], got ['ab', '0', 2.0]",
        ),
        (
            json.dumps({"sentence_id": "s3", "text": "ab 5", "tokens": [["ab", 0, 2], [5, 3, 4]]}),
            "token 1 must be [string, int, int], got [5, 3, 4]",
        ),
        (
            json.dumps({"sentence_id": "s3", "text": "a5", "tokens": [["5", True, 2]]}),
            "token 0 must be [string, int, int], got ['5', True, 2]",
        ),
        (
            json.dumps({"sentence_id": "s3", "text": "ab", "tokens": [["ab", 0, 2, "extra"]]}),
            "token 0 must be [string, int, int], got ['ab', 0, 2, 'extra']",
        ),
    ],
)
def test_load_corpus_checks_lines_it_does_not_keep(tmp_path, line, message):
    path = tmp_path / "corpus.jsonl"
    lines = [json.dumps(_record("s1")), json.dumps(_record("s2")), line]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(f"{path}:3: ") + ".*" + re.escape(message)):
        load_corpus(path, {"s2"})


def test_load_corpus_held_sentences_share_equal_surfaces(tmp_path):
    path = _write_corpus(
        tmp_path, [_record("s1", "Leprosy is chronic"), _record("s2", "Leprosy spreads")]
    )
    corpus = load_corpus(path)
    first, second = corpus["s1"].tokens[0][0], corpus["s2"].tokens[0][0]
    assert first == second == "Leprosy"
    assert first is second


def test_sentence_validation_catches_span_lies():
    with pytest.raises(DataError, match="surface"):
        sentence_from_record(
            {"sentence_id": "s", "text": "abc def", "tokens": [["abc", 0, 3], ["xxx", 4, 7]]}
        )
    with pytest.raises(DataError, match="out of bounds"):
        sentence_from_record({"sentence_id": "s", "text": "abc", "tokens": [["abcd", 0, 4]]})
    with pytest.raises(DataError, match="overlaps"):
        sentence_from_record(
            {"sentence_id": "s", "text": "aaaa", "tokens": [["aaa", 0, 3], ["aa", 2, 4]]}
        )
    # a "candidates" key is ignored, whatever its spans
    abc = {"sentence_id": "s", "text": "abc", "tokens": [["abc", 0, 3]]}
    assert sentence_from_record(dict(abc, candidates=[[2, 9]])) == sentence_from_record(abc)
    with pytest.raises(DataError, match="tab"):
        sentence_from_record({"sentence_id": "s", "text": "a\tb", "tokens": [["a\tb", 0, 3]]})


# -- results ingestion ------------------------------------------------------


def _lines(*phrases):
    return [json.dumps(p.to_record()) for p in phrases]


def test_ingest_groups_and_sorts():
    a2 = phrase(qid="a", rank=2, score=8.0)
    a1 = phrase(qid="a", rank=1, score=9.0)
    b1 = phrase(qid="b", rank=1, score=3.0)
    groups = ingest_results(_lines(a2, b1, a1))
    assert [p.rank for p in groups["a"]] == [1, 2]
    assert groups["b"] == [b1]


def test_ingest_validates_against_corpus():
    corpus = {"s1": sent("s1", "Leprosy is chronic")}
    ok = phrase(qid="a", rank=1, surface="Leprosy", sid="s1", start=0)
    assert ingest_results(_lines(ok), corpus)["a"] == [ok]

    bad_slice = phrase(qid="a", rank=1, surface="Leprosy", sid="s1", start=1, end=8)
    with pytest.raises(DataError, match="slice"):
        ingest_results(_lines(bad_slice), corpus)

    unknown = phrase(qid="a", rank=1, sid="nope")
    with pytest.raises(DataError, match="unknown sentence_id"):
        ingest_results(_lines(unknown), corpus)

    out_of_bounds = phrase(qid="a", rank=1, surface="x", sid="s1", start=100, end=101)
    with pytest.raises(DataError, match="bounds"):
        ingest_results(_lines(out_of_bounds), corpus)


def test_ingest_rejects_duplicate_rank_with_line_number():
    # the duplicate on line 2 is reported before the bad JSON on line 3
    lines = _lines(phrase(rank=3), phrase(rank=3)) + ["not json"]
    with pytest.raises(DataError, match=r":2.*duplicate rank 3.*\(first at <results>:1\)"):
        ingest_results(lines)


def test_ingest_rejects_increasing_score():
    lines = _lines(phrase(rank=1, score=1.0), phrase(rank=2, score=2.0))
    with pytest.raises(DataError, match="exceeds"):
        ingest_results(lines)


def test_ingest_rejects_missing_fields_and_bad_rank():
    with pytest.raises(DataError, match="missing fields"):
        ingest_results(['{"question_id": "a"}'])
    with pytest.raises(DataError, match="rank"):
        ingest_results(_lines(phrase(rank=0)))
    with pytest.raises(DataError, match="JSON"):
        ingest_results(["{oops"])


def _reject_second_record(tmp_path, monkeypatch, source, field, value, message):
    """Replay or fetch two records, the second with ``field`` set to
    ``value``; the DataError must name that record and give ``message``."""
    records = [phrase(rank=1).to_record(), dict(phrase(rank=2).to_record(), **{field: value})]
    if source == "replay":
        path = tmp_path / "results.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{path}:2: {message}")):
            read_results(path)
    else:
        reply = SimpleNamespace(status_code=200, json=lambda: records)
        monkeypatch.setattr("requests.get", lambda *args, **kwargs: reply)
        with pytest.raises(DataError, match=re.escape(f"record 1: {message}")):
            fetch_remote("Which city?", "http://localhost:9", 2, question_id="t:q", attempts=1)


@pytest.mark.parametrize(
    "field, value",
    [("rank", 1.9), ("rank", True), ("rank", "1"),
     ("char_start", True), ("char_start", 0.0), ("char_end", "5")],
)
@pytest.mark.parametrize("source", ["replay", "remote"])
def test_result_rank_and_offsets_must_be_integers(tmp_path, monkeypatch, source, field, value):
    message = f"{field} must be an integer, got {value!r}"
    _reject_second_record(tmp_path, monkeypatch, source, field, value, message)


# a remote reply's question_id is replaced by the local one, so only a
# replayed one can be wrong
@pytest.mark.parametrize(
    "source, field, value, kind",
    [(source, field, value, kind)
     for source in ("replay", "remote")
     for field, value, kind in [
         ("score", "98", "a finite number"), ("score", True, "a finite number"),
         ("score", math.nan, "a finite number"), ("score", math.inf, "a finite number"),
         ("score", -math.inf, "a finite number"), ("score", 10**400, "a finite number"),
         ("phrase", 7, "a string"), ("sentence_id", 5, "a string"),
         ("sentence_id", None, "a string"),
     ]] + [("replay", "question_id", 5, "a string")],
    ids=lambda v: "int-1e400" if v == 10**400 else None,
)
def test_result_fields_must_have_their_json_types(tmp_path, monkeypatch, source, field, value, kind):
    message = f"{field} must be {kind}, got {value!r}"
    _reject_second_record(tmp_path, monkeypatch, source, field, value, message)


def test_serialize_ingest_roundtrip():
    groups = {
        "b": [phrase(qid="b", rank=1, score=5.0)],
        "a": [phrase(qid="a", rank=1, score=9.0, surface="Oslo"),
              phrase(qid="a", rank=2, score=7.0, surface="Bergen")],
    }
    text = serialize_results(groups)
    again = ingest_results(text.splitlines())
    assert again == {"a": groups["a"], "b": groups["b"]}
    assert serialize_results(again) == text
    assert serialize_results({}) == ""


# -- sentence budget --------------------------------------------------------


def _ranked(seq):
    return [phrase(qid="q", rank=i + 1, score=float(10 - i), sid=sid)
            for i, sid in enumerate(seq)]


def test_budget_walk_keeps_phrases_of_kept_sentences():
    # ranks:      1    2    3    4    5
    # sentences:  A    B    A    C    B
    out = collect_training_sentences(_ranked(["A", "B", "A", "C", "B"]), k_l=2)
    assert out.kept_sentences == ("A", "B")
    assert [p.rank for p in out.kept_phrases] == [1, 2, 3, 5]
    assert out.exhausted is False
    assert out.question_id == "q"


def test_budget_walk_exhaustion():
    out = collect_training_sentences(_ranked(["A", "B", "A", "C", "B"]), k_l=5)
    assert out.kept_sentences == ("A", "B", "C")
    assert len(out.kept_phrases) == 5
    assert out.exhausted is True


def test_budget_walk_empty_results():
    out = collect_training_sentences([], k_l=3, question_id="q")
    assert out.kept_sentences == ()
    assert out.kept_phrases == ()
    assert out.exhausted is True
    assert out.question_id == "q"


def test_budget_walk_zero_budget():
    out = collect_training_sentences(_ranked(["A"]), k_l=0)
    assert out.kept_sentences == ()
    assert out.exhausted is False


def test_budget_walk_requires_sorted_single_question():
    unsorted = list(reversed(_ranked(["A", "B"])))
    with pytest.raises(ValueError, match="rank"):
        collect_training_sentences(unsorted, k_l=2)
    mixed = [phrase(qid="q1", rank=1), phrase(qid="q2", rank=2)]
    with pytest.raises(ValueError, match="mix"):
        collect_training_sentences(mixed, k_l=2)
