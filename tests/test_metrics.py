from dataclasses import asdict

import pytest

from askner.errors import DataError
from askner.metrics import (
    EntitySet,
    RetrievalJudgments,
    diversity,
    entity_f1,
    extract_entities,
    precision_at_k,
)
from testutil import conlleval_fixture, labeled, phrase


# -- BIO decoding -----------------------------------------------------------


def test_extract_entities_basic():
    assert extract_entities(["B-PER", "I-PER", "O", "B-LOC"]) == [(0, 2, "PER"), (3, 4, "LOC")]
    assert extract_entities(["O", "O"]) == []
    assert extract_entities([]) == []


def test_extract_entities_tolerates_orphan_i():
    assert extract_entities(["O", "I-PER", "I-PER"]) == [(1, 3, "PER")]
    assert extract_entities(["I-PER"]) == [(0, 1, "PER")]
    # type change inside a run starts a new entity
    assert extract_entities(["B-PER", "I-LOC"]) == [(0, 1, "PER"), (1, 2, "LOC")]
    # B always starts fresh
    assert extract_entities(["B-PER", "B-PER"]) == [(0, 1, "PER"), (1, 2, "PER")]


def test_extract_entities_runs_to_the_end():
    assert extract_entities(["O", "B-ORG", "I-ORG"]) == [(1, 3, "ORG")]


def test_extract_entities_rejects_garbage():
    with pytest.raises(DataError):
        extract_entities(["B-PER", "X-PER"])
    with pytest.raises(DataError):
        extract_entities(["B-"])
    with pytest.raises(DataError):
        extract_entities(["per"])


def test_entity_set_collects_across_sentences():
    sents = [
        labeled("s1", ["Oslo"], ["B-LOC"]),
        labeled("s2", ["Anna", "left"], ["B-PER", "O"]),
    ]
    es = EntitySet.from_sentences(sents)
    assert es.entities == {("s1", 0, 1, "LOC"), ("s2", 0, 1, "PER")}


# -- F1 ---------------------------------------------------------------------


def test_entity_f1_conventions_on_empty_sets():
    some = {("s1", 0, 1, "PER")}
    assert entity_f1(some, set()) == entity_f1(some, frozenset())
    r = entity_f1(some, set())
    assert (r.precision, r.recall, r.f1) == (0.0, 0.0, 0.0)
    r = entity_f1(set(), some)
    assert (r.precision, r.recall, r.f1) == (0.0, 0.0, 0.0)
    r = entity_f1(set(), set())
    assert (r.precision, r.recall, r.f1) == (0.0, 0.0, 0.0)


def test_entity_f1_counts():
    gold = {("s1", 0, 1, "PER"), ("s1", 2, 4, "LOC"), ("s2", 0, 1, "PER")}
    pred = {("s1", 0, 1, "PER"), ("s1", 2, 3, "LOC")}
    r = entity_f1(gold, pred)
    assert (r.gold, r.predicted, r.correct) == (3, 2, 1)
    assert r.precision == 0.5
    assert r.recall == pytest.approx(1 / 3)
    assert r.f1 == pytest.approx(0.4)


def test_entity_f1_hand_fixture():
    gold, pred = conlleval_fixture()
    r = entity_f1(EntitySet.from_sentences(gold), EntitySet.from_sentences(pred))
    assert (r.precision, r.recall, r.f1) == (0.75, 0.75, 0.75)
    assert (r.gold, r.predicted, r.correct) == (12, 12, 9)
    per = r.per_type
    assert set(per) == {"PER", "LOC", "ORG"}
    assert (per["PER"].precision, per["PER"].recall) == (0.75, 0.6)
    assert per["PER"].f1 == pytest.approx(2 / 3)
    assert (per["LOC"].precision, per["LOC"].recall) == (0.8, 0.8)
    assert per["LOC"].f1 == pytest.approx(0.8)
    assert per["ORG"].precision == pytest.approx(2 / 3)
    assert per["ORG"].recall == 1.0
    assert per["ORG"].f1 == pytest.approx(0.8)


def test_eval_report_serializes():
    gold, pred = conlleval_fixture()
    doc = asdict(entity_f1(EntitySet.from_sentences(gold), EntitySet.from_sentences(pred)))
    assert doc["f1"] == 0.75
    assert list(doc["per_type"]) == ["LOC", "ORG", "PER"]
    assert doc["per_type"]["PER"]["gold"] == 5


# -- retrieval statistics ---------------------------------------------------


def _results():
    return [phrase(qid="q", rank=r, surface=s)
            for r, s in [(1, "Oslo"), (2, "Bergen"), (3, "oslo"), (4, "Tromsø"), (5, "Oslo")]]


def _judgments(verdicts):
    return RetrievalJudgments(judged={("q", r): v for r, v in verdicts.items()})


def test_precision_at_k():
    j = _judgments({1: True, 2: False, 3: True, 4: True, 5: False})
    assert precision_at_k(_results(), j, 3) == pytest.approx(2 / 3)
    assert precision_at_k(_results(), j, 5) == pytest.approx(3 / 5)
    # k larger than the result list inspects what exists
    assert precision_at_k(_results(), j, 10) == pytest.approx(3 / 5)
    assert precision_at_k(_results(), j, 0) == 0.0
    assert precision_at_k([], j, 5) == 0.0


def test_precision_at_k_requires_judgments():
    j = _judgments({1: True, 2: False})
    with pytest.raises(DataError, match="rank 3"):
        precision_at_k(_results(), j, 3)


def test_judgments_parse_and_validate():
    lines = [
        '{"question_id": "q", "rank": 1, "correct": true}',
        '{"question_id": "q", "rank": 2, "correct": false}',
    ]
    j = RetrievalJudgments.from_lines(lines)
    assert j.judged == {("q", 1): True, ("q", 2): False}
    with pytest.raises(DataError, match="boolean"):
        RetrievalJudgments.from_lines(['{"question_id": "q", "rank": 1, "correct": 1}'])
    with pytest.raises(DataError, match="duplicate"):
        RetrievalJudgments.from_lines(lines + [lines[0]])
    with pytest.raises(DataError, match=":1"):
        RetrievalJudgments.from_lines(["nope"])


@pytest.mark.parametrize(
    "record, message",
    [
        ('{"question_id": 5, "rank": 1.9, "correct": true}', "question_id must be a string, got 5"),
        ('{"question_id": "q", "rank": 1.9, "correct": true}', "rank must be an integer, got 1.9"),
        ('{"question_id": "q", "rank": "2", "correct": true}', "rank must be an integer, got '2'"),
        ('{"question_id": "q", "rank": true, "correct": true}', "rank must be an integer, got True"),
        ('[1, 2]', "expected an object, got list"),
        ('{"question_id": "q", "correct": true}', "missing field 'rank'"),
    ],
)
def test_judgments_are_not_coerced(record, message):
    lines = ['{"question_id": "q", "rank": 1, "correct": true}', record]
    with pytest.raises(DataError) as e:
        RetrievalJudgments.from_lines(lines, source="j.jsonl")
    assert str(e.value) == f"j.jsonl:2: {message}"


def test_diversity_is_case_insensitive():
    assert diversity(_results(), 5) == 3      # {oslo, bergen, tromsø}
    assert diversity(_results(), 2) == 2
    assert diversity(_results(), 0) == 0
