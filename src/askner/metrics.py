"""Entity-level evaluation and retrieval-quality statistics.

F1 follows the usual exact-match convention: an entity is a (sentence,
token span, type) tuple, precision/recall are micro-averaged over the
corpus, and empty denominators score zero. Retrieval quality is measured by
precision-at-k against human judgments and by how many distinct phrases the
top ranks contain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .annotator import LabeledSentence
from .errors import DataError, check_fields
from .retrieval import RetrievedPhrase, jsonl_records

#: (sentence_id, token_start, token_end, type)
Entity = tuple[str, int, int, str]


def extract_entities(tags: Sequence[str]) -> list[tuple[int, int, str]]:
    """Decode BIO tags into (token_start, token_end, type) spans.

    Tolerates ill-formed input the way conll evaluation scripts do: an
    ``I-t`` that does not continue a running ``t`` entity starts a new one.
    Anything other than ``O``, ``B-type`` or ``I-type`` is a data error.
    """
    spans: list[tuple[int, int, str]] = []
    start = None
    cur_type = None
    for i, tag in enumerate(tags):
        if tag == "O":
            prefix, etype = "O", None
        elif tag.startswith("B-") and len(tag) > 2:
            prefix, etype = "B", tag[2:]
        elif tag.startswith("I-") and len(tag) > 2:
            prefix, etype = "I", tag[2:]
        else:
            raise DataError(f"position {i}: unparseable tag {tag!r}")
        if start is not None and (prefix in ("O", "B") or etype != cur_type):
            spans.append((start, i, cur_type))
            start = None
        if prefix == "B" or (prefix == "I" and start is None):
            start = i
            cur_type = etype
    if start is not None:
        spans.append((start, len(tags), cur_type))
    return spans


@dataclass(frozen=True)
class EntitySet:
    """All entities of a labeled corpus, as a set."""

    entities: frozenset[Entity]

    @classmethod
    def from_sentences(cls, sentences: Iterable[LabeledSentence]) -> "EntitySet":
        ents = set()
        for sent in sentences:
            for start, end, etype in extract_entities(sent.tags):
                ents.add((sent.sentence_id, start, end, etype))
        return cls(entities=frozenset(ents))


@dataclass(frozen=True)
class TypeScore:
    precision: float
    recall: float
    f1: float
    gold: int
    predicted: int
    correct: int


@dataclass(frozen=True)
class EvalReport:
    precision: float
    recall: float
    f1: float
    gold: int
    predicted: int
    correct: int
    per_type: dict[str, TypeScore] = field(hash=False, default_factory=dict)


def _prf(gold: int, predicted: int, correct: int) -> tuple[float, float, float]:
    p = correct / predicted if predicted else 0.0
    r = correct / gold if gold else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def entity_f1(gold: Iterable[Entity] | EntitySet, pred: Iterable[Entity] | EntitySet) -> EvalReport:
    """Micro precision/recall/F1 over exact (sentence, span, type) matches,
    with a per-type breakdown over every type seen on either side."""
    gold_set = gold.entities if isinstance(gold, EntitySet) else frozenset(gold)
    pred_set = pred.entities if isinstance(pred, EntitySet) else frozenset(pred)
    correct = len(gold_set & pred_set)
    p, r, f = _prf(len(gold_set), len(pred_set), correct)
    per_type = {}
    for etype in sorted({e[3] for e in gold_set} | {e[3] for e in pred_set}):
        g = {e for e in gold_set if e[3] == etype}
        q = {e for e in pred_set if e[3] == etype}
        c = len(g & q)
        tp, tr, tf = _prf(len(g), len(q), c)
        per_type[etype] = TypeScore(tp, tr, tf, len(g), len(q), c)
    return EvalReport(p, r, f, len(gold_set), len(pred_set), correct, per_type)


_JUDGMENT_FIELDS = {"question_id": "a string", "rank": "an integer", "correct": "a boolean"}


@dataclass(frozen=True)
class RetrievalJudgments:
    """Human correctness judgments keyed by (question_id, rank)."""

    judged: Mapping[tuple[str, int], bool]

    @classmethod
    def from_lines(cls, lines: Iterable[str], source: str = "<judgments>") -> "RetrievalJudgments":
        """Read JSONL judgment records. ``question_id`` must be a string,
        ``rank`` an integer (a boolean is not one) and ``correct`` a
        boolean; nothing is coerced."""
        judged: dict[tuple[str, int], bool] = {}
        for obj, where in jsonl_records(lines, source):
            qid, rank, verdict = check_fields(obj, where, _JUDGMENT_FIELDS)
            key = (qid, rank)
            if key in judged:
                raise DataError(f"{where}: duplicate judgment for {key}")
            judged[key] = verdict
        return cls(judged=judged)


def precision_at_k(
    results: Sequence[RetrievedPhrase], judgments: RetrievalJudgments, k: int
) -> float:
    """Fraction of the top-k results judged correct.

    Every inspected rank must be judged; a gap is a data error naming the
    missing (question, rank). k is capped at the number of results; with
    nothing to inspect the precision is 0.0.
    """
    top = sorted(results, key=lambda p: p.rank)[: max(k, 0)]
    if not top:
        return 0.0
    hits = 0
    for p in top:
        key = (p.question_id, p.rank)
        if key not in judgments.judged:
            raise DataError(f"no judgment for question {p.question_id!r} rank {p.rank}")
        hits += bool(judgments.judged[key])
    return hits / len(top)


def diversity(results: Sequence[RetrievedPhrase], k: int) -> int:
    """Number of distinct phrase surfaces (case-insensitive) in the top k."""
    top = sorted(results, key=lambda p: p.rank)[: max(k, 0)]
    return len({p.surface.lower() for p in top})
