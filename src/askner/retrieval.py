"""Retrieval-side data handling.

The pipeline treats phrase retrieval as an external service: given a
question, it returns ranked (phrase, evidence sentence) pairs. This module
owns the corpus and results file formats, validation, the per-question
sentence budget, and the HTTP client for the retrieval service. Every field
of both formats must have its JSON type; nothing is coerced. Token offsets
are checked when a corpus record is read and are not kept; the sentences
one corpus read holds share their repeated token strings.

One function checks each record kind: ``_check_tokens`` the tokens of a
corpus record, ``_phrase_from_record`` a results record. Each has a first
pass that only accepts a well-formed record, then a walk that words the
fault of a record the pass rejected, so a record with several faults always
reports the same one. A corpus line whose sentence is neither held nor
visited is checked without being built.

Every JSONL file (corpus, results, and the judgments ``metrics`` reads) is
read through ``jsonl_records``: ``raw_decode`` takes a line whose value runs
up to its newline, and ``json.loads`` every other line, so each line reads,
or fails, as ``json.loads`` makes it.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Container, Iterable, Iterator, Mapping, Sequence

from .errors import DataError, FetchError

RESULT_FIELDS = ("question_id", "rank", "phrase", "score", "sentence_id", "char_start", "char_end")


@dataclass(frozen=True, slots=True)
class CorpusSentence:
    """One pre-tokenized sentence: its text and its token surfaces. Token
    offsets are checked when the record is read, and are not kept."""

    sentence_id: str
    text: str
    tokens: tuple[str, ...]


def _record_fields(obj: object, where: str) -> tuple[str, str, list]:
    """The sentence id, text and token list of a corpus record, each of its
    JSON type; the tokens themselves are not looked at."""
    if not isinstance(obj, dict):
        raise DataError(f"{where}: expected an object, got {type(obj).__name__}")
    try:
        sid = obj["sentence_id"]
        text = obj["text"]
        tokens = obj["tokens"]
    except KeyError as e:
        raise DataError(f"{where}: missing field {e.args[0]!r}") from None
    if not isinstance(sid, str) or not sid:
        raise DataError(f"{where}: sentence_id must be a non-empty string")
    if not isinstance(text, str):
        raise DataError(f"{where}: text must be a string")
    if not isinstance(tokens, list):
        raise DataError(f"{where}: malformed tokens: expected an array, got {tokens!r}")
    return sid, text, tokens


def _check_tokens(text: str, tokens: list, where: str) -> None:
    """Raise DataError unless each token is exactly ``[string, int, int]``
    (a boolean is not an int), the tokens are in order and in bounds, and
    each equals its slice of ``text`` and holds no tab or newline.

    A first pass only accepts; a text without tab or newline cannot give a
    surface one. Tokens it rejects are walked again to word the fault: the
    first token whose type is wrong, else no tokens, else the first token
    misplaced."""
    if tokens and "\t" not in text and "\n" not in text:
        prev_end = 0
        size = len(text)
        try:
            for surface, start, end in tokens:
                if not (
                    type(surface) is str and type(start) is int and type(end) is int
                    and prev_end <= start < end <= size and text[start:end] == surface
                ):
                    break
                prev_end = end
            else:
                return
        except (TypeError, ValueError):
            pass
    for i, token in enumerate(tokens):
        try:
            surface, start, end = token
        except (TypeError, ValueError):
            surface = start = end = None
        # only a 3-element JSON array can unpack to a str and two ints
        if type(surface) is not str or type(start) is not int or type(end) is not int:
            raise DataError(
                f"{where}: malformed tokens: token {i} must be [string, int, int], "
                f"got {token!r}"
            )
    if not tokens:
        raise DataError(f"{where}: sentence has no tokens")
    prev_end = 0
    for i, (surface, start, end) in enumerate(tokens):
        if not 0 <= start < end <= len(text):
            raise DataError(f"{where}: token {i} span [{start}, {end}) out of bounds")
        if start < prev_end:
            raise DataError(f"{where}: token {i} overlaps or is out of order")
        if text[start:end] != surface:
            raise DataError(
                f"{where}: token {i} surface {surface!r} != text slice {text[start:end]!r}"
            )
        if "\t" in surface or "\n" in surface:
            raise DataError(f"{where}: token {i} contains tab/newline, unsupported")
        prev_end = end


def sentence_from_record(
    obj: object, where: str = "<corpus>", surfaces: dict[str, str] | None = None
) -> CorpusSentence:
    """Decode and check one corpus record; nothing is coerced, and only the
    token surfaces are kept. With ``surfaces``, a {surface: surface} memo,
    each surface is replaced by the equal string the memo already holds, and
    new ones are added, so sentences read through one memo share their words.

    A record with several faults reports the first record-level one, else
    the first token whose type is wrong, else the first token misplaced."""
    sid, text, tokens = _record_fields(obj, where)
    _check_tokens(text, tokens, where)
    memo = {} if surfaces is None else surfaces
    toks = tuple([memo.setdefault(s, s) for s, _, _ in tokens])
    return CorpusSentence(sentence_id=sid, text=text, tokens=toks)


def _check_record(obj: object, where: str) -> None:
    """Check one corpus record as ``sentence_from_record`` does, with the
    same errors, but build no sentence."""
    _, text, tokens = _record_fields(obj, where)
    _check_tokens(text, tokens, where)


_raw_decode = json.JSONDecoder().raw_decode


def jsonl_records(lines: Iterable[str], source: str) -> Iterator[tuple[object, str]]:
    """Yield (decoded record, "<source>:<line number>") for each non-blank
    line; a line that is not JSON is a DataError naming its location.

    A line is decoded with ``raw_decode``, which skips ``json.loads``'
    wrapper, and accepted when its value ends at the end of the line or
    right before its final newline. Any other line (leading or trailing
    whitespace, a BOM, extra data, blank, not JSON) is handed to
    ``json.loads``, so every record is the one ``json.loads`` gives and
    every error is the one it raises. A line ``json.loads`` cannot decode is
    a DataError: bad JSON, an integer longer than Python converts (4,300
    digits by default), or arrays and objects nested deeper than the
    decoder's recursion limit."""
    for lineno, line in enumerate(lines, 1):
        try:
            obj, end = _raw_decode(line)
        except (TypeError, ValueError, RecursionError):
            whole = False
        else:
            whole = end == len(line) or line[end:] == "\n"
        if not whole:
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as e:
                raise DataError(f"{source}:{lineno}: invalid JSON: {e}") from None
        yield obj, f"{source}:{lineno}"


class Corpus(dict):
    """An ordered {sentence_id: sentence} map of the sentences held, with
    ``total``: how many sentences the file holds, held or not."""

    total: int = 0


def load_corpus(
    path: str | Path,
    keep: Container[str] | None = None,
    visit: Mapping[str, Callable[[CorpusSentence], None]] | None = None,
) -> Corpus:
    """Read a JSONL corpus into an ordered {sentence_id: sentence} map.

    Every line is decoded and checked, and ids must be unique across the
    file, whether or not the sentence is held. With ``keep``, only the
    sentences whose ids it contains are held; the others are checked
    without being built and leave just their id behind, for the duplicate
    check. ``visit``, if given, maps sentence ids to callbacks: the sentence
    with such an id, held or not, is built and passed to its callback as it
    is read. Held sentences share equal token surfaces through a
    {surface: surface} memo that lives for this call only.
    """
    out = Corpus()
    unkept: set[str] = set()
    surfaces: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for obj, where in jsonl_records(fh, str(path)):
            # the id is read ahead so that only held sentences enter the memo
            sid = obj.get("sentence_id") if isinstance(obj, dict) else None
            named = isinstance(sid, str)
            held = keep is None or (named and sid in keep)
            callback = visit.get(sid) if visit and named else None
            if held or callback is not None:
                sent = sentence_from_record(obj, where, surfaces if held else None)
            else:
                _check_record(obj, where)
            if sid in out or sid in unkept:
                raise DataError(f"{where}: duplicate sentence_id {sid!r}")
            if callback is not None:
                callback(sent)
            if held:
                out[sid] = sent
            else:
                unkept.add(sid)
    out.total = len(out) + len(unkept)
    return out


@dataclass(frozen=True, slots=True)
class RetrievedPhrase:
    """One ranked retrieval hit: a phrase span inside an evidence sentence."""

    question_id: str
    rank: int
    surface: str
    score: float
    sentence_id: str
    char_start: int
    char_end: int

    def to_record(self) -> dict:
        return {
            "question_id": self.question_id,
            "rank": self.rank,
            "phrase": self.surface,
            "score": self.score,
            "sentence_id": self.sentence_id,
            "char_start": self.char_start,
            "char_end": self.char_end,
        }


def _phrase_from_record(obj: object, where: str) -> RetrievedPhrase:
    """Decode and check one results record: every field of its JSON type
    (a boolean is not an integer), a finite score, read as a float, and a
    rank of at least 1. A well-formed record with a float score is read in
    one test; any other is checked field by field, which words the first
    fault."""
    if type(obj) is dict:
        try:
            qid, rank, surface, score, sid, start, end = (
                obj["question_id"], obj["rank"], obj["phrase"], obj["score"],
                obj["sentence_id"], obj["char_start"], obj["char_end"],
            )
        except KeyError:
            pass
        else:
            if (
                type(qid) is str and type(surface) is str and type(sid) is str
                and type(rank) is int and type(start) is int and type(end) is int
                and type(score) is float and math.isfinite(score) and rank >= 1
            ):
                return RetrievedPhrase(qid, rank, surface, score, sid, start, end)
    if not isinstance(obj, dict):
        raise DataError(f"{where}: expected an object, got {type(obj).__name__}")
    missing = [f for f in RESULT_FIELDS if f not in obj]
    if missing:
        raise DataError(f"{where}: missing fields {missing}")
    for f in ("question_id", "phrase", "sentence_id"):
        if not isinstance(obj[f], str):
            raise DataError(f"{where}: {f} must be a string, got {obj[f]!r}")
    for f in ("rank", "char_start", "char_end"):
        if isinstance(obj[f], bool) or not isinstance(obj[f], int):
            raise DataError(f"{where}: {f} must be an integer, got {obj[f]!r}")
    score = obj["score"]
    # false for NaN, the infinities and an integer too large for a float
    finite = isinstance(score, (int, float)) and abs(score) <= sys.float_info.max
    if isinstance(score, bool) or not finite:
        raise DataError(f"{where}: score must be a finite number, got {score!r}")
    if obj["rank"] < 1:
        raise DataError(f"{where}: rank must be >= 1, got {obj['rank']}")
    return RetrievedPhrase(
        obj["question_id"], obj["rank"], obj["phrase"], float(score),
        obj["sentence_id"], obj["char_start"], obj["char_end"],
    )


def check_evidence(p: RetrievedPhrase, sent: CorpusSentence | None, where: str) -> None:
    """Raise DataError unless ``sent``, the sentence ``p`` names (None if no
    sentence has its id), exists and ``p``'s phrase equals its in-bounds
    slice."""
    if sent is None:
        raise DataError(f"{where}: unknown sentence_id {p.sentence_id!r}")
    if not 0 <= p.char_start < p.char_end <= len(sent.text):
        raise DataError(
            f"{where}: span [{p.char_start}, {p.char_end}) out of bounds "
            f"for sentence {p.sentence_id!r}"
        )
    slice_ = sent.text[p.char_start:p.char_end]
    if slice_ != p.surface:
        raise DataError(f"{where}: phrase {p.surface!r} != sentence slice {slice_!r}")


def ingest_results(
    lines: Iterable[str], source: str = "<results>"
) -> dict[str, list[RetrievedPhrase]]:
    """Parse and validate a results stream, grouped per question, rank-sorted.

    Only record-level checks run; ``check_evidence`` checks a hit against
    its sentence. Scores must be non-increasing with rank within every
    question.
    """
    return _rank_sorted(jsonl_records(lines, source))


def _rank_sorted(
    records: Iterable[tuple[object, str]], question_id: str | None = None
) -> dict[str, list[RetrievedPhrase]]:
    """Validate (record, where) pairs into hits grouped per question and
    sorted by rank, raising DataError in stream order. ``question_id``, if
    given, is stamped on every record first."""
    groups: dict[str, dict[int, tuple[RetrievedPhrase, str]]] = {}
    for obj, where in records:
        if question_id is not None and isinstance(obj, dict):
            obj = dict(obj, question_id=question_id)
        p = _phrase_from_record(obj, where)
        per_q = groups.setdefault(p.question_id, {})
        if p.rank in per_q:
            raise DataError(
                f"{where}: duplicate rank {p.rank} for question {p.question_id!r} "
                f"(first at {per_q[p.rank][1]})"
            )
        per_q[p.rank] = (p, where)
    out: dict[str, list[RetrievedPhrase]] = {}
    for qid, per_q in groups.items():
        ranked = [per_q[r] for r in sorted(per_q)]
        for (prev, _), (cur, where) in zip(ranked, ranked[1:]):
            if cur.score > prev.score:
                raise DataError(
                    f"{where}: score {cur.score} at rank {cur.rank} exceeds "
                    f"score {prev.score} at rank {prev.rank} for question {qid!r}"
                )
        out[qid] = [p for p, _ in ranked]
    return out


def read_results(
    path: str | Path, corpus: Mapping[str, CorpusSentence] | None = None
) -> dict[str, list[RetrievedPhrase]]:
    """``ingest_results`` on a file. With a corpus, every hit is then checked
    against the sentence it names, in results order, and named as
    "<path> (<question id> rank <rank>)"."""
    with open(path, encoding="utf-8") as fh:
        groups = ingest_results(fh, source=str(path))
    for phrases in groups.values() if corpus is not None else ():
        for p in phrases:
            where = f"{path} ({p.question_id} rank {p.rank})"
            check_evidence(p, corpus.get(p.sentence_id), where)
    return groups


def serialize_results(groups: Mapping[str, Sequence[RetrievedPhrase]]) -> str:
    """Inverse of ingest_results: one JSON record per line, questions in
    sorted id order, ranks ascending, trailing newline."""
    lines = []
    for qid in sorted(groups):
        for p in sorted(groups[qid], key=lambda p: p.rank):
            lines.append(json.dumps(p.to_record(), ensure_ascii=False, sort_keys=True))
    return "\n".join(lines) + "\n" if lines else ""


@dataclass(frozen=True)
class SentenceBudgetResult:
    """Outcome of walking one question's ranked results under a budget."""

    kept_sentences: tuple[str, ...]
    kept_phrases: tuple[RetrievedPhrase, ...]
    exhausted: bool


def collect_training_sentences(
    results: Sequence[RetrievedPhrase], k_l: int
) -> SentenceBudgetResult:
    """Keep results until ``k_l`` distinct sentences have been collected.

    The walk goes in rank order; a phrase is kept iff its sentence is kept,
    which includes later-ranked phrases from already-kept sentences. The
    ``exhausted`` flag records that the results ran out before the budget
    filled.
    """
    if k_l < 0:
        raise ValueError(f"k_l must be >= 0, got {k_l}")
    qids = {p.question_id for p in results}
    if len(qids) > 1:
        raise ValueError(f"results mix several questions: {sorted(qids)}")
    ranks = [p.rank for p in results]
    if any(b <= a for a, b in zip(ranks, ranks[1:])):
        raise ValueError("results must be sorted by strictly increasing rank")
    kept_sentences: list[str] = []
    kept_set: set[str] = set()
    kept_phrases: list[RetrievedPhrase] = []
    for p in results:
        if p.sentence_id in kept_set:
            kept_phrases.append(p)
        elif len(kept_set) < k_l:
            kept_set.add(p.sentence_id)
            kept_sentences.append(p.sentence_id)
            kept_phrases.append(p)
    return SentenceBudgetResult(
        kept_sentences=tuple(kept_sentences),
        kept_phrases=tuple(kept_phrases),
        exhausted=len(kept_sentences) < k_l,
    )


def fetch_remote(
    question_text: str,
    endpoint: str,
    top_n: int,
    question_id: str,
    timeout: float = 10.0,
    attempts: int = 3,
    backoff: float = 0.5,
) -> list[RetrievedPhrase]:
    """GET ranked results from a retrieval service, with retries.

    Sends ``question`` and ``top_n`` as query parameters and expects a JSON
    array of result records. Records are stamped with ``question_id`` before
    validation so replay files line up with the local configuration.
    Connection failures and 5xx responses are retried up to ``attempts``
    times; malformed payloads and 4xx responses are data errors, and name
    the question. Each call opens its own connection, so calls may run on
    several threads at once.
    """
    import requests

    source = f"{endpoint} (question {question_text!r})"
    last_error: Exception | None = None
    for attempt in range(1, attempts + 1):
        if attempt > 1 and backoff:
            time.sleep(backoff * (attempt - 1))
        try:
            resp = requests.get(
                endpoint, params={"question": question_text, "top_n": top_n}, timeout=timeout
            )
        except requests.RequestException as e:
            last_error = e
            continue
        if 500 <= resp.status_code < 600:
            last_error = DataError(f"{source}: server error {resp.status_code}")
            continue
        if resp.status_code != 200:
            raise DataError(f"{source}: unexpected status {resp.status_code}")
        try:
            payload = resp.json()
        except (ValueError, RecursionError) as e:
            raise DataError(f"{source}: response is not JSON: {e}") from None
        if not isinstance(payload, list):
            raise DataError(f"{source}: expected a JSON array of result records")
        records = ((obj, f"{source} record {i}") for i, obj in enumerate(payload))
        return _rank_sorted(records, question_id=question_id).get(question_id, [])
    raise FetchError(
        f"{source}: retrieval failed after {attempts} attempts: {last_error}",
        attempts=attempts,
    )
