"""Retrieval-side data handling.

The pipeline treats phrase retrieval as an external service: given a
question, it returns ranked (phrase, evidence sentence) pairs. This module
owns the corpus and results file formats, validation, the per-question
sentence budget, and the HTTP client for the retrieval service. Every field
of both formats must have its JSON type; nothing is coerced. Token offsets
are checked when a corpus record is read and are not kept; each token
surface is interned (``sys.intern``), so every sentence built shares one
string per distinct surface.

One function checks each record kind: ``_check_record`` a corpus record,
``_check_tokens`` its tokens, ``_phrase_from_record`` a results record.
Each has a first pass that only accepts a well-formed record; the fault of
a record it rejects is worded by ``errors.check_fields`` (the record's own
fields) or by a walk over the tokens, so a record with several faults
always reports the same one. A corpus line whose sentence is neither held
nor visited is checked without being built.

Every JSONL file (corpus, results, and the judgments ``metrics`` reads) is
read in binary through ``text_lines``, which decodes it line by line as
text mode would (UTF-8, universal newlines) and names the first line that
is not UTF-8, and then through ``jsonl_records``: ``raw_decode`` takes a
line whose value runs up to its newline, and ``json.loads`` every other
line, so each line reads, or fails, as ``json.loads`` makes it.

``load_corpus`` reads a corpus on two CPUs when ``forked`` forks its
reader (module ``backhalf``), which decodes and checks the back half of the
file while this process reads the front half; the halves are merged in file
order, giving what one read gives.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from sys import intern
from typing import BinaryIO, Callable, Container, Iterable, Iterator, Mapping, Sequence

from .errors import DataError, FetchError, PipelineError, check_fields

# The fields of a corpus record and of a results record, each with its kind
# (see ``errors.check_fields``), in the order they are checked.
_CORPUS_FIELDS = {"sentence_id": "a non-empty string", "text": "a string", "tokens": "an array"}
_RESULT_KINDS = {
    "question_id": "a string", "phrase": "a string", "sentence_id": "a string",
    "rank": "an integer", "char_start": "an integer", "char_end": "an integer",
    "score": "a finite number",
}
RESULT_FIELDS = tuple(_RESULT_KINDS)


@dataclass(slots=True)
class CorpusSentence:
    """One pre-tokenized sentence: its text and its token surfaces. Token
    offsets are checked when the record is read, and are not kept."""

    sentence_id: str
    text: str
    tokens: tuple[str, ...]


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


def sentence_from_record(obj: object, where: str = "<corpus>") -> CorpusSentence:
    """Decode and check one corpus record; nothing is coerced, and only the
    token surfaces are kept, each interned, so sentences share their words.

    A record with several faults reports the first record-level one, else
    the first token whose type is wrong, else the first token misplaced."""
    _check_record(obj, where)
    toks = tuple([intern(s) for s, _, _ in obj["tokens"]])
    return CorpusSentence(sentence_id=obj["sentence_id"], text=obj["text"], tokens=toks)


def _check_record(obj: object, where: str) -> None:
    """Check one corpus record as ``sentence_from_record`` does, with the
    same errors, but build no sentence. A record whose fields have their
    kinds passes one test; ``check_fields`` words the fault of any other."""
    try:
        sid, text, tokens = obj["sentence_id"], obj["text"], obj["tokens"]
    except (KeyError, TypeError):  # not an object, or a field missing
        sid = None
    if not (type(sid) is str and sid and type(text) is str and type(tokens) is list):
        _, text, tokens = check_fields(obj, where, _CORPUS_FIELDS)
    _check_tokens(text, tokens, where)


def line_breaks(data: bytes) -> int:
    r"""How many lines text mode ends in ``data``: each "\n", "\r\n" and lone
    "\r" ends one."""
    return data.count(b"\n") + data.count(b"\r") - data.count(b"\r\n")


def not_utf8(
    source: str,
    line: int,
    data: bytes,
    error: UnicodeDecodeError,
    kind: type[PipelineError] = DataError,
) -> PipelineError:
    """The error (a ``kind``) for ``data``, the bytes from the start of line
    ``line`` of ``source``, failing to decode as UTF-8 with ``error``: it
    names the line the bad byte is on."""
    line += line_breaks(data[:error.start])
    return kind(
        f"{source}:{line}: not UTF-8 text ({error.reason}, byte {data[error.start]:#04x})"
    )


def text_lines(fh: BinaryIO, source: str, first: int = 1, size: int = -1) -> Iterator[str]:
    r"""The lines text mode (UTF-8, universal newlines) reads from the binary
    file ``fh``, from its position to the end, or over the next ``size``
    bytes, which must end at a line end. Line ``first`` is the first.

    Each line is decoded alone, so a byte that is not UTF-8 is a DataError
    naming the line it is on, raised when that line is reached. "\r\n" and
    a lone "\r" end a line as "\n" does, and read as "\n"."""
    line_no = first
    for raw in fh:
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise not_utf8(source, line_no, raw, e) from None
        if "\r" in line:
            *ended, tail = line.replace("\r\n", "\n").replace("\r", "\n").split("\n")
            for part in ended:
                yield part + "\n"
            if tail:
                yield tail
            line_no += len(ended) + bool(tail)
        else:
            yield line
            line_no += 1
        size -= len(raw)
        if not size:
            return


_raw_decode = json.JSONDecoder().raw_decode


def jsonl_records(
    lines: Iterable[str], source: str, first: int = 1
) -> Iterator[tuple[object, str]]:
    """Yield (decoded record, "<source>:<line number>") for each non-blank
    line, the first line being line ``first``; a line that is not JSON is a
    DataError naming its location.

    A line is decoded with ``raw_decode``, which skips ``json.loads``'
    wrapper, and accepted when its value ends at the end of the line or
    right before its final newline. Any other line (leading or trailing
    whitespace, a BOM, extra data, blank, not JSON) is handed to
    ``json.loads``, so every record is the one ``json.loads`` gives and
    every error is the one it raises. A line ``json.loads`` cannot decode is
    a DataError: bad JSON, an integer longer than Python converts (4,300
    digits by default), or arrays and objects nested deeper than the
    decoder's recursion limit."""
    for lineno, line in enumerate(lines, first):
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


def walk_corpus(
    lines: Iterable[str],
    source: str,
    first: int,
    keep: Container[str] | None,
    visit: Mapping[str, Callable[[CorpusSentence], None]] | None,
) -> Iterator[tuple[str, str, CorpusSentence | None, bool, Callable | None]]:
    """The corpus line walker both halves of a read use. Decode and check
    each record of ``lines`` and yield ``(where, sentence_id, sentence,
    held, callback)``: the sentence is built only if ``keep`` holds it or
    ``visit`` has a callback for it. Ids are not checked for repeats here."""
    for obj, where in jsonl_records(lines, source, first):
        # the id is read ahead so that only the sentences needed are built
        sid = obj.get("sentence_id") if isinstance(obj, dict) else None
        named = isinstance(sid, str)
        held = keep is None or (named and sid in keep)
        callback = visit.get(sid) if visit and named else None
        if held or callback is not None:
            sent = sentence_from_record(obj, where)
        else:
            _check_record(obj, where)
            sent = None
        yield where, sid, sent, held, callback


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
    is read, in line order. Equal token surfaces are one interned string.

    The file is cut at the first line end after its byte midpoint, and a
    forked reader (``backhalf``) walks the back half while this process
    walks the front half; the back half is then merged in line order. The
    result, and the first error, are the ones a single read gives. A file
    with nothing after the cut, or whose reader ``forked`` does not fork,
    is read here, in one part.
    """
    from .backhalf import BackHalf  # here, since it imports this module

    source = str(path)
    out = Corpus()
    unkept: set[str] = set()
    back = BackHalf.start(path, source, keep, visit)
    try:
        with open(path, "rb") as fh:
            lines = text_lines(fh, source, size=back.cut if back else -1)
            for where, sid, sent, held, callback in walk_corpus(lines, source, 1, keep, visit):
                if sid in out or sid in unkept:
                    raise DataError(f"{where}: duplicate sentence_id {sid!r}")
                if callback is not None:
                    callback(sent)
                if held:
                    out[sid] = sent
                else:
                    unkept.add(sid)
        out.total = len(out) + len(unkept)
        if back is not None:
            out.total += back.merge(out, unkept, visit)
    finally:
        if back is not None:
            back.close()
    return out


@dataclass(slots=True)
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
    one test; ``check_fields`` words the first fault of any other."""
    try:
        qid, rank, surface, score, sid, start, end = (
            obj["question_id"], obj["rank"], obj["phrase"], obj["score"],
            obj["sentence_id"], obj["char_start"], obj["char_end"],
        )
        if (
            type(qid) is str and type(surface) is str and type(sid) is str
            and type(rank) is int and type(start) is int and type(end) is int
            and type(score) is float and math.isfinite(score) and rank >= 1
        ):
            return RetrievedPhrase(qid, rank, surface, score, sid, start, end)
    except (KeyError, TypeError):  # not an object, or a field missing
        pass
    qid, surface, sid, rank, start, end, score = check_fields(obj, where, _RESULT_KINDS)
    if rank < 1:
        raise DataError(f"{where}: rank must be >= 1, got {rank}")
    return RetrievedPhrase(qid, rank, surface, float(score), sid, start, end)


def evidence_fault(p: RetrievedPhrase, sent: CorpusSentence | None) -> str | None:
    """What is wrong with ``p`` against ``sent``, the sentence it names (None
    if no sentence has its id), or None if that sentence exists and ``p``'s
    phrase equals its in-bounds slice."""
    if sent is None:
        return f"unknown sentence_id {p.sentence_id!r}"
    if not 0 <= p.char_start < p.char_end <= len(sent.text):
        return (
            f"span [{p.char_start}, {p.char_end}) out of bounds "
            f"for sentence {p.sentence_id!r}"
        )
    slice_ = sent.text[p.char_start:p.char_end]
    if slice_ != p.surface:
        return f"phrase {p.surface!r} != sentence slice {slice_!r}"
    return None


def check_evidence(p: RetrievedPhrase, sent: CorpusSentence | None, where: str) -> None:
    """Raise DataError, named ``where``, if ``evidence_fault`` finds one."""
    fault = evidence_fault(p, sent)
    if fault is not None:
        raise DataError(f"{where}: {fault}")


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
    given, is stamped on every record first.

    Each hit is appended to its question's group as it comes. A question
    whose ranks have so far come in rising order cannot repeat one; at its
    first rank out of order, a {rank: where} map of its hits is built, which
    finds its repeats from then on, and the group is sorted at the end. The
    scores are checked once the stream is read, question by question in
    order of first appearance, in rank order."""
    # question id -> [hits, where of each hit, {rank: where} or None]
    groups: dict[str, list] = {}
    for obj, where in records:
        if question_id is not None and isinstance(obj, dict):
            obj = dict(obj, question_id=question_id)
        p = _phrase_from_record(obj, where)
        group = groups.get(p.question_id)
        if group is None:
            groups[p.question_id] = [[p], [where], None]
            continue
        hits, wheres, firsts = group
        if firsts is None:
            if p.rank > hits[-1].rank:
                hits.append(p)
                wheres.append(where)
                continue
            firsts = group[2] = dict(zip([h.rank for h in hits], wheres))
        if p.rank in firsts:
            raise DataError(
                f"{where}: duplicate rank {p.rank} for question {p.question_id!r} "
                f"(first at {firsts[p.rank]})"
            )
        firsts[p.rank] = where
        hits.append(p)
        wheres.append(where)
    out: dict[str, list[RetrievedPhrase]] = {}
    for qid, (hits, wheres, firsts) in groups.items():
        if firsts is not None:
            order = sorted(range(len(hits)), key=[h.rank for h in hits].__getitem__)
            hits = [hits[i] for i in order]
            wheres = [wheres[i] for i in order]
        for i, (prev, cur) in enumerate(zip(hits, hits[1:]), 1):
            if cur.score > prev.score:
                raise DataError(
                    f"{wheres[i]}: score {cur.score} at rank {cur.rank} exceeds "
                    f"score {prev.score} at rank {prev.rank} for question {qid!r}"
                )
        out[qid] = hits
    return out


def read_results(
    path: str | Path, corpus: Mapping[str, CorpusSentence] | None = None
) -> dict[str, list[RetrievedPhrase]]:
    """``ingest_results`` on a file. With a corpus, every hit is then checked
    against the sentence it names, in results order, and named as
    "<path> (<question id> rank <rank>)"."""
    with open(path, "rb") as fh:
        groups = ingest_results(text_lines(fh, str(path)), source=str(path))
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
