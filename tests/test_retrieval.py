import json
import math
import os
import re
from types import SimpleNamespace

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from askner import backhalf
from askner.errors import DataError, InternalInvariantError
from askner.retrieval import (
    RESULT_FIELDS,
    CorpusSentence,
    RetrievedPhrase,
    _check_record,
    _phrase_from_record,
    _rank_sorted,
    check_evidence,
    collect_training_sentences,
    fetch_remote,
    ingest_results,
    jsonl_records,
    load_corpus,
    read_results,
    sentence_from_record,
    serialize_results,
    text_lines,
)
from testutil import forked, needs_fork, phrase, sent  # noqa: F401 (forked is a fixture)


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
    assert corpus["s1"].tokens == ("Leprosy", "is", "chronic")


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
    visit = dict.fromkeys(["s4", "s1", "gone"], visited.append)
    corpus = load_corpus(path, {"s3", "s1", "absent"}, visit)
    assert list(corpus) == ["s1", "s3"]
    assert corpus.total == 5
    # only the named ids are visited, held or not, in corpus order
    assert visited == [corpus["s1"], sentence_from_record(_record("s4"))]


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
        # a type fault in any token is reported before a misplaced one
        (
            json.dumps({"sentence_id": "s3", "text": "ab cd",
                        "tokens": [["ab", 0, 9], ["cd", 3, 5], [1, 2, 3]]}),
            "token 2 must be [string, int, int], got [1, 2, 3]",
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
    first, second = corpus["s1"].tokens[0], corpus["s2"].tokens[0]
    assert first == second == "Leprosy"
    assert first is second


def test_held_tokens_are_surface_strings_shared_across_sentences(tmp_path):
    path = _write_corpus(
        tmp_path,
        [_record("s1", "Oslo is cold in Oslo"), _record("s2", "cold Oslo"), _record("s3", "Oslo")],
    )
    corpus = load_corpus(path, {"s1", "s2"})
    assert [s.tokens for s in corpus.values()] == [
        ("Oslo", "is", "cold", "in", "Oslo"), ("cold", "Oslo")
    ]
    held = [t for s in corpus.values() for t in s.tokens]
    assert all(type(t) is str for t in held)
    # one object per distinct surface, within a sentence and across sentences
    assert len({id(t) for t in held}) == len(set(held)) == 4


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


# -- reading a corpus in two halves -----------------------------------------


def _line(sid, words):
    return json.dumps(_record(sid, " ".join(words)), ensure_ascii=False).encode("utf-8")


def _read(path, split, keep=None, visit_ids=(), raising=None):
    """What ``load_corpus`` gives: the held sentences in order, the total
    and the visited sentences, or the error's type and message and the
    sentences visited before it. Equal held surfaces must be one object."""
    visited = []

    def callback(sentence):
        visited.append(sentence)
        if sentence.sentence_id == raising:
            raise RuntimeError(f"callback for {raising}")

    try:
        corpus = load_corpus(path, keep, dict.fromkeys(visit_ids, callback), split=split)
    except (DataError, RuntimeError) as e:
        return type(e), str(e), visited
    held = [t for s in corpus.values() for t in s.tokens]
    assert len({id(t) for t in held}) == len(set(held))
    return list(corpus.items()), corpus.total, visited


_IDS = [f"s{i}" for i in range(12)]
_VALID = st.builds(
    _line, st.sampled_from(_IDS),
    st.lists(st.sampled_from(["Oslo", "is", "cold", "Lima", "é"]), min_size=1, max_size=4),
)
_FAULTY = st.sampled_from([
    b"", b"  ", b"{broken", b"[1]", b"\xff\xfe junk",
    b'{"sentence_id": "s0", "text": "ab", "tokens": [["x", 0, 2]]}',
])


@st.composite
def _corpora(draw):
    # one line in seven is blank or faulty, so that many files have a fault
    # on either side of the cut, and many have none
    lines = draw(st.lists(
        st.tuples(st.integers(0, 6).flatmap(lambda i: _VALID if i else _FAULTY),
                  st.sampled_from([b"\n", b"\r\n", b"\r"])),
        max_size=10,
    ))
    data = b"".join(line + end for line, end in lines)
    if lines and draw(st.booleans()):  # no line end after the last line
        data = data[: -len(lines[-1][1])]
    keep = draw(st.none() | st.sets(st.sampled_from(_IDS)))
    visit_ids = draw(st.sets(st.sampled_from(_IDS)))
    return data, keep, visit_ids, draw(st.none() | st.sampled_from(_IDS))


@needs_fork
@seed(26)
@settings(max_examples=150, deadline=None)
@given(_corpora())
def test_split_read_equals_one_read(tmp_path_factory, case):
    data, keep, visit_ids, raising = case
    path = tmp_path_factory.mktemp("split") / "corpus.jsonl"
    path.write_bytes(data)
    one = _read(path, False, keep, visit_ids, raising)
    assert _read(path, True, keep, visit_ids, raising) == one


# Nine lines of equal length: the cut falls after line 5.
_NINE = [_line(sid, ["Oslo", "is", "cold"]) for sid in "abcdefghi"]


def _nine(tmp_path, changes=(), ends=None):
    lines = list(_NINE)
    for index, line in changes:
        lines[index] = line
    ends = ends or [b"\n"] * len(lines)
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(b"".join(line + end for line, end in zip(lines, ends)))
    return path


@needs_fork
@pytest.mark.parametrize(
    "changes, visit_ids, raising, expected",
    [
        ([(1, b"{broken")], (), None, ":2: invalid JSON"),
        ([(7, _line("h", ["Oslo", "is", "hot"]).replace(b'"hot", 8, 11', b'"cold", 8, 11'))],
         (), None, ":8: token 2 surface"),
        ([(7, _NINE[0])], (), None, ":8: duplicate sentence_id 'a'"),
        ([(8, _NINE[6])], (), None, ":9: duplicate sentence_id 'g'"),
        ([(7, b"\xff\xfe junk")], (), None, ":8: not UTF-8 text (invalid start byte, byte 0xff)"),
        ([(2, b"{broken"), (7, b"\xff")], (), None, ":3: invalid JSON"),
        # a callback that raises comes before a later fault, in either half
        ([(7, _NINE[0])], ("b", "g"), "g", "callback for g"),
        ([(7, _NINE[0])], ("h", "b"), "h", ":8: duplicate sentence_id 'a'"),
        ([(7, b"{broken")], ("f", "i"), "f", "callback for f"),
    ],
)
def test_split_read_gives_the_first_fault_of_one_read(
    tmp_path, forked, changes, visit_ids, raising, expected
):
    path = _nine(tmp_path, changes)
    one = _read(path, False, {"b", "h"}, visit_ids, raising)
    assert len(forked) == 0
    assert _read(path, True, {"b", "h"}, visit_ids, raising) == one
    assert len(forked) == 1
    assert expected in one[1]


@needs_fork
def test_split_read_numbers_lines_as_text_mode_does(tmp_path, forked):
    # Blank lines, "\r\n" and a lone "\r" in the front half: the back half's
    # line numbers count each of them as text mode does.
    ends = [b"\r", b"\r\n\n", b"\r\r\n", b"\n  \n", b"\n", b"\n", b"\n", b"\n", b"\n"]
    path = _nine(tmp_path, [(7, b"{broken")], ends)
    with path.open(encoding="utf-8") as fh:
        assert list(fh)[10] == "{broken\n"
    one = _read(path, False)
    assert one[1] == (
        f"{path}:11: invalid JSON: Expecting property name enclosed in double quotes: "
        "line 1 column 2 (char 1)"
    )
    assert _read(path, True) == one
    assert len(forked) == 1


@needs_fork
def test_split_read_shares_surfaces_across_the_halves(tmp_path, forked):
    path = _nine(tmp_path)
    corpus = load_corpus(path, {"a", "i"}, split=True)
    assert len(forked) == 1
    assert corpus == load_corpus(path, {"a", "i"}) and corpus.total == 9
    assert list(corpus) == ["a", "i"]
    for front, back in zip(corpus["a"].tokens, corpus["i"].tokens):
        assert front is back


@needs_fork
@pytest.mark.parametrize("data", [b"", _NINE[0], _NINE[0] + b"\n", b"\n\n" + _NINE[0]])
def test_split_read_of_a_file_with_no_back_half_forks_nothing(tmp_path, forked, data):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(data)
    assert _read(path, True) == _read(path, False)
    assert forked == []


@needs_fork
@pytest.mark.parametrize("index", [1, 7])
def test_an_interrupt_during_a_split_read_stops_the_reader(tmp_path, forked, index):
    # the front half's second sentence, or the back half's third
    path = _nine(tmp_path)

    def interrupt(sentence):
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        load_corpus(path, None, {"abcdefghi"[index]: interrupt}, split=True)
    assert len(forked) == 1


@needs_fork
def test_a_failed_fork_reads_the_file_in_one_part(tmp_path, monkeypatch):
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    path = _nine(tmp_path)
    fds = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    monkeypatch.setattr(os, "fork", no_fork)
    assert _read(path, True, {"c", "g"}) == _read(path, False, {"c", "g"})
    if fds is not None:
        assert len(os.listdir("/proc/self/fd")) == fds


@needs_fork
def test_a_reader_that_dies_is_an_internal_error(tmp_path, forked, monkeypatch):
    monkeypatch.setattr(backhalf, "read_back", lambda *args: os._exit(7))
    with pytest.raises(InternalInvariantError, match="corpus reader process exited with code 7"):
        load_corpus(_nine(tmp_path), split=True)
    assert len(forked) == 1


@seed(26)
@settings(max_examples=200, deadline=None)
@given(st.text(st.sampled_from("ab é\r\n"), max_size=24), st.integers(0, 24))
def test_text_lines_reads_as_text_mode_does(tmp_path_factory, text, at):
    path = tmp_path_factory.mktemp("lines") / "text.txt"
    data = text.encode("utf-8")
    path.write_bytes(data)
    with open(path, encoding="utf-8") as fh:
        expected = list(fh)
    with open(path, "rb") as fh:
        assert list(text_lines(fh, "t")) == expected
    # read in two parts, cut after the first "\n" from byte ``at`` on
    cut = data.find(b"\n", at) + 1
    if 0 < cut < len(data):
        with open(path, "rb") as fh:
            front = list(text_lines(fh, "t", size=cut))
            assert list(text_lines(fh, "t")) == expected[len(front):]


def test_a_results_file_that_is_not_utf8_names_the_line(tmp_path):
    path = tmp_path / "results.jsonl"
    record = json.dumps(phrase("q", 1, "Oslo", 1.0, "s1", 0, 4).to_record()).encode()
    path.write_bytes(record + b"\r\n\n" + b'{"phrase": "Os\xe9"}\n')
    with pytest.raises(DataError, match=re.escape(
        f"{path}:3: not UTF-8 text (invalid continuation byte, byte 0xe9)"
    )):
        read_results(path)


# -- record checks against the field-by-field reference ---------------------


def _ref_check_tokens(text, toks, where):
    if not toks:
        raise DataError(f"{where}: sentence has no tokens")
    prev_end = 0
    for i, (surface, start, end) in enumerate(toks):
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


def _ref_sentence_from_record(obj, where):
    """The corpus record check as it was before it took one pass, kept as
    the reference for what a record is and how each fault is worded. It
    checks the record's (surface, start, end) triples, then keeps only the
    surfaces."""
    if not isinstance(obj, dict):
        raise DataError(f"{where}: expected an object, got {type(obj).__name__}")
    try:
        sid = obj["sentence_id"]
        text = obj["text"]
        tokens = obj["tokens"]
    except KeyError as e:
        raise DataError(f"{where}: missing field {e.args[0]!r}") from None
    if not isinstance(sid, str) or not sid:
        raise DataError(f"{where}: sentence_id must be a non-empty string, got {sid!r}")
    if not isinstance(text, str):
        raise DataError(f"{where}: text must be a string, got {text!r}")
    if not isinstance(tokens, list):
        raise DataError(f"{where}: tokens must be an array, got {tokens!r}")
    toks = []
    for i, token in enumerate(tokens):
        try:
            surface, start, end = token
        except (TypeError, ValueError):
            surface = start = end = None
        if type(surface) is not str or type(start) is not int or type(end) is not int:
            raise DataError(
                f"{where}: malformed tokens: token {i} must be [string, int, int], "
                f"got {token!r}"
            )
        toks.append((surface, start, end))
    _ref_check_tokens(text, toks, where)
    return CorpusSentence(sentence_id=sid, text=text, tokens=tuple(s for s, _, _ in toks))


def _ref_is_finite_number(value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _ref_phrase_from_record(obj, where):
    """The results record check as it was before its one-pass read."""
    if not isinstance(obj, dict):
        raise DataError(f"{where}: expected an object, got {type(obj).__name__}")
    missing = [f for f in RESULT_FIELDS if f not in obj]
    if missing:
        raise DataError(f"{where}: missing field {missing[0]!r}")
    for f in ("question_id", "phrase", "sentence_id"):
        if not isinstance(obj[f], str):
            raise DataError(f"{where}: {f} must be a string, got {obj[f]!r}")
    for f in ("rank", "char_start", "char_end"):
        if isinstance(obj[f], bool) or not isinstance(obj[f], int):
            raise DataError(f"{where}: {f} must be an integer, got {obj[f]!r}")
    score = obj["score"]
    if not _ref_is_finite_number(score):
        raise DataError(f"{where}: score must be a finite number, got {score!r}")
    p = RetrievedPhrase(
        question_id=obj["question_id"],
        rank=obj["rank"],
        surface=obj["phrase"],
        score=float(score),
        sentence_id=obj["sentence_id"],
        char_start=obj["char_start"],
        char_end=obj["char_end"],
    )
    if p.rank < 1:
        raise DataError(f"{where}: rank must be >= 1, got {p.rank}")
    return p


def _outcome(check, *args):
    """What ``check`` returns, or the message of the DataError it raises."""
    try:
        return check(*args)
    except DataError as e:
        return ("DataError", str(e))


# JSON values of every type, for a field or token part to be replaced by
_ODD = st.sampled_from([True, False, None, 0, -1, 2, 99, 1.0, 2.5, "0", "ab", "", [], {}])


@st.composite
def _corpus_records(draw):
    """A well-formed corpus record, then up to three faults: a token part of
    another type, a token of two, four or no fields, a shifted offset (out
    of bounds, overlapping or a slice lie), two tokens swapped, a tab or
    newline inside a token or between tokens, or a record field of the
    wrong shape or missing."""
    text, tokens = "", []
    for word in draw(st.lists(st.text("ab", min_size=1, max_size=3), min_size=1, max_size=5)):
        text += draw(st.sampled_from(["", "", " ", " ", " ", "\t"]))
        tokens.append([word, len(text), len(text) + len(word)])
        text += word
    rec = {"sentence_id": "s", "text": text, "tokens": tokens}
    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2, 2, 3]))):
        kind = draw(st.integers(0, 11))
        if tokens and kind < 8:
            # kind 4 stretches the last token past the end of the text
            i = len(tokens) - 1 if kind == 4 else draw(st.integers(0, len(tokens) - 1))
            token, part = tokens[i], 2 if kind == 4 else draw(st.integers(0, 2))
            if kind == 7 or not isinstance(token, list) or len(token) != 3:
                tokens[i] = draw(_ODD)
            elif kind < 2:
                token[part] = draw(_ODD)
            elif kind < 5 and type(token[part]) is int:
                shifts = [1, 2, 9] if kind == 4 else [-9, -2, -1, 1, 2, 9]
                token[part] += draw(st.sampled_from(shifts))
            elif kind == 5 and type(token[1]) is type(token[2]) is int and token[1] < len(text):
                # a tab or newline inside a token, its surface still the slice
                start = max(token[1], 0)
                text = text[:start] + draw(st.sampled_from(["\t", "\n"])) + text[start + 1:]
                rec["text"], token[0] = text, text[start:token[2]]
            elif kind == 6 and i:
                tokens[i - 1], tokens[i] = token, tokens[i - 1]
            elif kind == 6:
                tokens[i] = token[:2] if draw(st.booleans()) else token + [0]
        elif kind < 10:
            i = draw(st.integers(0, len(text)))
            rec["text"] = text = text[:i] + draw(st.sampled_from(["\t", "\n", "b"])) + text[i:]
        elif draw(st.booleans()):
            rec[draw(st.sampled_from(["sentence_id", "text", "tokens"]))] = draw(_ODD)
        else:
            rec.pop(draw(st.sampled_from(["sentence_id", "text", "tokens"])), None)
    return json.loads(json.dumps(rec))


@settings(max_examples=500, deadline=None)
@given(_corpus_records())
def test_corpus_record_checks_match_the_reference(rec):
    expected = _outcome(_ref_sentence_from_record, rec, "c:1")
    assert _outcome(sentence_from_record, rec, "c:1") == expected
    assert _outcome(sentence_from_record, rec, "c:1", {}) == expected
    # the check alone raises the same error, or passes
    failed = isinstance(expected, tuple)
    assert _outcome(_check_record, rec, "c:1") == (expected if failed else None)


@st.composite
def _result_records(draw):
    """A results record, its rank sometimes 0, with up to three fields
    replaced by another JSON value or removed; now and then not an object
    at all."""
    rec = phrase(
        rank=draw(st.integers(0, 3)),
        score=draw(st.sampled_from([98.0, 0.5, -1.0])),
    ).to_record()
    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2, 2, 3]))):
        field = draw(st.sampled_from(RESULT_FIELDS))
        if draw(st.integers(0, 5)):
            rec[field] = draw(_ODD | st.sampled_from([math.nan, math.inf, 10**400]))
        else:
            rec.pop(field, None)
    return draw(st.sampled_from([rec] * 8 + [[rec], "rec"]))


@settings(max_examples=500, deadline=None)
@given(_result_records())
def test_result_record_checks_match_the_reference(rec):
    got = _outcome(_phrase_from_record, rec, "r:1")
    assert got == _outcome(_ref_phrase_from_record, rec, "r:1")
    if isinstance(got, RetrievedPhrase):
        assert type(got.score) is float


# -- line decoding against json.loads ---------------------------------------


def _ref_jsonl_records(lines, source):
    """The line reader as it was before its ``raw_decode`` fast path: every
    line through ``json.loads``. Every error ``json.loads`` raises for a line
    is a DataError, an integer too long to convert and nesting too deep to
    decode included."""
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        where = f"{source}:{lineno}"
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as e:
            raise DataError(f"{where}: invalid JSON: {e}") from None
        yield obj, where


def _typed(value):
    """``value`` with the type of every part spelled out, so that 1, 1.0 and
    True, 0.0 and -0.0, and NaN and NaN compare as they should."""
    if isinstance(value, dict):
        return ("dict", [(k, _typed(v)) for k, v in value.items()])
    if isinstance(value, list):
        return ("list", [_typed(v) for v in value])
    return (type(value).__name__, repr(value))


def _read_all(reader, lines):
    """Every (record, where) the reader yields, then the exception that
    stopped it (type and message), if one did."""
    got = []
    try:
        for obj, where in reader(lines, "src"):
            got.append((_typed(obj), where))
    except Exception as e:  # noqa: BLE001 - the type and message are compared
        got.append((type(e).__name__, str(e)))
    return got


# JSON whitespace, then other whitespace str.strip() removes, a BOM, a NUL
_SPACE = st.sampled_from(
    [" ", "\t", "\r", "\n", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028",
     "\u3000", "\ufeff", "\x00"]
)
_ATOMS = st.sampled_from(
    ["null", "true", "false", "0", "-0", "-0.0", "0.0", "1e400", "-1e400", "2.5E-3",
     "NaN", "Infinity", "-Infinity", "9" * 30, "-" + "1" * 25, "1" * 4301,
     '""', '"a"', '"\\u00e9\\n"', '"\\ud800"', '"\u00e9\\t"', "nan", "True", "+1", "01", "'a'"]
)


@st.composite
def _json_text(draw, depth=0):
    """JSON text, sometimes broken: atoms of every kind, arrays, and objects
    whose keys repeat, with JSON whitespace between tokens."""
    kind = draw(st.integers(0, 4 if depth < 3 else 1))
    if kind == 0:
        return draw(_ATOMS)
    if kind == 1:
        return json.dumps(draw(st.one_of(st.text(max_size=4), st.floats(), st.integers())))
    gap = draw(st.sampled_from(["", "", " ", "\t", "\n", " \r\n "]))
    items = draw(st.lists(_json_text(depth + 1), max_size=3))
    if kind == 2:
        return "[" + gap + ("," + gap).join(items) + "]"
    keys = draw(st.lists(st.sampled_from(['"a"', '"b"', '""', '"\\u0061"']), min_size=len(items),
                         max_size=len(items)))
    return "{" + ",".join(f"{k}{gap}:{gap}{v}" for k, v in zip(keys, items)) + "}"


@st.composite
def _jsonl_lines(draw):
    """One to five lines: JSON text with any whitespace (or a BOM) before and
    after it, trailing garbage, or nothing at all, most ending in a newline."""
    lines = []
    for _ in range(draw(st.integers(1, 5))):
        head = "".join(draw(st.lists(_SPACE, max_size=2))) if draw(st.booleans()) else ""
        body = draw(_json_text()) if draw(st.integers(0, 5)) else ""
        tail = "".join(draw(st.lists(_SPACE | st.sampled_from(["x", "}", "]", ",", "1", "{}"]),
                                     max_size=2))) if draw(st.booleans()) else ""
        lines.append(head + body + tail + draw(st.sampled_from(["\n", "\n", ""])))
    return lines


@settings(max_examples=800, deadline=None)
@given(_jsonl_lines())
@example(['{"a": 1}\n', ' {"a": 1}\n', '{"a": 1} \n', '{"a": 1}\r\n', "[1, 2]\n", "-0.0\n",
          "NaN\n", '{"a": 1, "a": 2}\n', "", "\n", " \t\n", "\x0b\n", '{"a": 1}'])
@example(["{}\n", "\x0b{}\n"])
@example(["{}\n", "\ufeff{}\n"])
@example(["{}\n", "{} {}\n"])
@example(["{}\n", "{}x"])
@example(["{}\n", "{oops\n"])
@example(["{}\n", "1" * 4301 + "\n"])
@example(["{}\n", "[" * 100_000 + "]" * 100_000 + "\n"])
@example(["{}\n", " " + "[" * 100_000 + "\n"])
def test_jsonl_records_match_json_loads_line_by_line(lines):
    assert _read_all(jsonl_records, lines) == _read_all(_ref_jsonl_records, lines)


# A value Python's decoder refuses although it may be valid JSON: an integer
# past the int-string digit limit, and nesting past the recursion limit.
_UNDECODABLE = {
    "long-int": ("1" * 5000, "Exceeds the limit (4300 digits)"),
    "deep-nesting": ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
}


@pytest.mark.parametrize("kind", sorted(_UNDECODABLE))
@pytest.mark.parametrize("source", ["replay", "remote"])
def test_undecodable_json_is_a_data_error(tmp_path, monkeypatch, source, kind):
    text, reason = _UNDECODABLE[kind]
    if source == "replay":
        path = tmp_path / "results.jsonl"
        path.write_text(json.dumps(phrase(rank=1).to_record()) + "\n" + text + "\n",
                        encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{path}:2: invalid JSON: {reason}")):
            read_results(path)
    else:
        reply = SimpleNamespace(status_code=200, json=lambda: json.loads(text))
        monkeypatch.setattr("requests.get", lambda *args, **kwargs: reply)
        with pytest.raises(DataError, match=re.escape(f"response is not JSON: {reason}")):
            fetch_remote("Which city?", "http://localhost:9", 2, question_id="t:q", attempts=1)


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


def test_ingest_validates_against_corpus(tmp_path):
    s1 = sent("s1", "Leprosy is chronic")
    ok = phrase(qid="a", rank=1, surface="Leprosy", sid="s1", start=0)
    check_evidence(ok, s1, "<hit>")

    bad_slice = phrase(qid="a", rank=1, surface="Leprosy", sid="s1", start=1, end=8)
    with pytest.raises(DataError, match="slice"):
        check_evidence(bad_slice, s1, "<hit>")

    unknown = phrase(qid="a", rank=1, sid="nope")
    with pytest.raises(DataError, match="unknown sentence_id"):
        check_evidence(unknown, None, "<hit>")

    out_of_bounds = phrase(qid="a", rank=1, surface="x", sid="s1", start=100, end=101)
    with pytest.raises(DataError, match="bounds"):
        check_evidence(out_of_bounds, s1, "<hit>")

    # read_results checks each hit against a corpus it is given, after the
    # record checks.
    path = tmp_path / "results.jsonl"
    path.write_text("\n".join(_lines(ok, phrase(qid="b", rank=1, sid="nope"))), encoding="utf-8")
    assert read_results(path)["a"] == [ok]
    with pytest.raises(DataError, match=re.escape(f"{path} (b rank 1): unknown sentence_id")):
        read_results(path, {"s1": s1})


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
    with pytest.raises(DataError, match="missing field 'phrase'"):
        ingest_results(['{"question_id": "a"}'])
    with pytest.raises(DataError, match="rank"):
        ingest_results(_lines(phrase(rank=0)))
    # a field of the wrong type is reported before a rank below 1
    bad_score = json.dumps(dict(phrase(rank=0).to_record(), score="x"))
    with pytest.raises(DataError, match=re.escape("score must be a finite number, got 'x'")):
        ingest_results([bad_score])
    with pytest.raises(DataError, match="JSON"):
        ingest_results(["{oops"])


def _ref_rank_sorted(records, question_id=None):
    """The results grouping as it was before its one-pass form: every hit
    kept in a {rank: (hit, where)} map per question, each question's ranks
    sorted once the stream is read, then its scores checked."""
    groups = {}
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
    out = {}
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


@st.composite
def _ranked_streams(draw):
    """(record, where) pairs over up to three questions: ranks shuffled, a
    few of them repeated, scores that mostly fall as rank rises but now and
    then tie or rise, and now and then a record that fails its own checks
    (rank 0, a phrase that is not a string, not an object)."""
    n = draw(st.integers(0, 14))
    qids = draw(st.lists(st.sampled_from("abc"), min_size=n, max_size=n))
    ranks = list(draw(st.permutations(range(1, n + 1))))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2])) if n else 0):
        ranks[draw(st.integers(0, n - 1))] = ranks[draw(st.integers(0, n - 1))]
    stream = []
    for i, (qid, rank) in enumerate(zip(qids, ranks)):
        bump = draw(st.sampled_from([0.0] * 6 + [1.0, 50.0]))
        rec = phrase(qid=qid, rank=rank, score=100.0 - rank + bump).to_record()
        if not draw(st.integers(0, 11)):
            rec = draw(st.sampled_from([dict(rec, rank=0), dict(rec, phrase=None), [rec]]))
        stream.append((rec, f"src:{i + 1}"))
    return stream


@seed(26)
@settings(max_examples=500, deadline=None)
@given(_ranked_streams(), st.sampled_from([None, "a"]))
@example([(phrase(rank=3).to_record(), "src:1"), (phrase(rank=3).to_record(), "src:2")], None)
@example([(phrase(rank=2, score=5.0).to_record(), "src:1"),
          (phrase(rank=1, score=4.0).to_record(), "src:2")], None)
def test_rank_grouping_matches_the_two_pass_reference(stream, question_id):
    assert _outcome(_rank_sorted, stream, question_id) == _outcome(
        _ref_rank_sorted, stream, question_id
    )


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


@pytest.mark.parametrize("source", ["replay", "remote"])
def test_integer_score_loads_and_writes_as_float(tmp_path, monkeypatch, source):
    record = dict(phrase(rank=1).to_record(), score=98)
    if source == "replay":
        path = tmp_path / "results.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        groups = read_results(path)
    else:
        reply = SimpleNamespace(status_code=200, json=lambda: [record])
        monkeypatch.setattr("requests.get", lambda *args, **kwargs: reply)
        groups = {"t:q": fetch_remote("Which city?", "http://localhost:9", 1, question_id="t:q")}
    (hit,) = groups["t:q"]
    assert type(hit.score) is float and hit.score == 98.0
    assert '"score": 98.0,' in serialize_results(groups)


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


def test_budget_walk_exhaustion():
    out = collect_training_sentences(_ranked(["A", "B", "A", "C", "B"]), k_l=5)
    assert out.kept_sentences == ("A", "B", "C")
    assert len(out.kept_phrases) == 5
    assert out.exhausted is True


def test_budget_walk_empty_results():
    out = collect_training_sentences([], k_l=3)
    assert out.kept_sentences == ()
    assert out.kept_phrases == ()
    assert out.exhausted is True


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
