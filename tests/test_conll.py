import re

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from askner.conll import format_conll, parse_conll, read_conll
from askner.errors import DataError
from testutil import labeled


def _sentences():
    return [
        labeled("s000001", ["Oslo", "froze"], ["B-LOC", "O"]),
        labeled("s000002", ["Anna", "met", "Bo"], ["B-PER", "O", "B-PER"]),
    ]


def test_format_is_tab_separated_with_blank_lines():
    text = format_conll(_sentences())
    assert text == (
        "Oslo\tB-LOC\n"
        "froze\tO\n"
        "\n"
        "Anna\tB-PER\n"
        "met\tO\n"
        "Bo\tB-PER\n"
    )
    assert format_conll([]) == ""


def test_roundtrip_identity():
    original = _sentences()
    again = parse_conll(format_conll(original))
    assert again == original
    # a second trip is byte-stable
    assert format_conll(again) == format_conll(original)


def test_file_roundtrip(tmp_path):
    path = tmp_path / "data.conll"
    path.write_text(format_conll(_sentences()), encoding="utf-8")
    assert read_conll(path) == _sentences()


def test_reader_synthesizes_positional_ids():
    got = parse_conll("A\tO\n\nB\tO\n")
    assert [s.sentence_id for s in got] == ["s000001", "s000002"]


def test_reader_skips_extra_blank_lines():
    got = parse_conll("A\tO\n\n\n\nB\tO\n\n")
    assert len(got) == 2


def test_reader_rejects_malformed_lines():
    with pytest.raises(DataError, match=":2"):
        parse_conll("A\tO\nB O\n")
    with pytest.raises(DataError, match="empty tag"):
        parse_conll("A\t\n")
    with pytest.raises(DataError, match=":1"):
        parse_conll("one\ttwo\tthree\n")


def test_reader_names_the_line_of_an_unparseable_tag():
    with pytest.raises(DataError, match=r"<conll>:2: unparseable tag 'X-foo'"):
        parse_conll("A\tO\nB\tX-foo\n")
    # CRLF text leaves "\r" on every tag; "O\r" is the first that the
    # entity decoder cannot read ("B-LOC\r" reads as type "LOC\r").
    with pytest.raises(DataError, match=re.escape("x.conll:2: unparseable tag 'O\\r'")):
        parse_conll("Oslo\tB-LOC\r\nfroze\tO\r\n\r\nAnna\tB-PER\r\n", source="x.conll")


def test_crlf_file_reads_like_lf(tmp_path):
    # read_conll reads text with universal newlines, so no "\r" reaches a tag.
    path = tmp_path / "crlf.conll"
    path.write_bytes(format_conll(_sentences()).replace("\n", "\r\n").encode("utf-8"))
    assert read_conll(path) == _sentences()


def test_tags_with_spaces_survive():
    sents = [labeled("s000001", ["Arsenal"], ["B-sports team"])]
    assert parse_conll(format_conll(sents)) == sents


def test_writer_rejects_tabs_in_tokens():
    with pytest.raises(DataError, match="tab"):
        format_conll([labeled("s1", ["a\tb"], ["O"])])


def _ref_format_conll(sentences):
    """The writer as it was before it joined each block in one go: every
    token and tag checked for a tab or newline as its line is built."""
    blocks = []
    for sent in sentences:
        lines = []
        for token, tag in zip(sent.tokens, sent.tags):
            if "\t" in token or "\n" in token or "\t" in tag or "\n" in tag:
                raise DataError(
                    f"{sent.sentence_id}: token/tag contains tab or newline: "
                    f"{token!r} / {tag!r}"
                )
            lines.append(f"{token}\t{tag}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n" if blocks else ""


def _outcome(sentences, writer):
    try:
        return writer(sentences)
    except DataError as e:
        return ("DataError", str(e))


_PART = st.text(st.sampled_from("ab\t\n é"), max_size=4) | st.sampled_from(["O", "B-X", "I-X"])


@st.composite
def _labeled(draw, index):
    """A sentence of up to four tokens (often none), a tab or newline
    anywhere in any token or tag."""
    n = draw(st.sampled_from([0, 0, 1, 2, 3, 4]))
    tokens = draw(st.lists(_PART, min_size=n, max_size=n))
    tags = draw(st.lists(_PART, min_size=n, max_size=n))
    return labeled(f"s{index}", tokens, tags)


@seed(26)
@settings(max_examples=500, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: st.tuples(*(_labeled(i) for i in range(n)))))
@example(())
@example((labeled("s0", [], []),))
@example((labeled("s0", ["a"], ["O"]), labeled("s1", ["a\tb", "c\nd"], ["O", "O"])))
@example((labeled("s0", ["a\t", "b"], ["\n", "O"]),))
def test_writer_matches_the_line_by_line_reference(sentences):
    assert _outcome(sentences, format_conll) == _outcome(sentences, _ref_format_conll)

def test_empty_input_parses_to_nothing():
    assert parse_conll("") == []
    assert parse_conll("\n\n") == []
