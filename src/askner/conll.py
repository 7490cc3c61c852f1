"""Token<TAB>tag CoNLL reading and writing.

Sentences are separated by one blank line and the file ends with a newline.
The format carries no sentence ids, so the reader synthesizes positional
ones (s000001, ...), which keeps gold/prediction files alignable by
position. Every tag must be one ``metrics.extract_entities`` reads (``O``,
``B-type`` or ``I-type``), so a bad tag is reported with its file and line
when read, not later by the scorer.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from .annotator import LabeledSentence
from .errors import DataError
from .metrics import extract_entities
from .retrieval import not_utf8


def format_conll(sentences: Iterable[LabeledSentence]) -> str:
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


def parse_conll(text: str, source: str = "<conll>") -> list[LabeledSentence]:
    sentences: list[LabeledSentence] = []
    tokens: list[str] = []
    tags: list[str] = []

    def flush():
        if tokens:
            sid = f"s{len(sentences) + 1:06d}"
            sentences.append(LabeledSentence(sid, tuple(tokens), tuple(tags)))
            tokens.clear()
            tags.clear()

    known: set[str] = set()  # tags already checked
    for lineno, line in enumerate(text.split("\n"), 1):
        if not line.strip():
            flush()
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(
                f"{source}:{lineno}: expected token<TAB>tag, got {line!r}"
            )
        token, tag = parts
        if not tag.strip():
            raise DataError(f"{source}:{lineno}: empty tag")
        if tag not in known:
            try:
                extract_entities((tag,))
            except DataError:
                raise DataError(f"{source}:{lineno}: unparseable tag {tag!r}") from None
            known.add(tag)
        tokens.append(token)
        tags.append(tag)
    flush()
    return sentences


def read_conll(path: str | Path) -> list[LabeledSentence]:
    r"""Read a CoNLL file as text mode reads it: UTF-8, with "\r\n" and a
    lone "\r" read as "\n". A file that is not UTF-8 is a DataError naming
    the line of its first bad byte."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise not_utf8(str(path), 1, data, e) from None
    return parse_conll(text.replace("\r\n", "\n").replace("\r", "\n"), source=str(path))
