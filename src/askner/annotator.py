"""Dictionary construction and sentence annotation.

Normalized phrases are pooled into a pseudo-dictionary keyed by their
whitespace-collapsed lowercase surface, with per-type retrieval counts.
Sentences are annotated by matching dictionary keys against consecutive
tokens (case-insensitive, token boundaries respected), resolving overlaps
leftmost-longest, applying the two match-time rules:

9.  reject a single-token match whose in-sentence surface is lowercase
10. grow a match to the smallest quality-phrase span strictly containing it

and then splitting each ambiguous key's occurrences between its types by
largest-remainder apportionment over the retrieval counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Sequence

from .errors import DataError, InternalInvariantError
from .normalizer import NormalizedPhrase, RuleSet, surface_key
from .retrieval import CorpusSentence


@dataclass
class DictEntry:
    key: str
    counts: dict[str, int] = field(default_factory=dict)  # output type -> count

    @property
    def total(self) -> int:
        return sum(self.counts.values())


@dataclass
class PseudoDictionary:
    """Entries plus two side tables that never become entries themselves:
    abbreviation patterns (short form -> entry key) and quality phrases used
    by rule 10."""

    entries: dict[str, DictEntry] = field(default_factory=dict)
    abbreviations: dict[str, str] = field(default_factory=dict)
    quality_phrases: frozenset[str] = frozenset()


def build_dictionary(
    weighted: Iterable[tuple[NormalizedPhrase, int]],
    quality_phrases: Iterable[str] = (),
) -> PseudoDictionary:
    """Pool (normalized phrase, count) pairs into keyed entries with
    per-type counts.

    Each pair adds its count to (its phrase's key, its output type); a
    phrase that several hits gave comes once, with the number of those hits
    as its count. Rule 8 short forms are registered as match-time patterns
    pointing at the long form's key — first claim wins, and short forms
    identical to a real entry key are dropped so they cannot double-match.
    """
    entries: dict[str, DictEntry] = {}
    abbreviations: dict[str, str] = {}
    for np, count in weighted:
        key = surface_key(np.surface)
        if not key:
            raise InternalInvariantError(f"normalized phrase collapses to empty key: {np!r}")
        entry = entries.get(key)
        if entry is None:
            entry = entries[key] = DictEntry(key=key)
        entry.counts[np.type_label] = entry.counts.get(np.type_label, 0) + count
        if np.abbreviation:
            short = surface_key(np.abbreviation)
            if short and short not in abbreviations:
                abbreviations[short] = key
    abbreviations = {s: k for s, k in abbreviations.items() if s not in entries}
    return PseudoDictionary(
        entries=entries,
        abbreviations=abbreviations,
        quality_phrases=frozenset(surface_key(q) for q in quality_phrases if surface_key(q)),
    )


def dump_dictionary(dictionary: PseudoDictionary) -> str:
    """TSV dump: phrase<TAB>type<TAB>count, sorted by (phrase, type)."""
    lines = []
    for key in sorted(dictionary.entries):
        for type_name in sorted(dictionary.entries[key].counts):
            lines.append(f"{key}\t{type_name}\t{dictionary.entries[key].counts[type_name]}")
    return "\n".join(lines) + "\n" if lines else ""


@dataclass(slots=True)
class MatchSpan:
    """A dictionary hit over tokens [token_start, token_end) of a sentence."""

    sentence_id: str
    token_start: int
    token_end: int
    phrase_key: str
    assigned_type: str | None = None

    def overlaps(self, other: "MatchSpan") -> bool:
        return (
            self.sentence_id == other.sentence_id
            and self.token_start < other.token_end
            and other.token_start < self.token_end
        )


class _WordTrie:
    """Word-level trie over pattern word tuples; values are pattern keys."""

    __slots__ = ("root",)
    _LEAF = object()

    def __init__(self, patterns: Iterable[str]):
        self.root: dict = {}
        for pattern in patterns:
            node = self.root
            for word in pattern.split():
                node = node.setdefault(word, {})
            node[self._LEAF] = pattern

    def scan(self, token_words: Sequence[Sequence[str]]) -> list[tuple[int, int, str]]:
        """All token windows whose flattened words spell a pattern.

        A window [start, end) matches when walking every word of every token
        in it lands on a pattern node — so matches always cover whole tokens,
        even for the odd token that carries several words (or none).
        """
        root = self.root
        hits = []
        # A window can only begin at a token whose first word starts a
        # pattern, or at a token with no words, which walks nothing.
        for start in [i for i, w in enumerate(token_words) if not w or w[0] in root]:
            node = root
            for end in range(start, len(token_words)):
                for word in token_words[end]:
                    node = node.get(word)
                    if node is None:
                        break
                else:
                    pattern = node.get(self._LEAF)
                    if pattern is not None:
                        hits.append((start, end + 1, pattern))
                    continue
                break
        return hits


class _TokenWords(dict):
    """{token text: its lowercased words}, each text split on first use."""

    def __missing__(self, surface: str) -> tuple[str, ...]:
        words = self[surface] = tuple(surface.lower().split())
        return words


def match_sentences(
    dictionary: PseudoDictionary,
    sentences: Iterable[CorpusSentence],
    rules: RuleSet,
) -> list[MatchSpan]:
    """Match dictionary keys (and abbreviation patterns) against sentences.

    A window of consecutive tokens matches a key when the lowercased token
    surfaces joined by single spaces equal the key. Overlaps resolve
    leftmost-longest: earlier start wins, then longer span. Abbreviation
    hits carry the long form's key so they share its apportionment pool.
    """
    if not dictionary.entries:
        raise ValueError("dictionary is empty")
    pattern_to_key = {key: key for key in dictionary.entries}
    for short, key in dictionary.abbreviations.items():
        pattern_to_key[short] = key
    trie = _WordTrie(pattern_to_key)
    quality_trie = (
        _WordTrie(dictionary.quality_phrases)
        if rules.is_enabled(10) and dictionary.quality_phrases
        else None
    )

    words_of = _TokenWords().__getitem__
    rule_9 = rules.is_enabled(9)
    out: list[MatchSpan] = []
    for sentence in sentences:
        words = list(map(words_of, sentence.tokens))
        raw = trie.scan(words)
        if rule_9:
            raw = [
                (s, e, pat)
                for s, e, pat in raw
                if not (e - s == 1 and sentence.tokens[s].islower())
            ]
        if not raw:
            continue
        if len(raw) > 1:
            raw.sort(key=lambda hit: (hit[0], -(hit[1] - hit[0])))
        spans: list[MatchSpan] = []
        last_end = -1
        for s, e, pat in raw:
            if s >= last_end:
                spans.append(MatchSpan(sentence.sentence_id, s, e, pattern_to_key[pat]))
                last_end = e
        if quality_trie is not None:
            qp_spans = quality_trie.scan(words)
            for i, span in enumerate(spans):
                grown = _grow_span(span, qp_spans)
                if grown is not span and not any(
                    grown.overlaps(other) for j, other in enumerate(spans) if j != i
                ):
                    spans[i] = grown
        out.extend(spans)
    return out


def _grow_span(span: MatchSpan, qp_spans: list[tuple[int, int, str]]) -> MatchSpan:
    containing = [
        (e - s, s, e)
        for s, e, _ in qp_spans
        if s <= span.token_start and e >= span.token_end and (e - s) > (span.token_end - span.token_start)
    ]
    if not containing:
        return span
    _, s, e = min(containing)
    return MatchSpan(span.sentence_id, s, e, span.phrase_key)


def apportion_types(entry: DictEntry, occurrences: Sequence[MatchSpan]) -> list[MatchSpan]:
    """Split one entry's occurrences between its types by retrieval counts.

    Largest-remainder rounding over quotas N * count_t / total; leftover
    seats go to the largest fractional remainders (ties: larger count, then
    type name). Occurrences are ordered by (sentence_id, token_start) and
    dealt in contiguous blocks, types in descending allocated count.
    """
    if not entry.counts or any(c <= 0 for c in entry.counts.values()):
        raise ValueError(f"entry {entry.key!r} needs positive type counts")
    off_key = [o for o in occurrences if o.phrase_key != entry.key]
    if off_key:
        raise ValueError(f"occurrence for key {off_key[0].phrase_key!r} passed with {entry.key!r}")
    n = len(occurrences)
    if n == 0:
        return []
    total = entry.total
    floors = {t: n * c // total for t, c in entry.counts.items()}
    leftover = n - sum(floors.values())
    by_remainder = sorted(
        entry.counts,
        key=lambda t: (-(n * entry.counts[t] % total), -entry.counts[t], t),
    )
    alloc = dict(floors)
    for t in by_remainder[:leftover]:
        alloc[t] += 1
    ordered = sorted(occurrences, key=lambda o: (o.sentence_id, o.token_start))
    dealing = sorted(alloc, key=lambda t: (-alloc[t], -entry.counts[t], t))
    out: list[MatchSpan] = []
    i = 0
    for t in dealing:
        for _ in range(alloc[t]):
            o = ordered[i]
            out.append(MatchSpan(o.sentence_id, o.token_start, o.token_end, o.phrase_key, t))
            i += 1
    if i != n:
        raise InternalInvariantError(f"apportionment assigned {i} of {n} occurrences")
    return out


def assign_types(dictionary: PseudoDictionary, spans: Sequence[MatchSpan]) -> list[MatchSpan]:
    """Apportion every entry's occurrences; single-type entries short-circuit."""
    by_key: dict[str, list[MatchSpan]] = {}
    for span in spans:
        by_key.setdefault(span.phrase_key, []).append(span)
    out: list[MatchSpan] = []
    for key, occs in by_key.items():
        entry = dictionary.entries.get(key)
        if entry is None:
            raise InternalInvariantError(f"match references unknown dictionary key {key!r}")
        if len(entry.counts) == 1:
            only = next(iter(entry.counts))
            out.extend(
                MatchSpan(o.sentence_id, o.token_start, o.token_end, o.phrase_key, only)
                for o in occs
            )
        else:
            out.extend(apportion_types(entry, occs))
    return out


@dataclass(slots=True)
class LabeledSentence:
    """Tokens plus aligned BIO tags."""

    sentence_id: str
    tokens: tuple[str, ...]
    tags: tuple[str, ...]

    def __post_init__(self):
        if len(self.tokens) != len(self.tags):
            raise DataError(
                f"{self.sentence_id}: {len(self.tokens)} tokens vs {len(self.tags)} tags"
            )


_token_start = attrgetter("token_start")


def emit_bio(
    sentences: Sequence[CorpusSentence], spans: Sequence[MatchSpan]
) -> list[LabeledSentence]:
    """Project assigned spans onto BIO tags, one LabeledSentence per input.

    Spans must be fully assigned, in-bounds, and non-overlapping; violations
    are internal invariant errors since upstream stages guarantee them. Each
    type's B- and I- tag is one string shared by every token it tags.
    """
    bio: dict[str, tuple[str, str]] = {}
    by_sid: dict[str, list[MatchSpan]] = {}
    known = {s.sentence_id for s in sentences}
    for span in spans:
        if span.sentence_id not in known:
            raise InternalInvariantError(f"span references unknown sentence {span.sentence_id!r}")
        if span.assigned_type is None:
            raise InternalInvariantError(f"span has no assigned type: {span}")
        if span.assigned_type not in bio:
            bio[span.assigned_type] = (f"B-{span.assigned_type}", f"I-{span.assigned_type}")
        by_sid.setdefault(span.sentence_id, []).append(span)
    out = []
    for sentence in sentences:
        n = len(sentence.tokens)
        tags = ["O"] * n
        sent_spans = by_sid.get(sentence.sentence_id, ())
        if len(sent_spans) > 1:
            sent_spans.sort(key=_token_start)
        last_end = 0
        for span in sent_spans:
            if not 0 <= span.token_start < span.token_end <= n:
                raise InternalInvariantError(f"span out of bounds: {span}")
            if span.token_start < last_end:
                raise InternalInvariantError(f"overlapping spans at {span}")
            last_end = span.token_end
            begin, inside = bio[span.assigned_type]
            tags[span.token_start] = begin
            for i in range(span.token_start + 1, span.token_end):
                tags[i] = inside
        out.append(LabeledSentence(sentence.sentence_id, sentence.tokens, tuple(tags)))
    return out
