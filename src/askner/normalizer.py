"""Phrase normalization.

Raw retrieved phrases are noisy: coordinated lists, stray punctuation,
generic lowercase fragments, echoes of the question itself. An ordered rule
pipeline (rules 1-8) cleans them into dictionary phrases; two further
rules (9-10) apply at dictionary-matching time and live in the annotator.
Rules 1-7 rewrite a fragment on its own and can be run one at a time with
``apply_rule``; rule 8 reads the evidence sentence, so only ``normalize``
applies it. Rules 1-7 read nothing but the phrase, the ``RuleSet`` and the
type label, so a ``RuleSet`` runs them once per distinct (phrase, label) and
keeps the fragments. Rule 8 runs on every ``normalize`` call. ``generate``
calls ``normalize`` once per distinct phrase of each sub-question, or, when
the sub-question enables rule 8, once per distinct (phrase, evidence text),
and counts the result once per hit.

Rules, in the fixed order they run:

1. split the phrase on standalone ``and``
2. strip leading/trailing punctuation
3. drop fragments containing letters but no uppercase letter
4. strip a leading ``the ``
5. drop fragments shorter than ``min_length`` characters
6. drop fragments whose lowercase form is a stopword
7. drop fragments equal (case-insensitive) to the question's type label
8. attach a parenthetical abbreviation found next to the phrase in its
   evidence sentence

A disabled rule is skipped; enabled rules always run in ascending order.
``rule_ids`` is the one place that knows which rule ids exist: the config,
the question set and ``RuleSet`` all validate through it. ``surface_key`` is
the dictionary key rule 7 compares by and the annotator pools phrases under.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from .errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover
    from .retrieval import CorpusSentence, RetrievedPhrase

#: Rules that operate on dictionary matches rather than on phrases.
MATCH_TIME_RULES = frozenset({9, 10})

DEFAULT_MIN_LENGTH = 3

#: The stopword list rule 6 uses when a config names none.
BUNDLED_STOPWORDS = Path(__file__).parent / "data" / "stopwords.txt"


def rule_ids(ids: Iterable[int], where: str) -> frozenset[int]:
    """``ids`` as a set; ConfigError naming ``where`` and the ids outside 1-10."""
    ids = frozenset(ids)
    bad = sorted(r for r in ids if r not in range(1, 11))
    if bad:
        raise ConfigError(f"{where}: unknown rule ids {bad}")
    return ids


def surface_key(surface: str) -> str:
    """Dictionary key: lowercase, internal whitespace collapsed to single spaces."""
    return " ".join(surface.split()).lower()


def load_phrase_list(path: str | Path) -> list[str]:
    """One phrase per line; blank lines and '#' comments ignored."""
    phrases = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        phrase = line.split("#", 1)[0].strip()
        if phrase:
            phrases.append(phrase)
    return phrases


def load_stopwords(path: str | Path | None = None) -> frozenset[str]:
    """A phrase list, lowercased. None = the bundled list."""
    return frozenset(w.lower() for w in load_phrase_list(path or BUNDLED_STOPWORDS))


@dataclass(frozen=True)
class RuleSet:
    """The ids of the enabled rules, plus the knobs rules 5 and 6 read.

    It also keeps what rules 1-7 made of each (surface, type label) it has
    seen (see ``fragments``). That memo grows with the distinct phrases and
    lives as long as the rule set: ``generate`` builds one per sub-question
    per run.
    """

    enabled: frozenset[int]
    stopwords: frozenset[str] = frozenset()
    min_length: int = DEFAULT_MIN_LENGTH
    _fragments: dict[tuple[str, str], tuple[str, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False, hash=False
    )

    def __post_init__(self):
        rule_ids(self.enabled, "rule set")
        if self.min_length < 1:
            raise ConfigError(f"min_length must be >= 1, got {self.min_length}")

    @classmethod
    def from_ids(
        cls,
        ids: Iterable[int],
        stopwords: frozenset[str] = frozenset(),
        min_length: int = DEFAULT_MIN_LENGTH,
    ) -> RuleSet:
        return cls(frozenset(ids), stopwords, min_length)

    def is_enabled(self, rule_id: int) -> bool:
        return rule_id in self.enabled

    def fragments(self, surface: str, type_label: str) -> tuple[str, ...]:
        """What the enabled rules 1-7 leave of ``surface``, in rule 1's split
        order; computed on the first call for each (surface, type label)."""
        key = (surface, type_label)
        out = self._fragments.get(key)
        if out is None:
            frags = [surface.strip()] if surface.strip() else []
            for rule_id in sorted(_RULE_FUNCS.keys() & self.enabled):
                frags = [
                    f
                    for frag in frags
                    for f in apply_rule(rule_id, frag, rules=self, type_label=type_label)
                ]
            out = self._fragments[key] = tuple(frags)
        return out


@dataclass(frozen=True)
class NormalizedPhrase:
    """One dictionary candidate surviving the rule pipeline.

    ``type_label`` here is the *output* tag the phrase counts toward (several
    sub-question labels may share one output tag). ``abbreviation`` is the
    short form rule 8 found in the evidence sentence, if any.
    """

    surface: str
    type_label: str
    abbreviation: str | None = None

    def __post_init__(self):
        if not self.surface or self.surface != self.surface.strip():
            raise ValueError(f"surface must be non-empty and trimmed: {self.surface!r}")


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def _rule_split_and(fragment: str, rules: RuleSet, type_label: str) -> list[str]:
    parts: list[list[str]] = [[]]
    for tok in fragment.split():
        if tok == "and":
            parts.append([])
        else:
            parts[-1].append(tok)
    return [" ".join(p) for p in parts if p]


def _rule_strip_punct(fragment: str, rules: RuleSet, type_label: str) -> list[str]:
    prev = None
    while fragment != prev:
        prev = fragment
        fragment = fragment.strip()
        while fragment and _is_punct(fragment[0]):
            fragment = fragment[1:]
        while fragment and _is_punct(fragment[-1]):
            fragment = fragment[:-1]
    return [fragment]


def _rule_require_uppercase(fragment: str, rules: RuleSet, type_label: str) -> list[str]:
    has_alpha = any(c.isalpha() for c in fragment)
    has_upper = any(c.isupper() for c in fragment)
    if has_alpha and not has_upper:
        return []
    return [fragment]


def _rule_strip_the(fragment: str, rules: RuleSet, type_label: str) -> list[str]:
    if fragment[:4].lower() == "the ":
        return [fragment[4:]]
    return [fragment]


def _rule_min_length(fragment: str, rules: RuleSet, type_label: str) -> list[str]:
    return [fragment] if len(fragment) >= rules.min_length else []


def _rule_stopword(fragment: str, rules: RuleSet, type_label: str) -> list[str]:
    return [] if fragment.lower() in rules.stopwords else [fragment]


def _rule_drop_type_echo(fragment: str, rules: RuleSet, type_label: str) -> list[str]:
    if surface_key(fragment) == surface_key(type_label):
        return []
    return [fragment]


_RULE_FUNCS = {
    1: _rule_split_and,
    2: _rule_strip_punct,
    3: _rule_require_uppercase,
    4: _rule_strip_the,
    5: _rule_min_length,
    6: _rule_stopword,
    7: _rule_drop_type_echo,
}


def apply_rule(rule_id: int, fragment: str, *, rules: RuleSet, type_label: str) -> list[str]:
    """Apply one normalization rule to one fragment, unconditionally.

    Returns the surviving fragments (possibly several for rule 1, possibly
    none for the drop rules). Fragments are whitespace-trimmed on the way in
    and out, and empties are discarded, so chaining apply_rule over the
    enabled rules 1-7 reproduces the surfaces normalize() returns. Rule 8
    needs the evidence sentence and rules 9-10 need the dictionary matches,
    so asking for any of them is a ValueError.
    """
    if rule_id == 8:
        raise ValueError("rule 8 reads the evidence sentence; normalize() applies it")
    if rule_id in MATCH_TIME_RULES:
        raise ValueError(f"rule {rule_id} applies at dictionary-matching time, not here")
    if rule_id not in _RULE_FUNCS:
        raise ValueError(f"unknown normalization rule id: {rule_id}")
    fragment = fragment.strip()
    if not fragment:
        return []
    out = _RULE_FUNCS[rule_id](fragment, rules, type_label)
    return [f.strip() for f in out if f.strip()]


def normalize(
    phrase: "RetrievedPhrase",
    evidence: "CorpusSentence",
    rules: RuleSet,
    type_label: str,
    output_type: str | None = None,
) -> list[NormalizedPhrase]:
    """Run the enabled phrase rules (1-8) over one retrieved phrase.

    ``type_label`` is what rule 7 compares against (the sub-question label);
    ``output_type`` is the tag recorded on the results, defaulting to the
    label itself. Order within the output follows rule 1's split order.
    Rules 1-7 come from ``rules.fragments``, so they run once per distinct
    (surface, type label) per rule set; rule 8 reads ``evidence`` on every
    call. The result depends only on the surface, the evidence text, the
    rules and the labels, so hits alike in those need one call between them.
    """
    label = output_type if output_type is not None else type_label
    rule_8 = rules.is_enabled(8)
    results = []
    for frag in rules.fragments(phrase.surface, type_label):
        abbrev = None
        if rule_8 and frag in evidence.text:
            abbrev = detect_abbreviation(frag, evidence.text)
        results.append(NormalizedPhrase(surface=frag, type_label=label, abbreviation=abbrev))
    return results


def detect_abbreviation(long_form: str, sentence_text: str) -> str | None:
    """Find a parenthesized short form of ``long_form`` in ``sentence_text``.

    The candidate must sit in parentheses immediately after an occurrence of
    the long form. Following Schwartz and Hearst, it is 2 to 10 characters
    long, starts with a letter or digit, and its long form has at most
    min(n + 5, 2n) words, n being the candidate's length in characters. It
    also spans at most two tokens, contains a letter, and its characters
    must match right-to-left into the long form with the first character
    landing at a word start. Returns None when nothing qualifies.
    """
    lf_tokens = long_form.split()
    if not lf_tokens:
        return None
    start = 0
    while True:
        idx = sentence_text.find(long_form, start)
        if idx < 0:
            return None
        tail = sentence_text[idx + len(long_form):]
        after = tail.lstrip()
        if after.startswith("("):
            close = after.find(")")
            if close > 1:
                candidate = after[1:close].strip()
                if _valid_short_form(candidate, lf_tokens) and _chars_match(candidate, long_form):
                    return candidate
        start = idx + 1


def _valid_short_form(candidate: str, lf_tokens: list[str]) -> bool:
    n = len(candidate)
    if not 2 <= n <= 10 or not candidate[0].isalnum():
        return False
    if len(lf_tokens) > min(n + 5, 2 * n):
        return False
    if len(candidate.split()) > 2:
        return False
    return any(c.isalpha() for c in candidate)


def _chars_match(short_form: str, long_form: str) -> bool:
    """Right-to-left character alignment, first character at a word start."""
    s = len(short_form) - 1
    l = len(long_form) - 1
    while s >= 0:
        c = short_form[s].lower()
        if not c.isalnum():
            s -= 1
            continue
        while l >= 0 and (
            long_form[l].lower() != c
            or (s == 0 and l > 0 and long_form[l - 1].isalnum())
        ):
            l -= 1
        if l < 0:
            return False
        s -= 1
        l -= 1
    return True
