import json

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from askner.annotator import (
    DictEntry,
    MatchSpan,
    PseudoDictionary,
    _WordTrie,
    apportion_types,
    assign_types,
    build_dictionary,
    dump_dictionary,
    emit_bio,
    match_sentences,
    surface_key,
)
from askner.config import load_config
from askner.errors import InternalInvariantError
from askner.normalizer import NormalizedPhrase, RuleSet, normalize
from askner.pipeline import _pool, cmd_generate
from askner.querygen import SubQuestion
from askner.retrieval import CorpusSentence, SentenceBudgetResult
from test_acceptance import _brute_force_resolve, _brute_force_windows
from testutil import phrase, sent

NO_MATCH_RULES = RuleSet.from_ids([])
RULE9 = RuleSet.from_ids([9])
RULE10 = RuleSet.from_ids([10])


def np(surface, type_label="city", abbreviation=None):
    return NormalizedPhrase(surface=surface, type_label=type_label, abbreviation=abbreviation)


def _once(phrases):
    """Each phrase paired with a count of 1, as ``build_dictionary`` takes it."""
    return [(p, 1) for p in phrases]


# -- dictionary building ----------------------------------------------------


def test_build_dictionary_pools_counts_case_insensitively():
    d = build_dictionary(_once([np("Paris"), np("paris"), np("PARIS", type_label="person")]))
    entry = d.entries["paris"]
    assert entry.counts == {"city": 2, "person": 1}
    assert entry.total == 3


def test_build_dictionary_adds_each_pairs_count():
    d = build_dictionary(
        [(np("Paris"), 3), (np("paris"), 2), (np("PARIS", type_label="person"), 1)]
    )
    assert d.entries["paris"].counts == {"city": 5, "person": 1}


def test_build_dictionary_collapses_whitespace_keys():
    d = build_dictionary(_once([np("New  York"), np("new york")]))
    assert set(d.entries) == {"new york"}
    assert d.entries["new york"].total == 2


def test_build_dictionary_registers_abbreviations():
    d = build_dictionary(_once([np("Crohn's disease", "disease", abbreviation="CD")]))
    assert d.abbreviations == {"cd": "crohn's disease"}


def test_abbreviation_colliding_with_entry_is_dropped():
    d = build_dictionary(_once([
        np("Crohn's disease", "disease", abbreviation="CD"),
        np("CD", "disease"),
    ]))
    assert d.abbreviations == {}
    assert "cd" in d.entries


def test_first_abbreviation_claim_wins():
    d = build_dictionary(_once([
        np("Crohn's disease", "disease", abbreviation="CD"),
        np("Celiac disorder", "disease", abbreviation="CD"),
    ]))
    assert d.abbreviations == {"cd": "crohn's disease"}


def test_dump_dictionary_is_sorted_tsv():
    d = build_dictionary(_once([np("Oslo"), np("Bergen"), np("Oslo", type_label="person")]))
    assert dump_dictionary(d) == (
        "bergen\tcity\t1\n"
        "oslo\tcity\t1\n"
        "oslo\tperson\t1\n"
    )
    assert dump_dictionary(PseudoDictionary()) == ""


def test_quality_phrases_are_keyed():
    d = build_dictionary(_once([np("Oslo")]), quality_phrases=["New  York City", ""])
    assert d.quality_phrases == frozenset({"new york city"})


# -- pooling each question's hits ------------------------------------------


def _ref_pool(budgets, corpus, stopwords, min_length, quality, counts):
    """The pooling as it was before hits were grouped: every hit normalized
    on its own, each fragment added to the dictionary with a count of 1."""
    counts["normalized_phrases"] = 0

    def normalized():
        for q, budget in budgets:
            ruleset = RuleSet.from_ids(q.rules, stopwords, min_length)
            for hit in budget.kept_phrases:
                found = normalize(
                    hit, corpus[hit.sentence_id], ruleset, q.type_label, output_type=q.output_type
                )
                counts["normalized_phrases"] += len(found)
                yield from found

    return build_dictionary(((found, 1) for found in normalized()), quality)


# Two long forms claim "CD"; s3 has the same text as s0 under another id.
_POOL_CORPUS = {
    sid: sent(sid, text)
    for sid, text in [
        ("s0", "Crohn's disease (CD) is chronic."),
        ("s1", "Celiac disorder (CD) is common."),
        ("s2", "Both Crohn's disease and Celiac disorder (CD) were seen."),
        ("s3", "Crohn's disease (CD) is chronic."),
        ("s4", "The World Health Organization (WHO) met in New York (NY)."),
        ("s5", "Nothing to see in Oslo."),
    ]
}
_POOL_SURFACES = [
    "Crohn's disease", "Celiac disorder", "Crohn's disease and Celiac disorder",
    "World Health Organization", "New York", "New  York", "the Nile", "Oslo", "oslo",
    "Bergen and Oslo", "CD", "disease", "it", ", Oslo .",
]
_POOL_HITS = st.lists(
    st.tuples(st.sampled_from(_POOL_SURFACES), st.sampled_from(sorted(_POOL_CORPUS))),
    max_size=12,
)
_POOL_QUESTIONS = st.lists(
    st.tuples(
        st.sampled_from(["disease", "city"]),
        st.sampled_from(["disease", "city", "illness"]),
        st.sets(st.integers(1, 7)),
        st.booleans(),
        _POOL_HITS,
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=300, deadline=None)
@given(_POOL_QUESTIONS)
@example([
    ("disease", "disease", {2}, True, [
        ("Celiac disorder", "s1"), ("Crohn's disease", "s0"), ("Celiac disorder", "s1"),
        ("Crohn's disease", "s3"), ("Crohn's disease", "s2"),
    ]),
    ("disease", "illness", {1, 2, 3}, True, [
        ("Crohn's disease and Celiac disorder", "s2"), ("Crohn's disease", "s0"),
    ]),
])
def test_pool_matches_normalizing_every_hit_alone(questions):
    budgets = []
    for i, (output_type, label, rules, rule_8, hits) in enumerate(questions):
        q = SubQuestion(
            question_id=f"{output_type}:{label}{i}", type_label=label, output_type=output_type,
            question_text=f"Which {label}?", k_l=len(hits),
            rules=frozenset(rules | {8} if rule_8 else rules),
        )
        kept = tuple(
            phrase(qid=q.question_id, rank=r, surface=surface, sid=sid)
            for r, (surface, sid) in enumerate(hits, 1)
        )
        budgets.append((q, SentenceBudgetResult(tuple(sorted({h.sentence_id for h in kept})),
                                                kept, False)))
    stopwords = frozenset({"it"})
    got_counts, ref_counts = {}, {}
    got = _pool(budgets, _POOL_CORPUS, stopwords, 3, ["New York City"], got_counts)
    ref = _ref_pool(budgets, _POOL_CORPUS, stopwords, 3, ["New York City"], ref_counts)
    assert dump_dictionary(got) == dump_dictionary(ref)
    assert list(got.abbreviations.items()) == list(ref.abbreviations.items())
    assert got_counts == ref_counts
    # entries, and each entry's types, come in the same order as well
    assert [(k, list(e.counts.items())) for k, e in got.entries.items()] == [
        (k, list(e.counts.items())) for k, e in ref.entries.items()
    ]
    assert got.quality_phrases == ref.quality_phrases


# -- matching ---------------------------------------------------------------


def _dict(*surfaces, quality=()):
    return build_dictionary(_once([np(s) for s in surfaces]), quality_phrases=quality)


def test_match_is_case_insensitive_and_token_bounded():
    d = _dict("New York")
    spans = match_sentences(d, [sent("s1", "I saw new YORK yesterday")], NO_MATCH_RULES)
    assert [(s.token_start, s.token_end, s.phrase_key) for s in spans] == [(2, 4, "new york")]
    # no match across partial tokens
    assert match_sentences(d, [sent("s2", "NewYork is one token")], NO_MATCH_RULES) == []
    # in one call: the same token texts cased two ways in two sentences, and
    # a token holding a space, match as the brute-force scan does
    d = _dict("New York", "York", "left")
    sentences = [
        sent("s3", "new YORK met York"),
        sent("s4", "NEW york left new York"),
        CorpusSentence("s5", "York left New York", ("York", "left", "New York")),
    ]
    got = [
        (m.sentence_id, m.token_start, m.token_end, m.phrase_key)
        for m in match_sentences(d, sentences, NO_MATCH_RULES)
    ]
    expected = [
        (s.sentence_id, *hit)
        for s in sentences
        for hit in _brute_force_resolve(
            sorted(_brute_force_windows(set(d.entries), list(s.tokens)))
        )
    ]
    assert got == expected
    assert ("s5", 2, 3, "new york") in got


def _ref_scan(trie, token_words):
    """``_WordTrie.scan`` as it was before it skipped starts: a window tried
    at every token."""
    hits = []
    for start in range(len(token_words)):
        node = trie.root
        for end in range(start, len(token_words)):
            for word in token_words[end]:
                node = node.get(word)
                if node is None:
                    break
            else:
                pattern = node.get(trie._LEAF)
                if pattern is not None:
                    hits.append((start, end + 1, pattern))
                continue
            break
    return hits


_WORDS = st.sampled_from(["a", "b", "c", "x"])


@settings(max_examples=500, deadline=None)
@given(
    st.lists(st.lists(_WORDS.filter(lambda w: w != "x"), min_size=1, max_size=3).map(" ".join),
             min_size=1, max_size=5),
    # tokens of no words (a whitespace-only surface), one word, or several
    st.lists(st.lists(_WORDS, max_size=2).map(tuple), max_size=8),
)
@example(["a b"], [("a",), (), ("b",)])
@example(["b"], [("a",), (), ("b",)])
def test_trie_scan_matches_trying_every_start(patterns, token_words):
    trie = _WordTrie(patterns)
    assert trie.scan(token_words) == _ref_scan(trie, token_words)


def test_generate_matches_over_whitespace_only_tokens(tmp_path):
    # s1's " " token lies inside "New York"; in s2 the window for "York"
    # starts at the " " token before it, so that token is tagged too.
    sentences = [
        ("s1", "We met in New York today", ["We", "met", "in", "New", " ", "York", "today"]),
        ("s2", "Snow fell on  York", ["Snow", "fell", "on", " ", "York"]),
    ]
    lines = []
    for sid, text, surfaces in sentences:
        tokens, at = [], 0
        for surface in surfaces:
            at = text.index(surface, at)
            tokens.append([surface, at, at + len(surface)])
            at += len(surface)
        lines.append(json.dumps({"sentence_id": sid, "text": text, "tokens": tokens}) + "\n")
    (tmp_path / "corpus.jsonl").write_text("".join(lines), encoding="utf-8")
    hits = [phrase(qid="city:city", rank=1, surface="New York", sid="s1", start=10),
            phrase(qid="city:city", rank=2, surface="York", sid="s2", start=14)]
    (tmp_path / "results.jsonl").write_text(
        "".join(json.dumps(h.to_record()) + "\n" for h in hits), encoding="utf-8")
    (tmp_path / "config.yaml").write_text(yaml.safe_dump({
        "seed": 0, "corpus": "corpus.jsonl", "output_dir": "out",
        "retrieval": {"mode": "replay", "results": "results.jsonl"},
        "types": [{"name": "city", "k_l": 10, "rules": [2, 3, 4, 5, 6, 7], "labels": ["city"]}],
    }), encoding="utf-8")
    result = cmd_generate(load_config(tmp_path / "config.yaml"))
    assert [(s.tokens, s.tags) for s in result.labeled] == [
        (("We", "met", "in", "New", " ", "York", "today"),
         ("O", "O", "O", "B-city", "I-city", "I-city", "O")),
        (("Snow", "fell", "on", " ", "York"), ("O", "O", "O", "B-city", "I-city")),
    ]


def test_match_respects_leftmost_longest():
    d = _dict("New York", "York City", "City")
    spans = match_sentences(d, [sent("s1", "New York City")], NO_MATCH_RULES)
    assert [(s.token_start, s.token_end, s.phrase_key) for s in spans] == [
        (0, 2, "new york"),
        (2, 3, "city"),
    ]


def test_match_prefers_longer_at_equal_start():
    d = _dict("New", "New York")
    spans = match_sentences(d, [sent("s1", "New York")], NO_MATCH_RULES)
    assert [(s.token_start, s.token_end) for s in spans] == [(0, 2)]


def test_match_finds_repeats():
    d = _dict("Oslo")
    spans = match_sentences(d, [sent("s1", "Oslo loves Oslo")], NO_MATCH_RULES)
    assert [(s.token_start, s.token_end) for s in spans] == [(0, 1), (2, 3)]


def test_match_empty_dictionary_is_callers_bug():
    with pytest.raises(ValueError):
        match_sentences(PseudoDictionary(), [sent("s1", "x")], NO_MATCH_RULES)


def test_abbreviation_matches_map_to_long_form_key():
    d = build_dictionary(_once([np("Crohn's disease", "disease", abbreviation="CD")]))
    spans = match_sentences(d, [sent("s1", "CD flared up")], NO_MATCH_RULES)
    assert [(s.token_start, s.token_end, s.phrase_key) for s in spans] == [
        (0, 1, "crohn's disease")
    ]


def test_rule9_rejects_lowercase_single_tokens():
    d = _dict("Apple", "apple pie")
    sentences = [sent("s1", "apple pie is sweet"), sent("s2", "An apple fell"),
                 sent("s3", "Apple shipped units")]
    spans = match_sentences(d, sentences, RULE9)
    got = {(s.sentence_id, s.token_start, s.token_end) for s in spans}
    # s1: the single-token "apple" is lowercase in-sentence, but the
    # two-token "apple pie" is exempt from rule 9
    assert got == {("s1", 0, 2), ("s3", 0, 1)}
    # without rule 9 the lowercase single tokens match too
    spans = match_sentences(d, sentences, NO_MATCH_RULES)
    assert {(s.sentence_id, s.token_start) for s in spans} == {
        ("s1", 0), ("s2", 1), ("s3", 0)
    }


def test_rule10_grows_to_smallest_containing_quality_span():
    d = _dict("York", quality=["New York City", "New York"])
    spans = match_sentences(d, [sent("s1", "New York City grew")], RULE10)
    assert [(s.token_start, s.token_end) for s in spans] == [(0, 2)]


def test_rule10_requires_strict_containment():
    d = _dict("New York", quality=["New York"])
    spans = match_sentences(d, [sent("s1", "New York grew")], RULE10)
    assert [(s.token_start, s.token_end) for s in spans] == [(0, 2)]


def test_rule10_skips_expansion_that_would_overlap():
    d = _dict("York", "Harbor", quality=["York Harbor"])
    spans = match_sentences(d, [sent("s1", "York Harbor closed")], RULE10)
    # "York" [0,1) would grow to [0,2) but that overlaps the "Harbor" match
    assert [(s.token_start, s.token_end, s.phrase_key) for s in spans] == [
        (0, 1, "york"), (1, 2, "harbor"),
    ]


def test_rule10_grows_rightward_and_needs_a_containing_quality_phrase():
    s = sent("s1", "the Museum of Modern Art")

    def spans(quality):
        got = match_sentences(_dict("Museum", quality=quality), [s], RULE10)
        return [(m.token_start, m.token_end, m.phrase_key) for m in got]

    assert spans(["Museum of Modern Art"]) == [(1, 5, "museum")]
    assert spans([]) == [(1, 2, "museum")]
    # a quality phrase elsewhere in the sentence does not contain the match
    assert spans(["Modern Art"]) == [(1, 2, "museum")]


# -- apportionment ----------------------------------------------------------


def _occurrences(n, key="washington"):
    return [MatchSpan(f"s{i:02d}", i % 3, i % 3 + 1, key) for i in range(n)]


def test_apportionment_exact_proportions():
    entry = DictEntry(key="washington", counts={"location": 3, "person": 7})
    out = apportion_types(entry, _occurrences(10))
    assigned = [o.assigned_type for o in out]
    assert assigned.count("location") == 3
    assert assigned.count("person") == 7
    # occurrences are dealt in (sentence_id, token_start) order, largest
    # allocation first
    ordered = sorted(_occurrences(10), key=lambda o: (o.sentence_id, o.token_start))
    by_pos = {(o.sentence_id, o.token_start): o.assigned_type for o in out}
    assert [by_pos[(o.sentence_id, o.token_start)] for o in ordered] == (
        ["person"] * 7 + ["location"] * 3
    )


def test_apportionment_largest_remainder_tie_prefers_larger_count():
    entry = DictEntry(key="washington", counts={"location": 3, "person": 7})
    out = apportion_types(entry, _occurrences(5))
    assigned = [o.assigned_type for o in out]
    # quotas 1.5 / 3.5 -> floors 1 / 3; the leftover seat goes to person
    assert assigned.count("location") == 1
    assert assigned.count("person") == 4


def test_apportionment_remainder_tie_breaks_lexicographically():
    entry = DictEntry(key="k", counts={"alpha": 1, "beta": 1})
    out = apportion_types(entry, _occurrences(3, key="k"))
    assigned = [o.assigned_type for o in out]
    # quotas 1.5 each; equal counts, so "alpha" wins the leftover seat
    assert assigned.count("alpha") == 2
    assert assigned.count("beta") == 1


def test_apportionment_conserves_and_stays_within_one_of_quota():
    import random

    rng = random.Random(5)
    for _ in range(50):
        counts = {f"t{i}": rng.randint(1, 40) for i in range(rng.randint(1, 6))}
        entry = DictEntry(key="k", counts=counts)
        n = rng.randint(0, 30)
        out = apportion_types(entry, _occurrences(n, key="k"))
        assert len(out) == n
        total = sum(counts.values())
        for t, c in counts.items():
            got = sum(1 for o in out if o.assigned_type == t)
            assert abs(got - n * c / total) < 1


def test_apportionment_validates_inputs():
    entry = DictEntry(key="k", counts={"a": 0})
    with pytest.raises(ValueError):
        apportion_types(entry, [])
    entry = DictEntry(key="k", counts={"a": 1})
    with pytest.raises(ValueError, match="key"):
        apportion_types(entry, _occurrences(1, key="other"))


def test_assign_types_single_type_shortcut_and_unknown_key():
    d = _dict("Oslo")
    spans = [MatchSpan("s1", 0, 1, "oslo")]
    out = assign_types(d, spans)
    assert out[0].assigned_type == "city"
    with pytest.raises(InternalInvariantError):
        assign_types(d, [MatchSpan("s1", 0, 1, "ghost")])


# -- BIO emission -----------------------------------------------------------


def test_emit_bio_basic():
    sentences = [sent("s1", "Oslo loves New York"), sent("s2", "nothing here")]
    spans = [
        MatchSpan("s1", 0, 1, "oslo", assigned_type="city"),
        MatchSpan("s1", 2, 4, "new york", assigned_type="city"),
    ]
    out = emit_bio(sentences, spans)
    assert out[0].tags == ("B-city", "O", "B-city", "I-city")
    assert out[1].tags == ("O", "O")
    assert out[0].tokens == ("Oslo", "loves", "New", "York")


def test_emit_bio_adjacent_spans_restart_with_b():
    sentences = [sent("s1", "Oslo Bergen")]
    spans = [
        MatchSpan("s1", 0, 1, "oslo", assigned_type="city"),
        MatchSpan("s1", 1, 2, "bergen", assigned_type="city"),
    ]
    assert emit_bio(sentences, spans)[0].tags == ("B-city", "B-city")


def test_emit_bio_shares_one_tag_string_per_type():
    sentences = [sent("s1", "Oslo loves New York"), sent("s2", "New York Oslo")]
    spans = [
        MatchSpan("s1", 0, 1, "oslo", assigned_type="city"),
        MatchSpan("s1", 2, 4, "new york", assigned_type="city"),
        MatchSpan("s2", 0, 2, "new york", assigned_type="city"),
    ]
    first, second = (labeled.tags for labeled in emit_bio(sentences, spans))
    assert first[0] is first[2] is second[0]
    assert first[3] is second[1]


def test_emit_bio_rejects_bad_spans():
    sentences = [sent("s1", "just three tokens")]
    with pytest.raises(InternalInvariantError, match="unknown sentence"):
        emit_bio(sentences, [MatchSpan("sX", 0, 1, "k", assigned_type="t")])
    with pytest.raises(InternalInvariantError, match="assigned"):
        emit_bio(sentences, [MatchSpan("s1", 0, 1, "k")])
    with pytest.raises(InternalInvariantError, match="bounds"):
        emit_bio(sentences, [MatchSpan("s1", 2, 5, "k", assigned_type="t")])
    with pytest.raises(InternalInvariantError, match="overlap"):
        emit_bio(sentences, [
            MatchSpan("s1", 0, 2, "k", assigned_type="t"),
            MatchSpan("s1", 1, 3, "k", assigned_type="t"),
        ])


def test_surface_key():
    assert surface_key("  New   York ") == "new york"
    assert surface_key("Crohn's Disease") == "crohn's disease"
