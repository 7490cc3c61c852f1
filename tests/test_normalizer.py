import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from askner.normalizer import (
    NormalizedPhrase,
    RuleSet,
    apply_rule,
    detect_abbreviation,
    load_stopwords,
    normalize,
)
from testutil import phrase, sent

RULES = RuleSet.from_ids(range(1, 9), stopwords=frozenset({"us", "was", "the"}), min_length=3)


def run(rule_id, fragment, rules=RULES, type_label="city"):
    return apply_rule(rule_id, fragment, rules=rules, type_label=type_label)


# -- individual rules -------------------------------------------------------


def test_rule1_splits_on_standalone_and():
    assert run(1, "France and Germany") == ["France", "Germany"]
    assert run(1, "Trinidad and Tobago and Cuba") == ["Trinidad", "Tobago", "Cuba"]
    assert run(1, "and") == []
    assert run(1, "Anderson") == ["Anderson"]        # substring is untouched
    assert run(1, "AND THEN") == ["AND THEN"]        # case-sensitive token match


def test_rule2_strips_edge_punctuation_to_fixpoint():
    assert run(2, '"Hamlet"') == ["Hamlet"]
    assert run(2, "(Paris).") == ["Paris"]
    assert run(2, "«Երևան»") == ["Երևան"]
    assert run(2, "-- well --") == ["well"]
    assert run(2, "U.S.A.") == ["U.S.A"]             # only edges are stripped
    assert run(2, "...") == []


def test_rule3_drops_caseless_fragments():
    assert run(3, "director") == []
    assert run(3, "Director") == ["Director"]
    assert run(3, "mRNA") == ["mRNA"]
    assert run(3, "2020") == ["2020"]                # no letters at all: kept
    assert run(3, "42nd birthday") == []


def test_rule4_strips_leading_the():
    assert run(4, "The Beatles") == ["Beatles"]
    assert run(4, "the USA") == ["USA"]
    assert run(4, "THE END") == ["END"]
    assert run(4, "Theatre District") == ["Theatre District"]
    assert run(4, "The") == ["The"]                  # bare article is not a prefix


def test_rule5_minimum_length():
    assert run(5, "AB") == []
    assert run(5, "ABC") == ["ABC"]
    short = RuleSet.from_ids([5], min_length=6)
    assert apply_rule(5, "Paris", rules=short, type_label="x") == []


def test_rule6_stopword_drop_is_case_insensitive():
    assert run(6, "US") == []
    assert run(6, "Was") == []
    assert run(6, "Usain") == ["Usain"]


def test_rule7_drops_type_echo():
    assert run(7, "City") == []
    assert run(7, "Paris") == ["Paris"]
    assert run(7, "sports  team", type_label="sports team") == []


def test_rule8_is_applied_only_by_normalize():
    with pytest.raises(ValueError, match="normalize"):
        run(8, "Crohn's disease")


def test_match_time_rules_rejected():
    with pytest.raises(ValueError):
        run(9, "Paris")
    with pytest.raises(ValueError):
        run(10, "Paris")
    with pytest.raises(ValueError):
        run(11, "Paris")


def test_fragments_are_trimmed_and_empties_dropped():
    assert run(3, "  Paris  ") == ["Paris"]
    assert run(1, "   ") == []


# -- the pipeline -----------------------------------------------------------


def _normalize(surface, text=None, rules=RULES, type_label="city", output_type=None):
    ev = sent("s1", text if text is not None else surface)
    p = phrase(surface=surface, sid="s1", start=0, end=len(surface))
    return normalize(p, ev, rules, type_label, output_type=output_type)


def test_normalize_chains_rules_in_order():
    out = _normalize("the US and Canada", text="the US and Canada are neighbours")
    assert [n.surface for n in out] == ["Canada"]


def test_normalize_respects_disabled_rules():
    no_split = RuleSet.from_ids([2, 3], stopwords=RULES.stopwords)
    out = _normalize("France and Germany", rules=no_split)
    # rule 1 off: the coordination survives as one fragment
    assert [n.surface for n in out] == ["France and Germany"]


def test_normalize_records_output_type():
    out = _normalize("Paris", type_label="city", output_type="location")
    assert out[0].type_label == "location"
    assert out[0].surface == "Paris"


def test_normalize_type_echo_uses_question_label_not_output_type():
    out = _normalize("City", type_label="city", output_type="location")
    assert out == []


def test_normalize_attaches_abbreviation():
    text = "Crohn's disease (CD) affects the gut"
    out = _normalize("Crohn's disease", text=text, type_label="disease")
    assert [(n.surface, n.abbreviation) for n in out] == [("Crohn's disease", "CD")]


def test_normalize_without_rule8_skips_abbreviations():
    rules = RuleSet.from_ids([2], stopwords=RULES.stopwords)
    text = "Crohn's disease (CD) affects the gut"
    out = _normalize("Crohn's disease", text=text, rules=rules, type_label="disease")
    assert out[0].abbreviation is None


def test_normalize_empty_phrase_yields_nothing():
    assert _normalize("   ") == []


@settings(max_examples=200, deadline=None)
@given(st.text(min_size=0, max_size=40))
def test_normalize_equals_folding_apply_rule(surface):
    ev = sent("s1", "unrelated sentence")
    p = phrase(surface=surface, sid="s1", start=0, end=max(len(surface), 1))
    fragments = [surface.strip()] if surface.strip() else []
    for rule_id in range(1, 8):
        if not RULES.is_enabled(rule_id):
            continue
        fragments = [
            out for f in fragments
            for out in apply_rule(rule_id, f, rules=RULES, type_label="city")
        ]
    got = normalize(p, ev, RULES, "city")
    assert [n.surface for n in got] == fragments
    for n in got:
        assert n.surface == n.surface.strip() and n.surface


# -- abbreviation detection -------------------------------------------------


def test_abbreviation_positive():
    assert detect_abbreviation("Crohn's disease", "Crohn's disease (CD) is chronic.") == "CD"


def test_abbreviation_requires_character_alignment():
    # every letter must thread right-to-left into the long form
    assert detect_abbreviation("heart attack", "A heart attack (stroke) occurred.") is None


def test_abbreviation_requires_parenthesis():
    assert detect_abbreviation("Paris", "Paris is the capital.") is None


def test_abbreviation_first_char_must_start_a_word():
    # both letters occur in the long form, but no 'n' begins a word
    assert detect_abbreviation("Grand Island", "Grand Island (nd) is north.") is None


def test_abbreviation_length_bounds():
    # ten characters is the maximum, whatever the long form's word count
    text = "Polymerase Chain (PolymChain) rose."
    assert detect_abbreviation("Polymerase Chain", text) == "PolymChain"
    text = "Polymerase Chain (PolymeChain) rose."
    assert detect_abbreviation("Polymerase Chain", text) is None
    # two chars is the minimum
    assert detect_abbreviation("Xylem Zone", "Xylem Zone (X) shrank.") is None


def test_abbreviation_starts_with_a_letter_or_digit():
    assert detect_abbreviation("Xenon Fever", "Xenon Fever (-XF) spread.") is None
    assert detect_abbreviation("Xenon Fever", "Xenon Fever (X-F) spread.") == "X-F"
    assert detect_abbreviation("3 Mines", "3 Mines (3M) grew.") == "3M"


def test_abbreviation_long_form_word_bound():
    # at most min(n + 5, 2n) words: 2n binds for n = 2 ...
    four = "Alpha Beta Gamma Delta"
    assert detect_abbreviation(four, four + " (AD) met.") == "AD"
    five = "Alpha Beta Gamma Delta Epsilon"
    assert detect_abbreviation(five, five + " (AE) met.") is None
    # ... and n + 5 binds for n = 6
    eleven = "Alpha and Bravo and Charlie and Delta and Echo and Foxtrot"
    assert detect_abbreviation(eleven, eleven + " (ABCDEF) met.") == "ABCDEF"
    twelve = "the " + eleven
    assert detect_abbreviation(twelve, twelve + " (ABCDEF) met.") is None


def test_abbreviation_at_most_two_tokens():
    assert detect_abbreviation("Alpha Beta", "Alpha Beta (A B C) here.") is None


def test_abbreviation_needs_adjacent_parenthesis():
    assert detect_abbreviation("Paris", "Paris shrank. Elsewhere (PS) grew.") is None


def test_abbreviation_scans_later_occurrences():
    text = "Xenon Fever spread. Xenon Fever (XF) was named."
    assert detect_abbreviation("Xenon Fever", text) == "XF"


# -- odds and ends ----------------------------------------------------------


def test_normalized_phrase_requires_trimmed_surface():
    with pytest.raises(ValueError):
        NormalizedPhrase(surface=" x ", type_label="t")
    with pytest.raises(ValueError):
        NormalizedPhrase(surface="", type_label="t")


def test_load_stopwords_custom_file(tmp_path):
    f = tmp_path / "stop.txt"
    f.write_text("# comment\nThe\nus  # inline\n\nWAS\n", encoding="utf-8")
    assert load_stopwords(f) == frozenset({"the", "us", "was"})


def test_bundled_stopwords_cover_spec_examples():
    sw = load_stopwords()
    assert {"us", "was", "the", "and"} <= sw


def test_ruleset_validation():
    with pytest.raises(Exception):
        RuleSet.from_ids([1], min_length=0)
    with pytest.raises(Exception):
        RuleSet({12: True})
