import pytest

from askner.errors import ConfigError
from askner.querygen import (
    LabelDeclaration,
    QuestionTemplate,
    TypeDeclaration,
    build_question_set,
    formulate,
)


@pytest.mark.parametrize(
    "preset,label,expected",
    [
        ("which", "city", "Which city?"),
        ("which", "state in the USA", "Which state in the USA?"),
        ("list-of", "award", "list of award"),
        ("example-of", "enzyme", "example of enzyme"),
        ("what", "company", "What company?"),
        ("bare", "disease", "disease"),
    ],
)
def test_formulate_presets(preset, label, expected):
    assert formulate(label, QuestionTemplate.preset(preset)) == expected


def test_label_inserted_verbatim():
    t = QuestionTemplate("Which [TYPE]?")
    assert formulate("TV show", t) == "Which TV show?"
    assert formulate("conference on artificial intelligence", t) \
        == "Which conference on artificial intelligence?"


def test_template_requires_single_placeholder():
    with pytest.raises(ConfigError):
        QuestionTemplate("Which one?")
    with pytest.raises(ConfigError):
        QuestionTemplate("[TYPE] or [TYPE]?")
    with pytest.raises(ConfigError):
        QuestionTemplate.preset("nope")


def test_empty_label_rejected():
    with pytest.raises(ConfigError):
        formulate("   ", QuestionTemplate.preset("which"))


def _decl():
    return [
        TypeDeclaration(
            name="person",
            labels=(LabelDeclaration("athlete"), LabelDeclaration("politician")),
            k_l=500,
        ),
        TypeDeclaration(
            name="location",
            labels=(
                LabelDeclaration("city", k_l=50, rules=(3,)),
                LabelDeclaration("country"),
            ),
            rules=(1, 3, 4),
        ),
    ]


def test_build_question_set_expands_all_pairs():
    qs = build_question_set(_decl(), QuestionTemplate.preset("which"),
                            default_k_l=1000, default_rules=(2, 5))
    assert [q.question_id for q in qs] == [
        "person:athlete", "person:politician", "location:city", "location:country",
    ]
    assert len(qs) == sum(len(t.labels) for t in _decl())
    assert qs[0].question_text == "Which athlete?"
    assert qs[0].output_type == "person"
    assert qs[0].type_label == "athlete"


def test_overrides_resolve_nearest_first():
    qs = {q.question_id: q for q in build_question_set(
        _decl(), QuestionTemplate.preset("which"), default_k_l=1000, default_rules=(2, 5)
    )}
    # type-level k_l beats the default; label-level beats the type
    assert qs["person:athlete"].k_l == 500
    assert qs["location:city"].k_l == 50
    assert qs["location:country"].k_l == 1000
    # same for rules, as whole-value replacement
    assert qs["person:athlete"].rules == frozenset({2, 5})
    assert qs["location:city"].rules == frozenset({3})
    assert qs["location:country"].rules == frozenset({1, 3, 4})


def test_duplicate_question_id_rejected():
    types = [
        TypeDeclaration(name="person",
                        labels=(LabelDeclaration("actor"), LabelDeclaration("actor")),
                        k_l=10),
    ]
    with pytest.raises(ConfigError, match="duplicate"):
        build_question_set(types, QuestionTemplate.preset("which"))


def test_missing_budget_rejected():
    types = [TypeDeclaration(name="person", labels=(LabelDeclaration("actor"),))]
    with pytest.raises(ConfigError, match="k_l"):
        build_question_set(types, QuestionTemplate.preset("which"))


def test_unknown_rule_ids_rejected():
    types = [TypeDeclaration(name="x", labels=(LabelDeclaration("y", rules=(0, 11)),), k_l=5)]
    with pytest.raises(ConfigError, match=r"^x:y: unknown rule ids \[0, 11\]$"):
        build_question_set(types, QuestionTemplate.preset("which"))
