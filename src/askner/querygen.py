"""Question formulation.

Every entity type we want to mine is phrased as a natural-language question
(for example ``Which city?``), optionally fanned out into several narrower
sub-questions (``Which politician?``, ``Which athlete?``, ... all feeding the
``person`` tag). This module turns the type configuration into the ordered
list of questions that drives retrieval.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError
from .normalizer import rule_ids

PLACEHOLDER = "[TYPE]"

# Question patterns that work well with phrase-retrieval backends. "which"
# is the default; the others are kept for ablation-style comparisons.
TEMPLATE_PRESETS = {
    "which": "Which [TYPE]?",
    "list-of": "list of [TYPE]",
    "example-of": "example of [TYPE]",
    "what": "What [TYPE]?",
    "bare": "[TYPE]",
}
DEFAULT_TEMPLATE = "which"


@dataclass(frozen=True)
class QuestionTemplate:
    """A question pattern containing the ``[TYPE]`` placeholder exactly once."""

    pattern: str

    def __post_init__(self):
        n = self.pattern.count(PLACEHOLDER)
        if n != 1:
            raise ConfigError(
                f"question template must contain {PLACEHOLDER} exactly once, "
                f"found {n}: {self.pattern!r}"
            )

    @classmethod
    def preset(cls, name: str) -> QuestionTemplate:
        try:
            return cls(TEMPLATE_PRESETS[name])
        except KeyError:
            raise ConfigError(
                f"unknown template preset {name!r}; available: {sorted(TEMPLATE_PRESETS)}"
            ) from None


def formulate(type_label: str, template: QuestionTemplate) -> str:
    """Instantiate ``template`` with ``type_label``.

    The label is inserted verbatim — no case folding and no article fiddling,
    so labels like ``state in the USA`` come out exactly as configured.
    """
    if not type_label.strip():
        raise ConfigError("type label must be non-empty")
    return template.pattern.replace(PLACEHOLDER, type_label)


@dataclass(frozen=True)
class LabelDeclaration:
    """One sub-question label under an output type, with optional overrides."""

    label: str
    k_l: int | None = None
    rules: tuple[int, ...] | None = None


@dataclass(frozen=True)
class TypeDeclaration:
    """An output tag plus the labels whose retrievals feed it."""

    name: str
    labels: tuple[LabelDeclaration, ...]
    k_l: int | None = None
    rules: tuple[int, ...] | None = None


@dataclass(frozen=True)
class SubQuestion:
    """A fully resolved question: text, sentence budget, and enabled rules.

    ``question_id`` is ``"<output_type>:<label>"`` and is the join key used in
    results files. ``rules`` holds the ids of the normalization rules this
    sub-question enables, checked by ``normalizer.rule_ids``.
    """

    question_id: str
    type_label: str
    output_type: str
    question_text: str
    k_l: int
    rules: frozenset[int]


def build_question_set(
    types: tuple[TypeDeclaration, ...] | list[TypeDeclaration],
    template: QuestionTemplate,
    default_k_l: int | None = None,
    default_rules: tuple[int, ...] = (),
) -> list[SubQuestion]:
    """Expand type declarations into one SubQuestion per (type, label) pair.

    Overrides resolve nearest-first: label-level beats type-level beats the
    global defaults, each as a whole-value replacement. Declaration order is
    preserved; duplicate question ids are a configuration error.
    """
    questions: list[SubQuestion] = []
    seen: set[str] = set()
    for decl in types:
        if not decl.name.strip():
            raise ConfigError("output type name must be non-empty")
        if not decl.labels:
            raise ConfigError(f"output type {decl.name!r} declares no labels")
        for lab in decl.labels:
            qid = f"{decl.name}:{lab.label}"
            if qid in seen:
                raise ConfigError(f"duplicate question id {qid!r}")
            seen.add(qid)
            k_l = lab.k_l if lab.k_l is not None else decl.k_l
            if k_l is None:
                k_l = default_k_l
            if k_l is None or k_l < 1:
                raise ConfigError(f"{qid}: sentence budget k_l must be >= 1, got {k_l}")
            rules = lab.rules if lab.rules is not None else decl.rules
            if rules is None:
                rules = default_rules
            questions.append(
                SubQuestion(
                    question_id=qid,
                    type_label=lab.label,
                    output_type=decl.name,
                    question_text=formulate(lab.label, template),
                    k_l=k_l,
                    rules=rule_ids(rules, qid),
                )
            )
    return questions
