"""Pipeline configuration: YAML schema, named presets, validation.

A config names the entity types (each with one or more question labels),
the corpus, how retrieval happens (a replay file or a remote endpoint),
normalization defaults, and the self-training schedule. Named presets
bundle the label sets, sentence budgets, and rule choices that work well on
common benchmark families; a config can start from a preset and override
pieces.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

import yaml

from .errors import ConfigError, check_value
from .normalizer import DEFAULT_MIN_LENGTH, read_config_text, rule_ids
from .querygen import DEFAULT_TEMPLATE, LabelDeclaration, QuestionTemplate, TypeDeclaration
from .selftrain import SelfTrainConfig

#: Rules that almost every configuration wants; presets add these to each
#: row's listed rules.
COMMON_RULES = (2, 5, 6, 7, 8, 10)


def _r(*listed: int) -> tuple[int, ...]:
    return tuple(sorted(set(listed) | set(COMMON_RULES)))


def _t(name: str, k_l: int, *labels, rules: tuple[int, ...] | None = None) -> dict:
    return {
        "name": name,
        "k_l": k_l,
        "rules": rules,
        "labels": list(labels),
    }


def _lab(label: str, rules: tuple[int, ...]) -> dict:
    return {"label": label, "rules": rules}


QUESTION_PRESETS: dict[str, list[dict]] = {
    "conll2003": [
        _t("person", 5000, "athlete", "politician", "actor", rules=_r(1, 3, 4)),
        _t("location", 5000, "country", "city", "state in the USA", rules=_r(1, 3, 4)),
        _t("organization", 5000, "sports team", "company", "institution", rules=_r(1, 3, 4)),
    ],
    "wikigold": [
        _t("person", 4000, "athlete", "politician", "actor", "director", "musician",
           rules=_r(1, 3, 4)),
        _t("location", 4000, "country", "city", "state in the USA", "road", "island",
           rules=_r(1, 3, 4)),
        _t("organization", 4000, "sports team", "company", "institution", "association",
           "band", rules=_r(1, 3, 4)),
    ],
    "wnut16": [
        _t("person", 1000, "athlete", "politician", "actor", "author", rules=_r(1, 3, 4)),
        _t("location", 1000, "country", "city", "state in the USA", rules=_r(1, 3, 4)),
        _t("product", 1000,
           _lab("mobile app", _r(3)),
           _lab("software", _r(1, 3, 4)),
           _lab("operating system", _r(1, 3, 4)),
           _lab("car", _r(1, 3, 4)),
           _lab("smart phone", _r(1, 3, 4))),
        _t("facility", 1000,
           _lab("facility", _r(3)),
           _lab("cafe", _r(3)),
           _lab("restaurant", _r(3)),
           _lab("college", _r(3)),
           _lab("music venue", _r(3)),
           _lab("sports facility", _r(1, 3, 4))),
        _t("company", 1000,
           _lab("company", _r(1, 3, 4)),
           _lab("technology company", _r(1, 3, 4)),
           _lab("news agency", _r(1, 3)),
           _lab("magazine", _r(1, 3))),
        _t("sports team", 1000, "sports team", rules=_r(1, 3, 4)),
        _t("TV show", 1000, "TV show", rules=_r(3)),
        _t("movie", 1000, "movie", rules=_r(3)),
        _t("music artist", 1000, "band", "rapper", "musician", "singer", rules=_r(3)),
    ],
    "ncbi_disease": [
        _t("disease", 35000, "disease", rules=_r(4, 9)),
    ],
    "bc5cdr": [
        _t("disease", 15000, "disease", rules=_r(4, 9)),
        _t("chemical", 15000, "chemical compound", "drug", rules=_r(4, 9)),
    ],
    "chemdner": [
        _t("chemical", 10000, "chemical compound", "drug", rules=_r(4, 9)),
    ],
    "enzyme": [
        _t("enzyme", 5000, "enzyme", rules=_r(1, 4, 9)),
    ],
    "astronomical": [
        _t("astronomical object", 5000, "astronomical object", rules=_r(1, 3, 4)),
    ],
    "award": [
        _t("award", 10000, "award", rules=_r(1, 3, 4)),
    ],
    "conference": [
        _t("conference", 5000, "conference on artificial intelligence", rules=_r(3)),
    ],
}

RETRIEVAL_MODES = ("replay", "remote")


@dataclass(frozen=True)
class RetrievalSettings:
    mode: str
    results_path: Path | None = None
    endpoint: str | None = None
    top_n: int = 100
    timeout: float = 10.0
    attempts: int = 3

    def __post_init__(self):
        if self.mode not in RETRIEVAL_MODES:
            raise ConfigError(f"retrieval mode must be one of {RETRIEVAL_MODES}, got {self.mode!r}")
        if self.top_n < 1:
            raise ConfigError(f"retrieval top_n must be >= 1, got {self.top_n}")
        if not 0 < self.timeout < float("inf"):
            raise ConfigError(f"retrieval timeout must be positive and finite, got {self.timeout}")
        if self.attempts < 1:
            raise ConfigError(f"retrieval attempts must be >= 1, got {self.attempts}")
        if self.mode == "remote" and not self.endpoint:
            raise ConfigError("remote retrieval needs an endpoint")
        if self.mode == "replay" and self.results_path is None:
            raise ConfigError("replay retrieval needs a results file")


@dataclass(frozen=True)
class PipelineConfig:
    seed: int
    template: QuestionTemplate
    types: tuple[TypeDeclaration, ...]
    corpus_path: Path
    retrieval: RetrievalSettings
    output_dir: Path
    base_dir: Path  # the config's folder; relative paths in it resolve here
    default_k_l: int | None = None
    default_rules: tuple[int, ...] = ()
    min_length: int = DEFAULT_MIN_LENGTH
    stopwords_path: Path | None = None
    quality_phrases_path: Path | None = None
    selftrain: SelfTrainConfig | None = None

    def config_hash(self) -> str:
        """sha256 of every field but ``output_dir`` (``--out`` overrides it)
        and ``base_dir``, with paths written relative to ``base_dir``, so
        neither the config's location nor how its path is spelled matters."""
        doc = dataclasses.asdict(self)
        del doc["output_dir"], doc["base_dir"]
        blob = json.dumps(
            doc, sort_keys=True, default=lambda path: os.path.relpath(path, self.base_dir)
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _want(obj: Mapping, key: str, kind: str, where: str, default=None, required=False):
    """``obj[key]``, checked to be of ``kind`` (see ``check_value``); a
    finite number is read as a float. An absent or null key gives
    ``default``, or is a fault if ``required``."""
    if key not in obj or obj[key] is None:
        if required:
            raise ConfigError(f"{where}: missing field {key!r}")
        return default
    value = check_value(obj[key], f"{where}: {key}", kind, ConfigError)
    return float(value) if kind == "a finite number" else value


def _known(obj: Any, keys: set[str], where: str) -> None:
    """Raise ConfigError unless ``obj`` is an object with no key but ``keys``."""
    check_value(obj, where, "an object", ConfigError)
    unknown = set(obj) - keys
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown, key=str)}")


def _parse_rules(value: Any, where: str) -> tuple[int, ...] | None:
    if value is None:
        return None
    if not isinstance(value, (list, tuple)) or not all(type(r) is int for r in value):
        raise ConfigError(f"{where}: rules must be a list of integers")
    return tuple(sorted(rule_ids(value, where)))


def _parse_label(obj: Any, where: str) -> LabelDeclaration:
    if isinstance(obj, str):
        return LabelDeclaration(label=obj)
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: label must be a string or an object")
    _known(obj, {"label", "k_l", "rules"}, where)
    label = _want(obj, "label", "a string", where, required=True)
    if not label.strip():
        raise ConfigError(f"{where}: label must be non-empty")
    k_l = _want(obj, "k_l", "an integer", where)
    return LabelDeclaration(
        label=label, k_l=k_l, rules=_parse_rules(obj.get("rules"), where)
    )


def _parse_type(obj: Any, where: str) -> TypeDeclaration:
    _known(obj, {"name", "labels", "k_l", "rules"}, where)
    name = _want(obj, "name", "a string", where, required=True)
    if not name.strip() or "\t" in name or "\n" in name:
        raise ConfigError(f"{where}: bad type name {name!r}")
    labels_raw = _want(obj, "labels", "an array", where, required=True)
    if not labels_raw:
        raise ConfigError(f"{where}: type {name!r} needs at least one label")
    labels = tuple(
        _parse_label(l, f"{where}.labels[{i}]") for i, l in enumerate(labels_raw)
    )
    return TypeDeclaration(
        name=name,
        labels=labels,
        k_l=_want(obj, "k_l", "an integer", where),
        rules=_parse_rules(obj.get("rules"), where),
    )


def preset_types(name: str) -> list[TypeDeclaration]:
    if name not in QUESTION_PRESETS:
        raise ConfigError(
            f"unknown question preset {name!r}; available: {sorted(QUESTION_PRESETS)}"
        )
    return [_parse_type(t, f"preset {name}") for t in QUESTION_PRESETS[name]]


def _parse_selftrain(obj: Any, where: str, seed: int) -> SelfTrainConfig | None:
    if obj is None:
        return None
    _known(obj, {"preset", "t_begin", "t_update", "max_iterations"}, where)
    preset = _want(obj, "preset", "a string", where)
    if preset is not None:
        base = SelfTrainConfig.from_preset(
            preset, max_iterations=_want(obj, "max_iterations", "an integer", where), seed=seed
        )
        return dataclasses.replace(
            base,
            t_begin=_want(obj, "t_begin", "an integer", where, default=base.t_begin),
            t_update=_want(obj, "t_update", "an integer", where, default=base.t_update),
        )
    return SelfTrainConfig(
        t_begin=_want(obj, "t_begin", "an integer", where, required=True),
        t_update=_want(obj, "t_update", "an integer", where, required=True),
        max_iterations=_want(obj, "max_iterations", "an integer", where, required=True),
        seed=seed,
    )


def parse_config(
    obj: Any, base_dir: Path, source: str = "<config>", seed_override: int | None = None
) -> PipelineConfig:
    _known(obj, {
        "seed", "template", "preset", "types", "defaults", "corpus", "stopwords",
        "quality_phrases", "retrieval", "selftrain", "output_dir",
    }, source)

    seed = _want(obj, "seed", "an integer", source, default=0)
    if seed_override is not None:
        seed = seed_override

    template_raw = _want(obj, "template", "a string", source, default=DEFAULT_TEMPLATE)
    if "[TYPE]" in template_raw:
        template = QuestionTemplate(template_raw)
    else:
        template = QuestionTemplate.preset(template_raw)

    types: list[TypeDeclaration] = []
    preset = _want(obj, "preset", "a string", source)
    if preset is not None:
        types.extend(preset_types(preset))
    for i, t in enumerate(_want(obj, "types", "an array", source, default=[])):
        types.append(_parse_type(t, f"{source}.types[{i}]"))
    if not types:
        raise ConfigError(f"{source}: no entity types declared (set 'types' or 'preset')")
    names = [t.name for t in types]
    if len(names) != len(set(names)):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ConfigError(f"{source}: duplicate type names {dupes}")

    defaults = _want(obj, "defaults", "an object", source, default={})
    where = f"{source}.defaults"
    _known(defaults, {"k_l", "rules", "min_length"}, where)
    default_k_l = _want(defaults, "k_l", "an integer", where)
    default_rules = _parse_rules(defaults.get("rules"), where) or ()
    min_length = _want(defaults, "min_length", "an integer", where, default=DEFAULT_MIN_LENGTH)
    if min_length < 1:
        raise ConfigError(f"{where}: min_length must be >= 1, got {min_length}")

    corpus = _want(obj, "corpus", "a string", source, required=True)

    retr_raw = _want(obj, "retrieval", "an object", source, required=True)
    where = f"{source}.retrieval"
    _known(retr_raw, {"mode", "results", "endpoint", "top_n", "timeout", "attempts"}, where)
    mode = _want(retr_raw, "mode", "a string", where, required=True)
    results = _want(retr_raw, "results", "a string", where)
    retrieval = RetrievalSettings(
        mode=mode,
        results_path=(base_dir / results) if results else None,
        endpoint=_want(retr_raw, "endpoint", "a string", where),
        top_n=_want(retr_raw, "top_n", "an integer", where, default=100),
        timeout=_want(retr_raw, "timeout", "a finite number", where, default=10.0),
        attempts=_want(retr_raw, "attempts", "an integer", where, default=3),
    )

    stop = _want(obj, "stopwords", "a string", source)
    quality = _want(obj, "quality_phrases", "a string", source)
    output_dir = _want(obj, "output_dir", "a string", source, default="out")

    return PipelineConfig(
        seed=seed,
        template=template,
        types=tuple(types),
        corpus_path=base_dir / corpus,
        retrieval=retrieval,
        output_dir=base_dir / output_dir,
        base_dir=base_dir,
        default_k_l=default_k_l,
        default_rules=default_rules,
        min_length=min_length,
        stopwords_path=(base_dir / stop) if stop else None,
        quality_phrases_path=(base_dir / quality) if quality else None,
        selftrain=_parse_selftrain(obj.get("selftrain"), f"{source}.selftrain", seed),
    )


def load_config(path: str | Path, seed_override: int | None = None) -> PipelineConfig:
    """Parse a YAML config; relative paths resolve against the file's folder."""
    path = Path(path)
    try:
        text = read_config_text(path)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    try:
        obj = yaml.safe_load(text)
    except yaml.YAMLError as e:
        raise ConfigError(f"{path}: invalid YAML: {e}") from None
    return parse_config(obj, base_dir=path.parent, source=str(path), seed_override=seed_override)
