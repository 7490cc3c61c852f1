import dataclasses
from pathlib import Path

import pytest

from askner.config import (
    COMMON_RULES,
    QUESTION_PRESETS,
    PipelineConfig,
    RetrievalSettings,
    load_config,
    parse_config,
    preset_types,
)
from askner.errors import ConfigError
from askner.querygen import (
    LabelDeclaration,
    QuestionTemplate,
    TypeDeclaration,
    build_question_set,
)
from askner.selftrain import SelfTrainConfig


def _minimal(**extra):
    obj = {
        "corpus": "corpus.jsonl",
        "retrieval": {"mode": "replay", "results": "results.jsonl"},
        "types": [{"name": "city", "labels": ["city"], "k_l": 10}],
    }
    obj.update(extra)
    return obj


def test_minimal_config(tmp_path):
    cfg = parse_config(_minimal(), base_dir=tmp_path)
    assert cfg.seed == 0
    assert cfg.corpus_path == tmp_path / "corpus.jsonl"
    assert cfg.retrieval.results_path == tmp_path / "results.jsonl"
    assert cfg.output_dir == tmp_path / "out"
    assert cfg.types[0].name == "city"
    assert cfg.selftrain is None


def test_preset_expansion_conll2003(tmp_path):
    cfg = parse_config(
        {"corpus": "c.jsonl", "preset": "conll2003",
         "retrieval": {"mode": "remote", "endpoint": "http://localhost:9/"}},
        base_dir=tmp_path,
    )
    questions = build_question_set(cfg.types, cfg.template)
    assert len(questions) == 9
    assert {q.output_type for q in questions} == {"person", "location", "organization"}
    for q in questions:
        assert q.k_l == 5000
        assert q.rules == frozenset({1, 2, 3, 4, 5, 6, 7, 8, 10})
    assert questions[0].question_id == "person:athlete"
    assert questions[0].question_text == "Which athlete?"


def test_preset_tables_are_well_formed():
    for name in QUESTION_PRESETS:
        types = preset_types(name)
        assert types, name
        for t in types:
            assert t.k_l is not None and t.k_l > 0
    # spot-check a biomedical row: rules 4 and 9, no 1/3
    (disease,) = preset_types("ncbi_disease")
    assert disease.k_l == 35000
    assert disease.rules == tuple(sorted({4, 9} | set(COMMON_RULES)))
    # per-label rule overrides survive parsing
    wnut = {t.name: t for t in preset_types("wnut16")}
    product = {l.label: l for l in wnut["product"].labels}
    assert product["mobile app"].rules == tuple(sorted({3} | set(COMMON_RULES)))
    assert product["car"].rules == tuple(sorted({1, 3, 4} | set(COMMON_RULES)))
    assert "sports team" in wnut and "TV show" in wnut


def test_unknown_preset():
    with pytest.raises(ConfigError, match="unknown question preset"):
        preset_types("conll2004")


def test_unknown_top_level_keys(tmp_path):
    with pytest.raises(ConfigError, match="unknown keys.*typo"):
        parse_config(_minimal(typo=1), base_dir=tmp_path)


@pytest.mark.parametrize(
    "extra, message",
    [
        ({"retrieval": {"mode": "replay", "results": "r.jsonl", "top-n": 5}},
         r"<config>\.retrieval: unknown keys \['top-n'\]"),
        ({"types": [{"name": "city", "labels": ["city"], "kl": 7}]},
         r"<config>\.types\[0\]: unknown keys \['kl'\]"),
        ({"types": [{"name": "city", "labels": [{"label": "city", "rule": [3]}]}]},
         r"<config>\.types\[0\]\.labels\[0\]: unknown keys \['rule'\]"),
        ({"defaults": {"min_lenght": 3}}, r"<config>\.defaults: unknown keys \['min_lenght'\]"),
        ({"selftrain": {"t_begin": 4, "t_update": 2, "max_iterations": 6, "seeed": 4}},
         r"<config>\.selftrain: unknown keys \['seeed'\]"),
        # keys YAML reads as numbers sort with the rest instead of failing
        ({"defaults": {"k_l": 5, 3: 1, "b": 2}}, r"<config>\.defaults: unknown keys \[3, 'b'\]"),
    ],
    ids=["retrieval", "type", "label", "defaults", "selftrain", "number-key"],
)
def test_unknown_keys_in_nested_mappings(tmp_path, extra, message):
    with pytest.raises(ConfigError, match="^" + message + "$"):
        parse_config(_minimal(**extra), base_dir=tmp_path)


def test_timeout_reads_as_a_float_whether_written_as_an_integer_or_not(tmp_path):
    configs = [
        parse_config(_minimal(retrieval={"mode": "remote", "endpoint": "http://x/",
                                         "timeout": timeout}), base_dir=tmp_path)
        for timeout in (10, 10.0)
    ]
    for config in configs:
        assert type(config.retrieval.timeout) is float
    assert configs[0].config_hash() == configs[1].config_hash()
    assert configs[0] == configs[1]


def test_duplicate_type_names(tmp_path):
    obj = _minimal()
    obj["preset"] = "ncbi_disease"
    obj["types"] = [{"name": "disease", "labels": ["disease"], "k_l": 5}]
    with pytest.raises(ConfigError, match="duplicate type names.*disease"):
        parse_config(obj, base_dir=tmp_path)


def test_types_or_preset_required(tmp_path):
    obj = _minimal()
    del obj["types"]
    with pytest.raises(ConfigError, match="no entity types"):
        parse_config(obj, base_dir=tmp_path)


def test_defaults_flow_through(tmp_path):
    obj = _minimal(defaults={"k_l": 77, "rules": [2, 5], "min_length": 4})
    obj["types"] = [{"name": "city", "labels": ["city"]}]
    cfg = parse_config(obj, base_dir=tmp_path)
    assert cfg.default_k_l == 77
    assert cfg.default_rules == (2, 5)
    assert cfg.min_length == 4
    (q,) = build_question_set(
        cfg.types, cfg.template, default_k_l=cfg.default_k_l,
        default_rules=cfg.default_rules,
    )
    assert q.k_l == 77
    assert q.rules == frozenset({2, 5})


def test_bad_rule_ids(tmp_path):
    obj = _minimal(defaults={"rules": [2, 11]})
    with pytest.raises(ConfigError, match=r"unknown rule ids \[11\]"):
        parse_config(obj, base_dir=tmp_path)
    obj = _minimal(defaults={"rules": [True]})
    with pytest.raises(ConfigError, match="list of integers"):
        parse_config(obj, base_dir=tmp_path)


def test_retrieval_validation(tmp_path):
    with pytest.raises(ConfigError, match="mode"):
        parse_config(_minimal(retrieval={"mode": "psychic"}), base_dir=tmp_path)
    # retrieval replays a file or asks a service; there is no third mode
    with pytest.raises(ConfigError, match=r"mode must be one of \('replay', 'remote'\)"):
        parse_config(_minimal(retrieval={"mode": "toy"}), base_dir=tmp_path)
    with pytest.raises(ConfigError, match="endpoint"):
        parse_config(_minimal(retrieval={"mode": "remote"}), base_dir=tmp_path)
    with pytest.raises(ConfigError, match="results file"):
        parse_config(_minimal(retrieval={"mode": "replay"}), base_dir=tmp_path)
    with pytest.raises(ConfigError, match="top_n"):
        RetrievalSettings(mode="remote", endpoint="http://localhost:9/", top_n=0)
    # Rejected at load: at fetch time a timeout the HTTP client cannot use
    # raises from inside its pool as a traceback.
    for key, value in [("timeout", 0), ("timeout", -1.5), ("timeout", float("nan")),
                       ("timeout", float("inf")), ("attempts", 0), ("attempts", -1)]:
        retrieval = {"mode": "remote", "endpoint": "http://localhost:1/", key: value}
        with pytest.raises(ConfigError, match=key):
            parse_config(_minimal(retrieval=retrieval), base_dir=tmp_path)


def test_boolean_is_not_an_integer(tmp_path):
    obj = _minimal(seed=True)
    with pytest.raises(ConfigError, match="seed.*integer"):
        parse_config(obj, base_dir=tmp_path)


@pytest.mark.parametrize(
    "extra, message",
    [
        ({"defaults": {"min_length": 0}},
         r"<config>\.defaults: min_length must be >= 1, got 0"),
        ({"seed": "1"}, r"<config>: seed must be an integer, got '1'"),
        ({"types": ["city"]}, r"types\[0\] must be an object, got 'city'"),
        ({"types": [{"name": "a\tb", "labels": ["city"]}]}, r"bad type name 'a\\tb'"),
        ({"types": [{"name": "city", "labels": []}]}, "'city' needs at least one label"),
        ({"types": [{"name": "city", "labels": [5]}]},
         r"labels\[0\]: label must be a string or an object"),
        ({"types": [{"name": "city", "labels": [{"label": " "}]}]},
         r"labels\[0\]: label must be non-empty"),
        ({"selftrain": [200, 100]}, r"<config>\.selftrain must be an object, got \[200, 100\]"),
    ],
    ids=["min-length-0", "wrong-type", "type-not-object", "tab-in-name", "no-labels",
         "label-not-string-or-object", "blank-label", "selftrain-not-object"],
)
def test_malformed_config_is_rejected_where_it_is_written(tmp_path, extra, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(_minimal(**extra), base_dir=tmp_path)


def test_template_options(tmp_path):
    cfg = parse_config(_minimal(template="list-of"), base_dir=tmp_path)
    assert cfg.template.pattern == "list of [TYPE]"
    cfg = parse_config(_minimal(template="Name a [TYPE] now"), base_dir=tmp_path)
    assert cfg.template.pattern == "Name a [TYPE] now"
    with pytest.raises(ConfigError):
        parse_config(_minimal(template="no placeholder here"), base_dir=tmp_path)


def test_selftrain_preset_merge(tmp_path):
    obj = _minimal(seed=9, selftrain={"preset": "wikigold"})
    cfg = parse_config(obj, base_dir=tmp_path)
    st = cfg.selftrain
    assert (st.t_begin, st.t_update, st.max_iterations, st.seed) == (500, 300, 1800, 9)

    obj = _minimal(seed=9, selftrain={"preset": "wikigold", "t_update": 100})
    cfg = parse_config(obj, base_dir=tmp_path)
    assert (cfg.selftrain.t_begin, cfg.selftrain.t_update) == (500, 100)

    obj = _minimal(selftrain={"t_begin": 4, "t_update": 2, "max_iterations": 6})
    cfg = parse_config(obj, base_dir=tmp_path)
    assert cfg.selftrain.max_iterations == 6

    obj = _minimal(selftrain={"t_begin": 4})
    with pytest.raises(ConfigError, match="t_update"):
        parse_config(obj, base_dir=tmp_path)


def test_load_config_yaml(tmp_path):
    path = tmp_path / "conf" / "run.yaml"
    path.parent.mkdir()
    path.write_text(
        "seed: 5\n"
        "corpus: ../corpus.jsonl\n"
        "retrieval:\n  mode: remote\n  endpoint: http://localhost:9/\n  top_n: 7\n"
        "types:\n  - name: city\n    k_l: 3\n    labels: [city, town]\n",
        encoding="utf-8",
    )
    cfg = load_config(path)
    assert cfg.seed == 5
    assert cfg.base_dir == path.parent
    assert cfg.corpus_path == tmp_path / "conf" / ".." / "corpus.jsonl"
    assert cfg.corpus_path.resolve() == tmp_path / "corpus.jsonl"
    assert cfg.retrieval.top_n == 7
    assert [l.label for l in cfg.types[0].labels] == ["city", "town"]

    assert load_config(path, seed_override=42).seed == 42


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("seed: [unclosed\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="invalid YAML"):
        load_config(bad)
    notmap = tmp_path / "list.yaml"
    notmap.write_text("- a\n- b\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="list.yaml must be an object, got"):
        load_config(notmap)


def test_config_hash_tracks_content(tmp_path):
    a = parse_config(_minimal(), base_dir=tmp_path)
    b = parse_config(_minimal(), base_dir=tmp_path)
    c = parse_config(_minimal(seed=1), base_dir=tmp_path)
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()
    assert len(a.config_hash()) == 64


def test_hash_ignores_base_dir_output_dir_and_config_location(tmp_path, monkeypatch):
    text = (
        "seed: 3\n"
        "corpus: corpus.jsonl\n"
        "stopwords: lists/stop.txt\n"
        "retrieval:\n  mode: replay\n  results: ../shared/results.jsonl\n"
        "types:\n  - name: city\n    k_l: 3\n    labels: [city]\n"
    )
    paths = [tmp_path / "a" / "run.yaml", tmp_path / "b" / "deeper" / "run.yaml"]
    for path in paths:
        path.parent.mkdir(parents=True)
        path.write_text(text, encoding="utf-8")
    moved_out = tmp_path / "c" / "run.yaml"
    moved_out.parent.mkdir()
    moved_out.write_text(text + "output_dir: elsewhere/out\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    configs = [load_config(p) for p in paths + [moved_out]]
    configs.append(load_config(Path("a") / "run.yaml"))  # relative spelling
    configs.append(load_config(Path("b") / "deeper" / ".." / "deeper" / "run.yaml"))
    assert len({c.base_dir for c in configs}) == 5
    assert len({c.output_dir for c in configs}) == 5
    assert len({c.config_hash() for c in configs}) == 1


def test_hash_covers_every_other_field(tmp_path):
    """Replacing any field but base_dir and output_dir, at any depth, gives a
    new hash: no field is silently left out of it."""
    selftrain = {"t_begin": 4, "t_update": 2, "max_iterations": 6}
    # the base config names an endpoint, so that its remote-mode variant is valid
    replay = {"mode": "replay", "results": "results.jsonl", "endpoint": "http://localhost:8/"}
    cfg = parse_config(_minimal(selftrain=selftrain, retrieval=replay), base_dir=tmp_path)
    top = {
        "seed": 1,
        "template": QuestionTemplate("list of [TYPE]"),
        "corpus_path": tmp_path / "other.jsonl",
        "default_k_l": 5,
        "default_rules": (2,),
        "min_length": 4,
        "stopwords_path": tmp_path / "stop.txt",
        "quality_phrases_path": tmp_path / "quality.txt",
    }
    retrieval = {
        "mode": "remote",
        "results_path": tmp_path / "other.jsonl",
        "endpoint": "http://localhost:9/",
        "top_n": 5,
        "timeout": 2.5,
        "attempts": 1,
    }
    schedule = {"t_begin": 5, "t_update": 3, "max_iterations": 7, "seed": 8}
    type_fields = {"name": "town", "labels": (LabelDeclaration("town"),), "k_l": 9,
                   "rules": (2, 3)}
    label_fields = {"label": "village", "k_l": 9, "rules": (2, 3)}

    def names(cls):
        return {f.name for f in dataclasses.fields(cls)}

    assert names(PipelineConfig) == set(top) | {"types", "retrieval", "selftrain",
                                                "base_dir", "output_dir"}
    assert names(RetrievalSettings) == set(retrieval)
    assert names(SelfTrainConfig) == set(schedule)
    assert names(TypeDeclaration) == set(type_fields)
    assert names(LabelDeclaration) == set(label_fields)
    assert names(QuestionTemplate) == {"pattern"}

    (city,) = cfg.types
    (label,) = city.labels
    replace = dataclasses.replace
    variants = [replace(cfg, **{k: v}) for k, v in top.items()]
    variants += [replace(cfg, retrieval=replace(cfg.retrieval, **{k: v}))
                 for k, v in retrieval.items()]
    variants += [replace(cfg, selftrain=replace(cfg.selftrain, **{k: v}))
                 for k, v in schedule.items()]
    variants += [replace(cfg, types=(replace(city, **{k: v}),)) for k, v in type_fields.items()]
    variants += [replace(cfg, types=(replace(city, labels=(replace(label, **{k: v}),)),))
                 for k, v in label_fields.items()]
    variants += [replace(cfg, selftrain=None)]
    hashes = {v.config_hash() for v in variants}
    assert cfg.config_hash() not in hashes
    assert len(hashes) == len(variants)
