"""Properties of whole commands over small generated inputs: a corpus,
results that slice it and a config over one to three types, some of whose
phrases are claimed by two types.

Rule 10 (quality phrases) is never drawn and no corpus word holds a
parenthesis, so no span is grown and no short form is found: every
entity's tokens are a dictionary key's words."""

from __future__ import annotations

import hashlib
import json

import yaml
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from askner.config import load_config
from askner.conll import read_conll
from askner.metrics import extract_entities
from askner.normalizer import surface_key
from askner.pipeline import cmd_generate
from testutil import cpus, needs_fork

_WORDS = ["Oslo", "Lima", "New", "York", "fever", "flu", "WHO", "the", "is", "cold", "and"]
_TYPES = ["city", "disease", "org"]
_OUTPUTS = ("dataset.conll", "dictionary.tsv", "manifest.json")


def _record(sid: str, words: list[str]) -> dict:
    tokens, at = [], 0
    for word in words:
        tokens.append([word, at, at + len(word)])
        at += len(word) + 1
    return {"sentence_id": sid, "text": " ".join(words), "tokens": tokens}


@st.composite
def _inputs(draw):
    """The corpus records, the results records and the config mapping."""
    corpus = [
        _record(f"s{i:02d}", draw(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=6)))
        for i in range(draw(st.integers(1, 12)))
    ]
    # a hit is a run of one to three tokens in a corpus sentence
    hits = st.tuples(
        st.integers(0, len(corpus) - 1), st.integers(0, 5), st.integers(1, 3)
    ).map(lambda hit: _hit(corpus[hit[0]], *hit[1:]))
    types = draw(st.lists(st.sampled_from(_TYPES), min_size=1, max_size=3, unique=True))
    claimed = {name: draw(st.lists(hits, max_size=6)) for name in types}
    if len(types) > 1 and claimed[types[0]] and draw(st.booleans()):
        # the first type's phrases are the second's too
        claimed[types[1]] += claimed[types[0]][: draw(st.integers(1, 3))]
    results = [
        {"question_id": f"{name}:{name}", "rank": rank, "score": 100.0 - rank, **hit}
        for name in types
        for rank, hit in enumerate(claimed[name], 1)
    ]
    rules = sorted(draw(st.sets(st.sampled_from(range(2, 10)))))
    config = {
        "seed": 0,
        "corpus": "corpus.jsonl",
        "retrieval": {"mode": "replay", "results": "results.jsonl"},
        "types": [
            {"name": name, "k_l": draw(st.integers(1, 6)), "rules": rules, "labels": [name]}
            for name in types
        ],
        "output_dir": "out",
    }
    return corpus, results, config


def _hit(record: dict, start: int, length: int) -> dict:
    tokens = record["tokens"]
    start = min(start, len(tokens) - 1)
    first, last = tokens[start], tokens[min(start + length, len(tokens)) - 1]
    return {
        "phrase": record["text"][first[1] : last[2]],
        "sentence_id": record["sentence_id"],
        "char_start": first[1],
        "char_end": last[2],
    }


def _lines(records: list[dict]) -> str:
    return "".join(json.dumps(r) + "\n" for r in records)


@needs_fork
@seed(31)
@settings(max_examples=40, deadline=None)
@given(_inputs())
def test_generate_writes_the_same_bytes_on_one_cpu_and_on_two(tmp_path_factory, inputs):
    corpus, results, config = inputs
    data = tmp_path_factory.mktemp("data")
    (data / "corpus.jsonl").write_text(_lines(corpus), encoding="utf-8")
    (data / "results.jsonl").write_text(_lines(results), encoding="utf-8")
    (data / "config.yaml").write_text(yaml.safe_dump(config), encoding="utf-8")
    outputs = {}
    for n in (1, 2):
        out = data / f"out-{n}"
        with cpus(n):
            cmd_generate(load_config(data / "config.yaml"), out)
        outputs[n] = {name: (out / name).read_bytes() for name in _OUTPUTS}
    assert outputs[1] == outputs[2]
    _check_outputs(data / "out-1")


def _check_outputs(out):
    """The dataset reads back with the manifest's sentence and entity
    counts, its tags are legal BIO, each entity's words are a dictionary
    key listing the entity's type, and the manifest's digests are the
    files'."""
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    types: dict[str, set[str]] = {}
    for line in (out / "dictionary.tsv").read_text(encoding="utf-8").splitlines():
        key, type_name, _ = line.split("\t")
        types.setdefault(key, set()).add(type_name)
    sentences = read_conll(out / "dataset.conll")
    assert len(sentences) == manifest["counts"]["labeled_sentences"]
    entities = 0
    for sent in sentences:
        for prev, tag in zip(("O", *sent.tags), sent.tags):
            assert not tag.startswith("I-") or prev in ("B-" + tag[2:], tag), sent
        for start, end, type_name in extract_entities(sent.tags):
            assert type_name in types[surface_key(" ".join(sent.tokens[start:end]))], sent
            entities += 1
    assert entities == manifest["counts"]["entities"]
    assert manifest["outputs"] == {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("dataset.conll", "dictionary.tsv")
    }
