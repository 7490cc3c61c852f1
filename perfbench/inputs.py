"""Seeded benchmark inputs built by replicating the synthetic generator.

``build_inputs`` runs ``askner.synthetic.build_benchmark`` once per seed in
``first_seed .. first_seed + replicas - 1`` and joins the replicas into one
input set:

- corpus: every replica's sentences, replica by replica, with sentence ids
  prefixed ``r<index>-`` so they stay unique;
- results: only the first ``retrieved`` replicas are retrieved. Each
  question's hits are merged by (score desc, replica, rank) and renumbered,
  so scores stay non-increasing with rank;
- gold and validation: the retrieved replicas' files concatenated. The
  generated dataset holds the kept sentences in corpus order, and every
  sentence of a retrieved replica is kept, so it aligns with this gold;
- config: the synthetic config with each type's k_l summed over the
  retrieved replicas.

Replicas past ``retrieved`` add corpus sentences that nothing retrieves.
A single replica built without a prefix reproduces ``build_benchmark``
byte for byte.
"""

from __future__ import annotations

import json
import re
import shutil
from dataclasses import dataclass, replace
from pathlib import Path

from askner import synthetic
from askner.retrieval import RetrievedPhrase, read_results, serialize_results


@dataclass(frozen=True)
class Inputs:
    corpus: Path
    results: Path
    gold: Path
    validation: Path
    config: Path
    corpus_sentences: int
    groups: dict[str, list[RetrievedPhrase]]


def _k_l(config_text: str) -> dict[str, int]:
    found = re.findall(r"- name: (\w+)\n\s+k_l: (\d+)", config_text)
    return {name: int(k) for name, k in found}


def renumber(rows: list[tuple]) -> list[RetrievedPhrase]:
    """Sort (key..., phrase) rows by key and give the phrases ranks 1..n."""
    rows = sorted(rows, key=lambda row: row[:-1])
    return [replace(row[-1], rank=rank) for rank, row in enumerate(rows, 1)]


def build_inputs(
    out_dir: Path,
    first_seed: int,
    replicas: int,
    retrieved: int | None = None,
    prefix: bool = True,
) -> Inputs:
    """Write the joined replica files into ``out_dir`` and return them."""
    retrieved = replicas if retrieved is None else retrieved
    if not 1 <= retrieved <= replicas:
        raise ValueError(f"need 1 <= retrieved <= replicas, got {retrieved}/{replicas}")
    if replicas > 1 and not prefix:
        raise ValueError("several replicas need prefixed sentence ids")
    out_dir = Path(out_dir)
    scratch = out_dir / "replicas"
    corpus_lines: list[str] = []
    hits: dict[str, list[tuple[float, int, int, RetrievedPhrase]]] = {}
    gold: list[str] = []
    validation: list[str] = []
    k_l = {"disease": 0, "city": 0}
    for index in range(replicas):
        paths = synthetic.build_benchmark(scratch / str(index), seed=first_seed + index)
        tag = f"r{index:03d}-" if prefix else ""
        with open(paths.corpus, encoding="utf-8") as fh:
            for line in fh:
                if prefix:
                    record = json.loads(line)
                    record["sentence_id"] = tag + record["sentence_id"]
                    line = json.dumps(record, ensure_ascii=False) + "\n"
                corpus_lines.append(line)
        if index >= retrieved:
            continue
        for qid, phrases in read_results(paths.results).items():
            for p in phrases:
                moved = replace(p, sentence_id=tag + p.sentence_id)
                hits.setdefault(qid, []).append((-p.score, index, p.rank, moved))
        gold.append(paths.gold.read_text(encoding="utf-8"))
        validation.append(paths.validation.read_text(encoding="utf-8"))
        for name, k in _k_l(paths.config.read_text(encoding="utf-8")).items():
            k_l[name] += k
    shutil.rmtree(scratch)

    groups = {qid: renumber(rows) for qid, rows in hits.items()}
    inputs = Inputs(
        corpus=out_dir / "corpus.jsonl",
        results=out_dir / "results.jsonl",
        gold=out_dir / "gold.conll",
        validation=out_dir / "validation.conll",
        config=out_dir / "config.yaml",
        corpus_sentences=len(corpus_lines),
        groups=groups,
    )
    inputs.corpus.write_text("".join(corpus_lines), encoding="utf-8")
    inputs.results.write_text(serialize_results(groups), encoding="utf-8")
    inputs.gold.write_text("\n".join(gold), encoding="utf-8")
    inputs.validation.write_text("\n".join(validation), encoding="utf-8")
    inputs.config.write_text(
        synthetic._CONFIG_TEMPLATE.format(
            seed=first_seed, k_disease=k_l["disease"], k_city=k_l["city"]
        ),
        encoding="utf-8",
    )
    return inputs
