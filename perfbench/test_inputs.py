"""Tests for the benchmark inputs made by ``inputs.py``.

    python3 -m pytest -q perfbench/test_inputs.py
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path[:0] = [str(REPO / "src"), str(HERE)]

from askner.retrieval import load_corpus, read_results  # noqa: E402
from inputs import build_inputs  # noqa: E402


def test_one_unprefixed_replica_reproduces_committed_synthetic(tmp_path):
    inputs = build_inputs(tmp_path, first_seed=7, replicas=1, prefix=False)
    for path in (inputs.corpus, inputs.results, inputs.gold, inputs.validation, inputs.config):
        assert path.read_bytes() == (REPO / "data" / "synthetic" / path.name).read_bytes(), path.name


def test_merged_results_slice_their_sentences(tmp_path):
    inputs = build_inputs(tmp_path, first_seed=3, replicas=4, retrieved=2)
    corpus = load_corpus(inputs.corpus)  # rejects duplicate sentence ids
    assert len(corpus) == inputs.corpus_sentences == 4 * 200
    groups = read_results(inputs.results, corpus)  # checks slices, ranks, scores
    assert groups == inputs.groups
    for phrases in groups.values():
        assert [p.rank for p in phrases] == list(range(1, len(phrases) + 1))
        for p in phrases:
            assert corpus[p.sentence_id].text[p.char_start:p.char_end] == p.surface
            assert p.sentence_id[:5] in ("r000-", "r001-")
    assert inputs.gold.read_text(encoding="utf-8").count("\n\n") + 1 == 2 * 200
