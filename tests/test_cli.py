"""Command-line entry point, end to end over the bundled demo fixtures,
plus the HTTP retrieval client against a local test server."""

from __future__ import annotations

import errno
import gc
import hashlib
import importlib.util
import json
import math
import os
import re
import shutil
import socket
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from types import SimpleNamespace
from urllib.parse import parse_qs, urlparse

import pytest
import requests
import yaml

from askner import pipeline
from askner.annotator import LabeledSentence
from askner.cli import main
from askner.config import load_config
from askner.conll import read_conll
from askner.errors import DataError, FetchError, InternalInvariantError
from askner.forked import Forked
from askner.metrics import EntitySet, entity_f1
from askner.normalizer import BUNDLED_STOPWORDS
from askner.perceptron import AveragedPerceptronTagger
from askner.pipeline import cmd_generate
from askner.querygen import build_question_set
from askner.retrieval import fetch_remote, read_results, serialize_results
from askner.selftrain import SelfTrainConfig
from testutil import cpus, forked, needs_fork, recorded_forks  # noqa: F401 (forked is a fixture)

REPO = Path(__file__).resolve().parent.parent
DEMO = REPO / "data" / "demo"
SYNTH = REPO / "data" / "synthetic"


# -- the benchmark tracer ------------------------------------------------------


def test_benchmark_tracer_installs_on_the_pipeline():
    # perfbench/tracing.py wraps, by name, the functions askner.pipeline calls
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", REPO / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert [name for name in tracing.PIPELINE_COUNTERS if not hasattr(pipeline, name)] == []
    originals = {name: getattr(pipeline, name) for name in tracing.PIPELINE_COUNTERS}
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert {name: getattr(pipeline, name) for name in originals} == originals


# -- generate / eval / judge-stats over the demo fixtures --------------------


def run_generate(tmp_path: Path) -> Path:
    out = tmp_path / "gen"
    rc = main(["generate", "--config", str(DEMO / "config.yaml"), "--out", str(out)])
    assert rc == 0
    return out


def test_generate_writes_dataset_dictionary_manifest(tmp_path, capsys):
    out = run_generate(tmp_path)
    assert (out / "dataset.conll").is_file()
    assert (out / "dictionary.tsv").is_file()
    assert (out / "manifest.json").is_file()
    stdout = capsys.readouterr().out
    assert "sentences=13 entities=11 dictionary_entries=4" in stdout

    dictionary = (out / "dictionary.tsv").read_text().splitlines()
    assert "washington\tperson\t7" in dictionary
    assert "washington\tcity\t3" in dictionary
    assert "crohn's disease\tdisease\t2" in dictionary

    sentences = read_conll(out / "dataset.conll")
    assert len(sentences) == 13
    by_tokens = {s.tokens: s.tags for s in sentences}
    # The parenthesized short form is annotated through the long form's entry.
    abbrev = by_tokens[tuple("Investigators linked CD to a gene variant .".split())]
    assert abbrev[2] == "B-disease"
    # 7 person vs 3 city retrievals over 5 occurrences -> 4 person + 1 city.
    tail = by_tokens[tuple("Washington praised the new budget .".split())]
    assert tail[0] == "B-city"

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "generate"
    assert manifest["counts"]["entities"] == 11
    assert manifest["counts"]["abbreviation_patterns"] == 1
    assert set(manifest["outputs"]) == {"dataset.conll", "dictionary.tsv"}
    assert set(manifest["inputs"]) == {"corpus", "results", "stopwords"}
    bundled = hashlib.sha256(BUNDLED_STOPWORDS.read_bytes()).hexdigest()
    assert manifest["inputs"]["stopwords"] == bundled


def test_manifest_digests_configured_word_lists(tmp_path):
    stopwords = tmp_path / "stopwords.txt"
    stopwords.write_text("the\nof\n", encoding="utf-8")
    quality = tmp_path / "quality.txt"
    quality.write_text("New York City\n", encoding="utf-8")
    config = tmp_path / "config.yaml"
    config.write_text(
        (DEMO / "config.yaml").read_text(encoding="utf-8")
        .replace("corpus: corpus.jsonl", f"corpus: {DEMO / 'corpus.jsonl'}")
        .replace("results: results.jsonl", f"results: {DEMO / 'results.jsonl'}")
        + "stopwords: stopwords.txt\nquality_phrases: quality.txt\n",
        encoding="utf-8",
    )

    def inputs(run: str) -> dict:
        rc = main(["-q", "generate", "--config", str(config), "--out", str(tmp_path / run)])
        assert rc == 0
        return json.loads((tmp_path / run / "manifest.json").read_text())["inputs"]

    first = inputs("first")
    assert first["stopwords"] == hashlib.sha256(stopwords.read_bytes()).hexdigest()
    assert first["quality_phrases"] == hashlib.sha256(quality.read_bytes()).hexdigest()
    quality.write_text("New York City\nSan Francisco\n", encoding="utf-8")
    second = inputs("second")
    assert second["quality_phrases"] == hashlib.sha256(quality.read_bytes()).hexdigest()
    assert second["quality_phrases"] != first["quality_phrases"]
    assert {k: v for k, v in second.items() if k != "quality_phrases"} == {
        k: v for k, v in first.items() if k != "quality_phrases"
    }


def test_eval_against_demo_gold(tmp_path, capsys):
    out = run_generate(tmp_path)
    report_path = tmp_path / "report.json"
    rc = main([
        "eval", str(DEMO / "gold.conll"), str(out / "dataset.conll"),
        "--out", str(report_path),
    ])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "precision=0.7273 recall=0.7273" in stdout
    report = json.loads(report_path.read_text())
    assert report["gold"] == 11 and report["predicted"] == 11 and report["correct"] == 8
    assert report["precision"] == pytest.approx(8 / 11)
    assert report["per_type"]["disease"]["correct"] == 5


def test_eval_sentence_count_mismatch_is_data_error(tmp_path):
    rc = main([
        "eval", str(DEMO / "gold.conll"), str(SYNTH / "validation.conll"),
    ])
    assert rc == 2


def test_judge_stats(tmp_path, capsys):
    stats_path = tmp_path / "stats.json"
    rc = main([
        "judge-stats", "--results", str(DEMO / "results.jsonl"),
        "--judgments", str(DEMO / "judgments.jsonl"),
        "--k", "5", "--out", str(stats_path),
    ])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "person:politician: precision@5=1.0000 diversity=1" in stdout
    assert "macro precision@5=0.8667" in stdout
    stats = json.loads(stats_path.read_text())
    assert stats["per_question"]["disease:disease"]["precision_at_k"] == pytest.approx(0.8)
    assert stats["per_question"]["disease:disease"]["diversity"] == 4
    assert stats["macro_precision_at_k"] == pytest.approx(13 / 15)


def test_judge_stats_missing_judgment_is_data_error(tmp_path):
    partial = tmp_path / "judgments.jsonl"
    lines = (DEMO / "judgments.jsonl").read_text().splitlines()
    partial.write_text("\n".join(lines[:-1]) + "\n")
    rc = main([
        "judge-stats", "--results", str(DEMO / "results.jsonl"),
        "--judgments", str(partial), "--k", "5",
    ])
    assert rc == 2


# -- reading the corpus in two halves ------------------------------------------

@needs_fork
@pytest.mark.parametrize("data", [DEMO, SYNTH], ids=["demo", "synthetic"])
def test_generate_outputs_do_not_depend_on_a_split_corpus_read(tmp_path, data):
    forks, outputs = {}, {}
    for n in (1, 2):
        out = tmp_path / f"gen-{n}"
        with cpus(n), recorded_forks() as pids:
            rc = main(["-q", "generate", "--config", str(data / "config.yaml"), "--out", str(out)])
        assert rc == 0
        forks[n] = len(pids)
        outputs[n] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert forks == {1: 0, 2: 2}  # the corpus reader and the dataset writer
    assert list(outputs[2]) == ["dataset.conll", "dictionary.tsv", "manifest.json"]
    assert outputs[1] == outputs[2]


@needs_fork
def test_selftrain_unlabeled_pool_does_not_depend_on_a_split_corpus_read(tmp_path):
    config = replace(
        load_config(SYNTH / "config.yaml"),
        selftrain=SelfTrainConfig(t_begin=20, t_update=10, max_iterations=30, seed=1),
    )
    forks, outputs = {}, {}
    for n in (1, 2):
        out = tmp_path / f"selftrain-{n}"
        with cpus(n), recorded_forks() as pids:
            pipeline.cmd_selftrain(
                SYNTH / "gold.conll", SYNTH / "validation.conll", config, out,
                unlabeled_path=SYNTH / "corpus.jsonl",
            )
        forks[n] = len(pids)
        outputs[n] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert forks == {1: 0, 2: 2}  # the corpus reader and the validation scorer
    assert outputs[1] == outputs[2]


def test_no_fork_while_another_thread_runs(monkeypatch):
    def no_pipe():
        raise AssertionError("a pipe was opened")

    monkeypatch.setattr(os, "pipe", no_pipe)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        with cpus(2):
            assert Forked.start("helper", lambda link: None) is None
    finally:
        release.set()
        thread.join()
    with cpus(1):
        assert Forked.start("helper", lambda link: None) is None


# -- input files that are not UTF-8 ----------------------------------------------


@pytest.mark.parametrize("n", [1, 2])
def test_a_corpus_that_is_not_utf8_is_a_data_error(tmp_path, caplog, n):
    demo = tmp_path / "demo"
    shutil.copytree(DEMO, demo)
    corpus = demo / "corpus.jsonl"
    lines = corpus.read_bytes().count(b"\n")
    with corpus.open("ab") as fh:
        fh.write(b"\xff\xfe junk\n")
    out = tmp_path / "out"
    with cpus(n):
        rc = main(["-q", "generate", "--config", str(demo / "config.yaml"), "--out", str(out)])
    assert rc == 2
    assert f"{corpus}:{lines + 1}: not UTF-8 text (invalid start byte, byte 0xff)" in caplog.text
    assert not out.exists()


def test_a_conll_file_that_is_not_utf8_is_a_data_error(tmp_path, caplog):
    gold = tmp_path / "gold.conll"
    data = (DEMO / "gold.conll").read_bytes()
    first_end = data.index(b"\n")
    gold.write_bytes(data[:first_end] + b"\r\n" + data[first_end + 1:].replace(b"O", b"\xc3O", 1))
    line = data[: data.index(b"O", first_end + 1)].count(b"\n") + 1
    rc = main(["-q", "eval", str(gold), str(DEMO / "gold.conll")])
    assert rc == 2
    assert f"{gold}:{line}: not UTF-8 text (invalid continuation byte, byte 0xc3)" in caplog.text


def test_a_judgments_file_that_is_not_utf8_is_a_data_error(tmp_path, caplog):
    judgments = tmp_path / "judgments.jsonl"
    judgments.write_bytes((DEMO / "judgments.jsonl").read_bytes() + b'{"question_id": "\x80"}\n')
    lines = (DEMO / "judgments.jsonl").read_bytes().count(b"\n")
    rc = main([
        "-q", "judge-stats", "--results", str(DEMO / "results.jsonl"),
        "--judgments", str(judgments), "--k", "5",
    ])
    assert rc == 2
    message = f"{judgments}:{lines + 1}: not UTF-8 text (invalid start byte, byte 0x80)"
    assert message in caplog.text


def _generate_fails_on_config(demo, tmp_path, capsys, caplog, message):
    """generate with ``demo``'s config exits 1 (a configuration error), logs
    ``message``, prints no traceback and writes nothing."""
    out = tmp_path / "out"
    rc = main(["-q", "generate", "--config", str(demo / "config.yaml"), "--out", str(out)])
    assert rc == 1
    assert message in caplog.text
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


def test_a_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys, caplog):
    demo = tmp_path / "demo"
    shutil.copytree(DEMO, demo)
    config = demo / "config.yaml"
    lines = config.read_bytes().count(b"\n")
    with config.open("ab") as fh:
        fh.write(b"# caf\xe9\n")
    message = f"{config}:{lines + 1}: not UTF-8 text (invalid continuation byte, byte 0xe9)"
    _generate_fails_on_config(demo, tmp_path, capsys, caplog, message)


@pytest.mark.parametrize("key", ["stopwords", "quality_phrases"])
def test_a_phrase_list_that_is_not_utf8_is_a_config_error(tmp_path, capsys, caplog, key):
    demo = tmp_path / "demo"
    shutil.copytree(DEMO, demo)
    (demo / "phrases.txt").write_bytes(b"the\r\nof\r\n\xff\n")
    with (demo / "config.yaml").open("a", encoding="utf-8") as fh:
        fh.write(f"{key}: phrases.txt\n")
    message = f"{demo / 'phrases.txt'}:3: not UTF-8 text (invalid start byte, byte 0xff)"
    _generate_fails_on_config(demo, tmp_path, capsys, caplog, message)


# -- selftrain ----------------------------------------------------------------


def test_selftrain_end_to_end(tmp_path, capsys):
    gen = tmp_path / "gen"
    rc = main(["-q", "generate", "--config", str(SYNTH / "config.yaml"), "--out", str(gen)])
    assert rc == 0
    st = tmp_path / "st"
    rc = main([
        "-q", "selftrain", "--config", str(SYNTH / "config.yaml"),
        "--dataset", str(gen / "dataset.conll"),
        "--validation", str(SYNTH / "validation.conll"),
        "--out", str(st),
    ])
    assert rc == 0
    assert sorted(p.name for p in st.iterdir()) == [
        "checkpoint.json", "manifest.json", "report.json", "training_log.jsonl",
    ]
    assert json.loads((st / "manifest.json").read_text())["seed"] == 7
    report = json.loads((st / "report.json").read_text())
    assert len(report["rounds"]) == 12
    assert report["best_f1"] == max(r["validation_f1"] for r in report["rounds"])
    best = report["rounds"][report["best_round"] - 1]
    assert (best["round"], best["student_steps"]) == (11, 1100)
    checkpoint = (st / "checkpoint.json").read_bytes()
    assert json.loads(checkpoint)["ticks"] == best["teacher_steps"] + best["student_steps"]

    # The checkpoint alone reproduces the reported score.
    tagger = AveragedPerceptronTagger()
    tagger.restore(checkpoint)
    validation = read_conll(SYNTH / "validation.conll")
    predicted = [
        LabeledSentence(s.sentence_id, s.tokens, tuple(tags))
        for s, tags in zip(validation, tagger.predict([s.tokens for s in validation]))
    ]
    scored = entity_f1(EntitySet.from_sentences(validation), EntitySet.from_sentences(predicted))
    assert scored.f1 == report["best_f1"]
    log_lines = (st / "training_log.jsonl").read_text().splitlines()
    assert [json.loads(l)["round"] for l in log_lines] == list(range(1, 13))
    stdout = capsys.readouterr().out
    assert "teacher_f1=" in stdout and "best_round=" in stdout


def test_selftrain_separate_unlabeled_pool(tmp_path):
    gen = tmp_path / "gen"
    assert main(["-q", "generate", "--config", str(SYNTH / "config.yaml"), "--out", str(gen)]) == 0
    st = tmp_path / "st"
    rc = main([
        "-q", "selftrain", "--config", str(SYNTH / "config.yaml"),
        "--dataset", str(gen / "dataset.conll"),
        "--validation", str(SYNTH / "validation.conll"),
        "--unlabeled", str(SYNTH / "corpus.jsonl"),
        "--out", str(st),
    ])
    assert rc == 0
    manifest = json.loads((st / "manifest.json").read_text())
    assert "unlabeled" in manifest["inputs"]
    assert manifest["counts"]["unlabeled_sentences"] == 200


# sha256 of the artifacts that a change meant to keep behaviour must leave
# byte-identical. The manifests are the same in every checkout: config_hash
# writes paths relative to the config's folder, and inputs are digested by
# content.
PINNED_DIGESTS = {
    ("demo", "dataset.conll"):
        "a272bf0e008190b3b138283aecf323e106a3e37ae96d8ed4ca88a076271ed5be",
    ("demo", "dictionary.tsv"):
        "f2557c1896d8e71e8af9efc202d353f9c3e32d0d43f05d18cdb827916332584d",
    ("demo", "manifest.json"):
        "620f37763fad3c7b54d1dadc1cf20f80fcb62ede2979fca935df6a2abff1773c",
    ("synthetic", "dataset.conll"):
        "5a2bd85179649d8b26abfbd0c2915f7fa2b7169af31f5a2d303d209a1cd492dc",
    ("synthetic", "dictionary.tsv"):
        "18dabca19f1af90f9e274c4c959fe4a6a8b642c280ddf606cae85b101931f210",
    ("synthetic", "manifest.json"):
        "b4c277ff4d19b529c117b91835783235f0e061a046bad5a58e3e68059c2c546d",
    ("selftrain", "checkpoint.json"):
        "a6597bfa749422524b4da2a6463a2112d072a66171e8144321f03f27b6ff052d",
    ("selftrain", "training_log.jsonl"):
        "89706dfc2ed2e2733db40f7c62b30ff3c63d2d427c7f32b374e839ca83ce1afd",
    ("selftrain", "report.json"):
        "03f520f02da9d2d60a31f449b625634437581a04d7da030fc9d230367c42beb5",
    ("selftrain", "manifest.json"):
        "5f27139408f227d104d422cbbc579ad97c651e2ccd16e42c3be0f337ef703894",
}


def test_outputs_match_pinned_digests(tmp_path):
    for name in ("demo", "synthetic"):
        config = REPO / "data" / name / "config.yaml"
        rc = main(["-q", "generate", "--config", str(config), "--out", str(tmp_path / name)])
        assert rc == 0
    rc = main([
        "-q", "selftrain", "--config", str(SYNTH / "config.yaml"),
        "--dataset", str(tmp_path / "synthetic" / "dataset.conll"),
        "--validation", str(SYNTH / "validation.conll"),
        "--out", str(tmp_path / "selftrain"),
    ])
    assert rc == 0
    got = {
        (run, name): hashlib.sha256((tmp_path / run / name).read_bytes()).hexdigest()
        for run, name in PINNED_DIGESTS
    }
    assert got == PINNED_DIGESTS


@needs_fork
def test_selftrain_outputs_do_not_depend_on_where_validation_runs(tmp_path):
    gen = tmp_path / "gen"
    assert main(["-q", "generate", "--config", str(SYNTH / "config.yaml"), "--out", str(gen)]) == 0
    names = ("checkpoint.json", "training_log.jsonl", "report.json", "manifest.json")
    forks, outputs = {}, {}
    for n in (1, 2):
        out = tmp_path / f"selftrain-{n}"
        with cpus(n), recorded_forks() as pids:
            rc = main([
                "-q", "selftrain", "--config", str(SYNTH / "config.yaml"),
                "--dataset", str(gen / "dataset.conll"),
                "--validation", str(SYNTH / "validation.conll"),
                "--out", str(out),
            ])
        assert rc == 0
        forks[n] = len(pids)
        outputs[n] = {name: (out / name).read_bytes() for name in names}
    assert forks == {1: 0, 2: 1}  # the validation scorer
    assert outputs[1] == outputs[2]
    assert {
        ("selftrain", name): hashlib.sha256(data).hexdigest()
        for name, data in outputs[2].items()
    } == {key: digest for key, digest in PINNED_DIGESTS.items() if key[0] == "selftrain"}


def test_selftrain_without_schedule_is_config_error(tmp_path):
    rc = main([
        "-q", "selftrain", "--config", str(DEMO / "config.yaml"),
        "--dataset", str(DEMO / "gold.conll"),
        "--validation", str(DEMO / "gold.conll"),
        "--out", str(tmp_path),
    ])
    assert rc == 1


# -- exit codes ---------------------------------------------------------------


def test_missing_config_is_config_error(tmp_path):
    rc = main(["generate", "--config", str(tmp_path / "absent.yaml")])
    assert rc == 1


def test_malformed_conll_is_data_error(tmp_path):
    bad = tmp_path / "bad.conll"
    bad.write_text("token without a tag\n")
    rc = main(["eval", str(bad), str(bad)])
    assert rc == 2


def test_internal_invariant_exits_3(tmp_path, monkeypatch):
    def explode(*args, **kwargs):
        raise InternalInvariantError("wedged")

    monkeypatch.setattr("askner.cli.cmd_eval", explode)
    rc = main(["eval", str(DEMO / "gold.conll"), str(DEMO / "gold.conll")])
    assert rc == 3


def test_interrupt_exits_130_and_leaves_no_partial_output(tmp_path):
    # Ctrl-C after the first output file is staged. Run in a child process,
    # so that stderr is the real one and an uncaught interrupt cannot stop
    # the test session.
    script = """
import gc
import sys
from askner import cli, pipeline
write = pipeline.atomic_write
def interrupt(path, data):
    write(path, data)
    raise KeyboardInterrupt
pipeline.atomic_write = interrupt
rc = cli.main(sys.argv[1:])
print("gc enabled:", gc.isenabled())
sys.exit(rc)
"""
    out = tmp_path / "out"
    args = ["-q", "generate", "--config", str(DEMO / "config.yaml"), "--out", str(out)]
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert proc.returncode == 130
    assert "Traceback" not in proc.stderr
    assert proc.stderr.endswith("\nERROR askner: interrupted\n")
    assert proc.stderr.count("interrupted") == 1
    assert list(out.iterdir()) == []
    # generate paused the cyclic collector, and the interrupt re-enabled it
    assert proc.stdout == "gc enabled: True\n"


@pytest.mark.parametrize(
    "line",
    ['{"question_id": "city:city", "rank": 1' + "0" * 4999 + "}",
     "[" * 100_000 + "]" * 100_000],
    ids=["5000-digit-rank", "deep-nesting"],
)
def test_generate_on_a_results_line_json_cannot_decode_is_data_error(tmp_path, caplog, line):
    data = tmp_path / "demo"
    shutil.copytree(DEMO, data)
    with open(data / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    out = tmp_path / "out"
    rc = main(["generate", "--config", str(data / "config.yaml"), "--out", str(out)])
    assert rc == 2
    assert f"{data / 'results.jsonl'}:20: invalid JSON: " in caplog.text
    assert not out.exists()


def test_a_missing_input_file_is_config_error(tmp_path, caplog):
    missing = tmp_path / "absent.conll"
    rc = main(["eval", str(missing), str(DEMO / "gold.conll")])
    assert rc == 1
    assert f"missing input files: {missing}" in caplog.text


@pytest.mark.parametrize("empty", ["dataset", "validation", "unlabeled"])
def test_selftrain_on_an_empty_input_is_data_error(tmp_path, caplog, empty):
    inputs = {
        "dataset": SYNTH / "validation.conll",
        "validation": SYNTH / "validation.conll",
        "unlabeled": SYNTH / "corpus.jsonl",
    }
    inputs[empty] = tmp_path / f"empty-{empty}"
    inputs[empty].write_text("", encoding="utf-8")
    out = tmp_path / "selftrain"
    rc = main([
        "-q", "selftrain", "--config", str(SYNTH / "config.yaml"),
        *(arg for name, path in inputs.items() for arg in (f"--{name}", str(path))),
        "--out", str(out),
    ])
    assert rc == 2
    assert f"{inputs[empty]}: no sentences" in caplog.text
    assert not out.exists()


def test_eval_on_different_tokens_is_data_error(tmp_path, caplog):
    gold = tmp_path / "gold.conll"
    pred = tmp_path / "pred.conll"
    gold.write_text("Oslo\tB-city\nrains\tO\n", encoding="utf-8")
    pred.write_text("Bergen\tB-city\nrains\tO\n", encoding="utf-8")
    rc = main(["eval", str(gold), str(pred)])
    assert rc == 2
    assert "token mismatch in sentence" in caplog.text


@pytest.mark.parametrize(
    "k, results, rc, message",
    [(0, DEMO / "results.jsonl", 1, "k must be >= 1, got 0"),
     (5, None, 2, ": no results to score")],
    ids=["k-0", "empty-results"],
)
def test_judge_stats_rejects_a_zero_k_and_an_empty_results_file(
    tmp_path, caplog, k, results, rc, message
):
    if results is None:
        results = tmp_path / "results.jsonl"
        results.write_text("", encoding="utf-8")
    assert main([
        "judge-stats", "--results", str(results),
        "--judgments", str(DEMO / "judgments.jsonl"), "--k", str(k),
    ]) == rc
    assert message in caplog.text


def test_failed_write_leaves_no_partial_output(tmp_path, monkeypatch):
    real_fsync = os.fsync
    calls = []

    def fsync(fd):
        calls.append(fd)
        if len(calls) == 2:  # the second artifact, after the first is in place
            raise OSError(errno.ENOSPC, "No space left on device")
        real_fsync(fd)

    monkeypatch.setattr("askner.pipeline.os.fsync", fsync)
    out = tmp_path / "gen"
    with pytest.raises(OSError):
        cmd_generate(load_config(DEMO / "config.yaml"), out=out)
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("bad_line", [None, "{broken"])
@pytest.mark.parametrize("enabled", [True, False])
def test_generate_leaves_the_garbage_collector_as_it_found_it(
    tmp_path, monkeypatch, enabled, bad_line
):
    # generate pauses the cyclic collector while it runs. Afterwards, on
    # success or on a data error, the collector is on exactly if it was
    # before: a caller that had turned it off finds it still off.
    config = load_config(DEMO / "config.yaml")
    if bad_line is not None:
        corpus = tmp_path / "corpus.jsonl"
        text = config.corpus_path.read_text(encoding="utf-8")
        corpus.write_text(text + bad_line + "\n", encoding="utf-8")
        config = replace(config, corpus_path=corpus)
    during = []
    load = pipeline.load_corpus

    def load_corpus(*args, **kwargs):
        during.append(gc.isenabled())
        return load(*args, **kwargs)

    monkeypatch.setattr(pipeline, "load_corpus", load_corpus)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if bad_line is None:
            cmd_generate(config, out=tmp_path / "out")
        else:
            with pytest.raises(DataError, match=re.escape(f"{corpus}:") + r"\d+: invalid JSON"):
                cmd_generate(config, out=tmp_path / "out")
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False]
    assert after is enabled


class _CollectorCheckingTagger(AveragedPerceptronTagger):
    """Fails any restore made while the cyclic collector runs, in this
    process or in the forked scorer."""

    def restore(self, state):
        if gc.isenabled():
            raise AssertionError("restore ran with the cyclic collector enabled")
        super().restore(state)


@pytest.mark.parametrize("bad_line", [None, "{broken"])
@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("n", [1, pytest.param(2, marks=needs_fork)])
def test_selftrain_pauses_the_garbage_collector_and_restores_it(
    tmp_path, monkeypatch, forked, n, enabled, bad_line
):
    # selftrain pauses the cyclic collector for the whole run, the forked
    # scorer included, and afterwards, on success or on a data error, it is
    # on exactly if it was before.
    config = replace(
        load_config(SYNTH / "config.yaml"),
        selftrain=SelfTrainConfig(t_begin=20, t_update=10, max_iterations=30, seed=1),
    )
    unlabeled = tmp_path / "unlabeled.jsonl"
    unlabeled.write_text(
        config.corpus_path.read_text(encoding="utf-8") + (bad_line or "") + "\n",
        encoding="utf-8",
    )
    during = []
    run_self_training = pipeline.run_self_training

    def recording(*args, **kwargs):
        during.append(gc.isenabled())
        return run_self_training(*args, **kwargs)

    monkeypatch.setattr(pipeline, "run_self_training", recording)
    monkeypatch.setattr(pipeline, "AveragedPerceptronTagger", _CollectorCheckingTagger)
    args = (SYNTH / "gold.conll", SYNTH / "validation.conll", config, tmp_path / "out", unlabeled)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with cpus(n):
            if bad_line is None:
                outcome = pipeline.cmd_selftrain(*args)
            else:
                with pytest.raises(
                    DataError, match=re.escape(f"{unlabeled}:") + r"\d+: invalid JSON"
                ):
                    pipeline.cmd_selftrain(*args)
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert during == ([] if bad_line else [False])
    # the corpus reader, and the validation scorer if the pool reads
    assert len(forked) == (n > 1) * (1 if bad_line else 2)
    if bad_line is None:
        assert outcome.rounds == 3
    assert after is enabled


# Each command's artifacts in the order it writes them, manifest last.
RUN_ARTIFACTS = {
    "generate": ["dictionary.tsv", "dataset.conll", "manifest.json"],
    "generate-remote": ["results.jsonl", "dictionary.tsv", "dataset.conll", "manifest.json"],
    "selftrain": ["checkpoint.json", "training_log.jsonl", "report.json", "manifest.json"],
    "retrieve": ["results.jsonl", "results.jsonl.manifest.json"],
}


def _two_runs(command: str, tmp_path: Path, out: Path, server) -> tuple[list[str], list[str]]:
    """Arguments for two runs of ``command`` into ``out`` that differ in
    every artifact: another seed, and another stopword list or fewer hits
    from ``server``."""
    demo = yaml.safe_load((DEMO / "config.yaml").read_text(encoding="utf-8"))
    demo["corpus"] = str(DEMO / "corpus.jsonl")
    demo["retrieval"]["results"] = str(DEMO / "results.jsonl")
    stopwords = tmp_path / "stopwords.txt"
    stopwords.write_text("washington\n", encoding="utf-8")
    # every demo question is answered with all of its demo hits, then all but the last
    remote_config, questions = _demo_remote(tmp_path, server)
    for q in questions:
        queue = server.replies[q.question_text]
        queue.append((200, queue[0][1][:-1]))
    remote = yaml.safe_load(remote_config.read_text(encoding="utf-8"))
    schedule = {"t_begin": 8, "t_update": 4, "max_iterations": 24}
    configs = {
        "generate": (demo, dict(demo, seed=1, stopwords=str(stopwords))),
        "generate-remote": (remote, dict(remote, seed=1)),
        "selftrain": (dict(demo, selftrain=schedule), dict(demo, seed=1, selftrain=schedule)),
        "retrieve": (remote, dict(remote, seed=1)),
    }[command]
    runs = []
    for i, doc in enumerate(configs):
        config = tmp_path / f"config{i}.yaml"
        config.write_text(yaml.safe_dump(doc), encoding="utf-8")
        args = ["-q", command.split("-")[0], "--config", str(config), "--out", str(out)]
        if command == "selftrain":
            args += ["--dataset", str(DEMO / "gold.conll"), "--validation", str(DEMO / "gold.conll")]
        if command == "retrieve":
            args[-1] = str(out / "results.jsonl")
        runs.append(args)
    return runs[0], runs[1]


@pytest.mark.parametrize("failing", ["fsync", "replace"])
@pytest.mark.parametrize(
    "command,artifact", [(c, name) for c, names in RUN_ARTIFACTS.items() for name in names]
)
def test_failed_rerun_keeps_previous_run(
    tmp_path, monkeypatch, server, command, artifact, failing
):
    """A re-run into the previous run's folder that fails while staging an
    artifact ("fsync") leaves that run byte-identical; one that fails while
    moving an artifact into place ("replace") may have replaced some files,
    but leaves no manifest that names a file it does not match."""
    out = tmp_path / "out"
    first, second = _two_runs(command, tmp_path, out, server)
    assert main(first) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(before) == sorted(RUN_ARTIFACTS[command])

    staged: dict[str, bytes] = {}
    real_write, real_fsync, real_replace = pipeline.atomic_write, os.fsync, os.replace

    def atomic_write(path, data):
        staged[Path(path).name] = data.encode("utf-8") if isinstance(data, str) else data
        real_write(path, data)

    def fsync(fd):
        if failing == "fsync" and list(staged)[-1] == artifact:
            raise OSError(errno.ENOSPC, "No space left on device")
        real_fsync(fd)

    def replace(src, dst):
        if failing == "replace" and Path(dst) == out / artifact:
            raise OSError(errno.ENOSPC, "No space left on device")
        real_replace(src, dst)

    monkeypatch.setattr(pipeline, "atomic_write", atomic_write)
    monkeypatch.setattr("askner.pipeline.os.fsync", fsync)
    monkeypatch.setattr("askner.pipeline.os.replace", replace)
    with pytest.raises(OSError):
        main(second)
    monkeypatch.undo()
    # The re-run writes other bytes, so an unchanged file was kept, not rewritten.
    assert staged and all(staged[name] != before[name] for name in staged)
    after = {p.name: p.read_bytes() for p in out.iterdir()}
    if failing == "fsync":
        assert after == before
    else:
        assert set(after) <= set(before)
        manifest = RUN_ARTIFACTS[command][-1]
        if manifest in after:
            for name, digest in json.loads(after[manifest])["outputs"].items():
                assert name in after and hashlib.sha256(after[name]).hexdigest() == digest


# -- retrieve -----------------------------------------------------------------


def test_retrieve_in_replay_mode_is_config_error(caplog):
    rc = main(["-q", "retrieve", "--config", str(DEMO / "config.yaml")])
    assert rc == 1
    assert "nothing to fetch (use --endpoint or mode remote)" in caplog.text


# -- remote retrieval against a local HTTP server -----------------------------


HOLD_S = 5.0


@pytest.fixture
def server():
    """A local retrieval service keyed by the ``question`` parameter.

    ``replies`` maps a question to its queue of (status, payload) responses;
    each queue is served in order, whatever order the questions arrive in.
    ``delay`` maps a question to seconds to wait before answering it.
    ``stats.max_active`` is the most requests the server was answering at
    once: a request counts from its arrival until just before its reply is
    written, so a client that sends its next request as soon as it has the
    reply is never counted twice. Until it reaches ``hold_until``, each
    request waits up to ``HOLD_S`` seconds before it is answered, so that
    ``hold_until`` requests are in flight together however slowly the
    client's threads start.
    """
    replies: dict[str, list[tuple[int, object]]] = {}
    delay: dict[str, float] = {}
    requests_seen: list[dict] = []
    stats = SimpleNamespace(active=0, max_active=0)
    lock = threading.Condition()
    srv = SimpleNamespace(replies=replies, delay=delay, seen=requests_seen, stats=stats,
                          hold_until=0)

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):
            query = {k: v[0] for k, v in parse_qs(urlparse(self.path).query).items()}
            question = query.get("question", "")
            with lock:
                stats.active += 1
                stats.max_active = max(stats.max_active, stats.active)
                lock.notify_all()
                requests_seen.append(query)
                queue = replies.get(question)
                status, payload = queue.pop(0) if queue else (500, "exhausted")
                lock.wait_for(lambda: stats.max_active >= srv.hold_until, timeout=HOLD_S)
            time.sleep(delay.get(question, 0.0))
            with lock:
                stats.active -= 1
            body = payload if isinstance(payload, str) else json.dumps(payload)
            data = body.encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args):
            pass

    httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    # a short poll interval, so that shutdown() returns soon after each test
    thread = threading.Thread(
        target=httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    srv.url = f"http://127.0.0.1:{httpd.server_port}/search"
    yield srv
    httpd.shutdown()
    httpd.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


def _record(rank, surface="Velgrad", score=None):
    return {
        "question_id": "ignored",
        "rank": rank,
        "phrase": surface,
        "score": 90.0 - rank if score is None else score,
        "sentence_id": f"s{rank}",
        "char_start": 0,
        "char_end": len(surface),
    }


def test_fetch_remote_success_stamps_question_id(server):
    server.replies["Which city?"] = [(200, [_record(1), _record(2)])]
    results = fetch_remote("Which city?", server.url, 2, question_id="city:city")
    assert [p.rank for p in results] == [1, 2]
    assert {p.question_id for p in results} == {"city:city"}
    assert server.seen == [{"question": "Which city?", "top_n": "2"}]


def test_fetch_remote_retries_server_errors(server):
    server.replies["Which city?"] = [(503, "down"), (200, [_record(1)])]
    results = fetch_remote(
        "Which city?", server.url, 1, question_id="city:city", attempts=3, backoff=0
    )
    assert len(results) == 1
    assert len(server.seen) == 2


def test_fetch_remote_gives_up_after_attempts(server):
    server.replies["Which city?"] = [(500, "down")] * 3
    with pytest.raises(FetchError) as err:
        fetch_remote("Which city?", server.url, 1, question_id="city:city", attempts=3, backoff=0)
    assert err.value.attempts == 3
    assert len(server.seen) == 3


def test_fetch_remote_4xx_is_data_error_without_retry(server):
    server.replies["Which city?"] = [(404, "nope")]
    with pytest.raises(DataError):
        fetch_remote("Which city?", server.url, 1, question_id="city:city", attempts=3, backoff=0)
    assert len(server.seen) == 1


def test_fetch_remote_non_json_is_data_error(server):
    server.replies["Which city?"] = [(200, "this is not json")]
    with pytest.raises(DataError):
        fetch_remote("Which city?", server.url, 1, question_id="city:city", attempts=2, backoff=0)
    assert len(server.seen) == 1


def test_fetch_remote_duplicate_rank_is_data_error_without_retry(server):
    server.replies["Which city?"] = [(200, [_record(1), _record(2), _record(1)])]
    with pytest.raises(DataError, match=r"record 2: duplicate rank 1 .*'city:city'.*record 0") as err:
        fetch_remote("Which city?", server.url, 3, question_id="city:city", attempts=3, backoff=0)
    assert "Which city?" in str(err.value)
    assert len(server.seen) == 1


def test_fetch_remote_rising_score_is_data_error_without_retry(server):
    # records arrive out of rank order; the check runs on the rank-sorted hits
    payload = [_record(2, score=80.0), _record(1, score=70.0)]
    server.replies["Which city?"] = [(200, payload)]
    with pytest.raises(DataError, match=r"score 80.0 at rank 2 exceeds .*'city:city'") as err:
        fetch_remote("Which city?", server.url, 2, question_id="city:city", attempts=3, backoff=0)
    assert "Which city?" in str(err.value)
    assert len(server.seen) == 1


def test_fetch_remote_object_payload_is_data_error(server):
    server.replies["Which city?"] = [(200, {"results": [_record(1)]})]
    with pytest.raises(DataError, match="expected a JSON array of result records"):
        fetch_remote("Which city?", server.url, 1, question_id="city:city", attempts=3, backoff=0)
    assert len(server.seen) == 1


@pytest.mark.parametrize("backoff, sleeps", [(0, []), (0.5, [0.5, 1.0])])
def test_fetch_remote_retries_a_refused_connection_then_gives_up(
    monkeypatch, backoff, sleeps
):
    with socket.socket() as sock:  # a port that nothing listens on
        sock.bind(("127.0.0.1", 0))
        url = f"http://127.0.0.1:{sock.getsockname()[1]}/search"
    real_get = requests.get
    tries = []
    slept = []

    def counted_get(*args, **kwargs):
        tries.append(args)
        return real_get(*args, **kwargs)

    monkeypatch.setattr(requests, "get", counted_get)
    monkeypatch.setattr("askner.retrieval.time.sleep", slept.append)
    with pytest.raises(FetchError, match="retrieval failed after 3 attempts") as err:
        fetch_remote("Which city?", url, 1, question_id="city:city", attempts=3, backoff=backoff)
    assert err.value.attempts == 3
    assert len(tries) == 3
    assert slept == sleeps


def _city_config(tmp_path: Path, server) -> Path:
    """One question, "Which city?", asked of ``server`` for 3 hits."""
    config = tmp_path / "remote.yaml"
    config.write_text(
        f"""\
seed: 0
corpus: {DEMO / 'corpus.jsonl'}
retrieval:
  mode: remote
  endpoint: {server.url}
  top_n: 3
types:
  - name: city
    k_l: 10
    rules: [2, 3, 4]
    labels: [city]
output_dir: out
""",
        encoding="utf-8",
    )
    return config


def test_retrieve_remote_cli(tmp_path, server):
    server.replies["Which city?"] = [(200, [_record(1), _record(2), _record(3)])]
    config = _city_config(tmp_path, server)
    target = tmp_path / "results.jsonl"
    rc = main(["-q", "retrieve", "--config", str(config), "--out", str(target)])
    assert rc == 0
    groups = read_results(target)
    assert [p.surface for p in groups["city:city"]] == ["Velgrad"] * 3
    assert server.seen[0]["question"] == "Which city?"
    manifest = json.loads((tmp_path / "results.jsonl.manifest.json").read_text())
    assert manifest["inputs"] == {}


def test_retrieve_flags_are_checked_and_hashed_like_the_config(tmp_path, server):
    config = _city_config(tmp_path, server)
    hashes = set()
    for top_n in (5, 6):
        server.replies["Which city?"] = [(200, [_record(r) for r in range(1, top_n + 1)])]
        target = tmp_path / str(top_n) / "results.jsonl"
        rc = main(["-q", "retrieve", "--config", str(config), "--top-n", str(top_n),
                   "--out", str(target)])
        assert rc == 0
        assert server.seen[-1]["top_n"] == str(top_n)
        assert len(read_results(target)["city:city"]) == top_n
        manifest = target.with_name("results.jsonl.manifest.json")
        hashes.add(json.loads(manifest.read_text())["config_hash"])
    assert len(hashes) == 2

    target = tmp_path / "0" / "results.jsonl"
    rc = main(["-q", "retrieve", "--config", str(config), "--top-n", "0", "--out", str(target)])
    assert rc == 1
    assert not target.parent.exists()
    assert len(server.seen) == 2


# -- remote generate: the fetch pool and the corpus check ---------------------


def _demo_remote(tmp_path: Path, server) -> tuple[Path, list]:
    """The demo config switched to remote mode, with every demo hit queued
    on ``server`` under its question; returns the config and the questions."""
    doc = yaml.safe_load((DEMO / "config.yaml").read_text(encoding="utf-8"))
    doc["corpus"] = str(DEMO / "corpus.jsonl")
    doc["retrieval"] = {"mode": "remote", "endpoint": server.url, "top_n": 50, "attempts": 1}
    config = tmp_path / "remote.yaml"
    config.write_text(yaml.safe_dump(doc), encoding="utf-8")
    loaded = load_config(config)
    questions = build_question_set(
        loaded.types, loaded.template, loaded.default_k_l, loaded.default_rules
    )
    groups = read_results(DEMO / "results.jsonl")
    for q in questions:
        server.replies[q.question_text] = [(200, [p.to_record() for p in groups[q.question_id]])]
    return config, questions


def _artifacts(out: Path) -> list[str]:
    return sorted(p.name for p in out.iterdir()) if out.exists() else []


@pytest.mark.parametrize("cpus", [1, 3, 8])
def test_remote_fetch_width_is_min_of_questions_and_cpus(tmp_path, server, monkeypatch, cpus):
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(cpus)))
    config = tmp_path / "remote.yaml"
    config.write_text(
        f"""\
seed: 0
corpus: {DEMO / 'corpus.jsonl'}
retrieval:
  mode: remote
  endpoint: {server.url}
  top_n: 1
types:
  - name: disease
    k_l: 10
    labels: [disease, illness]
  - name: city
    k_l: 10
    labels: [city, town]
output_dir: out
""",
        encoding="utf-8",
    )
    for label in ("disease", "illness", "city", "town"):
        server.replies[f"Which {label}?"] = [(200, [_record(1, surface=label)])]
    server.hold_until = min(4, cpus)
    target = tmp_path / "results.jsonl"
    rc = main(["-q", "retrieve", "--config", str(config), "--out", str(target)])
    assert rc == 0
    assert server.stats.max_active == min(4, cpus)
    groups = read_results(target)
    assert {qid: [p.surface for p in v] for qid, v in groups.items()} == {
        "disease:disease": ["disease"], "disease:illness": ["illness"],
        "city:city": ["city"], "city:town": ["town"],
    }


def test_remote_generate_matches_replay(tmp_path, server, monkeypatch):
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1, 2})
    config, questions = _demo_remote(tmp_path, server)
    # later questions answer first
    for i, q in enumerate(questions):
        server.delay[q.question_text] = 0.03 * (len(questions) - i)
    remote = tmp_path / "remote"
    assert main(["-q", "generate", "--config", str(config), "--out", str(remote)]) == 0
    replay = run_generate(tmp_path)
    for name in ("dataset.conll", "dictionary.tsv"):
        assert (remote / name).read_bytes() == (replay / name).read_bytes()
    assert (remote / "results.jsonl").read_text(encoding="utf-8") == serialize_results(
        read_results(DEMO / "results.jsonl")
    )


def test_remote_failure_names_earliest_question(tmp_path, server, monkeypatch, caplog):
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1, 2})
    config, questions = _demo_remote(tmp_path, server)
    second, third = questions[1].question_text, questions[2].question_text
    server.replies[second] = [(404, "no")]
    server.replies[third] = [(410, "no")]
    server.delay[second] = 0.1  # the later failure arrives first
    out = tmp_path / "out"
    rc = main(["-q", "generate", "--config", str(config), "--out", str(out)])
    assert rc == 2
    assert f"(question {second!r}): unexpected status 404" in caplog.text
    assert "unexpected status 410" not in caplog.text
    assert _artifacts(out) == []


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("sentence_id", "demo-99", "unknown sentence_id 'demo-99'"),
        ("phrase", "Crohn's colitis", "!= sentence slice \"Crohn's disease\""),
    ],
)
def test_remote_hits_are_checked_against_corpus(
    tmp_path, server, caplog, field, value, message
):
    config, questions = _demo_remote(tmp_path, server)
    _, records = server.replies[questions[0].question_text][0]
    records[0][field] = value
    out = tmp_path / "out"
    rc = main(["-q", "generate", "--config", str(config), "--out", str(out)])
    assert rc == 2
    assert message in caplog.text
    assert _artifacts(out) == []


def test_remote_record_with_a_nan_score_names_the_question(tmp_path, server, caplog):
    # NaN compares False with every score, so only the type check can catch it
    config, questions = _demo_remote(tmp_path, server)
    question = questions[0].question_text
    _, records = server.replies[question][0]
    records[1]["score"] = math.nan
    out = tmp_path / "out"
    rc = main(["-q", "generate", "--config", str(config), "--out", str(out)])
    assert rc == 2
    assert f"(question {question!r}) record 1: score must be a finite number, got nan" in caplog.text
    assert _artifacts(out) == []


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("sentence_id", "demo-99", "unknown sentence_id 'demo-99'"),
        ("phrase", "Crohn's colitis", "phrase \"Crohn's colitis\" != sentence slice"),
    ],
)
@pytest.mark.parametrize("k_l", [10, 1], ids=["kept", "not-kept"])
def test_replayed_hits_are_checked_against_corpus(tmp_path, caplog, field, value, message, k_l):
    # with k_l 1 the budget keeps only rank 1's sentence, so rank 2 names one it does not keep
    lines = (DEMO / "results.jsonl").read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    assert [(r["question_id"], r["rank"]) for r in records[:2]] == [
        ("disease:disease", 1), ("disease:disease", 2)
    ]
    assert records[0]["sentence_id"] != records[1]["sentence_id"]
    rank = 1 if k_l == 10 else 2
    records[rank - 1][field] = value
    results = tmp_path / "results.jsonl"
    results.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    doc = yaml.safe_load((DEMO / "config.yaml").read_text(encoding="utf-8"))
    doc["corpus"] = str(DEMO / "corpus.jsonl")
    doc["retrieval"] = {"mode": "replay", "results": str(results)}
    assert doc["types"][0]["name"] == "disease"
    doc["types"][0]["k_l"] = k_l
    config = tmp_path / "replay.yaml"
    config.write_text(yaml.safe_dump(doc), encoding="utf-8")
    out = tmp_path / "out"
    rc = main(["-q", "generate", "--config", str(config), "--out", str(out)])
    assert rc == 2
    assert f"{results} (disease:disease rank {rank}): " in caplog.text
    assert message in caplog.text
    assert _artifacts(out) == []


# -- generate holds only the sentences it keeps -------------------------------


def _synthetic_with_unnamed(folder: Path, extra: int) -> Path:
    """The synthetic inputs in ``folder``, the corpus grown by ``extra``
    copies of its sentences under ids that no hit names; returns the config."""
    folder.mkdir()
    lines = (SYNTH / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
    originals = len(lines)
    for i in range(extra):
        record = json.loads(lines[i % originals])
        record["sentence_id"] = f"unnamed-{i}"
        lines.append(json.dumps(record))
    (folder / "corpus.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    for name in ("config.yaml", "results.jsonl"):
        shutil.copy(SYNTH / name, folder / name)
    return folder / "config.yaml"


def _traced_peak(config_path: Path) -> tuple[int, dict]:
    config = load_config(config_path)
    tracemalloc.start()
    try:
        result = cmd_generate(config, config_path.parent / "out")
        return tracemalloc.get_traced_memory()[1], result.counts
    finally:
        tracemalloc.stop()


def test_generate_memory_does_not_grow_with_unnamed_sentences(tmp_path):
    extra = 2000  # 10x the synthetic corpus
    base = _synthetic_with_unnamed(tmp_path / "base", 0)
    grown = _synthetic_with_unnamed(tmp_path / "grown", extra)
    cmd_generate(load_config(base), tmp_path / "warm-up")
    base_peak, base_counts = _traced_peak(base)
    grown_peak, grown_counts = _traced_peak(grown)
    assert grown_counts["corpus_sentences"] == base_counts["corpus_sentences"] + extra
    assert dict(grown_counts, corpus_sentences=0) == dict(base_counts, corpus_sentences=0)
    for name in ("dataset.conll", "dictionary.tsv"):
        assert (grown.parent / "out" / name).read_bytes() == (base.parent / "out" / name).read_bytes()
    # every sentence held would cost about 1.4 KB; an id seen costs under 0.1 KB
    assert (grown_peak - base_peak) / extra < 200


def _synthetic_with_copies(folder: Path, copies: int) -> Path:
    """The synthetic inputs in ``folder``, with ``copies`` copies of every
    sentence a hit names, under new ids. Each copy's hits follow the
    question's last rank at its lowest score, and k_l grows so that every
    copy is kept; returns the config."""
    folder.mkdir()
    hits = read_results(SYNTH / "results.jsonl")
    named = {p.sentence_id for ranked in hits.values() for p in ranked}
    lines = (SYNTH / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    for c in range(1, copies + 1):
        for record in records:
            if record["sentence_id"] in named:
                lines.append(json.dumps(dict(record, sentence_id=f"{record['sentence_id']}-{c}")))
    (folder / "corpus.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    for qid, ranked in hits.items():
        last = ranked[-1]
        copied = [(c, p) for c in range(1, copies + 1) for p in ranked]
        hits[qid] = ranked + [
            replace(p, sentence_id=f"{p.sentence_id}-{c}", rank=last.rank + i, score=last.score)
            for i, (c, p) in enumerate(copied, 1)
        ]
    (folder / "results.jsonl").write_text(serialize_results(hits), encoding="utf-8")
    doc = yaml.safe_load((SYNTH / "config.yaml").read_text(encoding="utf-8"))
    for t in doc["types"]:
        t["k_l"] *= copies + 1
    (folder / "config.yaml").write_text(yaml.safe_dump(doc), encoding="utf-8")
    return folder / "config.yaml"


def test_generate_memory_per_kept_sentence(tmp_path):
    copies = 8
    base = _synthetic_with_copies(tmp_path / "base", 0)
    grown = _synthetic_with_copies(tmp_path / "grown", copies)
    cmd_generate(load_config(base), tmp_path / "warm-up")
    base_peak, base_counts = _traced_peak(base)
    grown_peak, grown_counts = _traced_peak(grown)
    extra = copies * base_counts["kept_sentences"]
    assert extra == 1600
    assert grown_counts["kept_sentences"] == base_counts["kept_sentences"] + extra
    assert grown_counts["labeled_sentences"] == base_counts["labeled_sentences"] + extra
    # a kept sentence costs about 1.4 KB of traced peak; about 3 KB when each
    # stage's records outlive the next stage and every token holds its own
    # surface string
    assert (grown_peak - base_peak) / extra < 2400


# -- generate: match-time rules 9 and 10 --------------------------------------

# sentence id -> (text, the phrase its hit names, the sub-question label);
# "today" and "cheered" have no capital, so rule 3 drops them, but their
# sentences are kept and matched
MATCH_TIME_HITS = {
    "m1": ("Paris is a city .", "Paris", "city"),
    "m2": ("Lyon is a town .", "Lyon", "town"),
    "m3": ("we flew to paris today .", "today", "town"),
    "m4": ("Fans of Paris Saint Germain cheered .", "cheered", "city"),
}


def _replay_generate(tmp_path: Path, hits: dict, types: list, **extra) -> Path:
    """generate in replay mode over ``hits`` (sentence id -> (text, the
    phrase its hit names, the hit's question id)), tokens split on
    whitespace, ranks in ``hits`` order, with the config's ``types`` and
    ``extra`` keys; returns the output folder."""
    corpus, results = [], []
    for sid, (text, surface, qid) in hits.items():
        tokens = [[m.group(), m.start(), m.end()] for m in re.finditer(r"\S+", text)]
        corpus.append({"sentence_id": sid, "text": text, "tokens": tokens})
        start = text.index(surface)
        rank = 1 + sum(r["question_id"] == qid for r in results)
        results.append({
            "question_id": qid, "rank": rank, "phrase": surface,
            "score": 10.0 - rank, "sentence_id": sid,
            "char_start": start, "char_end": start + len(surface),
        })
    (tmp_path / "corpus.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in corpus), encoding="utf-8"
    )
    (tmp_path / "results.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in results), encoding="utf-8"
    )
    doc = {
        "corpus": "corpus.jsonl",
        "retrieval": {"mode": "replay", "results": "results.jsonl"},
        "types": types,
        **extra,
    }
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["-q", "generate", "--config", str(config), "--out", str(out)]) == 0
    return out


def _tags_by_sentence(out: Path, hits: dict) -> dict:
    sids = {text: sid for sid, (text, _, _) in hits.items()}
    return {sids[" ".join(s.tokens)]: s.tags for s in read_conll(out / "dataset.conll")}


def _match_time_generate(tmp_path: Path, rule: int, city_rules, town_rules) -> dict:
    """generate over MATCH_TIME_HITS with one output type whose two
    sub-questions enable the given rules; returns sentence id -> tags."""
    hits = {
        sid: (text, surface, f"city:{label}")
        for sid, (text, surface, label) in MATCH_TIME_HITS.items()
    }
    types = [{"name": "city", "k_l": 10, "labels": [
        {"label": "city", "rules": list(city_rules)},
        {"label": "town", "rules": list(town_rules)},
    ]}]
    extra = {}
    if rule == 10:
        (tmp_path / "quality.txt").write_text("Paris Saint Germain\n", encoding="utf-8")
        extra["quality_phrases"] = "quality.txt"
    return _tags_by_sentence(_replay_generate(tmp_path, hits, types, **extra), hits)


@pytest.mark.parametrize("town_on", [True, False], ids=["all-on", "one-off"])
def test_rule_9_runs_only_when_every_sub_question_enables_it(tmp_path, caplog, town_on):
    tags = _match_time_generate(tmp_path, 9, [3, 9], [3, 9] if town_on else [3])
    warning = "sub-questions disagree on rule 9; leaving it off"
    assert tags["m1"] == ("B-city", "O", "O", "O", "O")
    if town_on:
        # the lowercase single-token "paris" is rejected
        assert tags["m3"] == ("O",) * 6
        assert warning not in caplog.text
    else:
        assert tags["m3"] == ("O", "O", "O", "B-city", "O", "O")
        assert warning in caplog.text


@pytest.mark.parametrize("town_on", [True, False], ids=["all-on", "one-off"])
def test_rule_10_runs_only_when_every_sub_question_enables_it(tmp_path, caplog, town_on):
    tags = _match_time_generate(tmp_path, 10, [3, 10], [3, 10] if town_on else [3])
    warning = "sub-questions disagree on rule 10; leaving it off"
    if town_on:
        # "Paris" grows to the quality phrase that contains it
        assert tags["m4"] == ("O", "O", "B-city", "I-city", "I-city", "O", "O")
        assert warning not in caplog.text
    else:
        assert tags["m4"] == ("O", "O", "B-city", "O", "O", "O", "O")
        assert warning in caplog.text


# -- generate: rules 1-7 run once per distinct phrase, rule 8 per hit ----------


def test_rule_8_reads_every_hit_of_a_phrase(tmp_path):
    # the first hit on "Crohn's disease" has no short form after it; the
    # second has "(CD)", which must still become a pattern that tags "CD"
    hits = {
        "a1": ("Crohn's disease is chronic .", "Crohn's disease", "disease:disease"),
        "a2": ("Crohn's disease (CD) flares .", "Crohn's disease", "disease:disease"),
        "a3": ("CD is treatable .", "treatable", "disease:disease"),
    }
    types = [{"name": "disease", "k_l": 10, "labels": [{"label": "disease", "rules": [3, 8]}]}]
    out = _replay_generate(tmp_path, hits, types)
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["counts"]["abbreviation_patterns"] == 1
    assert manifest["counts"]["normalized_phrases"] == 2
    assert _tags_by_sentence(out, hits)["a3"] == ("B-disease", "O", "O", "O")


@pytest.mark.parametrize(
    "types, dictionary",
    [
        # one rule set, two labels: rule 7 drops "Town" for the label "town" only
        ([{"name": "city", "k_l": 10, "rules": [7], "labels": ["city", "town"]}],
         "town\tcity\t1\n"),
        # one label, two rule sets: only the type that enables rule 7 drops it
        ([{"name": "city", "k_l": 10, "rules": [7], "labels": ["town"]},
          {"name": "place", "k_l": 10, "rules": [], "labels": ["town"]}],
         "town\tplace\t1\n"),
    ],
    ids=["labels-differ", "rules-differ"],
)
def test_same_phrase_normalizes_per_sub_question(tmp_path, types, dictionary):
    first, second = [f"{t['name']}:{label}" for t in types for label in t["labels"]]
    hits = {
        "t1": ("Town hall opened .", "Town", first),
        "t2": ("Town hall closed .", "Town", second),
    }
    out = _replay_generate(tmp_path, hits, types)
    assert (out / "dictionary.tsv").read_text(encoding="utf-8") == dictionary
