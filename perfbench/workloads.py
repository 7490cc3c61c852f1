"""The benchmark's workloads: inputs from a seed, the timed call, its check.

Every workload is one public entry point of ``askner.pipeline`` called on
files built from ``askner.synthetic`` replicas (see ``inputs.py``):

- gen-dense: ``cmd_generate`` over 100 replicas, all retrieved; the budget
  keeps the whole corpus.
- gen-sparse: the same 100-replica corpus with 10 replicas retrieved; 90%
  of the corpus is loaded and never kept.
- selftrain: ``cmd_selftrain`` with the synthetic schedule on the dataset
  generated from 10 replicas, relabeling that dataset, validating on the
  replicas' validation sets.
- gen-remote: ``cmd_generate`` in remote mode against ``stub.py``, over 50
  replicas. Each type fans out into eight labels that split its hits
  round-robin, and one disease label also returns every eighth city hit,
  so those keys are claimed by two types and go through apportionment.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import urllib.request
from dataclasses import replace
from pathlib import Path

from askner.config import load_config
from askner.conll import read_conll
from askner.pipeline import cmd_eval, cmd_generate, cmd_selftrain
from askner.retrieval import serialize_results
from askner.selftrain import expected_rounds

from inputs import build_inputs, renumber

HERE = Path(__file__).resolve().parent

WORKLOADS = ("gen-dense", "gen-sparse", "selftrain", "gen-remote")
REPLICAS = {"gen-dense": 100, "gen-sparse": 100, "selftrain": 10, "gen-remote": 50}
RETRIEVED = {"gen-sparse": 10}
# seeds n and n+1 get disjoint replica seeds
SEED_STRIDE = 1000

# 16 sub-questions, about as many as the wikigold preset's 15
REMOTE_LABELS = {
    "disease": ("disease", "illness", "epidemic", "infection",
                "disorder", "condition", "ailment", "sickness"),
    "city": ("city", "town", "port", "municipality",
             "settlement", "capital", "village", "metropolis"),
}
# every CROSS_EVERY-th city hit is also returned for this disease label
CROSS_LABEL = "disease:infection"
CROSS_EVERY = 8

_REMOTE_CONFIG = """\
seed: {seed}
corpus: corpus.jsonl
retrieval:
{retrieval}
types:
{types}
output_dir: out
"""


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class CheckFailed(Exception):
    """A call's output differs from what the workload expects."""


def call_from_spec(spec: dict, config=None):
    """Run the workload's entry point once; this is what ``wall_s`` times.

    ``spec`` holds paths only, so a fresh process can repeat the call.
    """
    config = config if config is not None else load_config(spec["config"])
    if "dataset" in spec:
        return cmd_selftrain(Path(spec["dataset"]), Path(spec["validation"]), config,
                             out=Path(spec["out"]))
    return cmd_generate(config, out=Path(spec["out"]))


class Generate:
    """Inputs on disk plus one repeatable call and its output check.

    The first call is checked in full and fixes the output digests that
    every later call must repeat. ``sentences`` is the input-sentence count
    behind ``sentences_per_s``; ``f1`` is set by the first check.
    """

    command = "cmd_generate"
    outputs = ("dataset.conll", "dictionary.tsv")

    def __init__(self, name: str, work: Path, spec: dict, sentences: int, gold: Path):
        self.name = name
        self.work = work
        self.spec = spec
        self.sentences = sentences
        self.gold = gold
        self.config = load_config(spec["config"])
        self.out = Path(spec["out"])
        self.f1: float | None = None
        self.expected: dict[str, str] | None = None

    def call(self):
        return call_from_spec(self.spec, self.config)

    def digests(self, outcome) -> dict[str, str]:
        return {name: _digest(self.out / name) for name in self.outputs}

    def check(self, outcome) -> None:
        got = self.digests(outcome)
        if self.expected is None:
            self.first_check(outcome, got)
            self.expected = got
        elif got != self.expected:
            diff = sorted(k for k in got if got[k] != self.expected[k])
            raise CheckFailed(f"{self.name}: {diff} differ from the first call")

    def first_check(self, outcome, digests: dict[str, str]) -> None:
        """Every predicted entity is a gold entity (held-out names stay O)."""
        report = cmd_eval(self.gold, outcome.dataset_path)
        self.f1 = report.f1
        if report.precision != 1.0 or report.predicted != report.correct:
            raise CheckFailed(
                f"{self.name}: precision {report.precision}, "
                f"{report.correct} of {report.predicted} predicted entities correct"
            )

    def close(self) -> None:
        pass


class SelfTrain(Generate):
    command = "cmd_selftrain"

    def digests(self, outcome) -> dict[str, str]:
        return {
            "best_round": str(outcome.best_round),
            "best_f1": repr(outcome.best_f1),
            "checkpoint": _digest(outcome.checkpoint_path),
        }

    def first_check(self, outcome, digests: dict[str, str]) -> None:
        if outcome.rounds != expected_rounds(self.config.selftrain) or outcome.best_f1 <= 0:
            raise CheckFailed(f"selftrain: {outcome.rounds} rounds, best f1 {outcome.best_f1}")
        self.f1 = outcome.best_f1


class Remote(Generate):
    """gen-remote: owns the stub process; outputs must equal a replay run."""

    outputs = ("dataset.conll", "dictionary.tsv", "results.jsonl")

    def __init__(self, work: Path, inputs, first_seed: int):
        groups = _remote_groups(inputs.groups)
        table = {f"Which {qid.split(':', 1)[1]}?": [p.to_record() for p in phrases]
                 for qid, phrases in groups.items()}
        (work / "stub_table.json").write_text(json.dumps(table), encoding="utf-8")
        replay = work / "replay"
        replay.mkdir()
        (replay / "results.jsonl").write_text(serialize_results(groups), encoding="utf-8")
        types = _remote_types(groups)
        (work / "replay.yaml").write_text(_REMOTE_CONFIG.format(
            seed=first_seed, types=types,
            retrieval="  mode: replay\n  results: replay/results.jsonl"), encoding="utf-8")
        cmd_generate(load_config(work / "replay.yaml"), out=replay)
        self.reference = {name: _digest(replay / name) for name in self.outputs}

        self.stub = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), "--table", str(work / "stub_table.json")],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            self.endpoint = f"http://127.0.0.1:{int(self.stub.stdout.readline())}/"
            top_n = max(len(v) for v in groups.values())
            config = work / "remote.yaml"
            config.write_text(_REMOTE_CONFIG.format(
                seed=first_seed, types=types,
                retrieval=f"  mode: remote\n  endpoint: {self.endpoint}\n  top_n: {top_n}"),
                encoding="utf-8")
            spec = {"config": str(config), "out": str(work / "out")}
            super().__init__("gen-remote", work, spec, inputs.corpus_sentences, inputs.gold)
        except BaseException:
            self.close()
            raise

    def stats(self) -> dict:
        with urllib.request.urlopen(self.endpoint + "stats", timeout=10) as resp:
            return json.load(resp)

    def check(self, outcome) -> None:
        super().check(outcome)
        limit = len(os.sched_getaffinity(0))  # what nproc reports
        if self.stats()["max_active"] > limit:
            raise CheckFailed(f"gen-remote: client held more than {limit} connections")

    def first_check(self, outcome, digests: dict[str, str]) -> None:
        diff = sorted(k for k in digests if digests[k] != self.reference[k])
        if diff:
            raise CheckFailed(f"gen-remote: {diff} differ from the replay run")
        self.f1 = cmd_eval(self.gold, outcome.dataset_path).f1

    def close(self) -> None:
        if self.stub.poll() is None:
            self.stub.terminate()
        try:
            self.stub.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.stub.kill()
            self.stub.wait()
        self.stub.stdout.close()


def prepare(name: str, work: Path, seed: int) -> Generate:
    """Build the workload's inputs under ``work`` from ``seed``."""
    first = seed * SEED_STRIDE
    inputs = build_inputs(work, first, REPLICAS[name], RETRIEVED.get(name))
    out = str(work / "out")
    if name == "gen-remote":
        return Remote(work, inputs, first)
    if name == "selftrain":
        config = load_config(inputs.config)
        generated = cmd_generate(config, out=work / "generated")
        schedule = config.selftrain
        rounds = expected_rounds(schedule)
        # relabeled + trained + validated (teacher and every student)
        decoded = (rounds * len(generated.labeled) + schedule.t_begin + schedule.max_iterations
                   + (rounds + 1) * len(read_conll(inputs.validation)))
        spec = {"config": str(inputs.config), "out": out,
                "dataset": str(generated.dataset_path), "validation": str(inputs.validation)}
        return SelfTrain(name, work, spec, decoded, inputs.gold)
    spec = {"config": str(inputs.config), "out": out}
    return Generate(name, work, spec, inputs.corpus_sentences, inputs.gold)


def _remote_groups(groups: dict) -> dict:
    """Deal each type's merged hits round-robin over its labels, and add
    every CROSS_EVERY-th city hit to CROSS_LABEL; ranks renumbered."""
    rows: dict[str, list] = {}
    for type_name, labels in REMOTE_LABELS.items():
        for i, p in enumerate(groups[f"{type_name}:{type_name}"]):
            qid = f"{type_name}:{labels[i % len(labels)]}"
            rows.setdefault(qid, []).append((-p.score, 0, i, replace(p, question_id=qid)))
            if type_name == "city" and i % CROSS_EVERY == 0:
                rows.setdefault(CROSS_LABEL, []).append(
                    (-p.score, 1, i, replace(p, question_id=CROSS_LABEL)))
    return {qid: renumber(hits) for qid, hits in rows.items()}


def _remote_types(groups: dict) -> str:
    """Config types with each label's k_l set to the sentences its hits
    cover, so no budget runs dry."""
    lines = []
    for type_name, labels in REMOTE_LABELS.items():
        lines += [f"  - name: {type_name}", "    rules: [2, 3, 4, 5, 6, 7]", "    labels:"]
        for label in labels:
            k_l = len({p.sentence_id for p in groups[f"{type_name}:{label}"]})
            lines.append(f"      - {{label: {label}, k_l: {k_l}}}")
    return "\n".join(lines)
