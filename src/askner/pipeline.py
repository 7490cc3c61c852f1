"""Stage orchestration for the command-line entry points.

Each command runs its stages in order, logs per-stage record counts, and
commits its outputs as one set: every file is staged first, and only then
moved into place, the manifest last. The manifest (input/output digests,
seed, config hash, no timestamps, so identical runs produce byte-identical
files) exists only if every file it names holds the digest it records; a
command that fails before its commit leaves the previous run untouched.

``generate`` holds each stage's records only until the next stage has what
it needs, so its memory is set by the sentences it keeps and what each one
costs, not by the hits or matches made along the way.
"""

from __future__ import annotations

import gc
import hashlib
import json
import logging
import os
import shutil
import tempfile
import threading
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

from . import __version__
from .annotator import (
    LabeledSentence,
    MatchSpan,
    PseudoDictionary,
    assign_types,
    build_dictionary,
    dump_dictionary,
    emit_bio,
    match_sentences,
)
from .config import PipelineConfig
from .conll import format_conll, read_conll
from .errors import ConfigError, DataError, InternalInvariantError
from .metrics import (
    EvalReport,
    RetrievalJudgments,
    diversity,
    entity_f1,
    EntitySet,
    precision_at_k,
)
from .normalizer import (
    BUNDLED_STOPWORDS,
    MATCH_TIME_RULES,
    NormalizedPhrase,
    RuleSet,
    load_phrase_list,
    load_stopwords,
    normalize,
)
from .perceptron import AveragedPerceptronTagger
from .querygen import SubQuestion, build_question_set
from .retrieval import (
    Corpus,
    CorpusSentence,
    RetrievedPhrase,
    SentenceBudgetResult,
    collect_training_sentences,
    evidence_fault,
    fetch_remote,
    load_corpus,
    read_results,
    serialize_results,
    text_lines,
)
from .selftrain import format_training_log, run_self_training

if TYPE_CHECKING:
    from .forked import Forked, Link

log = logging.getLogger("askner")


# -- file plumbing ----------------------------------------------------------


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def atomic_write(path: Path, data: str | bytes) -> None:
    """Write via temp file + rename so readers never see partial content.
    If anything fails before the rename, the temp file is removed."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _commit(out_dir: Path, outputs: Mapping[str, bytes]) -> None:
    """Write ``outputs`` ({file name: bytes}, manifest last) into
    ``out_dir`` as one set. Every file is staged before any is moved, so a
    failure while staging leaves the previous run as it was. The old
    manifest is removed before the first move and the new one moved last,
    so a manifest never names files that do not match it."""
    out_dir.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=out_dir))
    try:
        for name, data in outputs.items():
            atomic_write(staging / name, data)
        (out_dir / list(outputs)[-1]).unlink(missing_ok=True)
        for name in outputs:
            os.replace(staging / name, out_dir / name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def _require_files(*paths: Path) -> None:
    missing = [str(p) for p in paths if not Path(p).is_file()]
    if missing:
        raise ConfigError(f"missing input files: {', '.join(missing)}")


def _manifest(
    command: str,
    config: PipelineConfig | None,
    seed: int,
    inputs: Mapping[str, Path],
    outputs: Mapping[str, bytes],
    counts: Mapping[str, int],
    extra: Mapping | None = None,
) -> dict:
    doc = {
        "tool": {"name": "askner", "version": __version__},
        "command": command,
        "seed": seed,
        "config_hash": config.config_hash() if config else None,
        "inputs": {name: sha256_file(Path(p)) for name, p in sorted(inputs.items())},
        "outputs": {name: sha256_bytes(data) for name, data in sorted(outputs.items())},
        "counts": dict(sorted(counts.items())),
    }
    if extra:
        doc.update(extra)
    return doc


def _dump_json(doc: Mapping) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


# -- retrieval stage --------------------------------------------------------


def _available_cpus() -> int:
    """CPUs this process may run on. It is the width of the remote fetch
    pool, and work moves to a forked process only when it is above 1 (see
    ``_may_fork``)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _may_fork() -> bool:
    """Whether work may move to a forked process: ``selftrain``'s
    validation scoring, the back half of a corpus read, and the back half
    of ``generate``'s dataset write. It needs a second CPU, since on one
    the forked process would only compete with this one and add its
    handoff; ``os.fork``; and no other thread running, since a process
    forked while another thread holds a lock can deadlock.
    ``generate``'s fetch threads have all ended before it reads the
    corpus."""
    return _available_cpus() > 1 and hasattr(os, "fork") and threading.active_count() == 1


def _fetch_groups(
    config: PipelineConfig, questions: Sequence[SubQuestion]
) -> dict[str, list[RetrievedPhrase]]:
    """Ask the retrieval service every question, several at a time, and
    group the hits by question id."""
    from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait

    settings = config.retrieval
    pool = ThreadPoolExecutor(max_workers=min(len(questions), _available_cpus()))
    try:
        futures = [
            pool.submit(
                fetch_remote,
                q.question_text,
                settings.endpoint,
                settings.top_n,
                question_id=q.question_id,
                timeout=settings.timeout,
                attempts=settings.attempts,
            )
            for q in questions
        ]
        wait(futures, return_when=FIRST_EXCEPTION)
    finally:
        # After a failure, questions not yet started are dropped. The pool
        # starts questions in order, so every question before a failed one
        # has run by the time shutdown returns.
        pool.shutdown(wait=True, cancel_futures=True)
    # In question order: the earliest failure is raised, whatever order the
    # responses arrived in.
    return {q.question_id: future.result() for q, future in zip(questions, futures)}


def cmd_retrieve(
    config: PipelineConfig,
    endpoint: str | None = None,
    top_n: int | None = None,
    out: Path | None = None,
) -> Path:
    """Run retrieval for every sub-question and write a replay results file.
    ``endpoint`` (which selects remote mode) and ``top_n`` replace the
    config's settings, so they are checked like them and the manifest's
    config hash covers them."""
    flags = {"top_n": top_n} if top_n is not None else {}
    if endpoint is not None:
        flags.update(mode="remote", endpoint=endpoint)
    config = replace(config, retrieval=replace(config.retrieval, **flags))
    questions = build_question_set(
        config.types, config.template, config.default_k_l, config.default_rules
    )
    if config.retrieval.mode == "replay":
        raise ConfigError(
            "retrieval mode is 'replay'; nothing to fetch (use --endpoint or mode remote)"
        )
    groups = _fetch_groups(config, questions)
    for qid, phrases in groups.items():
        log.info("retrieve: %s -> %d results", qid, len(phrases))
    target = out or config.retrieval.results_path or (config.output_dir / "results.jsonl")
    outputs = {target.name: serialize_results(groups).encode("utf-8")}
    manifest = _manifest(
        "retrieve",
        config,
        config.seed,
        {},
        outputs,
        counts={"questions": len(questions),
                "results": sum(len(v) for v in groups.values())},
    )
    outputs[target.name + ".manifest.json"] = _dump_json(manifest).encode("utf-8")
    _commit(target.parent, outputs)
    return target


# -- generate ---------------------------------------------------------------


@dataclass
class GenerateResult:
    dataset_path: Path
    dictionary_path: Path
    manifest_path: Path
    counts: dict[str, int]

    @property
    def labeled(self) -> list[LabeledSentence]:
        """The written dataset, read back: its ids are positional
        (s000001, ...), as ``read_conll`` gives them."""
        return read_conll(self.dataset_path)


def _match_time_rules(questions: Sequence[SubQuestion]) -> frozenset[int]:
    """Rules 9/10 apply to the pooled dictionary, so they are enabled only
    when every sub-question asks for them; disagreements are logged."""
    on = MATCH_TIME_RULES.intersection(*(q.rules for q in questions))
    asked = MATCH_TIME_RULES & {r for q in questions for r in q.rules}
    for rule_id in sorted(asked - on):
        log.warning("sub-questions disagree on rule %d; leaving it off", rule_id)
    return on


def _load_kept(
    path: Path,
    keep: set[str],
    groups: Mapping[str, Sequence[RetrievedPhrase]],
    source: str,
) -> Corpus:
    """Read the corpus once, holding only the sentences in ``keep``, and
    check every hit in ``groups`` against the sentence it names. The read is
    split over two processes when ``_may_fork`` allows. A hit on a
    sentence that is not kept is checked as that sentence is read; the
    others are checked against the held sentences after the read, in
    results order, so a hit that names no sentence fails there. Hits are
    named as "<source> (<question id> rank <rank>)"."""
    unkept: dict[str, list[RetrievedPhrase]] = {}
    for phrases in groups.values():
        for p in phrases:
            if p.sentence_id not in keep:
                unkept.setdefault(p.sentence_id, []).append(p)

    def check(p: RetrievedPhrase, sent: CorpusSentence | None) -> None:
        fault = evidence_fault(p, sent)
        if fault is not None:  # the hit's name is only built for a fault
            raise DataError(f"{source} ({p.question_id} rank {p.rank}): {fault}")

    def check_hits(sent: CorpusSentence) -> None:
        for p in unkept.pop(sent.sentence_id):
            check(p, sent)

    corpus = load_corpus(path, keep, dict.fromkeys(unkept, check_hits), split=_may_fork())
    for phrases in groups.values():
        for p in phrases:
            if p.sentence_id in keep or p.sentence_id in unkept:
                check(p, corpus.get(p.sentence_id))
    return corpus


def _pool(
    budgets: Sequence[tuple[SubQuestion, SentenceBudgetResult]],
    corpus: Mapping[str, CorpusSentence],
    stopwords: frozenset[str],
    min_length: int,
    quality: Sequence[str],
    counts: dict[str, int],
) -> PseudoDictionary:
    """Normalize every question's kept hits and pool them into the dictionary.

    A question's hits that normalize alike form one group: hits with the
    same surface, and, when the question enables rule 8, the same evidence
    text. Each group is normalized once, from its first hit and that hit's
    sentence, and its fragments count once per hit in it. Groups keep the
    order of their first hits, so entries and rule 8's first claims come in
    the order the hits would give them one by one. Adds the fragments made,
    counted per hit, to ``counts["normalized_phrases"]``.
    """
    counts["normalized_phrases"] = 0

    def weighted() -> Iterator[tuple[NormalizedPhrase, int]]:
        for q, budget in budgets:
            ruleset = RuleSet.from_ids(q.rules, stopwords, min_length)
            hits = budget.kept_phrases
            if ruleset.is_enabled(8):
                keys = [(p.surface, corpus[p.sentence_id].text) for p in hits]
            else:
                keys = [p.surface for p in hits]
            sizes = Counter(keys)  # in first-occurrence order
            first = dict(zip(reversed(keys), reversed(hits)))  # key -> its first hit
            for key, size in sizes.items():
                phrase = first[key]
                found = normalize(
                    phrase,
                    corpus[phrase.sentence_id],
                    ruleset,
                    q.type_label,
                    output_type=q.output_type,
                )
                counts["normalized_phrases"] += size * len(found)
                for np in found:
                    yield np, size

    return build_dictionary(weighted(), quality)


def _pooled_dictionary(
    config: PipelineConfig,
    questions: Sequence[SubQuestion],
    stopwords: frozenset[str],
    quality: Sequence[str],
    counts: dict[str, int],
) -> tuple[PseudoDictionary, list[CorpusSentence], list[dict], str | None]:
    """Retrieve (or replay) every question's hits, walk their budgets, read
    the kept sentences, and pool the hits' normalized phrases into the
    dictionary (see ``_pool``).

    Returns the dictionary, the kept sentences in corpus order, the
    manifest's per-question rows and, in remote mode, the results file's
    text. The hits, the budgets and the corpus map die when this returns.
    Record counts are added to ``counts``.
    """
    mode = config.retrieval.mode
    if mode == "replay":
        groups = read_results(config.retrieval.results_path)
    else:
        groups = _fetch_groups(config, questions)
    counts["results"] = sum(len(v) for v in groups.values())
    log.info("generate: %d retrieval results", counts["results"])

    kept_ids: set[str] = set()
    budgets = []
    question_rows = []
    for q in questions:
        results = groups.get(q.question_id, [])
        if not results:
            log.warning("generate: no results for %s", q.question_id)
        budget = collect_training_sentences(results, q.k_l)
        if budget.exhausted:
            log.warning(
                "generate: %s exhausted at %d/%d sentences",
                q.question_id, len(budget.kept_sentences), q.k_l,
            )
        kept_ids.update(budget.kept_sentences)
        budgets.append((q, budget))
        question_rows.append(
            {
                "question_id": q.question_id,
                "question": q.question_text,
                "k_l": q.k_l,
                "kept_sentences": len(budget.kept_sentences),
                "kept_phrases": len(budget.kept_phrases),
                "exhausted": budget.exhausted,
            }
        )
    counts["kept_sentences"] = len(kept_ids)
    counts["kept_phrases"] = sum(row["kept_phrases"] for row in question_rows)

    source = config.retrieval.results_path if mode == "replay" else config.retrieval.endpoint
    corpus = _load_kept(config.corpus_path, kept_ids, groups, str(source))
    counts["corpus_sentences"] = corpus.total
    log.info("generate: corpus %d sentences", corpus.total)

    dictionary = _pool(budgets, corpus, stopwords, config.min_length, quality, counts)
    log.info("generate: kept %d sentences, %d phrases, %d normalized",
             counts["kept_sentences"], counts["kept_phrases"], counts["normalized_phrases"])
    results_text = serialize_results(groups) if mode != "replay" else None
    return dictionary, list(corpus.values()), question_rows, results_text


def _matches(
    dictionary: PseudoDictionary, sentences: Sequence[CorpusSentence], rules: RuleSet
) -> list[MatchSpan]:
    return match_sentences(dictionary, sentences, rules) if dictionary.entries else []


# The errors a dataset writer sends back by name, to be raised here as they
# would be had this process met them itself.
_RELAYED = {e.__name__: e for e in (DataError, InternalInvariantError)}


def _write_dataset(
    dictionary: PseudoDictionary, sentences: list[CorpusSentence], rules: RuleSet
) -> tuple[bytes, int]:
    """The dataset's bytes, and how many entities it tags: ``sentences``
    matched against the dictionary, typed, tagged BIO and formatted as
    CoNLL.

    When ``_may_fork`` allows and there are two sentences or more, a forked
    dataset writer (``_write_back``) does the back half of ``sentences``
    while this process does the front half. The untyped matches, the
    labeled sentences and the text of each half die in the process that
    made them. Apportionment sees every occurrence of a key claimed by
    several types, in (sentence id, token start) order: the writer sends its
    occurrences of such keys, this process types them together with its
    own and sends back the writer's types. Each side types the other keys
    itself. The writer sends back a newline and its half, encoded, which
    this process reads in after its own half: the two are what
    ``format_conll`` gives for the whole list. On one CPU, or when the fork
    fails, the back half is empty.

    ``sentences`` is emptied on the way, so that no sentence outlives its
    use here: the back half once the writer has its own copy, the front half
    once it is tagged (the tags and the tokens are all ``format_conll``
    reads).
    """
    if not dictionary.entries:
        log.warning("generate: empty dictionary, emitting all-O labels")
    cut, writer = len(sentences), None
    if cut >= 2 and _may_fork():
        from .forked import Forked  # only a split write compiles and loads it

        half = cut // 2
        writer = Forked.start(
            "dataset writer",
            lambda link: _write_back(dictionary, sentences[half:], rules, link),
            replies=True,
        )
        if writer is not None:
            cut = half
    try:
        del sentences[cut:]
        spans = _matches(dictionary, sentences, rules)
        shared = _from_writer(writer) if writer else []
        spans.extend(MatchSpan(*occ) for occ in shared)
        typed = assign_types(dictionary, spans)
        del spans
        if writer:
            back_ids = {occ[0] for occ in shared}
            types: dict[tuple[str, int], str | None] = {}
            if back_ids:
                own = []
                for s in typed:
                    if s.sentence_id in back_ids:
                        types[s.sentence_id, s.token_start] = s.assigned_type
                    else:
                        own.append(s)
                typed = own
            writer.send([types[sid, start] for sid, start, _, _ in shared])
        labeled = emit_bio(sentences, typed)
        entities = len(typed)
        del typed
        sentences.clear()
        dataset = format_conll(labeled).encode("utf-8")
        del labeled
        if writer:
            entities += _from_writer(writer)
            dataset = writer.recv_after(dataset)
        return dataset, entities
    finally:
        if writer is not None:
            writer.close()


def _from_writer(writer: Forked) -> object:
    """The dataset writer's next frame's payload; its error, if it met one,
    raised here."""
    payload, error = writer.recv()
    if error is not None:
        kind, message = error
        raise _RELAYED[kind](message)
    return payload


def _write_back(
    dictionary: PseudoDictionary,
    sentences: Sequence[CorpusSentence],
    rules: RuleSet,
    link: Link,
) -> None:
    """The forked dataset writer's work (see ``_write_dataset``). It sends
    ``(payload, None)``, or ``(None, (error class name, message))`` if it
    meets a DataError or an InternalInvariantError: first
    ``(sentence_id, token_start, token_end, key)`` for each of its matches
    whose key is claimed by several types; then, once it has received
    their types, the entities in its half. Last comes a frame of bytes: a
    newline and its half of the dataset."""
    try:
        typed, shared = [], []  # shared: keys claimed by several types
        for span in _matches(dictionary, sentences, rules):
            (shared if len(dictionary.entries[span.phrase_key].counts) > 1 else typed).append(span)
        occurrences = [(s.sentence_id, s.token_start, s.token_end, s.phrase_key) for s in shared]
        link.send((occurrences, None))
        typed = assign_types(dictionary, typed)
        typed.extend(
            MatchSpan(s.sentence_id, s.token_start, s.token_end, s.phrase_key, type_name)
            for s, type_name in zip(shared, link.recv(), strict=True)
        )
        text = "\n" + format_conll(emit_bio(sentences, typed))
        link.send((len(typed), None))
        link.send_bytes(text.encode("utf-8"))
    except tuple(_RELAYED.values()) as e:
        link.send((None, (type(e).__name__, str(e))))


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector, and re-enable it afterwards only
    if it was enabled before. Reference counting still frees every object
    that is not in a cycle."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_gc_paused()
def cmd_generate(config: PipelineConfig, out: Path | None = None) -> GenerateResult:
    """Produce the weakly labeled dataset: retrieve (or replay), budget,
    read the corpus for the kept sentences, normalize, build the
    dictionary, annotate, and write the artifacts. Each stage's records are
    dropped once the next stage has what it needs.

    The cyclic collector is paused for the whole command: the records it
    builds hold almost no reference cycles, yet the collector would walk
    them again and again as they pile up. The collection it defers runs
    once the collector is enabled again."""
    out_dir = out or config.output_dir
    inputs: dict[str, Path] = {
        "corpus": config.corpus_path,
        "stopwords": config.stopwords_path or BUNDLED_STOPWORDS,
    }
    if config.quality_phrases_path:
        inputs["quality_phrases"] = config.quality_phrases_path
    if config.retrieval.mode == "replay":
        inputs["results"] = config.retrieval.results_path
    _require_files(*inputs.values())
    questions = build_question_set(
        config.types, config.template, config.default_k_l, config.default_rules
    )
    log.info("generate: %d sub-questions", len(questions))
    stopwords = load_stopwords(inputs["stopwords"])
    quality = (
        load_phrase_list(config.quality_phrases_path)
        if config.quality_phrases_path
        else []
    )

    counts = {"questions": len(questions)}
    dictionary, sentences, question_rows, results_text = _pooled_dictionary(
        config, questions, stopwords, quality, counts
    )
    log.info("generate: dictionary %d entries, %d abbreviation patterns",
             len(dictionary.entries), len(dictionary.abbreviations))

    match_rules = RuleSet.from_ids(_match_time_rules(questions), stopwords, config.min_length)
    labeled_sentences = len(sentences)
    dataset, entities = _write_dataset(dictionary, sentences, match_rules)
    log.info("generate: %d matches over %d labeled sentences", entities, labeled_sentences)
    counts.update(
        dictionary_entries=len(dictionary.entries),
        abbreviation_patterns=len(dictionary.abbreviations),
        entities=entities,
        labeled_sentences=labeled_sentences,
    )

    outputs = {}
    if results_text is not None:
        outputs["results.jsonl"] = results_text.encode("utf-8")
    outputs["dictionary.tsv"] = dump_dictionary(dictionary).encode("utf-8")
    outputs["dataset.conll"] = dataset
    manifest = _manifest(
        "generate", config, config.seed, inputs, outputs, counts,
        extra={"questions_detail": question_rows},
    )
    outputs["manifest.json"] = _dump_json(manifest).encode("utf-8")
    _commit(out_dir, outputs)
    return GenerateResult(
        dataset_path=out_dir / "dataset.conll",
        dictionary_path=out_dir / "dictionary.tsv",
        manifest_path=out_dir / "manifest.json",
        counts=counts,
    )


# -- selftrain --------------------------------------------------------------


@dataclass
class SelfTrainOutcome:
    checkpoint_path: Path
    log_path: Path
    report_path: Path
    manifest_path: Path
    best_f1: float
    best_round: int
    teacher_f1: float
    rounds: int


@_gc_paused()
def cmd_selftrain(
    dataset_path: Path,
    validation_path: Path,
    config: PipelineConfig,
    out: Path | None = None,
    unlabeled_path: Path | None = None,
) -> SelfTrainOutcome:
    """Refine the generated labels by teacher-student training and keep the
    best student checkpoint by validation F1.

    The teacher pseudo-labels ``unlabeled_path`` (a JSONL corpus) when given;
    otherwise it re-labels the training sentences themselves. A separate pool
    helps most when it contains mentions the pseudo-dictionary missed.

    The cyclic collector is paused for the whole command, as in
    ``cmd_generate``, and the forked validation scorer inherits the pause.
    Each round's ``restore`` builds a model's worth of maps and tuples that
    hold no reference cycles, and the collector would walk them again and
    again as they pile up.
    """
    schedule = config.selftrain
    if schedule is None:
        raise ConfigError("config has no selftrain section")
    inputs = {"dataset": dataset_path, "validation": validation_path}
    if unlabeled_path is not None:
        inputs["unlabeled"] = unlabeled_path
    _require_files(*inputs.values())
    dataset = read_conll(dataset_path)
    validation = read_conll(validation_path)
    if not dataset:
        raise DataError(f"{dataset_path}: no sentences")
    if not validation:
        raise DataError(f"{validation_path}: no sentences")
    if unlabeled_path is not None:
        unlabeled = [s.tokens for s in load_corpus(unlabeled_path, split=_may_fork()).values()]
        if not unlabeled:
            raise DataError(f"{unlabeled_path}: no sentences")
    else:
        unlabeled = [s.tokens for s in dataset]
    log.info(
        "selftrain: t_begin=%d t_update=%d max_iterations=%d seed=%d",
        schedule.t_begin, schedule.t_update, schedule.max_iterations, schedule.seed,
    )
    result = run_self_training(
        generated=dataset,
        unlabeled=unlabeled,
        validation=validation,
        tagger_factory=AveragedPerceptronTagger,
        config=schedule,
        score_in_worker=_may_fork(),
    )
    for record in result.rounds:
        log.info(
            "selftrain: round %d student_steps=%d f1=%.4f",
            record.round, record.student_steps, record.validation_f1,
        )
    log.info("selftrain: best round %d f1=%.4f", result.best_round, result.best.f1)

    out_dir = out or (config.output_dir / "selftrain")
    report = {
        "teacher": asdict(result.teacher_report),
        "rounds": [asdict(r) for r in result.rounds],
        "round_reports": [asdict(r) for r in result.reports],
        "best_round": result.best_round,
        "best_f1": result.best.f1,
    }
    outputs = {
        "checkpoint.json": result.best.state,
        "training_log.jsonl": format_training_log(result.rounds).encode("utf-8"),
        "report.json": _dump_json(report).encode("utf-8"),
    }
    manifest = _manifest(
        "selftrain",
        config,
        schedule.seed,
        inputs,
        outputs,
        counts={
            "dataset_sentences": len(dataset),
            "unlabeled_sentences": len(unlabeled),
            "validation_sentences": len(validation),
            "rounds": len(result.rounds),
        },
    )
    outputs["manifest.json"] = _dump_json(manifest).encode("utf-8")
    _commit(out_dir, outputs)
    return SelfTrainOutcome(
        checkpoint_path=out_dir / "checkpoint.json",
        log_path=out_dir / "training_log.jsonl",
        report_path=out_dir / "report.json",
        manifest_path=out_dir / "manifest.json",
        best_f1=result.best.f1,
        best_round=result.best_round,
        teacher_f1=result.teacher_report.f1,
        rounds=len(result.rounds),
    )


# -- eval / judge-stats -----------------------------------------------------


def cmd_eval(gold_path: Path, pred_path: Path, out: Path | None = None) -> EvalReport:
    """Entity-level comparison of two CoNLL files aligned by position."""
    _require_files(gold_path, pred_path)
    gold = read_conll(gold_path)
    pred = read_conll(pred_path)
    if len(gold) != len(pred):
        raise DataError(
            f"gold has {len(gold)} sentences, prediction has {len(pred)}"
        )
    for g, p in zip(gold, pred):
        if g.tokens != p.tokens:
            raise DataError(f"token mismatch in sentence {g.sentence_id}")
    report = entity_f1(EntitySet.from_sentences(gold), EntitySet.from_sentences(pred))
    if out is not None:
        atomic_write(out, _dump_json(asdict(report)))
    return report


def cmd_judge_stats(
    results_path: Path,
    judgments_path: Path,
    k: int,
    out: Path | None = None,
) -> dict:
    """Per-question precision-at-k and top-k phrase diversity."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    _require_files(results_path, judgments_path)
    groups = read_results(results_path)
    with open(judgments_path, "rb") as fh:
        judgments = RetrievalJudgments.from_lines(
            text_lines(fh, str(judgments_path)), source=str(judgments_path)
        )
    per_question = {}
    for qid in sorted(groups):
        results = groups[qid]
        per_question[qid] = {
            "precision_at_k": precision_at_k(results, judgments, k),
            "diversity": diversity(results, k),
            "results": len(results),
        }
    if not per_question:
        raise DataError(f"{results_path}: no results to score")
    macro = sum(q["precision_at_k"] for q in per_question.values()) / len(per_question)
    doc = {
        "k": k,
        "per_question": per_question,
        "macro_precision_at_k": macro,
    }
    if out is not None:
        atomic_write(out, _dump_json(doc))
    return doc
