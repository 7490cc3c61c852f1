import os
import pickle
import random
import re
import signal
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from askner.annotator import LabeledSentence
from askner.errors import ConfigError, InternalInvariantError
from askner.metrics import EntitySet, entity_f1
from askner.perceptron import AveragedPerceptronTagger
from askner.selftrain import (
    SCHEDULE_PRESETS,
    Checkpoint,
    RoundRecord,
    SelfTrainConfig,
    SelfTrainResult,
    expected_rounds,
    run_self_training,
    visit_order,
)
from testutil import cpus, forked, labeled, needs_fork  # noqa: F401 (forked is a fixture)


class StubTagger:
    """Scripted tagger: each train() call unlocks one more token index.

    predict() tags token "Ek" as B-T once at least k train calls happened,
    so validation F1 climbs round by round in a known way.
    """

    def __init__(self):
        self.level = 0
        self.calls = []  # (steps, seed, dataset tags snapshot)

    def train(self, dataset, steps, seed):
        self.level += 1
        self.calls.append((steps, seed, [tuple(s.tags) for s in dataset]))

    def predict(self, sentences):
        out = []
        for words in sentences:
            tags = []
            for w in words:
                k = int(w[1:]) if w.startswith("E") and w[1:].isdigit() else 99
                tags.append("B-T" if k <= self.level else "O")
            out.append(tags)
        return out

    def snapshot(self):
        return pickle.dumps({"level": self.level, "calls": self.calls})

    def restore(self, blob):
        state = pickle.loads(blob)
        self.level = state["level"]
        self.calls = list(state["calls"])


def _data():
    generated = [labeled("g1", ["E1", "E2"], ["B-T", "O"])]
    unlabeled = [("E1", "E2", "E3")]
    validation = [labeled("v1", ["E1", "E2", "E3"], ["B-T", "B-T", "B-T"])]
    return generated, unlabeled, validation


def test_schedule_and_round_records():
    generated, unlabeled, validation = _data()
    config = SelfTrainConfig(t_begin=4, t_update=2, max_iterations=6, seed=10)
    result = run_self_training(generated, unlabeled, validation, StubTagger, config)

    assert expected_rounds(config) == 3
    assert [r.round for r in result.rounds] == [1, 2, 3]
    assert [r.student_steps for r in result.rounds] == [2, 4, 6]
    assert all(r.teacher_steps == 4 for r in result.rounds)

    # teacher warmup: level 1 -> recall 1/3; students climb to full recall
    assert result.teacher_report.recall == pytest.approx(1 / 3)
    assert [r.validation_f1 for r in result.rounds] == [
        pytest.approx(0.8), pytest.approx(1.0), pytest.approx(1.0)
    ]
    # ties resolve to the earliest round
    assert result.best_round == 2
    assert result.best.f1 == pytest.approx(1.0)
    assert result.best.step == 4


def test_training_calls_and_pseudo_labels():
    generated, unlabeled, validation = _data()
    config = SelfTrainConfig(t_begin=4, t_update=2, max_iterations=6, seed=10)
    result = run_self_training(generated, unlabeled, validation, StubTagger, config)

    final = StubTagger()
    final.restore(result.best.state)
    # best checkpoint is from round 2: warmup + 2 student train calls
    warmup, round1, round2 = final.calls
    assert warmup == (4, 10, [("B-T", "O")])
    # round 1 pseudo-labels come from the level-1 teacher
    assert round1 == (2, 11, [("B-T", "O", "O")])
    assert round2 == (2, 12, [("B-T", "B-T", "O")])


def test_max_iterations_truncates_last_round():
    generated, unlabeled, validation = _data()
    config = SelfTrainConfig(t_begin=4, t_update=4, max_iterations=6, seed=0)
    result = run_self_training(generated, unlabeled, validation, StubTagger, config)
    assert expected_rounds(config) == 2
    assert [r.student_steps for r in result.rounds] == [4, 6]


def test_inputs_are_validated():
    generated, unlabeled, validation = _data()
    config = SelfTrainConfig(t_begin=1, t_update=1, max_iterations=1)
    with pytest.raises(ConfigError):
        run_self_training([], unlabeled, validation, StubTagger, config)
    with pytest.raises(ConfigError):
        run_self_training(generated, unlabeled, [], StubTagger, config)
    with pytest.raises(ConfigError):
        run_self_training(generated, [], validation, StubTagger, config)


def test_a_tag_count_mismatch_is_an_internal_error():
    class ShortTagger(StubTagger):
        def predict(self, sentences):
            return [tags[:-1] for tags in super().predict(sentences)]

    generated, unlabeled, validation = _data()
    config = SelfTrainConfig(t_begin=1, t_update=1, max_iterations=1)
    with pytest.raises(InternalInvariantError, match="2 tags for 3 tokens in v1"):
        run_self_training(generated, unlabeled, validation, ShortTagger, config)


def test_config_validation():
    with pytest.raises(ConfigError):
        SelfTrainConfig(t_begin=0, t_update=1, max_iterations=1)
    with pytest.raises(ConfigError):
        SelfTrainConfig(t_begin=1, t_update=-2, max_iterations=1)


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"t_begin": True}, "t_begin must be a positive integer, got True"),
        ({"t_update": True}, "t_update must be a positive integer, got True"),
        ({"max_iterations": True}, "max_iterations must be a positive integer, got True"),
        ({"t_update": 2.0}, "t_update must be a positive integer, got 2.0"),
        ({"seed": "x"}, "seed must be an integer, got 'x'"),
        ({"seed": 1.0}, "seed must be an integer, got 1.0"),
        ({"seed": False}, "seed must be an integer, got False"),
        ({"seed": None}, "seed must be an integer, got None"),
    ],
)
def test_config_rejects_booleans_and_non_integer_seeds(changes, message):
    fields = {"t_begin": 2, "t_update": 2, "max_iterations": 4, "seed": 0, **changes}
    with pytest.raises(ConfigError, match="^" + re.escape(message) + "$"):
        SelfTrainConfig(**fields)
    assert SelfTrainConfig(t_begin=2, t_update=2, max_iterations=4, seed=-3).seed == -3


def test_schedule_presets_table():
    assert SCHEDULE_PRESETS["conll2003"] == (900, 300)
    assert SCHEDULE_PRESETS["wikigold"] == (500, 300)
    assert SCHEDULE_PRESETS["wnut16"] == (900, 450)
    assert SCHEDULE_PRESETS["ncbi_disease"] == (900, 300)
    assert SCHEDULE_PRESETS["bc5cdr"] == (500, 200)
    assert SCHEDULE_PRESETS["chemdner"] == (900, 300)
    assert SCHEDULE_PRESETS["enzyme"] == (350, 700)
    assert SCHEDULE_PRESETS["astronomical"] == (500, 300)
    assert SCHEDULE_PRESETS["award"] == (350, 400)
    assert SCHEDULE_PRESETS["conference"] == (200, 100)


def test_preset_defaults_to_six_rounds():
    config = SelfTrainConfig.from_preset("conll2003", seed=3)
    assert (config.t_begin, config.t_update) == (900, 300)
    assert config.max_iterations == 6 * 300
    assert expected_rounds(config) == 6
    override = SelfTrainConfig.from_preset("conll2003", max_iterations=450)
    assert expected_rounds(override) == 2
    with pytest.raises(ConfigError, match="preset"):
        SelfTrainConfig.from_preset("nope")


# -- visit order -------------------------------------------------------------


def _inline_walk(n, steps, seed):
    """The walk ``AveragedPerceptronTagger.train`` made inline before
    ``visit_order`` existed, kept as the reference."""
    rng = random.Random(seed)
    order, out = [], []
    for _ in range(steps):
        if not order:
            order = rng.sample(range(n), n)
        out.append(order.pop(0))
    return out


@pytest.mark.parametrize(
    "n, steps", [(7, 0), (7, 3), (7, 7), (7, 8), (7, 14), (7, 23), (3, 31), (1, 0), (1, 1), (1, 6)]
)
def test_visit_order_matches_the_inline_walk(n, steps):
    for seed in (0, 1, 17, 12345):
        assert visit_order(n, steps, seed) == _inline_walk(n, steps, seed)


def _ref_visit_order(n, steps, seed):
    """``visit_order`` as it was before it drew only the visited part of
    its last pass: whole passes, then the walk cut at ``steps``."""
    rng = random.Random(seed)
    order = []
    while len(order) < steps:
        order += rng.sample(range(n), n)
    return order[:steps]


@st.composite
def _walks(draw):
    """(n, steps, seed): one pass cut short, whole passes, or whole passes
    and a part; the large pools are the paper's size with a round's steps."""
    n = draw(st.one_of(st.integers(1, 40), st.integers(41, 40_000)))
    steps = draw(
        st.one_of(
            st.integers(0, n - 1),
            st.integers(1, 4).map(lambda k: k * n),
            st.integers(n, 3 * n + 7) if n <= 40 else st.integers(n, n + 300),
        )
    )
    return n, steps, draw(st.integers(-(2**40), 2**40))


@settings(max_examples=300, deadline=None)
@given(_walks())
@example((0, 0, 0))
@example((1, 0, 0))
@example((1, 5, 3))
@example((35_000, 300, 1))
@example((7, 7, 2))
@example((7, 21, 2))
@example((7, 23, 2))
def test_visit_order_matches_whole_passes_cut_at_steps(walk):
    assert visit_order(*walk) == _ref_visit_order(*walk)


def test_visit_order_returns_a_fresh_list_each_call():
    first = visit_order(5, 12, 3)
    expected = list(first)
    first.reverse()
    first.append(99)
    second = visit_order(5, 12, 3)
    assert second == expected
    second.clear()
    assert visit_order(5, 12, 3) == expected


def test_visit_order_rejects_empty_data_without_looping():
    assert visit_order(0, 0, 1) == []
    raised = []

    def call():
        try:
            visit_order(0, 5, 1)
        except ValueError as e:
            raised.append(e)

    worker = threading.Thread(target=call, daemon=True)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    assert raised and "empty" in str(raised[0])
    with pytest.raises(ValueError, match="empty"):
        AveragedPerceptronTagger().train([], 1, 0)


def test_visit_order_rejects_negative_steps():
    with pytest.raises(ValueError, match="steps"):
        visit_order(4, -1, 0)
    with pytest.raises(ValueError, match="steps"):
        AveragedPerceptronTagger().train([labeled("s", ["a"], ["O"])], -1, 0)


# -- relabeling only the visited sentences -----------------------------------

_ENTITIES = {
    "CITY": ["Oslo", "Lima", "New York", "Kormid"],
    "ORG": ["Acme Corp", "Initech", "Velgrad Bank"],
}
_FILLER = "the mayor of visited praised near rain markets rose fell in".split()


def _sentences(rng, count, prefix):
    out = []
    for k in range(count):
        tokens, tags = [], []
        for _ in range(rng.randint(2, 6)):
            if rng.random() < 0.35:
                etype = rng.choice(sorted(_ENTITIES))
                words = rng.choice(_ENTITIES[etype]).split()
                tokens += words
                tags += [f"B-{etype}"] + [f"I-{etype}"] * (len(words) - 1)
            else:
                tokens.append(rng.choice(_FILLER))
                tags.append("O")
        out.append(labeled(f"{prefix}{k}", tokens, tags))
    return out


def _case(name, seed):
    """(generated, unlabeled, validation, config) for one pool shape."""
    rng = random.Random(seed)
    generated = _sentences(rng, 30, "g")
    validation = _sentences(rng, 12, "v")
    unlabeled = [s.tokens for s in generated]
    t_update = 8
    if name == "t_update above the pool":
        generated = generated[:5]
        unlabeled = unlabeled[:5]
        t_update = 12
    elif name == "duplicate sentences":
        unlabeled = unlabeled[:10] * 3
        rng.shuffle(unlabeled)
        t_update = 15
    elif name == "separate pool":
        unlabeled = [s.tokens for s in _sentences(rng, 25, "p")] + [("Zurich", "rose")]
    config = SelfTrainConfig(t_begin=20, t_update=t_update, max_iterations=30, seed=seed)
    return generated, unlabeled, validation, config


def _reference_evaluate(tagger, validation):
    """``selftrain._evaluate`` as it was before it reused the gold entities:
    both sides rebuilt from labeled sentences every call."""
    tokens = [s.tokens for s in validation]
    predicted = tagger.predict(tokens)
    pred_sentences = []
    for sent, tags in zip(validation, predicted):
        if len(tags) != len(sent.tokens):
            raise InternalInvariantError(
                f"tagger returned {len(tags)} tags for {len(sent.tokens)} tokens "
                f"in {sent.sentence_id}"
            )
        pred_sentences.append(LabeledSentence(sent.sentence_id, sent.tokens, tuple(tags)))
    return entity_f1(
        EntitySet.from_sentences(validation), EntitySet.from_sentences(pred_sentences)
    )


def _relabel_everything(generated, unlabeled, validation, config):
    """Reference loop: the teacher relabels the whole pool every round and
    each student starts from a fresh teacher snapshot."""
    teacher = AveragedPerceptronTagger()
    teacher.train(generated, config.t_begin, config.seed)
    teacher_report = _reference_evaluate(teacher, validation)
    rounds, reports = [], []
    best, best_round, done, round_no = None, 0, 0, 0
    while done < config.max_iterations:
        round_no += 1
        steps = min(config.t_update, config.max_iterations - done)
        pseudo = [
            labeled(f"u{idx:06d}", words, tags)
            for idx, (words, tags) in enumerate(zip(unlabeled, teacher.predict(unlabeled)), 1)
        ]
        student = AveragedPerceptronTagger()
        student.restore(teacher.snapshot())
        student.train(pseudo, steps, config.seed + round_no)
        done += steps
        report = _reference_evaluate(student, validation)
        state = student.snapshot()
        if best is None or report.f1 > best.f1:
            best, best_round = Checkpoint(state=state, step=done, f1=report.f1), round_no
        rounds.append(RoundRecord(round_no, config.t_begin, done, report.f1))
        reports.append(report)
        teacher.restore(state)
    return SelfTrainResult(best, best_round, rounds, teacher_report, reports)


POOL_SHAPES = [
    "pool is the dataset", "t_update above the pool", "duplicate sentences", "separate pool"
]


@pytest.mark.parametrize("name", POOL_SHAPES)
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_relabeling_visited_sentences_equals_relabeling_all(name, seed):
    generated, unlabeled, validation, config = _case(name, seed)
    result = run_self_training(
        generated, unlabeled, validation, AveragedPerceptronTagger, config
    )
    reference = _relabel_everything(generated, unlabeled, validation, config)
    assert result.best == reference.best
    assert result.best_round == reference.best_round
    assert result.rounds == reference.rounds
    assert result.teacher_report == reference.teacher_report
    assert result.reports == reference.reports


class _CountingTagger(AveragedPerceptronTagger):
    """Records every predict batch and, per train call, which entries of
    the dataset are filled in."""

    def __init__(self, log):
        super().__init__()
        self.log = log

    def predict(self, sentences):
        self.log.append(("predict", [tuple(w) for w in sentences]))
        return super().predict(sentences)

    def train(self, dataset, steps, seed):
        filled = {i: s.sentence_id for i, s in enumerate(dataset) if s is not None}
        self.log.append(("train", filled))
        super().train(dataset, steps, seed)


@pytest.mark.parametrize("name", POOL_SHAPES)
def test_each_round_relabels_exactly_the_visited_sentences(name):
    generated, unlabeled, validation, config = _case(name, 5)
    log = []
    with cpus(1):  # validation is scored here, so that the log sees it
        run_self_training(
            generated, unlabeled, validation, lambda: _CountingTagger(log), config
        )
    val_tokens = [s.tokens for s in validation]
    warmup, teacher_eval, *rest = log
    assert warmup == ("train", {i: s.sentence_id for i, s in enumerate(generated)})
    assert teacher_eval == ("predict", val_tokens)
    rounds = [rest[i:i + 3] for i in range(0, len(rest), 3)]
    assert len(rounds) == expected_rounds(config)
    done = 0
    for round_no, (relabel, train, evaluation) in enumerate(rounds, 1):
        steps = min(config.t_update, config.max_iterations - done)
        done += steps
        walk = _inline_walk(len(unlabeled), steps, config.seed + round_no)
        visited = list(dict.fromkeys(walk))
        assert relabel == ("predict", [tuple(unlabeled[i]) for i in visited])
        if steps < len(unlabeled):
            assert len(relabel[1]) < len(unlabeled)
        assert train == ("train", {i: f"u{i + 1:06d}" for i in sorted(visited)})
        assert evaluation == ("predict", val_tokens)


# -- validation scored in a worker process -----------------------------------

def _within(fn, timeout=60):
    """Run ``fn`` and return what it returned or raised; a run still going
    after ``timeout`` seconds raises TimeoutError instead of hanging. It
    runs in this thread, under a SIGALRM timer, so that the scorer it forks
    is not forked while a second thread runs (Python 3.12 warns of that)."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {timeout} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return fn()
    except Exception as e:
        return e
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@needs_fork
@pytest.mark.parametrize("name", POOL_SHAPES)
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_scoring_in_a_worker_gives_the_inline_result(name, seed, forked):
    generated, unlabeled, validation, config = _case(name, seed)
    args = (generated, unlabeled, validation, AveragedPerceptronTagger, config)
    # SelfTrainResult equality covers best, best_round, rounds and every report.
    with cpus(2):
        in_worker = run_self_training(*args)
    assert len(forked) == 1
    with cpus(1):
        assert in_worker == run_self_training(*args)


@needs_fork
def test_scoring_in_a_worker_gives_the_inline_result_for_a_stub(forked):
    generated, unlabeled, validation = _data()
    config = SelfTrainConfig(t_begin=4, t_update=2, max_iterations=6, seed=10)
    args = (generated, unlabeled, validation, StubTagger, config)
    with cpus(2):
        in_worker = run_self_training(*args)
    assert len(forked) == 1
    with cpus(1):
        assert in_worker == run_self_training(*args)


class _ShortTagger(StubTagger):
    def predict(self, sentences):
        return [tags[:-1] for tags in super().predict(sentences)]


@needs_fork
def test_a_tag_count_mismatch_in_the_worker_is_an_internal_error(forked):
    generated, unlabeled, validation = _data()
    config = SelfTrainConfig(t_begin=1, t_update=1, max_iterations=1)
    with cpus(2), pytest.raises(InternalInvariantError, match="2 tags for 3 tokens in v1"):
        run_self_training(generated, unlabeled, validation, _ShortTagger, config)
    assert len(forked) == 1


class _FailingTagger(StubTagger):
    """Scoring the round-1 student (level 2) fails, and so does training in
    round 2 (which starts at level 2)."""

    def predict(self, sentences):
        if self.level == 2 and any("V" in words for words in sentences):
            raise ValueError("scoring round 1 failed")
        return super().predict(sentences)

    def train(self, dataset, steps, seed):
        if self.level == 2:
            raise RuntimeError("training round 2 failed")
        super().train(dataset, steps, seed)


@pytest.mark.parametrize("in_worker", [False, pytest.param(True, marks=needs_fork)])
def test_a_failed_score_is_raised_before_the_next_rounds_failure(in_worker, forked):
    generated, unlabeled, _ = _data()
    validation = [labeled("v1", ["E1", "V"], ["B-T", "O"])]
    config = SelfTrainConfig(t_begin=1, t_update=1, max_iterations=3)
    with cpus(2 if in_worker else 1), pytest.raises(ValueError, match="scoring round 1 failed"):
        run_self_training(generated, unlabeled, validation, _FailingTagger, config)
    assert len(forked) == in_worker


class _TwoArgumentError(Exception):
    """Pickles, but unpickling calls ``__init__`` with one argument."""

    def __init__(self, what, why):
        super().__init__(f"{what}: {why}")


def _unpicklable_error():
    error = ValueError("cannot be sent")
    error.lock = threading.Lock()
    return error


class _ScoringErrorTagger(StubTagger):
    """Raises ``make_error()`` when asked to tag the validation-only word V."""

    def __init__(self, make_error):
        super().__init__()
        self.make_error = make_error

    def predict(self, sentences):
        if any("V" in words for words in sentences):
            raise self.make_error()
        return super().predict(sentences)


@needs_fork
@pytest.mark.parametrize(
    "make_error", [_unpicklable_error, lambda: _TwoArgumentError("scoring", "failed")]
)
def test_an_error_the_worker_cannot_send_back_is_an_internal_error(
    make_error, forked
):
    generated, unlabeled, _ = _data()
    validation = [labeled("v1", ["E1", "V"], ["B-T", "O"])]
    config = SelfTrainConfig(t_begin=1, t_update=1, max_iterations=2)
    with cpus(2), pytest.raises(
        InternalInvariantError, match="validation scorer cannot send back"
    ):
        run_self_training(
            generated, unlabeled, validation, lambda: _ScoringErrorTagger(make_error), config
        )


class _WorkerKiller(StubTagger):
    """Kills each process in ``pids`` with SIGKILL when round 2 trains."""

    def __init__(self, pids):
        super().__init__()
        self.pids = pids

    def train(self, dataset, steps, seed):
        if self.level == 2:
            for pid in self.pids:
                os.kill(pid, signal.SIGKILL)
        super().train(dataset, steps, seed)


@needs_fork
def test_a_killed_worker_is_an_internal_error_not_a_hang(forked):
    generated, unlabeled, validation = _data()
    config = SelfTrainConfig(t_begin=1, t_update=1, max_iterations=4)
    with cpus(2):
        raised = _within(lambda: run_self_training(
            generated, unlabeled, validation, lambda: _WorkerKiller(forked), config
        ))
    assert len(forked) == 1
    assert isinstance(raised, InternalInvariantError)
    assert "validation scorer" in str(raised)
    assert "-9" in str(raised)


@needs_fork
def test_a_failed_fork_scores_inline(monkeypatch):
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    generated, unlabeled, validation = _data()
    config = SelfTrainConfig(t_begin=4, t_update=2, max_iterations=6, seed=10)
    args = (generated, unlabeled, validation, StubTagger, config)
    with cpus(1):
        inline = run_self_training(*args)
    fds = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    monkeypatch.setattr(os, "fork", no_fork)
    with cpus(2):
        assert run_self_training(*args) == inline
    if fds is not None:
        assert len(os.listdir("/proc/self/fd")) == fds


class _WarmupFailure(StubTagger):
    def train(self, dataset, steps, seed):
        raise ValueError("no data")


@pytest.mark.parametrize("in_worker", [False, pytest.param(True, marks=needs_fork)])
def test_a_failed_teacher_warmup_is_named_and_stops_the_worker(in_worker, forked):
    generated, unlabeled, validation = _data()
    config = SelfTrainConfig(t_begin=1, t_update=1, max_iterations=1)
    with cpus(2 if in_worker else 1), pytest.raises(
        ValueError, match=r"^teacher warmup failed: no data$"
    ):
        run_self_training(generated, unlabeled, validation, _WarmupFailure, config)
    assert len(forked) == in_worker
