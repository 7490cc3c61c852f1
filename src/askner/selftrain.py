"""Teacher-student self-training over weakly labeled data.

A teacher is trained on the generated dataset for ``t_begin`` steps, then
rounds alternate: the teacher pseudo-labels the (unlabeled) training
sentences, a student initialized from the teacher trains ``t_update`` steps
on those pseudo-labels, is evaluated on held-out validation, and replaces
the teacher. This repeats until ``max_iterations`` student steps have run;
the checkpoint with the best validation F1 (earliest on ties) wins.

A student reads only the sentences its seeded walk (``visit_order``) visits,
so the teacher labels only those, in one ``predict`` batch: a round costs
about ``t_update`` decodes, not the pool's size. Each label is the one a
full relabel would give it, so every output is the same.

Each state the loop snapshots, the teacher's and then each student's, is
scored on validation, and the report is collected one round later, once the
next student has trained. Validation runs in one of two places. With
``score_in_worker`` a validation scorer, a ``forked.Forked`` child forked
when the run starts, restores each snapshot and scores it while the parent
relabels and trains the next round, so a second CPU takes the scoring off
the training path; it is stopped when the run ends or fails, and exits by
itself if the parent dies. Otherwise, or if the fork fails, ``_evaluate``
runs inline on the live tagger: on one CPU the scorer only competes with
training and adds a restore and a pipe transfer per round. Both give the
same reports, because the scorer scores exactly the checkpoint bytes and
``restore`` round-trips exactly.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Protocol, Sequence

from .annotator import LabeledSentence
from .errors import ConfigError, InternalInvariantError, check_value
from .metrics import EntitySet, EvalReport, entity_f1, extract_entities

if TYPE_CHECKING:
    from .forked import Forked, Link

#: Reference step schedules (t_begin, t_update) tuned per benchmark family.
SCHEDULE_PRESETS: dict[str, tuple[int, int]] = {
    "conll2003": (900, 300),
    "wikigold": (500, 300),
    "wnut16": (900, 450),
    "ncbi_disease": (900, 300),
    "bc5cdr": (500, 200),
    "chemdner": (900, 300),
    "enzyme": (350, 700),
    "astronomical": (500, 300),
    "award": (350, 400),
    "conference": (200, 100),
}

#: Default number of teacher replacements when max_iterations is left unset.
DEFAULT_ROUNDS = 6


def visit_order(n: int, steps: int, seed: int) -> list[int]:
    """The dataset indices ``train`` updates on, in order: ``steps`` of them
    over ``n`` sentences. Each pass is one ``random.Random(seed).sample`` of
    ``range(n)``, reshuffled per pass; the last pass is cut at ``steps``.

    Only the indices of the last pass that are visited are drawn.
    ``sample(range(n), n)`` picks its ``i``-th index as ``j =
    randrange(n - i)`` from a pool, then moves the pool's last unpicked
    index into slot ``j``; a pick never depends on a later one, so its
    first ``m`` picks are the ``m`` this draws. A dict holds only the pool
    slots that changed, so a pass cut at ``m`` costs ``m`` draws, not
    ``n``, which matters when a round's ``steps`` is much smaller than the
    pool it walks.

    Raises ``ValueError`` for negative ``steps``, or for ``steps > 0`` on an
    empty dataset, which has nothing to visit.
    """
    return list(_visit_order(n, steps, seed))


# One entry: a round asks for its walk to pick the sentences to relabel,
# then the student's ``train`` asks for the same walk.
@lru_cache(maxsize=1)
def _visit_order(n: int, steps: int, seed: int) -> tuple[int, ...]:
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if not n:
        if steps > 0:
            raise ValueError("cannot train on an empty dataset")
        return ()
    rng = random.Random(seed)
    passes, rest = divmod(steps, n)
    order: list[int] = []
    for _ in range(passes):
        order += rng.sample(range(n), n)
    moved: dict[int, int] = {}
    for i in range(rest):
        j = rng.randrange(n - i)
        last = n - i - 1
        order.append(moved.get(j, j))
        moved[j] = moved.get(last, last)
    return tuple(order)


class TaggerInterface(Protocol):
    """What the loop needs from a tagger. ``predict`` takes token sequences
    and returns aligned, BIO-well-formed tag sequences; ``snapshot`` and
    ``restore`` must round-trip exactly (equal states, equal bytes).

    ``train(dataset, steps, seed)`` reads ``dataset[i]`` only for the
    indices ``visit_order(len(dataset), steps, seed)`` lists. An entry it
    will not visit may be ``None``: the loop relabels only the visited
    sentences and passes ``None`` in every other place.
    """

    def train(
        self, dataset: Sequence[LabeledSentence | None], steps: int, seed: int
    ) -> None: ...

    def predict(self, sentences: Sequence[Sequence[str]]) -> list[list[str]]: ...

    def snapshot(self) -> bytes: ...

    def restore(self, state: bytes) -> None: ...


@dataclass(frozen=True)
class SelfTrainConfig:
    t_begin: int
    t_update: int
    max_iterations: int
    seed: int = 0

    def __post_init__(self):
        # A boolean is an int to isinstance, but not a step count or a seed.
        for name in ("t_begin", "t_update", "max_iterations"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        check_value(self.seed, "seed", "an integer", ConfigError)

    @classmethod
    def from_preset(
        cls, name: str, max_iterations: int | None = None, seed: int = 0
    ) -> "SelfTrainConfig":
        try:
            t_begin, t_update = SCHEDULE_PRESETS[name]
        except KeyError:
            raise ConfigError(
                f"unknown schedule preset {name!r}; available: {sorted(SCHEDULE_PRESETS)}"
            ) from None
        if max_iterations is None:
            max_iterations = DEFAULT_ROUNDS * t_update
        return cls(t_begin=t_begin, t_update=t_update, max_iterations=max_iterations, seed=seed)


@dataclass(frozen=True)
class Checkpoint:
    """A tagger state captured after a student round."""

    state: bytes
    step: int  # cumulative student steps when captured (0 = teacher warmup)
    f1: float


@dataclass(frozen=True)
class RoundRecord:
    round: int
    teacher_steps: int
    student_steps: int
    validation_f1: float


@dataclass
class SelfTrainResult:
    best: Checkpoint
    best_round: int
    rounds: list[RoundRecord]
    teacher_report: EvalReport  # warmed-up teacher, before any replacement
    reports: list[EvalReport] = field(default_factory=list)


def expected_rounds(config: SelfTrainConfig) -> int:
    """How many teacher replacements the schedule performs."""
    return math.ceil(config.max_iterations / config.t_update)


def _evaluate(
    tagger: TaggerInterface, validation: Sequence[LabeledSentence], gold: EntitySet
) -> EvalReport:
    """Score ``tagger`` on ``validation``, whose entities are ``gold``."""
    predicted = tagger.predict([s.tokens for s in validation])
    entities = []
    for sent, tags in zip(validation, predicted):
        if len(tags) != len(sent.tokens):
            raise InternalInvariantError(
                f"tagger returned {len(tags)} tags for {len(sent.tokens)} tokens "
                f"in {sent.sentence_id}"
            )
        sid = sent.sentence_id
        entities += [(sid, start, end, etype) for start, end, etype in extract_entities(tags)]
    return entity_f1(gold, entities)


class _InlineScorer:
    """Scores the live tagger in this process when its state is submitted."""

    def __init__(self, validation: Sequence[LabeledSentence], gold: EntitySet):
        self._validation = validation
        self._gold = gold
        self._report: EvalReport | None = None

    def submit(self, tagger: TaggerInterface, state: bytes) -> None:
        self._report = _evaluate(tagger, self._validation, self._gold)

    def collect(self) -> EvalReport:
        return self._report

    def close(self) -> None:
        pass


class _ForkedScorer:
    """Scores submitted states in a forked validation scorer (a
    ``forked.Forked`` child running ``_score_states``), one at a time:
    ``submit`` sends the state and returns, ``collect`` waits for that
    state's report and raises what scoring raised."""

    def __init__(self, child: Forked):
        self._child = child

    def submit(self, tagger: TaggerInterface, state: bytes) -> None:
        self._child.send(state)

    def collect(self) -> EvalReport:
        import pickle

        ok, value = pickle.loads(self._child.recv())
        if not ok:
            raise value
        return value

    def close(self) -> None:
        self._child.close()


def _score_states(
    tagger_factory: Callable[[], TaggerInterface],
    validation: Sequence[LabeledSentence],
    gold: EntitySet,
    link: Link,
) -> None:
    """The validation scorer's work: restore each state the parent sends
    into a fresh tagger, score it and send back ``(True, report)`` or
    ``(False, exception)``, pickled. It returns once the parent closes its
    end of the pipe, as it does when it dies."""
    import pickle

    while True:
        try:
            state = link.recv()
        except EOFError:
            return
        try:
            tagger = tagger_factory()
            tagger.restore(state)
            result = (True, _evaluate(tagger, validation, gold))
        except Exception as e:
            result = (False, e)
        try:
            payload = pickle.dumps(result)
            pickle.loads(payload)
        except Exception as e:
            payload = pickle.dumps((False, InternalInvariantError(
                f"validation scorer cannot send back {result[1]!r}: {e}"
            )))
        link.send(payload)


def run_self_training(
    generated: Sequence[LabeledSentence],
    unlabeled: Sequence[Sequence[str]],
    validation: Sequence[LabeledSentence],
    tagger_factory: Callable[[], TaggerInterface],
    config: SelfTrainConfig,
    *,
    score_in_worker: bool = False,
) -> SelfTrainResult:
    """Run the teacher-student schedule and return the best round's checkpoint.

    ``unlabeled`` is the token side of the sentences being relabeled each
    round — normally the generated dataset's own tokens. Each round the
    teacher relabels only the distinct sentences the student's
    ``visit_order`` walk visits; the others stay ``None`` in the student's
    dataset. The best checkpoint is chosen by validation F1 with earlier
    rounds winning ties; only it and the state awaiting its score are kept,
    so memory does not grow with the number of rounds.

    Validation runs inline on the live tagger by default. With
    ``score_in_worker`` one forked validation scorer, started here and
    stopped before this returns, scores each round's snapshot while the
    next round relabels and trains; that pays only with a second CPU. If
    the fork fails, scoring runs inline. The results are the same either
    way. Errors are raised in the order a sequential run meets them: if a
    round fails while an earlier state's score is outstanding, that score
    is collected first and its failure, if any, is raised instead.
    """
    if not generated:
        raise ConfigError("generated dataset is empty")
    if not validation:
        raise ConfigError("validation dataset is empty")
    if not unlabeled:
        raise ConfigError("no unlabeled sentences to relabel")

    gold = EntitySet.from_sentences(validation)
    scorer: _InlineScorer | _ForkedScorer = _InlineScorer(validation, gold)
    if score_in_worker:
        from .forked import Forked  # only a forked scorer compiles and loads it

        child = Forked.start(
            "validation scorer",
            lambda link: _score_states(tagger_factory, validation, gold, link),
            replies=True,
        )
        if child is not None:  # else the fork failed, and scoring stays inline
            scorer = _ForkedScorer(child)
    # (round, student steps, state) whose report is still to be collected;
    # round 0 is the warmed-up teacher.
    outstanding: tuple[int, int, bytes] | None = None
    teacher_report: EvalReport | None = None
    rounds: list[RoundRecord] = []
    reports: list[EvalReport] = []
    best: Checkpoint | None = None
    best_round = 0

    def collect() -> None:
        nonlocal outstanding, teacher_report, best, best_round
        round_no, done, scored = outstanding
        outstanding = None
        report = scorer.collect()
        if not round_no:
            teacher_report = report
            return
        if best is None or report.f1 > best.f1:
            best = Checkpoint(state=scored, step=done, f1=report.f1)
            best_round = round_no
        rounds.append(
            RoundRecord(
                round=round_no,
                teacher_steps=config.t_begin,
                student_steps=done,
                validation_f1=report.f1,
            )
        )
        reports.append(report)

    done = 0
    round_no = 0
    try:
        teacher = tagger_factory()
        try:
            teacher.train(generated, config.t_begin, config.seed)
        except Exception as e:
            e.args = (f"teacher warmup failed: {e}",)
            raise
        # The teacher's state; after each round it is the verified student state.
        state = teacher.snapshot()
        scorer.submit(teacher, state)
        outstanding = (0, 0, state)
        while done < config.max_iterations:
            round_no += 1
            steps = min(config.t_update, config.max_iterations - done)
            seed = config.seed + round_no
            picked = dict.fromkeys(visit_order(len(unlabeled), steps, seed))
            pseudo: list[LabeledSentence | None] = [None] * len(unlabeled)
            for idx, tags in zip(picked, teacher.predict([unlabeled[i] for i in picked])):
                pseudo[idx] = LabeledSentence(
                    f"u{idx + 1:06d}", tuple(unlabeled[idx]), tuple(tags)
                )
            student = tagger_factory()
            student.restore(state)
            try:
                student.train(pseudo, steps, seed)
            except Exception as e:
                e.args = (f"student training failed in round {round_no}: {e}",)
                raise
            collect()
            done += steps
            state = student.snapshot()
            scorer.submit(student, state)
            outstanding = (round_no, done, state)
            teacher.restore(state)
            if teacher.snapshot() != state:
                raise InternalInvariantError("teacher state diverged from student snapshot")
        collect()
    except Exception:
        # A sequential run would have scored the outstanding state before
        # reaching this failure, so that score's own failure comes first.
        if outstanding is not None:
            collect()
        raise
    finally:
        scorer.close()

    return SelfTrainResult(
        best=best,
        best_round=best_round,
        rounds=rounds,
        teacher_report=teacher_report,
        reports=reports,
    )


# -- artifacts -------------------------------------------------------------


def format_training_log(rounds: Sequence[RoundRecord]) -> str:
    lines = [json.dumps(asdict(r), sort_keys=True) for r in rounds]
    return "\n".join(lines) + "\n" if lines else ""
