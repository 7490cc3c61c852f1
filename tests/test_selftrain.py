import pickle

import pytest

from askner.errors import ConfigError
from askner.selftrain import (
    SCHEDULE_PRESETS,
    SelfTrainConfig,
    expected_rounds,
    run_self_training,
)
from testutil import labeled


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


def test_config_validation():
    with pytest.raises(ConfigError):
        SelfTrainConfig(t_begin=0, t_update=1, max_iterations=1)
    with pytest.raises(ConfigError):
        SelfTrainConfig(t_begin=1, t_update=-2, max_iterations=1)


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
