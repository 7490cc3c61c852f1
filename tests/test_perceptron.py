import json
import math
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from askner.errors import DataError
from askner.metrics import extract_entities
from askner.perceptron import (
    END,
    START,
    AveragedPerceptronTagger,
    _features,
    _legal,
    word_shape,
)
from testutil import labeled


def test_word_shape():
    assert word_shape("Paris") == "Xx"
    assert word_shape("IBM") == "X"
    assert word_shape("iPhone12") == "xXxd"
    assert word_shape("3M") == "dX"
    assert word_shape("co-op") == "x-x"
    assert word_shape("") == ""


def _dataset():
    rows = [
        (["Oslo", "froze", "over"], ["B-LOC", "O", "O"]),
        (["Anna", "visited", "Oslo"], ["B-PER", "O", "B-LOC"]),
        (["Bergen", "and", "Oslo", "agreed"], ["B-LOC", "O", "B-LOC", "O"]),
        (["Anna", "met", "Maria"], ["B-PER", "O", "B-PER"]),
        (["snow", "fell", "alone"], ["O", "O", "O"]),
        (["New", "York", "grew"], ["B-LOC", "I-LOC", "O"]),
    ]
    return [labeled(f"s{i}", toks, tags) for i, (toks, tags) in enumerate(rows)]


def test_untrained_tagger_predicts_all_o():
    tagger = AveragedPerceptronTagger()
    out = tagger.predict([["Oslo", "froze"], ["Anna"]])
    assert out == [["O", "O"], ["O"]]
    # Weights but no ticks average to zero, not to a division by zero.
    state = {"tags": ["O", "B-LOC"], "ticks": 0, "params": [["w=oslo", "B-LOC", 1.0, 2.0, 0]]}
    tagger.restore(json.dumps(state).encode())
    assert tagger.predict([["Oslo", "froze"], ["Anna"]]) == out


def test_training_fits_the_training_set():
    tagger = AveragedPerceptronTagger()
    tagger.train(_dataset(), steps=60, seed=3)
    got = tagger.predict([s.tokens for s in _dataset()])
    assert got == [list(s.tags) for s in _dataset()]


def test_predictions_are_bio_legal():
    tagger = AveragedPerceptronTagger()
    tagger.train(_dataset(), steps=12, seed=0)
    rng = random.Random(1)
    vocab = ["Oslo", "froze", "Anna", "New", "York", "and", "snow", "IBM", "iPhone12"]
    for _ in range(50):
        words = [rng.choice(vocab) for _ in range(rng.randint(1, 12))]
        (tags,) = tagger.predict([words])
        assert len(tags) == len(words)
        extract_entities(tags)  # raises on malformed tags
        for prev, cur in zip(["O"] + tags, tags):
            if cur.startswith("I-"):
                assert prev in (f"B-{cur[2:]}", f"I-{cur[2:]}")


def test_same_seed_same_model():
    a = AveragedPerceptronTagger()
    b = AveragedPerceptronTagger()
    a.train(_dataset(), steps=25, seed=7)
    b.train(_dataset(), steps=25, seed=7)
    assert a.snapshot() == b.snapshot()
    c = AveragedPerceptronTagger()
    c.train(_dataset(), steps=25, seed=8)
    assert c.snapshot() != a.snapshot()


def test_snapshot_restore_roundtrip():
    a = AveragedPerceptronTagger()
    a.train(_dataset(), steps=20, seed=5)
    blob = a.snapshot()
    b = AveragedPerceptronTagger()
    b.restore(blob)
    assert b.snapshot() == blob
    probe = [["Oslo", "met", "Anna"], ["New", "York"]]
    assert b.predict(probe) == a.predict(probe)


def test_equal_states_give_equal_bytes():
    a = AveragedPerceptronTagger()
    a.train(_dataset(), steps=20, seed=5)
    blob = a.snapshot()
    b = AveragedPerceptronTagger()
    b.restore(blob)
    # Rebuild both maps from their own JSON text, so they share no string
    # objects, as they do after training.
    rows = json.loads(json.dumps([[*key, *acc] for key, acc in b._acc.items()]))
    b.weights = json.loads(json.dumps(b.weights))
    b._acc = {(f, t): (total, stamp) for f, t, total, stamp in rows}
    assert b.snapshot() == blob

    empty = AveragedPerceptronTagger().snapshot()
    c = AveragedPerceptronTagger()
    c.restore(empty)
    assert c.snapshot() == empty
    assert c.predict([["Oslo", "froze"]]) == [["O", "O"]]


_ROW = ["w=oslo", "B-LOC", 1.0, 2.0, 0]


def _state(**changes):
    state = {"tags": ["O", "B-LOC"], "ticks": 3, "params": [_ROW, ["w=oslo", "O", -1.0, 0.5, 2]]}
    state.update(changes)
    return state


def _row(field, value):
    row = ["w=lima", "B-LOC", 1.0, 2.0, 1]
    row[["feature", "tag", "weight", "total", "stamp"].index(field)] = value
    return row


@pytest.mark.parametrize(
    "state, message",
    [
        (b"{}", "missing field 'tags'"),
        (b"[]", "expected an object, got list"),
        (b"not json", "invalid JSON: Expecting value"),
        (b"\xff", "invalid JSON: 'utf-8' codec can't decode"),
        ({"tags": ["O"], "params": []}, "missing field 'ticks'"),
        ({"tags": ["O"], "ticks": 0}, "missing field 'params'"),
        ({"tags": ["O"], "ticks": 0, "params": 5}, "params must be an array, got 5"),
        ({"tags": ["O"], "ticks": 0, "params": [_ROW, ["w=oslo", "O"]]},
         "params row 1 must be [feature, tag, weight, total, stamp], got ['w=oslo', 'O']"),
        ({"tags": ["O"], "ticks": 0, "params": [_ROW, [["w=oslo"], "O", 1.0, 1.0, 0]]},
         "params row 1 must be [feature, tag, weight, total, stamp], got [['w=oslo'], 'O'"),
        (_state(tags="O"), "tags must be an array, got 'O'"),
        (_state(tags=["O", 5]), "tags[1] must be a string, got 5"),
        (_state(tags=["O", None]), "tags[1] must be a string, got None"),
        (_state(ticks=True), "ticks must be an integer, got True"),
        (_state(ticks=3.0), "ticks must be an integer, got 3.0"),
        (_state(ticks="3"), "ticks must be an integer, got '3'"),
        (_state(ticks=None), "ticks must be an integer, got None"),
        (_state(params={"abcde": 1}), "params must be an array, got {'abcde': 1}"),
        (_state(params=[_ROW, _row("feature", 5)]), "params row 1 feature must be a string, got 5"),
        (_state(params=[_row("feature", True)]), "params row 0 feature must be a string, got True"),
        (_state(params=[_row("feature", None)]), "params row 0 feature must be a string, got None"),
        (_state(params=[_row("tag", 1.5)]), "params row 0 tag must be a string, got 1.5"),
        (_state(params=[_row("weight", math.nan)]),
         "params row 0 weight must be a finite number, got nan"),
        (_state(params=[_row("weight", math.inf)]),
         "params row 0 weight must be a finite number, got inf"),
        (_state(params=[_row("weight", -math.inf)]),
         "params row 0 weight must be a finite number, got -inf"),
        (_state(params=[_row("weight", True)]),
         "params row 0 weight must be a finite number, got True"),
        (_state(params=[_row("weight", "1.0")]),
         "params row 0 weight must be a finite number, got '1.0'"),
        (_state(params=[_row("weight", None)]),
         "params row 0 weight must be a finite number, got None"),
        (_state(params=[_row("weight", [1.0])]),
         "params row 0 weight must be a finite number, got [1.0]"),
        (_state(params=[_row("weight", 10**400)]),
         f"params row 0 weight must be a finite number, got {10**400}"),
        # 1e400 decodes to inf.
        (json.dumps(_state(params=[_row("weight", 0.5)])).replace("0.5", "1e400").encode(),
         "params row 0 weight must be a finite number, got inf"),
        (_state(params=[_row("total", math.nan)]),
         "params row 0 total must be a finite number, got nan"),
        (_state(params=[_row("total", False)]),
         "params row 0 total must be a finite number, got False"),
        (_state(params=[_row("stamp", 1.0)]), "params row 0 stamp must be an integer, got 1.0"),
        (_state(params=[_row("stamp", True)]), "params row 0 stamp must be an integer, got True"),
        (_state(params=[_row("stamp", "1")]), "params row 0 stamp must be an integer, got '1'"),
        (_state(tags=[], params=[]), 'tags must start with "O", got []'),
        (_state(tags=["B-LOC", "O"]), """tags must start with "O", got ['B-LOC', 'O']"""),
        (_state(tags=["I-X"], params=[]), """tags must start with "O", got ['I-X']"""),
        (_state(tags=["O", "B-LOC", "O"]), "tags repeat 'O'"),
        (_state(tags=["O", "B-LOC", "B-LOC"]), "tags repeat 'B-LOC'"),
        (_state(params=[_ROW, _row("tag", "B-ORG")]), "params row 1 tag 'B-ORG' is not in tags"),
        # every row's form is checked before any row's tag
        (_state(tags=["O"], params=[_ROW, _row("stamp", 1.0)]),
         "params row 1 stamp must be an integer, got 1.0"),
        (_state(tags=["O"], params=[_ROW, _row("stamp", 1)]),
         "params row 0 tag 'B-LOC' is not in tags"),
        # a state that would not snapshot back to its own bytes
        ({"tags": ["O"], "ticks": 1, "params": [["b", "O", 1.0, 1.0, 1], ["b", "O", 2.0, 2.0, 1]]},
         "params row 1 repeats the feature and tag of row 0"),
        (_state(params=[["w=oslo", "O", -1.0, 0.5, 2], _ROW]),
         "params row 1 sorts before the feature and tag of row 0"),
        (_state(params=[_ROW, _row("tag", "B-LOC")]),
         "params row 1 sorts before the feature and tag of row 0"),
        (_state(params=[_row("stamp", 4)]), "params row 0 stamp must be in [0, ticks 3], got 4"),
        (_state(params=[_row("stamp", -1)]), "params row 0 stamp must be in [0, ticks 3], got -1"),
        (_state(ticks=-1), "ticks must not be negative, got -1"),
        # a stamp is checked before the row's order
        (_state(params=[_ROW, _ROW[:4] + [7]]),
         "params row 1 stamp must be in [0, ticks 3], got 7"),
        # a field other than tags, ticks and params, named after the three
        # fields' own faults and before any other
        (_state(x=0), "unknown keys ['x']"),
        (_state(x=0, a=None), "unknown keys ['a', 'x']"),
        ({"tags": ["O"], "params": [], "x": 0}, "missing field 'ticks'"),
        (_state(x=0, ticks=-1.0), "ticks must be an integer, got -1.0"),
        (_state(x=0, tags=["B-LOC", "O"]), "unknown keys ['x']"),
        (_state(x=0, params=[_row("stamp", 4)]), "unknown keys ['x']"),
    ],
)
def test_restore_rejects_a_malformed_state_naming_the_fault(state, message):
    if isinstance(state, dict):
        state = json.dumps(state).encode()
    tagger = AveragedPerceptronTagger()
    tagger.train(_dataset(), steps=5, seed=1)
    before = tagger.snapshot()
    with pytest.raises(DataError, match="^" + re.escape(f"checkpoint: {message}")):
        tagger.restore(state)
    # A failed restore leaves the tagger as it was.
    assert tagger.snapshot() == before


@pytest.mark.parametrize(
    "state, message",
    [(b"1" * 5000, "Exceeds the limit (4300 digits)"),
     (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded")],
    ids=["long-int", "deep-nesting"],
)
def test_restore_rejects_json_the_decoder_refuses(state, message):
    with pytest.raises(DataError, match="^" + re.escape(f"checkpoint: invalid JSON: {message}")):
        AveragedPerceptronTagger().restore(state)


def _ref_snapshot(tagger):
    """``snapshot`` as it was before it wrote rows straight to text: a list
    per row, then ``json.dumps``."""
    params = [
        [feat, tag, w, *tagger._acc[feat, tag]]
        for feat, row in sorted(tagger.weights.items())
        for tag, w in sorted(row.items())
    ]
    state = {"tags": tagger.tags, "ticks": tagger._ticks, "params": params}
    return json.dumps(state, separators=(",", ":")).encode("ascii")


# Feature and tag text the encoder must escape: quotes, backslashes, control
# characters, non-ASCII letters, characters outside the BMP and lone
# surrogates.
_TEXT = st.text(
    st.one_of(
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028é漢\U0001f600\ud800\udfff'),
        st.characters(),
    ),
    max_size=8,
)
_FINITE = st.one_of(
    st.integers(-(10**20), 10**20),
    st.integers(-(10**300), 10**300),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1e16, 1e-7, 5e-324, 1.7976931348623157e308, 123456789.0]),
)


def _json_round_trip(value):
    """``value`` as ``restore`` reads it back: ``json.loads`` joins a high
    and a low surrogate escaped next to each other into one character."""
    return json.loads(json.dumps(value))


@st.composite
def _states(draw):
    # restore accepts tags that start with "O" and do not repeat, and rows
    # whose tag is one of them, in (feature, tag) order, with stamps in
    # [0, ticks]; each must hold after the JSON round trip
    tags = ["O", *draw(st.lists(
        _TEXT.filter(lambda t: t != "O"), unique_by=_json_round_trip, max_size=3
    ))]
    keys = draw(st.lists(
        st.tuples(_TEXT, st.sampled_from(tags)),
        unique_by=lambda key: tuple(_json_round_trip(key)),
        max_size=12,
    ))
    ticks = draw(st.integers(0, 10**20))
    params = [
        [feat, tag, draw(_FINITE), draw(_FINITE), draw(st.integers(0, ticks))]
        for feat, tag in sorted(keys, key=_json_round_trip)
    ]
    return {"tags": tags, "ticks": ticks, "params": params}


@settings(max_examples=200, deadline=None)
@given(_states())
# "\ud800\udfff" sorts before "\udfff", but restore reads it as U+103FF,
# which sorts after
@example({"tags": ["O"], "ticks": 0,
          "params": [["\udfff", "O", 0, 0, 0], ["\ud800\udfff", "O", 0, 0, 0]]})
def test_snapshot_of_a_restored_state_equals_json_dumps(state):
    tagger = AveragedPerceptronTagger()
    tagger.restore(json.dumps(state).encode("ascii"))
    assert tagger.snapshot() == _ref_snapshot(tagger)
    restored = _json_round_trip(state)
    restored["params"].sort(key=lambda row: row[:2])
    assert tagger.snapshot() == json.dumps(restored, separators=(",", ":")).encode("ascii")


@st.composite
def _maybe_faulty_states(draw):
    """A ``_states`` state, perhaps with a row repeated, its rows shuffled,
    stamps out of [0, ticks], negative ticks or a field of its own."""
    state = draw(_states())
    params = state["params"]
    if params and draw(st.booleans()):
        row = list(params[draw(st.integers(0, len(params) - 1))])
        params.insert(draw(st.integers(0, len(params))), row)
    if draw(st.booleans()):
        draw(st.randoms()).shuffle(params)
    for row in params:
        if draw(st.integers(0, 7)) == 0:
            row[4] = draw(st.sampled_from([-1, state["ticks"] + 1, -(10**20)]))
    if draw(st.integers(0, 7)) == 0:
        state["ticks"] = draw(st.integers(-(10**20), -1))
    if draw(st.integers(0, 7)) == 0:
        key = draw(_TEXT.filter(lambda k: _json_round_trip(k) not in state))
        state[key] = draw(_FINITE)
    return state


@settings(max_examples=200, deadline=None)
@given(_maybe_faulty_states())
# an I- tag without its B- tag, as training on such a CoNLL file leaves
@example({"tags": ["O", "I-X"], "ticks": 1, "params": [["b", "I-X", 1.0, 1.0, 1]]})
def test_every_state_restore_accepts_snapshots_back_to_its_own_bytes(state):
    data = json.dumps(state, separators=(",", ":")).encode("ascii")
    decoded = json.loads(data)
    ticks, keys = decoded["ticks"], [tuple(row[:2]) for row in decoded["params"]]
    canonical = (
        len(decoded) == 3
        and ticks >= 0
        and all(0 <= row[4] <= ticks for row in decoded["params"])
        and all(a < b for a, b in zip(keys, keys[1:]))
    )
    tagger = AveragedPerceptronTagger()
    if canonical:
        tagger.restore(data)
        assert tagger.snapshot() == data
    else:
        with pytest.raises(DataError, match="^checkpoint: (unknown keys|ticks|params row)"):
            tagger.restore(data)


_WORDS = st.text(
    st.one_of(st.sampled_from('"\\\né漢\U0001f600\ud800'), st.characters()),
    min_size=1, max_size=6,
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.lists(st.tuples(_WORDS, st.sampled_from(["O", "B-é", 'B-"x', "I-é"])),
                 min_size=1, max_size=5),
        min_size=1, max_size=5,
    ),
    st.integers(1, 30),
    st.integers(0, 2**32),
)
def test_snapshot_after_training_and_after_restore_equals_json_dumps(rows, steps, seed):
    data = [
        labeled(f"h{i}", [w for w, _ in row], [tag for _, tag in row])
        for i, row in enumerate(rows)
    ]
    tagger = AveragedPerceptronTagger()
    tagger.train(data, steps=steps, seed=seed)
    blob = tagger.snapshot()
    assert blob == _ref_snapshot(tagger)
    restored = AveragedPerceptronTagger()
    restored.restore(blob)
    assert restored.snapshot() == blob == _ref_snapshot(restored)
    # Integer weights from a checkpoint, then training on top of them.
    state = json.loads(blob)
    for row in state["params"][::2]:
        row[2] = round(row[2])
        row[3] = int(row[3]) * 10**12
    restored.restore(json.dumps(state).encode())
    assert restored.snapshot() == _ref_snapshot(restored)
    restored.train(data, steps=steps, seed=seed + 1)
    assert restored.snapshot() == _ref_snapshot(restored)


def test_training_is_cumulative_after_restore():
    a = AveragedPerceptronTagger()
    a.train(_dataset(), steps=10, seed=5)
    b = AveragedPerceptronTagger()
    b.restore(a.snapshot())
    b.train(_dataset(), steps=10, seed=6)
    a.train(_dataset(), steps=10, seed=6)
    assert a.snapshot() == b.snapshot()


def test_zero_steps_is_a_no_op():
    a = AveragedPerceptronTagger()
    a.train(_dataset(), steps=0, seed=1)
    assert a.predict([["Oslo"]]) == [["O"]]


def test_predict_leaves_no_state_behind():
    a = AveragedPerceptronTagger()
    a.train(_dataset(), steps=20, seed=5)
    other = AveragedPerceptronTagger()
    acme = labeled("x", ["Acme", "hired"], ["B-ORG", "O"])
    other.train(_dataset()[:2] + [acme], steps=9, seed=1)
    probe = [["Oslo", "met", "Anna"], ["Acme", "hired", "Anna"], []]
    before, attrs = a.snapshot(), set(vars(a))
    first = a.predict(probe)
    assert a.snapshot() == before
    assert set(vars(a)) == attrs

    a.restore(other.snapshot())
    fresh = AveragedPerceptronTagger()
    fresh.restore(other.snapshot())
    assert a.predict(probe) == fresh.predict(probe) != first


# -- predict against the dict-based decoder it replaced ------------------------


def _reference_decode(tagger, table, words):
    """The greedy loop ``predict`` ran before it compiled the weights,
    verbatim: features summed one by one, strict ">" over legal tags."""
    tags = []
    prev = START
    for i in range(len(words)):
        feats = _features(words, i, prev)
        best_tag = None
        best_score = None
        for tag in tagger.tags:
            if not _legal(prev, tag):
                continue
            score = 0.0
            for feat in feats:
                row = table.get(feat)
                if row:
                    score += row.get(tag, 0.0)
            if best_score is None or score > best_score:
                best_tag, best_score = tag, score
        tags.append(best_tag)
        prev = best_tag
    return tags


def _ref_averaged(self):
    """The whole averaged model, as ``predict`` built it on every call before
    it averaged only the rows its batch reads."""
    if not self._ticks:
        return {}
    avg: dict[str, dict[str, float]] = {}
    for feat, row in self.weights.items():
        arow = {}
        for tag, w in row.items():
            key = (feat, tag)
            total, stamp = self._acc.get(key, (0.0, 0))
            total += w * (self._ticks - stamp)
            if total:
                arow[tag] = total / self._ticks
        if arow:
            avg[feat] = arow
    return avg


def _reference_predict(tagger, sentences):
    table = _ref_averaged(tagger)
    return [_reference_decode(tagger, table, words) for words in sentences]


# Boundary markers, the empty token, and words whose lowercase changes
# length or leaves ASCII, next to plain words that share their features.
VOCAB = ["<s>", "</s>", "", "ÉCOLE", "école", "ß", "SS", "İstanbul", "Oslo", "oslo",
         "New", "York", "iPhone12", "3M", "co-op", "the", "Anna", "."]
# Sums of these depend on the order they are added in: (0.1 + 0.2) + 0.3 and
# 0.1 + (0.2 + 0.3) differ in the last bit, and 0.6 ties one but not the other.
WEIGHTS = [0.1, 0.2, 0.3, 0.6, -0.1, -0.2, -0.3, 0.7]


def _random_tags(rng):
    tags = {"O"}
    for etype in rng.sample(["PER", "LOC", "ORG", "city", "disease"], rng.randint(1, 3)):
        tags.update(p + etype for p in ("B-", "I-") if rng.random() < 0.8)
    return sorted(tags, key=lambda t: (t != "O", t))


def _random_sentence(rng, max_len=7):
    return [rng.choice(VOCAB) for _ in range(rng.randint(0, max_len))]


def _random_model(rng):
    """A tagger whose weights hit the features of random VOCAB sentences.
    Half are built directly (one tick, so the averaged weights are the raw
    ones and ties abound), half by training on random labels."""
    tagger = AveragedPerceptronTagger()
    tagger.tags = _random_tags(rng)
    if rng.random() < 0.5:
        feats = set()
        for _ in range(6):
            words = _random_sentence(rng) or ["Oslo"]
            for i in range(len(words)):
                feats.update(_features(words, i, rng.choice([START, *tagger.tags])))
        for feat in feats:
            if rng.random() < 0.8:
                tagger.weights[feat] = {
                    tag: rng.choice(WEIGHTS) for tag in tagger.tags if rng.random() < 0.7
                }
        tagger._ticks = 1
    else:
        data = []
        for i in range(rng.randint(1, 6)):
            words = _random_sentence(rng) or ["Oslo"]
            gold, prev = [], START
            for _ in words:
                prev = rng.choice([t for t in tagger.tags if _legal(prev, t)])
                gold.append(prev)
            data.append(labeled(f"r{i}", words, gold))
        tagger.train(data, steps=rng.randint(1, 25), seed=rng.randint(0, 99))
    return tagger


def test_predict_matches_reference_decoder_on_random_models():
    for seed in range(240):
        rng = random.Random(seed)
        tagger = _random_model(rng)
        batch = [_random_sentence(rng) for _ in range(rng.randint(1, 6))] + [[], VOCAB]
        assert tagger.predict(batch) == _reference_predict(tagger, batch), seed
        assert tagger.predict([]) == []


def test_training_decode_matches_reference_decoder_on_random_models():
    for seed in range(240):
        rng = random.Random(seed)
        tagger = _random_model(rng)
        for words in [_random_sentence(rng) for _ in range(4)] + [[], VOCAB]:
            expected = _reference_decode(tagger, tagger.weights, words)
            assert tagger._decode(words) == expected, seed


def _reference_features(words, i, prev_tag):
    """The feature names ``_features`` built before it read them from the
    per-word memo."""
    w = words[i]
    lower = w.lower()
    return [
        "b",
        f"w={lower}",
        f"shape={word_shape(w)}",
        f"pre={lower[:3]}",
        f"suf={lower[-3:]}",
        f"prev={words[i - 1].lower() if i > 0 else START}",
        f"next={words[i + 1].lower() if i + 1 < len(words) else END}",
        f"ptag={prev_tag}",
    ]


def test_features_match_reference_names():
    for words in (VOCAB, VOCAB[::-1], ["ß"], [""], ["<s>", "</s>"]):
        for i in range(len(words)):
            for prev in (START, "O", "B-LOC", "I-city"):
                assert _features(words, i, prev) == _reference_features(words, i, prev)


def test_untrained_tagger_breaks_every_tie_toward_o():
    for seed in range(20):
        rng = random.Random(seed)
        tagger = AveragedPerceptronTagger()
        tagger.tags = _random_tags(rng)
        batch = [_random_sentence(rng) for _ in range(4)] + [[], VOCAB]
        expected = [["O"] * len(words) for words in batch]
        assert tagger.predict(batch) == _reference_predict(tagger, batch) == expected
