"""Averaged structured perceptron tagger.

A dependency-free baseline for the self-training loop: greedy left-to-right
decoding over BIO tags with an illegal-transition mask, simple lexical and
shape features, and weight averaging over update steps. Deterministic for a
fixed seed, dataset, and step count.

A word's feature names (``w=``, ``shape=``, ``pre=``, ``suf=`` and the
``prev=``/``next=`` names it gives its neighbours) do not depend on the
weights, so ``_word_names`` builds them once per word and keeps them in a
bounded memo that outlives every call. Training decodes each update's one
sentence from the live weights: it looks each feature row up once per token
and sums the rows tag by tag, over the tags that may follow the previous one.
``predict`` averages only the feature rows its batch reads, once per call,
into per-word score tuples, so its cost follows the batch, not the model. The
compile pays for itself only over a batch: run on every update's single
sentence it made training about 30% slower. Both add the feature weights in
the order ``_features`` lists them and break ties toward the earliest tag in
``tags``, which lists "O" first.

``train`` updates on the sentences ``selftrain.visit_order`` lists and reads
no other entry of its dataset, so the self-training loop pseudo-labels only
those and passes ``None`` for the rest.

``snapshot`` writes the whole state as one canonical JSON table, which is
also the checkpoint file ``selftrain`` writes; ``restore`` reads it back and
checks every value's type. ``snapshot`` writes each row straight to text
rather than building a list per row for ``json.dumps``: the row lists cost
more to build than to encode, and at scale they set off cyclic garbage
collections. The bytes are still the ones ``json.dumps`` gives, because
``restore``'s type check keeps out every value ``json.dumps`` would write
another way (see ``snapshot``).
"""

from __future__ import annotations

import json
import math
import sys
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii as encode_string
from typing import Sequence

from .annotator import LabeledSentence
from .errors import DataError, check_fields, check_value
from .selftrain import visit_order

START = "<s>"
END = "</s>"
_BIAS = "b"


def word_shape(word: str) -> str:
    """Run-compressed character-class sketch: "Paris" -> "Xx", "IBM" -> "X",
    "iPhone12" -> "xXxd"."""
    out = []
    for ch in word:
        cls = "X" if ch.isupper() else "x" if ch.islower() else "d" if ch.isdigit() else "-"
        if not out or out[-1] != cls:
            out.append(cls)
    return "".join(out)


@lru_cache(maxsize=8192)
def _word_names(word: str) -> tuple[str, str, str, str, str, str]:
    """The feature names ``word`` contributes, whatever the weights: its own
    ``w=``, ``shape=``, ``pre=`` and ``suf=``, then the ``prev=`` and
    ``next=`` names it gives the words after and before it. An entry is
    about 0.5 kB, so a full memo holds about 4 MB."""
    lower = word.lower()
    return (
        f"w={lower}",
        f"shape={word_shape(word)}",
        f"pre={lower[:3]}",
        f"suf={lower[-3:]}",
        f"prev={lower}",
        f"next={lower}",
    )


_PREV_START = f"prev={START}"
_NEXT_END = f"next={END}"


def _features(words: Sequence[str], i: int, prev_tag: str) -> list[str]:
    w, shape, pre, suf, _, _ = _word_names(words[i])
    return [
        _BIAS,
        w,
        shape,
        pre,
        suf,
        _word_names(words[i - 1])[4] if i > 0 else _PREV_START,
        _word_names(words[i + 1])[5] if i + 1 < len(words) else _NEXT_END,
        f"ptag={prev_tag}",
    ]


def _legal(prev_tag: str, tag: str) -> bool:
    if tag.startswith("I-"):
        etype = tag[2:]
        return prev_tag in (f"B-{etype}", f"I-{etype}")
    return True


@lru_cache(maxsize=16)
def _successors(tags: tuple[str, ...]) -> dict[str, tuple[str, ...]]:
    """For each previous tag (``START`` included), the tags that may follow
    it, in ``tags`` order."""
    return {prev: tuple(t for t in tags if _legal(prev, t)) for prev in (START, *tags)}


_ROW_KINDS = {
    "feature": "a string", "tag": "a string", "weight": "a finite number",
    "total": "a finite number", "stamp": "an integer",
}


def _check_state(obj: object) -> None:
    """Raise DataError naming the first fault ``restore`` met in a decoded
    state: a fault in its three fields (``check_fields``), tags that do not
    start with "O", a tag that is not a string or repeats one, a params row
    that does not unpack into five fields or whose feature or tag is an
    array or an object, a row field not of its kind in ``_ROW_KINDS``, and,
    once every row has its form, a row whose tag is not in tags."""
    tags, _, params = check_fields(
        obj, "checkpoint", {"tags": "an array", "ticks": "an integer", "params": "an array"}
    )
    if not tags or tags[0] != "O":
        raise DataError(f'checkpoint: tags must start with "O", got {tags!r}')
    for i, tag in enumerate(tags):
        check_value(tag, f"checkpoint: tags[{i}]", "a string")
        if tag in tags[:i]:
            raise DataError(f"checkpoint: tags repeat {tag!r}")
    for i, row in enumerate(params):
        try:
            feat, tag, _, _, _ = row
            hash((feat, tag))
        except (TypeError, ValueError):
            raise DataError(
                f"checkpoint: params row {i} must be [{', '.join(_ROW_KINDS)}], got {row!r}"
            ) from None
        for (field, kind), value in zip(_ROW_KINDS.items(), row):
            check_value(value, f"checkpoint: params row {i} {field}", kind)
    for i, (_, tag, _, _, _) in enumerate(params):
        if tag not in tags:
            raise DataError(f"checkpoint: params row {i} tag {tag!r} is not in tags")


class AveragedPerceptronTagger:
    """Tagger with the train/predict/snapshot/restore contract the
    self-training loop expects."""

    def __init__(self):
        self.tags: list[str] = ["O"]
        self.weights: dict[str, dict[str, float]] = {}
        # (feat, tag) -> (total, stamp): the weight summed over every tick up
        # to ``stamp``, the tick at which ``_bump`` last changed it.
        self._acc: dict[tuple[str, str], tuple[float, int]] = {}
        self._ticks = 0

    # -- training ---------------------------------------------------------

    def train(
        self, dataset: Sequence[LabeledSentence | None], steps: int, seed: int
    ) -> None:
        """Run ``steps`` single-sentence perceptron updates.

        Sentences are visited in ``visit_order``: a seeded shuffle,
        reshuffled each pass. Only those entries are read, and any other may
        be ``None``. Training is cumulative, so restoring a snapshot and
        training further continues from that state.
        """
        order = visit_order(len(dataset), steps, seed)
        self._register_tags(dataset)
        for i in order:
            self._ticks += 1
            self._update(dataset[i])

    def _register_tags(self, dataset: Sequence[LabeledSentence | None]) -> None:
        seen = set(self.tags)
        for sent in dataset:
            if sent is not None:
                seen.update(sent.tags)
        self.tags = sorted(seen, key=lambda t: (t != "O", t))

    def _update(self, sent: LabeledSentence) -> None:
        words = sent.tokens
        pred = self._decode(words)
        if list(pred) == list(sent.tags):
            return
        for i in range(len(words)):
            gold_prev = sent.tags[i - 1] if i > 0 else START
            pred_prev = pred[i - 1] if i > 0 else START
            if sent.tags[i] == pred[i] and gold_prev == pred_prev:
                continue
            for feat in _features(words, i, gold_prev):
                self._bump(feat, sent.tags[i], 1.0)
            for feat in _features(words, i, pred_prev):
                self._bump(feat, pred[i], -1.0)

    def _bump(self, feat: str, tag: str, delta: float) -> None:
        row = self.weights.setdefault(feat, {})
        old = row.get(tag, 0.0)
        key = (feat, tag)
        total, stamp = self._acc.get(key, (0.0, 0))
        self._acc[key] = (total + old * (self._ticks - stamp), self._ticks)
        row[tag] = old + delta

    # -- inference --------------------------------------------------------

    def _decode(self, words: Sequence[str]) -> list[str]:
        """Greedy decode of one sentence with the live (unaveraged) weights,
        for a training update; see the module docstring for why it does not
        compile them. Each token's feature rows are looked up once, and each
        legal tag's score adds them in ``_features`` order."""
        table = self.weights
        successors = _successors(tuple(self.tags))
        tags = []
        prev = START
        for i in range(len(words)):
            rows = [r for r in map(table.get, _features(words, i, prev)) if r]
            best_tag = None
            best_score = None
            for tag in successors[prev]:
                score = 0.0
                for row in rows:
                    score += row.get(tag, 0.0)
                if best_score is None or score > best_score:
                    best_tag, best_score = tag, score
            tags.append(best_tag)
            prev = best_tag
        return tags

    def predict(self, sentences: Sequence[Sequence[str]]) -> list[list[str]]:
        """Tag token sequences; output lengths mirror inputs and tags are
        BIO-legal by construction.

        Only the feature rows the batch reads are averaged, each into a tuple
        of floats aligned with ``self.tags``: a weight's total over every tick
        divided by the tick count, or 0.0 before any tick. Each distinct word
        gets its lexical sum (bias + w + shape + pre + suf) and the
        ``prev=``/``next=`` rows it gives its neighbours; each previous tag
        (``START`` included) gets its ``ptag=`` row, with -inf on the tags it
        makes illegal. Decoding is greedy, left to right: a tag scores
        ``((lex + prev) + next) + ptag``, adding the features in the order
        ``_features`` lists them, so every score is bit-equal to summing the
        feature rows one by one. The highest-scoring legal tag wins and ties
        go to the earliest in ``self.tags``, so "O" wins every tie it is in.
        The words' feature names come from the ``_word_names`` memo, which
        outlives the call; the weight rows compiled here do not.
        """
        tags, ticks, acc = self.tags, self._ticks, self._acc
        zeros = (0.0,) * len(tags)

        def mean(feat: str, tag: str, w: float) -> float:
            total, stamp = acc.get((feat, tag), (0.0, 0))
            total += w * (ticks - stamp)
            return total / ticks if total else 0.0

        def row(feat: str) -> tuple[float, ...]:
            wrow = self.weights.get(feat) if ticks else None
            if not wrow:
                return zeros
            return tuple(mean(feat, tag, wrow[tag]) if tag in wrow else 0.0 for tag in tags)

        bias = row(_BIAS)
        lexes: dict[str, tuple[float, ...]] = {}
        prevs: dict[str, tuple[float, ...]] = {}
        nexts: dict[str, tuple[float, ...]] = {}
        for word in dict.fromkeys(chain.from_iterable(sentences)):
            *lex_names, prev_name, next_name = _word_names(word)
            parts = map(row, lex_names)
            lexes[word] = tuple(b + w + s + p + x for b, w, s, p, x in zip(bias, *parts))
            prevs[word] = row(prev_name)
            nexts[word] = row(next_name)
        # An illegal tag scores -inf, so it never beats the legal "O" or B-*.
        ptags = {
            prev: [
                w if _legal(prev, tag) else -math.inf
                for tag, w in zip(tags, row(f"ptag={prev}"))
            ]
            for prev in [START, *tags]
        }
        start_row = row(_PREV_START)
        end_row = row(_NEXT_END)
        out = []
        for words in sentences:
            seq = []
            prev = START
            for lex, prev_row, next_row in zip(
                map(lexes.__getitem__, words),
                [start_row, *map(prevs.__getitem__, words[:-1])],
                [*map(nexts.__getitem__, words[1:]), end_row],
            ):
                scores = [
                    a + b + c + d for a, b, c, d in zip(lex, prev_row, next_row, ptags[prev])
                ]
                # index() finds the first maximum: the strict ">" tie rule.
                prev = tags[scores.index(max(scores))]
                seq.append(prev)
            out.append(seq)
        return out

    # -- state ------------------------------------------------------------

    def snapshot(self) -> bytes:
        """Canonical JSON, so equal states give equal bytes: ``{"tags",
        "ticks", "params"}``, with one ``[feat, tag, weight, total, stamp]``
        row per parameter, sorted by (feat, tag). ``_bump`` writes a weight
        and its accumulator under the same key, so one row holds both.

        Each row is written straight to text, with no list built for it:
        strings through ``json``'s own ASCII string encoder, numbers as
        their ``repr``. ``json.dumps(state, separators=(",", ":"))`` makes
        the same calls for a ``str``, an ``int`` and a finite ``float``, and
        training and ``restore`` admit no other value (no boolean, NaN or
        infinity), so the bytes are the ones it would give."""
        acc = self._acc
        rows = []
        for feat in sorted(self.weights):
            row = self.weights[feat]
            name = encode_string(feat)
            for tag in sorted(row):
                total, stamp = acc[feat, tag]
                rows.append(f"[{name},{encode_string(tag)},{row[tag]!r},{total!r},{stamp!r}]")
        tags = ",".join(map(encode_string, self.tags))
        params = ",".join(rows)
        return f'{{"tags":[{tags}],"ticks":{self._ticks!r},"params":[{params}]}}'.encode("ascii")

    def restore(self, state: bytes) -> None:
        """Load a ``snapshot`` state. A state this loop cannot load raises
        DataError naming the fault (see ``_check_state``): not JSON, not an
        object, a missing field, a malformed params row, a value of the
        wrong type, such as a NaN weight or a boolean stamp, tags that are
        empty, do not start with "O" or repeat one, or a row whose tag is
        not in tags, which ``predict`` could not decode. A well-formed
        state is checked in one pass as it is read; ``_check_state`` words
        the first fault of any other. A failed restore
        leaves the tagger as it was."""
        try:
            obj = json.loads(state)
        except (TypeError, ValueError, RecursionError) as e:
            raise DataError(f"checkpoint: invalid JSON: {e}") from None
        try:
            tags, ticks, params = obj["tags"], obj["ticks"], obj["params"]
            if not (
                type(tags) is list and all(type(tag) is str for tag in tags)
                and tags and tags[0] == "O" and type(ticks) is int
            ):
                raise TypeError
            known = set(tags)
            if len(known) < len(tags):
                raise TypeError
            weights: dict[str, dict[str, float]] = {}
            acc: dict[tuple[str, str], tuple[float, int]] = {}
            lo, hi = -sys.float_info.max, sys.float_info.max
            for feat, tag, w, total, stamp in params:
                if not (
                    type(feat) is str and tag in known and type(stamp) is int
                    and (type(w) is float or type(w) is int) and lo <= w <= hi
                    and (type(total) is float or type(total) is int) and lo <= total <= hi
                ):
                    raise TypeError
                weights.setdefault(feat, {})[tag] = w
                acc[feat, tag] = (total, stamp)
        except (KeyError, TypeError, ValueError):
            _check_state(obj)
            raise
        self.tags, self._ticks, self.weights, self._acc = tags, ticks, weights, acc
