"""Spans around the calls into askner's modules, installed from outside.

``Tracer.install`` replaces the functions ``askner.pipeline`` imports (and
the ones it defines and calls by name), ``entity_f1`` as
``askner.selftrain`` sees it, and the tagger's public methods with wrappers
that record a span per call: name, start, end, parent span and run id.
Spans stay in memory until ``dump``. ``uninstall`` puts the originals back.
Nothing in ``src/`` knows about this.

A span's self time is its duration minus the durations of its direct
children; calls are sequential, so children never overlap. Each wrapped
call may also add to named counters, taken from its arguments and result.
Counting runs after the callee's span has ended but while its caller's is
still open, so it is timed too: that time is taken out of the caller's self
time and reported as ``trace.counters``.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from pathlib import Path

from askner import pipeline, selftrain
from askner.perceptron import AveragedPerceptronTagger

COUNTERS = "trace.counters"

# function name -> counters(args, result) for the calls askner.pipeline makes
PIPELINE_COUNTERS = {
    "load_corpus": lambda a, r: {"sentences": len(r), "bytes": os.path.getsize(a[0])},
    "read_results": lambda a, r: {"records": sum(len(v) for v in r.values())},
    "fetch_remote": lambda a, r: {"records": len(r)},
    "collect_training_sentences": None,
    "normalize": lambda a, r: {"phrases_in": 1, "phrases_out": len(r)},
    "build_dictionary": lambda a, r: {"entries": len(r.entries)},
    "match_sentences": lambda a, r: {
        "tokens": sum(len(s.tokens) for s in a[1]), "spans": len(r)
    },
    "assign_types": lambda a, r: {
        "ambiguous_spans": sum(len(a[0].entries[s.phrase_key].counts) > 1 for s in a[1])
    },
    "emit_bio": lambda a, r: {"sentences": len(r)},
    "format_conll": lambda a, r: {"bytes": len(r.encode("utf-8"))},
    "read_conll": None,
    "atomic_write": lambda a, r: {
        "bytes": len(a[1].encode("utf-8") if isinstance(a[1], str) else a[1])
    },
    "sha256_bytes": None,
    "sha256_file": lambda a, r: {"bytes": os.path.getsize(a[0])},
    "build_question_set": None,
    "load_stopwords": None,
    "serialize_results": None,
    "dump_dictionary": None,
    "run_self_training": None,
    "format_training_log": None,
}

TAGGER_COUNTERS = {
    "train": lambda a, r: {"steps": a[2]},
    "predict": lambda a, r: {"sentences": len(a[1]), "tokens": sum(len(w) for w in a[1])},
    "snapshot": lambda a, r: {"bytes": len(r)},
    "restore": None,
}


class Tracer:
    def __init__(self):
        # (span id, parent id, run id, name, start, end)
        self.spans: list[tuple[int, int | None, int, str, float, float]] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.run_id = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []
        # span id -> seconds spent counting its children's calls
        self.counter_time: dict[int, float] = defaultdict(float)
        self.names: set[str] = set()

    def span(self, name: str, fn, counters=None):
        """Wrap ``fn`` so each call records a span named ``name``."""
        self.names.add(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((span_id, parent, self.run_id, name, start, end))
            counting = time.perf_counter()
            counts = self.counts[self.run_id]
            counts[f"{name}.calls"] += 1
            if counters is not None:
                for key, value in counters(args, result).items():
                    counts[f"{name}.{key}"] += value
            if parent is not None:
                self.counter_time[parent] += time.perf_counter() - counting
            return result

        return wrapper

    def _patch(self, owner, attr: str, name: str, counters) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.span(name, original, counters))

    def install(self) -> None:
        for attr, counters in PIPELINE_COUNTERS.items():
            module = getattr(pipeline, attr).__module__.rsplit(".", 1)[-1]
            self._patch(pipeline, attr, f"{module}.{attr}", counters)
        self._patch(selftrain, "entity_f1", "metrics.entity_f1", None)
        for attr, counters in TAGGER_COUNTERS.items():
            self._patch(AveragedPerceptronTagger, attr, f"perceptron.{attr}", counters)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times(self, run_id: int) -> dict[str, float]:
        """Sum of self time per span name within one run, and the run's
        counting time under ``COUNTERS``."""
        spans = [s for s in self.spans if s[2] == run_id]
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, _, start, end in spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for span_id, _, _, name, start, end in spans:
            counting = self.counter_time.get(span_id, 0.0)
            out[name] += (end - start) - child_time[span_id] - counting
            out[COUNTERS] += counting
        return out

    def dump(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, run_id, name, start, end in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "run": run_id,
                    "name": name, "start": start, "end": end,
                }) + "\n")
