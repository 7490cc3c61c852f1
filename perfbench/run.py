"""askner benchmark: run one workload, check its outputs, print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload gen-dense --seed 1 --seconds 18 --trace 0

``--workload all`` runs every workload in turn. With ``--trace 0`` the
metrics are the end-to-end ones in BENCHMARK.json; with ``--trace 1`` the
calls are traced (see ``tracing.py``) and the metrics are the per-module
ones. Each metric is printed as a line ``workload metric value unit``; the
last line of output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 0 only when every call
succeeded and passed its output check. Work files go under ``.perfbench/``
and are removed at the end; traced runs leave their spans in
``.perfbench/traces/``.

The shared host's speed drifts by up to a fifth over tens of seconds, and
CPU time drifts with it, so a run's raw median moves with the minute it
ran in. A fixed piece of reference work therefore runs before every timed
call, and each call's CPU time is scaled by how much faster or slower that
work ran nearby than ``REFERENCE_S``; time the call spent off the CPU
(waiting on the stub) is kept as measured. The raw readings go to standard
error.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK_ROOT = ROOT / ".perfbench"

# Timed calls per run at least, however long they take; run length is
# otherwise --seconds.
MIN_CALLS = 5
# Fresh interpreters started per run for setup_s; the median is reported.
SETUP_PROBES = 21
PROBE_TIMEOUT_S = 120
# CPU seconds reference_work() takes at the host speed calls are scaled to
REFERENCE_S = 0.08
# A call's host speed is the median of the reference_work() runs that start
# within this many seconds of the call: one 80 ms run is itself noisy, and
# the host's speed changes little within a few seconds.
REFERENCE_WINDOW_S = 3.0


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


_WORDS = tuple("w%d" % (i * 7919 % 10007) for i in range(10007))


def reference_work() -> float:
    """CPU seconds taken by a fixed mix of dict, string and sort work.

    It allocates only short-lived objects, so the heap a workload leaves
    behind does not change how many pages it faults in.
    """
    gc.collect()
    start = time.process_time()
    counts = dict.fromkeys(_WORDS, 0)
    for _ in range(16):
        for word in _WORDS:
            counts[word] += len(word.upper())
        sorted(_WORDS, key=str.lower)
    return time.process_time() - start


class Run:
    """One workload's calls, with their failures counted."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def call(self, wrap=None) -> tuple[float, float] | None:
        """Make one call and check it; its wall and CPU time, or None if
        it failed."""
        from workloads import CheckFailed

        self.attempted += 1
        gc.collect()
        call = wrap(self.workload.call) if wrap else self.workload.call
        try:
            start, start_cpu = time.perf_counter(), time.process_time()
            outcome = call()
            elapsed = time.perf_counter() - start, time.process_time() - start_cpu
            self.workload.check(outcome)
        except CheckFailed as e:
            _log(f"check failed: {e}")
        except Exception:
            _log(traceback.format_exc())
        else:
            return elapsed
        self.failed += 1
        return None

    def probe(self, kind: str, arg: Path) -> dict | None:
        """Run ``probe.py`` in a fresh interpreter; its result, or None."""
        self.attempted += 1
        try:
            done = subprocess.run(
                [sys.executable, str(HERE / "probe.py"), kind, str(arg)],
                capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
            )
            if done.returncode == 0:
                return json.loads(done.stdout.splitlines()[-1])
            _log(f"probe {kind} failed:\n{done.stderr}")
        except (subprocess.TimeoutExpired, ValueError, IndexError) as e:
            _log(f"probe {kind} failed: {e}")
        self.failed += 1
        return None


def _tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least one sample beyond it (nearest
    rank), and its value."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 2:
        return 100.0, ordered[-1]
    return 100.0 * (n - 1) / n, ordered[n - 2]


def _scale(calls: list[tuple[float, float, float]],
           references: list[tuple[float, float]]) -> list[float]:
    """Each call's time with its CPU part scaled to the host speed at which
    reference_work() takes REFERENCE_S; calls and references are (start,
    wall, cpu) and (start, cpu) readings."""
    scaled = []
    for start, wall, cpu in calls:
        near = [ref for at, ref in references
                if start - REFERENCE_WINDOW_S <= at <= start + wall + REFERENCE_WINDOW_S]
        slowdown = statistics.median(near) / REFERENCE_S
        scaled.append(wall - cpu + cpu / slowdown)
    return scaled


def measure(run: Run, seconds: float) -> dict:
    wl = run.workload
    run.call()  # warm-up; its outputs become the reference
    calls, references = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(calls) < MIN_CALLS:
        references.append((time.perf_counter(), reference_work()))
        called = time.perf_counter()
        timed = run.call()
        if timed is not None:
            calls.append((called, *timed))
        elif run.failed > run.attempted // 2:
            break
    references.append((time.perf_counter(), reference_work()))
    spec = wl.work / "probe_spec.json"
    spec.write_text(json.dumps(dict(wl.spec, out=str(wl.work / "probe_out"))), encoding="utf-8")
    rss = run.probe("rss", spec)
    setups = [run.probe("setup", Path(wl.spec["config"])) for _ in range(SETUP_PROBES)]
    setups = [s["setup_s"] for s in setups if s]
    if not calls or rss is None or not setups:
        return {}
    walls = _scale(calls, references)
    wall = statistics.median(walls)
    pct, tail = _tail(walls)
    _log(f"{wl.name}: wall_tail_s is p{pct:.0f} of {len(walls)} timed calls")
    _log(f"{wl.name}: raw wall_s {statistics.median(c[1] for c in calls):.4f}, median "
         f"reference_work {statistics.median(r for _, r in references):.4f} s "
         f"against {REFERENCE_S} s")
    _log(f"{wl.name}: per call [start, wall, cpu]: " + json.dumps(
        [[round(t - start, 4), w, c] for t, w, c in calls]))
    _log(f"{wl.name}: reference_work [start, cpu]: " + json.dumps(
        [[round(t - start, 4), r] for t, r in references]))
    return {
        "wall_s": wall,
        "wall_tail_s": tail,
        "sentences_per_s": wl.sentences / wall,
        "peak_rss_mb": rss["peak_rss_mb"],
        "setup_s": statistics.median(setups),
        "f1": wl.f1,
        "ok_frac": 1 - run.failed / run.attempted,
    }


def trace(run: Run, seconds: float, trace_path: Path) -> dict:
    """Alternate untraced and traced calls; per-module numbers are means
    per traced call."""
    from askner import pipeline
    from askner.config import load_config
    from tracing import Tracer

    wl = run.workload
    tracer = Tracer()
    cmd = f"pipeline.{wl.command}"
    stats = getattr(wl, "stats", None)

    def setup():
        config = tracer.span("config.load_config", load_config)(wl.spec["config"])
        pipeline.build_question_set(
            config.types, config.template, config.default_k_l, config.default_rules)
        pipeline.load_stopwords(config.stopwords_path)

    run.call()  # warm-up; its outputs become the reference
    plain, traced, requests = [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(traced) < MIN_CALLS:
        timed = run.call()
        if timed is not None:
            plain.append(timed[0])
        tracer.run_id += 1
        before = stats()["requests"] if stats else 0
        tracer.install()
        try:
            tracer.span("bench.setup", setup)()
            timed = run.call(lambda fn: tracer.span(cmd, fn))
        finally:
            tracer.uninstall()
        if timed is not None:
            traced.append(tracer.run_id)
            requests.append((stats()["requests"] if stats else 0) - before)
        if run.failed > run.attempted // 2:
            break
    tracer.dump(trace_path)
    if not traced or not plain:
        return {}

    values = {f"{name}{suffix}": 0.0 for name in tracer.names for suffix in ("_s", ".calls")}
    for run_id in traced:
        for name, self_s in tracer.self_times(run_id).items():
            values[f"{name}_s"] = values.get(f"{name}_s", 0.0) + self_s / len(traced)
        for name, count in tracer.counts[run_id].items():
            values[name] = values.get(name, 0.0) + count / len(traced)

    def durations(span_name):
        return [end - begin for _, _, run_id, name, begin, end in tracer.spans
                if name == span_name and run_id in traced]

    walls = durations(cmd)
    loaded = values.get("retrieval.load_corpus.sentences", 0.0)
    fetches = values.get("retrieval.fetch_remote.calls", 0.0)
    values.update({
        "retrieval.corpus_kept_ratio":
            values.get("annotator.emit_bio.sentences", 0.0) / loaded if loaded else 0.0,
        "retrieval.fetch_remote.requests": statistics.mean(requests) if fetches else 0.0,
        "retrieval.fetch_remote.retries":
            statistics.mean(requests) - fetches if fetches else 0.0,
        "trace.wall_s": statistics.mean(walls),
        "trace.untraced_wall_s": statistics.mean(plain),
        "trace.overhead_s": statistics.mean(walls) - statistics.mean(plain),
        "trace.remainder_s": values[f"{cmd}_s"],
        "trace.setup_s": statistics.mean(durations("bench.setup")),
        "trace.calls": float(len(traced)),
    })
    return values


def run_workload(name: str, seed: int, seconds: float, traced: bool, spec: dict) -> dict:
    from workloads import prepare

    work = WORK_ROOT / f"work-{os.getpid()}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    kind = "per_layer" if traced else "end_to_end"
    try:
        workload = prepare(name, work, seed)
        try:
            run = Run(workload)
            if traced:
                path = WORK_ROOT / "traces" / f"{name}-seed{seed}.jsonl"
                values = trace(run, seconds, path)
            else:
                values = measure(run, seconds)
        finally:
            workload.close()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = {}
    if values:
        for m in spec[kind]:
            value = values.get(m["name"])
            if value is None and traced and m["name"].rpartition(".")[0] + "_s" in values:
                value = 0.0  # a counter of a call this workload never makes
            if value is None or not math.isfinite(value):
                raise RuntimeError(f"{name}: no value for metric {m['name']}")
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = run.failed == 0 and bool(metrics)
    return {"correct": correct, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "askner" / "__init__.py").is_file() or not spec_path.is_file():
        _log("run.py: run from the repository root (needs src/askner and BENCHMARK.json)")
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import askner
    from workloads import WORKLOADS

    if not Path(askner.__file__).resolve().is_relative_to((ROOT / "src").resolve()):
        _log(f"run.py: imported askner from {askner.__file__}, not from src/")
        return 2

    parser = argparse.ArgumentParser(description="askner benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = result = run_workload(
            name, args.seed, args.seconds, bool(args.trace), spec)
        for metric, m in result["metrics"].items():
            print(f"{name}\t{metric}\t{m['value']:.6g}\t{m['unit']}")
        frac = result["failed"] / result["attempted"]
        print(f"{name}\tfailed_frac\t{frac:.6g}\t({result['failed']} of {result['attempted']})")

    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
