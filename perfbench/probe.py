"""Measurements that need a fresh interpreter, run from the repository root.

    python3 perfbench/probe.py setup CONFIG
        Seconds from interpreter start-up to the first read of input data:
        import the CLI, load_config, build_question_set, load_stopwords.
    python3 perfbench/probe.py rss SPEC.json
        Run the workload's call once and report the process's peak RSS.

Prints one JSON object.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import re  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def setup(config_path: str) -> dict:
    sys.path.insert(0, "src")
    import askner.cli  # noqa: F401  (what every CLI run imports)
    from askner.config import load_config
    from askner.normalizer import load_stopwords
    from askner.querygen import build_question_set

    config = load_config(config_path)
    build_question_set(config.types, config.template, config.default_k_l, config.default_rules)
    load_stopwords(config.stopwords_path)
    return {"setup_s": time.perf_counter() - START}


def rss(spec_path: str) -> dict:
    sys.path[:0] = ["src", str(Path(__file__).resolve().parent)]
    from workloads import call_from_spec

    call_from_spec(json.loads(Path(spec_path).read_text(encoding="utf-8")))
    # VmHWM, not ru_maxrss: a child keeps its parent's ru_maxrss across
    # fork and exec, so a large parent would hide the child's own peak
    status = Path("/proc/self/status").read_text(encoding="ascii")
    return {"peak_rss_mb": int(re.search(r"^VmHWM:\s+(\d+) kB", status, re.M)[1]) / 1024}


if __name__ == "__main__":
    kind, arg = sys.argv[1:3]
    print(json.dumps({"setup": setup, "rss": rss}[kind](arg)))
