"""Command-line interface.

One pipeline run per process invocation. Exit codes: 0 success, 1 for
configuration/argument problems, 2 for malformed input data, 3 for violated
internal invariants, 130 when interrupted (Ctrl-C). Logs go to stderr;
structured results go to files (and a short human summary to stdout).
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .config import load_config
from .errors import InternalInvariantError, PipelineError
from .pipeline import cmd_eval, cmd_generate, cmd_judge_stats, cmd_retrieve, cmd_selftrain


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="askner",
        description="Generate weakly labeled NER datasets from type-question retrieval.",
    )
    parser.add_argument("-q", "--quiet", action="store_true", help="only warnings and errors")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="produce the labeled dataset and dictionary")
    p.add_argument("--config", required=True, type=Path)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", type=Path, default=None, help="output directory")

    p = sub.add_parser("retrieve", help="query retrieval and write a replay results file")
    p.add_argument("--config", required=True, type=Path)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--endpoint", default=None, help="retrieval service URL")
    p.add_argument("--top-n", type=int, default=None, help="results per question")
    p.add_argument("--out", type=Path, default=None, help="results file to write")

    p = sub.add_parser("selftrain", help="refine labels by teacher-student training")
    p.add_argument("--config", required=True, type=Path)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--dataset", type=Path, default=None,
                   help="generated CoNLL dataset (default: <output_dir>/dataset.conll)")
    p.add_argument("--validation", required=True, type=Path, help="gold CoNLL validation file")
    p.add_argument("--unlabeled", type=Path, default=None,
                   help="JSONL corpus to pseudo-label (default: the dataset itself)")
    p.add_argument("--out", type=Path, default=None, help="output directory")

    p = sub.add_parser("eval", help="entity-level F1 between two CoNLL files")
    p.add_argument("gold", type=Path)
    p.add_argument("pred", type=Path)
    p.add_argument("--out", type=Path, default=None, help="write the report as JSON")

    p = sub.add_parser("judge-stats", help="precision-at-k and diversity from judgments")
    p.add_argument("--results", required=True, type=Path)
    p.add_argument("--judgments", required=True, type=Path)
    p.add_argument("--k", type=int, default=100)
    p.add_argument("--out", type=Path, default=None, help="write the stats as JSON")
    return parser


def _run(args: argparse.Namespace) -> None:
    if args.command == "generate":
        config = load_config(args.config, seed_override=args.seed)
        result = cmd_generate(config, out=args.out)
        print(f"dataset: {result.dataset_path}")
        print(f"dictionary: {result.dictionary_path}")
        print(f"manifest: {result.manifest_path}")
        print(
            f"sentences={result.counts['labeled_sentences']} "
            f"entities={result.counts['entities']} "
            f"dictionary_entries={result.counts['dictionary_entries']}"
        )
    elif args.command == "retrieve":
        config = load_config(args.config, seed_override=args.seed)
        path = cmd_retrieve(config, endpoint=args.endpoint, top_n=args.top_n, out=args.out)
        print(f"results: {path}")
    elif args.command == "selftrain":
        config = load_config(args.config, seed_override=args.seed)
        dataset = args.dataset or (config.output_dir / "dataset.conll")
        outcome = cmd_selftrain(
            dataset, args.validation, config, out=args.out,
            unlabeled_path=args.unlabeled,
        )
        print(f"checkpoint: {outcome.checkpoint_path}")
        print(f"training log: {outcome.log_path}")
        print(
            f"teacher_f1={outcome.teacher_f1:.4f} "
            f"best_round={outcome.best_round} best_f1={outcome.best_f1:.4f}"
        )
    elif args.command == "eval":
        report = cmd_eval(args.gold, args.pred, out=args.out)
        print(
            f"precision={report.precision:.4f} recall={report.recall:.4f} "
            f"f1={report.f1:.4f} (gold={report.gold} predicted={report.predicted} "
            f"correct={report.correct})"
        )
        for etype, s in sorted(report.per_type.items()):
            print(
                f"  {etype}: precision={s.precision:.4f} recall={s.recall:.4f} "
                f"f1={s.f1:.4f} (gold={s.gold} predicted={s.predicted})"
            )
    elif args.command == "judge-stats":
        doc = cmd_judge_stats(args.results, args.judgments, args.k, out=args.out)
        for qid, row in sorted(doc["per_question"].items()):
            print(
                f"{qid}: precision@{doc['k']}={row['precision_at_k']:.4f} "
                f"diversity={row['diversity']} results={row['results']}"
            )
        print(f"macro precision@{doc['k']}={doc['macro_precision_at_k']:.4f}")
    else:  # pragma: no cover - argparse enforces the choices
        raise InternalInvariantError(f"unhandled command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        _run(args)
    except PipelineError as e:
        logging.getLogger("askner").error("%s", e)
        return e.exit_code
    except KeyboardInterrupt:
        logging.getLogger("askner").error("interrupted")
        return 130
    return 0


if __name__ == "__main__":
    sys.exit(main())
