"""Command-line entry point: gen-synthetic, train, summarize, evaluate.

Exit codes: 0 on success, 1 on runtime failure (missing or malformed files,
mismatched models), 2 on usage errors (bad flags). Every command is
deterministic given its flags; all randomness derives from --seed. The
HIERSUM_LOG environment variable sets the logging level (DEBUG, INFO, ...).
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import math
import os
import sys
from pathlib import Path

from .data import (
    ConfigurationError,
    DEFAULT_KEYFRAME_FRACTION,
    ValidationError,
    check_finite_features,
    generate_synthetic,
    json_text,
    load_dataset,
    read_features,
    synthetic_video_bytes,
)
from .evaluation import METRIC_CHOICES, evaluate_run, save_report
from .kts import check_bytes, check_memory
from .nn import TrainingError, load_checkpoint
from .policy import DEFAULT_HIDDEN, check_checkpoint, greedy_scores
from .summarize import DEFAULT_BUDGET_FRACTION, make_summary, summary_to_json
from .training import TrainConfig, train_run


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hiersum",
        description="Weakly supervised video summarization: train, summarize, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-synthetic", help="write a synthetic dataset for desk-scale runs")
    gen.add_argument("--videos", type=int, default=20)
    gen.add_argument("--frames", type=int, default=200)
    gen.add_argument("--dim", type=int, default=16)
    gen.add_argument("--users", type=int, default=3)
    gen.add_argument("--keyframe-fraction", type=float, default=DEFAULT_KEYFRAME_FRACTION)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--name", default="synthetic")
    gen.add_argument("--out", required=True, help="output directory")

    tr = sub.add_parser("train", help="train fold checkpoints on a dataset manifest")
    tr.add_argument("--dataset", required=True, help="manifest path")
    tr.add_argument("--out", required=True, help="run directory")
    tr.add_argument("--subtask-size", type=int, default=20)
    tr.add_argument("--episodes", type=int, default=10, help="sampled episodes per video")
    tr.add_argument("--alpha", type=float, default=0.5)
    tr.add_argument("--epochs", type=int, default=60)
    tr.add_argument("--hidden", type=int, default=DEFAULT_HIDDEN)
    tr.add_argument("--lr", type=float, default=1e-3)
    tr.add_argument("--baseline-momentum", type=float, default=0.9)
    tr.add_argument("--folds", type=int, default=5)
    tr.add_argument("--no-cv", action="store_true", help="single fold trained on all videos")
    tr.add_argument("--seed", type=int, default=0)

    su = sub.add_parser("summarize", help="score one feature file and pick keyshots")
    su.add_argument("--model", required=True, help="checkpoint path")
    su.add_argument("--video", required=True, help="binary feature file")
    su.add_argument("--budget", type=float, default=DEFAULT_BUDGET_FRACTION)
    su.add_argument("--max-shots", type=int, default=None)
    su.add_argument("--penalty", type=float, default=1.0)
    su.add_argument("--out", default=None, help="summary JSON path (default: stdout)")
    su.add_argument("--scores-out", default=None, help="also dump raw frame scores")

    ev = sub.add_parser("evaluate", help="evaluate a training run on a dataset")
    ev.add_argument("--run", required=True, help="run directory from train")
    ev.add_argument("--dataset", required=True, help="manifest path")
    ev.add_argument("--metric", choices=METRIC_CHOICES, default="all")
    ev.add_argument("--budget", type=float, default=DEFAULT_BUDGET_FRACTION)
    ev.add_argument("--max-shots", type=int, default=None)
    ev.add_argument("--penalty", type=float, default=1.0)
    ev.add_argument("--out", default=None, help="report JSON path (default: stdout)")
    return parser


def _check_usage(parser, args):
    if args.command == "gen-synthetic":
        if min(args.videos, args.frames, args.dim, args.users) < 1:
            parser.error("--videos, --frames, --dim, --users must be >= 1")
        if not 0.0 < args.keyframe_fraction < 1.0:
            parser.error("--keyframe-fraction must be in (0, 1)")
        if args.seed < 0:
            parser.error("--seed must be >= 0")
    elif args.command == "train":
        args.config = TrainConfig(
            epochs=args.epochs,
            episodes=args.episodes,
            alpha=args.alpha,
            subtask_size=args.subtask_size,
            hidden=args.hidden,
            learning_rate=args.lr,
            baseline_momentum=args.baseline_momentum,
            seed=args.seed,
        )
        try:
            args.config.validate()
        except ValueError as exc:
            parser.error(str(exc))
        if args.folds < 2 and not args.no_cv:
            parser.error("--folds must be >= 2 (or pass --no-cv)")
    elif args.command in ("summarize", "evaluate"):
        if not 0.0 < args.budget <= 1.0:
            parser.error("--budget must be in (0, 1]")
        if args.max_shots is not None and args.max_shots < 1:
            parser.error("--max-shots must be >= 1")
        if not (math.isfinite(args.penalty) and args.penalty >= 0):
            parser.error("--penalty must be finite and >= 0")
        if args.command == "summarize" and args.out and args.scores_out:
            if Path(args.out).resolve() == Path(args.scores_out).resolve():
                parser.error("--out and --scores-out must name different files")


def cmd_gen_synthetic(args):
    check_bytes(  # before the output directory is made
        synthetic_video_bytes(args.frames, args.dim, args.users),
        f"--frames {args.frames}, --dim {args.dim}, --users {args.users}: one synthetic video",
    )
    manifest = generate_synthetic(
        args.out,
        args.seed,
        videos=args.videos,
        frames=args.frames,
        dims=args.dim,
        keyframe_fraction=args.keyframe_fraction,
        users=args.users,
        name=args.name,
    )
    print(manifest)
    return 0


def cmd_train(args):
    dataset = load_dataset(args.dataset)
    out = train_run(
        dataset,
        args.config,
        args.out,
        folds=args.folds,
        no_cv=args.no_cv,
        extra_config={"dataset_path": str(args.dataset)},
    )
    print(out)
    return 0


def cmd_summarize(args):
    store, meta = load_checkpoint(args.model)
    feats = read_features(args.video)
    check_finite_features(feats, args.video)
    check_checkpoint(args.model, store, meta, feats.shape[1], args.video)
    check_memory(*feats.shape, args.max_shots, args.video)
    scores = greedy_scores(store, [feats], meta["subtask_size"])[0]
    video_id = Path(args.video).stem
    summary = make_summary(
        feats,
        scores,
        budget_fraction=args.budget,
        max_shots=args.max_shots,
        penalty_weight=args.penalty,
    )
    # both documents are serialized before either file is opened
    text = json_text(summary_to_json(video_id, summary), args.out or "summary", sort_keys=True)
    files = []
    if args.scores_out:
        scores_doc = {"video_id": video_id, "scores": [float(s) for s in scores]}
        files.append((args.scores_out, json_text(scores_doc, args.scores_out)))
    if args.out:
        files.append((args.out, text))
    _write_together(files)
    if not args.out:
        sys.stdout.write(text)
    return 0


def _write_together(files):
    """Write each (path, text) to <path>.tmp, then move them all into place.

    No path is replaced before every file is written. On an error the
    temporaries, and any file already moved into place, are removed.
    """
    written, placed = [], []
    try:
        for path, text in files:
            tmp = f"{path}.tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                written.append(tmp)
                fh.write(text)
        for (path, _), tmp in zip(files, written):
            os.replace(tmp, path)
            placed.append(path)
    except BaseException:
        for leftover in written[len(placed) :] + placed:
            with contextlib.suppress(OSError):
                os.remove(leftover)
        raise


def cmd_evaluate(args):
    dataset = load_dataset(args.dataset)
    report = evaluate_run(
        args.run,
        dataset,
        metric=args.metric,
        budget_fraction=args.budget,
        max_shots=args.max_shots,
        penalty_weight=args.penalty,
    )
    if args.out:
        save_report(args.out, report)
    else:
        sys.stdout.write(json_text(report, "report", indent=2, sort_keys=True))
    return 0


_COMMANDS = {
    "gen-synthetic": cmd_gen_synthetic,
    "train": cmd_train,
    "summarize": cmd_summarize,
    "evaluate": cmd_evaluate,
}


def main(argv=None):
    level = getattr(logging, os.environ.get("HIERSUM_LOG", "WARNING").upper(), None)
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING)
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_usage(parser, args)
    try:
        return _COMMANDS[args.command](args)
    except (ValidationError, ConfigurationError, TrainingError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
