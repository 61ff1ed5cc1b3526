"""Spans and counts recorded around hiersum's layers, from outside the program.

Each traced function is replaced, for the length of a traced round, at the
module attribute its caller looks it up through (for example
``hiersum.training.manager_forward``, which the training loop calls, and
``hiersum.policy.manager_forward``, which ``greedy_scores`` calls). A span
holds (name, start, end, parent, phase); spans stay in memory and are
written out when the run ends. A layer's self time is its span time minus
the time of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from time import perf_counter


def _lstm_steps(counts, args, result):
    counts["lstm_steps"] += len(args["features"])


def _adam_step(counts, args, result):
    counts["adam_steps"] += 1


def _worker_update(counts, args, result):
    counts["worker_updates"] += 1


def _worker_epoch(counts, args, result):
    counts["worker_videos"] += len(args["videos"])


def _episode(counts, args, result):
    counts["episodes"] += 1


def _kts(counts, args, result):
    frames = len(args["features"])
    max_shots = args.get("max_shots")
    max_shots = max(1, min(frames // 10 if max_shots is None else int(max_shots), frames))
    counts["dp_cells"] += (max_shots - 1) * (frames + 1) ** 2
    counts["shots"] += len(result.shots)


def _knapsack(counts, args, result):
    counts["knapsack_cells"] += len(args["values"]) * (int(args["capacity"]) + 1)


# (module or class, attribute the caller uses, span name, counter)
TARGETS = [
    ("hiersum.cli", "load_dataset", "data.load_dataset", None),
    ("hiersum.cli", "read_features", "data.read_features", None),
    ("hiersum.nn:Adam", "step", "nn.adam_step", _adam_step),
    ("hiersum.training", "save_checkpoint", "nn.save_checkpoint", None),
    ("hiersum.cli", "load_checkpoint", "nn.load_checkpoint", None),
    ("hiersum.evaluation", "load_checkpoint", "nn.load_checkpoint", None),
    ("hiersum.training", "manager_forward", "policy.manager_forward", _lstm_steps),
    ("hiersum.policy", "manager_forward", "policy.manager_forward", _lstm_steps),
    ("hiersum.training", "worker_forward", "policy.worker_forward", _lstm_steps),
    ("hiersum.policy", "worker_forward", "policy.worker_forward", _lstm_steps),
    ("hiersum.policy", "manager_backward", "policy.manager_backward", None),
    ("hiersum.training", "worker_backward", "policy.worker_backward", _worker_update),
    ("hiersum.training", "sample_actions", "policy.sample_actions", None),
    ("hiersum.training", "episode_reward", "rewards.episode_reward", _episode),
    ("hiersum.training", "sub_reward_score_grad", "rewards.sub_reward_grad", None),
    ("hiersum.training", "train_manager_epoch", "training.manager_epoch", None),
    ("hiersum.training", "train_worker_epoch", "training.worker_epoch", _worker_epoch),
    ("hiersum.kts", "segment_costs", "kts.segment_costs", None),
    ("hiersum.summarize", "kts_segment", "kts.kts_segment", _kts),
    ("hiersum.summarize", "knapsack_select", "summarize.knapsack", _knapsack),
    ("hiersum.evaluation", "kendall_tau", "evaluation.kendall_tau", None),
    ("hiersum.evaluation", "spearman_rho", "evaluation.spearman_rho", None),
    ("hiersum.evaluation", "video_f_for_mask", "evaluation.f_score", None),
    ("hiersum.evaluation", "evaluate_video", "evaluation.evaluate_video", None),
]

# per-layer metric -> span whose self time it sums, per traced round
SELF_TIMES = {
    "data.read_features_s": "data.read_features",
    "nn.adam_step_s": "nn.adam_step",
    "nn.save_checkpoint_s": "nn.save_checkpoint",
    "nn.load_checkpoint_s": "nn.load_checkpoint",
    "policy.manager_forward_s": "policy.manager_forward",
    "policy.worker_forward_s": "policy.worker_forward",
    "policy.manager_backward_s": "policy.manager_backward",
    "policy.worker_backward_s": "policy.worker_backward",
    "policy.sample_actions_s": "policy.sample_actions",
    "rewards.episode_reward_s": "rewards.episode_reward",
    "rewards.sub_reward_grad_s": "rewards.sub_reward_grad",
    "training.manager_epoch_self_s": "training.manager_epoch",
    "training.worker_epoch_self_s": "training.worker_epoch",
    "kts.segment_costs_s": "kts.segment_costs",
    "kts.dp_self_s": "kts.kts_segment",
    "summarize.knapsack_s": "summarize.knapsack",
    "evaluation.kendall_tau_s": "evaluation.kendall_tau",
    "evaluation.spearman_rho_s": "evaluation.spearman_rho",
    "evaluation.f_score_s": "evaluation.f_score",
    "evaluation.evaluate_video_self_s": "evaluation.evaluate_video",
    "cli.command_self_s": "cli.main",
}

# per-layer metric -> count, per traced round
COUNTS = {
    "nn.adam_steps": "adam_steps",
    "policy.lstm_steps": "lstm_steps",
    "rewards.episodes": "episodes",
    "kts.dp_cells": "dp_cells",
    "kts.shots": "shots",
    "summarize.knapsack_cells": "knapsack_cells",
}


def _resolve(owner):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


@contextmanager
def replaced(owner, attr, make):
    """Set owner.attr to make(original) for the duration of the block."""
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, phase]
        self.counts = defaultdict(lambda: defaultdict(int))  # phase -> name -> count
        self.phase = "setup"
        self.rounds = 0
        self._stack = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        self.spans.append([name, perf_counter(), None, self._stack[-1] if self._stack else None, self.phase])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = perf_counter()

    def wrap(self, name, counter, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                counter(self.counts[self.phase], signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    @contextmanager
    def installed(self, phase):
        """Trace every target for the length of the block, recording spans under phase."""
        self.phase = phase
        with ExitStack() as stack:
            for owner, attr, name, counter in TARGETS:
                stack.enter_context(replaced(_resolve(owner), attr, functools.partial(self.wrap, name, counter)))
            yield

    def layer_metrics(self):
        """Every per-layer metric, per traced round; 0 where the layer did not run.

        data.load_dataset_s is the median self time of one call instead, since
        on some workloads only set-up loads a dataset.
        """
        inner = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                inner[parent] += end - start
        times = defaultdict(float)
        loads = []
        for (name, start, end, _, phase), child in zip(self.spans, inner):
            if phase == "round":
                times[name] += end - start - child
            if name == "data.load_dataset":
                loads.append(end - start - child)
        rounds = max(self.rounds, 1)
        counts = self.counts["round"]
        metrics = {name: (times[span] / rounds, "s") for name, span in SELF_TIMES.items()}
        metrics.update({name: (counts[key] / rounds, "count") for name, key in COUNTS.items()})
        videos = counts["worker_videos"]
        metrics["training.worker_updates_per_video"] = (
            counts["worker_updates"] / videos if videos else 0.0,
            "ratio",
        )
        metrics["data.load_dataset_s"] = (statistics.median(loads) if loads else 0.0, "s")
        return metrics

    def write(self, path, extra):
        doc = dict(extra)
        doc["spans"] = self.spans
        doc["counts"] = {phase: dict(c) for phase, c in self.counts.items()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
