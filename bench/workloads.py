"""The three workloads: set-up, one measured round, and the output checks.

Each workload drives ``hiersum.cli.main`` with the flags a user would pass.
A round is one CLI call, after a fresh set-up that writes the same files
from the same seed. Every round of a run repeats the same call on the same
inputs (summarize-long cycles through its videos, which all have the same
length), so the first output of each kind gets the full checks and every
later one must be byte-identical to it.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math

import numpy as np

import inputs
import reference

HIDDEN = 64
BUDGET = 0.15

TRAIN_CV = {"videos": 10, "frames": 200, "dim": 16, "episodes": 10, "epochs": 2, "folds": 5}
SUMMARIZE_LONG = {"videos": 3, "frames": 1600, "dim": 1024}
EVALUATE_CV = {"videos": 50, "min_frames": 200, "max_frames": 400, "dim": 1024, "folds": 5}


def _digest(paths):
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _program_seed(rng):
    """The training seed is drawn like any other input, never the benchmark seed itself."""
    return str(int(rng.integers(2**31 - 1)))


def _train_argv(manifest, out, seed, *extra):
    return [
        "train", "--dataset", str(manifest), "--out", str(out), "--hidden", str(HIDDEN),
        "--subtask-size", str(inputs.SUBTASK_SIZE), "--seed", seed, *extra,
    ]  # fmt: skip


class TrainCV:
    """hiersum train with 5-fold cross-validation at the T=200, D=16, H=64 shape."""

    name = "train-cv"

    def __init__(self, size=TRAIN_CV):
        self.size = size
        self.first = None  # digest of the first run's files

    @staticmethod
    def headline(per_video_s):
        return "train_video_epochs_per_s", "1/s", 1.0 / per_video_s

    def setup(self, work, rng, cli):
        s = self.size
        self.manifest = inputs.write_dataset(work / "data", rng, [s["frames"]] * s["videos"], s["dim"])
        self.seed = _program_seed(rng)
        self.init_dir = work / "init"
        return cli(_train_argv(self.manifest, self.init_dir, self.seed, "--epochs", "0", "--no-cv"))

    def round(self, work, k, cli):
        s = self.size
        out = work / f"run{k}"
        code, seconds = cli(_train_argv(
            self.manifest, out, self.seed, "--folds", str(s["folds"]),
            "--epochs", str(s["epochs"]), "--episodes", str(s["episodes"]),
        ))  # fmt: skip
        # every video is held out once, so each trains in folds - 1 folds
        video_epochs = s["videos"] * (s["folds"] - 1) * s["epochs"]
        return code, seconds, s["folds"], video_epochs

    def check(self, work, k):
        out = work / f"run{k}"
        digest = _digest(p for p in out.iterdir() if p.is_file())
        if self.first is not None:
            return [] if digest == self.first else [f"run {k} differs from the first run"]
        self.first = digest
        return self._check_run(out)

    def _check_run(self, out):
        from hiersum.policy import init_policy  # importable once run.import_cli has run

        s = self.size
        errors = []
        files = inputs.video_files(self.manifest)
        with open(out / "folds.json", encoding="utf-8") as fh:
            folds = json.load(fh)["folds"]
        held_out = sorted(v for fold in folds for v in fold)
        if len(folds) != s["folds"] or held_out != sorted(files):
            errors.append("folds.json held-out lists do not partition the video ids")
        layout = init_policy(s["dim"], HIDDEN, np.random.default_rng(0))
        shapes = {name: layout[name].shape for name in layout.names()}
        data = {
            vid: (inputs.read_features(f), inputs.window_labels(inputs.mean_scores(a), inputs.SUBTASK_SIZE))
            for vid, (f, a) in files.items()
        }
        initial, _ = reference.read_checkpoint(self.init_dir / "fold0.ckpt")
        for k, fold in enumerate(folds):
            params, _ = reference.read_checkpoint(out / f"fold{k}.ckpt")
            if {n: p.shape for n, p in params.items()} != shapes:
                errors.append(f"fold {k}: checkpoint names or shapes differ from init_policy")
                continue
            if not all(np.isfinite(p).all() for p in params.values()):
                errors.append(f"fold {k}: checkpoint holds non-finite parameters")
            errors += _check_log(out / f"train_fold{k}.jsonl", s["epochs"], k)
            train_ids = [v for v in files if v not in fold]
            before = np.mean([reference.manager_bce(initial, *data[v], inputs.SUBTASK_SIZE) for v in train_ids])
            after = np.mean([reference.manager_bce(params, *data[v], inputs.SUBTASK_SIZE) for v in train_ids])
            if not after < before:
                errors.append(f"fold {k}: Manager BCE {after:.4f} after training, {before:.4f} before")
        return errors


def _check_log(path, epochs, k):
    with open(path, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh]
    if [(e["epoch"], e["phase"]) for e in lines] != [
        (epoch, phase) for epoch in range(epochs) for phase in ("manager", "worker")
    ]:
        return [f"fold {k}: log does not hold a manager and a worker line per epoch"]
    errors = []
    for e in lines:
        if e["phase"] == "manager" and not e["L_m"] > 0:
            errors.append(f"fold {k} epoch {e['epoch']}: L_m {e['L_m']} is not > 0")
        if e["phase"] == "worker" and not (
            0 <= e["R_d"] <= 2 and 0 < e["R_rep"] <= 1 and 0 < e["R_sub"] <= 1
        ):
            errors.append(f"fold {k} epoch {e['epoch']}: reward out of range {e}")
    return errors


class SummarizeLong:
    """hiersum summarize --scores-out on ~13-minute videos (T=1600 at 2 fps, D=1024)."""

    name = "summarize-long"

    def __init__(self, size=SUMMARIZE_LONG):
        self.size = size
        self.partitions = []
        self.first = {}  # video id -> digest of its first outputs and partition

    def setup(self, work, rng, cli):
        s = self.size
        self.manifest = inputs.write_dataset(work / "data", rng, [s["frames"]] * s["videos"], s["dim"])
        self.files = inputs.video_files(self.manifest)
        self.ids = sorted(self.files)
        self.model = work / "model" / "fold0.ckpt"
        return cli(_train_argv(self.manifest, self.model.parent, _program_seed(rng), "--epochs", "0", "--no-cv"))

    @staticmethod
    def headline(per_video_s):
        return "summarize_s", "s", per_video_s

    def patches(self):
        return [("hiersum.summarize", "kts_segment", self.capture)]

    def capture(self, kts_segment):
        """Record each partition the program makes; its summary names shots only by index."""

        @functools.wraps(kts_segment)
        def recorded(*args, **kwargs):
            partition = kts_segment(*args, **kwargs)
            self.partitions.append(partition.shots)
            return partition

        return recorded

    def round(self, work, k, cli):
        vid = self.ids[k % len(self.ids)]
        self.partitions.clear()
        code, seconds = cli([
            "summarize", "--model", str(self.model), "--video", str(self.files[vid][0]),
            "--budget", str(BUDGET), "--out", str(work / "summary.json"),
            "--scores-out", str(work / "scores.json"),
        ])  # fmt: skip
        return code, seconds, 1, 1

    def check(self, work, k):
        vid = self.ids[k % len(self.ids)]
        outputs = [work / "summary.json", work / "scores.json"]
        digest = (_digest(outputs), tuple(self.partitions))
        if vid in self.first:
            return [] if digest == self.first[vid] else [f"round {k} on {vid} differs from its first round"]
        self.first[vid] = digest
        for path in outputs:
            path.rename(work / f"{vid}-{path.name}")
        return self._check_video(work, vid, self.partitions[0] if len(self.partitions) == 1 else None)

    def _check_video(self, work, vid, shots):
        if shots is None:
            return [f"{vid}: expected exactly one segmentation per summarize call"]
        feats = inputs.read_features(self.files[vid][0])
        frames = feats.shape[0]
        with open(work / f"{vid}-summary.json", encoding="utf-8") as fh:
            summary = json.load(fh)
        with open(work / f"{vid}-scores.json", encoding="utf-8") as fh:
            scores = np.asarray(json.load(fh)["scores"])
        params, meta = reference.read_checkpoint(self.model)
        errors = []
        gap = np.abs(scores - reference.frame_scores(params, feats, meta["subtask_size"])).max()
        if not gap <= 1e-9:
            errors.append(f"{vid}: dumped scores differ from the reference forward pass by {gap:.3g}")
        starts = [a for a, _ in shots]
        ends = [b for _, b in shots]
        if starts[0] != 0 or ends[-1] != frames or starts[1:] != ends[:-1] or any(a >= b for a, b in shots):
            errors.append(f"{vid}: shots do not tile [0, {frames})")
            return errors
        capacity = math.floor(BUDGET * frames + 1e-9)
        mask = np.asarray(summary["frame_mask"])
        chosen = summary["selected_shots"]
        expected = np.zeros(frames, dtype=int)
        for i in chosen:
            expected[shots[i][0] : shots[i][1]] = 1
        if mask.sum() > capacity or not np.array_equal(mask, expected):
            errors.append(f"{vid}: frame mask is not the selected shots within {capacity} frames")
        means = [scores[a:b].mean() for a, b in shots]
        optimum = reference.knapsack_optimum(means, [b - a for a, b in shots], capacity)
        value = sum(means[i] for i in chosen)
        if not abs(value - optimum) <= 1e-9:
            errors.append(f"{vid}: summary value {value} but the knapsack optimum is {optimum}")
        total = sum(reference.shot_cost(feats, a, b) for a, b in shots)
        drop = reference.worst_boundary_shift(feats, shots)
        if drop > 1e-9 * total:
            errors.append(f"{vid}: moving a change point by one frame lowers the cost by {drop:.3g}")
        return errors


class EvaluateCV:
    """hiersum evaluate over a 5-fold run on ~50 TVSum-sized videos at D=1024."""

    name = "evaluate-cv"

    def __init__(self, size=EVALUATE_CV):
        self.size = size
        self.first = None  # bytes of the first report

    def setup(self, work, rng, cli):
        s = self.size
        # a fixed set of lengths, shuffled by the seed, so every seed does the same work
        lengths = rng.permutation(np.linspace(s["min_frames"], s["max_frames"], s["videos"]).round().astype(int))
        self.manifest = inputs.write_dataset(work / "data", rng, lengths.tolist(), s["dim"])
        self.run_dir = work / "run"
        return cli(_train_argv(
            self.manifest, self.run_dir, _program_seed(rng), "--epochs", "0", "--folds", str(s["folds"]),
        ))  # fmt: skip

    @staticmethod
    def headline(per_video_s):
        return "evaluate_videos_per_s", "1/s", 1.0 / per_video_s

    def round(self, work, k, cli):
        code, seconds = cli([
            "evaluate", "--run", str(self.run_dir), "--dataset", str(self.manifest), "--metric", "all",
            "--budget", str(BUDGET), "--out", str(work / f"report{k}.json"),
        ])  # fmt: skip
        return code, seconds, self.size["videos"], self.size["videos"]

    def check(self, work, k):
        path = work / f"report{k}.json"
        if self.first is not None:
            return [] if path.read_bytes() == self.first else [f"report {k} differs from the first report"]
        self.first = path.read_bytes()
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        with open(self.run_dir / "folds.json", encoding="utf-8") as fh:
            folds = json.load(fh)["folds"]
        files = inputs.video_files(self.manifest)
        errors = []
        if len(report["per_fold"]) != len(folds):
            return [f"report has {len(report['per_fold'])} folds, the run has {len(folds)}"]
        for k, (entry, fold) in enumerate(zip(report["per_fold"], folds)):
            if entry["num_videos"] != len(fold) or not 0.0 <= entry["F"] <= 1.0:
                errors.append(f"fold {k}: {entry['num_videos']} videos, F {entry['F']}")
            params, meta = reference.read_checkpoint(self.run_dir / f"fold{k}.ckpt")
            taus, rhos = [], []
            for vid in fold:
                feats_path, ann_path = files[vid]
                pred = reference.frame_scores(params, inputs.read_features(feats_path), meta["subtask_size"])
                truth = inputs.mean_scores(ann_path)
                taus.append(reference.kendall_tau(pred, truth))
                rhos.append(reference.spearman_rho(pred, truth))
            for key, values in (("tau", taus), ("rho", rhos)):
                if not abs(entry[key] - np.mean(values)) <= 1e-9:
                    errors.append(f"fold {k}: {key} {entry[key]} but scipy gives {np.mean(values)}")
        return errors


WORKLOADS = {w.name: w for w in (TrainCV, SummarizeLong, EvaluateCV)}
