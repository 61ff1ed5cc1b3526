import collections
import json
import logging
import math
import re
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import rankdata

from hiersum.data import (
    ConfigurationError,
    Dataset,
    DatasetManifest,
    Video,
    VideoEntry,
    generate_synthetic,
    load_dataset,
    save_manifest,
    write_annotations,
    write_features,
)
from hiersum.nn import load_checkpoint, save_checkpoint
from hiersum.evaluation import (
    _TAU_BLOCK_ROWS,
    _average_ranks,
    METRIC_KEYS,
    evaluate_run,
    evaluate_video,
    f_score,
    f_score_multi,
    kendall_tau,
    load_run_folds,
    save_report,
    spearman_rho,
    video_truth_masks,
)
from hiersum import data, policy
from hiersum.policy import SCORE_BATCH, greedy_scores
from hiersum.seeding import substream
from hiersum.training import TrainConfig, checkpoint_meta, new_policy, train_run
from tests.conftest import traced_peak


def loop_kendall_tau(pred, truth):
    """Direct pair counting with the tie-corrected denominator."""
    n = len(pred)
    concordant = discordant = ties_p = ties_q = 0
    for i in range(n):
        for j in range(i + 1, n):
            dp = pred[j] - pred[i]
            dq = truth[j] - truth[i]
            if dp == 0:
                ties_p += 1
            if dq == 0:
                ties_q += 1
            if dp * dq > 0:
                concordant += 1
            elif dp * dq < 0:
                discordant += 1
    n0 = n * (n - 1) // 2
    return (concordant - discordant) / math.sqrt((n0 - ties_p) * (n0 - ties_q))


def average_ranks(values):
    n = len(values)
    ranks = []
    for v in values:
        smaller = sum(1 for u in values if u < v)
        equal = sum(1 for u in values if u == v)
        ranks.append(smaller + (equal + 1) / 2)
    return ranks


def loop_spearman_rho(pred, truth):
    ra = average_ranks(pred)
    rb = average_ranks(truth)
    ma = sum(ra) / len(ra)
    mb = sum(rb) / len(rb)
    da = [r - ma for r in ra]
    db = [r - mb for r in rb]
    num = sum(x * y for x, y in zip(da, db))
    return num / math.sqrt(sum(x * x for x in da) * sum(y * y for y in db))


def make_tiny_run(dataset, out_dir, folds=2):
    config = TrainConfig(
        epochs=1, episodes=2, subtask_size=10, hidden=6, seed=7
    )
    return train_run(dataset, config, out_dir, folds=folds)


# --- F score ----------------------------------------------------------------------


def test_f_score_identity_and_disjoint():
    mask = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
    assert f_score(mask, mask) == (1.0, 1.0, 1.0)
    other = np.array([0, 1, 0, 0, 1], dtype=np.uint8)
    assert f_score(mask, other) == (0.0, 0.0, 0.0)


def test_f_score_documented_case():
    truth = np.zeros(64, dtype=np.uint8)
    generated = np.zeros(64, dtype=np.uint8)
    truth[:20] = 1
    generated[15:25] = 1  # overlap 5
    precision, recall, f = f_score(truth, generated)
    assert precision == 0.25
    assert recall == 0.5
    assert f == 1.0 / 3.0


def test_f_score_swap_symmetry():
    rng = substream(81, "f")
    for _ in range(20):
        a = rng.integers(0, 2, size=30)
        b = rng.integers(0, 2, size=30)
        if a.sum() == 0 or b.sum() == 0:
            continue
        pa, ra, fa = f_score(a, b)
        pb, rb, fb = f_score(b, a)
        assert fa == fb  # F is symmetric in the two masks
        assert (pa, ra) == (rb, pb)  # precision and recall trade places


def test_f_score_empty_mask_warns():
    with pytest.warns(UserWarning, match="empty summary"):
        assert f_score(np.zeros(5), np.ones(5)) == (0.0, 0.0, 0.0)
    with pytest.warns(UserWarning, match="empty summary"):
        assert f_score(np.ones(5), np.zeros(5)) == (0.0, 0.0, 0.0)


def test_f_score_shape_check():
    with pytest.raises(ValueError, match="mask lengths differ"):
        f_score(np.ones(4), np.ones(5))


def test_f_score_multi_aggregation():
    rng = substream(82, "f")
    users = rng.integers(0, 2, size=(4, 30))
    users[:, 0] = 1  # no all-zero user rows
    generated = rng.integers(0, 2, size=30)
    generated[1] = 1
    per_user = [f_score(u, generated)[2] for u in users]
    assert f_score_multi(users, generated, "max") == max(per_user)
    assert f_score_multi(users, generated, "mean") == sum(per_user) / 4
    with pytest.raises(ValueError, match="mode"):
        f_score_multi(users, generated, "median")
    with pytest.raises(ValueError, match="at least one"):
        f_score_multi(np.zeros((0, 30)), generated, "max")


# --- Kendall tau ---------------------------------------------------------------------


def test_kendall_tau_extremes():
    x = np.array([3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5])
    assert kendall_tau(x, x) == 1.0
    assert kendall_tau(x, -x) == -1.0


def test_kendall_tau_matches_loop_oracle():
    rng = substream(83, "tau")
    for trial in range(1000):
        if trial % 2 == 0:
            p = rng.integers(0, 4, size=8).astype(np.float64)  # heavy ties
            q = rng.integers(0, 4, size=8).astype(np.float64)
        else:
            p = rng.random(8)
            q = rng.random(8)
        if np.all(p == p[0]) or np.all(q == q[0]):
            continue
        assert kendall_tau(p, q) == loop_kendall_tau(list(p), list(q))


@pytest.mark.parametrize(
    "n", [_TAU_BLOCK_ROWS, _TAU_BLOCK_ROWS + 1, _TAU_BLOCK_ROWS + 2, 2 * _TAU_BLOCK_ROWS + 1]
)
def test_kendall_tau_matches_loop_oracle_across_row_blocks(n):
    rng = substream(85, "tau", n)
    for ties in (False, True):
        if ties:
            p = rng.integers(0, 5, size=n).astype(np.float64)
            q = rng.integers(0, 5, size=n).astype(np.float64)
        else:
            p = rng.random(n)
            q = rng.random(n)
        assert kendall_tau(p, q) == loop_kendall_tau(list(p), list(q))


def test_kendall_tau_constant_warns():
    with pytest.warns(UserWarning, match="constant"):
        assert kendall_tau(np.ones(5), np.arange(5.0)) == 0.0


def test_kendall_tau_monotone_transform_invariant():
    rng = substream(84, "tau")
    for _ in range(50):
        p = rng.integers(0, 6, size=8).astype(np.float64)
        q = rng.integers(0, 6, size=8).astype(np.float64)
        if np.all(p == p[0]) or np.all(q == q[0]):
            continue
        assert kendall_tau(2.0 * p + 1.0, q) == kendall_tau(p, q)


def test_kendall_tau_validation():
    with pytest.raises(ValueError):
        kendall_tau(np.ones(3), np.ones(4))
    with pytest.raises(ValueError):
        kendall_tau(np.ones(1), np.ones(1))


# --- Spearman rho ---------------------------------------------------------------------


def test_average_ranks_match_rankdata():
    rng = substream(87, "ranks")
    for trial in range(200):
        n = int(rng.integers(2, 600))
        if trial % 2 == 0:
            v = rng.integers(0, max(2, n // 5), size=n).astype(np.float64)
        else:
            v = rng.random(n)
        assert np.array_equal(_average_ranks(v), rankdata(v, method="average"))
    for v in ([0.0, -0.0, 1.0], [2.0, 2.0, 2.0], [1.0, np.nan, 1.0]):
        v = np.array(v)
        assert np.array_equal(_average_ranks(v), rankdata(v, method="average"), equal_nan=True)


def test_spearman_rho_extremes():
    x = np.array([3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5])
    assert spearman_rho(x, x) == 1.0
    assert spearman_rho(x, -x) == -1.0


def test_spearman_rho_matches_loop_oracle():
    # length-8 average ranks are halves, their deviations quarters: every
    # partial sum is exact, so any summation order gives the same float
    rng = substream(85, "rho")
    for trial in range(1000):
        if trial % 2 == 0:
            p = rng.integers(0, 4, size=8).astype(np.float64)
            q = rng.integers(0, 4, size=8).astype(np.float64)
        else:
            p = rng.random(8)
            q = rng.random(8)
        if np.all(p == p[0]) or np.all(q == q[0]):
            continue
        got = spearman_rho(p, q)
        want = loop_spearman_rho(list(p), list(q))
        assert got == want


def test_spearman_rho_constant_warns():
    with pytest.warns(UserWarning, match="constant"):
        assert spearman_rho(np.ones(5), np.arange(5.0)) == 0.0


def test_spearman_rho_monotone_transform_invariant():
    rng = substream(86, "rho")
    for _ in range(50):
        p = rng.integers(0, 6, size=8).astype(np.float64)
        q = rng.integers(0, 6, size=8).astype(np.float64)
        if np.all(p == p[0]) or np.all(q == q[0]):
            continue
        assert spearman_rho(p**3, q) == spearman_rho(p, q)  # cubing keeps the ranks


# --- per-video evaluation ---------------------------------------------------------------


def test_video_truth_masks_fallback():
    video = Video("v", np.ones((3, 2)), np.array([[0.5, 0.5, 0.5]]), user_summaries=None)
    masks = video_truth_masks(video)
    assert masks.shape == (1, 3)
    assert masks[0].tolist() == [1, 0, 0]


def test_evaluate_video_fields(tiny_dataset):
    store = new_policy(6, TrainConfig(hidden=6, seed=3))
    video = tiny_dataset.videos[0].read()
    (scores,) = greedy_scores(store, [video.features], 10)
    result = evaluate_video(video, scores, METRIC_KEYS["all"], "max", budget_fraction=0.3)
    assert result["video_id"] == video.video_id
    assert 0.0 <= result["F"] <= 1.0
    assert -1.0 <= result["tau"] <= 1.0
    assert -1.0 <= result["rho"] <= 1.0
    for keys in (("F",), ("tau",), ("rho",)):
        only = evaluate_video(video, scores, keys, "max", budget_fraction=0.3)
        assert only == {"video_id": video.video_id, keys[0]: result[keys[0]]}


# --- run evaluation ----------------------------------------------------------------------


def test_evaluate_run_report(tiny_dataset, tmp_path):
    run = make_tiny_run(tiny_dataset, tmp_path / "run")
    report = evaluate_run(run, tiny_dataset)
    assert report["dataset"] == tiny_dataset.manifest.name
    assert report["setting"] == "canonical"
    assert report["labels_per_video"] == 4.0  # 40 frames / subtask size 10
    assert len(report["per_fold"]) == 2
    for k, entry in enumerate(report["per_fold"]):
        assert entry["fold"] == k
        assert entry["num_videos"] == 3
        for key in ("F", "tau", "rho"):
            assert key in entry
    assert report["mean_F"] == np.mean([e["F"] for e in report["per_fold"]])
    assert report["mean_tau"] == np.mean([e["tau"] for e in report["per_fold"]])
    assert report["mean_rho"] == np.mean([e["rho"] for e in report["per_fold"]])


def test_labels_per_video_counts_evaluated_videos_at_their_folds_subtask_size(tmp_path):
    # four 40-frame videos held out two per fold, and one 100-frame video that
    # folds.json does not list; fold 0's checkpoint has subtask size 10, fold 1's 8
    rng = substream(13, "labels")
    entries = []
    for i, frames in enumerate([40, 40, 40, 40, 100]):
        write_features(tmp_path / f"v{i}.vsf", rng.normal(size=(frames, 6)))
        write_annotations(tmp_path / f"v{i}.json", rng.uniform(size=(2, frames)))
        entries.append(VideoEntry(f"v{i}", f"v{i}.vsf", f"v{i}.json"))
    save_manifest(tmp_path / "manifest.json", DatasetManifest("labels", 6, entries))
    dataset = load_dataset(tmp_path / "manifest.json")
    run = tmp_path / "run"
    run.mkdir()
    (run / "folds.json").write_text(json.dumps({"setting": "canonical", "folds": [["v0", "v1"], ["v2", "v3"]]}))
    for k, subtask_size in enumerate([10, 8]):
        config = TrainConfig(subtask_size=subtask_size, hidden=4)
        save_checkpoint(run / f"fold{k}.ckpt", new_policy(6, config), checkpoint_meta(6, config))
    report = evaluate_run(run, dataset, metric="tau")
    assert [entry["num_videos"] for entry in report["per_fold"]] == [2, 2]
    assert report["labels_per_video"] == 4.5  # (4 + 4 + 5 + 5) / 4


@pytest.mark.filterwarnings("ignore:empty summary mask")  # no shot of a short video fits
def test_evaluate_run_fold_of_mixed_lengths_matches_per_video_scoring(tmp_path):
    # each fold scores its videos in one batched recurrence; the report must
    # equal scoring and evaluating every video on its own
    rng = substream(12, "mixed")
    lengths = [10, 19, 45, 20, 21, 130, 57, 12]
    entries = []
    for i, frames in enumerate(lengths):
        write_features(tmp_path / f"v{i}.vsf", rng.normal(size=(frames, 6)))
        write_annotations(tmp_path / f"v{i}.json", rng.uniform(size=(2, frames)))
        entries.append(VideoEntry(f"v{i}", f"v{i}.vsf", f"v{i}.json"))
    save_manifest(tmp_path / "manifest.json", DatasetManifest("mixed", 6, entries))
    dataset = load_dataset(tmp_path / "manifest.json")
    run = make_tiny_run(dataset, tmp_path / "run")
    report = evaluate_run(run, dataset, budget_fraction=0.3)
    with open(run / "folds.json", encoding="utf-8") as fh:
        folds = json.load(fh)["folds"]
    for k, video_ids in enumerate(folds):
        store, _ = load_checkpoint(run / f"fold{k}.ckpt")
        results = []
        for video_id in video_ids:
            video = dataset.by_id(video_id).read()
            (scores,) = greedy_scores(store, [video.features], 10)
            assert scores.shape == (video.num_frames,)
            results.append(
                evaluate_video(video, scores, METRIC_KEYS["all"], "mean", budget_fraction=0.3)
            )
        entry = report["per_fold"][k]
        assert entry["num_videos"] == len(video_ids)
        for key in ("F", "tau", "rho"):
            assert abs(entry[key] - np.mean([r[key] for r in results])) <= 1e-12


def test_evaluate_holds_one_folds_features_at_a_time(tmp_path):
    # 16 videos of 246 KB of float32 features in 4 folds: a fold holds a quarter of
    # them, plus one video's float64 widening at a time and its checkpoint (2.3 MB
    # in all; the 16 payloads alone are 3.9 MB)
    manifest = generate_synthetic(tmp_path / "data", 8, videos=16, frames=120, dims=512)
    run = train_run(
        load_dataset(manifest), TrainConfig(epochs=0, subtask_size=10, hidden=8), tmp_path / "run", folds=4
    )
    with traced_peak() as traced:
        dataset = load_dataset(manifest)
        report = evaluate_run(run, dataset)
    peak = traced.peak
    payload = sum(4 * math.prod(v.shape) for v in dataset.videos)
    assert [entry["num_videos"] for entry in report["per_fold"]] == [4] * 4
    assert peak < payload, (peak, payload)


def test_evaluate_holds_one_scoring_batch_of_features_at_a_time(tmp_path, monkeypatch):
    # 2 folds of 12 videos of 123 KB of float32 features: a fold's payload is 1.5 MB,
    # a scoring batch's 0.5 MB, and one video's float64 widening 0.25 MB
    manifest = generate_synthetic(tmp_path / "data", 9, videos=24, frames=60, dims=512)
    config = TrainConfig(epochs=0, subtask_size=10, hidden=4)
    run = train_run(load_dataset(manifest), config, tmp_path / "run", folds=2)
    dataset = load_dataset(manifest)
    lanes = []
    real_lstm = policy.lstm_forward

    def counting_lstm(stores, prefix, seqs):
        lanes.append(len(stores))
        assert len(stores) <= SCORE_BATCH and all(s is stores[0] for s in stores)
        return real_lstm(stores, prefix, seqs)

    reads = collections.Counter()
    read_features = data.read_features

    def counting_read(path):
        reads[Path(path).name] += 1
        return read_features(path)

    monkeypatch.setattr(policy, "lstm_forward", counting_lstm)
    monkeypatch.setattr(data, "read_features", counting_read)
    with traced_peak() as traced:
        report = evaluate_run(run, dataset)
    # each fold of 12 takes three batches of 4, through the Manager and the Worker
    assert lanes == [SCORE_BATCH] * 12
    # one read of each video's file, for both its scores and its segmentation
    assert reads == collections.Counter(v.path.name for v in dataset.videos)
    assert len(reads) == 24
    with open(run / "folds.json", encoding="utf-8") as fh:
        folds = json.load(fh)["folds"]
    fold_payload = min(
        sum(4 * math.prod(dataset.by_id(video_id).shape) for video_id in ids) for ids in folds
    )
    assert all(entry["num_videos"] > SCORE_BATCH for entry in report["per_fold"])
    assert traced.peak < fold_payload, (traced.peak, fold_payload)


def test_evaluate_run_metric_filtering(tiny_dataset, tmp_path, monkeypatch):
    run = make_tiny_run(tiny_dataset, tmp_path / "run")
    full = evaluate_run(run, tiny_dataset, metric="all")

    def not_asked_for(*args, **kwargs):
        raise AssertionError("computed a metric that was not asked for")

    # tau and rho need no segmentation or knapsack; F needs no rank correlation
    for metric, skipped in [
        ("tau", ["make_summary"]),
        ("rho", ["make_summary"]),
        ("f", ["kendall_tau", "spearman_rho"]),
    ]:
        with monkeypatch.context() as patch:
            for name in skipped:
                patch.setattr(f"hiersum.evaluation.{name}", not_asked_for)
            report = evaluate_run(run, tiny_dataset, metric=metric)
        (key,) = METRIC_KEYS[metric]
        assert [k for k in report if k.startswith("mean_")] == [f"mean_{key}"]
        assert report[f"mean_{key}"] == full[f"mean_{key}"]
        assert report["per_fold"] == [
            {"fold": e["fold"], "num_videos": e["num_videos"], key: e[key]}
            for e in full["per_fold"]
        ]
    with pytest.raises(ValueError, match="metric"):
        evaluate_run(run, tiny_dataset, metric="bogus")


def test_evaluate_run_missing_pieces(tiny_dataset, tmp_path):
    with pytest.raises(ConfigurationError, match="folds.json"):
        load_run_folds(tmp_path)
    run = make_tiny_run(tiny_dataset, tmp_path / "run")
    (run / "fold1.ckpt").unlink()
    with pytest.raises(ConfigurationError, match="fold1.ckpt"):
        evaluate_run(run, tiny_dataset)


def test_evaluate_run_feature_dim_mismatch(tiny_dataset, tmp_path):
    run = make_tiny_run(tiny_dataset, tmp_path / "run")
    other = load_dataset(
        generate_synthetic(tmp_path / "narrow", seed=11, videos=6, frames=40, dims=5)
    )
    with pytest.raises(ConfigurationError) as exc:
        evaluate_run(run, other)
    message = str(exc.value)
    assert "fold0.ckpt" in message and "dataset 'synthetic'" in message
    assert "model feature dim 6" in message and "feature dim 5" in message


def test_info_log_has_one_line_per_phase_and_fold(tiny_dataset, tmp_path, caplog):
    quiet = make_tiny_run(tiny_dataset, tmp_path / "quiet")
    quiet_report = evaluate_run(quiet, tiny_dataset)
    # the default WARNING level lets no progress line through
    assert [r for r in caplog.records if r.levelno == logging.INFO] == []

    caplog.set_level(logging.INFO, logger="hiersum")
    loud = make_tiny_run(tiny_dataset, tmp_path / "loud")
    loud_report = evaluate_run(loud, tiny_dataset)
    assert loud_report == quiet_report
    for path in sorted(quiet.iterdir()):
        assert (loud / path.name).read_bytes() == path.read_bytes(), path.name

    logs = [(quiet / f"train_fold{k}.jsonl").read_text().splitlines() for k in range(2)]
    want = []
    # the folds train in lockstep, so each epoch phase logs one line per fold, in fold order
    for lines in zip(*logs):
        for k, line in enumerate(lines):
            entry = json.loads(line)
            if entry["phase"] == "manager":
                values = f"L_m={entry['L_m']:.6g}"
            else:
                values = ", ".join(
                    f"{key}={entry[key]:.6g}" for key in ("R_d", "R_rep", "R_sub", "reward")
                )
            want.append(f"fold {k} epoch {entry['epoch']} {entry['phase']}: {values}")
    for entry in quiet_report["per_fold"]:
        want.append(
            f"fold {entry['fold']}: {entry['num_videos']} videos, F={entry['F']:.4f}, "
            f"tau={entry['tau']:.4f}, rho={entry['rho']:.4f}"
        )
    # each line ends with the phase's or the fold's wall-clock seconds
    got = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
    assert all(re.search(r" \(\d+\.\d{3} s\)$", line) for line in got), got
    assert [re.sub(r" \(\d+\.\d{3} s\)$", "", line) for line in got] == want


def test_save_report(tmp_path):
    report = {"dataset": "x", "mean_F": 0.5, "per_fold": []}
    path = tmp_path / "report.json"
    save_report(path, report)
    assert json.loads(path.read_text()) == report


def test_run_on_float32_features_equals_run_on_their_float64_widening(tmp_path):
    narrow = load_dataset(generate_synthetic(tmp_path / "data", 72, videos=4, frames=40, dims=8))
    wide = Dataset(
        narrow.manifest,
        [
            Video(v.video_id, v.features.astype(np.float64), v.per_user_scores, v.user_summaries)
            for v in (video.read() for video in narrow.videos)
        ],
    )
    assert narrow.videos[0].read().features.dtype == np.float32
    assert wide.videos[0].features.dtype == np.float64
    config = TrainConfig(epochs=2, episodes=3, subtask_size=10, hidden=8, seed=72)
    for name, dataset in (("narrow", narrow), ("wide", wide)):
        train_run(dataset, config, tmp_path / name, folds=2)
        save_report(tmp_path / name / "report.json", evaluate_run(tmp_path / name, dataset))
    names = sorted(p.name for p in (tmp_path / "narrow").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "wide").iterdir())
    assert {"fold0.ckpt", "fold1.ckpt", "train_fold0.jsonl", "report.json"} <= set(names)
    for file_name in names:
        narrow_bytes = (tmp_path / "narrow" / file_name).read_bytes()
        assert narrow_bytes == (tmp_path / "wide" / file_name).read_bytes(), file_name
