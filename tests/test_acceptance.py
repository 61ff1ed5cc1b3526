"""Acceptance gate: nine checks covering gradients, estimator bias, rewards,
selection and segmentation exactness, metric oracles, desk-scale learning,
report fields, and bit determinism. Each test prints one pass/fail line."""

import itertools
import json
import math
import time

import numpy as np

from hiersum.cli import main as cli_main
from hiersum.data import block_means, generate_synthetic, load_dataset
from hiersum.evaluation import (
    evaluate_run,
    f_score,
    kendall_tau,
    save_report,
    spearman_rho,
    video_f_for_mask,
)
from hiersum.kts import _dp_tables, kts_segment
from hiersum.nn import grad_check
from hiersum.policy import (
    greedy_scores,
    init_policy,
    log_prob_score_grad,
    manager_forward,
    manager_loss_backward,
    manager_param_names,
    worker_backward,
    worker_forward,
    worker_param_names,
)
from hiersum.rewards import _action_rewards, episode_reward, sub_reward
from hiersum.seeding import substream
from hiersum.summarize import knapsack_select, make_summary
from hiersum.training import TrainConfig, train, train_run
from tests.oracles import (
    all_selections,
    bernoulli_log_prob,
    brute_knapsack,
    cost_matrix,
    direct_segment_cost,
    enumerate_min_costs,
    loop_diversity,
    loop_representativeness,
)


def report_line(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")


# --- 1: analytic gradients vs central finite differences ---------------------------


def test_criterion_1_gradient_exactness(capsys):
    started = time.perf_counter()
    store = init_policy(5, 4, substream(201, "init"))
    feats = substream(201, "x").normal(size=(6, 5))
    labels = np.array([1.0, 0.0, 1.0])  # three subtasks of two frames

    def manager_loss_fn():
        fwd = manager_forward([store], [feats], 2)[0]
        return manager_loss_backward([store], [fwd], [labels])[0]

    manager_report = grad_check(
        manager_loss_fn, store, names=manager_param_names(store), step=1e-5, tolerance=1e-5
    )

    subgoals = manager_forward([store], [feats], 2)[0].subgoals
    actions = np.array([1, 0, 1, 1, 0, 0], dtype=np.float64)

    def worker_loss_fn():
        wfwd = worker_forward([store], [feats], [subgoals], 2)[0]
        loss = bernoulli_log_prob(wfwd.scores, actions)
        worker_backward([store], [wfwd], [log_prob_score_grad(wfwd.scores, actions)])
        return loss

    worker_report = grad_check(
        worker_loss_fn, store, names=worker_param_names(store), step=1e-5, tolerance=1e-5
    )
    elapsed = time.perf_counter() - started
    ok = manager_report["ok"] and worker_report["ok"] and elapsed < 10.0
    report_line(
        capsys,
        1,
        ok,
        f"max rel err: manager {manager_report['max_rel_error']:.2e}, "
        f"worker {worker_report['max_rel_error']:.2e}, tol 1e-5, {elapsed:.1f}s",
    )
    assert ok


# --- 2: score-function estimator is unbiased and baseline-invariant -----------------


def test_criterion_2_reinforce_unbiasedness(capsys):
    started = time.perf_counter()
    store = init_policy(5, 4, substream(202, "init"))
    feats = substream(202, "x").normal(size=(6, 5))
    subtask_size = 2

    mfwd = manager_forward([store], [feats], subtask_size)[0]
    subgoals = mfwd.subgoals.copy()
    probs = mfwd.probs.copy()
    base = worker_forward([store], [feats], [subgoals], subtask_size)[0]
    score_means = block_means(base.scores, base.bounds)

    # one frozen reward per action sequence, indexed over all 2^6 of them
    actions_list = [
        np.array(bits, dtype=np.float64) for bits in itertools.product([0, 1], repeat=6)
    ]
    rewards = episode_reward(feats, np.array(actions_list), score_means, probs, 0.5).r
    names = worker_param_names(store)

    def estimator(baseline):
        """sum over actions of P(a) (R(a) - b) grad log pi(a), one backward pass."""
        store.zero_grads()
        wfwd = worker_forward([store], [feats], [subgoals], subtask_size)[0]
        dscores = np.zeros(6)
        for a, r in zip(actions_list, rewards):
            p = math.exp(bernoulli_log_prob(wfwd.scores, a))
            dscores += p * (r - baseline) * log_prob_score_grad(wfwd.scores, a)
        worker_backward([store], [wfwd], [dscores])
        return np.concatenate([store.grads[n].ravel() for n in names])

    def expected_reward():
        wfwd = worker_forward([store], [feats], [subgoals], subtask_size)[0]
        return sum(
            math.exp(bernoulli_log_prob(wfwd.scores, a)) * r
            for a, r in zip(actions_list, rewards)
        )

    step = 1e-5
    fd_parts = []
    for name in names:
        flat = store.params[name].ravel()
        grads = np.empty(flat.size)
        for idx in range(flat.size):
            keep = flat[idx]
            flat[idx] = keep + step
            plus = expected_reward()
            flat[idx] = keep - step
            minus = expected_reward()
            flat[idx] = keep
            grads[idx] = (plus - minus) / (2.0 * step)
        fd_parts.append(grads)
    fd_grad = np.concatenate(fd_parts)

    estimates = {b: estimator(b) for b in (0.0, 0.5, 1.0)}
    max_bias = max(float(np.max(np.abs(g - fd_grad))) for g in estimates.values())
    max_spread = float(np.max(np.abs(estimates[0.5] - estimates[0.0])))
    max_spread = max(max_spread, float(np.max(np.abs(estimates[1.0] - estimates[0.0]))))
    elapsed = time.perf_counter() - started
    ok = max_bias < 1e-8 and max_spread < 1e-8 and elapsed < 30.0
    report_line(
        capsys,
        2,
        ok,
        f"max |estimator - exact grad| {max_bias:.2e}, baseline spread {max_spread:.2e}, "
        f"tol 1e-8, {elapsed:.1f}s",
    )
    assert ok


# --- 3: reward oracles ----------------------------------------------------------------


def test_criterion_3_reward_oracles(capsys):
    worst = 0.0
    for t in (5, 8):
        feats = substream(203, "r", str(t)).normal(size=(t, 4))
        # every subset of the frames, one episode per row
        actions, subsets = all_selections(t)
        r_div, r_rep = _action_rewards(feats, actions)
        for sel, got_div, got_rep in zip(subsets, r_div, r_rep):
            worst = max(worst, abs(got_div - loop_diversity(feats, sel)))
            worst = max(worst, abs(got_rep - loop_representativeness(feats, sel)))

    rng = substream(203, "sub")
    for _ in range(200):
        n = int(rng.integers(1, 9))
        means = rng.random(n)
        probs = rng.random(n)
        direct = math.exp(-sum(abs(m - p) for m, p in zip(means, probs)) / n)
        worst = max(worst, abs(sub_reward(means, probs) - direct))

    x = substream(203, "x").normal(size=6)
    both = np.ones((1, 2), dtype=np.uint8)
    spot_self = abs(_action_rewards(np.stack([x, x]), both)[0][0])  # R_div of two copies of x
    spot_orth = _action_rewards(np.eye(2), both)[0][0]
    spot_sub = sub_reward([1.0], [0.0])
    ok = (
        worst <= 1e-12
        and spot_self <= 1e-12
        and spot_orth == 1.0
        and abs(spot_sub - 0.36788) <= 1e-5
    )
    report_line(
        capsys,
        3,
        ok,
        f"max oracle deviation {worst:.2e} (tol 1e-12); d(x,x)={spot_self:.1e}, "
        f"orthogonal R_d={spot_orth}, R_sub exp(-1)={spot_sub:.5f}",
    )
    assert ok


# --- 4: knapsack vs full enumeration -----------------------------------------------------


def test_criterion_4_knapsack_exactness(capsys):
    started = time.perf_counter()
    rng = substream(204, "knap")
    ties_exercised = 0
    for trial in range(500):
        size = 15 if trial < 10 else int(rng.integers(1, 13))
        if trial % 2 == 0:
            values = rng.random(size)
        else:
            values = rng.integers(0, 65, size=size) / 64.0
        lengths = rng.integers(1, 10, size=size)
        capacity = int(rng.integers(0, int(lengths.sum()) + 2))
        want_val, want_set, want_count = brute_knapsack(
            list(values), [int(l) for l in lengths], capacity
        )
        got = knapsack_select(values, lengths, capacity)
        got_val = 0.0
        for i in reversed(got):
            got_val = values[i] + got_val
        assert tuple(got) == want_set, (trial, got, want_set)
        assert got_val == want_val, (trial, got_val, want_val)
        if want_count > 1:
            ties_exercised += 1
    elapsed = time.perf_counter() - started
    ok = elapsed < 30.0
    report_line(
        capsys,
        4,
        ok,
        f"500 instances match exactly (value and tie-break), "
        f"{ties_exercised} with ties, {elapsed:.1f}s",
    )
    assert ok


# --- 5: segmentation DP vs exhaustive partitions ------------------------------------------


def test_criterion_5_kts_correctness(capsys):
    started = time.perf_counter()
    worst = 0.0
    rng = substream(205, "kts")
    for _ in range(25):
        t = int(rng.integers(4, 13))
        feats = rng.normal(size=(t, int(rng.integers(2, 5))))
        max_shots = min(4, t)
        costs = cost_matrix(feats)
        dp = _dp_tables(feats, max_shots)[0][1:, -1]  # L_m for m = 1..max_shots
        shared = enumerate_min_costs(feats, max_shots, lambda a, b: costs[a, b])
        direct = enumerate_min_costs(feats, max_shots, lambda a, b: direct_segment_cost(feats, a, b))
        for m in range(1, max_shots + 1):
            shared_best = shared[m - 1]
            direct_best = direct[m - 1]
            assert dp[m - 1] == shared_best  # same table, same accumulation
            scale = max(abs(direct_best), 1.0)
            worst = max(worst, abs(dp[m - 1] - direct_best) / scale)

    block_a = np.tile(np.array([5.0, 0.0, 0.0]), (10, 1))
    block_b = np.tile(np.array([0.0, 5.0, 0.0]), (10, 1))
    part = kts_segment(np.vstack([block_a, block_b]))
    boundary_ok = part.change_points == (10,)
    elapsed = time.perf_counter() - started
    ok = worst < 1e-10 and boundary_ok and elapsed < 30.0
    report_line(
        capsys,
        5,
        ok,
        f"DP equals enumeration (independent-cost rel dev {worst:.2e}); "
        f"two-block change point {part.change_points}, {elapsed:.1f}s",
    )
    assert ok


# --- 6: rank-correlation and F oracles ------------------------------------------------------


def test_criterion_6_metric_oracles(capsys):
    def loop_tau(p, q):
        n = len(p)
        concordant = discordant = ties_p = ties_q = 0
        for i in range(n):
            for j in range(i + 1, n):
                dp, dq = p[j] - p[i], q[j] - q[i]
                ties_p += dp == 0
                ties_q += dq == 0
                if dp * dq > 0:
                    concordant += 1
                elif dp * dq < 0:
                    discordant += 1
        n0 = n * (n - 1) // 2
        return (concordant - discordant) / math.sqrt((n0 - ties_p) * (n0 - ties_q))

    def loop_rho(p, q):
        def ranks(vals):
            return [
                sum(u < v for u in vals) + (sum(u == v for u in vals) + 1) / 2 for v in vals
            ]

        ra, rb = ranks(p), ranks(q)
        ma, mb = sum(ra) / len(ra), sum(rb) / len(rb)
        da = [r - ma for r in ra]
        db = [r - mb for r in rb]
        num = sum(x * y for x, y in zip(da, db))
        return num / math.sqrt(sum(x * x for x in da) * sum(y * y for y in db))

    rng = substream(206, "m")
    checked = with_ties = 0
    for trial in range(1000):
        if trial % 2 == 0:
            p = rng.integers(0, 4, size=8).astype(np.float64)
            q = rng.integers(0, 4, size=8).astype(np.float64)
        else:
            p = rng.random(8)
            q = rng.random(8)
        if np.all(p == p[0]) or np.all(q == q[0]):
            continue
        assert kendall_tau(p, q) == loop_tau(list(p), list(q))
        assert spearman_rho(p, q) == loop_rho(list(p), list(q))
        checked += 1
        with_ties += len(set(p)) < 8 or len(set(q)) < 8

    truth = np.zeros(64, dtype=np.uint8)
    generated = np.zeros(64, dtype=np.uint8)
    truth[:20] = 1
    generated[15:25] = 1
    precision, recall, f = f_score(truth, generated)
    f_ok = precision == 0.25 and recall == 0.5 and f == 1.0 / 3.0
    ok = f_ok and checked >= 990
    report_line(
        capsys,
        6,
        ok,
        f"tau and rho exact on {checked} vectors ({with_ties} with ties); "
        f"F spot case P={precision}, R={recall}, F=1/3",
    )
    assert ok


# --- 7: desk-scale learning beats a random-score baseline -------------------------------------


def test_criterion_7_end_to_end_learning(capsys, tmp_path):
    seeds = [0, 1, 2, 3, 4]
    gaps = []
    first_windows = []
    last_windows = []
    slowest = 0.0
    for seed in seeds:
        started = time.perf_counter()
        manifest = generate_synthetic(
            tmp_path / f"seed{seed}",
            seed=seed,
            videos=20,
            frames=200,
            dims=16,
            keyframe_fraction=0.15,
            users=3,
        )
        dataset = load_dataset(manifest)
        config = TrainConfig(epochs=40, seed=seed)
        store, history = train(dataset.videos, dataset.manifest.feature_dim, config)
        f_mode = dataset.manifest.f_aggregate
        trained = []
        random_baseline = []
        for video in dataset.videos:
            feats = video.features
            scores = greedy_scores(store, feats, config.subtask_size)
            summary = make_summary(feats, scores)
            trained.append(video_f_for_mask(video, summary.frame_mask, f_mode))
            rand = substream(seed, "baseline", video.video_id).random(feats.shape[0])
            rand_summary = make_summary(feats, rand)
            random_baseline.append(video_f_for_mask(video, rand_summary.frame_mask, f_mode))
        rewards = [e["reward"] for e in history if e["phase"] == "worker"]
        gaps.append(float(np.mean(trained)) - float(np.mean(random_baseline)))
        first_windows.append(float(np.mean(rewards[:5])))
        last_windows.append(float(np.mean(rewards[-5:])))
        elapsed = time.perf_counter() - started
        slowest = max(slowest, elapsed)
        assert elapsed < 300.0, f"seed {seed} took {elapsed:.0f}s"

    mean_gap = float(np.mean(gaps))
    first = float(np.mean(first_windows))
    last = float(np.mean(last_windows))
    ok = mean_gap >= 0.10 and last > first and slowest < 300.0
    report_line(
        capsys,
        7,
        ok,
        f"mean F gap over random {mean_gap:+.3f} (needs >= +0.100), "
        f"reward window {first:.4f}->{last:.4f}, slowest seed {slowest:.0f}s",
    )
    assert ok


# --- 8: canonical protocol report fields (no benchmark numbers asserted) ------------------------


def test_criterion_8_report_fields(capsys, tmp_path):
    manifest = generate_synthetic(tmp_path / "data", seed=1, videos=10, frames=60, dims=8)
    dataset = load_dataset(manifest)
    config = TrainConfig(epochs=1, episodes=2, hidden=8, subtask_size=20, seed=1)
    run = train_run(dataset, config, tmp_path / "run", folds=5)
    report = evaluate_run(run, dataset)
    save_report(tmp_path / "report.json", report)
    loaded = json.loads((tmp_path / "report.json").read_text())

    ok = (
        loaded == report
        and report["setting"] == "canonical"
        and len(report["per_fold"]) == 5
        and all(e["num_videos"] == 2 for e in report["per_fold"])
        and report["labels_per_video"] == 3.0
        and all(isinstance(report[k], float) for k in ("mean_F", "mean_tau", "mean_rho"))
        and all(
            set(e) == {"fold", "num_videos", "F", "tau", "rho"} for e in report["per_fold"]
        )
    )
    report_line(
        capsys,
        8,
        ok,
        "canonical 5-fold report emits mean_F/mean_tau/mean_rho per fold and overall; "
        "benchmark agreement is not asserted at this scale",
    )
    assert ok


# --- 9: bit determinism of checkpoints and reports ------------------------------------------------


def test_criterion_9_determinism(capsys, tmp_path):
    data_dir = tmp_path / "data"
    assert (
        cli_main(
            [
                "gen-synthetic",
                "--out", str(data_dir),
                "--videos", "6",
                "--frames", "40",
                "--dim", "6",
                "--seed", "3",
            ]
        )
        == 0
    )
    manifest = str(data_dir / "manifest.json")
    for tag in ("a", "b"):
        assert (
            cli_main(
                [
                    "train",
                    "--dataset", manifest,
                    "--out", str(tmp_path / f"run_{tag}"),
                    "--subtask-size", "10",
                    "--hidden", "8",
                    "--epochs", "2",
                    "--episodes", "4",
                    "--folds", "2",
                    "--seed", "3",
                ]
            )
            == 0
        )
        assert (
            cli_main(
                [
                    "evaluate",
                    "--run", str(tmp_path / f"run_{tag}"),
                    "--dataset", manifest,
                    "--out", str(tmp_path / f"report_{tag}.json"),
                ]
            )
            == 0
        )

    compared = []
    for name in ("fold0.ckpt", "fold1.ckpt", "train_fold0.jsonl", "train_fold1.jsonl"):
        same = (tmp_path / "run_a" / name).read_bytes() == (
            tmp_path / "run_b" / name
        ).read_bytes()
        compared.append(same)
    compared.append(
        (tmp_path / "report_a.json").read_bytes() == (tmp_path / "report_b.json").read_bytes()
    )
    ok = all(compared)
    report_line(
        capsys,
        9,
        ok,
        "checkpoints, training logs, and reports byte-identical across reruns",
    )
    assert ok
