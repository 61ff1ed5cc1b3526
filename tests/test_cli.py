import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hiersum import cli as cli_module
from hiersum.cli import build_parser, main
from hiersum.data import read_annotations, read_features, write_annotations, write_features
from hiersum.nn import load_checkpoint, save_checkpoint
from hiersum.training import TrainConfig, new_policy
from tests.conftest import traced_peak


@pytest.fixture(scope="module")
def cli_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "data"
    code = main(
        [
            "gen-synthetic",
            "--out", str(out),
            "--videos", "4",
            "--frames", "30",
            "--dim", "5",
            "--seed", "5",
        ]
    )
    assert code == 0
    return out / "manifest.json"


@pytest.fixture(scope="module")
def cli_run(cli_dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "run"
    code = main(
        [
            "train",
            "--dataset", str(cli_dataset),
            "--out", str(out),
            "--subtask-size", "10",
            "--hidden", "6",
            "--epochs", "1",
            "--episodes", "2",
            "--no-cv",
            "--seed", "5",
        ]
    )
    assert code == 0
    return out


# --- usage errors (exit code 2) -----------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["gen-synthetic", "--out", "x", "--videos", "0"],
        ["gen-synthetic", "--out", "x", "--keyframe-fraction", "1.5"],
        ["train", "--dataset", "d", "--out", "x", "--alpha", "1.5"],
        ["train", "--dataset", "d", "--out", "x", "--epochs", "-1"],
        ["train", "--dataset", "d", "--out", "x", "--episodes", "0"],
        ["train", "--dataset", "d", "--out", "x", "--folds", "1"],
        ["train", "--dataset", "d", "--out", "x", "--lr", "0"],
        ["train", "--dataset", "d", "--out", "x", "--subtask-size", "0"],
        ["train", "--dataset", "d", "--out", "x", "--hidden", "0"],
        ["train", "--dataset", "d", "--out", "x", "--baseline-momentum", "1.0"],
        ["summarize", "--model", "m", "--video", "v", "--budget", "0"],
        ["evaluate", "--run", "r", "--dataset", "d", "--budget", "2.0"],
        ["evaluate", "--run", "r", "--dataset", "d", "--jobs", "0"],  # no --jobs option
        ["train", "--out", "x"],  # missing required --dataset
        ["no-such-command"],
        ["summarize", "--model", "m", "--video", "v", "--max-shots", "0"],
        ["evaluate", "--run", "r", "--dataset", "d", "--max-shots", "-4"],
        ["summarize", "--model", "m", "--video", "v", "--penalty", "-1"],
        ["evaluate", "--run", "r", "--dataset", "d", "--penalty", "-1"],
        ["gen-synthetic", "--out", "x", "--subtask-size", "10"],  # the run sets it, not the data
        ["train", "--dataset", "d", "--out", "x", "--lr", "nan"],
        ["train", "--dataset", "d", "--out", "x", "--lr", "inf"],
        ["summarize", "--model", "m", "--video", "v", "--penalty", "nan"],
        ["summarize", "--model", "m", "--video", "v", "--penalty", "inf"],
        ["evaluate", "--run", "r", "--dataset", "d", "--penalty", "nan"],
        ["evaluate", "--run", "r", "--dataset", "d", "--penalty", "inf"],
        ["gen-synthetic", "--out", "x", "--seed", "-1"],
        ["train", "--dataset", "d", "--out", "x", "--seed", "-1"],
        ["summarize", "--model", "m", "--video", "v", "--out", "x.json", "--scores-out", "x.json"],
        ["summarize", "--model", "m", "--video", "v", "--out", "x.json", "--scores-out", "./x.json"],
    ],
)
def test_usage_errors_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_summarize_one_path_for_both_outputs_names_both_flags(tmp_path, monkeypatch, capsys):
    # the paths are compared resolved: a relative and an absolute spelling of one file
    monkeypatch.chdir(tmp_path)
    argv = ["summarize", "--model", "m", "--video", "v", "--out", "x.json"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--scores-out", str(tmp_path / "x.json")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--out" in err and "--scores-out" in err and ".tmp" not in err


def readme_commands():
    """Each `hiersum ...` command of README's Command line block, continuation lines joined."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if words and re.fullmatch(r"\w+=\S*", words[0]):  # an environment setting
            words = words[1:]
        if words and words[0] == "hiersum":
            commands.append(words[1:])
    return commands


def test_readme_command_lines_parse():
    commands = readme_commands()
    assert [argv[0] for argv in commands] == ["gen-synthetic", "train", "summarize", "evaluate"]
    for argv in commands:
        build_parser().parse_args(argv)


# --- gen-synthetic --------------------------------------------------------------------


def test_gen_synthetic_files_and_rerun_identical(tmp_path):
    args = [
        "gen-synthetic",
        "--videos", "3",
        "--frames", "20",
        "--dim", "4",
        "--seed", "9",
    ]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    names_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names_a == sorted(p.name for p in (tmp_path / "b").iterdir())
    # 3 videos x (features + annotations) + manifest
    assert len(names_a) == 7
    assert "manifest.json" in names_a
    for name in names_a:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert "subtask_size" not in json.loads((tmp_path / "a" / "manifest.json").read_text())


# --- train ------------------------------------------------------------------------------


def test_train_run_outputs(cli_run):
    names = sorted(p.name for p in cli_run.iterdir())
    assert names == ["config.json", "fold0.ckpt", "folds.json", "train_fold0.jsonl"]
    echo = json.loads((cli_run / "config.json").read_text())
    assert echo["no_cv"] is True
    assert echo["dataset_path"].endswith("manifest.json")


def test_train_zero_epochs_equals_fresh_init(cli_dataset, tmp_path):
    code = main(
        [
            "train",
            "--dataset", str(cli_dataset),
            "--out", str(tmp_path / "run"),
            "--subtask-size", "10",
            "--hidden", "6",
            "--epochs", "0",
            "--no-cv",
            "--seed", "5",
        ]
    )
    assert code == 0
    store, meta = load_checkpoint(tmp_path / "run" / "fold0.ckpt")
    init = new_policy(5, TrainConfig(hidden=6, subtask_size=10, seed=5))
    assert all(np.array_equal(store[n], init[n]) for n in store.names())
    assert meta["epochs"] == 0


def test_package_and_cli_import_no_scipy():
    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    count = "sum(name.split('.')[0] == 'scipy' for name in sys.modules)"
    code = f"import sys, hiersum; print({count}); import hiersum.cli; print({count})"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # D=512 makes the Gram and input products large enough for OpenBLAS to split
    # them; relative paths let config.json compare too
    pipeline = [
        ["gen-synthetic", "--videos", "4", "--frames", "200", "--dim", "512", "--out", "data"],
        ["train", "--dataset", "data/manifest.json", "--out", "run", "--folds", "2"]
        + ["--epochs", "1", "--hidden", "16"],
        ["evaluate", "--run", "run", "--dataset", "data/manifest.json", "--out", "report.json"],
        ["summarize", "--model", "run/fold0.ckpt", "--video", "data/video000.vsf"]
        + ["--out", "summary.json", "--scores-out", "scores.json"],
    ]
    code = (
        "import json, sys\n"
        "from hiersum.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    if main(argv):\n"
        "        sys.exit(f'{argv[0]} failed')\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        cwd = tmp_path / f"threads{threads}"
        cwd.mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", code, json.dumps(pipeline)],
            cwd=cwd, env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append({
            str(p.relative_to(cwd)): p.read_bytes() for p in sorted(cwd.rglob("*")) if p.is_file()
        })
    one, two = outputs
    assert {"run/config.json", "run/fold1.ckpt", "report.json", "scores.json"} <= set(one)
    assert sorted(one) == sorted(two)
    assert [name for name in one if one[name] != two[name]] == []


# BASIC_FORMAT names an attribute of logging that is not a level
@pytest.mark.parametrize("level", [None, "INFO", "BASIC_FORMAT"])
def test_hiersum_log_env_sets_stderr_progress(cli_dataset, tmp_path, level):
    env = {k: v for k, v in os.environ.items() if k != "HIERSUM_LOG"}
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    if level:
        env["HIERSUM_LOG"] = level
    argv = [
        "train",
        "--dataset", str(cli_dataset),
        "--out", str(tmp_path / "run"),
        "--subtask-size", "10",
        "--hidden", "6",
        "--epochs", "1",
        "--episodes", "2",
        "--no-cv",
        "--seed", "5",
    ]
    proc = subprocess.run(
        [sys.executable, "-m", "hiersum.cli", *argv], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    if level in (None, "BASIC_FORMAT"):
        assert lines == []  # WARNING by default
    else:
        assert len(lines) == 2
        assert lines[0].startswith("INFO:hiersum.training:fold 0 epoch 0 manager: L_m=")
        assert lines[1].startswith("INFO:hiersum.training:fold 0 epoch 0 worker: R_d=")


def test_train_missing_dataset_exit_1(tmp_path, capsys):
    code = main(
        ["train", "--dataset", str(tmp_path / "nope.json"), "--out", str(tmp_path / "r")]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_train_too_many_episodes_for_memory_exit_1(cli_dataset, tmp_path, capsys):
    # 10^12 episodes of a 30-frame video would draw 240 TB of (E, T) floats in the
    # first Worker epoch; the estimate rejects the run before any epoch allocates
    argv = [
        "train",
        "--dataset", str(cli_dataset),
        "--out", str(tmp_path / "run"),
        "--subtask-size", "10",
        "--hidden", "6",
        "--epochs", "1",
        "--episodes", "1000000000000",
        "--no-cv",
    ]
    with traced_peak() as traced:
        code = main(argv)
    peak = traced.peak
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "--episodes 1000000000000" in err and "video 'video000' (30 frames)" in err
    assert "bytes" in err
    assert peak < 2**20
    assert not (tmp_path / "run").exists()


def zero_frame(data):
    path = video_file(data / "manifest.json", 1)
    with open(path, "r+b") as fh:
        fh.seek(12 + 4 * 5 * 7)  # header, then frame 7 of a 5-dim video
        fh.write(bytes(4 * 5))
    return ["video 'video001'", "frame 7"]


def duplicate_id(data):
    manifest = json.loads((data / "manifest.json").read_text())
    manifest["videos"][2]["id"] = manifest["videos"][0]["id"]
    (data / "manifest.json").write_text(json.dumps(manifest))
    return ["duplicate video id 'video000'", str(data / "manifest.json")]


def entry_without_id(data):
    manifest = json.loads((data / "manifest.json").read_text())
    del manifest["videos"][1]["id"]
    (data / "manifest.json").write_text(json.dumps(manifest))
    return ["video entry 1", str(data / "manifest.json")]


def annotations_not_utf8(data):
    manifest = json.loads((data / "manifest.json").read_text())
    path = data / manifest["videos"][2]["annotations"]
    path.write_bytes(path.read_bytes().replace(b"[", b"\xff", 1))
    return ["invalid annotation JSON", str(path)]


@pytest.mark.parametrize(
    "mangle", [zero_frame, duplicate_id, entry_without_id, annotations_not_utf8]
)
def test_train_rejects_dataset_at_load_exit_1(cli_dataset, tmp_path, capsys, mangle):
    data = tmp_path / "data"
    shutil.copytree(cli_dataset.parent, data)
    named = mangle(data)
    argv = ["train", "--dataset", str(data / "manifest.json"), "--out", str(tmp_path / "r")]
    assert main(argv + ["--subtask-size", "10", "--epochs", "1", "--folds", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert all(part in err for part in named), err


def nan_entry(path):
    feats = read_features(path).copy()
    feats[4, 1] = np.nan
    write_features(path, feats)
    return "features contain non-finite values"


def fewer_frames(path):
    write_features(path, read_features(path)[:-3])
    return "27x5 features, but 30x5 when loaded"


def truncated_payload(path):
    path.write_bytes(path.read_bytes()[:-4])
    return "payload bytes"


@pytest.mark.parametrize("command", ["evaluate", "train"])
@pytest.mark.parametrize("rewrite", [nan_entry, fewer_frames, truncated_payload])
def test_feature_file_changed_after_load_exit_1(
    cli_run, cli_dataset, tmp_path, capsys, monkeypatch, command, rewrite
):
    # the file passes the load-time checks, then changes before a computation reads it again
    data = tmp_path / "data"
    shutil.copytree(cli_dataset.parent, data)
    path = video_file(data / "manifest.json", 1)
    load_dataset = cli_module.load_dataset
    named = []

    def load_then_rewrite(manifest_path):
        dataset = load_dataset(manifest_path)
        named.append(rewrite(path))
        return dataset

    monkeypatch.setattr(cli_module, "load_dataset", load_then_rewrite)
    out = tmp_path / "out"
    argv = [command, "--dataset", str(data / "manifest.json"), "--out", str(out)]
    if command == "evaluate":
        argv += ["--run", str(cli_run)]
    else:
        argv += ["--subtask-size", "10", "--hidden", "6", "--epochs", "1", "--episodes", "2"]
        argv += ["--folds", "2"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert f"{path}: changed since it was loaded: " in err and named[0] in err, err
    # no report, and no checkpoint: every fold of the one lockstep group trains on the video
    assert not out.exists() if command == "evaluate" else not list(out.glob("*.ckpt"))


# --- summarize ----------------------------------------------------------------------------


def video_file(cli_dataset, index=0):
    manifest = json.loads(cli_dataset.read_text())
    return cli_dataset.parent / manifest["videos"][index]["features"]


def test_summarize_stdout_and_budget(cli_run, cli_dataset, capsys):
    code = main(
        [
            "summarize",
            "--model", str(cli_run / "fold0.ckpt"),
            "--video", str(video_file(cli_dataset)),
            "--budget", "0.2",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["budget_fraction"] == 0.2
    assert len(doc["frame_mask"]) == 30
    assert sum(doc["frame_mask"]) <= 6  # floor(0.2 * 30)
    assert doc["video_id"] == video_file(cli_dataset).stem


def test_summarize_full_budget_and_outputs(cli_run, cli_dataset, tmp_path):
    out = tmp_path / "summary.json"
    scores_out = tmp_path / "scores.json"
    code = main(
        [
            "summarize",
            "--model", str(cli_run / "fold0.ckpt"),
            "--video", str(video_file(cli_dataset)),
            "--budget", "1.0",
            "--out", str(out),
            "--scores-out", str(scores_out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["frame_mask"] == [1] * 30
    scores_doc = json.loads(scores_out.read_text())
    assert scores_doc["video_id"] == doc["video_id"]
    assert len(scores_doc["scores"]) == 30
    assert all(0.0 < s < 1.0 for s in scores_doc["scores"])


def test_summarize_feature_dim_mismatch_exit_1(cli_run, tmp_path, capsys):
    wide = tmp_path / "wide"
    assert main(
        [
            "gen-synthetic",
            "--out", str(wide),
            "--videos", "1",
            "--frames", "20",
            "--dim", "7",
        ]
    ) == 0
    code = main(
        [
            "summarize",
            "--model", str(cli_run / "fold0.ckpt"),
            "--video", str(video_file(wide / "manifest.json")),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert str(cli_run / "fold0.ckpt") in err and str(video_file(wide / "manifest.json")) in err
    assert "model feature dim 5" in err and "feature dim 7" in err


@pytest.mark.parametrize("epochs", ["1", "0"])
def test_train_hidden_too_large_for_memory_exit_1(cli_dataset, tmp_path, capsys, epochs):
    # one fold's parameters at --hidden 20000 would take 32 GB, 128 GB with its
    # gradients and Adam moments; the estimate rejects the run before any is allocated
    out = tmp_path / "run"
    argv = ["train", "--dataset", str(cli_dataset), "--out", str(out), "--hidden", "20000"]
    with traced_peak() as traced:
        code = main(argv + ["--epochs", epochs, "--no-cv"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "--hidden 20000" in err and "bytes" in err
    assert traced.peak < 2**20
    assert not out.exists()


def test_gen_synthetic_too_large_for_memory_exit_1(tmp_path, capsys):
    # one video of 2,000,000 frames at D=4000 would take 64 GB of float64 features
    out = tmp_path / "data"
    argv = ["gen-synthetic", "--videos", "1", "--frames", "2000000", "--dim", "4000"]
    with traced_peak() as traced:
        code = main(argv + ["--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "--frames 2000000" in err and "--dim 4000" in err and "bytes" in err
    assert traced.peak < 2**20
    assert not out.exists()


def test_summarize_too_long_for_kts_memory_exit_1(cli_run, tmp_path, capsys):
    long_video = tmp_path / "long.vsf"
    write_features(long_video, np.ones((20000, 5)))
    code = main(["summarize", "--model", str(cli_run / "fold0.ckpt"), "--video", str(long_video)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert str(long_video) in err and "20000 frames" in err and "bytes" in err


def test_evaluate_too_long_for_kts_memory_exit_1(tmp_path, capsys):
    assert main(
        ["gen-synthetic", "--out", str(tmp_path / "data"), "--videos", "1", "--frames", "20000"]
    ) == 0
    run = tmp_path / "run"
    run.mkdir()
    (run / "folds.json").write_text(json.dumps({"folds": [["video000"]]}))
    manifest = tmp_path / "data" / "manifest.json"
    code = main(["evaluate", "--run", str(run), "--dataset", str(manifest)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "video 'video000'" in err and "20000 frames" in err


@pytest.fixture(scope="module")
def long_run(tmp_path_factory):
    # 9427 frames at --max-shots 9427 is the first size whose KTS memory estimate (one
    # (T+1)^2 prefix table, two (T+1)^2 DP tables, three blocks of rows) is over its limit,
    # by 0.28 MB
    out = tmp_path_factory.mktemp("long")
    assert main(
        ["gen-synthetic", "--out", str(out / "data"), "--videos", "1", "--frames", "9427"]
    ) == 0
    manifest = out / "data" / "manifest.json"
    argv = ["train", "--dataset", str(manifest), "--out", str(out / "run"), "--no-cv"]
    assert main(argv + ["--epochs", "0", "--hidden", "6"]) == 0
    return out / "run", manifest


@pytest.mark.parametrize("metric, code", [("f", 1), ("all", 1), ("tau", 0), ("rho", 0)])
def test_evaluate_kts_memory_limit_only_when_f_is_wanted(long_run, capsys, metric, code):
    run, manifest = long_run
    argv = ["evaluate", "--run", str(run), "--dataset", str(manifest), "--metric", metric]
    assert main(argv + ["--max-shots", "9427"]) == code
    captured = capsys.readouterr()
    if code == 0:
        assert list(json.loads(captured.out)["per_fold"][0]) == ["fold", "num_videos", metric]
    else:
        assert captured.err.startswith("error:") and "Traceback" not in captured.err
        assert "video 'video000'" in captured.err and "9427 frames" in captured.err


# --- evaluate -----------------------------------------------------------------------------


def test_evaluate_report_file(cli_run, cli_dataset, tmp_path):
    out = tmp_path / "report.json"
    code = main(
        [
            "evaluate",
            "--run", str(cli_run),
            "--dataset", str(cli_dataset),
            "--out", str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["setting"] == "single"
    assert report["per_fold"][0]["num_videos"] == 4
    assert "mean_F" in report and "mean_tau" in report and "mean_rho" in report


def test_evaluate_metric_choice_and_determinism(cli_run, cli_dataset, tmp_path, capsys):
    code = main(
        ["evaluate", "--run", str(cli_run), "--dataset", str(cli_dataset), "--metric", "tau"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert "mean_tau" in report and "mean_F" not in report
    for k in ("a", "b"):
        assert main(
            [
                "evaluate",
                "--run", str(cli_run),
                "--dataset", str(cli_dataset),
                "--out", str(tmp_path / f"{k}.json"),
            ]
        ) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_evaluate_non_finite_metric_exit_1_and_no_report(
    cli_run, cli_dataset, tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr("hiersum.evaluation.spearman_rho", lambda pred, truth: float("nan"))
    out = tmp_path / "report.json"
    argv = ["evaluate", "--run", str(cli_run), "--dataset", str(cli_dataset)]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err and str(out) in err
    assert not out.exists()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: report:")


def test_summarize_non_finite_score_exit_1_and_no_files(
    cli_run, cli_dataset, tmp_path, capsys, monkeypatch
):
    real = cli_module.greedy_scores

    def nan_first_score(*args):
        scores = real(*args)
        scores[0][0] = np.nan
        return scores

    monkeypatch.setattr(cli_module, "greedy_scores", nan_first_score)
    out, scores_out = tmp_path / "summary.json", tmp_path / "scores.json"
    argv = [
        "summarize",
        "--model", str(cli_run / "fold0.ckpt"),
        "--video", str(video_file(cli_dataset)),
        "--out", str(out),
        "--scores-out", str(scores_out),
    ]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err and str(scores_out) in err
    assert not out.exists() and not scores_out.exists()


@pytest.mark.parametrize(
    "out_name", ["missing/summary.json", "a_directory"], ids=["missing_dir", "directory"]
)
def test_summarize_unwritable_out_exit_1_and_no_files(
    cli_run, cli_dataset, tmp_path, capsys, out_name
):
    # --scores-out is writable, --out is not: neither file, nor a temporary, is left
    (tmp_path / "a_directory").mkdir()
    out, scores_out = tmp_path / out_name, tmp_path / "scores.json"
    argv = [
        "summarize",
        "--model", str(cli_run / "fold0.ckpt"),
        "--video", str(video_file(cli_dataset)),
        "--out", str(out),
        "--scores-out", str(scores_out),
    ]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err and str(out) in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a_directory"]
    assert not any((tmp_path / "a_directory").iterdir())


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_summarize_non_finite_features_exit_1_and_no_files(
    cli_run, cli_dataset, tmp_path, capsys, value
):
    feats = read_features(video_file(cli_dataset)).copy()
    feats[7, 2] = value
    video = tmp_path / "bad.vsf"
    write_features(video, feats)
    out, scores_out = tmp_path / "summary.json", tmp_path / "scores.json"
    argv = [
        "summarize",
        "--model", str(cli_run / "fold0.ckpt"),
        "--video", str(video),
        "--out", str(out),
        "--scores-out", str(scores_out),
    ]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert str(video) in err and "non-finite" in err
    assert not out.exists() and not scores_out.exists()


@pytest.mark.filterwarnings("ignore:empty summary mask")  # no shot of 1 frame fits the budget
@pytest.mark.parametrize("metric, code", [("f", 0), ("tau", 1), ("all", 1)])
def test_evaluate_one_frame_video(cli_run, cli_dataset, tmp_path, capsys, metric, code):
    data = tmp_path / "data"
    shutil.copytree(cli_dataset.parent, data)
    entry = json.loads((data / "manifest.json").read_text())["videos"][2]
    write_features(data / entry["features"], read_features(data / entry["features"])[:1])
    scores, summaries = read_annotations(data / entry["annotations"])
    write_annotations(data / entry["annotations"], scores[:, :1], summaries[:, :1])
    argv = ["evaluate", "--run", str(cli_run), "--dataset", str(data / "manifest.json")]
    assert main(argv + ["--metric", metric]) == code
    captured = capsys.readouterr()
    if code == 0:
        assert json.loads(captured.out)["per_fold"][0]["num_videos"] == 4
    else:
        assert captured.err.startswith("error:") and "Traceback" not in captured.err
        assert "video 'video002' has 1 frame" in captured.err


def test_evaluate_rejects_user_summaries_that_are_not_0_or_1(
    cli_run, cli_dataset, tmp_path, capsys
):
    data = tmp_path / "data"
    shutil.copytree(cli_dataset.parent, data)
    path = data / json.loads((data / "manifest.json").read_text())["videos"][2]["annotations"]
    doc = json.loads(path.read_text())
    doc["user_summaries"][0][:3] = [0.5, float("nan"), -3]
    path.write_text(json.dumps(doc))
    argv = ["evaluate", "--run", str(cli_run), "--dataset", str(data / "manifest.json")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "video 'video002'" in err and "user_summaries" in err


def test_evaluate_missing_run_exit_1(cli_dataset, tmp_path, capsys):
    code = main(
        ["evaluate", "--run", str(tmp_path / "ghost"), "--dataset", str(cli_dataset)]
    )
    assert code == 1
    assert "folds.json" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, named",
    [
        ({"folds": [["ghost"]]}, "'ghost'"),
        ({"setting": "canonical"}, "'folds'"),
        ({"folds": "video000"}, "'folds'"),
        ({"folds": [[0]]}, "'folds'"),
        ({"folds": []}, "'folds'"),
        ({"folds": [["video000"], ["video001", "video000"]]}, "'video000'"),
        ('{"folds": [', "not valid JSON"),
        ({"folds": [[], ["video001", "video003"]]}, "fold 0"),
        ('{"setting": NaN, "folds": [["video000"], ["video001"]]}', "'setting'"),
        ({"setting": "cross", "folds": [["video000"], ["video001"]]}, "'setting'"),
        ({"setting": None, "folds": [["video000"], ["video001"]]}, "'setting'"),
    ],
    ids=[
        "unknown_id",
        "missing_folds",
        "folds_not_a_list",
        "id_not_a_string",
        "no_folds",
        "id_held_out_twice",
        "not_json",
        "empty_fold",
        "setting_nan",
        "setting_unknown",
        "setting_null",
    ],
)
def test_evaluate_bad_folds_json_exit_1(cli_run, cli_dataset, tmp_path, capsys, doc, named):
    run = tmp_path / "run"
    shutil.copytree(cli_run, run)
    (run / "folds.json").write_text(doc if isinstance(doc, str) else json.dumps(doc))
    code = main(["evaluate", "--run", str(run), "--dataset", str(cli_dataset)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "folds.json" in err and named in err


# --- malformed checkpoints ------------------------------------------------------------------


def drop_subtask_size(header):
    del header["meta"]["subtask_size"]
    return header


def drop_params(header):
    del header["params"]
    return header


def rename_param(header):
    header["params"][3]["name"] = "manager.head.weight"
    return header


def not_an_object(header):
    return [header]


def negative_shape(header):
    header["params"][0]["shape"][0] *= -1
    return header


def shape_past_file_end(header):
    header["params"][0]["shape"] = [3, 2**61]  # 8 * 3 * 2**61 bytes overflow a read size
    return header


def shape_wrapping_int64(header):
    header["params"][0]["shape"] = [2**32, 2**32]  # np.prod wraps around to 0
    return header


def name_listed_twice(header):
    header["params"][1]["name"] = header["params"][0]["name"]
    return header


def boolean_hidden(header):
    header["meta"]["hidden"] = True
    return header


def boolean_subtask_size(header):
    header["meta"]["subtask_size"] = True
    return header


def float_shape(header):
    header["params"][0]["shape"][0] += 0.0  # D + 0.0 used to load as D
    return header


def string_shape(header):
    header["params"][0]["shape"][0] = str(header["params"][0]["shape"][0])
    return header


def fractional_shape(header):
    header["params"][0]["shape"][0] += 0.9  # used to be truncated to D
    return header


def boolean_shape(header):
    (entry,) = [e for e in header["params"] if e["name"] == "manager.head.b"]
    entry["shape"] = [True]  # used to load as shape (1,)
    return header


@pytest.mark.parametrize("command", ["summarize", "evaluate"])
@pytest.mark.parametrize(
    "mangle",
    [
        drop_subtask_size,
        drop_params,
        rename_param,
        not_an_object,
        negative_shape,
        shape_past_file_end,
        shape_wrapping_int64,
        name_listed_twice,
        boolean_hidden,
        boolean_subtask_size,
        float_shape,
        string_shape,
        fractional_shape,
        boolean_shape,
    ],
)
def test_malformed_checkpoint_header_exit_1(cli_run, cli_dataset, tmp_path, capsys, command, mangle):
    run = tmp_path / "run"
    shutil.copytree(cli_run, run)
    ckpt = run / "fold0.ckpt"
    header_line, _, payload = ckpt.read_bytes().partition(b"\n")
    header = mangle(json.loads(header_line))
    ckpt.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    if command == "summarize":
        argv = ["summarize", "--model", str(ckpt), "--video", str(video_file(cli_dataset))]
    else:
        argv = ["evaluate", "--run", str(run), "--dataset", str(cli_dataset)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error:") and str(ckpt) in err
    if mangle in (
        shape_past_file_end,
        shape_wrapping_int64,
        name_listed_twice,
        float_shape,
        string_shape,
        fractional_shape,
    ):
        assert "'manager.lstm.Wx'" in err
    if mangle is boolean_shape:
        assert "'manager.head.b'" in err


@pytest.mark.parametrize("command", ["summarize", "evaluate"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_checkpoint_parameter_exit_1(
    cli_run, cli_dataset, tmp_path, capsys, command, value
):
    run = tmp_path / "run"
    shutil.copytree(cli_run, run)
    ckpt = run / "fold0.ckpt"
    store, meta = load_checkpoint(ckpt)
    store.params["worker.head.b"][0] = value
    save_checkpoint(ckpt, store, meta)
    out = tmp_path / "out.json"
    if command == "summarize":
        argv = ["summarize", "--model", str(ckpt), "--video", str(video_file(cli_dataset))]
    else:
        argv = ["evaluate", "--run", str(run), "--dataset", str(cli_dataset)]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert str(ckpt) in err and "'worker.head.b'" in err and "non-finite" in err
    assert not out.exists()
