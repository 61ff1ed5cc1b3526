"""hiersum benchmark: one workload per run, timed from outside the program.

    python3 bench/run.py --workload train-cv --seed 1 --seconds 40 --trace 0

Builds the workload's inputs from --seed and repeats set-up and the
workload's CLI call for about --seconds of set-up and call time, checks
every output and prints one JSON result as the last line of standard
output. The first set-up and call warm up: they are checked but not timed.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 rounds
after the warm-up alternate between traced and untraced, the traced ones
give the per-layer metrics, and the difference between the two kinds is
the tracing overhead.
Scratch files go under .bench_work/ at the repository root and are removed
at exit, except the span file a traced run writes to .bench_work/traces/.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def import_cli():
    """hiersum.cli from this checkout's sources, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "hiersum" / "__init__.py").is_file():
        raise SystemExit(f"error: no hiersum sources under {src}")
    sys.path.insert(0, str(src))
    import hiersum.cli  # noqa: F401


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy ships, or the environment setting."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")


def git_head():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (ROOT / ".git" / name).is_file():
        return (ROOT / ".git" / name).read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + name):
            return line.split()[0]
    return None


def environment(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_head": git_head(),
    }


def make_cli(main, tracer=None):
    """A function running one `hiersum` command in-process: argv -> (exit code, seconds)."""

    def cli(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            start = time.perf_counter()
            try:
                with tracer.span("cli.main") if tracer else contextlib.nullcontext():
                    code = main(argv)
            except SystemExit as exc:
                code = exc.code
            seconds = time.perf_counter() - start
        if code != 0:
            print(f"hiersum {argv[0]} exited with {code}", file=sys.stderr)
        return code, seconds

    return cli


def run(workload, seed, seconds, trace, work):
    """Set up, run rounds for about `seconds` and check them.

    Returns (result, check failures, tracer or None, [(traced, seconds, units)] per timed round).
    """
    program = sys.modules["hiersum.cli"]
    tracer = tracing.Tracer() if trace else None
    with contextlib.ExitStack() as patches:
        for owner, attr, make in getattr(workload, "patches", list)():
            patches.enter_context(tracing.replaced(sys.modules[owner], attr, make))

        setup_times, records, errors = [], [], []
        attempted = failed = k = 0
        measured = 0.0  # set-up and round time so far; checks do not count against `seconds`
        while True:
            # a fresh set-up before every round, so that the set-up median, like the
            # round median, samples the machine over the whole run
            iteration = time.perf_counter()
            target = work / "setup"
            shutil.rmtree(target, ignore_errors=True)
            with tracer.installed("setup") if tracer else contextlib.nullcontext():
                set_up = time.perf_counter()
                code, _ = workload.setup(target, np.random.default_rng(seed), make_cli(program.main, tracer))
                if k > 0:
                    setup_times.append(time.perf_counter() - set_up)
            if code != 0:
                raise SystemExit(f"error: {workload.name} set-up failed")
            traced = tracer is not None and k % 2 == 1
            with tracer.installed("round") if traced else contextlib.nullcontext():
                code, secs, ops, units = workload.round(target, k, make_cli(program.main, tracer if traced else None))
            spent = time.perf_counter() - iteration
            measured += spent
            if traced:
                tracer.rounds += 1
            attempted += ops
            if code == 0:
                if k > 0:
                    records.append((traced, secs, units))
                errors += workload.check(target, k)
            else:
                failed += ops
            k += 1
            # the first set-up and round warm up and are checked but not timed; start
            # another pair only if one more of the same length still fits
            if k >= (3 if trace else 2) and measured + spent > seconds:
                break

    plain = [(secs, units) for traced, secs, units in records if not traced]
    if not plain:
        raise SystemExit(f"error: no {workload.name} round succeeded")
    if trace:
        metrics = tracer.layer_metrics()
        traced_secs = [secs for traced, secs, _ in records if traced]
        untraced = statistics.median(secs for secs, _ in plain)
        overhead = (statistics.median(traced_secs) / untraced - 1.0) * 100.0 if traced_secs else 0.0
        metrics["trace.overhead_pct"] = (overhead, "%")
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "per_video_s": (statistics.median(secs / units for secs, units in plain), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, errors, tracer, records


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_cli()

    env = environment(args.seed)
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload]()
        result, errors, tracer, records = run(workload, args.seed, args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    if tracer is not None:
        traces = ROOT / ".bench_work" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.write(traces / f"{args.workload}-seed{args.seed}.json", {"workload": args.workload, "env": env})
    print("env " + json.dumps(env, sort_keys=True))
    print(f"{args.workload} rounds (traced, seconds): {[(t, round(s, 3)) for t, s, _ in records]}")
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        name, unit, value = workload.headline(result["metrics"]["per_video_s"]["value"])
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
