"""Every function the benchmark's tracer wraps still exists where the tracer looks for it,
and the commands call it there.

bench/tracing.py replaces each TARGETS entry at its module attribute and
binds the arguments its counter reads by name. A rename in the program
otherwise shows up only inside the output of the traced smoke run, and a
target the program no longer calls only as a span that reads 0.

No program module may bind an import it does not use, and, but for a short
allowlist, no definition may go unreferenced by program code.
"""

import ast
import functools
import importlib
import importlib.util
import inspect
import re
from contextlib import ExitStack
from pathlib import Path

import pytest

from hiersum.cli import main

ROOT = Path(__file__).resolve().parent.parent


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = load_tracing()
TARGETS = TRACING.TARGETS


def counter_arguments(counter):
    """The argument names a counter reads, as args["name"] or args.get("name")."""
    source = inspect.getsource(counter)
    return set(re.findall(r'args(?:\["|\.get\(")(\w+)"', source))


def test_counters_read_the_arguments_named_in_the_benchmark():
    # guards counter_arguments itself: a counter it can no longer parse would pass vacuously
    read = set().union(*(counter_arguments(c) for *_, c in TARGETS if c is not None))
    assert {"features", "max_shots", "values", "capacity", "videos"} <= read


@pytest.mark.parametrize(
    "owner, attr, counter",
    [(owner, attr, counter) for owner, attr, _, counter in TARGETS],
    ids=[f"{owner}.{attr}" for owner, attr, _, _ in TARGETS],
)
def test_tracer_target_resolves(owner, attr, counter):
    module_name, _, class_name = owner.partition(":")
    obj = importlib.import_module(module_name)
    if class_name:
        assert hasattr(obj, class_name), f"{module_name} has no attribute {class_name!r}"
        obj = getattr(obj, class_name)
    assert hasattr(obj, attr), f"{owner} has no attribute {attr!r}"
    if counter is None:
        return
    params = inspect.signature(getattr(obj, attr)).parameters
    missing = sorted(counter_arguments(counter) - set(params))
    assert missing == [], f"{owner}.{attr} has no argument {missing} that {counter.__name__} reads"


@pytest.fixture(scope="module")
def traced_pass(tmp_path_factory):
    """One tiny pass through the four commands, traced as a benchmark round is.

    Returns the tracer and the calls made through each TARGETS (owner, attr),
    counted by a wrapper of its own around the tracer's.
    """
    tmp_path = tmp_path_factory.mktemp("traced")
    data, run = tmp_path / "data", tmp_path / "run"
    manifest = str(data / "manifest.json")
    commands = [
        ["gen-synthetic", "--out", str(data), "--videos", "4", "--frames", "40", "--dim", "5"],
        [
            "train", "--dataset", manifest, "--out", str(run), "--folds", "2", "--epochs", "1",
            "--episodes", "2", "--hidden", "6", "--subtask-size", "10",
        ],
        [
            "summarize", "--model", str(run / "fold0.ckpt"), "--video", str(data / "video000.vsf"),
            "--out", str(tmp_path / "summary.json"),
        ],
        ["evaluate", "--run", str(run), "--dataset", manifest, "--out", str(tmp_path / "report.json")],
    ]  # fmt: skip
    tracer = TRACING.Tracer()
    calls = dict.fromkeys([(owner, attr) for owner, attr, *_ in TARGETS], 0)

    def counting(key, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return counted

    with tracer.installed("round"), ExitStack() as stack:
        for key in calls:
            owner = TRACING._resolve(key[0])
            stack.enter_context(TRACING.replaced(owner, key[1], functools.partial(counting, key)))
        for argv in commands:
            assert main(argv) == 0, argv
    return tracer, calls


def test_every_tracer_target_records_a_span(traced_pass):
    tracer, _ = traced_pass
    recorded = {name for name, *_ in tracer.spans}
    blind = sorted({name for _, _, name, _ in TARGETS} - recorded)
    assert blind == [], f"the commands never call the tracer's {blind}"


def test_every_tracer_target_is_called(traced_pass):
    # a span name can be recorded through one entry while another entry of the
    # same name, at a different module attribute, is never called
    _, calls = traced_pass
    never = sorted(f"{owner}.{attr}" for (owner, attr), count in calls.items() if count == 0)
    assert never == [], f"the commands never call {never} where the tracer wraps it"


def module_imports(tree):
    """Names bound by the module-level imports of a parsed module, __future__ excluded."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


PROGRAM_MODULES = [p for p in sorted((ROOT / "src" / "hiersum").glob("*.py")) if p.stem != "__init__"]


@pytest.mark.parametrize("path", PROGRAM_MODULES, ids=[p.name for p in PROGRAM_MODULES])
def test_module_imports_are_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    module = f"hiersum.{path.stem}"
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(module_imports(tree)) - used)
    assert unused == [], f"{module} imports {unused} and never uses them"


# definitions that stay although no program module refers to them
UNREFERENCED_ALLOWED = {
    ("training", "train"): "the one-fold library entry, train_folds on one video list",
    ("nn", "grad_check"): "the finite-difference checker of criterion 1 and demos/gradient_checking.py",
}


def top_level_references(node):
    """Names a module-level statement refers to: bare names and attribute names."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr


def test_every_program_definition_is_used_by_the_program():
    # a module-level def or class must be named by program code other than itself
    # or imported by another program module; docstrings do not count, and neither
    # do the re-exports of hiersum/__init__.py
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in PROGRAM_MODULES}
    referenced = set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in trees:
                referenced.update((node.module, alias.name) for alias in node.names)
                continue
            own = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            referenced.update((module, name) for name in top_level_references(node) if name != own)
    unused = sorted(
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and (module, node.name) not in referenced | set(UNREFERENCED_ALLOWED)
    )
    assert unused == [], f"no program code uses {unused}"
