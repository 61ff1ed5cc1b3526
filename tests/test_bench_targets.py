"""Every function the benchmark's tracer wraps still exists where the tracer looks for it.

bench/tracing.py replaces each TARGETS entry at its module attribute and
binds the arguments its counter reads by name. A rename in the program
otherwise shows up only inside the output of the traced smoke run.

The same TARGETS are the only imports a program module may bind and not use.
"""

import ast
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = load_tracing().TARGETS


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
    traced = {attr for owner, attr, _, _ in TARGETS if owner == module}
    unused = sorted(set(module_imports(tree)) - used - traced)
    assert unused == [], f"{module} imports {unused} and never uses them"
