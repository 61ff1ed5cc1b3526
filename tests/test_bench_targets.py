"""Every function the benchmark's tracer wraps still exists where the tracer looks for it.

bench/tracing.py replaces each TARGETS entry at its module attribute and
binds the arguments its counter reads by name. A rename in the program
otherwise shows up only inside the output of the traced smoke run.
"""

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
