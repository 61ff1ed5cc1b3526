"""The demos stay runnable: every name they import from hiersum exists, and the quick ones run."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# a full training run, about 30 s; the import check still covers it
SLOW_DEMOS = {"train_synthetic.py"}


def hiersum_imports(path):
    """(module, name) per `from hiersum... import name`; (module, None) per `import hiersum...`."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hiersum":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "hiersum":
                    yield alias.name, None


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_imports_resolve(demo):
    imports = list(hiersum_imports(demo))
    assert imports, f"{demo.name} imports nothing from hiersum"
    missing = []
    for module, name in imports:
        owner = importlib.import_module(module)  # a module that is gone fails here
        if name is not None and not hasattr(owner, name):
            missing.append(f"{module}.{name}")
    assert missing == [], f"{demo.name} imports names hiersum no longer has"


def test_quick_demos_run(tmp_path):
    # one interpreter runs them all, so hiersum and numpy are imported once
    demos = [str(p) for p in DEMOS if p.name not in SLOW_DEMOS]
    runner = (
        "import runpy, sys\n"
        "for path in sys.argv[1:]:\n"
        "    print('--- demo', path, flush=True)\n"
        "    sys.argv = [path]\n"
        "    runpy.run_path(path, run_name='__main__')\n"
    )
    tmpdir = tmp_path / "tmp"  # the demos' temporary files, which must not outlive them
    tmpdir.mkdir()
    env = dict(os.environ, TMPDIR=str(tmpdir))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", runner, *demos],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
    assert proc.stdout.count("--- demo ") == len(demos)
    assert sorted(p.name for p in tmpdir.iterdir()) == [], "a demo left files in TMPDIR"


def test_dataset_roundtrip_writes_only_inside_its_out_dir(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "dataset_roundtrip.py"), str(tmp_path / "out")],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["demo_data", "demo_data_again"]
