"""The benchmark's smoke test, run as part of the test suite.

The benchmark wraps functions at module attributes (for example
``hiersum.training.manager_forward``) and reads argument names such as
``features``; a rename in the program breaks it, and this test fails.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "smoke.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
