"""The benchmark's self-test runs against this checkout's sources.

perfbench calls the solver's environment, best response, pushforward and
grids, the engine and the harness directly, and its traced runs require named
layers to run; a change that breaks any of them fails here, not only when the
benchmark runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
