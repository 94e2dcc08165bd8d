"""The benchmark's own self-test, run as part of the suite.

`perfbench/selftest.py` runs both benchmark workloads on tiny inputs and
fails when a per-layer metric reads 0 on both, so a change that renames or
bypasses a traced layer fails here and not only when the benchmark runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
