"""The benchmark's self-check, run as a test.

`bench/run.py --check` runs four shortened searches, one per search
shape the benchmark measures, and holds each to its reference counts
(states expanded, ships, outcome, deepening rounds, compactions,
narrowings), re-verifying every emitted ship. It measures no time.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.slow
def test_bench_check_holds_reference_counts():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--check"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
