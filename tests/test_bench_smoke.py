"""The benchmark smoke test passes on this tree.

``bench/smoke.py`` runs every workload for one pass, untraced and traced: it
checks that every job passes its output check, that the traced run wraps
every traced function, and that the metric names match BENCHMARK.json.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "bench/smoke.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-2000:]
