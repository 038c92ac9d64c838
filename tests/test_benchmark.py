"""The benchmark's own self-test, run as part of the test suite.

``perfbench/run.py --quick`` runs every workload for an untraced, a traced
and another untraced round with all output checks.  It fails when a traced
function is renamed or moved, or when a scale-ladder case fails with other
than its named exception type.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_quick_self_test():
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr
