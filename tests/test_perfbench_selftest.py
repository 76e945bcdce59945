"""The benchmark's own self-test must pass against the current library.

``perfbench/selftest.py`` runs every workload, traced and untraced, at toy
size with all of its gates, span coverage included.  It calls library
functions by name and signature (``heads.predict``, ``distill.train``,
``select_best``, ``save_bundle``, ``build_bundle``), so a change to one of
them fails here instead of in a benchmark run.
"""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
