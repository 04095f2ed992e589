"""The benchmark harness's own self-test passes against the current program.

``perfbench/selftest.py`` runs every workload at toy size through the same
code paths as the benchmark: the traced per-layer names, the CLI commands the
``files`` workload drives, and the failure accounting.  A renamed traced
function or a broken CLI path fails it.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_harness_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "selftest passed" in proc.stdout
