"""Fixtures shared by several test modules."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture()
def fresh_interpreter():
    """Run a Python script in a new interpreter that imports mmclust from
    ``src`` and return the numbers it printed.  A warm interpreter has already
    paid for numpy's first calls, so allocation peaks are measured in a fresh
    one."""

    def run(script: str) -> list[float]:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
        return [float(tok) for tok in proc.stdout.split()]

    return run
