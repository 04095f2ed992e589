"""The program's import path loads numpy and the standard library only.

A fresh interpreter imports ``mmclust`` and ``mmclust.cli`` and runs ``gen``,
``fit``, ``baseline`` and ``eval`` on a tiny dataset, so the label matching behind
``eval``'s accuracy runs too.  No ``scipy`` module may be loaded after those
calls: an import moved inside a function would still cost its start-up time,
only at the first call instead of at import.  Nor may ``mmclust.oracle``,
which only ``oracle-check`` needs.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

SCRIPT = """
import sys

import mmclust
import mmclust.cli
from mmclust.cli import cli_main

out = sys.argv[1]
assert cli_main([
    "gen", "--n", "30", "--k", "3", "--views", "2", "--dims", "3,2",
    "--seed", "0", "--out", out,
]) == 0
assert cli_main(["fit", f"{out}/manifest.json", "--k", "3", "--rank", "2", "--max-iters", "2"]) == 0
assert cli_main(["baseline", f"{out}/manifest.json", "--k", "3", "--out", f"{out}/report.json"]) == 0
assert cli_main(["eval", f"{out}/report.json", f"{out}/labels.csv"]) == 0
print("oracle loaded:", "mmclust.oracle" in sys.modules)
print("scipy modules:", sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_cli_run_loads_no_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "ACC " in proc.stdout
    assert proc.stdout.splitlines()[-2:] == ["oracle loaded: False", "scipy modules: []"]
