"""Self-test of the benchmark harness at toy sizes.

Run from the repository root:

    python3 perfbench/selftest.py

For every workload it runs a toy-size panel with tracing off and on, and
asserts that exactly the metrics BENCHMARK.json names are emitted, each with
its unit.  It then appends an input whose dataset has an all-zero view (the
fit raises DataError; the CLI exits nonzero) and asserts that the failure is
counted in ``failed`` and lowers ``ok_frac`` instead of vanishing.  Exits 0
when every assertion holds.
"""

import json
import math
import sys
import tempfile
from pathlib import Path

import run  # pins the BLAS threads before numpy is imported

import numpy as np


def zero_view_input(prog, workload, workdir: Path, index: int) -> run.Input:
    """A panel input whose first view is all zeros, so normalization raises."""
    rng = np.random.default_rng(index)
    n = workload.n
    labels = np.arange(n) % workload.k
    views = [np.zeros((workload.dims[0], n))]
    views += [rng.standard_normal((d, n)) for d in workload.dims[1:]]
    if isinstance(workload, run.FitWorkload):
        dataset = prog.data.MultiViewDataset(tuple(views), labels=labels)
        config = prog.solver.FitConfig(rank=workload.rank, gamma=run.GAMMA, seed=index)
        return run.Input(index, index, workload.k, labels, dataset, config)
    out = workdir / "zero_view"
    out.mkdir()
    names = []
    for i, view in enumerate(views):
        names.append(f"view{i}.csv")
        np.savetxt(out / names[-1], view, delimiter=",")
    np.savetxt(out / "labels.csv", labels, fmt="%d")
    (out / "manifest.json").write_text(json.dumps({"views": names, "labels": "labels.csv"}))
    return run.Input(
        index, index, workload.k, labels, manifest=out / "manifest.json",
        labels_path=out / "labels.csv", report_path=workdir / "report.json",
    )


def check_metrics(result: dict, expected: dict, label: str) -> None:
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, f"{label}: metrics differ from BENCHMARK.json: {got} != {expected}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float) and math.isfinite(m["value"]), f"{label}: {name}"
    assert result["attempted"] >= 1, label
    assert result["correct"], f"{label}: checks failed"


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {
        trace: {m["name"]: m["unit"] for m in bench[key]}
        for trace, key in ((False, "end_to_end"), (True, "per_layer"))
    }
    prog, _ = run.load_program(run.ROOT)
    run.WORK_DIR.mkdir(exist_ok=True)
    for name, workload in run.WORKLOADS.items():
        toy = workload.toy(panel=2)
        for trace in (False, True):
            label = f"{name} trace={int(trace)}"
            with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as tmp:
                result, _, _ = run.run(prog, toy, 7, 0.0, trace, Path(tmp))
            check_metrics(result, expected[trace], label)
            print(f"ok   {label}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} ops, {result['failed']} failed")

        with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as tmp:
            bad = zero_view_input(prog, toy, Path(tmp), index=toy.panel)
            result, ops, _ = run.run(prog, toy, 7, 0.0, False, Path(tmp), extra_inputs=[bad])
        bad_ops = [op for op in ops if op.index == bad.index]
        assert bad_ops and all(op.failures for op in bad_ops), f"{name}: injected failure vanished"
        assert result["failed"] >= len(bad_ops), f"{name}: failure not counted"
        assert result["metrics"]["ok_frac"]["value"] < 1.0, f"{name}: ok_frac ignores the failure"
        print(f"ok   {name} injected failure: {result['failed']} of {result['attempted']} "
              f"ops failed ({bad_ops[0].failures[0]})")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
