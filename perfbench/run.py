"""mmclust benchmark: times fits through the public API and the CLI and checks
every output.

Run from the repository root:

    python3 perfbench/run.py --workload small --seed 1 --seconds 35 --trace 0

One process, one client, closed loop: each op starts only after the previous
one returns.  The workload seed derives a fixed panel of inputs; the program
receives only those generated inputs.  A plain run makes a fixed number of ops,
``--seconds`` times the workload's nominal op rate and at least one full pass
over the panel, cycling through it; repeats of an input double as a
determinism check.  The op count depends only on the arguments, never on the
clock, so ``attempted`` and ``failed`` repeat exactly for a given seed.  ``--trace 1`` runs the first half of the panel twice per input, once
plain and once with spans recorded, and reports the per-layer split.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A line before it
carries provenance and report digests; the same record, and with ``--trace 1``
every span, is written under ``.perfbench_out/``.
"""

import os

# Pinned before numpy is first imported in this process.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import dataclasses
import hashlib
import importlib
import inspect
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

from spans import Tracer, patched, summarize

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"

GAMMA = 1e-3
SEPARATION = 6.0
# An objective step counts as a rise only beyond this relative slack.
RISE_SLACK = 1e-9
# Every view-factor entry below this magnitude is a collapsed (all-zero) model.
COLLAPSE_TOL = 1e-12


class SetupError(RuntimeError):
    """The benchmark cannot produce a trustworthy result; nothing is reported."""


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class FitWorkload:
    """In-memory fits: ``synth.generate`` then ``mmclust.fit``, one op per input."""

    n: int
    dims: tuple[int, ...]
    k: int
    rank: int
    max_outer_iters: int
    panel: int
    ops_per_s: float  # plain-run ops per second of --seconds

    def toy(self, panel: int = 1) -> "FitWorkload":
        return dataclasses.replace(
            self, n=60, dims=(4,) * len(self.dims), rank=3, max_outer_iters=3, panel=panel
        )


@dataclasses.dataclass(frozen=True)
class FilesWorkload:
    """On-disk CLI path: ``mmclust gen`` writes each dataset (set-up), the timed
    op is ``mmclust baseline`` from manifest to written report, and
    ``mmclust eval`` re-scores the report (untimed).  Each dataset is fitted
    with ``seeds_per_dataset`` baseline seeds."""

    n: int
    dims: tuple[int, ...]
    k: int
    datasets: int
    seeds_per_dataset: int
    ops_per_s: float  # plain-run ops per second of --seconds

    @property
    def panel(self) -> int:
        return self.datasets * self.seeds_per_dataset

    def toy(self, panel: int = 1) -> "FilesWorkload":
        return dataclasses.replace(
            self, n=200, dims=(4,) * len(self.dims), k=3, datasets=panel, seeds_per_dataset=1
        )


# Panels are sized so one pass takes about 30 s on a 2-core AMD EPYC host; the
# op rates make a 35 s run one pass plus a few repeats on that host.
WORKLOADS = {
    "small": FitWorkload(n=300, dims=(10, 10, 10), k=3, rank=10, max_outer_iters=100,
                         panel=200, ops_per_s=6.0),
    "wide": FitWorkload(n=1000, dims=(50, 50, 50), k=3, rank=20, max_outer_iters=10,
                        panel=46, ops_per_s=1.37),
    "files": FilesWorkload(n=5000, dims=(20, 20, 20), k=10, datasets=12, seeds_per_dataset=4,
                           ops_per_s=1.45),
}


@dataclasses.dataclass
class Input:
    """One panel entry: an in-memory dataset and config, or a dataset on disk
    for the CLI."""

    index: int
    seed: int
    k: int
    labels: np.ndarray
    dataset: object = None
    config: object = None
    manifest: Path | None = None
    labels_path: Path | None = None
    report_path: Path | None = None
    n_bytes: int = 0


def input_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _quiet(fn, *args):
    """Call ``fn`` with standard output captured; returns (result, output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result = fn(*args)
    return result, buf.getvalue()


def prepare_inputs(prog, workload, seed: int, workdir: Path):
    """Build the panel of inputs for ``seed``; returns (inputs, set-up seconds
    per dataset)."""
    inputs, prep = [], []
    if isinstance(workload, FitWorkload):
        for index, s in enumerate(input_seeds(seed, workload.panel)):
            t0 = time.perf_counter()
            spec = prog.synth.SynthSpec(
                workload.n, len(workload.dims), workload.k, workload.dims, SEPARATION, seed=s
            )
            dataset = prog.synth.generate(spec)
            config = prog.solver.FitConfig(
                rank=workload.rank, gamma=GAMMA, max_outer_iters=workload.max_outer_iters, seed=s
            )
            prep.append(time.perf_counter() - t0)
            inputs.append(Input(index, s, workload.k, np.asarray(dataset.labels), dataset, config))
        return inputs, prep

    seeds = input_seeds(seed, workload.panel)
    report_path = workdir / "report.json"
    for d in range(workload.datasets):
        data_seed = seeds[d * workload.seeds_per_dataset]
        out = workdir / f"data{d}"
        t0 = time.perf_counter()
        rc, _ = _quiet(prog.cli.cli_main, [
            "gen", "--n", str(workload.n), "--k", str(workload.k),
            "--views", str(len(workload.dims)),
            "--dims", ",".join(str(x) for x in workload.dims),
            "--sep", str(SEPARATION), "--seed", str(data_seed), "--out", str(out),
        ])
        prep.append(time.perf_counter() - t0)
        if rc != 0:
            raise SetupError(f"mmclust gen exited {rc} for dataset {d}")
        labels = np.loadtxt(out / "labels.csv", dtype=np.int64, ndmin=1)
        n_bytes = sum(p.stat().st_size for p in out.iterdir())
        for j in range(workload.seeds_per_dataset):
            index = d * workload.seeds_per_dataset + j
            inputs.append(Input(
                index, seeds[index], workload.k, labels,
                manifest=out / "manifest.json", labels_path=out / "labels.csv",
                report_path=report_path, n_bytes=n_bytes,
            ))
    return inputs, prep


# ---------------------------------------------------------------------------
# The program under test
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Program:
    mmclust: object
    data: object
    solver: object
    synth: object
    metrics: object
    cli: object


def load_program(root: Path) -> tuple[Program, float]:
    """Import mmclust from ``root/src``; returns the modules and import seconds."""
    src = root / "src"
    if not (src / "mmclust" / "__init__.py").is_file():
        raise SetupError(f"no mmclust sources under {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    mods = {
        name: importlib.import_module("mmclust" if name == "mmclust" else f"mmclust.{name}")
        for name in ("mmclust", "data", "solver", "synth", "metrics", "cli")
    }
    import_s = time.perf_counter() - t0
    origin = Path(mods["mmclust"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SetupError(f"imported mmclust from {origin}, not from {src}")
    return Program(**mods), import_s


def blas_threads() -> tuple[int, str]:
    """Thread count and build string of the OpenBLAS bundled with numpy."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("libscipy_openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for suffix in ("64_", ""):
            get_threads = getattr(handle, f"scipy_openblas_get_num_threads{suffix}", None)
            get_config = getattr(handle, f"scipy_openblas_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_threads.argtypes = []
                get_config.restype = ctypes.c_char_p
                get_config.argtypes = []
                return int(get_threads()), get_config().decode()
    raise SetupError(f"cannot find numpy's bundled OpenBLAS under {libdir}")


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def provenance(root: Path, threads: int, openblas: str) -> dict:
    import scipy

    sources = hashlib.sha256()
    for path in sorted((root / "src" / "mmclust").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "blas_threads": threads,
        "blas_env": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "git_commit": _git_commit(root),
        "src_sha256": sources.hexdigest(),
    }


# ---------------------------------------------------------------------------
# Tracing: wrappers go where the program looks functions up
# ---------------------------------------------------------------------------


def apply_h_work(x_vec, A, B, C, D_diag, gamma):
    """Computed (flop, byte) counts of one ``apply_H`` call, from operand shapes.

    Flops: ``A.T @ X`` and ``A @ .`` (2mnr each), ``. @ C`` (2nr^2), two
    elementwise products with B (nr each), the diagonal term (3mr).  Bytes:
    every numpy operation reads its operands and writes its result once, in
    float64; caches are ignored.
    """
    m, n = A.shape
    r = B.shape[1]
    flop = 4 * m * n * r + 2 * n * r * r + 2 * n * r + 3 * m * r
    byte = 8 * (2 * m * n + 10 * n * r + 11 * m * r + m + r * r)
    return float(flop), float(byte)


# IRLSState.from_weights calls irls_diag; leaving it unwrapped keeps those
# rebuilds in fit's self time, where the outer-loop overhead is measured.
UNTRACED = {"irls_diag"}


def trace_replacements(prog: Program, tracer: Tracer) -> list:
    """(owner, attribute, wrapper) triples for every public function of the
    program's modules, in every module namespace that holds a reference."""
    modules = (prog.mmclust, prog.data, prog.solver, prog.synth, prog.metrics, prog.cli)
    homes = {m.__name__: m for m in modules[1:]}
    wrappers, out = {}, []
    for owner in modules:
        for attr, fn in list(vars(owner).items()):
            home = homes.get(getattr(fn, "__module__", None))
            if not inspect.isfunction(fn) or home is None or fn.__name__ in UNTRACED:
                continue
            if fn.__name__ not in getattr(home, "__all__", ()):
                continue
            if fn not in wrappers:
                name = f"{home.__name__.rsplit('.', 1)[-1]}.{fn.__name__}"
                work = apply_h_work if fn.__name__ == "apply_H" else None
                wrappers[fn] = tracer.wrap(name, fn, work)
            out.append((owner, attr, wrappers[fn]))

    report_cls = prog.solver.FitReport
    out.append((report_cls, "to_json", tracer.wrap("solver.FitReport.to_json", report_cls.to_json)))

    # the CLI writes its report through Path(...).write_text
    base = type(prog.cli.Path())
    traced_write = tracer.wrap("cli.write_text", base.write_text)

    class TracedPath(base):
        def write_text(self, *args, **kwargs):
            return traced_write(self, *args, **kwargs)

    out.append((prog.cli, "Path", TracedPath))
    return out


# ---------------------------------------------------------------------------
# Ops and their checks
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Op:
    index: int  # input index; -1 for the warm-up
    seconds: float
    traced: bool
    failures: list
    wrong: bool  # an output disagreed with an independent check
    acc: float = 0.0
    nmi: float = 0.0
    digest: str | None = None
    n_iterations: int = 0
    converged: bool = False
    objective: float = 0.0
    cg_iters: tuple = ()
    cg_cap: int = 0
    roots: tuple = ()  # (op span, check span) when traced


def _error(exc: Exception) -> str:
    traceback.print_exc(file=sys.stderr)
    return f"{type(exc).__name__}: {exc}"


def run_op(prog: Program, inp: Input):
    """The timed call.  Returns (seconds, report or None, error or None); an
    exception is a failed op, counted and never dropped."""
    if inp.manifest is None:
        t0 = time.perf_counter()
        try:
            report = prog.mmclust.fit(inp.dataset, inp.k, inp.config)
        except Exception as exc:
            return time.perf_counter() - t0, None, _error(exc)
        return time.perf_counter() - t0, report, None

    captured = []
    inner = prog.cli.baseline_regression_cluster

    def capture(*args, **kwargs):
        captured.append(inner(*args, **kwargs))
        return captured[-1]

    argv = [
        "baseline", str(inp.manifest), "--k", str(inp.k), "--gamma", str(GAMMA),
        "--seed", str(inp.seed), "--out", str(inp.report_path),
    ]
    with patched([(prog.cli, "baseline_regression_cluster", capture)]):
        t0 = time.perf_counter()
        try:
            rc, _ = _quiet(prog.cli.cli_main, argv)
        except Exception as exc:
            return time.perf_counter() - t0, None, _error(exc)
        seconds = time.perf_counter() - t0
    if rc != 0:
        return seconds, None, f"mmclust baseline exited {rc}"
    if not captured:
        return seconds, None, "mmclust baseline returned no report"
    return seconds, captured[-1], None


def check_op(prog: Program, inp: Input, report, op: Op) -> None:
    """Fill ``op`` with the checks' verdicts, scores and report statistics."""
    labels = np.asarray(report.labels)
    if labels.shape != inp.labels.shape or not np.all((labels >= 0) & (labels < inp.k)):
        op.failures.append("labels out of range")
        op.wrong = True
        return
    arrays = (report.objectives, report.indicator.matrix, report.weights.cluster_factor,
              *report.weights.view_factors)
    if not all(np.all(np.isfinite(a)) for a in arrays):
        op.failures.append("non-finite output")
        op.wrong = True
    obj = report.objectives
    if np.any(obj[1:] > obj[:-1] + RISE_SLACK * np.abs(obj[:-1])):
        op.failures.append("objective rose")
        op.wrong = True
    if all(np.all(np.abs(f) < COLLAPSE_TOL) for f in report.weights.view_factors):
        op.failures.append("collapsed to all-zero view factors")

    true_p = prog.metrics.Partition.from_labels(inp.labels)
    pred_p = prog.metrics.Partition.from_labels(labels, k=inp.k)
    op.acc = prog.metrics.accuracy(true_p, pred_p)
    op.nmi = prog.metrics.nmi(true_p, pred_p)
    op.digest = hashlib.sha256(report.to_json(include_timing=False).encode()).hexdigest()
    op.n_iterations = report.n_iterations
    op.converged = bool(report.converged)
    op.objective = float(obj[-1])
    op.cg_iters = tuple(s.iterations for rec in report.trace for s in rec.cg)
    op.cg_cap = report.config.cg_max_iters

    if inp.manifest is not None:
        rc, text = _quiet(prog.cli.cli_main, ["eval", str(inp.report_path), str(inp.labels_path)])
        printed = dict(parts for parts in map(str.split, text.splitlines()) if len(parts) == 2)
        if rc != 0 or printed.get("ACC") != f"{op.acc:.6f}":
            op.failures.append(f"eval printed ACC {printed.get('ACC')}, in-process {op.acc:.6f}")
            op.wrong = True


def execute(prog: Program, inp: Input, tracer: Tracer | None = None, replacements=()) -> Op:
    """Run one op and check it; with a tracer, inside the traced namespaces."""
    if tracer is None:
        seconds, report, error = run_op(prog, inp)
        op = Op(inp.index, seconds, False, [error] if error else [], False)
        if report is not None:
            check_op(prog, inp, report, op)
        return op
    with patched(replacements):
        with tracer.span("bench.op") as op_root:
            seconds, report, error = run_op(prog, inp)
        op = Op(inp.index, seconds, True, [error] if error else [], False)
        with tracer.span("bench.check") as check_root:
            if report is not None:
                check_op(prog, inp, report, op)
    op.roots = (op_root, check_root)
    return op


# ---------------------------------------------------------------------------
# Runs and metrics
# ---------------------------------------------------------------------------


def _per_input_first(ops):
    first = {}
    for op in ops:
        if op.index >= 0 and not op.traced:
            first.setdefault(op.index, op)
    return [first[i] for i in sorted(first)]


def mark_nondeterminism(ops) -> None:
    """An input whose repeated ops give different report digests fails."""
    seen = {}
    for op in ops:
        if op.index < 0 or op.digest is None:
            continue
        if seen.setdefault(op.index, op.digest) != op.digest:
            op.failures.append("report differs from an earlier op on the same input")
            op.wrong = True


def end_to_end_metrics(ops, setup_s: float) -> dict:
    timed = {}
    for op in ops:
        if op.index >= 0:
            timed.setdefault(op.index, []).append(op.seconds)
    first = _per_input_first(ops)
    failed = sum(1 for op in ops if op.failures)
    return {
        "fit_s": (statistics.median(statistics.fmean(v) for v in timed.values()), "s"),
        "acc": (statistics.fmean(op.acc for op in first), "fraction"),
        "nmi": (statistics.fmean(op.nmi for op in first), "fraction"),
        "ok_frac": (1.0 - failed / len(ops), "fraction"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer_metrics(ops, tracer: Tracer, inputs) -> dict:
    traced = [op for op in ops if op.traced]
    plain = {op.index: op.seconds for op in ops if not op.traced and op.index >= 0}
    n = len(traced)
    arrays = tracer.arrays()
    in_op = summarize(arrays, tracer.names, [op.roots[0] for op in traced])
    in_all = summarize(arrays, tracer.names, [r for op in traced for r in op.roots])

    def total(name, key="s"):
        return in_op.get(name, {}).get(key, 0.0)

    def per_op(name, key="s"):
        return total(name, key) / n

    apply_calls, apply_s = total("solver.apply_H", "calls"), total("solver.apply_H")
    apply_flop = total("solver.apply_H", "flop")
    cg = [it for op in traced for it in op.cg_iters]
    capped = sum(1 for op in traced for it in op.cg_iters if it >= op.cg_cap)
    n_bytes = {inp.index: inp.n_bytes for inp in inputs}
    load_bytes = per_op("data.load_dataset", "calls") * statistics.fmean(
        n_bytes[op.index] for op in traced
    )
    # metrics functions nest (accuracy calls optimal_label_matching): sum self times
    metrics_s = sum(v["self_s"] for k, v in in_all.items() if k.startswith("metrics."))
    ratios = [op.seconds / plain[op.index] for op in traced if op.index in plain]

    return {
        "solver.apply_H.calls": (apply_calls / n, "count"),
        "solver.apply_H.s": (apply_s / n, "s"),
        "solver.apply_H.us_per_call": (1e6 * apply_s / apply_calls if apply_calls else 0.0, "us"),
        "solver.apply_H.gflop": (apply_flop / n / 1e9, "GFLOP"),
        "solver.apply_H.gbyte": (total("solver.apply_H", "byte") / n / 1e9, "GB"),
        "solver.apply_H.gflop_per_s": (apply_flop / apply_s / 1e9 if apply_s else 0.0, "GFLOP/s"),
        "solver.cg.iters": (sum(cg) / n, "count"),
        "solver.cg.iters_per_solve": (sum(cg) / len(cg) if cg else 0.0, "count"),
        "solver.cg.iters_max": (float(max(cg, default=0)), "count"),
        "solver.cg.solves": (len(cg) / n, "count"),
        "solver.cg.capped": (capped / n, "count"),
        "solver.cg.capped_frac": (capped / len(cg) if cg else 0.0, "fraction"),
        "solver.update_view_weights.s": (per_op("solver.update_view_weights"), "s"),
        "solver.compute_embedding.calls": (per_op("solver.compute_embedding", "calls"), "count"),
        "solver.compute_embedding.s": (per_op("solver.compute_embedding"), "s"),
        "solver.fit.self_s": (per_op("solver.fit", "self_s"), "s"),
        "solver.outer.iters": (statistics.fmean(op.n_iterations for op in traced), "count"),
        "solver.outer.converged_frac": (statistics.fmean(op.converged for op in traced), "fraction"),
        "solver.update_cluster_weights.s": (per_op("solver.update_cluster_weights"), "s"),
        "solver.update_indicator.s": (per_op("solver.update_indicator"), "s"),
        "solver.nearest_orthonormal.s": (per_op("solver.nearest_orthonormal"), "s"),
        "solver.objective.s": (per_op("solver.objective"), "s"),
        "solver.objective.final": (statistics.fmean(op.objective for op in traced), "value"),
        "solver.extract_labels.s": (per_op("solver.extract_labels"), "s"),
        "data.load_dataset.s": (per_op("data.load_dataset"), "s"),
        "data.load_dataset.bytes": (load_bytes, "byte"),
        "data.normalize_views.s": (per_op("data.normalize_views"), "s"),
        "data.augment.s": (per_op("data.augment"), "s"),
        "synth.baseline_regression_cluster.s": (per_op("synth.baseline_regression_cluster"), "s"),
        "synth.baseline_regression_cluster.self_s": (
            per_op("synth.baseline_regression_cluster", "self_s"), "s"),
        "cli.report_json.s": (per_op("solver.FitReport.to_json") + per_op("cli.write_text"), "s"),
        "cli.cli_main.self_s": (per_op("cli.cli_main", "self_s"), "s"),
        "metrics.s": (metrics_s / n, "s"),
        "trace.overhead_frac": (statistics.median(ratios) - 1.0, "fraction"),
    }


def run(prog: Program, workload, seed: int, seconds: float, trace: bool, workdir: Path,
        import_s: float = 0.0, extra_inputs=()):
    """Set up, warm up, measure and check one workload.

    ``extra_inputs`` are appended to the panel (the self-test injects a
    failing input this way).  Returns (result, ops, tracer).
    """
    inputs, prep = prepare_inputs(prog, workload, seed, workdir)
    inputs.extend(extra_inputs)

    warm_dir = workdir / "warmup"
    warm_dir.mkdir()
    t0 = time.perf_counter()
    (warm_input,), _ = prepare_inputs(prog, workload.toy(), seed, warm_dir)
    warm_input.index = -1
    ops = [execute(prog, warm_input)]
    warmup_s = time.perf_counter() - t0
    setup_s = import_s + warmup_s + statistics.median(prep)

    rc, _ = _quiet(prog.cli.cli_main, ["oracle-check"])
    oracle_ok = rc == 0

    tracer = None
    if trace:
        tracer = Tracer()
        replacements = trace_replacements(prog, tracer)
        for inp in inputs[: max(1, (len(inputs) + 1) // 2)]:
            ops.append(execute(prog, inp))
            ops.append(execute(prog, inp, tracer, replacements))
    else:
        n_ops = max(len(inputs), round(seconds * workload.ops_per_s))
        for i in range(n_ops):
            ops.append(execute(prog, inputs[i % len(inputs)]))

    mark_nondeterminism(ops)
    failed = sum(1 for op in ops if op.failures)
    if trace:
        values = per_layer_metrics(ops, tracer, inputs)
    else:
        values = end_to_end_metrics(ops, setup_s)
    result = {
        "correct": oracle_ok and not any(op.wrong for op in ops),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": unit} for name, (v, unit) in values.items()},
    }
    return result, ops, tracer


def _record(args, prov, result, ops) -> dict:
    first = _per_input_first(ops)
    digests = [op.digest or "" for op in first]
    reasons = {}
    for op in ops:
        for reason in op.failures:
            key = reason.split(":")[0]
            reasons[key] = reasons.get(key, 0) + 1
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": prov,
        "correct": result["correct"],
        "failed_frac": result["failed"] / result["attempted"],
        "failure_reasons": reasons,
        "digest_of_digests": hashlib.sha256("\n".join(digests).encode()).hexdigest(),
        "ops": [
            {"input": op.index, "seconds": op.seconds, "traced": op.traced,
             "failures": op.failures, "acc": op.acc, "nmi": op.nmi,
             "iterations": op.n_iterations, "converged": op.converged,
             "cg_capped": sum(1 for it in op.cg_iters if it >= op.cg_cap),
             "cg_solves": len(op.cg_iters), "report_sha256": op.digest}
            for op in ops
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        prog, import_s = load_program(ROOT)
        threads, openblas = blas_threads()
        if threads != 1:
            raise SetupError(f"OpenBLAS runs {threads} threads; the benchmark needs 1")
        prov = provenance(ROOT, threads, openblas)
        WORK_DIR.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
        try:
            result, ops, tracer = run(
                prog, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                workdir, import_s,
            )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    record = _record(args, prov, result, ops)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.save(OUT_DIR / f"spans-{args.workload}.npz")
    summary = {k: record[k] for k in ("provenance", "failed_frac", "failure_reasons",
                                      "digest_of_digests")}
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
