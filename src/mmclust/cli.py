"""Command-line surface: generate benchmarks, fit models, sweep ranks,
evaluate predictions, and report the oracle cross-checks of ``oracle.run_checks``.

Verbosity is controlled by the ``MMCLUST_LOG`` environment variable (one of
``debug``, ``info``, ``warning``, ``error``).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import oracle
from .data import DataError, _read_labels, load_dataset
from .metrics import Partition, accuracy, nmi
from .solver import FitConfig, SolverError, fit
from .synth import SynthSpec, baseline_regression_cluster, generate

__all__ = ["cli_main", "main"]


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ValueError(f"expected a comma-separated integer list, got '{text}'") from None


def _write_matrix(path: Path, matrix: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in matrix:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def _write_labels(path: Path, labels: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for value in labels:
            fh.write(f"{int(value)}\n")


def _fit_config_from(args: argparse.Namespace, rank: int | None = None) -> FitConfig:
    return FitConfig(
        rank=args.rank if rank is None else rank,
        gamma=args.gamma,
        max_outer_iters=args.max_iters,
        outer_tol=args.tol,
        cg_tol=args.cg_tol,
        cg_max_iters=args.cg_max_iters,
        irls_epsilon=args.irls_epsilon,
        seed=args.seed,
        init_scale=args.init_scale,
    )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_gen(args: argparse.Namespace) -> int:
    dims = _parse_int_list(args.dims)
    spec = SynthSpec(
        n_instances=args.n,
        n_views=args.views,
        n_clusters=args.k,
        dims=dims,
        separation=args.sep,
        noise_views=args.noise_views,
        seed=args.seed,
    )
    dataset = generate(spec)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    view_files = []
    for i, view in enumerate(dataset.views, start=1):
        name = f"view{i}.csv"
        _write_matrix(out_dir / name, view)
        view_files.append(name)
    _write_labels(out_dir / "labels.csv", dataset.labels)
    manifest = {
        "views": view_files,
        "labels": "labels.csv",
        "names": [f"view{i}" for i in range(1, spec.n_views + 1)],
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {spec.n_views} views, labels.csv, and manifest.json to {out_dir}")
    return 0


def _print_and_write(report, out: str | None) -> int:
    print(
        f"model={report.model} converged={report.converged} "
        f"iterations={report.n_iterations} objective={report.trace[-1].objective:.6e}"
    )
    if out:
        Path(out).write_text(report.to_json() + "\n", encoding="utf-8")
        print(f"report written to {out}")
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.manifest)
    return _print_and_write(fit(dataset, args.k, _fit_config_from(args)), args.out)


def _cmd_baseline(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.manifest)
    config = FitConfig(rank=args.k, gamma=args.gamma, seed=args.seed)
    return _print_and_write(baseline_regression_cluster(dataset, args.k, config), args.out)


def _cmd_sweep(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.manifest)
    if dataset.labels is None:
        raise DataError("sweep needs ground-truth labels: add a labels file to the manifest")
    ranks = _parse_int_list(args.ranks)
    if not ranks:
        raise ValueError("sweep needs at least one rank")
    true_p = Partition.from_labels(dataset.labels)
    best = None
    for rank in ranks:
        report = fit(dataset, args.k, _fit_config_from(args, rank=rank))
        pred_p = Partition.from_labels(report.labels, k=args.k)
        acc_val = accuracy(true_p, pred_p)
        nmi_val = nmi(true_p, pred_p)
        print(
            f"rank {rank}: ACC {acc_val:.6f} NMI {nmi_val:.6f} "
            f"converged={report.converged} iterations={report.n_iterations}"
        )
        if best is None or nmi_val > best[1]:
            best = (rank, nmi_val, acc_val, report)
    print(f"best rank {best[0]} by NMI ({best[1]:.6f}, ACC {best[2]:.6f})")
    if args.out:
        Path(args.out).write_text(best[3].to_json() + "\n", encoding="utf-8")
        print(f"best report written to {args.out}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    report_path = Path(args.report)
    if not report_path.is_file():
        raise DataError(f"report not found: {report_path}")
    try:
        report = json.loads(report_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"{report_path}: invalid report JSON ({exc})") from None
    try:
        pred = np.asarray(report["labels"], dtype=np.int64)
        k = int(report["n_clusters"])
    except (KeyError, TypeError, ValueError):
        raise DataError(f"{report_path}: report lacks 'labels'/'n_clusters' fields") from None
    true = _read_labels(Path(args.labels), pred.size)
    true_p = Partition.from_labels(true)
    pred_p = Partition.from_labels(pred, k=k)
    print(f"ACC {accuracy(true_p, pred_p):.6f}")
    print(f"NMI {nmi(true_p, pred_p):.6f}")
    return 0


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    results = oracle.run_checks(seed=args.seed)
    failed = 0
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        print(f"{status} {name} ({detail})")
        failed += 0 if ok else 1
    if failed:
        print(f"{failed} of {len(results)} checks failed", file=sys.stderr)
        return 1
    print(f"all {len(results)} checks passed")
    return 0


# ---------------------------------------------------------------------------
# Parser and entry points
# ---------------------------------------------------------------------------


def _add_model_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gamma", type=float, default=0.01, help="regularization weight")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("--out", type=str, default=None, help="write the JSON report here")


def _add_fit_options(p: argparse.ArgumentParser, with_rank: bool = True) -> None:
    if with_rank:
        p.add_argument("--rank", type=int, default=10, help="number of factor components")
    _add_model_options(p)
    p.add_argument("--tol", type=float, default=1e-6, help="relative objective-change stop threshold")
    p.add_argument("--max-iters", type=int, default=100, help="outer iteration cap")
    p.add_argument("--cg-tol", type=float, default=1e-8, help="CG relative residual tolerance")
    p.add_argument("--cg-max-iters", type=int, default=500, help="CG iteration cap")
    p.add_argument("--irls-epsilon", type=float, default=1e-12, help="row-norm guard in the reweighting")
    p.add_argument("--init-scale", type=float, default=0.1, help="uniform factor initialization scale")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmclust",
        description="Multi-view clustering through CP-factorized full-order view interactions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic multi-view benchmark")
    p.add_argument("--n", type=int, required=True, help="number of instances")
    p.add_argument("--k", type=int, required=True, help="number of clusters")
    p.add_argument("--views", type=int, required=True, help="number of views")
    p.add_argument("--dims", type=str, required=True, help="comma-separated view dimensionalities")
    p.add_argument("--sep", type=float, default=6.0, help="center separation in noise-sigma units")
    p.add_argument("--noise-views", type=int, default=0, help="trailing views replaced by pure noise")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("--out", type=str, required=True, help="output directory")
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("fit", help="fit the multi-linear model to a dataset")
    p.add_argument("manifest", type=str, help="dataset manifest (JSON)")
    p.add_argument("--k", type=int, required=True, help="number of clusters")
    _add_fit_options(p)
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("baseline", help="fit the concatenated linear-regression baseline")
    p.add_argument("manifest", type=str, help="dataset manifest (JSON)")
    p.add_argument("--k", type=int, required=True, help="number of clusters")
    _add_model_options(p)
    p.set_defaults(handler=_cmd_baseline)

    p = sub.add_parser("sweep", help="fit over a rank grid and report the best by NMI")
    p.add_argument("manifest", type=str, help="dataset manifest (JSON), must declare labels")
    p.add_argument("--k", type=int, required=True, help="number of clusters")
    p.add_argument("--ranks", type=str, default="10,20,30,40,50", help="comma-separated rank grid")
    _add_fit_options(p, with_rank=False)
    p.set_defaults(handler=_cmd_sweep, rank=None)

    p = sub.add_parser("eval", help="score a report's labels against ground truth")
    p.add_argument("report", type=str, help="fit report (JSON)")
    p.add_argument("labels", type=str, help="ground-truth labels file, one integer per line")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("oracle-check", help="run the dual-path equivalence checks")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.set_defaults(handler=_cmd_oracle_check)

    return parser


def _configure_logging() -> None:
    name = os.environ.get("MMCLUST_LOG", "warning").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def cli_main(argv=None) -> int:
    """Parse arguments and run one subcommand; returns the process exit code."""
    _configure_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        return args.handler(args)
    except (DataError, SolverError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
