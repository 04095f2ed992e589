"""Command-line surface: generate benchmarks, fit models, evaluate
predictions, and report the oracle cross-checks of ``oracle.run_checks``.

Verbosity is set by the ``MMCLUST_LOG`` environment variable: ``debug``, ``info``,
``warning`` (the default), ``error`` or ``critical``.  Any other value is named
in a ``warning:`` line on stderr and read as ``warning``.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from .data import (
    DataError, MultiViewDataset, _as_count, _as_labels, _read_json, _read_labels, _write_dataset,
    load_dataset,
)
from .metrics import Partition, accuracy, nmi
from .solver import FitConfig, SolverError, fit
from .synth import SynthSpec, baseline_regression_cluster, generate

__all__ = ["cli_main", "main"]


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"expected a comma-separated integer list, got '{text}'") from None


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_gen(args: argparse.Namespace) -> int:
    spec = SynthSpec(
        n_instances=args.n,
        n_views=args.views,
        n_clusters=args.k,
        dims=_parse_int_list(args.dims),
        separation=args.sep,
        noise_views=args.noise_views,
        seed=args.seed,
    )
    out_dir = Path(args.out)
    _write_dataset(generate(spec), out_dir)
    print(f"wrote {spec.n_views} views, labels.csv, and manifest.json to {out_dir}")
    return 0


def _print_and_write(report, out: str | None) -> int:
    print(
        f"model={report.model} converged={report.converged} "
        f"iterations={report.n_iterations} objective={report.trace[-1].objective:.6e}"
    )
    if out:
        # through this module's ``Path``, so that a patched ``Path`` sees every report write
        Path(out).write_text(report.to_json() + "\n", encoding="utf-8")
        print(f"report written to {out}")
    return 0


def _load(args: argparse.Namespace) -> MultiViewDataset:
    """The manifest's dataset, which must hold at least ``--k`` instances;
    ``--k`` below 1 is rejected before the manifest is read."""
    if args.k < 1:
        raise ValueError(f"--k must be at least 1, got {args.k}")
    dataset = load_dataset(args.manifest)
    if args.k > dataset.n_instances:
        raise DataError(
            f"{args.manifest}: n_clusters {args.k} exceeds its {dataset.n_instances} instances"
        )
    return dataset


def _cmd_fit(args: argparse.Namespace) -> int:
    dataset = _load(args)
    config = FitConfig(
        rank=args.rank, gamma=args.gamma, max_outer_iters=args.max_iters, outer_tol=args.tol,
        cg_tol=args.cg_tol, cg_max_iters=args.cg_max_iters, seed=args.seed,
    )
    return _print_and_write(fit(dataset, args.k, config), args.out)


def _cmd_baseline(args: argparse.Namespace) -> int:
    dataset = _load(args)
    config = FitConfig(rank=args.k, gamma=args.gamma, seed=args.seed)
    return _print_and_write(baseline_regression_cluster(dataset, args.k, config), args.out)


def _cmd_eval(args: argparse.Namespace) -> int:
    report_path = Path(args.report)
    report = _read_json(report_path, "report")
    try:
        pred = _as_labels(report["labels"])
        k = _as_count(report["n_clusters"], "n_clusters")
        if int(pred.max()) >= k:
            raise DataError(f"labels must be below n_clusters = {k}, got {pred.max()}")
    except DataError as exc:
        raise DataError(f"{report_path}: {exc}") from None
    except (KeyError, TypeError, ValueError):
        raise DataError(f"{report_path}: report lacks 'labels'/'n_clusters' fields") from None
    true = _read_labels(Path(args.labels), pred.size)
    true_p = Partition.from_labels(true)
    pred_p = Partition.from_labels(pred, k=k)
    print(f"ACC {accuracy(true_p, pred_p):.6f}")
    print(f"NMI {nmi(true_p, pred_p):.6f}")
    return 0


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    # imported here so that no other command pays for loading the oracles
    from . import oracle

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


# flags that set a ``FitConfig`` field take their defaults from it
def _add_model_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gamma", type=float, default=FitConfig.gamma, help="regularization weight")
    p.add_argument("--seed", type=int, default=FitConfig.seed, help="RNG seed")
    p.add_argument("--out", type=str, default=None, help="write the JSON report here")


def _add_fit_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rank", type=int, default=FitConfig.rank, help="number of factor components")
    _add_model_options(p)
    p.add_argument("--tol", type=float, default=FitConfig.outer_tol,
                   help="relative objective-change stop threshold")
    p.add_argument("--max-iters", type=int, default=FitConfig.max_outer_iters,
                   help="outer iteration cap")
    p.add_argument("--cg-tol", type=float, default=FitConfig.cg_tol,
                   help="CG relative residual tolerance")
    p.add_argument("--cg-max-iters", type=int, default=FitConfig.cg_max_iters,
                   help="CG iteration cap")


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

    p = sub.add_parser("eval", help="score a report's labels against ground truth")
    p.add_argument("report", type=str, help="fit report (JSON)")
    p.add_argument("labels", type=str, help="ground-truth labels file, one integer per line")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("oracle-check", help="run the dual-path equivalence checks")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.set_defaults(handler=_cmd_oracle_check)

    return parser


def _configure_logging() -> None:
    levels = {
        "debug": logging.DEBUG, "info": logging.INFO, "warning": logging.WARNING,
        "error": logging.ERROR, "critical": logging.CRITICAL,
    }
    name = os.environ.get("MMCLUST_LOG", "warning")
    level = levels.get(name.lower())
    if level is None:
        print(f"warning: MMCLUST_LOG={name!r} is not one of {', '.join(levels)}; "
              "using warning", file=sys.stderr)
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
        # paths and tokens from the input may hold control characters; each
        # is escaped so the one error line reaches the terminal as text
        message = "".join(c if c.isprintable() else repr(c)[1:-1] for c in str(exc))
        print(f"error: {message}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
