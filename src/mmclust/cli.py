"""Command-line surface: generate benchmarks, fit models, sweep ranks,
evaluate predictions, and run the oracle cross-check suite.

Verbosity is controlled by the ``MMCLUST_LOG`` environment variable (one of
``debug``, ``info``, ``warning``, ``error``).
"""

from __future__ import annotations

import argparse
import itertools
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import oracle, solver
from .data import DataError, MultiViewDataset, _read_labels, augment, load_dataset
from .metrics import Partition, accuracy, nmi
from .solver import FitConfig, SolverError, fit
from .synth import SynthSpec, baseline_regression_cluster, generate

__all__ = ["cli_main", "main", "run_oracle_checks"]


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


def _cmd_fit(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.manifest)
    report = fit(dataset, args.k, _fit_config_from(args))
    print(
        f"model={report.model} converged={report.converged} "
        f"iterations={report.n_iterations} objective={report.trace[-1].objective:.6e}"
    )
    if args.out:
        Path(args.out).write_text(report.to_json() + "\n", encoding="utf-8")
        print(f"report written to {args.out}")
    return 0


def _cmd_baseline(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.manifest)
    report = baseline_regression_cluster(dataset, args.k, _fit_config_from(args, rank=args.k))
    print(
        f"model={report.model} converged={report.converged} "
        f"iterations={report.n_iterations} objective={report.trace[-1].objective:.6e}"
    )
    if args.out:
        Path(args.out).write_text(report.to_json() + "\n", encoding="utf-8")
        print(f"report written to {args.out}")
    return 0


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


# ---------------------------------------------------------------------------
# Oracle cross-checks
# ---------------------------------------------------------------------------


def _random_model(rng, n=7, dims=(3, 2, 4), k=3, rank=2):
    views = tuple(rng.standard_normal((d, n)) for d in dims)
    z = augment(MultiViewDataset(views))
    factors = tuple(rng.standard_normal((d + 1, rank)) for d in dims)
    cluster = rng.standard_normal((k, rank))
    weights = solver.CPWeights(factors, cluster)
    q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    indicator = solver.ClusterIndicator(q)
    return z, weights, indicator


def _exhaustive_accuracy(true_labels, pred_labels):
    """Best matched fraction over every permutation of the padded label set."""
    kt = int(np.max(true_labels)) + 1
    kp = int(np.max(pred_labels)) + 1
    size = max(kt, kp)
    table = np.zeros((size, size), dtype=np.int64)
    np.add.at(table, (np.asarray(true_labels), np.asarray(pred_labels)), 1)
    best = max(
        sum(int(table[perm[p], p]) for p in range(size))
        for perm in itertools.permutations(range(size))
    )
    return best / len(true_labels)


def run_oracle_checks(seed: int = 0):
    """Run every dual-path equivalence check; returns (name, ok, detail) tuples."""
    results = []

    def record(name, ok, detail):
        results.append((name, bool(ok), detail))

    rng = np.random.default_rng(seed)

    # factorized scores against the materialized weight tensor
    worst = 0.0
    for _ in range(60):
        dims = tuple(int(rng.integers(1, 5)) for _ in range(int(rng.integers(1, 4))))
        k = int(rng.integers(1, 4))
        rank = int(rng.integers(1, 4))
        z, weights, _ = _random_model(rng, n=int(rng.integers(2, 6)), dims=dims, k=k, rank=rank)
        scores = solver.predict_scores(z, weights)
        full = oracle.materialize_cp(weights)
        for n_idx in range(z.n_instances):
            for k_idx in range(k):
                ref = oracle.full_tensor_predict(z, full, n_idx, k_idx)
                worst = max(worst, abs(scores[n_idx, k_idx] - ref))
    record("score-vs-full-tensor", worst < 1e-10, f"max |delta| {worst:.3e} over 60 draws")

    # matrix-free operator against the dense Kronecker assembly
    worst = 0.0
    for _ in range(40):
        m, n, r = (int(rng.integers(1, 7)) for _ in range(3))
        A = rng.standard_normal((m, n))
        B = rng.standard_normal((n, r))
        G = rng.standard_normal((r, r))
        C = G.T @ G
        d = rng.uniform(0.1, 2.0, size=m)
        gamma = float(rng.uniform(0.01, 2.0))
        x = rng.standard_normal(m * r)
        dense = oracle.dense_H(A, B, C, d, gamma) @ x
        fast = solver.apply_H(x, A, B, C, d, gamma)
        worst = max(worst, np.linalg.norm(dense - fast) / max(np.linalg.norm(dense), 1e-30))
    record("operator-vs-dense-system", worst < 1e-10, f"max rel err {worst:.3e} over 40 draws")

    # dense system is symmetric positive definite for PSD C and gamma > 0
    min_eig, max_asym = np.inf, 0.0
    for _ in range(10):
        m, n, r = (int(rng.integers(1, 6)) for _ in range(3))
        A = rng.standard_normal((m, n))
        B = rng.standard_normal((n, r))
        G = rng.standard_normal((r, r))
        H = oracle.dense_H(A, B, G.T @ G, rng.uniform(0.1, 1.0, size=m), 0.5)
        max_asym = max(max_asym, float(np.max(np.abs(H - H.T))))
        min_eig = min(min_eig, float(np.linalg.eigvalsh(H).min()))
    record(
        "dense-system-spd",
        min_eig > 0 and max_asym < 1e-10,
        f"min eigenvalue {min_eig:.3e}, max asymmetry {max_asym:.3e}",
    )

    # vec/Kronecker identity
    worst = 0.0
    for _ in range(20):
        a = rng.standard_normal((int(rng.integers(1, 6)), int(rng.integers(1, 6))))
        b = rng.standard_normal((int(rng.integers(1, 6)), int(rng.integers(1, 6))))
        x = rng.standard_normal((a.shape[1], b.shape[0]))
        lhs = np.kron(b.T, a) @ x.ravel(order="F")
        rhs = (a @ x @ b).ravel(order="F")
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    record("vec-kronecker-identity", worst < 1e-12, f"max |delta| {worst:.3e} over 20 draws")

    # view-factor CG solves meet their residual contract
    ok, worst = True, 0.0
    config = FitConfig(rank=3, gamma=0.05)
    for _ in range(10):
        z, weights, indicator = _random_model(rng, n=8, dims=(3, 4), k=3, rank=3)
        view = int(rng.integers(0, 2))
        _, stats = solver.update_view_weights(view, z, weights, indicator, config)
        ok = ok and (stats.converged or stats.iterations >= config.cg_max_iters)
        worst = max(worst, stats.residual)
    record("view-solve-residual", ok, f"max rel residual {worst:.3e} over 10 draws")

    # a budgeted view update lowers the quadratic 1/2 x'Hx - b'x of its dense
    # system below the value at the (random, far from optimal) warm start, and
    # never takes more steps than its budget
    ok, worst = True, -np.inf
    for _ in range(4):
        z, weights, indicator = _random_model(rng, n=8, dims=(3, 4), k=3, rank=3)
        view = int(rng.integers(0, 2))
        A = z.z_views[view]
        other = 1 - view
        B = z.z_views[other].T @ weights.view_factors[other]
        cf = weights.cluster_factor
        d = solver.irls_diag(weights.view_factors[view], config.irls_epsilon)
        H = oracle.dense_H(A, B, cf.T @ cf, d, config.gamma)
        b = (A @ (B * (indicator.matrix @ cf))).ravel(order="F")

        def quadratic(x):
            return 0.5 * float(x @ H @ x) - float(b @ x)

        start = quadratic(weights.view_factors[view].ravel(order="F"))
        for budget in (1, 2, 5):
            new, stats = solver.update_view_weights(
                view, z, weights, indicator, config, max_iters=budget
            )
            change = (quadratic(new.ravel(order="F")) - start) / max(abs(start), 1.0)
            ok = ok and change < 0.0 and stats.iterations <= budget
            worst = max(worst, change)
    record(
        "budgeted-view-solve-descent",
        ok,
        f"max relative quadratic change {worst:.3e}, budgets 1/2/5 over 4 draws",
    )

    # cluster-factor solve satisfies its stationarity equation
    worst = 0.0
    for _ in range(10):
        z, weights, indicator = _random_model(rng, n=8, dims=(3, 4), k=3, rank=3)
        new_cf = solver.update_cluster_weights(z, weights, indicator, config)
        emb = solver.compute_embedding(z, weights)
        gram = emb.T @ emb
        p = solver.irls_diag(weights.cluster_factor, config.irls_epsilon)
        lhs = new_cf @ gram + config.gamma * p[:, None] * new_cf
        target = indicator.matrix.T @ emb
        worst = max(
            worst,
            float(np.linalg.norm(lhs - target)) / (1.0 + float(np.linalg.norm(target))),
        )
    record("cluster-solve-residual", worst < 1e-8, f"max scaled residual {worst:.3e} over 10 draws")

    # indicator update: orthonormal and no random orthonormal candidate beats it
    ok, worst_gram = True, 0.0
    for _ in range(5):
        z, weights, _ = _random_model(rng, n=8, dims=(3, 4), k=3, rank=3)
        indicator = solver.update_indicator(z, weights)
        f = indicator.matrix
        worst_gram = max(
            worst_gram, float(np.max(np.abs(f.T @ f - np.eye(f.shape[1]))))
        )
        scores = solver.predict_scores(z, weights)
        trace_best = float(np.trace(f.T @ scores))
        for _ in range(200):
            q, _ = np.linalg.qr(rng.standard_normal(f.shape))
            if float(np.trace(q.T @ scores)) > trace_best + 1e-10:
                ok = False
    record(
        "indicator-procrustes-optimality",
        ok and worst_gram < 1e-8,
        f"max gram deviation {worst_gram:.3e}, 200 candidates/draw",
    )

    # Hungarian matching equals exhaustive permutation search
    ok = True
    for _ in range(200):
        n = int(rng.integers(1, 7))
        true_labels = rng.integers(0, int(rng.integers(1, 5)), size=n)
        pred_labels = rng.integers(0, int(rng.integers(1, 5)), size=n)
        true_p = Partition.from_labels(true_labels)
        pred_p = Partition.from_labels(pred_labels)
        if abs(accuracy(true_p, pred_p) - _exhaustive_accuracy(true_labels, pred_labels)) > 1e-12:
            ok = False
    record("matching-vs-exhaustive", ok, "200 random partition pairs, sizes <= 6")

    # NMI equals a direct contingency-table recomputation
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 30))
        kt, kp = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        t = rng.integers(0, kt, size=n)
        p = rng.integers(0, kp, size=n)
        fast = nmi(Partition.from_labels(t, k=kt), Partition.from_labels(p, k=kp))
        table = np.zeros((kt, kp))
        for i in range(n):
            table[t[i], p[i]] += 1
        pt, pp = table.sum(1) / n, table.sum(0) / n
        ht = -sum(q * np.log(q) for q in pt if q > 0)
        hp = -sum(q * np.log(q) for q in pp if q > 0)
        if ht == 0.0 and hp == 0.0:
            ref = 1.0
        elif ht == 0.0 or hp == 0.0:
            ref = 0.0
        else:
            info = sum(
                (table[i, j] / n) * np.log(n * table[i, j] / (table[i, :].sum() * table[:, j].sum()))
                for i in range(kt)
                for j in range(kp)
                if table[i, j] > 0
            )
            ref = info / np.sqrt(ht * hp)
        worst = max(worst, abs(fast - min(max(ref, 0.0), 1.0)))
    record("nmi-vs-contingency", worst < 1e-12, f"max |delta| {worst:.3e} over 100 draws")

    return results


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    results = run_oracle_checks(seed=args.seed)
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


def _add_fit_options(p: argparse.ArgumentParser, with_rank: bool = True) -> None:
    if with_rank:
        p.add_argument("--rank", type=int, default=10, help="number of factor components")
    p.add_argument("--gamma", type=float, default=0.01, help="row-sparsity regularization weight")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("--tol", type=float, default=1e-6, help="relative objective-change stop threshold")
    p.add_argument("--max-iters", type=int, default=100, help="outer iteration cap")
    p.add_argument("--cg-tol", type=float, default=1e-8, help="CG relative residual tolerance")
    p.add_argument("--cg-max-iters", type=int, default=500, help="CG iteration cap")
    p.add_argument("--irls-epsilon", type=float, default=1e-12, help="row-norm guard in the reweighting")
    p.add_argument("--init-scale", type=float, default=0.1, help="uniform factor initialization scale")
    p.add_argument("--out", type=str, default=None, help="write the JSON report here")


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
    _add_fit_options(p, with_rank=False)
    p.set_defaults(handler=_cmd_baseline, rank=None)

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
