"""Command line front end: train runs, benchmark grids, and a self test.

Outputs land under --out when given, else the config's output_dir, else
$LOSSPRIO_OUT, else ./runs.  Runs are deterministic: the same config and
seeds produce byte-identical metrics files regardless of --threads.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

from . import selftest
from .config import (
    BenchmarkConfig,
    ExperimentConfig,
    build_datasets,
    load_benchmark_config,
    load_experiment_config,
    resolved_config_json,
)
from .datasets import CorruptionSpec, write_snapshot_csv
from .errors import AggregationError, ConfigurationError, IngestionError
from .harness import aggregate_seeds, compute_speedup, run_training, save_run
from .prioritizers import PrioritizerConfig

OUTPUT_ROOT_ENV = "LOSSPRIO_OUT"


def _resolve_output_dir(cli_out: str | None, config_out: str | None, fallback_name: str) -> Path:
    if cli_out:
        return Path(cli_out)
    if config_out:
        return Path(config_out)
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root:
        return Path(root) / fallback_name
    return Path("runs") / fallback_name


def _run_one_seed(train, test, trainer_cfg, prio_cfg, eval_every, seed, run_dir):
    trainer = replace(trainer_cfg, seed=seed)
    prio = replace(prio_cfg, seed=prio_cfg.seed + seed)
    metrics = run_training(
        train, test, trainer, prio, eval_every,
        checkpoint_path=run_dir / "model.npz" if run_dir else None,
    )
    if run_dir is not None:
        save_run(metrics, run_dir)
    return metrics


def _run_seeds(train, test, trainer_cfg, prio_cfg, eval_every, seeds, out_dir, threads):
    """One training run per seed, optionally in parallel; order preserved."""
    dirs = [out_dir / f"seed_{s}" if out_dir else None for s in seeds]
    if out_dir is not None:
        for d in dirs:
            d.mkdir(parents=True, exist_ok=True)
    if threads > 1 and len(seeds) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [
                pool.submit(_run_one_seed, train, test, trainer_cfg, prio_cfg,
                            eval_every, s, d)
                for s, d in zip(seeds, dirs)
            ]
            return [f.result() for f in futures]
    return [
        _run_one_seed(train, test, trainer_cfg, prio_cfg, eval_every, s, d)
        for s, d in zip(seeds, dirs)
    ]


def cmd_train(cfg: ExperimentConfig, out_dir: Path, threads: int) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "resolved_config.json").write_text(resolved_config_json(cfg))
    train, test = build_datasets(cfg)
    write_snapshot_csv(train, out_dir / "dataset_snapshot.csv")
    runs = _run_seeds(
        train, test, cfg.trainer, cfg.prioritizer, cfg.eval_every,
        cfg.seeds, out_dir, threads,
    )
    for seed, metrics in zip(cfg.seeds, runs):
        if not (metrics.diverged or metrics.eval_errors):
            raise ConfigurationError(f"seed {seed}: a run has no evaluation points")
    for seed, metrics in zip(cfg.seeds, runs):
        flag = " [diverged]" if metrics.diverged else ""
        best = min(metrics.eval_errors) if metrics.eval_errors else float("nan")
        print(
            f"seed {seed}: {metrics.total_backprops} backprops, "
            f"best test error {best:.4f}{flag}"
        )
    return 1 if any(m.diverged for m in runs) else 0


def _format_speedup(value) -> str:
    return "-" if value is None else f"{value:.2f}"


def _aggregate(runs, where: str):
    """aggregate_seeds, with the grid cell and variant named in its errors."""
    try:
        return aggregate_seeds(runs)
    except AggregationError as exc:
        raise AggregationError(f"{where}: {exc}") from None


def cmd_benchmark(cfg: BenchmarkConfig, out_dir: Path, threads: int) -> int:
    """Uniform baseline first, then every variant against it, per grid cell."""
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "resolved_config.json").write_text(resolved_config_json(cfg))
    baseline_cfg = PrioritizerConfig(kind="uniform")
    summary_rows = []
    failed = False

    for kind, fraction in cfg.corruption_grid:
        corruption = CorruptionSpec(kind=kind, fraction=fraction, seed=cfg.corruption_seed)
        cell = f"{kind}_{fraction:g}"
        cell_dir = out_dir / cell
        cell_dir.mkdir(parents=True, exist_ok=True)
        train, test = build_datasets(cfg, corruption)
        write_snapshot_csv(train, cell_dir / "dataset_snapshot.csv")

        base_runs = _run_seeds(
            train, test, cfg.trainer, baseline_cfg, cfg.eval_every,
            cfg.seeds, cell_dir / "uniform_baseline", threads,
        )
        failed = failed or any(m.diverged for m in base_runs)
        base_agg = _aggregate(base_runs, f"{cell} {baseline_cfg.label()}")

        for variant in cfg.variants:
            name = variant.label()
            if variant.kind == "uniform":
                runs = base_runs
            else:
                runs = _run_seeds(
                    train, test, cfg.trainer, variant, cfg.eval_every,
                    cfg.seeds, cell_dir / name, threads,
                )
                failed = failed or any(m.diverged for m in runs)
            report = compute_speedup(base_agg, _aggregate(runs, f"{cell} {name}"))
            (cell_dir / name).mkdir(parents=True, exist_ok=True)
            (cell_dir / name / "speedup.json").write_text(report.to_json_line() + "\n")
            summary_rows.append(
                [kind, f"{fraction:g}", name,
                 _format_speedup(report.speedup), f"{report.best_error:.4f}"]
            )
            print(
                f"{cell} {name}: speedup {_format_speedup(report.speedup)}, "
                f"best error {report.best_error:.4f}"
            )

    with open(out_dir / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["corruption", "fraction", "variant", "speedup", "best_error"])
        writer.writerows(summary_rows)
    print(f"summary written to {out_dir / 'summary.csv'}")
    return 1 if failed else 0


def cmd_selftest() -> int:
    results = selftest.run_all()
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}: {name} ({detail})")
    return 0 if all(ok for _, ok, _ in results) else 1


def _parse_seeds(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise ConfigurationError(f"--seed expects comma-separated integers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lossprio",
        description="Example-prioritized SGD training with corruption benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("train", "run one experiment config across its seeds"),
        ("benchmark", "run a corruption x prioritizer grid and summarize"),
        ("selftest", "run the fast built-in property checks"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="path to a JSON config file")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", help="comma-separated seed list (overrides config)")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads for parallel seeds (default 1)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "selftest":
            return cmd_selftest()
        if args.command == "train":
            if not args.config:
                raise ConfigurationError("train requires --config")
            cfg = load_experiment_config(args.config)
            if args.seed:
                cfg = replace(cfg, seeds=_parse_seeds(args.seed))
            out = _resolve_output_dir(args.out, cfg.output_dir, Path(args.config).stem)
            return cmd_train(cfg, out, max(1, args.threads))
        if args.command == "benchmark":
            cfg = load_benchmark_config(args.config) if args.config else BenchmarkConfig()
            if args.seed:
                cfg = replace(cfg, seeds=_parse_seeds(args.seed))
            name = Path(args.config).stem if args.config else "benchmark"
            out = _resolve_output_dir(args.out, cfg.output_dir, name)
            return cmd_benchmark(cfg, out, max(1, args.threads))
        raise ConfigurationError(f"unknown command {args.command!r}")
    except (ConfigurationError, IngestionError, AggregationError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
