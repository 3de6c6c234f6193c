"""Command line front end: train runs, benchmark grids, and a self test.

Outputs land under --out when given, else the config's output_dir, else
$LOSSPRIO_OUT, else ./runs.  Runs are deterministic: the same config and
seeds produce byte-identical files and stdout regardless of --threads.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import os
import sys
from collections import namedtuple
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from . import harness, selftest
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


# One training run: configs (cfg gives the dataset, trainer and eval_every), a
# seed and a run directory, never arrays; a cell's first job writes snapshot.
_Job = namedtuple("_Job", "cfg corruption prio seed run_dir snapshot")
_worker_cells: dict = {}  # a spawned worker's last-built cell, kept across its jobs


def _run_job(job: _Job, cells: dict | None = None):
    """Train one job on its cell's splits, rebuilt unless they are the last built."""
    cells = _worker_cells if cells is None else cells
    if cells.get("key") != (job.cfg.dataset, job.corruption):
        cells.clear()  # drop the last cell's splits before building the next
        cells["splits"] = build_datasets(job.cfg, job.corruption)
        cells["key"] = (job.cfg.dataset, job.corruption)
    train, test = cells["splits"]
    job.run_dir.mkdir(parents=True, exist_ok=True)
    if job.snapshot is not None:
        write_snapshot_csv(train, job.snapshot)
    trainer = replace(job.cfg.trainer, seed=job.seed)
    prio = replace(job.prio, seed=job.prio.seed + job.seed)
    metrics = run_training(
        train, test, trainer, prio, job.cfg.eval_every,
        checkpoint_path=job.run_dir / "model.npz",
    )
    save_run(metrics, job.run_dir)
    return metrics


_worker_claims = None  # a spawned worker's view of its _run_seeds' claims


def _start_process(spare_core: bool, claims=None) -> None:
    """Ready this process, or a spawned worker given its claims, to run jobs:
    say whether it has a core to spare, and run numpy's bundled OpenBLAS on
    one thread, so no job's bytes depend on the cores it finds (a numpy
    without it is left as is)."""
    global _worker_claims
    harness._spare_core, _worker_claims = spare_core, claims
    site = Path(np.__file__).resolve().parent.parent
    for lib in [*site.glob("numpy.libs/*scipy_openblas64_*"),
                *site.glob("numpy/.dylibs/*scipy_openblas64_*")]:
        try:
            setter = ctypes.CDLL(str(lib)).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(1)
        return


def _claim(claims, i: int) -> bool:
    """Take job i, one flag of the shared claims, unless another process took it first."""
    with claims.get_lock():
        free, claims[i] = not claims[i], 1
    return free


def _run_unclaimed(i: int, job: _Job):
    """A worker's RunMetrics for job i, or None if the calling process took it."""
    return _run_job(job) if _claim(_worker_claims, i) else None


def _run_seeds(jobs: list[_Job], threads: int) -> list:
    """Every job's RunMetrics in job order, from this process and threads - 1 workers.

    Spawned workers, always fewer than the jobs, take jobs from the front of
    the list; this process walks it from the back and runs each job that is
    still queued for the workers and that it claims first.  No future is
    ever cancelled, so a worker that dies can fail each one its pool holds.
    The first exception in job order is raised.  Each process runs BLAS on
    one thread, and evaluates on a helper thread only while the processes
    leave a core spare.  perfbench's span probes patch this function by name.
    """
    processes = min(threads, len(jobs))
    spare_core, before = processes < harness._usable_cores(), harness._spare_core
    context = get_context("spawn")
    claims = context.Array("b", len(jobs)) if processes > 1 else None
    _start_process(spare_core)
    pool = ProcessPoolExecutor(processes - 1, mp_context=context, initializer=_start_process,
                               initargs=(spare_core, claims)) if processes > 1 else None
    cells: dict = {}
    try:
        futures = [pool.submit(_run_unclaimed, i, job) if pool else Future()
                   for i, job in enumerate(jobs)]
        for i in reversed(range(len(jobs))):
            if pool is None or (not futures[i].running() and _claim(claims, i)):
                futures[i] = Future()
                try:
                    futures[i].set_result(_run_job(jobs[i], cells))
                except Exception as exc:  # raised in job order below, as from a worker
                    futures[i].set_exception(exc)
        return [future.result() for future in futures]
    finally:
        harness._spare_core = before
        if pool is not None:
            claims[:] = [1] * len(jobs)  # after an interrupt, no worker starts a job
            pool.shutdown()


def _start_output(cfg, out_dir: Path) -> None:
    """Create the output root and write the resolved config into it."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError, PermissionError) as exc:
        raise ConfigurationError(f"output directory {out_dir}: {exc.strerror}") from None
    (out_dir / "resolved_config.json").write_text(resolved_config_json(cfg))


def cmd_train(cfg: ExperimentConfig, out_dir: Path, threads: int) -> int:
    _start_output(cfg, out_dir)
    runs = _run_seeds([
        _Job(cfg, cfg.corruption, cfg.prioritizer, seed, out_dir / f"seed_{seed}",
             None if i else out_dir / "dataset_snapshot.csv")
        for i, seed in enumerate(cfg.seeds)
    ], threads)
    for seed, metrics in zip(cfg.seeds, runs):
        if metrics.status == "no_eval":
            raise ConfigurationError(f"seed {seed}: a run has no evaluation points")
    for seed, metrics in zip(cfg.seeds, runs):
        flag = " [diverged]" if metrics.diverged else ""
        # only a diverged run gets here without evaluations, and it stopped at
        # the update it diverged at, one update per emitted batch
        result = (f"best test error {min(metrics.eval_errors):.4f}" if metrics.eval_errors
                  else f"no evaluation before update {metrics.num_iterations}")
        print(f"seed {seed}: {metrics.total_backprops} backprops, {result}{flag}")
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
    _start_output(cfg, out_dir)
    baseline_cfg = PrioritizerConfig(kind="uniform")
    trained = [(baseline_cfg, "uniform_baseline")] + [
        (v, v.label()) for v in cfg.variants if v.kind != "uniform"
    ]
    jobs = [
        _Job(cfg, CorruptionSpec(kind=kind, fraction=fraction, seed=cfg.corruption_seed),
             prio, seed, out_dir / f"{kind}_{fraction:g}" / name / f"seed_{seed}",
             None if i or j else out_dir / f"{kind}_{fraction:g}" / "dataset_snapshot.csv")
        for kind, fraction in cfg.corruption_grid
        for i, (prio, name) in enumerate(trained)
        for j, seed in enumerate(cfg.seeds)
    ]
    all_runs = _run_seeds(jobs, threads)
    for job, metrics in zip(jobs, all_runs):
        if metrics.diverged and not metrics.eval_errors:  # a run failure, not bad input
            cell, variant = job.run_dir.parts[-3:-1]  # out_dir / cell / variant / seed_<n>
            print(f"error: {cell} {variant} seed {job.seed}: no evaluation before update "
                  f"{metrics.num_iterations} [diverged]", file=sys.stderr)
            return 1
    results = iter(all_runs)
    summary_rows = []

    for kind, fraction in cfg.corruption_grid:
        cell = f"{kind}_{fraction:g}"
        cell_dir = out_dir / cell
        base_runs = [next(results) for _ in cfg.seeds]
        base_agg = _aggregate(base_runs, f"{cell} uniform_baseline")

        for variant in cfg.variants:
            name = variant.label()
            if variant.kind == "uniform":
                runs = base_runs
            else:
                runs = [next(results) for _ in cfg.seeds]
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
    return 1 if any(m.diverged for m in all_runs) else 0


def cmd_selftest() -> int:
    results = selftest.run_all()
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}: {name} ({detail})")
    return 0 if all(ok for _, ok, _ in results) else 1


def _parse_seeds(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise ConfigurationError("expected comma-separated integers") from None


def _with_seeds(cfg, text: str | None):
    """cfg with the --seed list, when given, in place of its own seeds."""
    if not text:
        return cfg
    try:
        return replace(cfg, seeds=_parse_seeds(text))
    except ConfigurationError as exc:
        raise ConfigurationError(f"--seed {text}: {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lossprio",
        description="Example-prioritized SGD training with corruption benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("train", "run one experiment config across its seeds"),
        ("benchmark", "run a corruption x prioritizer grid and summarize"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="path to a JSON config file")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", help="comma-separated seed list (overrides config)")
        p.add_argument("--threads", type=int, default=1,
                       help="processes to run the runs in: this one plus N-1 "
                            "spawned workers (default 1)")
    sub.add_parser("selftest", help="run the four property checks of the acceptance gate")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "selftest":
        return cmd_selftest()
    try:
        if args.threads < 1:
            raise ConfigurationError(f"--threads must be at least 1, got {args.threads}")
        if args.command == "train":
            if not args.config:
                raise ConfigurationError("train requires --config")
            cfg = _with_seeds(load_experiment_config(args.config), args.seed)
            out = _resolve_output_dir(args.out, cfg.output_dir, Path(args.config).stem)
            return cmd_train(cfg, out, args.threads)
        if args.command == "benchmark":
            cfg = load_benchmark_config(args.config) if args.config else BenchmarkConfig()
            cfg = _with_seeds(cfg, args.seed)
            name = Path(args.config).stem if args.config else "benchmark"
            out = _resolve_output_dir(args.out, cfg.output_dir, name)
            return cmd_benchmark(cfg, out, args.threads)
        raise ConfigurationError(f"unknown command {args.command!r}")
    except (ConfigurationError, IngestionError, AggregationError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenProcessPool as exc:  # a worker was killed, for example out of memory
        print(f"error: a worker process died before returning its runs ({exc})",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
