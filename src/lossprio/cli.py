"""Command line front end: train runs, benchmark grids, and a self test.

Outputs land under --out when given, else the config's output_dir, else
$LOSSPRIO_OUT, else ./runs.  Runs are deterministic: the same config and
seeds produce byte-identical files and stdout regardless of --threads.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import signal
import sys
from collections import namedtuple
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from multiprocessing import get_all_start_methods, get_context
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
from .datasets import CorruptionSpec
from .errors import AggregationError, ConfigurationError, IngestionError
from .harness import aggregate_seeds, compute_speedup, run_training, save_run, write_snapshot_csv
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


def _run_job(job: _Job, cells: dict):
    """Train one job on its cell's splits, rebuilt unless they are the last built."""
    if cells.get("key") != (job.cfg.dataset, job.corruption):
        cells.clear()  # drop the last cell's splits before building the next
        cells["splits"] = build_datasets(job.cfg, job.corruption)
        cells["key"] = (job.cfg.dataset, job.corruption)
    train, test = cells["splits"]
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


_worker_claims = None  # a worker's claims, which reach it only through its initializer


def _start_process(spare_core: bool, claims=None) -> None:
    """Ready this process, or a worker given its claims, to run jobs:
    say whether it has a core to spare, and run numpy's bundled OpenBLAS on
    one thread, so no job's bytes depend on the cores it finds (a numpy
    without it is left as is).  A worker ignores SIGINT: the calling process
    alone answers an interrupt, by claiming every job and waiting for the
    workers' runs in progress."""
    global _worker_claims
    harness._spare_core, _worker_claims = spare_core, claims
    if claims is not None:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
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


def _run_claimed(jobs: list[_Job], claims, order) -> dict:
    """{i: RunMetrics, or the exception it raised} for each job i this process
    claims first, walking the jobs in order with one cell cache.  Claims of
    None are this process's own: a worker's, from its initializer, or none in
    a process without workers, which then runs every job."""
    claims = _worker_claims if claims is None else claims
    cells, runs = {}, {}
    for i in order:
        if claims is None or _claim(claims, i):
            try:
                runs[i] = _run_job(jobs[i], cells)
            except Exception as exc:  # raised in job order by _run_seeds
                runs[i] = exc
    return runs


def _worker_context():
    """Where workers come from: forked from one server per process, started
    on first use with numpy and this package preloaded; spawned where there
    is no fork server (Windows).  A worker sees the environment as it was
    when the server started, and this process's working directory and
    sys.path as they are when the worker starts.  A package put on sys.path
    at run time is not on the server's path, so each worker imports it.
    OpenBLAS stops its threads before each fork, so the server forks with one."""
    if "forkserver" not in get_all_start_methods():
        return get_context("spawn")
    context = get_context("forkserver")
    context.set_forkserver_preload(["numpy", "lossprio"])
    return context


def _submit(pool: ProcessPoolExecutor, jobs: list[_Job], workers: int) -> list[Future]:
    """One future per worker, each handed the whole job list once to walk
    from the front with _run_claimed.  The workers start here, with SIGINT
    blocked as multiprocessing starts its resource tracker and fork server,
    which they inherit the block from, so an interrupt cannot reach one
    before it ignores SIGINT; one that comes meanwhile reaches this process
    when the block ends."""
    masked = hasattr(signal, "pthread_sigmask")  # not on Windows
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT}) if masked else None
    try:
        return [pool.submit(_run_claimed, jobs, None, range(len(jobs))) for _ in range(workers)]
    finally:
        if masked:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _run_seeds(jobs: list[_Job], threads: int) -> list:
    """Every job's RunMetrics in job order, from this process and threads - 1 workers.

    Each worker (see _worker_context), always fewer than the jobs, is handed
    the job list once; every process runs the jobs it claims first, workers
    walking from the front and this process from the back, so no job runs
    twice and no process idles while one is unclaimed.  A worker that dies
    breaks the pool and fails the command, even if this process ran every
    job.  The first exception in job order is raised.  Each process runs BLAS
    on one thread, and evaluates on a helper thread only while the processes
    leave a core spare.  perfbench's span probes patch this function by name.
    """
    processes = min(threads, len(jobs))
    spare_core, before = processes < harness._usable_cores(), harness._spare_core
    context = _worker_context()
    claims = context.Array("b", len(jobs)) if processes > 1 else None
    _start_process(spare_core)
    pool = ProcessPoolExecutor(processes - 1, mp_context=context, initializer=_start_process,
                               initargs=(spare_core, claims)) if processes > 1 else None
    try:
        futures = _submit(pool, jobs, processes - 1) if pool else []
        done = _run_claimed(jobs, claims, reversed(range(len(jobs))))
        for future in futures:  # each ends after the runs its worker claimed
            done.update(future.result())
    finally:
        harness._spare_core = before
        if pool is not None:
            claims[:] = [1] * len(jobs)  # after an interrupt, no worker starts a job
            pool.shutdown()
    runs = [done[i] for i in range(len(jobs))]
    for run in runs:
        if isinstance(run, Exception):
            raise run
    return runs


def _start_output(cfg, out_dir: Path) -> None:
    """Create the output root and write the resolved config into it."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError, PermissionError) as exc:
        raise ConfigurationError(f"output directory {out_dir}: {exc.strerror}") from None
    harness.write_text(out_dir / "resolved_config.json", resolved_config_json(cfg))


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
    groups: dict = {}  # each variant directory's runs, in seed order
    for job, metrics in zip(jobs, _run_seeds(jobs, threads)):
        if metrics.diverged and not metrics.eval_errors:  # a run failure, not bad input
            cell, variant = job.run_dir.parts[-3:-1]  # out_dir / cell / variant / seed_<n>
            print(f"error: {cell} {variant} seed {job.seed}: no evaluation before update "
                  f"{metrics.num_iterations} [diverged]", file=sys.stderr)
            return 1
        groups.setdefault(job.run_dir.parent, []).append(metrics)
    summary_rows = []

    for kind, fraction in cfg.corruption_grid:
        cell = f"{kind}_{fraction:g}"
        cell_dir = out_dir / cell
        base_curve = _aggregate(groups[cell_dir / "uniform_baseline"], f"{cell} uniform_baseline")

        for variant in cfg.variants:
            name = variant.label()
            curve = (base_curve if variant.kind == "uniform"
                     else _aggregate(groups[cell_dir / name], f"{cell} {name}"))
            report = compute_speedup(base_curve, curve)
            harness.write_json(cell_dir / name / "speedup.json", report)
            speedup, best = _format_speedup(report.speedup), f"{report.best_error:.4f}"
            summary_rows.append([kind, f"{fraction:g}", name, speedup, best])
            print(f"{cell} {name}: speedup {speedup}, best error {best}")

    harness.write_csv(out_dir / "summary.csv",
                      ["corruption", "fraction", "variant", "speedup", "best_error"], summary_rows)
    print(f"summary written to {out_dir / 'summary.csv'}")
    return 1 if any(m.diverged for runs in groups.values() for m in runs) else 0


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
                            "workers forked from a server (default 1)")
    sub.add_parser("selftest", help="run the four property checks of the acceptance gate")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "selftest":
            return cmd_selftest()
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
    except KeyboardInterrupt:  # a worker ignores it, and _run_seeds has stopped them
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
