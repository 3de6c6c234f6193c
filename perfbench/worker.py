"""One benchmark run of one workload; started by run.py with BLAS threads pinned.

A round is one run_training call per prioritizer on the direct workloads
(small_select, wide_compute) and one `lossprio benchmark` invocation on
cli_grid.  End-to-end metrics, as calibrated medians (see refclock.py):

* candidates_per_s.<kind>: candidates one run_training call scores, over its
  seconds.  On cli_grid the calls run two at a time and share the
  invocation's calibration.
* grid_s: seconds of one round.
* setup_s: seconds to build, corrupt and stack the splits (every cell's on
  cli_grid), repeated several times per run.
* peak_rss_mb: peak resident memory of this process after the rounds.

An operation is a set-up, a training run or an invocation; it fails on an
exception, on divergence or on a failed output check, and the run goes on.
Prints one JSON object as its last stdout line: the metrics (or, with
--trace 1, the per-layer metrics) with sample counts, operation counts,
failure messages, determinism hashes and the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from lossprio import cli, config, harness  # noqa: E402
from lossprio.datasets import CorruptionSpec  # noqa: E402
from lossprio.model import TrainerConfig  # noqa: E402
from lossprio.prioritizers import PrioritizerConfig  # noqa: E402

import layers  # noqa: E402
from layers import KINDS, Probe  # noqa: E402
from refclock import NOMINAL_REF_S, RefClock  # noqa: E402

BETA = 1.0
# Realised sb_* selectivity over a run differs from 1 / (beta + 1) by the
# warm-up batch, the unfilled queue at the end, and for sb_entropy a drift
# downwards as predictions sharpen: at most 0.039 over seeds 0-29 of
# small_select at beta 1.
SB_SELECTIVITY_TOLERANCE = 0.05
GRID_THREADS = 2
GRID_CELLS = (("none", 0.0), ("random_label", 0.5), ("gaussian", 0.5))
HASHED_CELL = "random_label_0.5"
HASHED_FILES = ("metrics.csv", "picks.csv", "model.npz")


@dataclass(frozen=True)
class Direct:
    """A workload of direct run_training calls on one dataset."""

    dataset: dict
    corruption: tuple[str, float]
    trainer: dict
    eval_every: int
    setup_repeats: int

    def experiment(self, seed: int) -> config.ExperimentConfig:
        kind, fraction = self.corruption
        return config.ExperimentConfig(
            dataset=config.DatasetConfig(seed=seed, **self.dataset),
            corruption=CorruptionSpec(kind=kind, fraction=fraction, seed=seed),
            trainer=TrainerConfig(seed=seed, **self.trainer),
            eval_every=self.eval_every,
        )


DIRECT = {
    # The default task: the model is cheap, so selection carries the run.  Five
    # epochs instead of twenty give four times the samples per run; the stage
    # shares stay those of the twenty-epoch run.
    "small_select": Direct(dataset={}, corruption=("random_label", 0.5),
                           trainer={"total_epochs": 5}, eval_every=512, setup_repeats=7),
    # MNIST-shaped: matrix multiplies and the 60k x 784 dataset build dominate.
    # Spread 8 keeps best test error well between 0 and chance.
    "wide_compute": Direct(
        dataset={"num_train": 60000, "num_test": 10000, "feature_dim": 784,
                 "cluster_spread": 8.0},
        corruption=("gaussian", 0.5),
        trainer={"total_epochs": 1, "hidden_layers": (256, 256)},
        eval_every=10000, setup_repeats=3,
    ),
}
# `lossprio benchmark` on a reduced grid: many short runs plus per-cell dataset
# builds, file writes, aggregation and seed fan-out.
GRID = "cli_grid"


class Ledger:
    """Attempted and failed operations; a failure never stops the run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def attempt(self, label, fn, *args, **kwargs):
        """Run one operation; on an exception record it and return None."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # any failure of the program under test is a result
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return None

    def fail(self, label, problems) -> None:
        """Record failed output checks of an operation already attempted."""
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))


def candidate_count(num_train: int, trainer_cfg) -> int:
    """Candidate examples one run_training call scores."""
    batch = trainer_cfg.batch_size
    return trainer_cfg.total_epochs * (num_train // batch) * batch


def setup(cfg):
    """What a run needs before training: build, corrupt and stack both splits."""
    train, test = config.build_datasets(cfg)
    train.stack()
    test.stack()
    return train, test


def check_run(m, log, train, trainer_cfg, prio) -> list[str]:
    """Output checks on one run_training result and its batch_log."""
    batch = trainer_cfg.batch_size
    seen = candidate_count(len(train), trainer_cfg)
    problems = []
    if m.diverged:
        problems.append("diverged")
    if not m.eval_errors:
        problems.append("no evaluation points")
    elif m.best_test_error >= 1.0 - 1.0 / train.num_classes:
        problems.append(f"best test error {m.best_test_error} at or above chance")
    sizes = {len(b) for b in log}
    if sizes != {batch}:
        problems.append(f"batch sizes {sorted(sizes)} != {batch}")
    elif not np.isin(np.array(log), train.ids).all():
        problems.append("batch ids outside the train split")
    logged = sum(len(b) for b in log)
    if m.total_backprops != logged:
        problems.append(f"backprops {m.total_backprops} != logged {logged}")
    if prio.kind in ("sb_loss", "sb_entropy"):
        share, target = m.total_backprops / seen, 1.0 / (prio.beta + 1.0)
        if abs(share - target) > SB_SELECTIVITY_TOLERANCE:
            problems.append(f"selectivity {share:.4f} not within "
                            f"{SB_SELECTIVITY_TOLERANCE} of {target:.4f}")
    else:
        expected = seen if prio.kind == "uniform" else seen // (3 * batch) * batch
        if m.total_backprops != expected:
            problems.append(f"backprops {m.total_backprops} != expected {expected}")
    return problems


class Runner:
    """What both kinds of workload share: seed, ledger and dataset arithmetic."""

    threads = 1

    def __init__(self, seed: int, ledger: Ledger):
        self.seed = seed
        self.ledger = ledger
        self.bytes_written: list[int] = []

    @property
    def candidates(self) -> int:
        return candidate_count(self.cfg.dataset.num_train, self.cfg.trainer)

    def raw_feature_mb(self) -> float:
        ds = self.cfg.dataset
        return (ds.num_train + ds.num_test) * ds.feature_dim * 8 / 1e6


class DirectRunner(Runner):
    def __init__(self, wl: Direct, seed: int, ledger: Ledger):
        super().__init__(seed, ledger)
        self.cfg = wl.experiment(seed)
        self.setup_repeats = wl.setup_repeats
        self.determinism: dict[str, str] = {}
        self.best: dict[str, float] = {}

    def setup(self):
        return setup(self.cfg)

    def round(self, data, clock):
        """Train once with each prioritizer, each call timed by `clock`.

        Returns (wall s, calibrated s, [(kind, wall s, calibrated s)] per run).
        """
        train, test = data
        results, runs = [], []
        for kind in KINDS:
            prio = PrioritizerConfig(kind=kind, beta=BETA, seed=100 + self.seed)
            log = []
            m, wall, cal = clock.measure(
                [(harness, "evaluate_error")], self.ledger.attempt, f"run_training {kind}",
                harness.run_training, train, test, self.cfg.trainer, prio,
                self.cfg.eval_every, batch_log=log)
            results.append((prio, m, log))
            runs.append((kind, wall, cal))
        for prio, m, log in results:
            if m is None:
                continue
            problems = check_run(m, log, train, self.cfg.trainer, prio)
            if not problems:
                digest = hashlib.sha256(np.array(log, dtype=np.int64).tobytes())
                digest.update(repr((m.total_backprops, m.eval_errors)).encode())
                first = self.determinism.setdefault(prio.kind, digest.hexdigest())
                if digest.hexdigest() != first:
                    problems.append("output differs from the first run of this kind")
                self.best.setdefault(prio.kind, m.best_test_error)
            self.ledger.fail(f"run_training {prio.kind}", problems)
        return sum(r[1] for r in runs), sum(r[2] for r in runs), runs

    def best_test_error(self) -> tuple[float, int]:
        values = list(self.best.values())
        return (statistics.fmean(values) if values else 0.0), len(values)


class GridRunner(Runner):
    """`lossprio benchmark` on a reduced grid, into a scratch directory."""

    threads = GRID_THREADS
    setup_repeats = 5

    def __init__(self, seed: int, ledger: Ledger, work: Path):
        super().__init__(seed, ledger)
        self.work = work
        raw = {
            "dataset": {"seed": seed},
            "corruption_grid": [list(cell) for cell in GRID_CELLS],
            "corruption_seed": seed,
            "trainer": {"total_epochs": 2},
            "seeds": [seed, seed + 1],
            "eval_every": 512,
        }
        self.cfg = config.benchmark_config_from_dict(raw)
        self.config_path = work / "grid.json"
        self.config_path.write_text(json.dumps(raw))
        self.determinism: dict[str, str] = {}
        self.best: list[float] = []

    def setup(self):
        """Every cell's dataset, as the invocation builds them."""
        for kind, fraction in GRID_CELLS:
            corruption = CorruptionSpec(kind=kind, fraction=fraction, seed=self.seed)
            setup(config.ExperimentConfig(dataset=self.cfg.dataset, corruption=corruption))
        return True

    def round(self, _data, clock):
        """One invocation timed by `clock`, which checkpoints at each cell's dataset build.

        Returns (wall s, calibrated s, [(kind, wall s, calibrated s)] per run).
        """
        out = self.work / f"out_{len(self.bytes_written)}"
        argv = ["benchmark", "--config", str(self.config_path), "--out", str(out),
                "--threads", str(GRID_THREADS)]
        with Probe(full=False) as probe, contextlib.redirect_stdout(io.StringIO()):
            rc, wall, cal = clock.measure([(cli, "build_datasets")], self.ledger.attempt,
                                          "lossprio benchmark", cli.main, argv)
        runs = [(span.attrs["kind"], span.duration,
                 span.duration * clock.scale_at((span.start + span.end) / 2))
                for span in probe.tracer.spans]
        if rc is not None:
            try:
                problems = [f"exit code {rc}"] if rc else self.check(out)
            except (OSError, ValueError, KeyError) as exc:
                problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
            self.ledger.fail("lossprio benchmark", problems)
        self.bytes_written.append(sum(p.stat().st_size for p in out.rglob("*") if p.is_file()))
        shutil.rmtree(out, ignore_errors=True)
        return wall, cal, runs

    def check(self, out: Path) -> list[str]:
        problems = []
        batch = self.cfg.trainer.batch_size
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != len(GRID_CELLS) * len(self.cfg.variants):
            problems.append(f"summary has {len(rows)} rows")
        run_dirs = sorted(out.glob("*/*/seed_*"))
        expected_dirs = len(GRID_CELLS) * len(self.cfg.variants) * len(self.cfg.seeds)
        if len(run_dirs) != expected_dirs:
            problems.append(f"{len(run_dirs)} run directories, expected {expected_dirs}")
        for run_dir in run_dirs:
            where = run_dir.relative_to(out)
            with open(run_dir / "metrics.csv", newline="") as fh:
                backprops = [int(r["backprops"]) for r in csv.DictReader(fh)]
            picks = np.loadtxt(run_dir / "picks.csv", delimiter=",", skiprows=1,
                               dtype=np.int64, ndmin=2)
            if not backprops or np.any(np.diff([0, *backprops]) != batch):
                problems.append(f"{where}: batches are not all {batch} examples")
            elif picks[:, 1].sum() != backprops[-1]:
                problems.append(f"{where}: picks sum {picks[:, 1].sum()} != {backprops[-1]}")
            if not np.array_equal(picks[:, 0], np.arange(self.cfg.dataset.num_train)):
                problems.append(f"{where}: picks ids are not the train split")
            if not (run_dir / "model.npz").is_file():
                problems.append(f"{where}: no model.npz")
        hashes = {
            str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
            for name in HASHED_FILES
            for path in sorted((out / HASHED_CELL).glob(f"*/seed_*/{name}"))
        }
        best = statistics.fmean(float(r["best_error"]) for r in rows) if rows else 0.0
        if not self.best:
            self.determinism = hashes
        elif hashes != self.determinism or best != self.best[0]:
            problems.append("outputs differ from the first invocation of this run")
        self.best.append(best)
        return problems

    def best_test_error(self) -> tuple[float, int]:
        return (self.best[0] if self.best else 0.0), len(self.best)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def _median_metric(samples, unit, scale=lambda v: v):
    """[calibrated median, unit, sample count, wall-clock median] of (wall, cal) pairs."""
    if not samples:
        return [0.0, unit, 0, 0.0]
    return [scale(statistics.median(c for _, c in samples)), unit, len(samples),
            scale(statistics.median(w for w, _ in samples))]


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict, list[str]]:
    """Set up, repeat rounds for `seconds`, then set up again; medians throughout.

    Peak RSS is read before the extra set-ups: the heap they leave behind
    would otherwise add a second copy of the features to the peak.
    """
    clock = RefClock()
    setups = []

    def timed_setup():
        gc.collect()
        data, wall, cal = clock.measure((), runner.ledger.attempt, "set-up", runner.setup)
        setups.append((wall, cal))
        return data

    data = timed_setup()
    rounds = []
    begin = time.perf_counter()
    while data is not None and (not rounds or time.perf_counter() - begin < seconds):
        rounds.append(runner.round(data, clock))
    peak = peak_rss_mb()
    data = None
    for _ in range(runner.setup_repeats - 1):
        timed_setup()

    metrics = {}
    for kind in KINDS:
        samples = [(w, c) for _, _, runs in rounds for k, w, c in runs if k == kind]
        metrics[f"candidates_per_s.{kind}"] = _median_metric(
            samples, "examples/s", lambda t: runner.candidates / t)
    metrics["grid_s"] = _median_metric([(w, c) for w, c, _ in rounds], "s")
    metrics["setup_s"] = _median_metric(setups, "s")
    metrics["peak_rss_mb"] = [peak, "MB", 1, None]
    # Deterministic for a seed but spread widely across seeds, so it is reported
    # and guarded by the determinism hashes rather than gated by a bound.
    best, runs = runner.best_test_error()
    reported = {"best_test_error": [best, "fraction", runs, None]}
    ref = statistics.median(clock.ref_times)
    notes = [f"timings are calibrated by a reference loop: median {ref:.4f} s against "
             f"a nominal {NOMINAL_REF_S} s over {len(clock.ref_times)} samples"]
    return metrics, reported, notes


def per_layer(runner: Runner, name: str, seconds: float) -> tuple[dict, dict, list[str]]:
    """Untraced warm-up and reference passes, then traced passes until `seconds`.

    A pass is one set-up plus one round for the direct workloads and one
    invocation for cli_grid, whose set-up happens inside the invocation.
    """
    direct = isinstance(runner, DirectRunner)
    clock = RefClock(checkpoints=False)  # a checkpoint inside a span would count in it

    def one_pass() -> float:
        """Calibrated seconds of the pass's run_training calls."""
        gc.collect()
        data = runner.ledger.attempt("set-up", runner.setup) if direct else True
        if data is None:
            return 0.0
        return sum(cal for _, _, cal in runner.round(data, clock)[2])

    begin = time.perf_counter()
    one_pass()  # warm-up: the first pass in a process runs a few percent slow
    peak = peak_rss_mb()  # before later set-ups stack their heap on this one's
    untraced = one_pass()
    passes, traced, untraced_writes = 0, 0.0, len(runner.bytes_written)
    with Probe(full=True) as probe:
        while not passes or time.perf_counter() - begin < seconds:
            traced += one_pass()
            passes += 1
    values = layers.layer_metrics(probe, passes, runner.threads, peak, runner.raw_feature_mb(),
                                  sum(runner.bytes_written[untraced_writes:]),
                                  traced / passes / untraced - 1.0 if untraced else 0.0)
    units = dict(layers.per_layer_names())
    metrics = {key: [value, units[key], passes, None] for key, value in values.items()}
    notes = []
    for kind in KINDS:
        expected = {"uniform": 1.0, "vr": 1.0 / 3.0}.get(kind, 1.0 / (BETA + 1.0))
        notes.append(f"prioritizers.selectivity.{kind}: realised "
                     f"{values[f'prioritizers.selectivity.{kind}']:.4f}, expected {expected:.4f}")
    if name == "small_select":
        shares = ", ".join(
            f"{kind} {values[f'prioritizers.feed_share.{kind}']:.3f} "
            f"(baseline {layers.BASELINE_FEED_SHARE[kind]:.3f})" for kind in KINDS)
        notes.append(f"feed_share against the ROADMAP baseline table: {shares}")
    notes.append("model.matmul_flops is computed from operand shapes, not counted")
    notes.append("trace_overhead_frac compares calibrated run_training seconds of traced "
                 "and untraced passes")
    return metrics, {}, notes


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    ledger = Ledger()
    runner = (GridRunner(seed, ledger, work) if name == GRID
              else DirectRunner(DIRECT[name], seed, ledger))
    metrics, reported, notes = (per_layer(runner, name, seconds) if trace
                                else end_to_end(runner, seconds))
    return {
        "metrics": metrics,
        "reported": reported,
        "attempted": ledger.attempted,
        "failures": ledger.failures,
        "determinism": runner.determinism,
        "notes": notes,
        "env": environment(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=[*DIRECT, GRID])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
