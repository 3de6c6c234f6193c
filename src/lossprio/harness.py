"""Training loop, speedup measurement, and metrics serialization.

A run walks the shuffled train split in candidate batches, forward-scores
each batch (unless the prioritizer ignores scores), lets the prioritizer
decide what actually gets an update, and evaluates clean test error on a
fixed back-propagation budget cadence.
Budgets are counted in examples back-propagated, which is the comparison
axis for every speedup number.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .datasets import Dataset
from .errors import AggregationError, ConfigurationError, TrainingDivergedError
from .model import (
    TrainerConfig,
    Workspace,
    forward,
    init_params,
    init_sgd_state,
    learning_rate_at,
    save_checkpoint,
    sgd_step,
)
from .prioritizers import PrioritizerConfig, make_prioritizer

METRICS_HEADER = ["iteration", "backprops", "test_error", "corrupted_frac_batch", "gate_on"]
EVAL_CHUNK = 4096  # test rows per evaluation forward
SPEEDUP_SLACK = 1.2  # a speedup's threshold is this times the baseline's best error


@dataclass(eq=False)
class RunMetrics:
    """Everything one training run produced: series keyed by emitted-batch
    index, and picks, how often each train row was trained on."""

    seed: int
    backprops_series: list[int] = field(default_factory=list)
    corrupted_frac_series: list[float] = field(default_factory=list)
    gate_on_series: list[int] | None = None
    eval_iterations: list[int] = field(default_factory=list)
    eval_errors: list[float] = field(default_factory=list)
    picks: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    diverged: bool = False

    @property
    def num_iterations(self) -> int:
        return len(self.backprops_series)

    @property
    def total_backprops(self) -> int:
        return self.backprops_series[-1] if self.backprops_series else 0

    @property
    def eval_points(self) -> list[tuple[int, float]]:
        """(cumulative backprops, test error) at each evaluation."""
        return [
            (self.backprops_series[it], err)
            for it, err in zip(self.eval_iterations, self.eval_errors)
        ]

    @property
    def best_test_error(self) -> float:
        if not self.eval_errors:
            raise ConfigurationError("run has no evaluation points")
        return min(self.eval_errors)

    @property
    def status(self) -> str:
        """ok, diverged, or no_eval for a run that never reached an evaluation."""
        if self.diverged:
            return "diverged"
        return "ok" if self.eval_errors else "no_eval"


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


# Whether this process has a core to spare, so run_training evaluates on a
# helper thread.  A direct library call runs in one process; cli._run_seeds
# sets this from the number of processes it runs at once.  Without a spare
# core, evaluation stays inline on the live parameters: with the helper forced
# on in every process, a 2-core `benchmark --threads 2` grid trained vr 6.7%
# slower (median of 5 pairs), and copying the parameters for an inline
# evaluation cost uniform, sb_loss and sb_entropy 1-5.5%.
_spare_core = _usable_cores() > 1


def evaluate_error(params, features, labels, workspace: Workspace | None = None) -> float:
    """Fraction of examples misclassified, EVAL_CHUNK rows per forward; a
    workspace must hold that many rows, and a call given none makes one."""
    n = len(labels)
    if n == 0:
        raise ConfigurationError("cannot evaluate on an empty split")
    workspace = workspace or Workspace(params, min(EVAL_CHUNK, n))
    wrong = 0
    for start in range(0, n, EVAL_CHUNK):
        stop = min(start + EVAL_CHUNK, n)
        result = forward(params, features[start:stop], labels[start:stop], workspace)
        wrong += int((result.predictions != labels[start:stop]).sum())
    return wrong / n


def _error_or_none(params, features, labels, workspace) -> float | None:
    """evaluate_error, or None when a forward overflows."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            return evaluate_error(params, features, labels, workspace=workspace)
    except FloatingPointError:
        return None


class _Evaluations:
    """A run's test error at each evaluation point, recorded into its metrics.

    Evaluations take a workspace of their own.  When this process has a core
    to spare, one helper thread evaluates a copy of the parameters while the
    run trains on; the result is recorded when the next copy is handed off or
    the run finishes, at the iteration it was taken.  Otherwise each
    evaluation runs at once on the run's own parameters.  An evaluation that
    overflows rolls the run back to its update, as if the run had stopped
    there, and raises TrainingDivergedError.
    """

    def __init__(self, params, test_feats, test_labels, metrics: RunMetrics,
                 batch_log: list | None):
        self.live, self.metrics, self.log = params, metrics, batch_log
        self.log_start = 0 if batch_log is None else len(batch_log)
        self.pending = None  # (iteration, future) of the evaluation in flight
        if _spare_core:
            self.params, self.picks = params.copy(), metrics.picks.copy()
            self.pool = ThreadPoolExecutor(1, thread_name_prefix="lossprio-eval")
        else:
            self.params, self.picks, self.pool = params, metrics.picks, None
        self.args = (self.params, test_feats, test_labels,
                     Workspace(params, min(len(test_labels), EVAL_CHUNK)))

    def hand_off(self) -> None:
        """Evaluate the parameters as they stand after the last emitted batch."""
        self.collect()
        it = self.metrics.num_iterations - 1
        if self.pool is None:
            self._record(it, _error_or_none(*self.args))
        else:
            np.copyto(self.params.vector, self.live.vector)
            np.copyto(self.picks, self.metrics.picks)
            self.pending = (it, self.pool.submit(_error_or_none, *self.args))

    def collect(self) -> None:
        """Record the evaluation in flight, if there is one."""
        if self.pending is not None:
            (it, future), self.pending = self.pending, None
            self._record(it, future.result())

    def _record(self, it: int, err: float | None) -> None:
        m = self.metrics
        if err is None:
            for series in (m.backprops_series, m.corrupted_frac_series, m.gate_on_series):
                if series is not None:
                    del series[it + 1 :]
            if self.log is not None:
                del self.log[self.log_start + it + 1 :]
            np.copyto(m.picks, self.picks)
            np.copyto(self.live.vector, self.params.vector)
            # one update per emitted batch, so it + 1 updates were made
            raise TrainingDivergedError("overflow while evaluating", iteration=it + 1)
        m.eval_iterations.append(it)
        m.eval_errors.append(err)

    def close(self) -> None:
        """Wait for the evaluation in flight, unrecorded, and stop the helper."""
        if self.pool is not None:
            self.pool.shutdown()


def run_training(
    train: Dataset,
    test: Dataset,
    trainer_cfg: TrainerConfig,
    prio_cfg: PrioritizerConfig,
    eval_every: int = 512,
    *,
    batch_log: list | None = None,
    checkpoint_path=None,
) -> RunMetrics:
    """Train for trainer_cfg.total_epochs passes over the candidate stream.

    Candidate batches all have exactly batch_size examples; the trailing
    remainder of each shuffled epoch is skipped so prioritizers never see a
    partial batch.  On divergence the partial metrics are returned with
    the diverged flag set instead of raising.  When this process has a core
    to spare, test error is taken on one helper thread while training goes
    on; every output is the same either way.
    """
    if train.num_classes != test.num_classes or train.feature_dim != test.feature_dim:
        raise ConfigurationError("train and test splits disagree on classes or width")
    if eval_every < 1:
        raise ConfigurationError("eval_every must be positive")
    batch = trainer_cfg.batch_size
    if len(train) < batch:
        raise ConfigurationError(
            f"train split of {len(train)} cannot fill a batch of {batch}"
        )

    feats, labels = train.stack()
    test_feats, test_labels = test.stack()
    mask = train.corrupted_mask

    rng = np.random.default_rng(trainer_cfg.seed)
    arch = [train.feature_dim, *trainer_cfg.hidden_layers, train.num_classes]
    params = init_params(arch, rng)
    state = init_sgd_state(params)
    workspace = Workspace(params, batch)
    prio = make_prioritizer(prio_cfg, batch)

    metrics = RunMetrics(
        seed=trainer_cfg.seed,
        gate_on_series=[] if prio_cfg.kind == "vr" else None,
        picks=np.zeros(len(train), dtype=np.int64),
    )
    next_eval = eval_every
    batches_per_epoch = len(train) // batch
    evaluations = _Evaluations(params, test_feats, test_labels, metrics, batch_log)

    try:
        # the finite checks below and the evaluations' own errstate catch every
        # divergence, and a run may train on past an evaluation that ends it
        with np.errstate(over="ignore", invalid="ignore"):
            for epoch in range(trainer_cfg.total_epochs):
                lr = learning_rate_at(epoch / trainer_cfg.total_epochs, trainer_cfg)
                order = rng.permutation(len(train))
                for k in range(batches_per_epoch):
                    rows = order[k * batch : (k + 1) * batch]
                    losses = probabilities = None
                    # without a scoring forward, sgd_step's finite check still
                    # stops a divergent run at this update
                    if prio.needs_scores:
                        scored = forward(params, *workspace.gather(feats, labels, rows),
                                         workspace)
                        if not np.isfinite(scored.losses).all():
                            raise TrainingDivergedError(
                                "non-finite loss while scoring", iteration=state.updates
                            )
                        losses, probabilities = scored.losses, scored.probabilities
                    # an example's id is its row
                    for chosen, gate_on in prio.feed(rows, losses, probabilities):
                        sgd_step(params, *workspace.gather(feats, labels, chosen),
                                 trainer_cfg, state, lr, workspace)
                        np.add.at(metrics.picks, chosen, 1)
                        metrics.backprops_series.append(state.backprops)
                        metrics.corrupted_frac_series.append(float(mask[chosen].mean()))
                        if gate_on is not None:
                            metrics.gate_on_series.append(int(gate_on))
                        if batch_log is not None:
                            batch_log.append(chosen.tolist())
                        if state.backprops >= next_eval:
                            evaluations.hand_off()
                            while next_eval <= state.backprops:
                                next_eval += eval_every
            evaluations.collect()
    except TrainingDivergedError:
        metrics.diverged = True
        with contextlib.suppress(TrainingDivergedError):
            evaluations.collect()  # one in flight may end the run at an earlier update
    finally:
        evaluations.close()

    if checkpoint_path is not None:
        save_checkpoint(params, checkpoint_path)
    return metrics


@dataclass
class SpeedupReport:
    """How much sooner a method hit the baseline-derived error threshold."""

    threshold_error: float
    baseline_backprops: int
    method_backprops: int | None
    speedup: float | None
    best_error: float

    def to_json_line(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def _first_crossing(eval_points, threshold: float) -> int | None:
    for backprops, err in eval_points:
        if err <= threshold:
            return backprops
    return None


def compute_speedup(baseline, method) -> SpeedupReport:
    """Backprops the baseline needed to reach SPEEDUP_SLACK * its own best
    error, divided by the backprops the method needed to reach the same level.

    A method that never reaches the threshold gets no speedup value (the
    benchmark renders that as a dash).  Both arguments just need eval_points
    and best_test_error, so per-seed runs and seed averages both work.
    """
    threshold = SPEEDUP_SLACK * baseline.best_test_error
    base_cross = _first_crossing(baseline.eval_points, threshold)
    if base_cross is None:
        raise ConfigurationError("baseline never reaches its own threshold")
    method_cross = _first_crossing(method.eval_points, threshold)
    return SpeedupReport(
        threshold_error=threshold,
        baseline_backprops=base_cross,
        method_backprops=method_cross,
        speedup=None if method_cross is None else base_cross / method_cross,
        best_error=method.best_test_error,
    )


@dataclass
class SeedAggregate:
    """Pointwise mean and sample standard deviation across runs."""

    num_runs: int
    backprops: list[int]
    test_error_mean: list[float]
    test_error_std: list[float]
    best_errors: list[float]

    @property
    def eval_points(self) -> list[tuple[int, float]]:
        return list(zip(self.backprops, self.test_error_mean))

    @property
    def best_test_error(self) -> float:
        if not self.test_error_mean:
            raise AggregationError("aggregate has no evaluation points")
        return min(self.test_error_mean)


def aggregate_seeds(runs: list[RunMetrics]) -> SeedAggregate:
    """Average runs of one method pointwise over their shared eval schedule.

    Selection is stochastic, so runs may end a few evaluations apart; the
    shared prefix is aggregated.  Runs whose schedules genuinely disagree
    (different eval cadence or batch size) raise an aggregation error.
    """
    if not runs:
        raise AggregationError("no runs to aggregate")
    n_eval = min(len(r.eval_iterations) for r in runs)
    if n_eval == 0:
        raise AggregationError("a run has no evaluation points")
    grids = [[bp for bp, _ in r.eval_points[:n_eval]] for r in runs]
    for other in grids[1:]:
        if other != grids[0]:
            raise AggregationError(
                f"eval schedules disagree: {grids[0][:5]}... vs {other[:5]}..."
            )
    errors = np.array([r.eval_errors[:n_eval] for r in runs], dtype=np.float64)
    std = errors.std(axis=0, ddof=1) if len(runs) > 1 else np.zeros(n_eval)
    return SeedAggregate(
        num_runs=len(runs),
        backprops=grids[0],
        test_error_mean=errors.mean(axis=0).tolist(),
        test_error_std=std.tolist(),
        best_errors=[r.best_test_error for r in runs],
    )


def write_metrics_csv(metrics: RunMetrics, path) -> None:
    """One row per emitted batch; test_error is only present on eval rows."""
    eval_at = dict(zip(metrics.eval_iterations, metrics.eval_errors))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(METRICS_HEADER)
        for it in range(metrics.num_iterations):
            gate = "" if metrics.gate_on_series is None else metrics.gate_on_series[it]
            err = eval_at.get(it, "")
            writer.writerow(
                [
                    it,
                    metrics.backprops_series[it],
                    repr(err) if isinstance(err, float) else err,
                    repr(metrics.corrupted_frac_series[it]),
                    gate,
                ]
            )


def write_picks_csv(metrics: RunMetrics, path) -> None:
    """One row per train example: its id and how often it was trained on."""
    rows = "".join(f"{i},{n}\n" for i, n in enumerate(metrics.picks.tolist()))
    Path(path).write_text("id,picks\n" + rows, newline="")


def save_run(metrics: RunMetrics, run_dir) -> None:
    """Write metrics.csv, picks.csv, and a run.json with the seed and status."""
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(metrics, run_dir / "metrics.csv")
    write_picks_csv(metrics, run_dir / "picks.csv")
    meta = {"seed": metrics.seed, "status": metrics.status}
    (run_dir / "run.json").write_text(json.dumps(meta, sort_keys=True) + "\n")
