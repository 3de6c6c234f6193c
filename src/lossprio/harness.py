"""Training loop, speedup measurement, and metrics serialization.

A run walks the shuffled train split in candidate batches, forward-scores
each batch (unless the prioritizer ignores scores), lets the prioritizer
decide what actually gets an update, and evaluates clean test error on a
fixed back-propagation budget cadence.
Budgets are counted in examples back-propagated, which is the comparison
axis for every speedup number.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
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


def evaluate_error(params, features, labels, chunk_size: int = EVAL_CHUNK,
                   workspace: Workspace | None = None) -> float:
    """Fraction of examples misclassified; a workspace must hold chunk_size
    rows, and a call given none makes one."""
    n = len(labels)
    if n == 0:
        raise ConfigurationError("cannot evaluate on an empty split")
    workspace = workspace or Workspace(params, min(chunk_size, n))
    wrong = 0
    for start in range(0, n, chunk_size):
        stop = min(start + chunk_size, n)
        result = forward(params, features[start:stop], labels[start:stop], workspace)
        wrong += int((result.predictions != labels[start:stop]).sum())
    return wrong / n


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
    the diverged flag set instead of raising.
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
    workspace = Workspace(params, max(batch, min(len(test), EVAL_CHUNK)))
    prio = make_prioritizer(prio_cfg, batch)

    metrics = RunMetrics(
        seed=trainer_cfg.seed,
        gate_on_series=[] if prio_cfg.kind == "vr" else None,
        picks=np.zeros(len(train), dtype=np.int64),
    )
    next_eval = eval_every
    batches_per_epoch = len(train) // batch

    try:
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
                        err = evaluate_error(params, test_feats, test_labels,
                                             workspace=workspace)
                        metrics.eval_iterations.append(metrics.num_iterations - 1)
                        metrics.eval_errors.append(err)
                        while next_eval <= state.backprops:
                            next_eval += eval_every
    except TrainingDivergedError:
        metrics.diverged = True

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
        return json.dumps(
            {
                "threshold_error": self.threshold_error,
                "baseline_backprops": self.baseline_backprops,
                "method_backprops": self.method_backprops,
                "speedup": self.speedup,
                "best_error": self.best_error,
            },
            sort_keys=True,
        )


def _first_crossing(eval_points, threshold: float) -> int | None:
    for backprops, err in eval_points:
        if err <= threshold:
            return backprops
    return None


def compute_speedup(baseline, method, slack: float = 1.2) -> SpeedupReport:
    """Backprops the baseline needed to reach slack * its own best error,
    divided by the backprops the method needed to reach the same level.

    A method that never reaches the threshold gets no speedup value (the
    benchmark renders that as a dash).  Both arguments just need eval_points
    and best_test_error, so per-seed runs and seed averages both work.
    """
    if slack < 1.0:
        raise ConfigurationError("slack multiplier must be at least 1")
    threshold = slack * baseline.best_test_error
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
