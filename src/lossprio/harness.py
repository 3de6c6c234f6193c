"""Training loop, speedup measurement, and the writers of every output file.

A run walks the shuffled train split in candidate batches, scores each
batch with one forward (unless the prioritizer is uniform), feeds the
prioritizer the one score its kind ranks, lets it decide what actually gets
an update, and evaluates clean test error on a fixed back-propagation
budget cadence.
Budgets are counted in examples back-propagated, which is the comparison
axis for every speedup number.
"""

from __future__ import annotations

import contextlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .datasets import CORRUPTION_KINDS, Dataset
from .errors import AggregationError, ConfigurationError, TrainingDivergedError
from .model import (
    TrainerConfig,
    Workspace,
    forward,
    init_params,
    init_sgd_state,
    learning_rate_at,
    prediction_entropy,
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


def evaluate_error(params, features, labels, workspace: Workspace) -> float:
    """Fraction of examples misclassified, EVAL_CHUNK rows per forward without
    labels; the workspace must hold min(EVAL_CHUNK, len(labels)) rows."""
    n = len(labels)
    if n == 0:
        raise ConfigurationError("cannot evaluate on an empty split")
    wrong = 0
    for start in range(0, n, EVAL_CHUNK):
        stop = min(start + EVAL_CHUNK, n)
        predictions = forward(params, features[start:stop], None, workspace).predictions
        wrong += int((predictions != labels[start:stop]).sum())
    return wrong / n


def _error_or_none(params, features, labels, workspace) -> float | None:
    """evaluate_error, or None when a forward overflows."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            return evaluate_error(params, features, labels, workspace)
    except FloatingPointError:
        return None


class _Evaluations:
    """A run's test error at each evaluation point, recorded into its metrics.

    Evaluations take a workspace of their own.  Given a core to spare, one
    helper thread evaluates a copy of the parameters while the run trains on;
    the result is recorded when the next copy is handed off or the run
    finishes, at the iteration it was taken.  Otherwise the helper would
    compete with training, so each evaluation runs at once on the run's own
    parameters, uncopied.  An evaluation that overflows rolls the run back to
    its update, as if the run had stopped there: it truncates the run's batch
    record, restores the parameters it evaluated, and raises
    TrainingDivergedError.
    """

    def __init__(self, params, test: Dataset, metrics: RunMetrics, record: list,
                 spare_core: bool):
        self.live, self.metrics, self.record = params, metrics, record
        self.pending = None  # (iteration, future) of the evaluation in flight
        self.params = params.copy() if spare_core else params
        self.pool = (ThreadPoolExecutor(1, thread_name_prefix="lossprio-eval")
                     if spare_core else None)
        self.args = (self.params, *test.stack(), Workspace(params, min(len(test), EVAL_CHUNK)))

    def hand_off(self) -> None:
        """Evaluate the parameters as they stand after the last emitted batch."""
        self.collect()
        it = len(self.record) - 1
        if self.pool is None:
            self._record(it, _error_or_none(*self.args))
        else:
            np.copyto(self.params.vector, self.live.vector)
            self.pending = (it, self.pool.submit(_error_or_none, *self.args))

    def collect(self) -> None:
        """Record the evaluation in flight, if there is one."""
        if self.pending is not None:
            (it, future), self.pending = self.pending, None
            self._record(it, future.result())

    def _record(self, it: int, err: float | None) -> None:
        if err is None:
            del self.record[it + 1 :]
            np.copyto(self.live.vector, self.params.vector)
            # one update per emitted batch, so it + 1 updates were made
            raise TrainingDivergedError("overflow while evaluating", iteration=it + 1)
        self.metrics.eval_iterations.append(it)
        self.metrics.eval_errors.append(err)

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
    spare_core: bool = _usable_cores() > 1,
) -> RunMetrics:
    """Train for trainer_cfg.total_epochs passes over the candidate stream.

    Candidate batches all have exactly batch_size examples; the trailing
    remainder of each shuffled epoch is skipped so prioritizers never see a
    partial batch.  On divergence the partial metrics are returned with
    the diverged flag set instead of raising.  Given a core to spare, test
    error is taken on one helper thread while training goes on; every output
    is the same either way.  By default a core is spare when this process may
    use more than one.  The run's batches are added to batch_log, after any
    entries it holds, when the run returns.
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

    rng = np.random.default_rng(trainer_cfg.seed)
    arch = [train.feature_dim, *trainer_cfg.hidden_layers, train.num_classes]
    params = init_params(arch, rng)
    state = init_sgd_state(params)
    workspace = Workspace(params, batch)
    prio = make_prioritizer(prio_cfg, batch)

    metrics = RunMetrics(seed=trainer_cfg.seed)
    # (rows, gate_on) of each emitted batch, in order; the rows are read when
    # the run ends, and no selector writes to a batch once it has emitted it
    record: list = []
    next_eval = eval_every
    batches_per_epoch = len(train) // batch
    evaluations = _Evaluations(params, test, metrics, record, spare_core)

    try:
        # the finite checks below and the evaluations' own errstate catch every
        # divergence, and a run may train on past an evaluation that ends it
        with np.errstate(over="ignore", invalid="ignore"):
            for epoch in range(trainer_cfg.total_epochs):
                lr = learning_rate_at(epoch / trainer_cfg.total_epochs, trainer_cfg)
                order = rng.permutation(len(train))
                for k in range(batches_per_epoch):
                    rows = order[k * batch : (k + 1) * batch]
                    scores = None
                    # without a scoring forward, sgd_step's finite check still
                    # stops a divergent run at this update
                    if prio_cfg.kind != "uniform":
                        scored = forward(params, *workspace.gather(feats, labels, rows),
                                         workspace)
                        if not np.isfinite(scored.losses).all():
                            raise TrainingDivergedError(
                                "non-finite loss while scoring", iteration=state.updates
                            )
                        # the one place a kind's score is chosen
                        scores = (prediction_entropy(scored.probabilities)
                                  if prio_cfg.kind == "sb_entropy" else scored.losses)
                    # an example's id is its row
                    for chosen, gate_on in prio.feed(rows, scores):
                        sgd_step(params, *workspace.gather(feats, labels, chosen),
                                 trainer_cfg, state, lr, workspace)
                        record.append((chosen, gate_on))
                        # weight decay can overflow after sgd_step's gradient check
                        if not np.isfinite(params.vector).all():
                            raise TrainingDivergedError("non-finite parameters after an update",
                                                        iteration=state.updates)
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

    emitted = np.array([chosen for chosen, _ in record], dtype=np.int64).reshape(-1, batch)
    metrics.backprops_series = list(range(batch, batch * (len(record) + 1), batch))
    metrics.corrupted_frac_series = train.corrupted_mask[emitted].mean(axis=1).tolist()
    if prio_cfg.kind == "vr":
        metrics.gate_on_series = [int(gate_on) for _, gate_on in record]
    metrics.picks = np.bincount(emitted.ravel(), minlength=len(train))
    if batch_log is not None:
        batch_log.extend(emitted.tolist())
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


def compute_speedup(baseline, method) -> SpeedupReport:
    """Backprops the baseline curve needed to reach SPEEDUP_SLACK * its own
    best error, divided by the backprops the method curve needed to reach it.

    A curve is a list of (backprops, test error) pairs: a run's eval_points,
    or the seeds' mean from aggregate_seeds.  A method that never reaches the
    threshold gets no speedup value (the benchmark renders that as a dash).
    """
    if not baseline or not method:
        raise AggregationError("a curve has no evaluation points")
    threshold = SPEEDUP_SLACK * min(err for _, err in baseline)
    base_cross = next(bp for bp, err in baseline if err <= threshold)
    method_cross = next((bp for bp, err in method if err <= threshold), None)
    return SpeedupReport(
        threshold_error=threshold,
        baseline_backprops=base_cross,
        method_backprops=method_cross,
        speedup=None if method_cross is None else base_cross / method_cross,
        best_error=min(err for _, err in method),
    )


def aggregate_seeds(runs: list[RunMetrics]) -> list[tuple[int, float]]:
    """One method's mean curve: (backprops, mean test error) over its runs.

    Selection is stochastic, so runs may end a few evaluations apart; the
    curve covers the evaluations every run reached.  Runs whose schedules
    disagree (different eval cadence or batch size) raise an aggregation error.
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
    return list(zip(grids[0], errors.mean(axis=0).tolist()))


def to_json(value, indent: int | None = None) -> str:
    """value as JSON and a newline: sorted keys, dataclasses as dicts, enums by value."""
    return json.dumps(value, indent=indent, sort_keys=True,
                      default=lambda v: v.value if isinstance(v, Enum) else asdict(v)) + "\n"


def write_text(path, text: str) -> None:
    """Write text to path as is, creating its directory first."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(text, newline="")


def write_csv(path, header, rows) -> None:
    """Write each row as its fields' str() joined by commas; none needs quoting."""
    line = ",".join(["%s"] * len(header)) + "\n"
    write_text(path, line % tuple(header) + "".join([line % tuple(row) for row in rows]))


def write_json(path, value) -> None:
    write_text(path, to_json(value))


def write_metrics_csv(metrics: RunMetrics, path) -> None:
    """One row per emitted batch; test_error is only present on eval rows."""
    eval_at = dict(zip(metrics.eval_iterations, metrics.eval_errors))
    n = metrics.num_iterations
    write_csv(path, METRICS_HEADER, zip(
        range(n), metrics.backprops_series, [eval_at.get(it, "") for it in range(n)],
        metrics.corrupted_frac_series, metrics.gate_on_series or [""] * n))


def write_snapshot_csv(dataset: Dataset, path) -> None:
    """One row per example: id, label, corrupted flag, corruption kind."""
    names = [kind.value for kind in CORRUPTION_KINDS]
    rows = enumerate(zip(dataset.labels.tolist(), dataset.kind_codes.tolist()))
    write_csv(path, ["id", "label", "corrupted", "kind"],
              ((i, label, int(code != 0), names[code]) for i, (label, code) in rows))


def save_run(metrics: RunMetrics, run_dir) -> None:
    """Write metrics.csv, picks.csv (times each row was trained on) and run.json (seed, status)."""
    write_metrics_csv(metrics, Path(run_dir, "metrics.csv"))
    write_csv(Path(run_dir, "picks.csv"), ["id", "picks"], enumerate(metrics.picks.tolist()))
    write_json(Path(run_dir, "run.json"), {"seed": metrics.seed, "status": metrics.status})
