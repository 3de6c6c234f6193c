"""Training loop accounting, speedup math, aggregation, and run files."""

import csv
import hashlib
import itertools
import json
import sys
import threading
import time

import numpy as np
import pytest
from reference import load_checkpoint

from lossprio import harness
from lossprio.config import build_datasets, experiment_config_from_dict
from lossprio.datasets import (
    CorruptionSpec,
    apply_corruption,
    generate_synthetic_pair,
)
from lossprio.errors import AggregationError, ConfigurationError
from lossprio.harness import (
    METRICS_HEADER,
    RunMetrics,
    aggregate_seeds,
    compute_speedup,
    evaluate_error,
    run_training,
    save_run,
    write_metrics_csv,
)
from lossprio.model import TrainerConfig, Workspace, forward, init_params
from lossprio.prioritizers import PrioritizerConfig


def tiny_pair(num_train=400, num_test=120, seed=3):
    return generate_synthetic_pair(
        num_train, num_test, num_classes=4, feature_dim=8, seed=seed
    )


def tiny_trainer(**overrides):
    base = dict(
        learning_rate=0.1,
        momentum=0.9,
        weight_decay=0.0005,
        batch_size=32,
        total_epochs=3,
        seed=5,
        hidden_layers=(16,),
    )
    base.update(overrides)
    return TrainerConfig(**base)


class TestRunTraining:
    def test_uniform_accounting_invariants(self):
        train, test = tiny_pair()
        metrics = run_training(
            train, test, tiny_trainer(), PrioritizerConfig(kind="uniform", seed=1),
            eval_every=64,
        )
        # 400 // 32 = 12 full batches per epoch, partial remainder skipped
        assert metrics.num_iterations == 12 * 3
        assert metrics.total_backprops == 12 * 3 * 32
        assert metrics.picks.dtype == np.int64 and len(metrics.picks) == len(train)
        assert metrics.picks.sum() == metrics.total_backprops
        steps = np.diff([0, *metrics.backprops_series])
        assert (steps == 32).all()
        assert metrics.best_test_error == min(metrics.eval_errors)
        assert all(0.0 <= e <= 1.0 for e in metrics.eval_errors)
        assert metrics.gate_on_series is None
        assert not metrics.diverged

    def test_eval_cadence_tracks_backprop_budget(self):
        train, test = tiny_pair()
        metrics = run_training(
            train, test, tiny_trainer(total_epochs=2),
            PrioritizerConfig(kind="uniform", seed=1), eval_every=64,
        )
        # batches carry 32 examples, so the 64-budget line is crossed on
        # every second update
        assert metrics.eval_iterations == list(range(1, 24, 2))
        crossed = [metrics.backprops_series[i] for i in metrics.eval_iterations]
        assert crossed == [64 * k for k in range(1, 13)]

    def test_clean_run_never_marks_corrupted(self):
        train, test = tiny_pair()
        metrics = run_training(
            train, test, tiny_trainer(), PrioritizerConfig(kind="uniform", seed=1),
            eval_every=128,
        )
        assert set(metrics.corrupted_frac_series) == {0.0}

    def test_corrupted_fraction_reflects_batch_contents(self):
        train, test = tiny_pair()
        train = apply_corruption(
            train, CorruptionSpec(kind="random_label", fraction=0.5, seed=7)
        )
        metrics = run_training(
            train, test, tiny_trainer(), PrioritizerConfig(kind="uniform", seed=1),
            eval_every=128,
        )
        mean_frac = float(np.mean(metrics.corrupted_frac_series))
        assert abs(mean_frac - 0.5) < 0.1
        assert all(0.0 <= f <= 1.0 for f in metrics.corrupted_frac_series)

    def test_vr_run_logs_gate_series(self):
        train, test = tiny_pair()
        metrics = run_training(
            train, test, tiny_trainer(), PrioritizerConfig(kind="vr", seed=1),
            eval_every=64,
        )
        assert metrics.gate_on_series is not None
        assert len(metrics.gate_on_series) == metrics.num_iterations
        assert set(metrics.gate_on_series) <= {0, 1}
        # pool capacity 3x batch: a third of the candidate stream trains
        assert metrics.num_iterations == (12 * 3) // 3

    def test_identical_configs_identical_runs(self):
        train, test = tiny_pair()
        logs = []
        runs = []
        for _ in range(2):
            log = []
            runs.append(
                run_training(
                    train, test, tiny_trainer(),
                    PrioritizerConfig(kind="sb_loss", beta=1.0, seed=9),
                    eval_every=64, batch_log=log,
                )
            )
            logs.append(log)
        assert logs[0] == logs[1]
        assert runs[0].backprops_series == runs[1].backprops_series
        assert runs[0].eval_errors == runs[1].eval_errors
        assert np.array_equal(runs[0].picks, runs[1].picks)

    def test_checkpoint_written_when_requested(self, tmp_path):
        train, test = tiny_pair()
        path = tmp_path / "model.npz"
        run_training(
            train, test, tiny_trainer(total_epochs=1),
            PrioritizerConfig(kind="uniform", seed=1), eval_every=64,
            checkpoint_path=path,
        )
        assert path.exists()

    def test_divergence_sets_flag_and_keeps_partial_metrics(self):
        train, test = tiny_pair()
        wild = tiny_trainer(learning_rate=1e160, weight_decay=1e160, momentum=0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            metrics = run_training(
                train, test, wild, PrioritizerConfig(kind="uniform", seed=1),
                eval_every=64,
            )
        assert metrics.diverged
        assert metrics.num_iterations >= 1

    def test_overflow_while_evaluating_is_divergence(self):
        # the first update leaves every parameter finite, but the evaluation
        # after it overflows: the run diverges there, with no test error taken
        # from that model and no RuntimeWarning
        train, test = generate_synthetic_pair(600, 120, num_classes=4, feature_dim=8,
                                              seed=1, cluster_spread=1000)
        metrics = run_training(
            train, test, TrainerConfig(learning_rate=1e307, hidden_layers=(16,), seed=1),
            PrioritizerConfig(kind="sb_loss", seed=101), eval_every=128,
        )
        assert metrics.status == "diverged"
        assert metrics.num_iterations == 1 and metrics.eval_errors == []

    def test_diverged_run_logs_its_batches_after_existing_entries(self):
        train, test = tiny_pair()
        wild = tiny_trainer(learning_rate=1e160, weight_decay=1e160, momentum=0.0)
        log = [[-1]]
        metrics = run_training(
            train, test, wild, PrioritizerConfig(kind="uniform", seed=1),
            eval_every=64, batch_log=log,
        )
        assert metrics.diverged
        assert log[0] == [-1]
        assert len(log) - 1 == metrics.num_iterations
        batches = np.array(log[1:], dtype=np.int64)
        assert np.array_equal(metrics.picks, np.bincount(batches.ravel(),
                                                         minlength=len(train)))

    def test_raising_call_leaves_batch_log_as_it_was(self, monkeypatch, tmp_path):
        # the batches reach batch_log only when run_training returns
        steps = itertools.count()
        real_step = harness.sgd_step

        def failing_step(*args):
            if next(steps) == 5:
                raise RuntimeError("step failed")
            real_step(*args)

        monkeypatch.setattr(harness, "sgd_step", failing_step)
        train, test = tiny_pair()
        log, path = ["kept"], tmp_path / "model.npz"
        with pytest.raises(RuntimeError, match="step failed"):
            run_training(train, test, tiny_trainer(),
                         PrioritizerConfig(kind="uniform", seed=1), eval_every=64,
                         batch_log=log, checkpoint_path=path)
        assert log == ["kept"]
        assert not path.exists()

    def test_split_mismatch_rejected(self):
        # run_training owns the rule that both splits fit the model it builds
        train, _ = tiny_pair()
        for classes, width in ((5, 8), (4, 9)):
            _, other = generate_synthetic_pair(50, 30, num_classes=classes,
                                               feature_dim=width, seed=4)
            with pytest.raises(ConfigurationError, match="classes or width"):
                run_training(train, other, tiny_trainer(),
                             PrioritizerConfig(kind="uniform"))

    def test_train_smaller_than_batch_rejected(self):
        train, test = tiny_pair(num_train=20)
        with pytest.raises(ConfigurationError):
            run_training(train, test, tiny_trainer(),
                         PrioritizerConfig(kind="uniform"))

    def test_bad_eval_every_rejected(self):
        train, test = tiny_pair()
        with pytest.raises(ConfigurationError):
            run_training(train, test, tiny_trainer(),
                         PrioritizerConfig(kind="uniform"), eval_every=0)


class TestEvaluateError:
    def test_zero_model_predicts_first_class(self):
        params = init_params([4, 3], 0)
        for w in params.weights:
            w[:] = 0.0
        for b in params.biases:
            b[:] = 0.0
        feats = np.ones((6, 4))
        labels = np.array([0, 0, 1, 2, 1, 0])
        assert evaluate_error(params, feats, labels) == pytest.approx(0.5)

    def test_chunking_does_not_change_result(self, monkeypatch):
        rng = np.random.default_rng(11)
        params = init_params([4, 3], 1)
        feats = rng.normal(size=(37, 4))
        labels = rng.integers(0, 3, size=37)
        full = evaluate_error(params, feats, labels)
        monkeypatch.setattr(harness, "EVAL_CHUNK", 5)
        chunked = evaluate_error(params, feats, labels)
        assert full == chunked

    def test_empty_split_rejected(self):
        params = init_params([4, 3], 0)
        with pytest.raises(ConfigurationError):
            evaluate_error(params, np.empty((0, 4)), np.empty(0, dtype=int))

    def test_matches_the_full_forwards_predictions(self):
        # two chunks, the second of 7 rows, against one labelled forward
        rng = np.random.default_rng(12)
        n = harness.EVAL_CHUNK + 7
        params = init_params([8, 16, 5], 2)
        feats, labels = rng.normal(size=(n, 8)), rng.integers(5, size=n)
        wrong = forward(params, feats, labels).predictions != labels
        assert evaluate_error(params, feats, labels) == wrong.sum() / n
        # all-equal logits: the argmax takes class 0
        params.weights[-1][:] = 0.0
        params.biases[-1][:] = 0.0
        assert evaluate_error(params, feats, labels) == np.count_nonzero(labels) / n


# (layer, "w" or "b", value) entries set, one per flat index from 0, and
# whether _error_or_none returns None; these are the outcomes of the full
# log-softmax evaluation this one replaced.  One entry of +-1e308 in the last
# layer's weights does not overflow: the tanh before it is bounded by 1.
OVERFLOW_CASES = {
    "w0 +inf, a zero feature": (((0, "w", np.inf),), True),
    "w0 -inf, a zero feature": (((0, "w", -np.inf),), True),
    "w0 +inf": (((0, "w", np.inf),), False),
    "w0 -1e308": (((0, "w", -1e308),), True),
    "w1 +inf": (((1, "w", np.inf),), True),
    "w1 -inf": (((1, "w", -np.inf),), True),
    "w1 +1e308": (((1, "w", 1e308),), False),
    "w1 -1e308": (((1, "w", -1e308),), False),
    "b1 +inf": (((1, "b", np.inf),), True),
    "b1 -inf": (((1, "b", -np.inf),), False),
    "w0 nan": (((0, "w", np.nan),), False),
    "b0 nan": (((0, "b", np.nan),), False),
    "w1 nan": (((1, "w", np.nan),), False),
    "b1 nan": (((1, "b", np.nan),), False),
    "row range past the largest float": (((1, "b", 1e308), (1, "b", -1e308)), True),
}


@pytest.mark.parametrize("name", list(OVERFLOW_CASES))
def test_evaluation_overflows_where_the_full_forward_does(name):
    entries, overflows = OVERFLOW_CASES[name]
    rng = np.random.default_rng(4)
    # features of magnitude 1 to 2, so 1e308 in the first layer overflows
    feats = rng.uniform(1.0, 2.0, size=(40, 8)) * rng.choice([-1.0, 1.0], size=(40, 8))
    labels = rng.integers(4, size=40)
    if "zero feature" in name:
        feats[3, 0] = 0.0  # inf * 0 is invalid
    params = init_params([8, 6, 4], 5)
    for index, (layer, kind, value) in enumerate(entries):
        (params.weights if kind == "w" else params.biases)[layer].flat[index] = value
    got = harness._error_or_none(params, feats, labels, Workspace(params, 40))
    if overflows:
        assert got is None
    else:
        with np.errstate(all="ignore"):
            wrong = forward(params, feats, labels).predictions != labels
        assert got == wrong.sum() / len(labels)


class TestComputeSpeedup:
    def test_identical_curves_give_one(self):
        curve = [(5000, 0.5), (10000, 0.2)]
        report = compute_speedup(curve, [(5000, 0.5), (10000, 0.2)])
        assert report.threshold_error == pytest.approx(0.24)
        assert report.baseline_backprops == 10000
        assert report.method_backprops == 10000
        assert report.speedup == pytest.approx(1.0)

    def test_earlier_crossing_doubles(self):
        baseline = [(5000, 0.5), (10000, 0.2)]
        method = [(5000, 0.23), (10000, 0.2)]
        report = compute_speedup(baseline, method)
        assert report.speedup == pytest.approx(2.0)

    def test_never_reaching_method_reports_none(self):
        baseline = [(5000, 0.5), (10000, 0.2)]
        method = [(5000, 0.9), (10000, 0.8)]
        report = compute_speedup(baseline, method)
        assert report.method_backprops is None
        assert report.speedup is None
        assert report.best_error == pytest.approx(0.8)

    def test_none_round_trips_through_json(self):
        baseline = [(5000, 0.5), (10000, 0.2)]
        method = [(5000, 0.9)]
        line = harness.to_json(compute_speedup(baseline, method))
        assert '"speedup": null' in line
        restored = json.loads(line)
        assert restored["speedup"] is None
        assert restored["baseline_backprops"] == 10000

    def test_json_line_bytes_pinned(self):
        report = harness.SpeedupReport(threshold_error=0.24, baseline_backprops=10000,
                                       method_backprops=None, speedup=None, best_error=0.3)
        assert harness.to_json(report) == (
            '{"baseline_backprops": 10000, "best_error": 0.3, "method_backprops": null, '
            '"speedup": null, "threshold_error": 0.24}\n'
        )

    def test_first_crossing_is_taken(self):
        baseline = [(100, 0.3), (200, 0.25), (300, 0.2)]
        method = [(100, 0.24), (200, 0.3), (300, 0.1)]
        report = compute_speedup(baseline, method)
        assert report.method_backprops == 100

    def test_empty_curve_rejected(self):
        curve = [(100, 0.5), (200, 0.4)]
        with pytest.raises(AggregationError):
            compute_speedup([], curve)
        with pytest.raises(AggregationError):
            compute_speedup(curve, [])

    def test_a_runs_eval_points_are_a_curve(self):
        run = make_run(1, [0.5, 0.3, 0.2])
        report = compute_speedup(run.eval_points, run.eval_points)
        assert report.best_error == run.best_test_error
        assert report.speedup == 1.0


def make_run(seed, eval_errors, eval_every=64, batch=32, fracs=None):
    """Synthesize a run whose evals land on the standard every-other-batch grid."""
    n_iter = 2 * len(eval_errors)
    metrics = RunMetrics(seed=seed)
    metrics.backprops_series = [batch * (i + 1) for i in range(n_iter)]
    metrics.corrupted_frac_series = list(fracs) if fracs else [0.0] * n_iter
    metrics.eval_iterations = list(range(1, n_iter, 2))
    metrics.eval_errors = list(eval_errors)
    metrics.picks = np.full(batch, 2, dtype=np.int64)
    return metrics


class TestAggregateSeeds:
    def test_single_run_is_mean_with_zero_std(self):
        run = make_run(1, [0.5, 0.3, 0.2])
        assert aggregate_seeds([run]) == [(64, 0.5), (128, 0.3), (192, 0.2)]
        assert aggregate_seeds([run]) == run.eval_points

    def test_two_run_mean_and_sample_std(self):
        curve = aggregate_seeds([make_run(1, [0.1, 0.4]), make_run(2, [0.2, 0.6])])
        assert [bp for bp, _ in curve] == [64, 128]
        assert [err for _, err in curve] == pytest.approx([0.15, 0.5])

    def test_shorter_run_truncates_the_grid(self):
        curve = aggregate_seeds([make_run(1, [0.5, 0.4, 0.3]), make_run(2, [0.6, 0.2])])
        assert [bp for bp, _ in curve] == [64, 128]
        assert [err for _, err in curve] == pytest.approx([0.55, 0.3])

    def test_disagreeing_grids_rejected(self):
        with pytest.raises(AggregationError):
            aggregate_seeds([make_run(1, [0.5, 0.4]), make_run(2, [0.5, 0.4], batch=16)])

    def test_empty_input_rejected(self):
        with pytest.raises(AggregationError):
            aggregate_seeds([])

    def test_run_without_evals_rejected(self):
        empty = RunMetrics(seed=1, backprops_series=[32], corrupted_frac_series=[0.0])
        with pytest.raises(AggregationError):
            aggregate_seeds([make_run(1, [0.5]), empty])

    def test_mean_curve_feeds_speedup(self):
        base = aggregate_seeds([make_run(1, [0.5, 0.2]), make_run(2, [0.5, 0.2])])
        report = compute_speedup(base, base)
        assert report.speedup == pytest.approx(1.0)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestRunSerialization:
    def run_real(self, kind="vr"):
        train, test = tiny_pair(num_train=200, num_test=60)
        train = apply_corruption(
            train, CorruptionSpec(kind="random_label", fraction=0.3, seed=7)
        )
        return run_training(
            train, test, tiny_trainer(total_epochs=2),
            PrioritizerConfig(kind=kind, seed=2), eval_every=64,
        )

    def test_metrics_csv_round_trip(self, tmp_path):
        metrics = self.run_real()
        path = tmp_path / "metrics.csv"
        write_metrics_csv(metrics, path)
        header, *rows = read_csv(path)
        assert header == METRICS_HEADER
        assert [int(row[0]) for row in rows] == list(range(metrics.num_iterations))
        assert [int(row[1]) for row in rows] == metrics.backprops_series
        evals = [(int(row[0]), float(row[2])) for row in rows if row[2]]
        assert evals == list(zip(metrics.eval_iterations, metrics.eval_errors))  # repr round-trip
        assert [float(row[3]) for row in rows] == metrics.corrupted_frac_series
        assert [int(row[4]) for row in rows] == metrics.gate_on_series

    def test_gate_column_blank_for_non_vr(self, tmp_path):
        metrics = self.run_real(kind="uniform")
        path = tmp_path / "metrics.csv"
        write_metrics_csv(metrics, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(METRICS_HEADER)
        assert all(line.endswith(",") for line in lines[1:])

    def test_error_column_only_on_eval_rows(self, tmp_path):
        metrics = self.run_real(kind="uniform")
        path = tmp_path / "metrics.csv"
        write_metrics_csv(metrics, path)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        filled = [i for i, row in enumerate(rows) if row[2] != ""]
        assert filled == metrics.eval_iterations

    def test_rewrite_is_byte_identical(self, tmp_path):
        metrics = self.run_real()
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        write_metrics_csv(metrics, first)
        write_metrics_csv(metrics, second)
        assert first.read_bytes() == second.read_bytes()

    def test_save_and_load_run(self, tmp_path):
        metrics = self.run_real()
        save_run(metrics, tmp_path / "seed_5")
        assert json.loads((tmp_path / "seed_5" / "run.json").read_text()) == {
            "seed": 5, "status": "ok"}
        write_metrics_csv(metrics, tmp_path / "metrics.csv")
        saved = (tmp_path / "seed_5" / "metrics.csv").read_bytes()
        assert saved == (tmp_path / "metrics.csv").read_bytes()
        header, *rows = read_csv(tmp_path / "seed_5" / "picks.csv")
        assert header == ["id", "picks"]
        assert rows == [[str(i), str(n)] for i, n in enumerate(metrics.picks)]


# sha256 of json.dumps([batch_log, eval_errors, gate_on_series]) per variant,
# recorded before selection was vectorized.  A change here means the RNG
# stream or an emitted batch moved; a performance change must keep them.
# The vr entry moved on purpose with the exponential-keys draw, which takes
# the running-sum search's distribution but not its random stream.
PINNED_SELECTION_STREAMS = {
    "uniform": "dce099113744f8814d09cc04cb1f064f97789ab443d55a5402cd70ed459e8e75",
    "sb_loss_b1": "b277d40dbc38efd63b53e4feeec0bcee41c32aea656f5e0fcbc7b3eb941569aa",
    "sb_loss_b2.5": "1c472867e771409d75a485b4460397d74b68315c70201dad8c8260e208b95aca",
    "sb_entropy_b1": "67e40bd3cbb8387e192af666111d4d8f6f2180e644a8a1d61855f6c856b08ceb",
    "vr": "2e705e4cc3e31c2cc4afa570d7b3cfbae373893e2bb19d8263456e89ccc930cb",
}


def test_selection_streams_match_pinned_hashes():
    train, test = tiny_pair(num_train=600)
    train = apply_corruption(train, CorruptionSpec(kind="random_label", fraction=0.3, seed=7))
    variants = {
        "uniform": PrioritizerConfig(kind="uniform", seed=1),
        "sb_loss_b1": PrioritizerConfig(kind="sb_loss", beta=1.0, seed=1),
        # a window of two batches wraps many times
        "sb_loss_b2.5": PrioritizerConfig(kind="sb_loss", beta=2.5, histogram_capacity=64,
                                          seed=1),
        "sb_entropy_b1": PrioritizerConfig(kind="sb_entropy", beta=1.0, seed=1),
        # the gate opens on 20 of 21 draws, so both draw paths run
        "vr": PrioritizerConfig(kind="vr", pool_capacity=80, gate_threshold=0.05, seed=1),
    }
    got = {}
    for name, cfg in variants.items():
        log = []
        metrics = run_training(train, test, tiny_trainer(), cfg, eval_every=64, batch_log=log)
        blob = json.dumps([log, metrics.eval_errors, metrics.gate_on_series])
        got[name] = hashlib.sha256(blob.encode()).hexdigest()
    assert got == PINNED_SELECTION_STREAMS


# sha256 of the final ModelParams.vector bytes per variant, recorded before
# the parameters became one flat vector.  A change here means some update
# moved in its last bit; a performance change must keep them.  The vr entry
# moved on purpose with the exponential-keys draw's new random stream.
PINNED_FINAL_PARAMS = {
    "uniform": "df643050c00b58d2eb155b6238c9b78e8c41b09bc4108056944659bba75d5413",
    "sb_loss": "e3654804797a86fcc5e665e24582fbfba90fb8911d1082ed939d350959ceeba9",
    "vr": "15aef85d66d5a4837ff532f519dc8af55377cb8ccf205950d2ede522a7ca2872",
}


def test_final_parameters_match_pinned_hashes(tmp_path):
    train, test = tiny_pair(num_train=600)
    train = apply_corruption(train, CorruptionSpec(kind="random_label", fraction=0.3, seed=7))
    variants = {
        "uniform": PrioritizerConfig(kind="uniform", seed=1),
        "sb_loss": PrioritizerConfig(kind="sb_loss", beta=1.0, seed=1),
        "vr": PrioritizerConfig(kind="vr", pool_capacity=80, gate_threshold=0.05, seed=1),
    }
    got = {}
    for name, cfg in variants.items():
        path = tmp_path / f"{name}.npz"
        run_training(train, test, tiny_trainer(), cfg, eval_every=64, checkpoint_path=path)
        got[name] = hashlib.sha256(load_checkpoint(path).vector.tobytes()).hexdigest()
    assert got == PINNED_FINAL_PARAMS


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_minflt is Linux-only")
def test_repeated_run_reuses_its_buffers():
    # A run allocates its batch, activation, delta and gradient arrays once.
    # Allocated per call instead, each eval forward's 1 MB of activations is a
    # fresh mmap once nothing has raised glibc's mmap threshold, which an
    # in-place dataset build no longer does: about 22k minor faults for this
    # run, against about 800 with the buffers allocated once.
    import resource

    cfg = experiment_config_from_dict({
        "corruption": {"kind": "random_label", "fraction": 0.5, "seed": 3},
        "trainer": {"total_epochs": 5},
    })
    train, test = build_datasets(cfg)
    prio = PrioritizerConfig(kind="uniform")
    run_training(train, test, cfg.trainer, prio, cfg.eval_every)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_training(train, test, cfg.trainer, prio, cfg.eval_every)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 5000, faults


def overflow_case():
    """After its first update every parameter is finite, but the evaluation
    after it overflows (test_overflow_while_evaluating_is_divergence)."""
    train, test = generate_synthetic_pair(600, 120, num_classes=4, feature_dim=8, seed=1,
                                          cluster_spread=1000)
    return (train, test, TrainerConfig(learning_rate=1e307, hidden_layers=(16,), seed=1),
            PrioritizerConfig(kind="sb_loss", seed=101), 128)


def helper_cases():
    train, test = tiny_pair(num_train=600)
    train = apply_corruption(train, CorruptionSpec(kind="random_label", fraction=0.3, seed=7))
    wild = tiny_trainer(learning_rate=1e160, weight_decay=1e160, momentum=0.0)
    return {
        "uniform": (train, test, tiny_trainer(), PrioritizerConfig(kind="uniform", seed=1), 64),
        "sb_entropy": (train, test, tiny_trainer(),
                       PrioritizerConfig(kind="sb_entropy", seed=1), 32),
        "vr": (train, test, tiny_trainer(),
               PrioritizerConfig(kind="vr", pool_capacity=80, gate_threshold=0.05, seed=1), 64),
        # an evaluation is in flight when the next update diverges
        "wild": (train, test, wild, PrioritizerConfig(kind="uniform", seed=1), 32),
        "overflow": overflow_case(),
    }


def run_on(helper, case, tmp_path, monkeypatch):
    """Everything a run returns and writes, with or without the helper thread.

    The run's picks and corrupted shares must agree with the batches it
    logged after an entry the log already held.
    """
    monkeypatch.setattr(harness, "_spare_core", helper)
    train, test, trainer, prio, eval_every = case
    sentinel = ["logged before the run"]
    log, path = [sentinel], tmp_path / f"model_{helper}.npz"
    m = run_training(train, test, trainer, prio, eval_every, batch_log=log,
                     checkpoint_path=path)
    assert log[0] is sentinel
    log = log[1:]
    batches = np.array(log, dtype=np.int64).reshape(-1, trainer.batch_size)
    assert np.array_equal(m.picks, np.bincount(batches.ravel(), minlength=len(train)))
    assert m.corrupted_frac_series == [float(train.corrupted_mask[b].mean()) for b in batches]
    return ([m.seed, m.backprops_series, m.corrupted_frac_series, m.gate_on_series,
             m.eval_iterations, m.eval_errors, m.picks.tolist(), m.diverged],
            log, path.read_bytes())


def eval_threads():
    return [t for t in threading.enumerate() if t.name.startswith("lossprio-eval")]


@pytest.mark.parametrize("name", list(helper_cases()))
def test_helper_thread_gives_the_serial_run(name, tmp_path, monkeypatch, capfd):
    case = helper_cases()[name]
    assert run_on(True, case, tmp_path, monkeypatch) == run_on(False, case, tmp_path,
                                                               monkeypatch)
    assert eval_threads() == []
    assert capfd.readouterr().err == ""  # no overflow warning from either thread


def test_late_overflow_rolls_the_run_back_to_its_evaluation(tmp_path, monkeypatch):
    # the third evaluation overflows while the run trains on for a while
    # past it: the run ends there, as it does without the helper
    evaluate, calls = harness.evaluate_error, []

    def third_overflows(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            time.sleep(0.2)
            raise FloatingPointError("overflow encountered in matmul")
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(harness, "evaluate_error", third_overflows)
    case = helper_cases()["vr"]
    helped = run_on(True, case, tmp_path, monkeypatch)
    calls.clear()
    assert helped == run_on(False, case, tmp_path, monkeypatch)
    metrics, log, _ = helped
    # diverged at the third evaluation's batch, two batches of 32 after the second
    assert metrics[-1] and len(metrics[4]) == 2
    assert len(log) == len(metrics[1]) == metrics[4][-1] + 3


def test_helper_stops_when_the_loop_raises(monkeypatch):
    # a feed that raises while an evaluation is in flight leaves no thread behind
    evaluate = harness.evaluate_error
    monkeypatch.setattr(harness, "evaluate_error",
                        lambda *a, **k: time.sleep(0.05) or evaluate(*a, **k))
    make = harness.make_prioritizer

    def failing_selector(cfg, batch_size):
        prio, calls = make(cfg, batch_size), itertools.count()
        feed = prio.feed
        prio.feed = lambda *a: feed(*a) if next(calls) < 5 else 1 / 0
        return prio

    monkeypatch.setattr(harness, "make_prioritizer", failing_selector)
    monkeypatch.setattr(harness, "_spare_core", True)
    train, test, trainer, prio, _ = helper_cases()["uniform"]
    with pytest.raises(ZeroDivisionError):
        run_training(train, test, trainer, prio, eval_every=32)
    assert eval_threads() == []


def test_helper_holds_under_constant_thread_switches(tmp_path, monkeypatch):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for name, case in helper_cases().items():
            serial = run_on(False, case, tmp_path, monkeypatch)
            for _ in range(3):
                assert run_on(True, case, tmp_path, monkeypatch) == serial, name
    finally:
        sys.setswitchinterval(interval)
    assert eval_threads() == []
