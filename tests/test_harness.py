"""Training loop accounting, speedup math, aggregation, and run files."""

import csv
import hashlib
import itertools
import json
import math
import statistics
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest
from reference import load_checkpoint

from lossprio import harness, prioritizers
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
from lossprio.model import TrainerConfig, init_params
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


def fake_curve(points, best=None):
    errors = [e for _, e in points]
    return SimpleNamespace(
        eval_points=points, best_test_error=min(errors) if best is None else best
    )


class TestComputeSpeedup:
    def test_identical_curves_give_one(self):
        curve = fake_curve([(5000, 0.5), (10000, 0.2)])
        report = compute_speedup(curve, fake_curve([(5000, 0.5), (10000, 0.2)]))
        assert report.threshold_error == pytest.approx(0.24)
        assert report.baseline_backprops == 10000
        assert report.method_backprops == 10000
        assert report.speedup == pytest.approx(1.0)

    def test_earlier_crossing_doubles(self):
        baseline = fake_curve([(5000, 0.5), (10000, 0.2)])
        method = fake_curve([(5000, 0.23), (10000, 0.2)])
        report = compute_speedup(baseline, method)
        assert report.speedup == pytest.approx(2.0)

    def test_never_reaching_method_reports_none(self):
        baseline = fake_curve([(5000, 0.5), (10000, 0.2)])
        method = fake_curve([(5000, 0.9), (10000, 0.8)])
        report = compute_speedup(baseline, method)
        assert report.method_backprops is None
        assert report.speedup is None
        assert report.best_error == pytest.approx(0.8)

    def test_none_round_trips_through_json(self):
        baseline = fake_curve([(5000, 0.5), (10000, 0.2)])
        method = fake_curve([(5000, 0.9)])
        line = compute_speedup(baseline, method).to_json_line()
        assert '"speedup": null' in line
        restored = json.loads(line)
        assert restored["speedup"] is None
        assert restored["baseline_backprops"] == 10000

    def test_json_line_bytes_pinned(self):
        report = harness.SpeedupReport(threshold_error=0.24, baseline_backprops=10000,
                                       method_backprops=None, speedup=None, best_error=0.3)
        assert report.to_json_line() == (
            '{"baseline_backprops": 10000, "best_error": 0.3, "method_backprops": null, '
            '"speedup": null, "threshold_error": 0.24}'
        )

    def test_first_crossing_is_taken(self):
        baseline = fake_curve([(100, 0.3), (200, 0.25), (300, 0.2)])
        method = fake_curve([(100, 0.24), (200, 0.3), (300, 0.1)])
        report = compute_speedup(baseline, method)
        assert report.method_backprops == 100

    def test_inconsistent_baseline_rejected(self):
        # claims a best error its own curve never exhibits
        baseline = fake_curve([(100, 0.5), (200, 0.4)], best=0.1)
        with pytest.raises(ConfigurationError):
            compute_speedup(baseline, baseline)


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
        agg = aggregate_seeds([run])
        assert agg.test_error_mean == [0.5, 0.3, 0.2]
        assert agg.test_error_std == [0.0, 0.0, 0.0]
        assert agg.backprops == [64, 128, 192]
        assert agg.best_test_error == 0.2

    def test_two_run_mean_and_sample_std(self):
        agg = aggregate_seeds([make_run(1, [0.1, 0.4]), make_run(2, [0.2, 0.6])])
        assert agg.test_error_mean == pytest.approx([0.15, 0.5])
        expected_std = [statistics.stdev([0.1, 0.2]), statistics.stdev([0.4, 0.6])]
        assert agg.test_error_std == pytest.approx(expected_std)
        assert agg.best_errors == [0.1, 0.2]

    def test_identical_runs_have_exactly_zero_std(self):
        # dyadic errors so the pointwise mean is exact and std collapses to 0
        runs = [make_run(s, [0.375, 0.125]) for s in (1, 2, 3)]
        agg = aggregate_seeds(runs)
        assert agg.test_error_std == [0.0, 0.0]

    def test_shorter_run_truncates_the_grid(self):
        agg = aggregate_seeds([make_run(1, [0.5, 0.4, 0.3]), make_run(2, [0.6, 0.2])])
        assert agg.backprops == [64, 128]
        assert agg.test_error_mean == pytest.approx([0.55, 0.3])

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

    def test_duck_types_into_speedup(self):
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
PINNED_SELECTION_STREAMS = {
    "uniform": "dce099113744f8814d09cc04cb1f064f97789ab443d55a5402cd70ed459e8e75",
    "sb_loss_b1": "b277d40dbc38efd63b53e4feeec0bcee41c32aea656f5e0fcbc7b3eb941569aa",
    "sb_loss_b2.5": "1c472867e771409d75a485b4460397d74b68315c70201dad8c8260e208b95aca",
    "sb_entropy_b1": "67e40bd3cbb8387e192af666111d4d8f6f2180e644a8a1d61855f6c856b08ceb",
    "vr": "bc9f35c04d37c1e66c13de4f1e3a08a0f8c881a217b8ada767aeb31c590955d3",
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
# moved in its last bit; a performance change must keep them.
PINNED_FINAL_PARAMS = {
    "uniform": "df643050c00b58d2eb155b6238c9b78e8c41b09bc4108056944659bba75d5413",
    "sb_loss": "e3654804797a86fcc5e665e24582fbfba90fb8911d1082ed939d350959ceeba9",
    "vr": "1bacfee47f15af752ef27edfbe6cc413e95ef2b46ed9c43eac50ee8ee5d73db5",
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


def test_vr_pins_hold_with_every_pick_recomputed(monkeypatch, tmp_path):
    # an infinite tie margin sends every weighted pick of the pool's draw to
    # its exact recomputation, which must land on the same pinned bytes
    train, test = tiny_pair(num_train=600)
    train = apply_corruption(train, CorruptionSpec(kind="random_label", fraction=0.3, seed=7))
    monkeypatch.setattr(prioritizers, "_TIE_MARGIN", math.inf)
    recomputed = []  # only the recomputation calls flatnonzero during a vr run
    flatnonzero = np.flatnonzero
    monkeypatch.setattr(np, "flatnonzero", lambda a: recomputed.append(1) or flatnonzero(a))
    cfg = PrioritizerConfig(kind="vr", pool_capacity=80, gate_threshold=0.05, seed=1)
    log, path = [], tmp_path / "vr.npz"
    metrics = run_training(train, test, tiny_trainer(), cfg, eval_every=64, batch_log=log,
                           checkpoint_path=path)
    blob = json.dumps([log, metrics.eval_errors, metrics.gate_on_series])
    assert hashlib.sha256(blob.encode()).hexdigest() == PINNED_SELECTION_STREAMS["vr"]
    vector = load_checkpoint(path).vector
    assert hashlib.sha256(vector.tobytes()).hexdigest() == PINNED_FINAL_PARAMS["vr"]
    assert len(recomputed) == 32 * sum(metrics.gate_on_series)


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
    """Everything a run returns and writes, with or without the helper thread."""
    monkeypatch.setattr(harness, "_spare_core", helper)
    train, test, trainer, prio, eval_every = case
    log, path = [], tmp_path / f"model_{helper}.npz"
    m = run_training(train, test, trainer, prio, eval_every, batch_log=log,
                     checkpoint_path=path)
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
