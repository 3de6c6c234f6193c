"""The names perfbench's span probes patch and its output checks read still
exist and still get called.

perfbench/layers.py patches lossprio by attribute name and wraps each
prioritizer's ``feed``; perfbench/worker.py's ``check_run`` reads
``Dataset.ids``, ``RunMetrics`` fields and a selector config's ``kind`` and
``beta``.  A rename there would otherwise surface only in a benchmark run
(``perfbench/run.py``).
"""

import json
import sys
from pathlib import Path

from lossprio import cli, harness
from lossprio.datasets import generate_synthetic_pair
from lossprio.model import TrainerConfig
from lossprio.prioritizers import PRIORITIZER_KINDS, PrioritizerConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import layers  # noqa: E402
import worker  # noqa: E402


def test_full_probe_traces_every_kinds_feed():
    train, test = generate_synthetic_pair(96, 40, num_classes=4, feature_dim=8, seed=2)
    cfg = TrainerConfig(batch_size=16, total_epochs=1, hidden_layers=(8,), seed=0)
    with layers.Probe(full=True) as probe:
        for kind in PRIORITIZER_KINDS:
            harness.run_training(train, test, cfg, PrioritizerConfig(kind=kind, seed=1),
                                 eval_every=32)
    metrics = layers.layer_metrics(probe, passes=1, threads=1, peak_rss_mb=1.0,
                                   raw_feature_mb=1.0, bytes_written=0.0,
                                   trace_overhead_frac=0.0)
    for kind in PRIORITIZER_KINDS:
        # one feed per candidate batch, each a span under its run
        assert metrics[f"prioritizers.feed_calls.{kind}"] == len(train) // 16, kind
        assert metrics[f"model.sgd_step_calls.{kind}"] > 0, kind
        assert metrics[f"harness.eval_calls.{kind}"] > 0, kind
    assert harness.make_prioritizer.__module__ == "lossprio.prioritizers"  # probe undone


def test_full_probe_sees_the_evaluation_and_scoring_forwards():
    # model.eval_forward_s and model.score_forward_calls read 0 unless both
    # evaluation and scoring reach the forward through harness.forward
    train, test = generate_synthetic_pair(96, 40, num_classes=4, feature_dim=8, seed=2)
    cfg = TrainerConfig(batch_size=16, total_epochs=1, hidden_layers=(8,), seed=0)
    with layers.Probe(full=True) as probe:
        for kind in PRIORITIZER_KINDS:
            harness.run_training(train, test, cfg, PrioritizerConfig(kind=kind, seed=1),
                                 eval_every=32)
    metrics = layers.layer_metrics(probe, passes=1, threads=1, peak_rss_mb=1.0,
                                   raw_feature_mb=1.0, bytes_written=0.0,
                                   trace_overhead_frac=0.0)
    for kind in PRIORITIZER_KINDS:
        assert metrics[f"model.eval_forward_s.{kind}"] > 0, kind
    for kind in ("sb_loss", "sb_entropy", "vr"):
        assert metrics[f"model.score_forward_calls.{kind}"] > 0, kind
    assert harness.forward.__module__ == "lossprio.model"  # probe undone


def test_full_probe_times_the_cli_file_writers(tmp_path):
    # cli.snapshot_write_s and harness.save_run_s read 0 unless the command
    # line reaches both writers through the names the probe patches
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "dataset": {"num_train": 200, "num_test": 60, "num_classes": 4, "feature_dim": 8},
        "trainer": {"batch_size": 32, "total_epochs": 1, "hidden_layers": [8]},
        "seeds": [1, 2],
        "eval_every": 64,
    }))
    with layers.Probe(full=True) as probe:
        argv = ["train", "--config", str(cfg), "--out", str(tmp_path / "o"), "--threads", "1"]
        assert cli.main(argv) == 0
    names = [span.name for span in probe.tracer.spans]
    assert names.count("datasets.write_snapshot_csv") == 1
    assert names.count("harness.save_run") == 2
    assert cli.save_run is harness.save_run  # probe undone



def test_full_probe_times_the_benchmark_aggregation(tmp_path):
    # harness.aggregate_s and harness.speedup_s read 0 unless the benchmark
    # reaches both through the names the probe patches: one speedup per
    # variant, against curves the benchmark aggregated
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "dataset": {"num_train": 200, "num_test": 60, "num_classes": 4, "feature_dim": 8},
        "trainer": {"batch_size": 32, "total_epochs": 1, "hidden_layers": [8]},
        "corruption_grid": [["none", 0.0]],
        "seeds": [1],
        "eval_every": 64,
    }))
    with layers.Probe(full=True) as probe:
        argv = ["benchmark", "--config", str(cfg), "--out", str(tmp_path / "o"),
                "--threads", "1"]
        assert cli.main(argv) == 0
    names = [span.name for span in probe.tracer.spans]
    assert names.count("harness.compute_speedup") == len(PRIORITIZER_KINDS)
    assert names.count("harness.aggregate_seeds") >= 1
    assert cli.compute_speedup is harness.compute_speedup  # probe undone

def test_runs_pass_perfbench_output_checks():
    train, test = generate_synthetic_pair(4000, 200, num_classes=4, feature_dim=16, seed=2)
    cfg = TrainerConfig(batch_size=16, total_epochs=2, hidden_layers=(16,), seed=0)
    for kind in PRIORITIZER_KINDS:
        prio = PrioritizerConfig(kind=kind, beta=1.0, seed=1)
        log = []
        metrics = harness.run_training(train, test, cfg, prio, batch_log=log)
        assert worker.check_run(metrics, log, train, cfg, prio) == [], kind
