"""Release gate: ten end-to-end checks, one printed PASS/FAIL line each.

Every check times itself against a wall-clock budget and prints its measured
values even when passing, so a gate run leaves a readable transcript.  The
multi-seed training checks run the full default task.  The four property
checks are the functions of ``lossprio.selftest``, which the ``selftest``
command runs too.
"""

import json
import time

import numpy as np
import pytest
from reference import load_checkpoint
from scipy import stats

from lossprio import selftest
from lossprio.cli import main
from lossprio.datasets import CorruptionSpec, apply_corruption, generate_synthetic_pair
from lossprio.harness import aggregate_seeds, compute_speedup, run_training
from lossprio.model import TrainerConfig
from lossprio.prioritizers import PrioritizerConfig

SEEDS = (1, 2, 3, 4, 5)
EVAL_EVERY = 512
PRIO_SEED_OFFSET = 100


def emit(capsys, name, passed, detail):
    """Print the verdict straight to the terminal, bypassing capture."""
    with capsys.disabled():
        print(f"{'PASS' if passed else 'FAIL'}: {name} ({detail})", flush=True)


def gate_check(capsys, name, check, budget):
    """Run one of the checks selftest shares with this gate, within a budget."""
    t0 = time.perf_counter()
    _, passed, detail = check()
    elapsed = time.perf_counter() - t0
    detail = f"{detail}, {elapsed:.1f}s"
    ok = passed and elapsed < budget
    emit(capsys, name, ok, detail)
    assert ok, detail


def run_one(train, test, kind, seed, beta=1.0, batch_log=None, checkpoint_path=None):
    trainer = TrainerConfig(seed=seed)
    prio = PrioritizerConfig(kind=kind, beta=beta, seed=PRIO_SEED_OFFSET + seed)
    return run_training(
        train, test, trainer, prio, eval_every=EVAL_EVERY,
        batch_log=batch_log, checkpoint_path=checkpoint_path,
    )


@pytest.fixture(scope="module")
def clean_pair():
    return generate_synthetic_pair(5000, 1000, num_classes=10, feature_dim=32, seed=1)


@pytest.fixture(scope="module")
def noisy25_pair(clean_pair):
    train, test = clean_pair
    noisy = apply_corruption(
        train, CorruptionSpec(kind="random_label", fraction=0.25, seed=7)
    )
    return noisy, test


@pytest.fixture(scope="module")
def noisy50_pair(clean_pair):
    train, test = clean_pair
    noisy = apply_corruption(
        train, CorruptionSpec(kind="random_label", fraction=0.5, seed=7)
    )
    return noisy, test


def test_selection_rates_follow_beta(capsys):
    gate_check(capsys, "selection-rates", selftest.check_selection_rates, 10)


def test_gradients_match_finite_differences(capsys):
    gate_check(capsys, "gradient-check", selftest.check_gradients, 5)


def test_beta_zero_run_is_plain_sgd(capsys, clean_pair, tmp_path):
    t0 = time.perf_counter()
    train, test = clean_pair
    logs = {"uniform": [], "sb_loss": []}
    ckpts = {k: tmp_path / f"{k}.npz" for k in logs}
    runs = {
        kind: run_one(train, test, kind, seed=1, beta=0.0,
                      batch_log=logs[kind], checkpoint_path=ckpts[kind])
        for kind in logs
    }
    batches_equal = logs["uniform"] == logs["sb_loss"]
    evals_equal = runs["uniform"].eval_errors == runs["sb_loss"].eval_errors
    a = load_checkpoint(ckpts["uniform"])
    b = load_checkpoint(ckpts["sb_loss"])
    params_equal = all(
        np.array_equal(x, y) for x, y in zip(a.weights, b.weights)
    ) and all(np.array_equal(x, y) for x, y in zip(a.biases, b.biases))
    elapsed = time.perf_counter() - t0
    detail = (
        f"batches equal {batches_equal}, params bit-equal {params_equal}, "
        f"{elapsed:.1f}s"
    )
    ok = batches_equal and evals_equal and params_equal and elapsed < 30
    emit(capsys, "beta-zero-equivalence", ok, detail)
    assert ok, detail


def test_clean_data_speedup(capsys, clean_pair):
    t0 = time.perf_counter()
    train, test = clean_pair
    base = aggregate_seeds([run_one(train, test, "uniform", s) for s in SEEDS])
    method = aggregate_seeds(
        [run_one(train, test, "sb_loss", s, beta=1.0) for s in SEEDS]
    )
    report = compute_speedup(base, method)
    elapsed = time.perf_counter() - t0
    shown = "none" if report.speedup is None else f"{report.speedup:.2f}"
    detail = (
        f"speedup {shown}, base best {min(err for _, err in base):.4f}, "
        f"sb best {report.best_error:.4f}, {elapsed:.1f}s"
    )
    ok = report.speedup is not None and report.speedup > 1.0 and elapsed < 300
    emit(capsys, "clean-speedup", ok, detail)
    assert ok, detail


def test_noisy_examples_oversampled(capsys, noisy25_pair):
    t0 = time.perf_counter()
    train, test = noisy25_pair
    runs = {k: run_one(train, test, k, seed=1) for k in ("uniform", "sb_loss")}
    halves = {}
    for kind, metrics in runs.items():
        tail = metrics.corrupted_frac_series[metrics.num_iterations // 2 :]
        halves[kind] = float(np.mean(tail))
    # batch fractions are k/128 exact, so recover integer pick counts for
    # a one-sided binomial test against the 0.25 base rate
    tail = runs["sb_loss"].corrupted_frac_series[runs["sb_loss"].num_iterations // 2 :]
    picks = int(round(sum(tail) * 128))
    total = len(tail) * 128
    pvalue = stats.binomtest(picks, total, 0.25, alternative="greater").pvalue
    elapsed = time.perf_counter() - t0
    detail = (
        f"sb tail frac {halves['sb_loss']:.3f}, uniform {halves['uniform']:.3f}, "
        f"p={pvalue:.2e}, {elapsed:.1f}s"
    )
    ok = (
        halves["sb_loss"] > 0.30
        and abs(halves["uniform"] - 0.25) <= 0.02
        and pvalue < 0.001
        and elapsed < 300
    )
    emit(capsys, "corrupted-oversampling", ok, detail)
    assert ok, detail


def test_high_beta_degrades_under_label_noise(capsys, noisy50_pair):
    t0 = time.perf_counter()
    train, test = noisy50_pair
    uni_best = [run_one(train, test, "uniform", s).best_test_error for s in SEEDS]
    sb_best = [
        run_one(train, test, "sb_loss", s, beta=2.0).best_test_error for s in SEEDS
    ]
    diff = float(np.mean(sb_best)) - float(np.mean(uni_best))
    elapsed = time.perf_counter() - t0
    detail = (
        f"sb b=2 mean {np.mean(sb_best):.4f}, uniform mean {np.mean(uni_best):.4f}, "
        f"diff {diff:+.4f}, {elapsed:.1f}s"
    )
    ok = diff > 0 and elapsed < 600
    emit(capsys, "label-noise-degradation", ok, detail)
    assert ok, detail


def test_pool_gate_and_draw_frequencies(capsys):
    gate_check(capsys, "pool-gate", selftest.check_pool_gate, 10)


def test_entropy_scoring_beats_loss_under_label_noise(capsys, noisy50_pair):
    t0 = time.perf_counter()
    train, test = noisy50_pair
    loss_runs = [run_one(train, test, "sb_loss", s, beta=1.0) for s in SEEDS]
    ent_runs = [run_one(train, test, "sb_entropy", s, beta=1.0) for s in SEEDS]
    budget = min(r.total_backprops for r in loss_runs + ent_runs)

    def best_within(run):
        return min(err for bp, err in run.eval_points if bp <= budget)

    loss_mean = float(np.mean([best_within(r) for r in loss_runs]))
    ent_mean = float(np.mean([best_within(r) for r in ent_runs]))
    elapsed = time.perf_counter() - t0
    detail = (
        f"entropy mean {ent_mean:.4f} vs loss mean {loss_mean:.4f} "
        f"at {budget} backprops, {elapsed:.1f}s"
    )
    ok = ent_mean <= loss_mean and elapsed < 600
    emit(capsys, "entropy-vs-loss", ok, detail)
    assert ok, detail


def test_corruption_transform_invariants(capsys):
    gate_check(capsys, "corruption-invariants", selftest.check_corruptions, 10)


def test_cli_runs_are_deterministic(capsys, tmp_path):
    t0 = time.perf_counter()
    cfg = {
        "dataset": {"num_train": 5000, "num_test": 1000, "num_classes": 10,
                    "feature_dim": 32, "seed": 1},
        "trainer": {"total_epochs": 4, "seed": 0},
        "prioritizer": {"kind": "sb_loss", "beta": 1.0, "seed": 100},
        "seeds": [1, 2],
        "eval_every": 512,
    }
    path = tmp_path / "det.json"
    path.write_text(json.dumps(cfg))
    outs = {}
    for name, threads in (("first", 1), ("again", 1), ("threaded", 4)):
        out = tmp_path / name
        code = main(["train", "--config", str(path), "--out", str(out),
                     "--threads", str(threads)])
        assert code == 0
        outs[name] = {
            seed: (out / f"seed_{seed}" / "metrics.csv").read_bytes()
            for seed in (1, 2)
        }
    rerun_ok = outs["first"] == outs["again"]
    threads_ok = outs["first"] == outs["threaded"]
    elapsed = time.perf_counter() - t0
    detail = f"rerun identical {rerun_ok}, threads identical {threads_ok}, {elapsed:.1f}s"
    ok = rerun_ok and threads_ok
    emit(capsys, "cli-determinism", ok, detail)
    assert ok, detail
