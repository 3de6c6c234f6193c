"""End-to-end command runs against temp directories."""

import hashlib
import json
import multiprocessing.process
import os
import re
import signal
import struct
import subprocess
import sys
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

import numpy as np
import pytest

import lossprio
from lossprio import cli, harness, selftest
from lossprio.cli import _format_speedup, _parse_seeds, main
from lossprio.errors import ConfigurationError

SMALL_EXPERIMENT = {
    "dataset": {"num_train": 200, "num_test": 60, "num_classes": 4,
                "feature_dim": 8, "seed": 3},
    "trainer": {"batch_size": 32, "total_epochs": 2, "hidden_layers": [16], "seed": 0},
    "prioritizer": {"kind": "sb_loss", "beta": 1.0, "seed": 100},
    "seeds": [1, 2],
    "eval_every": 64,
}

SMALL_BENCHMARK = {
    "dataset": {"num_train": 200, "num_test": 60, "num_classes": 4,
                "feature_dim": 8, "seed": 3},
    "trainer": {"batch_size": 32, "total_epochs": 2, "hidden_layers": [16]},
    "corruption_grid": [["none", 0.0], ["random_label", 0.5]],
    "variants": [{"kind": "uniform"}, {"kind": "sb_loss", "beta": 1.0, "seed": 100}],
    "seeds": [1],
    "eval_every": 64,
}


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestTrainCommand:
    def test_writes_expected_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_EXPERIMENT)
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "resolved_config.json").exists()
        assert (out / "dataset_snapshot.csv").exists()
        for seed in (1, 2):
            run = out / f"seed_{seed}"
            for name in ("metrics.csv", "picks.csv", "run.json", "model.npz"):
                assert (run / name).exists(), name
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["seeds"] == [1, 2]
        assert resolved["prioritizer"]["kind"] == "sb_loss"

    def test_prints_one_summary_line_per_seed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_EXPERIMENT)
        main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("seed 1:")
        assert "best test error" in lines[0]

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_EXPERIMENT)
        for out in ("a", "b"):
            main(["train", "--config", str(cfg), "--out", str(tmp_path / out)])
        for rel in ("seed_1/metrics.csv", "seed_2/metrics.csv", "seed_1/picks.csv",
                    "dataset_snapshot.csv", "resolved_config.json"):
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_thread_count_does_not_change_outputs(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_EXPERIMENT)
        main(["train", "--config", str(cfg), "--out", str(tmp_path / "t1"),
              "--threads", "1"])
        main(["train", "--config", str(cfg), "--out", str(tmp_path / "t4"),
              "--threads", "4"])
        for rel in ("seed_1/metrics.csv", "seed_2/metrics.csv"):
            assert (tmp_path / "t1" / rel).read_bytes() == (tmp_path / "t4" / rel).read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_EXPERIMENT)
        out = tmp_path / "out"
        main(["train", "--config", str(cfg), "--out", str(out), "--seed", "5"])
        assert (out / "seed_5").is_dir()
        assert not (out / "seed_1").exists()
        assert json.loads((out / "resolved_config.json").read_text())["seeds"] == [5]

    def test_env_var_supplies_output_root(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, SMALL_EXPERIMENT, name="envy.json")
        monkeypatch.setenv("LOSSPRIO_OUT", str(tmp_path / "root"))
        main(["train", "--config", str(cfg), "--seed", "1"])
        assert (tmp_path / "root" / "envy" / "seed_1" / "metrics.csv").exists()

    def test_divergent_run_exits_one(self, tmp_path, capsys):
        payload = dict(SMALL_EXPERIMENT)
        payload["trainer"] = dict(payload["trainer"],
                                  learning_rate=1e160, weight_decay=1e160, momentum=0.0)
        payload["seeds"] = [1]
        cfg = write_config(tmp_path, payload)
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "[diverged]" in capsys.readouterr().out
        run = json.loads((tmp_path / "o" / "seed_1" / "run.json").read_text())
        assert run == {"seed": 1, "status": "diverged"}

    def test_update_that_leaves_a_parameter_non_finite_diverges(self, tmp_path, capsys):
        # weight decay overflows after sgd_step's gradient check: this run
        # used to exit 0 with "status": "ok" and checkpoint infinities
        cfg = write_config(tmp_path, {
            "dataset": {"num_train": 96, "num_test": 20, "num_classes": 2, "feature_dim": 4},
            "trainer": {"hidden_layers": [8], "batch_size": 32, "total_epochs": 1,
                        "learning_rate": 1e-294, "weight_decay": 1e300},
            "seeds": [1],
            "eval_every": 64,
        })
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().out == "seed 1: 96 backprops, best test error 0.5500 [diverged]\n"
        run = json.loads((out / "seed_1" / "run.json").read_text())
        assert run == {"seed": 1, "status": "diverged"}
        # the update that diverged counts as made, and the model is what it left
        assert (out / "seed_1" / "metrics.csv").read_text().splitlines()[-1].startswith("2,96,")
        with np.load(out / "seed_1" / "model.npz") as model:
            assert not np.isfinite(model["w0"]).all()

    def test_run_without_evaluations_exits_two_naming_the_seed(self, tmp_path, capsys):
        # 300 examples fill 4 batches of 64: 256 backprops, never the 512 of
        # the first evaluation; this used to print "best test error nan" and exit 0
        cfg = write_config(tmp_path, {
            "dataset": {"num_train": 300, "num_test": 60},
            "trainer": {"batch_size": 64, "total_epochs": 1},
            "seeds": [3],
        })
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: seed 3: a run has no evaluation points\n"
        assert captured.out == ""

    def test_run_without_evaluations_records_its_status(self, tmp_path):
        # the run files are written before the exit 2; run.json used to say
        # {"diverged": false} as if the run were fine
        cfg = write_config(tmp_path, {
            "dataset": {"num_train": 300, "num_test": 60},
            "trainer": {"batch_size": 64, "total_epochs": 1},
            "seeds": [3],
        })
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        run = json.loads((out / "seed_3" / "run.json").read_text())
        assert run == {"seed": 3, "status": "no_eval"}

    def test_repeated_seed_in_config_exits_two_naming_it(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(SMALL_EXPERIMENT, seeds=[2, 1, 2]))
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}: seeds list seed 2 twice\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "benchmark"])
    def test_repeated_seed_flag_exits_two_naming_it(self, tmp_path, capsys, command):
        payload = SMALL_EXPERIMENT if command == "train" else SMALL_BENCHMARK
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "o"
        argv = [command, "--config", str(cfg), "--out", str(out), "--seed", "3,3"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: --seed 3,3: seeds list seed 3 twice\n"
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exits_two(self, tmp_path, capsys, threads):
        cfg = write_config(tmp_path, SMALL_EXPERIMENT)
        out = tmp_path / "o"
        argv = ["train", "--config", str(cfg), "--out", str(out), "--threads", threads]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: --threads must be at least 1, got {threads}\n"
        assert not out.exists()

    def test_missing_config_flag_exits_two(self, capsys):
        assert main(["train"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_nonexistent_config_exits_two(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_broken_json_exits_two_with_location(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "seeds": [1,]\n}\n')
        assert main(["train", "--config", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    # each of these used to end in a traceback
    @pytest.mark.parametrize("case, where", [
        ("config is a directory", r"error: (?P<path>\S+): Is a directory\n\Z"),
        ("config is not UTF-8", r"error: (?P<path>\S+): byte 15 is not UTF-8\n\Z"),
        ("out under a file", r"error: output directory (?P<path>\S+): Not a directory\n\Z"),
        ("out is a file", r"error: output directory (?P<path>\S+): File exists\n\Z"),
    ])
    def test_unusable_path_exits_two_naming_it(self, tmp_path, capsys, case, where):
        cfg, out = write_config(tmp_path, SMALL_EXPERIMENT), tmp_path / "o"
        if case == "config is a directory":
            cfg = tmp_path / "dir.json"
            cfg.mkdir()
        elif case == "config is not UTF-8":
            cfg.write_bytes(b'{"seeds": [1, "\xe9"]}')
        else:
            (tmp_path / "file").write_text("")
            out = tmp_path / "file" / "o" if case == "out under a file" else tmp_path / "file"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        match = re.match(where, err)
        assert match, err
        assert match["path"] == str(cfg if case.startswith("config") else out)

    def test_seed_diverged_before_any_evaluation_prints_its_update(self, tmp_path, capsys):
        # the first update leaves every parameter finite but the evaluation
        # after it overflows; this used to print "best test error nan"
        cfg = write_config(tmp_path, {
            "dataset": {"num_train": 600, "num_test": 120, "num_classes": 4,
                        "feature_dim": 8, "seed": 1, "cluster_spread": 1000},
            "trainer": {"learning_rate": 1e307, "hidden_layers": [16]},
            "prioritizer": {"kind": "sb_loss", "seed": 100},
            "seeds": [1],
            "eval_every": 128,
        })
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        captured = capsys.readouterr()
        assert captured.out == "seed 1: 128 backprops, no evaluation before update 1 [diverged]\n"
        assert captured.err == ""

    def test_bad_seed_flag_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_EXPERIMENT)
        assert main(["train", "--config", str(cfg), "--seed", "1,x"]) == 2
        assert "comma-separated" in capsys.readouterr().err


class TestBenchmarkCommand:
    def test_grid_summary_and_artifacts(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_BENCHMARK)
        out = tmp_path / "bench"
        assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[0] == "corruption,fraction,variant,speedup,best_error"
        assert len(lines) == 1 + 2 * 2  # grid cells x variants
        for cell in ("none_0", "random_label_0.5"):
            assert (out / cell / "uniform_baseline" / "seed_1" / "metrics.csv").exists()
            assert (out / cell / "dataset_snapshot.csv").exists()
            report = json.loads(
                (out / cell / "sb_loss_b1" / "speedup.json").read_text()
            )
            assert set(report) == {
                "threshold_error", "baseline_backprops", "method_backprops",
                "speedup", "best_error",
            }
        assert "summary written" in capsys.readouterr().out

    def test_uniform_variant_reuses_baseline_with_unit_speedup(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_BENCHMARK)
        out = tmp_path / "bench"
        main(["benchmark", "--config", str(cfg), "--out", str(out)])
        rows = [line.split(",") for line in
                (out / "summary.csv").read_text().splitlines()[1:]]
        uniform_rows = [r for r in rows if r[2] == "uniform"]
        assert len(uniform_rows) == 2
        assert all(r[3] == "1.00" for r in uniform_rows)
        # the uniform variant points at the baseline runs instead of re-running
        assert not (out / "none_0" / "uniform" / "seed_1").exists()
        report = json.loads((out / "none_0" / "uniform" / "speedup.json").read_text())
        assert report["speedup"] == 1.0

    def test_run_without_evaluations_exits_two_naming_cell_and_variant(self, tmp_path, capsys):
        # 2 epochs of 512 candidates: sb_loss at beta 1 trains on about half of
        # them and vr on a third, so both end before the first evaluation at 512
        cfg = write_config(tmp_path, {
            "dataset": {"num_train": 600, "num_test": 200},
            "trainer": {"total_epochs": 2},
            "eval_every": 512,
            "seeds": [0],
            "corruption_grid": [["none", 0.0]],
        })
        code = main(["benchmark", "--config", str(cfg), "--out", str(tmp_path / "bench")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: none_0 sb_loss_b1: a run has no evaluation points\n"

    def test_seed_diverged_before_any_evaluation_exits_one_naming_its_directory(
            self, tmp_path, capsys):
        # the late-divergence task: every seed overflows at its first
        # evaluation, so no cell has a curve; this used to exit 2 as bad input
        cfg = write_config(tmp_path, {
            "dataset": {"num_train": 600, "num_test": 120, "num_classes": 4,
                        "feature_dim": 8, "seed": 1, "cluster_spread": 1000},
            "trainer": {"learning_rate": 1e307, "batch_size": 32, "hidden_layers": [16]},
            "variants": [{"kind": "sb_loss", "beta": 1}],
            "corruption_grid": [["none", 0.0]],
            "seeds": [1, 2],
            "eval_every": 128,
        })
        code = main(["benchmark", "--config", str(cfg), "--out", str(tmp_path / "bench")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: none_0 uniform_baseline seed 1: no evaluation before "
                                "update 1 [diverged]\n")
        assert captured.out == ""

    def test_snapshot_reflects_cell_corruption(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_BENCHMARK)
        out = tmp_path / "bench"
        main(["benchmark", "--config", str(cfg), "--out", str(out)])
        corrupted_rows = [
            line for line in
            (out / "random_label_0.5" / "dataset_snapshot.csv").read_text().splitlines()[1:]
            if line.split(",")[2] == "1"
        ]
        assert len(corrupted_rows) == 100  # half of 200 train examples


def stub_checks(monkeypatch, failing=()):
    """Replace the four checks with stubs that pass unless named in failing;
    tests/test_acceptance.py runs the real ones."""
    for name in ("check_selection_rates", "check_gradients", "check_pool_gate",
                 "check_corruptions"):
        result = (name, name not in failing, "stub")
        monkeypatch.setattr(selftest, name, lambda result=result: result)


class TestSelftestCommand:
    def test_reports_pass_for_every_check(self, capsys, monkeypatch):
        stub_checks(monkeypatch)
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS:") == 4
        assert "FAIL:" not in out

    def test_failing_check_reports_fail_and_exits_one(self, capsys, monkeypatch):
        stub_checks(monkeypatch, failing={"check_pool_gate"})
        assert main(["selftest"]) == 1
        out = capsys.readouterr().out
        assert out.count("PASS:") == 3
        assert "FAIL: check_pool_gate (stub)" in out

    @pytest.mark.parametrize("option", [["--threads", "7"], ["--config", "nonexistent.json"],
                                        ["--seed", "9"], ["--out", "somewhere"]])
    def test_takes_no_options(self, capsys, option):
        with pytest.raises(SystemExit) as exc:
            main(["selftest", *option])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestHelpers:
    def test_format_speedup(self):
        assert _format_speedup(None) == "-"
        assert _format_speedup(1.5) == "1.50"
        assert _format_speedup(2.0) == "2.00"

    def test_parse_seeds(self):
        assert _parse_seeds("1,2,3") == (1, 2, 3)
        assert _parse_seeds("7") == (7,)
        assert _parse_seeds("1, 2") == (1, 2)
        with pytest.raises(ConfigurationError):
            _parse_seeds("1,x")


def tree_digest(out, stdout):
    """sha256 over stdout (with the output path masked) and every file under out."""
    digest = hashlib.sha256(stdout.replace(str(out), "<out>").encode())
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        rel = path.relative_to(out).as_posix()
        digest.update(f"{rel} {hashlib.sha256(path.read_bytes()).hexdigest()}\n".encode())
    return digest.hexdigest()


@pytest.fixture
def process_starts(monkeypatch):
    """Every multiprocessing child started while the test runs."""
    started = []
    start = multiprocessing.process.BaseProcess.start

    def recording(self):
        started.append(self)
        return start(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", recording)
    return started


@pytest.fixture(params=["either", "worker"])
def where(request, monkeypatch):
    """Where runs may go: "worker" keeps the calling process from taking any."""
    if request.param == "worker":
        monkeypatch.setattr(cli, "_claim", lambda claims, i: False)
    return request.param


# tree_digest of each command's output, recorded before the runs moved into
# worker processes; the outputs must not change at any --threads value
OUTPUT_DIGESTS = {
    "train": "98ae5f2b7e04120a55cc2d9db2bd73caae29219c515b438939fe84c72bb8dc5d",
    "benchmark": "14dd0acd85d914c8020a5045cc53da5183daa32818c1722d8ab9d6fba0072938",
}


class TestRunsAcrossProcesses:
    """--threads N runs the command's runs in this process plus N - 1 workers."""

    @pytest.mark.parametrize("command", ["train", "benchmark"])
    def test_every_output_byte_identical_at_one_two_and_three(self, tmp_path, capsys,
                                                              command):
        payload = (dict(SMALL_EXPERIMENT, seeds=[1, 2, 3]) if command == "train"
                   else dict(SMALL_BENCHMARK, seeds=[1, 2]))
        cfg = write_config(tmp_path, payload)
        digests = []
        for threads in ("1", "2", "3"):
            out = tmp_path / f"t{threads}"
            argv = [command, "--config", str(cfg), "--out", str(out), "--threads", threads]
            assert main(argv) == 0
            digests.append(tree_digest(out, capsys.readouterr().out))
        names = {p.name for p in out.rglob("*") if p.is_file()}
        assert {"metrics.csv", "picks.csv", "model.npz", "run.json", "resolved_config.json",
                "dataset_snapshot.csv"} <= names
        if command == "benchmark":
            assert {"speedup.json", "summary.csv"} <= names
        assert digests == [OUTPUT_DIGESTS[command]] * 3

    @pytest.mark.parametrize("command", ["train", "benchmark"])
    def test_one_thread_starts_no_child_process(self, tmp_path, process_starts, command):
        payload = SMALL_EXPERIMENT if command == "train" else SMALL_BENCHMARK
        cfg = write_config(tmp_path, payload)
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "o"), "--threads", "1"]
        assert main(argv) == 0
        assert process_starts == []

    def test_workers_are_capped_by_the_number_of_runs(self, tmp_path, process_starts):
        cfg = write_config(tmp_path, SMALL_EXPERIMENT)  # two seeds: two runs
        argv = ["train", "--config", str(cfg), "--out", str(tmp_path / "o"), "--threads", "8"]
        assert main(argv) == 0
        assert len(process_starts) == 1

    def test_first_exception_in_job_order_is_raised(self, tmp_path, capsys, monkeypatch):
        # one process walks the runs from the back, so seed 3 fails before seed 2
        run_training = cli.run_training

        def fail_after_first(train, test, trainer, *args, **kwargs):
            if trainer.seed > 1:
                raise ConfigurationError(f"seed {trainer.seed}")
            return run_training(train, test, trainer, *args, **kwargs)

        monkeypatch.setattr(cli, "run_training", fail_after_first)
        cfg = write_config(tmp_path, dict(SMALL_EXPERIMENT, seeds=[1, 2, 3]))
        argv = ["train", "--config", str(cfg), "--out", str(tmp_path / "o"), "--threads", "1"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: seed 2\n"

    def test_run_without_evaluations_exits_two_naming_the_seed(self, tmp_path, capsys,
                                                               where):
        cfg = write_config(tmp_path, {
            "dataset": {"num_train": 300, "num_test": 60},
            "trainer": {"batch_size": 64, "total_epochs": 1},
            "seeds": [3, 4],
        })
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg), "--out", str(out), "--threads", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: seed 3: a run has no evaluation points\n"
        assert captured.out == ""
        for seed in (3, 4):
            run = json.loads((out / f"seed_{seed}" / "run.json").read_text())
            assert run == {"seed": seed, "status": "no_eval"}

    def test_benchmark_run_without_evaluations_exits_two_naming_cell_and_variant(
            self, tmp_path, capsys, where):
        cfg = write_config(tmp_path, {
            "dataset": {"num_train": 600, "num_test": 200},
            "trainer": {"total_epochs": 2},
            "eval_every": 512,
            "seeds": [0, 1],
            "corruption_grid": [["none", 0.0]],
        })
        argv = ["benchmark", "--config", str(cfg), "--out", str(tmp_path / "b"), "--threads", "2"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: none_0 sb_loss_b1: a run has no evaluation points\n"

    def test_divergent_runs_exit_one_and_record_their_status(self, tmp_path, capsys, where):
        payload = dict(SMALL_EXPERIMENT)
        payload["trainer"] = dict(payload["trainer"],
                                  learning_rate=1e160, weight_decay=1e160, momentum=0.0)
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "o"
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["train", "--config", str(cfg), "--out", str(out), "--threads", "2"])
        assert code == 1
        assert capsys.readouterr().out.count("[diverged]") == 2
        for seed in (1, 2):
            run = json.loads((out / f"seed_{seed}" / "run.json").read_text())
            assert run == {"seed": seed, "status": "diverged"}

    def test_worker_that_dies_exits_one_without_a_traceback(self, tmp_path, capsys,
                                                            monkeypatch):
        # used to raise BrokenProcessPool out of main
        class DyingJob(cli._Job):
            def __reduce__(self):  # unpickled in the worker, this ends it
                return os._exit, (3,)

        monkeypatch.setattr(cli, "_Job", DyingJob)
        monkeypatch.setattr(cli, "_claim", lambda claims, i: False)  # every run in the worker
        cfg = write_config(tmp_path, SMALL_EXPERIMENT)  # two seeds
        argv = ["train", "--config", str(cfg), "--out", str(tmp_path / "o"), "--threads", "2"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: a worker process died before returning its runs ("), err

    def test_worker_that_dies_with_jobs_left_prints_only_the_error(self, tmp_path, capsys,
                                                                  monkeypatch):
        # this process takes the queued seeds from the back while the worker
        # dies on seed 1; its pool then fails every future it holds, and used
        # to trip over the ones this process had taken back with Future.cancel
        class DyingJob(cli._Job):
            def __reduce__(self):
                return os._exit, (3,)

        thread_failures = []
        monkeypatch.setattr(threading, "excepthook", thread_failures.append)
        monkeypatch.setattr(cli, "_Job", DyingJob)
        cfg = write_config(tmp_path, dict(SMALL_EXPERIMENT, seeds=[1, 2, 3, 4]))
        argv = ["train", "--config", str(cfg), "--out", str(tmp_path / "o"), "--threads", "2"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: a worker process died before returning its runs ("), err
        assert err.count("\n") == 1, err
        assert [str(failure.exc_value) for failure in thread_failures] == []


def write_idx_pair(directory, prefix, count, rows=4, cols=4, classes=3):
    """<prefix>-images-idx3-ubyte and its label file: count images of rows x
    cols pixels, each brighter the higher its class."""
    rng = np.random.default_rng(count)
    labels = rng.integers(0, classes, count).astype(np.uint8)
    pixels = labels[:, None, None] * 60 + rng.integers(0, 120, (count, rows, cols))
    (directory / f"{prefix}-images-idx3-ubyte").write_bytes(
        struct.pack(">IIII", 2051, count, rows, cols) + pixels.astype(np.uint8).tobytes())
    (directory / f"{prefix}-labels-idx1-ubyte").write_bytes(
        struct.pack(">II", 2049, count) + labels.tobytes())


# relative paths, so resolved_config.json holds no temporary directory
IDX_EXPERIMENT = {
    "dataset": {"type": "idx", "train_images": "train-images-idx3-ubyte",
                "test_images": "t10k-images-idx3-ubyte"},
    "corruption": {"kind": "gaussian", "fraction": 0.5, "seed": 7},
    "trainer": {"batch_size": 32, "total_epochs": 2, "hidden_layers": [16]},
    "prioritizer": {"kind": "sb_loss", "beta": 1.0, "seed": 100},
    "seeds": [1, 2],
    "eval_every": 64,
}

# tree_digest of `train` on IDX_EXPERIMENT over a 300+60-row pair, recorded
# before both IDX files were read through one reader
IDX_DIGEST = "e0b0fac943a4b3e6473336325cbce80f74d4619f1dbe0fc0a630860bc9444289"


class TestIdxFiles:
    @pytest.fixture(autouse=True)
    def idx_pair(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_idx_pair(tmp_path, "train", 300)
        write_idx_pair(tmp_path, "t10k", 60)
        write_config(tmp_path, IDX_EXPERIMENT)

    def test_every_output_byte_identical_at_one_and_two(self, capsys):
        digests = []
        for threads in ("1", "2"):
            out = Path(f"t{threads}")
            assert main(["train", "--config", "cfg.json", "--out", str(out),
                         "--threads", threads]) == 0
            stdout = capsys.readouterr().out
            assert stdout.count("best test error") == 2, stdout
            digests.append(tree_digest(out, stdout))
        assert digests == [IDX_DIGEST] * 2

    @pytest.mark.parametrize(
        "prefix, count, rows, cols, name, offset",
        # each used to fail only once the run had started, naming no file:
        # "cannot evaluate on an empty split", "train split of 0 cannot fill a
        # batch of 32", and "feature array (300, 0) does not match ..."
        [("t10k", 0, 4, 4, "t10k-images-idx3-ubyte", 4),
         ("train", 0, 4, 4, "train-images-idx3-ubyte", 4),
         ("train", 300, 0, 4, "train-images-idx3-ubyte", 8),
         ("train", 300, 4, 0, "train-images-idx3-ubyte", 12)],
    )
    def test_a_size_of_zero_exits_two_naming_file_and_offset(self, tmp_path, capsys, prefix,
                                                             count, rows, cols, name, offset):
        write_idx_pair(tmp_path, prefix, count, rows, cols)
        assert main(["train", "--config", "cfg.json", "--out", "o", "--threads", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert err.endswith(f"(file={name}, byte offset={offset})\n"), err
        assert not (tmp_path / "o" / "seed_1").exists()
        assert not (tmp_path / "o" / "dataset_snapshot.csv").exists()

    def test_bad_file_read_in_a_worker_exits_two_naming_it(self, tmp_path, capsys, where):
        # the worker's IngestionError crosses back to this process pickled
        path = tmp_path / "t10k-labels-idx1-ubyte"
        path.write_bytes(b"\x00\x00\x08\x03" + path.read_bytes()[4:])
        assert main(["train", "--config", "cfg.json", "--out", "o", "--threads", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert err.endswith("(file=t10k-labels-idx1-ubyte, byte offset=0)\n"), err


class TestInterrupt:
    def test_interrupt_exits_130_and_leaves_no_directory_for_the_cut_run(
            self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path, SMALL_EXPERIMENT)  # two seeds
        whole = tmp_path / "whole"
        assert main(["train", "--config", str(cfg), "--out", str(whole), "--threads", "1"]) == 0
        capsys.readouterr()
        run_training, calls = cli.run_training, []

        def cut_off_second(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return run_training(*args, **kwargs)

        monkeypatch.setattr(cli, "run_training", cut_off_second)
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg), "--out", str(out), "--threads", "1"]) == 130
        captured = capsys.readouterr()
        assert captured.err == "interrupted\n"
        assert captured.out == ""
        # one process walks the runs from the back: seed 2 ends, seed 1 is cut off
        names = ["metrics.csv", "model.npz", "picks.csv", "run.json"]
        assert sorted(p.name for p in (out / "seed_2").iterdir()) == names
        for name in names:
            assert (out / "seed_2" / name).read_bytes() == (whole / "seed_2" / name).read_bytes()
        assert not (out / "seed_1").exists()

    def test_workers_start_with_sigint_blocked_and_ignore_it(self):
        # so only the calling process answers an interrupt, and no worker
        # prints a KeyboardInterrupt, not even one still starting
        context = cli._worker_context()
        claims = context.Array("b", [1])  # taken, so the worker runs no job
        with ProcessPoolExecutor(1, mp_context=context, initializer=cli._start_process,
                                 initargs=(claims,)) as pool:
            assert [future.result() for future in cli._submit(pool, [None], 1, False)] == [{}]
            mask = pool.submit(signal.pthread_sigmask, signal.SIG_BLOCK, []).result()
            assert signal.SIGINT in mask
            assert pool.submit(signal.getsignal, signal.SIGINT).result() == signal.SIG_IGN
        assert signal.SIGINT not in signal.pthread_sigmask(signal.SIG_BLOCK, [])
        assert signal.getsignal(signal.SIGINT) is signal.default_int_handler


def test_blas_threads_do_not_change_bytes_at_mnist_width(tmp_path):
    """With no BLAS variable set, a 784-wide run writes the same bytes at
    --threads 1 as in the workers of --threads 2.  Two OpenBLAS threads give
    other bytes at an inner dimension of 784, so this fails unless the program
    pins BLAS itself; on a host with one usable core it cannot fail."""
    cfg = write_config(tmp_path, {
        "dataset": {"num_train": 768, "num_test": 200, "feature_dim": 784, "seed": 2},
        "trainer": {"total_epochs": 2, "hidden_layers": [256]},
        "seeds": [1, 2],
        "eval_every": 256,
    })
    src = str(Path(lossprio.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = src
    trees = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        subprocess.run([sys.executable, "-m", "lossprio.cli", "train", "--config", str(cfg),
                        "--out", str(out), "--threads", threads],
                       env=env, capture_output=True, timeout=300, check=True)
        trees.append(tree_digest(out, ""))
    assert trees[0] == trees[1]


@pytest.mark.parametrize("cores, threads, spare", [(1, "1", False), (2, "1", True),
                                                   (2, "2", False), (4, "2", True)])
def test_runs_evaluate_on_a_helper_only_while_a_core_is_spare(tmp_path, monkeypatch, cores,
                                                              threads, spare):
    seen, workers, submits = [], [], []
    run_training = cli.run_training

    class IdlePool:  # records what its workers are handed and runs nothing itself
        def __init__(self, *args, initargs, **kwargs):
            workers.append(initargs)

        def submit(self, fn, *args):
            submits.append(args[-1])  # the spare_core the worker's runs receive
            future = Future()  # a worker that found every run claimed
            future.set_result({})
            return future

        def shutdown(self):
            pass

    monkeypatch.setattr(harness, "_usable_cores", lambda: cores)
    monkeypatch.setattr(cli, "run_training",
                        lambda *a, **k: seen.append(k["spare_core"]) or run_training(*a, **k))
    monkeypatch.setattr(cli, "ProcessPoolExecutor", IdlePool)
    cfg = write_config(tmp_path, SMALL_EXPERIMENT)  # two seeds
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--threads", threads]) == 0
    assert seen == [spare, spare]
    assert len(workers) == (1 if threads == "2" else 0)
    assert submits == [spare] * len(workers)  # one task per worker, not one per run


@pytest.mark.skipif("forkserver" not in multiprocessing.get_all_start_methods(),
                    reason="no fork server on this platform")
def test_workers_of_every_call_fork_from_one_server(tmp_path, monkeypatch):
    parents = []

    class Pool(ProcessPoolExecutor):  # asks its worker for its parent before closing
        def shutdown(self, *args, **kwargs):
            parents.append(self.submit(os.getppid).result(timeout=60))
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Pool)
    cfg = write_config(tmp_path, SMALL_EXPERIMENT)  # two seeds: one worker
    for out in ("a", "b"):
        argv = ["train", "--config", str(cfg), "--out", str(tmp_path / out), "--threads", "2"]
        assert main(argv) == 0
    assert len(parents) == 2 and parents[0] == parents[1] != os.getpid()


def test_each_job_is_claimed_once_under_constant_thread_switches():
    # eight takers race for every claim from the same start, switching every
    # microsecond: a claim read and set without the lock lets two take a job
    interval = sys.getswitchinterval()
    for _ in range(3):
        claims = get_context("spawn").Array("b", 3000)
        taken = [[] for _ in range(8)]
        start = threading.Barrier(len(taken))

        def take(mine):
            start.wait()
            mine.extend(i for i in range(3000) if cli._claim(claims, i))

        takers = [threading.Thread(target=take, args=(mine,), daemon=True) for mine in taken]
        sys.setswitchinterval(1e-6)
        try:
            for thread in takers:
                thread.start()
            for thread in takers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in takers)
        assert sorted(i for mine in taken for i in mine) == list(range(3000))


def test_importing_the_cli_leaves_scipy_unloaded():
    src = str(Path(lossprio.__file__).resolve().parent.parent)
    code = ("import sys, lossprio.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={"PYTHONPATH": src}, check=True)
    assert done.stdout == "[]\n"


def test_selftest_critical_values_and_statistic_match_scipy():
    stats = pytest.importorskip("scipy.stats")
    assert selftest.CHI2_CRITICAL_99_DOF3 == stats.chi2.ppf(0.99, 3)
    assert selftest.CHI2_CRITICAL_999_DOF9 == stats.chi2.ppf(0.999, 9)
    for counts in (np.array([5000.0, 5020.0, 4990.0, 4990.0]), np.bincount([0, 1, 1, 9, 9, 9])):
        assert selftest.chi_square(counts) == pytest.approx(
            stats.chisquare(counts).statistic, rel=1e-12)
