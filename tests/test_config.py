"""JSON config parsing, resolution, and dataset materialization."""

import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lossprio.cli import main
from lossprio.config import (
    BenchmarkConfig,
    DatasetConfig,
    ExperimentConfig,
    benchmark_config_from_dict,
    build_datasets,
    config_to_dict,
    experiment_config_from_dict,
    load_experiment_config,
    resolved_config_json,
)
from lossprio.datasets import CorruptionKind, CorruptionSpec
from lossprio.errors import ConfigurationError
from lossprio.model import TrainerConfig
from lossprio.prioritizers import PRIORITIZER_KINDS, PrioritizerConfig


class TestExperimentParsing:
    def test_empty_dict_is_all_defaults(self):
        cfg = experiment_config_from_dict({})
        assert cfg == ExperimentConfig()
        assert cfg.trainer.learning_rate == 0.1
        assert cfg.prioritizer.kind == "uniform"
        assert cfg.seeds == (1,)

    def test_nested_sections_reach_their_dataclasses(self):
        cfg = experiment_config_from_dict(
            {
                "dataset": {"num_train": 600, "num_classes": 4, "feature_dim": 8},
                "corruption": {"kind": "random_label", "fraction": 0.25, "seed": 7},
                "trainer": {"batch_size": 32, "total_epochs": 2, "hidden_layers": [16]},
                "prioritizer": {"kind": "sb_loss", "beta": 2.0, "seed": 100},
                "seeds": [1, 2],
                "eval_every": 64,
            }
        )
        assert cfg.dataset.num_train == 600
        assert cfg.corruption.kind is CorruptionKind.RANDOM_LABEL
        assert cfg.trainer.hidden_layers == (16,)
        assert cfg.prioritizer.beta == 2.0
        assert cfg.seeds == (1, 2)

    def test_unknown_top_level_key_named_in_error(self):
        with pytest.raises(ConfigurationError, match="typo_key"):
            experiment_config_from_dict({"typo_key": 1})

    def test_unknown_nested_key_carries_section_context(self):
        with pytest.raises(ConfigurationError, match=r"config\.trainer"):
            experiment_config_from_dict({"trainer": {"learning_rte": 0.1}})

    def test_semantic_error_carries_section_context(self):
        with pytest.raises(ConfigurationError, match=r"config\.prioritizer.*beta"):
            experiment_config_from_dict({"prioritizer": {"kind": "sb_loss", "beta": -1}})

    def test_section_must_be_object(self):
        with pytest.raises(ConfigurationError, match="expected an object"):
            experiment_config_from_dict({"trainer": [1, 2]})

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ConfigurationError, match="seeds"):
            experiment_config_from_dict({"seeds": []})

    @pytest.mark.parametrize(
        "command, raw, where",
        [
            ("benchmark", {"corruption_grid": [["gaussian", 0.5, 1]]}, r"corruption_grid\[0\]"),
            ("benchmark", {"corruption_grid": [["salt", 0.5]]},
             r"corruption_grid\[0\] = \['salt', 0.5\]: kind: unknown corruption kind 'salt'"),
            ("benchmark", {"seeds": ["a"]}, r"json: seeds\[0\]: expected int, got 'a'"),
            ("benchmark", {"dataset": {"num_train": "5000"}}, r"\.dataset: num_train"),
            ("benchmark", {"dataset": {"type": "idx", "train_images": 5, "test_images": 6}},
             r"\.dataset: train_images: expected str \| None, got 5"),
            ("train", {"corruption": {"kind": 5, "fraction": 0.5}},
             r"\.corruption: kind: unknown corruption kind 5"),
            ("train", {"corruption": {"kind": None}},
             r"\.corruption: kind: unknown corruption kind None"),
            ("train", {"output_dir": 5}, r"json: output_dir: expected str \| None, got 5"),
            # list entries used to pass unchecked: [1.5] and [true] ran as seed 1,
            # hidden_layers [16.5] trained 16 units
            ("train", {"seeds": [1.5]}, r"json: seeds\[0\]: expected int, got 1.5"),
            ("benchmark", {"seeds": [2, True]}, r"json: seeds\[1\]: expected int, got True"),
            ("train", {"trainer": {"hidden_layers": [16.5]}},
             r"json\.trainer: hidden_layers\[0\]: expected int, got 16.5"),
            ("train", {"trainer": {"hidden_layers": ["16"]}},
             r"json\.trainer: hidden_layers\[0\]: expected int, got '16'"),
            ("train", {"trainer": {"hidden_layers": 16}},
             r"json\.trainer: hidden_layers: expected a list, got 16"),
            ("benchmark", {"trainer": {"lr_drop_points": [0.5, "0.8"]}},
             r"json\.trainer: lr_drop_points\[1\]: expected float, got '0.8'"),
            # synthetic tasks the generators cannot draw or a model cannot learn:
            # num_classes 0 used to die in a traceback, 1 class or 1 feature to
            # train, and a short split or a zero spread to fail unlocated after
            # resolved_config.json was written
            ("train", {"dataset": {"num_classes": 0}},
             r"json\.dataset: num_classes 0: need at least 2 classes\n\Z"),
            ("train", {"dataset": {"num_classes": 1}},
             r"json\.dataset: num_classes 1: need at least 2 classes\n\Z"),
            ("train", {"dataset": {"feature_dim": 1}},
             r"json\.dataset: feature_dim 1: need at least 2 features\n\Z"),
            ("train", {"dataset": {"num_train": 5}},
             r"json\.dataset: num_train 5 smaller than num_classes 10\n\Z"),
            ("benchmark", {"dataset": {"cluster_spread": 0}},
             r"json\.dataset: cluster_spread 0: must be positive\n\Z"),
            # negative seeds used to die in numpy's "expected non-negative
            # integer" traceback, exit 1, after resolved_config.json was written
            ("train", {"seeds": [-2]}, r"json: seeds\[0\] = -2: must be nonnegative\n\Z"),
            ("benchmark", {"seeds": [1, -2]},
             r"json: seeds\[1\] = -2: must be nonnegative\n\Z"),
            ("train", {"dataset": {"seed": -1}},
             r"json\.dataset: seed -1: must be nonnegative\n\Z"),
            ("train", {"corruption": {"kind": "random_label", "fraction": 0.5, "seed": -3}},
             r"json\.corruption: seed -3: must be nonnegative\n\Z"),
            ("benchmark", {"corruption_seed": -1},
             r"json: corruption_seed -1: must be nonnegative\n\Z"),
            ("train", {"prioritizer": {"seed": -2}, "seeds": [3, 1]},
             r"json: prioritizer\.seed -2 plus run seed 1 is negative\n\Z"),
            ("benchmark", {"variants": [{"kind": "sb_loss", "seed": -5}], "seeds": [2]},
             r"json: variants\[0\]\.seed -5 plus run seed 2 is negative\n\Z"),
            # PrioritizerConfig is the only check of these; the selector
            # classes below it no longer repeat them
            ("train", {"prioritizer": {"histogram_capacity": 0}},
             r"json\.prioritizer: histogram_capacity must be positive\n\Z"),
            ("train", {"prioritizer": {"kind": "vr", "pool_capacity": 0}},
             r"json\.prioritizer: pool_capacity must be positive\n\Z"),
            ("train", {"prioritizer": {"kind": "vr", "gate_threshold": -1}},
             r"json\.prioritizer: gate_threshold must be nonnegative\n\Z"),
            ("benchmark", {"variants": [{"kind": "sb_loss", "histogram_capacity": 0}]},
             r"json\.variants\[0\]: histogram_capacity must be positive\n\Z"),
            ("benchmark", {"variants": [{"kind": "vr", "pool_capacity": 0}]},
             r"json\.variants\[0\]: pool_capacity must be positive\n\Z"),
            ("benchmark", {"variants": [{"kind": "vr", "gate_threshold": -1}]},
             r"json\.variants\[0\]: gate_threshold must be nonnegative\n\Z"),
            # json reads NaN and Infinity, and a check written x < 0 passes NaN:
            # "beta": NaN used to admit every candidate and exit 0, with NaN
            # written into resolved_config.json
            ("train", {"prioritizer": {"kind": "sb_loss", "beta": math.nan}},
             r"json\.prioritizer: beta must be nonnegative\n\Z"),
            ("benchmark", {"variants": [{"kind": "sb_loss", "beta": math.inf}]},
             r"json\.variants\[0\]: beta must be finite\n\Z"),
            ("train", {"prioritizer": {"kind": "vr", "gate_threshold": math.nan}},
             r"json\.prioritizer: gate_threshold must be nonnegative\n\Z"),
            ("train", {"prioritizer": {"kind": "vr", "gate_threshold": math.inf}},
             r"json\.prioritizer: gate_threshold must be finite\n\Z"),
            ("train", {"trainer": {"learning_rate": math.nan}},
             r"json\.trainer: learning_rate must be positive\n\Z"),
            ("benchmark", {"trainer": {"learning_rate": math.inf}},
             r"json\.trainer: learning_rate must be finite\n\Z"),
            ("train", {"trainer": {"weight_decay": math.nan}},
             r"json\.trainer: weight_decay must be nonnegative\n\Z"),
            ("train", {"trainer": {"weight_decay": math.inf}},
             r"json\.trainer: weight_decay must be finite\n\Z"),
            ("train", {"dataset": {"cluster_spread": math.nan}},
             r"json\.dataset: cluster_spread nan: must be positive\n\Z"),
            ("benchmark", {"dataset": {"cluster_spread": math.inf}},
             r"json\.dataset: cluster_spread inf: must be finite\n\Z"),
        ],
    )
    def test_malformed_config_exits_two_with_location(self, tmp_path, capsys, command, raw,
                                                      where):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}")
        assert re.search(where, err), err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, raw, flag, where",
        [("train", {}, "-2", "--seed -2: seeds[0] = -2: must be nonnegative"),
         ("benchmark", {}, "3,-1", "--seed 3,-1: seeds[1] = -1: must be nonnegative"),
         ("train", {"prioritizer": {"seed": -3}, "seeds": [5]}, "2",
          "--seed 2: prioritizer.seed -3 plus run seed 2 is negative")],
    )
    def test_negative_seed_flag_exits_two_naming_the_flag(self, tmp_path, capsys, command,
                                                          raw, flag, where):
        # the flag, not the file, is where these inputs are wrong
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main([command, "--config", str(path), f"--seed={flag}", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {where}\n"
        assert not out.exists()

    def test_selector_seed_below_zero_loads_when_every_run_lifts_it(self):
        # runs seed their selector with prioritizer.seed plus the run's seed
        cfg = experiment_config_from_dict({"prioritizer": {"seed": -1}, "seeds": [1, 4]})
        assert cfg.prioritizer.seed == -1

    @pytest.mark.parametrize(
        "field, value",
        [("batch_size", 32.5), ("total_epochs", 1.5), ("histogram_capacity", 64.0)],
    )
    def test_non_integer_count_exits_two_naming_the_field(self, tmp_path, capsys,
                                                          field, value):
        section = "prioritizer" if field == "histogram_capacity" else "trainer"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({section: {field: value}}))
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"{path}.{section}: {field}: expected int, got {value!r}" in err, err

    @pytest.mark.parametrize(
        "command, raw, where",
        [
            ("train", {"prioritizer": {"kind": "sb_loss", "histogram_capacity": 32}},
             "prioritizer: histogram_capacity 32 smaller than batch_size 64"),
            ("train", {"prioritizer": {"kind": "vr", "pool_capacity": 48}},
             "prioritizer: pool_capacity 48 smaller than batch_size 64"),
            ("benchmark", {"variants": [{"kind": "uniform"},
                                        {"kind": "sb_entropy", "histogram_capacity": 32}]},
             "variants[1]: histogram_capacity 32 smaller than batch_size 64"),
        ],
    )
    def test_capacity_below_batch_exits_two_before_writing(self, tmp_path, capsys,
                                                          command, raw, where):
        # used to fail only inside the first run, unlocated, after the
        # resolved config, the dataset snapshot and seed_1/ were written
        path = tmp_path / "small.json"
        path.write_text(json.dumps({**raw, "trainer": {"batch_size": 64}}))
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {path}.{where}\n"
        assert not out.exists()

    def test_capacity_of_an_unused_selector_is_not_checked(self):
        cfg = experiment_config_from_dict(
            {"trainer": {"batch_size": 64},
             "prioritizer": {"kind": "uniform", "histogram_capacity": 32, "pool_capacity": 8}}
        )
        assert cfg.prioritizer.histogram_capacity == 32

    def test_string_where_a_list_belongs_rejected(self):
        # a string used to be split into characters: "12" became seeds (1, 2)
        with pytest.raises(ConfigurationError, match=r"config: seeds: expected a list, got '12'"):
            experiment_config_from_dict({"seeds": "12"})
        with pytest.raises(ConfigurationError, match=r"corruption_grid: expected a list"):
            BenchmarkConfig(corruption_grid="none")


class TestConfigFiles:
    def test_load_from_file(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"seeds": [3], "eval_every": 128}))
        cfg = load_experiment_config(path)
        assert cfg.seeds == (3,)
        assert cfg.eval_every == 128

    def test_broken_json_reports_line_and_column(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "seeds": [1,]\n}\n')
        with pytest.raises(ConfigurationError, match="line 2"):
            load_experiment_config(path)

    def test_top_level_array_rejected(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2]\n")
        with pytest.raises(ConfigurationError, match="top level"):
            load_experiment_config(path)


seeds = st.integers(0, 2**32)
seed_lists = st.lists(seeds, min_size=1, max_size=4, unique=True)
paths = st.none() | st.text(max_size=20)
# Datasets with at least one example per class in each split.
datasets = st.integers(2, 1000).flatmap(lambda classes: st.builds(
    DatasetConfig, type=st.sampled_from(["synthetic", "idx"]),
    num_train=st.integers(classes, 10**6), num_test=st.integers(classes, 10**6),
    num_classes=st.just(classes), feature_dim=st.integers(2, 10**4), seed=seeds,
    cluster_spread=st.floats(0.01, 100.0), train_images=st.text(max_size=20),
    train_labels=paths, test_images=st.text(max_size=20), test_labels=paths,
    limit=st.none() | st.integers(1, 10**6),
))
corruptions = st.builds(CorruptionSpec, seed=seeds) | st.builds(
    CorruptionSpec, kind=st.sampled_from(list(CorruptionKind)[1:]),
    fraction=st.floats(0.0, 1.0), seed=seeds,
)
trainers = st.builds(
    TrainerConfig, learning_rate=st.floats(1e-6, 10.0), momentum=st.floats(0.0, 0.99),
    weight_decay=st.floats(0.0, 1.0), lr_drop_factor=st.floats(0.01, 1.0),
    lr_drop_points=st.lists(st.floats(0.01, 0.99), unique=True, max_size=3).map(sorted),
    batch_size=st.integers(1, 256), total_epochs=st.integers(1, 100), seed=seeds,
    hidden_layers=st.lists(st.integers(1, 512), max_size=3),
)


def prioritizers(batch_size):
    """Selectors whose window and pool hold at least one batch."""
    return st.builds(
        PrioritizerConfig, kind=st.sampled_from(PRIORITIZER_KINDS),
        beta=st.floats(0.0, 10.0), histogram_capacity=st.integers(batch_size, 4096),
        pool_capacity=st.none() | st.integers(batch_size, 4096),
        gate_threshold=st.floats(0.0, 10.0), seed=seeds,
    )


@st.composite
def experiment_configs(draw):
    trainer = draw(trainers)
    return ExperimentConfig(
        dataset=draw(datasets), corruption=draw(corruptions), trainer=trainer,
        prioritizer=draw(prioritizers(trainer.batch_size)), seeds=draw(seed_lists),
        eval_every=draw(st.integers(1, 10**6)), output_dir=draw(paths),
    )


@st.composite
def benchmark_configs(draw):
    trainer = draw(trainers)
    cells = st.just(("none", 0.0)) | st.tuples(
        st.sampled_from(["random_label", "shuffled_pixels", "gaussian"]), st.floats(0.0, 1.0))
    variants = st.lists(prioritizers(trainer.batch_size), max_size=4,
                        unique_by=PrioritizerConfig.label)
    return BenchmarkConfig(
        dataset=draw(datasets), corruption_grid=draw(st.lists(cells, min_size=1, max_size=4)),
        corruption_seed=draw(seeds), variants=tuple(draw(variants)), trainer=trainer,
        seeds=draw(seed_lists), eval_every=draw(st.integers(1, 10**6)), output_dir=draw(paths),
    )


class TestResolvedConfig:
    def test_round_trips_and_scrubs_enums(self):
        cfg = experiment_config_from_dict(
            {"corruption": {"kind": "gaussian", "fraction": 0.1, "seed": 2}}
        )
        text = resolved_config_json(cfg)
        assert text.endswith("\n")
        raw = json.loads(text)
        assert raw["corruption"]["kind"] == "gaussian"
        assert experiment_config_from_dict(raw) == cfg

    @settings(max_examples=60, deadline=None)
    @given(cfg=experiment_configs())
    def test_experiment_round_trip_over_generated_configs(self, cfg):
        assert experiment_config_from_dict(json.loads(resolved_config_json(cfg))) == cfg

    @settings(max_examples=60, deadline=None)
    @given(cfg=benchmark_configs())
    def test_benchmark_round_trip_over_generated_configs(self, cfg):
        assert benchmark_config_from_dict(json.loads(resolved_config_json(cfg))) == cfg

    def test_dict_form_contains_all_defaults(self):
        raw = config_to_dict(ExperimentConfig())
        assert raw["trainer"]["momentum"] == 0.9
        assert raw["prioritizer"]["histogram_capacity"] == 1024
        assert raw["dataset"]["type"] == "synthetic"


class TestBenchmarkParsing:
    def test_defaults_fill_four_variants(self):
        cfg = benchmark_config_from_dict({})
        assert [v.kind for v in cfg.variants] == ["uniform", "sb_loss", "sb_entropy", "vr"]
        assert cfg.corruption_grid == (("none", 0.0), ("random_label", 0.5))

    def test_grid_accepts_pairs_and_objects(self):
        cfg = benchmark_config_from_dict(
            {
                "corruption_grid": [
                    ["gaussian", 0.2],
                    {"kind": "random_label", "fraction": 0.5},
                ]
            }
        )
        assert cfg.corruption_grid == (("gaussian", 0.2), ("random_label", 0.5))

    def test_explicit_variants_survive(self):
        # the pool must hold a batch, so the batch is below the default 128
        cfg = benchmark_config_from_dict(
            {"variants": [{"kind": "uniform"}, {"kind": "vr", "pool_capacity": 64}],
             "trainer": {"batch_size": 64}}
        )
        assert [v.label() for v in cfg.variants] == ["uniform", "vr_p64"]

    def test_bad_grid_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            benchmark_config_from_dict({"corruption_grid": [["sideways", 0.5]]})

    def test_variants_must_be_list(self):
        with pytest.raises(ConfigurationError, match="variants"):
            benchmark_config_from_dict({"variants": {"kind": "uniform"}})

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            benchmark_config_from_dict({"corruption_grid": []})

    def test_variants_sharing_a_label_exit_two_before_writing(self, tmp_path, capsys):
        # both would write <cell>/sb_loss_b1/, from two processes at --threads 2
        path = tmp_path / "twice.json"
        path.write_text(json.dumps({"variants": [{"kind": "sb_loss", "seed": 1},
                                                 {"kind": "sb_loss", "seed": 2}]}))
        out = tmp_path / "o"
        assert main(["benchmark", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: variants: two variants are labelled sb_loss_b1\n")
        assert not out.exists()


class TestBuildDatasets:
    def small_cfg(self, **corruption):
        raw = {
            "dataset": {"num_train": 300, "num_test": 90, "num_classes": 4,
                        "feature_dim": 8, "seed": 3},
        }
        if corruption:
            raw["corruption"] = corruption
        return experiment_config_from_dict(raw)

    def test_synthetic_sizes_and_splits(self):
        train, test = build_datasets(self.small_cfg())
        assert (len(train), len(test)) == (300, 90)
        assert (train.split, test.split) == ("train", "test")
        assert not train.corrupted_mask.any()

    def test_corruption_applied_to_train_only(self):
        cfg = self.small_cfg(kind="random_label", fraction=0.5, seed=7)
        train, test = build_datasets(cfg)
        assert train.corrupted_mask.sum() == 150
        assert not test.corrupted_mask.any()

    def test_explicit_corruption_overrides_config(self):
        train, _ = build_datasets(
            self.small_cfg(),
            corruption=CorruptionSpec(kind="gaussian", fraction=0.1, seed=9),
        )
        assert train.corrupted_mask.sum() == 30

    def test_idx_type_requires_paths(self):
        with pytest.raises(ConfigurationError, match="idx"):
            DatasetConfig(type="idx")

    def test_unknown_dataset_type_rejected(self):
        with pytest.raises(ConfigurationError):
            DatasetConfig(type="csv")
