"""JSON config parsing, resolution, and dataset materialization."""

import json
import re

import pytest

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
        "raw, where",
        [
            ({"corruption_grid": [["gaussian", 0.5, 1]]}, r"corruption_grid\[0\]"),
            ({"seeds": ["a"]}, r"seeds\[0\] = 'a'"),
            ({"dataset": {"num_train": "5000"}}, r"\.dataset: num_train"),
        ],
    )
    def test_malformed_config_exits_two_with_location(self, tmp_path, capsys, raw, where):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["benchmark", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}")
        assert re.search(where, err), err

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
