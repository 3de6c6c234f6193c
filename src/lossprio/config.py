"""Experiment configuration: JSON files in, validated dataclasses out.

A config file fully determines a run; the resolved form (defaults filled
in) is copied next to the outputs so any result directory can be rerun.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, replace
from enum import Enum
from numbers import Integral, Real
from pathlib import Path

from .datasets import (
    CorruptionSpec,
    Dataset,
    apply_corruption,
    generate_synthetic_pair,
    load_idx_images,
)
from .errors import ConfigurationError
from .model import TrainerConfig
from .prioritizers import PrioritizerConfig


def _convert_each(name: str, convert, values) -> tuple:
    """tuple(map(convert, values)), with errors naming the field and the entry."""
    if isinstance(values, str):  # a string would be split into characters
        raise ConfigurationError(f"{name}: expected a list, got {values!r}")
    out = []
    for i, value in enumerate(values):
        try:
            out.append(convert(value))
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"{name}[{i}] = {value!r}: {exc}") from None
    return tuple(out)


def _seed_tuple(values) -> tuple[int, ...]:
    """A nonempty tuple of distinct integer seeds: a repeated seed would write
    one run directory from two runs and count twice in the aggregates."""
    seeds = _convert_each("seeds", int, values)
    if not seeds:
        raise ConfigurationError("seeds must not be empty")
    repeated = next((s for i, s in enumerate(seeds) if s in seeds[:i]), None)
    if repeated is not None:
        raise ConfigurationError(f"seeds list seed {repeated} twice")
    return seeds


def _grid_cell(cell) -> tuple[str, float]:
    if isinstance(cell, dict):
        cell = (cell.get("kind", "none"), cell.get("fraction", 0.0))
    kind, fraction = cell
    CorruptionSpec(str(kind), float(fraction))  # rejects an unknown kind or fraction
    return str(kind), float(fraction)


# Field annotations (strings, as every config module postpones them) of the
# number and string fields _build checks on input.
_FIELD_TYPES = {"int": Integral, "float": Real, "int | None": (Integral, type(None)),
                "str": str, "str | None": (str, type(None))}


@dataclass
class DatasetConfig:
    type: str = "synthetic"
    num_train: int = 5000
    num_test: int = 1000
    num_classes: int = 10
    feature_dim: int = 32
    seed: int = 1
    cluster_spread: float = 2.0
    train_images: str | None = None
    train_labels: str | None = None
    test_images: str | None = None
    test_labels: str | None = None
    limit: int | None = None

    def __post_init__(self):
        if self.type not in ("synthetic", "idx"):
            raise ConfigurationError(f"unknown dataset type {self.type!r}")
        if self.type == "idx" and (self.train_images is None or self.test_images is None):
            raise ConfigurationError("idx datasets need train_images and test_images paths")


@dataclass
class ExperimentConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    corruption: CorruptionSpec = field(default_factory=CorruptionSpec)
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    prioritizer: PrioritizerConfig = field(default_factory=PrioritizerConfig)
    seeds: tuple[int, ...] = (1,)
    eval_every: int = 512
    output_dir: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "seeds", _seed_tuple(self.seeds))
        if self.eval_every < 1:
            raise ConfigurationError("eval_every must be positive")


@dataclass
class BenchmarkConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    corruption_grid: tuple[tuple[str, float], ...] = (
        ("none", 0.0),
        ("random_label", 0.5),
    )
    corruption_seed: int = 7
    variants: tuple[PrioritizerConfig, ...] = ()
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    seeds: tuple[int, ...] = (1, 2, 3)
    eval_every: int = 512
    output_dir: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "seeds", _seed_tuple(self.seeds))
        grid = _convert_each("corruption_grid", _grid_cell, self.corruption_grid)
        object.__setattr__(self, "corruption_grid", grid)
        if not grid:
            raise ConfigurationError("corruption_grid must not be empty")
        if self.eval_every < 1:
            raise ConfigurationError("eval_every must be positive")
        if not self.variants:
            object.__setattr__(
                self,
                "variants",
                (
                    PrioritizerConfig(kind="uniform"),
                    PrioritizerConfig(kind="sb_loss", beta=1.0),
                    PrioritizerConfig(kind="sb_entropy", beta=1.0),
                    PrioritizerConfig(kind="vr"),
                ),
            )
        labels = [v.label() for v in self.variants]
        repeated = next((x for i, x in enumerate(labels) if x in labels[:i]), None)
        if repeated is not None:  # both would write one run directory
            raise ConfigurationError(f"variants: two variants are labelled {repeated}")


def _build(cls, raw: dict, context: str):
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{context}: expected an object, got {type(raw).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(raw) - set(fields)
    if unknown:
        raise ConfigurationError(f"{context}: unknown keys {sorted(unknown)}")
    for name, value in raw.items():
        annotation = fields[name].type
        types = _FIELD_TYPES.get(annotation)
        if types and (isinstance(value, bool) or not isinstance(value, types)):
            raise ConfigurationError(f"{context}: {name}: expected {annotation}, got {value!r}")
    try:
        return cls(**raw)
    except (TypeError, ValueError) as exc:  # ConfigurationError is a ValueError
        raise ConfigurationError(f"{context}: {exc}") from None


def _check_capacity(prio: PrioritizerConfig, batch_size: int, context: str) -> None:
    """Reject a selection window or pool that could never hold one batch."""
    if prio.kind in ("sb_loss", "sb_entropy"):
        name, capacity = "histogram_capacity", prio.histogram_capacity
    elif prio.kind == "vr" and prio.pool_capacity is not None:
        name, capacity = "pool_capacity", prio.pool_capacity
    else:
        return
    if capacity < batch_size:
        raise ConfigurationError(
            f"{context}: {name} {capacity} smaller than batch_size {batch_size}"
        )


def _parse_json(path) -> dict:
    text = Path(path).read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{path}: top level must be an object")
    return raw


def experiment_config_from_dict(raw: dict, context: str = "config") -> ExperimentConfig:
    raw = dict(raw)
    parts = {}
    if "dataset" in raw:
        parts["dataset"] = _build(DatasetConfig, raw.pop("dataset"), f"{context}.dataset")
    if "corruption" in raw:
        parts["corruption"] = _build(
            CorruptionSpec, raw.pop("corruption"), f"{context}.corruption"
        )
    if "trainer" in raw:
        parts["trainer"] = _build(TrainerConfig, raw.pop("trainer"), f"{context}.trainer")
    if "prioritizer" in raw:
        parts["prioritizer"] = _build(
            PrioritizerConfig, raw.pop("prioritizer"), f"{context}.prioritizer"
        )
    parts.update(raw)
    cfg = _build(ExperimentConfig, parts, context)
    _check_capacity(cfg.prioritizer, cfg.trainer.batch_size, f"{context}.prioritizer")
    return cfg


def benchmark_config_from_dict(raw: dict, context: str = "config") -> BenchmarkConfig:
    raw = dict(raw)
    parts = {}
    if "dataset" in raw:
        parts["dataset"] = _build(DatasetConfig, raw.pop("dataset"), f"{context}.dataset")
    if "trainer" in raw:
        parts["trainer"] = _build(TrainerConfig, raw.pop("trainer"), f"{context}.trainer")
    if "variants" in raw:
        variants = raw.pop("variants")
        if not isinstance(variants, list):
            raise ConfigurationError(f"{context}.variants: expected a list")
        parts["variants"] = tuple(
            _build(PrioritizerConfig, v, f"{context}.variants[{i}]")
            for i, v in enumerate(variants)
        )
    if not isinstance(raw.get("corruption_grid", []), list):
        raise ConfigurationError(f"{context}.corruption_grid: expected a list")
    parts.update(raw)
    cfg = _build(BenchmarkConfig, parts, context)
    for i, variant in enumerate(cfg.variants):
        _check_capacity(variant, cfg.trainer.batch_size, f"{context}.variants[{i}]")
    return cfg


def load_experiment_config(path) -> ExperimentConfig:
    return experiment_config_from_dict(_parse_json(path), context=str(path))


def load_benchmark_config(path) -> BenchmarkConfig:
    return benchmark_config_from_dict(_parse_json(path), context=str(path))


def config_to_dict(cfg) -> dict:
    """Dataclass tree to plain JSON-ready values (enums by value)."""
    out = dataclasses.asdict(cfg)

    def scrub(value):
        if isinstance(value, dict):
            return {k: scrub(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [scrub(v) for v in value]
        if isinstance(value, Enum):
            return value.value
        return value

    return scrub(out)


def resolved_config_json(cfg) -> str:
    return json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n"


def build_datasets(cfg: ExperimentConfig | BenchmarkConfig,
                   corruption: CorruptionSpec | None = None) -> tuple[Dataset, Dataset]:
    """Materialize the train/test pair, applying corruption to train only.

    Synthetic train rows are corrupted in place as they are generated; IDX
    splits are corrupted after both are loaded, since the label range spans
    both files.
    """
    ds = cfg.dataset
    if corruption is None:
        corruption = getattr(cfg, "corruption", CorruptionSpec())
    if ds.type == "synthetic":
        return generate_synthetic_pair(
            ds.num_train,
            ds.num_test,
            ds.num_classes,
            ds.feature_dim,
            ds.seed,
            ds.cluster_spread,
            corruption,
        )
    train = load_idx_images(
        ds.train_images, ds.train_labels, limit=ds.limit, split="train"
    )
    test = load_idx_images(
        ds.test_images, ds.test_labels, limit=ds.limit, split="test"
    )
    classes = max(train.num_classes, test.num_classes)
    train = replace(train, num_classes=classes)
    test = replace(test, num_classes=classes)
    return apply_corruption(train, corruption), test
