"""Experiment configuration: JSON files in, validated dataclasses out.

A config file fully determines a run; the resolved form (defaults filled
in) is copied next to the outputs so any result directory can be rerun.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, replace
from numbers import Integral, Real
from pathlib import Path

from .datasets import (
    CorruptionSpec,
    Dataset,
    apply_corruption,
    check_synthetic,
    generate_synthetic_pair,
    load_idx_images,
)
from .errors import ConfigurationError
from .harness import to_json
from .model import TrainerConfig
from .prioritizers import PRIORITIZER_KINDS, PrioritizerConfig, make_prioritizer


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


def _seed(value) -> int:
    seed = int(value)
    if seed < 0:  # numpy's generators take no negative seed
        raise ValueError("must be nonnegative")
    return seed


def _check_distinct(values, message: str) -> None:
    """Raise message, formatted with the first value that occurs twice in values."""
    repeated = next((x for i, x in enumerate(values) if x in values[:i]), None)
    if repeated is not None:
        raise ConfigurationError(message.format(repeated))


def _seed_tuple(values) -> tuple[int, ...]:
    """A nonempty tuple of distinct nonnegative seeds: a repeated seed would
    write one run directory from two runs and count twice in the aggregates."""
    seeds = _convert_each("seeds", _seed, values)
    if not seeds:
        raise ConfigurationError("seeds must not be empty")
    _check_distinct(seeds, "seeds list seed {} twice")
    return seeds


def _check_selector_seed(name: str, prio: PrioritizerConfig, seeds) -> None:
    """Each run seeds its selector with prio.seed plus the run's own seed."""
    low = min(seeds)
    if prio.seed + low < 0:
        raise ConfigurationError(f"{name}.seed {prio.seed} plus run seed {low} is negative")


def _grid_cell(cell) -> tuple[str, float]:
    if isinstance(cell, dict):
        unknown = sorted(set(cell) - {"kind", "fraction"})
        if unknown:  # a misspelt fraction would run the cell uncorrupted
            raise ValueError(f"unknown keys {unknown}")
        cell = (cell.get("kind", "none"), cell.get("fraction", 0.0))
    kind, fraction = cell
    if isinstance(fraction, bool) or not isinstance(fraction, Real):
        raise TypeError(f"fraction: expected float, got {fraction!r}")
    CorruptionSpec(str(kind), float(fraction))  # rejects an unknown kind or fraction
    return str(kind), float(fraction)


# Field annotations (strings, as every config module postpones them) of the
# number and string fields _build checks on input, and of the list fields
# whose entries it checks.
_FIELD_TYPES = {"int": Integral, "float": Real, "int | None": (Integral, type(None)),
                "str": str, "str | None": (str, type(None))}
_ENTRY_TYPES = {"tuple[int, ...]": "int", "tuple[float, ...]": "float"}


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
        if self.seed < 0:
            raise ConfigurationError(f"seed {self.seed}: must be nonnegative")
        if self.type == "synthetic":
            check_synthetic({"num_train": self.num_train, "num_test": self.num_test},
                            self.num_classes, self.feature_dim, self.cluster_spread)


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
        _check_selector_seed("prioritizer", self.prioritizer, self.seeds)


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
        _check_distinct([f"{kind}_{fraction:g}" for kind, fraction in grid],
                        "corruption_grid: two cells are named {}")  # each writes its directory
        if self.corruption_seed < 0:
            raise ConfigurationError(f"corruption_seed {self.corruption_seed}: "
                                     "must be nonnegative")
        if self.eval_every < 1:
            raise ConfigurationError("eval_every must be positive")
        if not self.variants:  # one of each kind, at its defaults
            object.__setattr__(self, "variants", tuple(map(PrioritizerConfig, PRIORITIZER_KINDS)))
        _check_distinct([v.label() for v in self.variants],
                        "variants: two variants are labelled {}")  # each writes its directory
        for i, variant in enumerate(self.variants):
            _check_selector_seed(f"variants[{i}]", variant, self.seeds)


def _build(cls, raw: dict, context: str):
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{context}: expected an object, got {type(raw).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(raw) - set(fields)
    if unknown:
        raise ConfigurationError(f"{context}: unknown keys {sorted(unknown)}")
    for name, value in raw.items():
        annotation = fields[name].type
        checks = [(name, annotation, value)]
        if annotation in _ENTRY_TYPES:
            if not isinstance(value, (list, tuple)):
                raise ConfigurationError(f"{context}: {name}: expected a list, got {value!r}")
            checks = [(f"{name}[{i}]", _ENTRY_TYPES[annotation], v) for i, v in enumerate(value)]
        for where, expected, v in checks:
            types = _FIELD_TYPES.get(expected)
            if types and (isinstance(v, bool) or not isinstance(v, types)):
                raise ConfigurationError(f"{context}: {where}: expected {expected}, got {v!r}")
    try:
        return cls(**raw)
    except (TypeError, ValueError) as exc:  # ConfigurationError is a ValueError
        raise ConfigurationError(f"{context}: {exc}") from None


def _sections(raw: dict, context: str, **classes) -> dict:
    """raw with each nested section present built into its class."""
    return {key: _build(classes[key], value, f"{context}.{key}") if key in classes else value
            for key, value in raw.items()}


def _check_selector(prio: PrioritizerConfig, batch_size: int, context: str) -> None:
    """Build the selector once, so its constructor rejects what no run could use;
    at seed 0, since runs add their seed to prio.seed, which alone may be < 0."""
    try:
        make_prioritizer(replace(prio, seed=0), batch_size)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{context}: {exc}") from None


def _parse_json(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (IsADirectoryError, PermissionError) as exc:
        raise ConfigurationError(f"{path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: byte {exc.start} is not UTF-8") from None
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
    parts = _sections(raw, context, dataset=DatasetConfig, corruption=CorruptionSpec,
                      trainer=TrainerConfig, prioritizer=PrioritizerConfig)
    cfg = _build(ExperimentConfig, parts, context)
    _check_selector(cfg.prioritizer, cfg.trainer.batch_size, f"{context}.prioritizer")
    return cfg


def benchmark_config_from_dict(raw: dict, context: str = "config") -> BenchmarkConfig:
    for name in ("variants", "corruption_grid"):
        if not isinstance(raw.get(name, []), list):
            raise ConfigurationError(f"{context}.{name}: expected a list")
    parts = _sections(raw, context, dataset=DatasetConfig, trainer=TrainerConfig)
    parts["variants"] = tuple(_build(PrioritizerConfig, v, f"{context}.variants[{i}]")
                              for i, v in enumerate(raw.get("variants", [])))
    cfg = _build(BenchmarkConfig, parts, context)
    for i, variant in enumerate(cfg.variants):
        _check_selector(variant, cfg.trainer.batch_size, f"{context}.variants[{i}]")
    return cfg


def load_experiment_config(path) -> ExperimentConfig:
    return experiment_config_from_dict(_parse_json(path), context=str(path))


def load_benchmark_config(path) -> BenchmarkConfig:
    return benchmark_config_from_dict(_parse_json(path), context=str(path))


def resolved_config_json(cfg) -> str:
    return to_json(cfg, indent=2)


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
    train = load_idx_images(ds.train_images, ds.train_labels, limit=ds.limit)
    test = load_idx_images(ds.test_images, ds.test_labels, limit=ds.limit)
    classes = max(train.num_classes, test.num_classes)
    train = replace(train, num_classes=classes)
    test = replace(test, num_classes=classes)
    return apply_corruption(train, corruption), test
