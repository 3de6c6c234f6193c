"""Example-prioritized SGD training with a corruption benchmark harness."""

from .datasets import (
    CorruptionKind,
    CorruptionSpec,
    Dataset,
    apply_corruption,
    generate_synthetic_pair,
    load_idx_images,
)
from .errors import (
    AggregationError,
    ConfigurationError,
    IngestionError,
    TrainingDivergedError,
)
from .harness import (
    RunMetrics,
    SpeedupReport,
    aggregate_seeds,
    compute_speedup,
    run_training,
)
from .model import ModelParams, TrainerConfig, forward, init_params
from .prioritizers import PrioritizerConfig, make_prioritizer

__all__ = [
    "AggregationError",
    "ConfigurationError",
    "CorruptionKind",
    "CorruptionSpec",
    "Dataset",
    "IngestionError",
    "ModelParams",
    "PrioritizerConfig",
    "RunMetrics",
    "SpeedupReport",
    "TrainerConfig",
    "TrainingDivergedError",
    "aggregate_seeds",
    "apply_corruption",
    "compute_speedup",
    "forward",
    "generate_synthetic_pair",
    "init_params",
    "load_idx_images",
    "make_prioritizer",
    "run_training",
]
