"""Per-example references the batched run path is held to.

The shipped code corrupts, ranks and queues whole arrays at a time; these are
the one-example-at-a-time definitions it replaced.  Tests compare the two
byte for byte, and check the references' own properties here.  The pool
draw is held to a distribution instead: successive_sampling_probability.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from lossprio import prioritizers
from lossprio.datasets import CorruptionKind
from lossprio.errors import ConfigurationError
from lossprio.model import ModelParams


@dataclass(frozen=True, eq=False)
class Example:
    """One labelled feature vector: the unit of the corrupt_* reference transforms."""

    id: int
    features: np.ndarray
    label: int
    corrupted: bool = False
    corruption_kind: CorruptionKind = CorruptionKind.NONE

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        feats.setflags(write=False)
        object.__setattr__(self, "features", feats)
        if self.corrupted != (self.corruption_kind is not CorruptionKind.NONE):
            raise ConfigurationError(
                f"example {self.id}: corrupted flag {self.corrupted} inconsistent "
                f"with kind {self.corruption_kind.value}"
            )


def corrupt_random_label(example: Example, num_classes: int, rng: np.random.Generator) -> Example:
    """Replace the label with a uniform draw over all classes, original included."""
    new_label = int(rng.integers(num_classes))
    return replace(
        example,
        label=new_label,
        corrupted=True,
        corruption_kind=CorruptionKind.RANDOM_LABEL,
    )


def corrupt_shuffle_pixels(example: Example, permutation: np.ndarray) -> Example:
    """Reorder features by a fixed permutation: out[j] = features[perm[j]]."""
    permutation = np.asarray(permutation)
    if permutation.shape != example.features.shape:
        raise ConfigurationError(
            f"permutation length {permutation.shape} does not match "
            f"feature length {example.features.shape}"
        )
    return replace(
        example,
        features=example.features[permutation],
        corrupted=True,
        corruption_kind=CorruptionKind.SHUFFLED_PIXELS,
    )


def corrupt_gaussian(example: Example, rng: np.random.Generator) -> Example:
    """Replace features with i.i.d. normal noise matching their mean and variance.

    The parameters are the sample mean and population variance of the source
    example's own features; a constant input therefore maps to itself.
    """
    mu = float(np.mean(example.features))
    sigma = math.sqrt(float(np.var(example.features)))
    noise = rng.normal(mu, sigma, size=example.features.shape[0])
    return replace(
        example,
        features=noise,
        corrupted=True,
        corruption_kind=CorruptionKind.GAUSSIAN,
    )


class EmptyHistogramError(RuntimeError):
    """Raised when a probability is requested before any score was recorded.

    Callers still warming up must select unconditionally instead."""


class ReferenceHistogram(prioritizers.ScoreHistogram):
    """The shipped window, inserted into and ranked one score at a time."""

    def insert(self, score: float) -> None:
        self._window = np.append(self._window, score)[-self.capacity :]

    def cdf(self, score: float) -> float:
        """One score against the current window: the per-example reference
        that ``insert_many`` reproduces."""
        if len(self._window) == 0:
            raise EmptyHistogramError("no scores recorded yet")
        return np.count_nonzero(self._window <= score) / len(self._window)


def histogram_window(histogram: prioritizers.ScoreHistogram) -> list[float]:
    """Window contents, oldest first."""
    return histogram._window.tolist()


def pool_entries(prio: prioritizers.PoolImportancePrioritizer) -> list[tuple[int, float]]:
    """(id, loss) of each candidate waiting for a full pool, in arrival order."""
    return list(zip(prio._ids.tolist(), prio._losses.tolist()))


def successive_sampling_probability(losses, picks) -> float:
    """The exact probability of the ordered picks (positions into losses)
    when each pick is drawn in proportion to the losses left, and uniformly
    once only zero losses are left: the distribution ``draw_from_pool``
    draws an open gate's batch from."""
    left, p = list(range(len(losses))), 1.0
    for j in picks:
        total = math.fsum(losses[i] for i in left)
        p *= losses[j] / total if total > 0 else 1 / len(left)
        left.remove(j)
    return p


def selection_probability(score: float, histogram: ReferenceHistogram, beta: float) -> float:
    """cdf(score) raised to beta; beta 0 admits everything."""
    if beta < 0:
        raise ConfigurationError("beta must be nonnegative")
    return histogram.cdf(score) ** beta


class CandidateBuffer:
    """FIFO queue of admitted ids that releases exact-size batches.

    The per-example reference for the queue inside
    ``SelectiveBackpropPrioritizer``, which releases the same batches.
    """

    def __init__(self, batch_size: int):
        if batch_size < 1:
            raise ConfigurationError("batch_size must be positive")
        self.batch_size = batch_size
        self._queue: deque[int] = deque()

    def __len__(self) -> int:
        return len(self._queue)

    def push(self, example_id: int) -> None:
        self._queue.append(example_id)

    def drain(self) -> list[list[int]]:
        """Pop as many full batches as the queue currently holds."""
        batches = []
        while len(self._queue) >= self.batch_size:
            batches.append([self._queue.popleft() for _ in range(self.batch_size)])
        return batches

    def snapshot(self) -> list[int]:
        return list(self._queue)


def whole_vector_update(vector, velocity, grad, cfg, lr: float) -> None:
    """sgd_step's update as five passes over whole vectors, in place: weight
    decay into the gradient, momentum, then the step.  The blocked update
    reproduces it byte for byte."""
    grad += np.multiply(vector, cfg.weight_decay)
    velocity *= cfg.momentum
    velocity += grad
    vector -= np.multiply(velocity, lr)


def load_checkpoint(path) -> ModelParams:
    """The parameters model.save_checkpoint wrote to path."""
    with np.load(path) as data:
        arch = data["architecture"]
        n_layers = len(arch) - 1
        weights = [data[f"w{i}"] for i in range(n_layers)]
        biases = [data[f"b{i}"] for i in range(n_layers)]
    params = ModelParams(weights, biases)
    if params.architecture != [int(a) for a in arch]:
        raise ConfigurationError("checkpoint arrays do not match stored architecture")
    return params
