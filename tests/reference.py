"""Per-example references the batched run path is held to, value for value.

The shipped code corrupts, ranks and queues whole arrays at a time; these are
the one-example-at-a-time definitions it replaced.  Tests compare the two
byte for byte, and check the references' own properties here.
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
        self._buf[self._next] = score
        self._next = (self._next + 1) % self.capacity
        if self._size < self.capacity:
            self._size += 1

    def cdf(self, score: float) -> float:
        """One score against the current window: the per-example reference
        that ``insert_many`` reproduces."""
        if self._size == 0:
            raise EmptyHistogramError("no scores recorded yet")
        window = self._buf if self._size == self.capacity else self._buf[: self._size]
        return np.count_nonzero(window <= score) / self._size


def histogram_window(histogram: prioritizers.ScoreHistogram) -> list[float]:
    """Window contents, oldest first."""
    if histogram._size < histogram.capacity:
        return histogram._buf[: histogram._size].tolist()
    return np.roll(histogram._buf, -histogram._next).tolist()


def pool_entries(prio: prioritizers.PoolImportancePrioritizer) -> list[tuple[int, float]]:
    """(id, loss) of each candidate waiting for a full pool, in arrival order."""
    return list(zip(prio._ids.tolist(), prio._losses.tolist()))


def reference_pool_draw(entries, batch_size, threshold, rng):
    """The per-pick definition ``draw_from_pool`` reproduces: one
    ``rng.choice`` over the losses left per weighted pick.  It returns the
    picked ids, the gate decision and the (id, loss) entries left.

    rng.choice refuses a loss vector that is all zero or sums to infinity,
    so the batch may not run past the positive losses of an open gate.
    """
    ids = [i for i, _ in entries]
    losses = np.array([loss for _, loss in entries])
    q = losses / losses.sum() if losses.sum() > 0 else None
    gate_on = q is not None and len(q) * np.square(q - 1 / len(q)).sum() > threshold
    remaining, picked = np.arange(len(ids)), []
    for _ in range(batch_size):
        if gate_on:
            weights = losses[remaining]
            j = rng.choice(len(remaining), p=weights / weights.sum())
        else:
            j = rng.integers(len(remaining))
        picked.append(ids[remaining[j]])
        remaining = np.delete(remaining, j)
    return picked, gate_on, [entries[i] for i in remaining]


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
