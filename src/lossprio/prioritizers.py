"""Batch selection strategies that decide which examples earn an update.

All strategies share one contract: ``feed(rows, losses, probabilities)``
takes a candidate mini-batch (int64 row ids, each row's loss and prediction
distribution) and returns zero or more ``(rows, gate_on)`` pairs: a training
batch of exactly batch_size fed ids as an int64 array, and the ``vr`` gate
decision behind it (None for the kinds without a gate).  Strategies own a
seeded generator, so a run is reproducible from its config alone.

Four kinds exist:

* ``uniform`` passes candidate batches straight through (plain SGD).
* ``sb_loss`` keeps a sliding window of recent losses and admits each
  example with probability cdf(loss) ** beta, so hard examples are kept
  and easy ones are mostly skipped.  Admitted ids queue up until a full
  batch exists.
* ``sb_entropy`` is the same machinery scored by the entropy of the
  prediction distribution instead of the loss.
* ``vr`` accumulates candidates in a pool; once full it draws a batch
  without replacement, proportional to loss when the losses are spread
  out enough (a squared-distance-to-uniform gate), uniformly otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .model import prediction_entropy

PRIORITIZER_KINDS = ("uniform", "sb_loss", "sb_entropy", "vr")

DEFAULT_HISTOGRAM_CAPACITY = 1024


@dataclass
class PrioritizerConfig:
    kind: str = "uniform"
    beta: float = 1.0
    histogram_capacity: int = DEFAULT_HISTOGRAM_CAPACITY
    pool_capacity: int | None = None
    gate_threshold: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in PRIORITIZER_KINDS:
            raise ConfigurationError(
                f"unknown prioritizer kind {self.kind!r}; expected one of {PRIORITIZER_KINDS}"
            )
        if self.beta < 0:
            raise ConfigurationError("beta must be nonnegative")
        if self.histogram_capacity < 1:
            raise ConfigurationError("histogram_capacity must be positive")
        if self.pool_capacity is not None and self.pool_capacity < 1:
            raise ConfigurationError("pool_capacity must be positive")
        if self.gate_threshold < 0:
            raise ConfigurationError("gate_threshold must be nonnegative")

    def label(self) -> str:
        """Short name used in benchmark summaries."""
        if self.kind in ("sb_loss", "sb_entropy"):
            return f"{self.kind}_b{self.beta:g}"
        if self.kind == "vr":
            cap = self.pool_capacity if self.pool_capacity is not None else "auto"
            return f"vr_p{cap}"
        return self.kind


class ScoreHistogram:
    """Sliding window over the last ``capacity`` raw scores.

    The cdf of a score is the fraction of window entries less than or equal
    to it (ties inclusive), computed against the exact window contents rather
    than a binned summary.
    """

    def __init__(self, capacity: int = DEFAULT_HISTOGRAM_CAPACITY):
        self.capacity = capacity
        self._buf = np.empty(capacity, dtype=np.float64)
        self._size = 0
        self._next = 0
        self._tri = np.tri(0, dtype=bool)  # lower-triangular mask, grown by insert_many

    def __len__(self) -> int:
        return self._size

    def insert_many(self, scores: np.ndarray) -> np.ndarray:
        """Insert scores in order and return the cdf of each one against the
        window as it stood right after its own insertion.

        Equal, value for value, to inserting and ranking one score at a time
        (the per-example reference in tests/reference.py); the work is per
        chunk of at most ``capacity`` scores instead.
        """
        out = np.empty(len(scores))
        for lo in range(0, len(scores), self.capacity):
            chunk = scores[lo : lo + self.capacity]
            out[lo : lo + len(chunk)] = self._insert_chunk(chunk)
        return out

    def _insert_chunk(self, scores: np.ndarray) -> np.ndarray:
        n, cap, size = len(scores), self.capacity, self._size
        if len(self._tri) < n:
            self._tri = np.tri(n, dtype=bool)
        # the count at or below each score: the old window, less the old
        # entries evicted by then, plus the chunk up to and including it
        count = np.sort(self._buf[:size]).searchsorted(scores, side="right")
        free = cap - size
        if n > free:  # score free + r evicts the r + 1 oldest entries
            oldest = (self._next - size) % cap
            gone = self._buf[(oldest + np.arange(n - free)) % cap]
            count[free:] -= self._prefix_counts(gone, scores[free:])
        count += self._prefix_counts(scores, scores)

        self._buf[(self._next + np.arange(n)) % cap] = scores
        self._next = (self._next + n) % cap
        sizes = np.minimum(size + np.arange(1, n + 1), cap)
        self._size = int(sizes[-1])
        return count / sizes

    def _prefix_counts(self, values: np.ndarray, probes: np.ndarray) -> np.ndarray:
        """For each j, how many of values[: j + 1] are <= probes[j]."""
        m = len(probes)
        return np.count_nonzero((values <= probes[:, None]) & self._tri[:m, :m], axis=1)


def expected_selection_fraction(beta: float) -> float:
    """Long-run admitted fraction for rank-power selection: 1 / (beta + 1)."""
    return 1.0 / (beta + 1.0)


class SamplingPool:
    """Pool of (id, loss) candidates drawn down by weighted sampling.

    Ids and losses are two fixed-capacity arrays in arrival order.  The gate
    statistic is the squared L2 distance between the normalized loss
    distribution and uniform, scaled by the pool size; above the threshold
    the draw is loss-proportional, otherwise uniform.  All-zero losses
    always fall back to uniform.
    """

    def __init__(self, capacity: int, gate_threshold: float = 0.0):
        self.capacity = capacity
        self.gate_threshold = gate_threshold
        self._ids = np.empty(capacity, dtype=np.int64)
        self._losses = np.empty(capacity, dtype=np.float64)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def is_full(self) -> bool:
        return self._size >= self.capacity

    def extend(self, ids, losses) -> None:
        """Append candidates in order; losses must be finite and nonnegative
        (feed checks them)."""
        lo, hi = self._size, self._size + len(losses)
        self._ids[lo:hi] = ids
        self._losses[lo:hi] = losses
        self._size = hi

    def gate_statistic(self) -> float:
        losses = self._losses[: self._size]
        total = losses.sum()
        if total <= 0:
            return 0.0
        q = losses / total
        return float(len(q) * np.square(q - 1.0 / len(q)).sum())

    def draw(self, batch_size: int, rng: np.random.Generator) -> tuple[list[int], bool]:
        """Remove and return batch_size distinct ids, plus the gate decision.

        Weighted draws are sequential: pick one id proportional to loss,
        remove it, renormalize, repeat.  Each weighted pick is the search
        ``rng.choice(k, p=losses / losses.sum())`` makes, over the pool
        compacted after the previous pick, so it yields the same id from the
        same stream.  Once only zero losses are left, picks are uniform.
        """
        if batch_size > self._size:
            raise ConfigurationError(f"cannot draw {batch_size} from a pool of {self._size}")
        gate_on = self.gate_statistic() > self.gate_threshold
        picked = []
        for _ in range(batch_size):
            k = self._size
            weights = self._losses[:k]
            total = weights.sum() if gate_on else 0.0
            if total > 0:
                cdf = (weights / total).cumsum()
                cdf /= cdf[-1]
                j = int(cdf.searchsorted(rng.random(), side="right"))
            else:
                j = int(rng.integers(k))
            picked.append(int(self._ids[j]))
            # close the gap in place; the next pick sums the compacted array
            self._ids[j : k - 1] = self._ids[j + 1 : k]
            self._losses[j : k - 1] = self._losses[j + 1 : k]
            self._size = k - 1
        return picked, gate_on

    def clear(self) -> None:
        self._size = 0


class Prioritizer:
    """Common interface: feed candidates, collect full training batches."""

    kind = "base"
    needs_scores = True  # False: feed ignores losses and distributions

    def __init__(self, batch_size: int, seed: int):
        if batch_size < 1:
            raise ConfigurationError("batch_size must be positive")
        self.batch_size = batch_size
        self.rng = np.random.default_rng(seed)
        self.ingested = 0
        self.selected = 0

    def feed(self, rows: np.ndarray, losses=None,
             probabilities=None) -> list[tuple[np.ndarray, bool | None]]:
        raise NotImplementedError

    @staticmethod
    def _check_scores(scores) -> np.ndarray:
        scores = np.asarray(scores, dtype=np.float64)
        if scores.ndim != 1:
            raise ConfigurationError("scores must be a 1-d batch")
        if not np.isfinite(scores).all() or (scores < 0).any():
            raise ConfigurationError("scores must be finite and nonnegative")
        return scores


class UniformPrioritizer(Prioritizer):
    """Plain SGD: every candidate batch passes through untouched."""

    kind = "uniform"
    needs_scores = False

    def feed(self, rows, losses=None, probabilities=None):
        self.ingested += len(rows)
        self.selected += len(rows)
        return [(rows, None)]


class SelectiveBackpropPrioritizer(Prioritizer):
    """Admit each example with probability cdf(score) ** beta.

    Scores are losses (``sb_loss``) or prediction entropies (``sb_entropy``).
    Each score is inserted into the window before its own probability is
    computed, and until the window holds one full batch of scores every
    example is admitted unconditionally (warm-up).  A feed is decided as one
    batch: the same admissions, from the same random stream, as deciding
    one example at a time (the reference in tests/reference.py).
    """

    def __init__(
        self,
        batch_size: int,
        seed: int,
        beta: float,
        histogram_capacity: int = DEFAULT_HISTOGRAM_CAPACITY,
        kind: str = "sb_loss",
    ):
        super().__init__(batch_size, seed)
        if histogram_capacity < batch_size:
            # the window could never hold a batch, so warm-up would never end
            raise ConfigurationError(
                f"histogram_capacity {histogram_capacity} smaller than batch_size {batch_size}"
            )
        self.beta = beta
        self.kind = kind
        self.histogram = ScoreHistogram(histogram_capacity)
        self._queue = np.empty(0, dtype=np.int64)  # admitted ids not yet in a batch

    def feed(self, rows, losses=None, probabilities=None):
        if self.kind == "sb_loss":
            if losses is None:
                raise ConfigurationError("sb_loss needs per-example losses")
            scores = self._check_scores(losses)
        else:
            if probabilities is None:
                raise ConfigurationError("sb_entropy needs prediction distributions")
            scores = self._check_scores(prediction_entropy(np.atleast_2d(probabilities)))
        if len(scores) != len(rows):
            raise ConfigurationError("rows and scores must have equal length")

        # warm-up: the leading scores that leave the window below one batch
        warm = max(self.batch_size - 1 - len(self.histogram), 0)
        cdf = self.histogram.insert_many(scores)
        # Python's float power, as the per-example reference uses: numpy's
        # can differ from it in the last bit
        p = np.array([c**self.beta for c in cdf.tolist()])
        admitted = np.ones(len(scores), dtype=bool)
        ranked = np.flatnonzero(p[warm:] < 1.0) + warm
        admitted[ranked] = self.rng.random(len(ranked)) < p[ranked]

        self.ingested += len(scores)
        self.selected += int(admitted.sum())
        queue = np.concatenate((self._queue, rows[admitted]))
        full = len(queue) - len(queue) % self.batch_size
        self._queue = queue[full:]
        return [(queue[lo : lo + self.batch_size], None)
                for lo in range(0, full, self.batch_size)]


class PoolImportancePrioritizer(Prioritizer):
    """Collect candidates in a pool; when full, draw one batch and discard
    the rest of the pool.

    With capacity c * batch_size this trains at most 1/c of the candidate
    stream.  The draw is loss-proportional only when the gate statistic
    clears the threshold; there is no warm-up and no loss re-weighting.
    """

    kind = "vr"

    def __init__(
        self,
        batch_size: int,
        seed: int,
        pool_capacity: int | None = None,
        gate_threshold: float = 0.0,
    ):
        super().__init__(batch_size, seed)
        capacity = 3 * batch_size if pool_capacity is None else pool_capacity
        if capacity < batch_size:
            raise ConfigurationError(
                f"pool_capacity {capacity} smaller than batch_size {batch_size}"
            )
        self.pool = SamplingPool(capacity, gate_threshold)

    def feed(self, rows, losses=None, probabilities=None):
        if losses is None:
            raise ConfigurationError("vr needs per-example losses")
        losses = self._check_scores(losses)
        if len(losses) != len(rows):
            raise ConfigurationError("rows and losses must have equal length")
        batches = []
        lo = 0
        while lo < len(losses):
            hi = min(lo + self.pool.capacity - len(self.pool), len(losses))
            self.pool.extend(rows[lo:hi], losses[lo:hi])
            self.ingested += hi - lo
            lo = hi
            if self.pool.is_full:
                drawn, gate_on = self.pool.draw(self.batch_size, self.rng)
                self.pool.clear()  # undrawn candidates are dropped, not recycled
                self.selected += len(drawn)
                batches.append((np.array(drawn, dtype=np.int64), gate_on))
        return batches


def make_prioritizer(cfg: PrioritizerConfig, batch_size: int) -> Prioritizer:
    """Build the strategy named by cfg.kind for the given training batch size."""
    if cfg.kind == "uniform":
        return UniformPrioritizer(batch_size, cfg.seed)
    if cfg.kind in ("sb_loss", "sb_entropy"):
        return SelectiveBackpropPrioritizer(
            batch_size, cfg.seed, cfg.beta, cfg.histogram_capacity, cfg.kind
        )
    if cfg.kind == "vr":
        return PoolImportancePrioritizer(
            batch_size, cfg.seed, cfg.pool_capacity, cfg.gate_threshold
        )
    raise ConfigurationError(f"unknown prioritizer kind {cfg.kind!r}")
