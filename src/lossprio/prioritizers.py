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

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .model import prediction_entropy

PRIORITIZER_KINDS = ("uniform", "sb_loss", "sb_entropy", "vr")


@dataclass
class PrioritizerConfig:
    kind: str = "uniform"
    beta: float = 1.0
    histogram_capacity: int = 1024
    pool_capacity: int | None = None
    gate_threshold: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in PRIORITIZER_KINDS:
            raise ConfigurationError(
                f"unknown prioritizer kind {self.kind!r}; expected one of {PRIORITIZER_KINDS}"
            )
        if not self.beta >= 0:
            raise ConfigurationError("beta must be nonnegative")
        if self.histogram_capacity < 1:
            raise ConfigurationError("histogram_capacity must be positive")
        if self.pool_capacity is not None and self.pool_capacity < 1:
            raise ConfigurationError("pool_capacity must be positive")
        if not self.gate_threshold >= 0:
            raise ConfigurationError("gate_threshold must be nonnegative")
        for name in ("beta", "gate_threshold"):
            if getattr(self, name) == math.inf:
                raise ConfigurationError(f"{name} must be finite")

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

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._buf = np.empty(capacity, dtype=np.float64)
        self._size = 0
        self._next = 0
        # grown by insert_many: a lower-triangular mask, and _prefix_counts' comparisons
        self._tri, self._below = np.tri(0, dtype=bool), np.empty(0, dtype=bool)

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
            self._tri, self._below = np.tri(n, dtype=bool), np.empty(n * n, dtype=bool)
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
        # contiguous, however far an earlier chunk grew the buffer
        below = np.less_equal(values, probes[:, None], out=self._below[: m * m].reshape(m, m))
        below &= self._tri[:m, :m]
        # a byte sum, accumulated in int64: a count reaches the chunk length
        return below.view(np.uint8).sum(axis=1, dtype=np.int64)


def expected_selection_fraction(beta: float) -> float:
    """Long-run admitted fraction for rank-power selection: 1 / (beta + 1)."""
    return 1.0 / (beta + 1.0)


def gate_statistic(losses: np.ndarray) -> float:
    """Squared L2 distance between the normalized losses and uniform, scaled
    by their count: 0.0 for flat or all-zero losses.  A loss sum that
    overflows is taken over the losses scaled by a power of two, so a flat
    pool reads 0.0 at any scale."""
    total = losses.sum()
    if total == np.inf:
        losses = losses * 2.0 ** -len(losses).bit_length()
        total = losses.sum()
    if total <= 0:
        return 0.0
    q = losses / total
    return float(len(q) * np.square(q - 1.0 / len(q)).sum())


def draw_from_pool(ids: np.ndarray, losses: np.ndarray, batch_size: int,
                   gate_threshold: float, rng: np.random.Generator) -> tuple[np.ndarray, bool]:
    """Draw batch_size distinct ids from a full pool, plus the gate decision.

    Above the threshold, the picks are one exponential race (Efraimidis &
    Spirakis 2006): each position keys log(E) - log(loss) for its own
    standard exponential E, and in ascending key order the positions have
    exactly the distribution of successive draws, each proportional to the
    losses left.  Logs rather than E / loss keep a subnormal loss finite,
    apart from the zero losses, which key +inf.  Once only zero losses are
    left, or with the gate shut, picks are uniform over the positions left.
    The prioritizer checks the losses and that the pool holds a batch.
    """
    k = len(losses)
    if not gate_statistic(losses) > gate_threshold:
        return ids[rng.permutation(k)[:batch_size]], False
    # log(0) is -inf; E == 0 against a zero loss keys nan, which sorts last too
    with np.errstate(divide="ignore", invalid="ignore"):
        keys = np.log(rng.standard_exponential(k)) - np.log(losses)
    order = keys.argsort(kind="stable")
    n = min(batch_size, np.count_nonzero(losses))  # one weighted pick per positive loss
    if n < batch_size:
        order[n:] = rng.permutation(order[n:])
    return ids[order[:batch_size]], True


class Prioritizer:
    """Common interface: feed candidates, collect full training batches.

    Built from its config alone, by make_prioritizer."""

    needs_scores = True  # False: feed ignores losses and distributions

    def __init__(self, cfg: PrioritizerConfig, batch_size: int):
        if batch_size < 1:
            raise ConfigurationError("batch_size must be positive")
        self.kind = cfg.kind
        self.batch_size = batch_size
        self.rng = np.random.default_rng(cfg.seed)
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

    def __init__(self, cfg: PrioritizerConfig, batch_size: int):
        super().__init__(cfg, batch_size)
        if cfg.histogram_capacity < batch_size:
            # the window could never hold a batch, so warm-up would never end
            raise ConfigurationError(
                f"histogram_capacity {cfg.histogram_capacity} smaller than batch_size {batch_size}"
            )
        self.beta = cfg.beta
        self.histogram = ScoreHistogram(cfg.histogram_capacity)
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
        # can differ from it in the last bit.  At beta 1 it is the identity,
        # c ** 1.0 == c, so the cdf is the probability as it stands
        p = cdf if self.beta == 1.0 else np.array([c**self.beta for c in cdf.tolist()])
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

    def __init__(self, cfg: PrioritizerConfig, batch_size: int):
        super().__init__(cfg, batch_size)
        self.capacity = 3 * batch_size if cfg.pool_capacity is None else cfg.pool_capacity
        if self.capacity < batch_size:
            raise ConfigurationError(
                f"pool_capacity {self.capacity} smaller than batch_size {batch_size}"
            )
        self.gate_threshold = cfg.gate_threshold
        # candidates not yet in a full pool
        self._ids = np.empty(0, dtype=np.int64)
        self._losses = np.empty(0, dtype=np.float64)

    def feed(self, rows, losses=None, probabilities=None):
        if losses is None:
            raise ConfigurationError("vr needs per-example losses")
        losses = self._check_scores(losses)
        if len(losses) != len(rows):
            raise ConfigurationError("rows and losses must have equal length")
        ids = np.concatenate((self._ids, rows))
        pooled = np.concatenate((self._losses, losses))
        cap = self.capacity
        full = len(ids) - len(ids) % cap
        self._ids, self._losses = ids[full:], pooled[full:]
        self.ingested += len(losses)
        self.selected += full // cap * self.batch_size
        # undrawn candidates of each pool are dropped, not recycled
        return [draw_from_pool(ids[lo : lo + cap], pooled[lo : lo + cap], self.batch_size,
                               self.gate_threshold, self.rng)
                for lo in range(0, full, cap)]


_CLASSES = {"uniform": UniformPrioritizer, "sb_loss": SelectiveBackpropPrioritizer,
            "sb_entropy": SelectiveBackpropPrioritizer, "vr": PoolImportancePrioritizer}


def make_prioritizer(cfg: PrioritizerConfig, batch_size: int) -> Prioritizer:
    """Build the strategy named by cfg.kind for the given training batch size."""
    return _CLASSES[cfg.kind](cfg, batch_size)
