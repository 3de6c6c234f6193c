"""Synthetic and IDX-backed datasets plus the label/pixel corruption transforms.

A dataset is one read-only array per field; an example's id is its row.
Corruptions only ever touch the train split and record each row's kind, so
the ground-truth corruption mask stays recoverable for diagnostics after the
fact.  All randomness flows through seeded generators; the same seed always
reproduces the same dataset byte for byte.
"""

from __future__ import annotations

import contextlib
import math
import struct
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, IngestionError

# Row blocks of about this many feature bytes bound the temporaries of the
# in-place generation and corruption passes.
_CHUNK_BYTES = 1 << 20
# A synthetic split of at least this many feature bytes is drawn on a helper
# thread while the calling thread finishes and corrupts the rows drawn so far.
# The bound keeps every build below MNIST scale on one thread.
_THREAD_BYTES = 32 << 20


class CorruptionKind(Enum):
    NONE = "none"
    RANDOM_LABEL = "random_label"
    SHUFFLED_PIXELS = "shuffled_pixels"
    GAUSSIAN = "gaussian"


CORRUPTION_KINDS = tuple(CorruptionKind)  # a row's kind code indexes this tuple


@dataclass(frozen=True, eq=False)
class Dataset:
    """Read-only per-example arrays; row i is example id i.

    kind_codes index CORRUPTION_KINDS (None: all clean).  The arrays are held
    as read-only views, not copies, so pass arrays nothing else writes to.
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    kind_codes: np.ndarray | None = None

    def __post_init__(self):
        if self.num_classes < 1:
            raise ConfigurationError("num_classes must be positive")
        feats = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        codes = (np.zeros(labels.shape, dtype=np.int8) if self.kind_codes is None
                 else np.asarray(self.kind_codes, dtype=np.int8))
        if feats.ndim != 2 or feats.shape[1] < 1 or not (
                labels.shape == codes.shape == feats.shape[:1]):
            raise ConfigurationError(
                f"feature array {feats.shape} does not match {labels.shape} labels "
                f"and {codes.shape} kind codes"
            )
        bad = np.flatnonzero((labels < 0) | (labels >= self.num_classes))
        if bad.size:
            raise ConfigurationError(
                f"example {bad[0]}: label {labels[bad[0]]} outside [0, {self.num_classes})"
            )
        if ((codes < 0) | (codes >= len(CORRUPTION_KINDS))).any():
            raise ConfigurationError("kind codes outside CORRUPTION_KINDS")
        for name, array in (("features", feats), ("labels", labels), ("kind_codes", codes)):
            view = array.view()  # read-only without a copy
            view.setflags(write=False)
            object.__setattr__(self, name, view)

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def ids(self) -> np.ndarray:
        return np.arange(len(self))

    @property
    def corrupted_mask(self) -> np.ndarray:
        return self.kind_codes != 0

    def stack(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (features, labels) as read-only (N, D) and (N,) arrays."""
        return self.features, self.labels


@dataclass(frozen=True)
class CorruptionSpec:
    """What to corrupt: a kind, a train fraction, and the seed that drives it."""

    kind: CorruptionKind = CorruptionKind.NONE
    fraction: float = 0.0
    seed: int = 0

    def __post_init__(self):
        try:
            kind = CorruptionKind(self.kind)
        except ValueError:
            raise ConfigurationError(f"kind: unknown corruption kind {self.kind!r}") from None
        object.__setattr__(self, "kind", kind)
        if not 0.0 <= self.fraction <= 1.0:
            raise ConfigurationError(f"corruption fraction {self.fraction} outside [0, 1]")
        if kind is CorruptionKind.NONE and self.fraction > 0.0:
            raise ConfigurationError("corruption kind 'none' requires fraction 0")
        if self.seed < 0:
            raise ConfigurationError(f"seed {self.seed}: must be nonnegative")


def check_synthetic(split_sizes: dict, num_classes, feature_dim, cluster_spread) -> None:
    """Reject a synthetic task with fewer than 2 classes or features, a split
    (split_sizes maps field names to sizes) without one example per class, or
    a spread that is not positive and finite."""
    if num_classes < 2:
        raise ConfigurationError(f"num_classes {num_classes}: need at least 2 classes")
    if feature_dim < 2:
        raise ConfigurationError(f"feature_dim {feature_dim}: need at least 2 features")
    for name, size in split_sizes.items():
        if size < num_classes:
            raise ConfigurationError(f"{name} {size} smaller than num_classes {num_classes}")
    if not cluster_spread > 0:
        raise ConfigurationError(f"cluster_spread {cluster_spread}: must be positive")
    if cluster_spread == math.inf:
        raise ConfigurationError(f"cluster_spread {cluster_spread}: must be finite")


def generate_synthetic_pair(
    num_train: int,
    num_test: int,
    num_classes: int,
    feature_dim: int,
    seed: int,
    cluster_spread: float = 2.0,
    corruption: CorruptionSpec | None = None,
) -> tuple[Dataset, Dataset]:
    """Train and test splits, in one draw, of Gaussian class clusters: each
    example is its class mean (drawn once from the seed) plus isotropic noise
    of scale cluster_spread, and labels go round-robin, balanced within one.

    A corruption is applied to the freshly drawn train rows in place, exactly
    as apply_corruption would apply it to the clean train split, so no clean
    copy of the train features is ever held beside the corrupted one.  A
    large split draws its noise on a helper thread (see _drawing) while this
    one finishes and corrupts the rows drawn so far; the bytes are the same.
    """
    check_synthetic({"num_train": num_train, "num_test": num_test},
                    num_classes, feature_dim, cluster_spread)
    num_examples = num_train + num_test
    rng = np.random.default_rng(seed)
    means = rng.normal(size=(num_classes, feature_dim))
    feats = np.empty((num_examples, feature_dim))
    labels = np.arange(num_examples, dtype=np.int64) % num_classes
    codes = np.zeros(num_train, dtype=np.int8)
    with _drawing(rng, feats) as drawn:
        finished = 0  # rows below this hold means[label] + cluster_spread * noise

        def ready(row):
            nonlocal finished
            while finished <= row:
                lo, hi = next(drawn)
                block = feats[lo:hi]
                block *= cluster_spread
                # the clean round-robin labels: a random_label corruption may
                # already have rewritten `labels`
                block += means[np.arange(lo, hi) % num_classes]
                finished = hi

        if corruption is not None:
            _corrupt_rows(feats[:num_train], labels[:num_train], codes, num_classes,
                          corruption, ready)
        ready(num_examples - 1)
    return (Dataset(feats[:num_train], labels[:num_train], num_classes, codes),
            Dataset(feats[num_train:], labels[num_train:], num_classes))


def _row_chunks(num_rows: int, feature_dim: int):
    """(start, stop) bounds of consecutive row blocks of about _CHUNK_BYTES."""
    step = max(1, _CHUNK_BYTES // (8 * feature_dim))
    return ((lo, min(lo + step, num_rows)) for lo in range(0, num_rows, step))


@contextlib.contextmanager
def _drawing(rng, feats):
    """Fill feats with rng.standard_normal and yield an iterator over its
    _row_chunks blocks that returns each block's bounds once it is drawn.

    An array of _THREAD_BYTES or more is drawn on a helper thread, one block
    at a time (the bytes of one draw over the whole array), while the caller
    works on the blocks returned so far.  A failed draw raises its exception
    from the iterator.  However the with block is left, the helper starts no
    further block and is joined before the with statement ends.  A smaller
    array is drawn here in one call before the iterator is yielded.
    """
    blocks = list(_row_chunks(*feats.shape))
    if feats.nbytes < _THREAD_BYTES:
        rng.standard_normal(out=feats)
        yield iter(blocks)
        return
    helper = ThreadPoolExecutor(1, thread_name_prefix="lossprio-draw")
    try:
        draws = [helper.submit(rng.standard_normal, out=feats[lo:hi]) for lo, hi in blocks]
        # zip takes each draw's result, which raises a failed draw's exception,
        # before it returns that draw's block
        yield (block for block, _ in zip(blocks, map(Future.result, draws)))
    finally:
        helper.shutdown(cancel_futures=True)


def _read_idx(path, dims: int) -> np.ndarray:
    """The unsigned bytes of an IDX file of dims sizes, in the shape they give:
    the magic 0x0800 + dims, dims big-endian uint32 sizes, none of them 0, then
    every byte they promise.  Each error names the file and the byte offset."""
    raw, header = Path(path).read_bytes(), 4 + 4 * dims
    if len(raw) < header:
        raise IngestionError(f"header needs {header} bytes, file has {len(raw)}",
                             path=path, offset=len(raw))
    magic, *sizes = struct.unpack(f">{dims + 1}I", raw[:header])
    if magic != 0x0800 + dims:
        raise IngestionError(f"bad magic 0x{magic:08x}, expected 0x{0x0800 + dims:08x}",
                             path=path, offset=0)
    if 0 in sizes:
        raise IngestionError(f"size {sizes.index(0) + 1} of {dims} is 0",
                             path=path, offset=4 + 4 * sizes.index(0))
    expected = header + math.prod(sizes)
    if len(raw) < expected:
        raise IngestionError(f"payload truncated: file ends at byte {len(raw)}, "
                             f"expected {expected}", path=path, offset=len(raw))
    return np.frombuffer(raw, np.uint8, expected - header, header).reshape(sizes)


def load_idx_images(images_path, labels_path=None, limit: int | None = None) -> Dataset:
    """Read a big-endian IDX image file (with its companion label file).

    When labels_path is omitted it is derived from images_path by the usual
    naming convention (``images`` -> ``labels``, ``idx3`` -> ``idx1``).
    Pixel values are scaled to [0, 1].
    """
    images_path = Path(images_path)
    if labels_path is None:
        name = images_path.name
        if "images" not in name:
            raise IngestionError(f"cannot derive a label file name from {name!r}; pass "
                                 "labels_path explicitly", path=images_path, offset=0)
        labels_path = images_path.with_name(
            name.replace("images", "labels").replace("idx3", "idx1"))
    labels_path = Path(labels_path)
    if limit is not None and limit < 1:
        raise ConfigurationError("limit must be a positive integer")

    pixels, labels = _read_idx(images_path, 3), _read_idx(labels_path, 1)
    count, rows, cols = pixels.shape
    if len(labels) != count:
        raise IngestionError(f"count {len(labels)} does not match the {count} of {images_path}",
                             path=labels_path, offset=4)
    take = count if limit is None else min(limit, count)
    feats = pixels.reshape(count, rows * cols)[:take].astype(np.float64)
    feats /= 255.0
    labels = labels[:take]
    num_classes = int(labels.max()) + 1
    return Dataset(feats, labels, max(num_classes, 2))


def make_task_permutation(feature_dim: int, seed: int) -> np.ndarray:
    """The single feature permutation shared by every shuffled example in a task."""
    return np.random.default_rng(seed).permutation(feature_dim)


def apply_corruption(dataset: Dataset, spec: CorruptionSpec) -> Dataset:
    """Corrupt floor(fraction * N) train examples chosen uniformly by the seed.

    The chosen index set depends only on the seed and N, so different kinds at
    the same seed hit the same examples.  Then, from the same generator and in
    ascending row order: ``random_label`` draws each label uniformly over all
    classes, the original included; ``gaussian`` draws each row as i.i.d.
    normal noise at the row's own sample mean and population standard
    deviation (a constant row maps to itself).  ``shuffled_pixels`` reorders
    every chosen row by the one make_task_permutation(D, seed).  The result
    holds corrupted copies of the arrays the kind changes; ``dataset`` itself
    is left as it was.
    """
    if spec.kind is CorruptionKind.NONE or math.floor(spec.fraction * len(dataset)) == 0:
        return dataset
    feats, labels = dataset.stack()
    if spec.kind is CorruptionKind.RANDOM_LABEL:
        labels = labels.copy()
    else:
        feats = feats.copy()
    codes = dataset.kind_codes.copy()
    _corrupt_rows(feats, labels, codes, dataset.num_classes, spec)
    return Dataset(feats, labels, dataset.num_classes, codes)


def _corrupt_rows(feats, labels, codes, num_classes: int, spec: CorruptionSpec,
                  ready=None) -> None:
    """apply_corruption's transform, written into writable train arrays.

    Only the array the kind changes is written, besides ``codes``.  Features
    are gathered, redrawn and written back one block of chosen rows at a time,
    which gives the same bytes as one pass over all of them.  ``ready(row)``,
    when given, is called before a block is gathered, with its last row, and
    returns once the features of every row up to it are final.
    """
    n_corrupt = math.floor(spec.fraction * len(labels))
    if spec.kind is CorruptionKind.NONE or n_corrupt == 0:
        return
    rng = np.random.default_rng(spec.seed)
    rows = np.sort(rng.choice(len(labels), size=n_corrupt, replace=False))
    codes[rows] = CORRUPTION_KINDS.index(spec.kind)
    if spec.kind is CorruptionKind.RANDOM_LABEL:
        labels[rows] = rng.integers(num_classes, size=n_corrupt)
        return
    shuffle = spec.kind is CorruptionKind.SHUFFLED_PIXELS
    perm = make_task_permutation(feats.shape[1], spec.seed) if shuffle else None
    for lo, hi in _row_chunks(n_corrupt, feats.shape[1]):
        chosen = rows[lo:hi]
        if ready is not None:
            ready(chosen[-1])
        block = feats[chosen]
        if shuffle:
            feats[chosen] = block[:, perm]
            continue
        # rng.normal(mu, sigma) draws mu + sigma * standard_normal per element
        mu, sigma = block.mean(axis=1, keepdims=True), np.sqrt(block.var(axis=1, keepdims=True))
        rng.standard_normal(out=block)
        block *= sigma
        block += mu
        feats[chosen] = block

