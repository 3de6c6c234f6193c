"""Dataset generation, IDX ingestion, and the corruption transforms."""

import hashlib
import struct
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import Example, corrupt_gaussian, corrupt_random_label, corrupt_shuffle_pixels

from lossprio import datasets
from lossprio.config import build_datasets, experiment_config_from_dict
from lossprio.datasets import (
    CORRUPTION_KINDS,
    CorruptionKind,
    CorruptionSpec,
    Dataset,
    apply_corruption,
    generate_synthetic_pair,
    load_idx_images,
    make_task_permutation,
)
from lossprio.errors import ConfigurationError, IngestionError
from lossprio.harness import write_snapshot_csv


@pytest.fixture(autouse=True)
def no_thread_left_running():
    # a synthetic build joins its helper thread however the build ends
    before = threading.active_count()
    yield
    assert threading.active_count() == before


@pytest.fixture
def helper_thread(monkeypatch):
    """Every synthetic build draws its features on the helper thread."""
    monkeypatch.setattr(datasets, "_THREAD_BYTES", 0)


def synthetic(num, classes, dim, seed, cluster_spread=2.0):
    """A clean train split of num rows: the train half of the smallest pair."""
    return generate_synthetic_pair(num, classes, classes, dim, seed, cluster_spread)[0]


class TestSyntheticGeneration:
    def test_shape_and_balance(self):
        ds = synthetic(1000, 10, 32, seed=1)
        assert len(ds) == 1000
        assert ds.feature_dim == 32
        counts = np.bincount(ds.stack()[1], minlength=10)
        assert counts.max() - counts.min() <= 1
        assert ds.ids.tolist() == list(range(1000))

    def test_one_example_per_class(self):
        ds = synthetic(10, 10, 2, seed=4)
        assert sorted(ds.stack()[1].tolist()) == list(range(10))

    def test_deterministic(self):
        a = synthetic(200, 4, 8, seed=9)
        b = synthetic(200, 4, 8, seed=9)
        assert np.array_equal(a.stack()[0], b.stack()[0])
        assert np.array_equal(a.stack()[1], b.stack()[1])
        c = synthetic(200, 4, 8, seed=10)
        assert not np.array_equal(a.stack()[0], c.stack()[0])

    def test_pair_shares_cluster_structure(self):
        # the train rows come first in the draw, so the test size cannot move them
        train, test = generate_synthetic_pair(300, 100, 5, 8, seed=2)
        short = synthetic(300, 5, 8, seed=2)
        assert np.array_equal(train.stack()[0], short.stack()[0])
        assert len(test) == 100

    def test_equals_the_whole_array_formula(self):
        # generation adds the class means one block of rows at a time; the
        # bytes must be those of means[labels] + spread * noise in one pass,
        # here over a tail block shorter than the rest
        num, classes, dim, spread = 5000, 7, 64, 1.5
        block = datasets._CHUNK_BYTES // (8 * dim)
        assert num > 2 * block and num % block
        rng = np.random.default_rng(12)
        means = rng.normal(size=(classes, dim))
        labels = np.arange(num) % classes
        expected = means[labels] + spread * rng.standard_normal((num, dim))
        ds = synthetic(num, classes, dim, seed=12, cluster_spread=spread)
        assert ds.features.tobytes() == expected.tobytes()
        assert ds.labels.tolist() == labels.tolist()

    @pytest.mark.parametrize(
        "num, classes, dim",
        [(100, 1, 8), (100, 4, 1), (3, 4, 8)],
    )
    def test_bad_dimensions_rejected(self, num, classes, dim):
        with pytest.raises(ConfigurationError):
            synthetic(num, classes, dim, seed=0)

    @pytest.mark.parametrize(
        "classes, dim, message",
        [(1, 8, "num_classes 1: need at least 2 classes"),
         (4, 1, "feature_dim 1: need at least 2 features")],
    )
    def test_pair_bad_dimensions_rejected(self, classes, dim, message):
        # the pair, which the command line builds from, used to accept both
        with pytest.raises(ConfigurationError, match=message):
            generate_synthetic_pair(100, 20, classes, dim, seed=0)


def _write_idx(tmp_path, count=100, rows=28, cols=28, magic=2051, truncate=0,
               label_count=None, label_magic=2049):
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, size=(count, rows, cols), dtype=np.uint8)
    images = struct.pack(">IIII", magic, count, rows, cols) + pixels.tobytes()
    if truncate:
        images = images[:-truncate]
    labels_n = count if label_count is None else label_count
    labels = rng.integers(0, 10, size=labels_n, dtype=np.uint8)
    labels_blob = struct.pack(">II", label_magic, labels_n) + labels.tobytes()
    img_path = tmp_path / "train-images-idx3-ubyte"
    lbl_path = tmp_path / "train-labels-idx1-ubyte"
    img_path.write_bytes(images)
    lbl_path.write_bytes(labels_blob)
    return img_path, lbl_path, pixels, labels


class TestIdxIngestion:
    def test_loads_and_scales(self, tmp_path):
        img, lbl, pixels, labels = _write_idx(tmp_path)
        ds = load_idx_images(img, lbl, limit=50)
        assert len(ds) == 50
        assert ds.feature_dim == 784
        expected = pixels.reshape(100, 784)[:50] / 255.0
        assert np.array_equal(ds.stack()[0], expected)
        assert np.array_equal(ds.stack()[1], labels[:50])
        assert ds.stack()[0].min() >= 0.0 and ds.stack()[0].max() <= 1.0

    def test_labels_path_derived_from_convention(self, tmp_path):
        img, _, _, labels = _write_idx(tmp_path, count=20)
        ds = load_idx_images(img)
        assert np.array_equal(ds.stack()[1], labels)

    def test_limit_clamps_to_count(self, tmp_path):
        img, lbl, _, _ = _write_idx(tmp_path, count=10)
        assert len(load_idx_images(img, lbl, limit=500)) == 10

    def test_bad_magic_reports_offset(self, tmp_path):
        img, lbl, _, _ = _write_idx(tmp_path, magic=1234)
        with pytest.raises(IngestionError) as exc:
            load_idx_images(img, lbl)
        assert exc.value.offset == 0
        assert "byte offset" in str(exc.value)

    def test_truncated_payload_reports_offset(self, tmp_path):
        img, lbl, _, _ = _write_idx(tmp_path, count=10, truncate=100)
        with pytest.raises(IngestionError) as exc:
            load_idx_images(img, lbl)
        assert exc.value.offset == 16 + 10 * 784 - 100

    def test_count_mismatch_rejected(self, tmp_path):
        img, lbl, _, _ = _write_idx(tmp_path, count=10, label_count=9)
        with pytest.raises(IngestionError):
            load_idx_images(img, lbl)

    def test_bad_limit_rejected(self, tmp_path):
        img, lbl, _, _ = _write_idx(tmp_path, count=10)
        with pytest.raises(ConfigurationError):
            load_idx_images(img, lbl, limit=0)


def corrupt_all(features, labels, num_classes, kind, seed=0):
    """apply_corruption over every row of a train split built from the arrays."""
    ds = Dataset(np.asarray(features, dtype=float), np.asarray(labels), num_classes)
    return ds, apply_corruption(ds, CorruptionSpec(kind=kind, fraction=1.0, seed=seed))


class TestRandomLabelCorruption:
    def test_single_class_keeps_label(self):
        _, out = corrupt_all(np.zeros((3, 4)), [0, 0, 0], 1, "random_label")
        assert out.labels.tolist() == [0, 0, 0]
        assert out.corrupted_mask.all()
        assert {CORRUPTION_KINDS[c] for c in out.kind_codes} == {CorruptionKind.RANDOM_LABEL}

    def test_features_untouched(self):
        ds, out = corrupt_all(np.arange(20.0).reshape(4, 5), [2, 0, 1, 4], 5,
                              "random_label", seed=1)
        assert np.array_equal(out.features, ds.features)

    def test_keep_fraction_matches_binomial(self):
        # a corrupted example keeps its label with chance 1/K; with 500
        # corrupted and K=10 the keep count is Binomial(500, 0.1)
        ds = synthetic(1000, 10, 8, seed=5)
        out = apply_corruption(
            ds, CorruptionSpec(kind="random_label", fraction=0.5, seed=11)
        )
        kept = int((out.corrupted_mask & (out.labels == ds.labels)).sum())
        mean, sigma = 500 * 0.1, np.sqrt(500 * 0.1 * 0.9)
        assert abs(kept - mean) < 4 * sigma


class TestShufflePixels:
    def test_identity_permutation(self):
        ex = Example(id=0, features=np.arange(6.0), label=1)
        out = corrupt_shuffle_pixels(ex, np.arange(6))
        assert np.array_equal(out.features, ex.features)
        assert out.corrupted

    def test_definition(self):
        rng = np.random.default_rng(8)
        ds, out = corrupt_all(rng.standard_normal((3, 32)), [0, 1, 0], 2,
                              "shuffled_pixels", seed=4)
        assert np.array_equal(out.features, ds.features[:, make_task_permutation(32, seed=4)])

    def test_permutation_is_deterministic_per_seed(self):
        assert np.array_equal(make_task_permutation(50, 3), make_task_permutation(50, 3))
        assert sorted(make_task_permutation(50, 3).tolist()) == list(range(50))
        assert make_task_permutation(1, 0).tolist() == [0]

    def test_length_mismatch_rejected(self):
        ex = Example(id=0, features=np.arange(4.0), label=0)
        with pytest.raises(ConfigurationError):
            corrupt_shuffle_pixels(ex, np.arange(5))


class TestGaussianCorruption:
    def test_constant_input_maps_to_itself(self):
        ds, out = corrupt_all(np.full((2, 8), 3.25), [1, 0], 2, "gaussian")
        assert np.array_equal(out.features, ds.features)

    def test_sample_mean_near_source_mean(self):
        # CLT bound: with D=10000 the sample mean sits within 4 sigma / sqrt(D)
        rng = np.random.default_rng(30)
        feats = rng.standard_normal((1, 10_000)) * 1.7 + 0.4
        _, out = corrupt_all(feats, [0], 2, "gaussian", seed=31)
        mu = float(np.mean(feats))
        sigma = float(np.sqrt(np.var(feats)))
        assert abs(float(np.mean(out.features)) - mu) < 4 * sigma / np.sqrt(10_000)


class TestApplyCorruption:
    def test_zero_fraction_is_identity(self):
        ds = synthetic(100, 4, 8, seed=1)
        out = apply_corruption(ds, CorruptionSpec(kind="random_label", fraction=0.0, seed=5))
        assert not out.corrupted_mask.any()

    def test_exact_count_and_mask(self):
        ds = synthetic(1000, 4, 8, seed=2)
        out = apply_corruption(ds, CorruptionSpec(kind="random_label", fraction=0.25, seed=5))
        assert int(out.corrupted_mask.sum()) == 250
        kinds = [CORRUPTION_KINDS[code] for code in out.kind_codes]
        assert out.corrupted_mask.tolist() == [k is CorruptionKind.RANDOM_LABEL for k in kinds]

    def test_floor_of_fraction(self):
        ds = synthetic(10, 4, 8, seed=2)
        out = apply_corruption(ds, CorruptionSpec(kind="gaussian", fraction=0.26, seed=5))
        assert int(out.corrupted_mask.sum()) == 2  # floor(2.6)

    def test_ids_stable_and_structure_kept(self):
        ds = synthetic(300, 4, 8, seed=3)
        out = apply_corruption(ds, CorruptionSpec(kind="shuffled_pixels", fraction=0.5, seed=6))
        assert out.ids.tolist() == ds.ids.tolist()
        assert out.num_classes == ds.num_classes
        assert out.feature_dim == ds.feature_dim
        assert len(out) == len(ds)

    def test_same_seed_same_index_set_across_kinds(self):
        ds = synthetic(400, 4, 8, seed=4)
        masks = []
        for kind in ("random_label", "shuffled_pixels", "gaussian"):
            out = apply_corruption(ds, CorruptionSpec(kind=kind, fraction=0.3, seed=17))
            masks.append(out.corrupted_mask.tolist())
        assert masks[0] == masks[1] == masks[2]

    def test_single_permutation_shared_by_all_shuffled(self):
        ds = synthetic(200, 4, 16, seed=5)
        out = apply_corruption(ds, CorruptionSpec(kind="shuffled_pixels", fraction=0.5, seed=9))
        perm = make_task_permutation(16, seed=9)
        rows = out.corrupted_mask
        assert np.array_equal(out.features[rows], ds.features[rows][:, perm])

    @pytest.mark.parametrize("kind", ["shuffled_pixels", "gaussian"])
    def test_untouched_examples_identical(self, kind):
        # feature corruptions keep every label, and every clean row
        ds = synthetic(200, 4, 8, seed=6)
        out = apply_corruption(ds, CorruptionSpec(kind=kind, fraction=0.4, seed=10))
        clean = ~out.corrupted_mask
        assert np.array_equal(out.features[clean], ds.features[clean])
        assert np.array_equal(out.labels, ds.labels)

    def test_deterministic(self):
        ds = synthetic(300, 4, 8, seed=7)
        spec = CorruptionSpec(kind="random_label", fraction=0.5, seed=20)
        a, b = apply_corruption(ds, spec), apply_corruption(ds, spec)
        assert np.array_equal(a.stack()[1], b.stack()[1])

    @pytest.mark.parametrize("kind", ["random_label", "shuffled_pixels", "gaussian"])
    def test_matches_per_example_reference(self, kind):
        # the one-example transforms, applied row by row in ascending order with
        # one generator, are the reference the array version must equal exactly
        ds = synthetic(300, 7, 784, seed=12)
        spec = CorruptionSpec(kind=kind, fraction=0.5, seed=19)
        rng = np.random.default_rng(spec.seed)
        chosen = set(rng.choice(300, size=150, replace=False).tolist())
        perm = make_task_permutation(784, spec.seed)
        expected = []
        for row in range(300):
            ex = Example(id=row, features=ds.features[row], label=int(ds.labels[row]))
            if row in chosen and kind == "random_label":
                ex = corrupt_random_label(ex, 7, rng)
            elif row in chosen and kind == "shuffled_pixels":
                ex = corrupt_shuffle_pixels(ex, perm)
            elif row in chosen:
                ex = corrupt_gaussian(ex, rng)
            expected.append(ex)

        out = apply_corruption(ds, spec)
        assert out.features.tobytes() == np.stack([ex.features for ex in expected]).tobytes()
        assert out.labels.tolist() == [ex.label for ex in expected]
        assert out.corrupted_mask.tolist() == [ex.corrupted for ex in expected]
        assert [CORRUPTION_KINDS[c] for c in out.kind_codes] == [
            ex.corruption_kind for ex in expected
        ]

    @pytest.mark.parametrize("fraction", [-0.1, 1.5])
    def test_bad_fraction_rejected(self, fraction):
        with pytest.raises(ConfigurationError):
            CorruptionSpec(kind="gaussian", fraction=fraction, seed=0)

    def test_none_kind_with_positive_fraction_rejected(self):
        with pytest.raises(ConfigurationError):
            CorruptionSpec(kind="none", fraction=0.5, seed=0)


class TestDatasetValidation:
    def test_label_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError, match="example 1: label 5"):
            Dataset(np.zeros((2, 2)), np.array([0, 5]), num_classes=2)

    def test_inconsistent_corruption_flag_rejected(self):
        with pytest.raises(ConfigurationError):
            Example(id=0, features=np.zeros(2), label=0, corrupted=True)

    def test_snapshot_csv(self, tmp_path):
        ds = synthetic(50, 4, 8, seed=8)
        out = apply_corruption(ds, CorruptionSpec(kind="gaussian", fraction=0.2, seed=3))
        path = tmp_path / "snap.csv"
        write_snapshot_csv(out, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "id,label,corrupted,kind"
        assert len(lines) == 51
        corrupted_rows = [l for l in lines[1:] if l.split(",")[2] == "1"]
        assert len(corrupted_rows) == 10
        assert all(row.endswith("gaussian") for row in corrupted_rows)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            Dataset(np.zeros((3, 2)), np.zeros(4), 2)


# sha256 over train features, labels and kind codes, then test features and
# labels, as built before generation and corruption worked in place.
BUILD_9000x64 = {
    "none": "2c872b112a0eba1d734057e59424733e2f7b29b213b372b10cc4aeb03e1d7086",
    "random_label": "4ac1acdeb58fee2d337ccf6946ee18ca4c3291c2d671c759f16d027ba2aedd40",
    "shuffled_pixels": "be76fceb77750b9c9195ea65bcafa624f115539f1d122efe6af3a1bd182d5165",
    "gaussian": "a19f510fc68eca5ec7feca3ccabb8d0427719bec1f0b92739c0ad50dc82e5167",
}


def _build(num_train, num_test, dim, kind):
    cfg = experiment_config_from_dict(
        {"dataset": {"num_train": num_train, "num_test": num_test, "feature_dim": dim,
                     "seed": 4}})
    fraction = 0.0 if kind == "none" else 0.5
    return build_datasets(cfg, CorruptionSpec(kind=kind, fraction=fraction, seed=7))


@pytest.mark.parametrize("kind", sorted(BUILD_9000x64))
def test_build_bytes_pinned(kind):
    # 9000 rows of 64 features span more than two blocks of the in-place
    # passes, and so do the 4500 corrupted rows
    assert 4500 > 2 * (datasets._CHUNK_BYTES // (8 * 64))
    train, test = _build(9000, 1000, 64, kind)
    digest = hashlib.sha256()
    for array in (train.features, train.labels, train.kind_codes, test.features, test.labels):
        digest.update(array.tobytes())
    assert digest.hexdigest() == BUILD_9000x64[kind]


def test_build_holds_no_second_copy_of_the_features():
    # a clean train split beside its corrupted copy, or the means and the
    # noise as two full arrays, would put the peak near twice the result
    _build(200, 50, 64, "gaussian")  # first-call imports stay out of the trace
    tracemalloc.start()
    try:
        train, test = _build(20000, 5000, 64, "gaussian")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    final = sum(a.nbytes for ds in (train, test)
                for a in (ds.features, ds.labels, ds.kind_codes))
    assert peak <= 1.25 * final, peak / final


@pytest.mark.parametrize("kind", sorted(BUILD_9000x64))
def test_threaded_build_bytes_pinned(kind, helper_thread, monkeypatch):
    # the helper draws the 10000 rows in 100 blocks, and the 4500 corrupted
    # rows span 45 blocks, each waiting only for the rows it reads
    monkeypatch.setattr(datasets, "_CHUNK_BYTES", 8 * 64 * 100)
    test_build_bytes_pinned(kind)


def test_threaded_builds_at_once_under_fast_switching(helper_thread, monkeypatch):
    # four builds and their four helpers on two cores, switching every
    # microsecond: a block finished before it is drawn, or a lost handoff,
    # changes the bytes or hangs a build
    monkeypatch.setattr(datasets, "_CHUNK_BYTES", 8 * 64 * 20)
    passed = []

    def build(kind):
        test_build_bytes_pinned(kind)
        passed.append(kind)

    builds = [threading.Thread(target=build, args=(kind,), daemon=True)
              for kind in sorted(BUILD_9000x64)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in builds:
            thread.start()
        for thread in builds:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in builds)
    assert sorted(passed) == sorted(BUILD_9000x64)


def test_threaded_build_holds_no_second_copy_of_the_features(helper_thread):
    test_build_holds_no_second_copy_of_the_features()


@settings(max_examples=60, deadline=None)
@given(classes=st.integers(2, 6), dim=st.integers(2, 24), train_extra=st.integers(0, 200),
       test_extra=st.integers(0, 60), kind=st.sampled_from(CORRUPTION_KINDS),
       fraction=st.floats(0.0, 1.0), seed=st.integers(0, 2**32), chunk_bytes=st.integers(1, 1 << 13))
def test_threaded_build_equals_the_inline_build(classes, dim, train_extra, test_extra, kind,
                                                fraction, seed, chunk_bytes):
    spec = CorruptionSpec(kind, 0.0 if kind is CorruptionKind.NONE else fraction, seed + 1)
    args = (classes + train_extra, classes + test_extra, classes, dim, seed, 1.5, spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(datasets, "_CHUNK_BYTES", chunk_bytes)
        inline = generate_synthetic_pair(*args)
        patch.setattr(datasets, "_THREAD_BYTES", 0)
        threaded = generate_synthetic_pair(*args)
    for a, b in zip(inline, threaded):
        for field in ("features", "labels", "kind_codes"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field


def spy_on_draws(monkeypatch, seed, delay=0.0, fail_at=None):
    """Route np.random.default_rng(seed) through a generator whose
    standard_normal sleeps `delay` s, then draws and records how many rows it
    filled; its draw numbered `fail_at` (from 0) raises FloatingPointError
    after the sleep instead.  Other seeds get plain generators."""
    make, filled = np.random.default_rng, []

    class Spy:
        def __init__(self):
            self.rng = make(seed)

        def __getattr__(self, name):
            return getattr(self.rng, name)

        def standard_normal(self, out):
            time.sleep(delay)
            if len(filled) == fail_at:
                raise FloatingPointError("draw failed")
            self.rng.standard_normal(out=out)
            filled.append(len(out))

    monkeypatch.setattr(np.random, "default_rng",
                        lambda s: Spy() if s == seed else make(s))
    return filled


def test_a_failure_on_the_calling_side_stops_the_helper_early(helper_thread, monkeypatch):
    # 100 blocks of 10 ms would take the helper a second to draw in full
    monkeypatch.setattr(datasets, "_CHUNK_BYTES", 8 * 64 * 100)
    filled = spy_on_draws(monkeypatch, seed=4, delay=0.01)
    failure = OverflowError("no permutation")

    def make_task_permutation(feature_dim, seed):
        raise failure

    monkeypatch.setattr(datasets, "make_task_permutation", make_task_permutation)
    with pytest.raises(OverflowError) as raised:
        _build(9000, 1000, 64, "shuffled_pixels")
    assert raised.value is failure
    assert sum(filled) < 10000, sum(filled)


def test_a_failed_draw_reaches_the_caller(helper_thread, monkeypatch):
    # the caller is waiting for the fourth block when its draw fails
    monkeypatch.setattr(datasets, "_CHUNK_BYTES", 8 * 64 * 100)
    filled = spy_on_draws(monkeypatch, seed=4, delay=0.05, fail_at=3)
    raised = []

    def build():
        try:
            _build(9000, 1000, 64, "gaussian")
        except FloatingPointError as exc:
            raised.append(exc)

    caller = threading.Thread(target=build, daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive(), "the build waits on a block that failed to draw"
    assert [str(exc) for exc in raised] == ["draw failed"]
    assert filled == [100] * 3


def test_apply_corruption_leaves_its_input_untouched():
    ds = synthetic(300, 4, 16, seed=2)
    before = [a.copy() for a in (ds.features, ds.labels, ds.kind_codes)]
    for kind in ("random_label", "shuffled_pixels", "gaussian"):
        out = apply_corruption(ds, CorruptionSpec(kind=kind, fraction=0.5, seed=3))
        assert out.corrupted_mask.sum() == 150
    for array, copy in zip((ds.features, ds.labels, ds.kind_codes), before):
        assert np.array_equal(array, copy)

