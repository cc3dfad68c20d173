"""Dataset generation, IDX parsing, normalization, splits and the
pseudo-negative store."""

import gzip
import math
import re
import struct

import numpy as np
import pytest

from icnet import data as D
from icnet.seeding import rng


def write_idx_fixture(images_path, labels_path, pixels, labels):
    """Independent IDX writer used only by tests: big-endian headers, then
    raw unsigned bytes."""
    arr = np.asarray(pixels, dtype=np.uint8)
    n, h, w = arr.shape
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, n, h, w))
        fh.write(arr.tobytes())
    lab = np.asarray(labels, dtype=np.uint8)
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, lab.size))
        fh.write(lab.tobytes())


class TestLabeledDataset:
    @pytest.mark.parametrize("labels, count", [([1, -1, 1], 2), ([0, 2, 1], 2), ([-1, 0], 10)],
                             ids=["plus-minus-one", "past-class-count", "negative"])
    def test_labels_outside_class_indices_rejected(self, labels, count):
        with pytest.raises(D.DataError, match=f"labels outside 0..{count - 1}"):
            D.LabeledDataset(np.zeros((len(labels), 2)), np.array(labels), count)


class TestSynthetic2D:
    def test_near_zero_covariance_collapses_to_means(self):
        eps = ((1e-30, 0.0), (0.0, 1e-30))
        spec = D.SyntheticSpec(
            positive_means=((1.0, 2.0),), positive_covs=(eps,),
            negative_means=((-3.0, 0.5),), negative_covs=(eps,),
            n_positive=5, n_negative=5)
        ds = D.gen_synthetic_2d(spec, rng(0, 6))
        np.testing.assert_allclose(ds.samples[ds.labels == 1], [[1.0, 2.0]] * 5,
                                   atol=1e-12)
        np.testing.assert_allclose(ds.samples[ds.labels == 0], [[-3.0, 0.5]] * 5,
                                   atol=1e-12)

    def test_single_component_mean_within_3_sigma(self):
        n = 10_000
        sigma = 0.4
        spec = D.SyntheticSpec(
            positive_means=((0.7, -0.2),),
            positive_covs=(((sigma ** 2, 0.0), (0.0, sigma ** 2)),),
            negative_means=((5.0, 5.0),),
            negative_covs=(((0.01, 0.0), (0.0, 0.01)),),
            n_positive=n, n_negative=1)
        ds = D.gen_synthetic_2d(spec, rng(1, 6))
        mean = ds.samples[ds.labels == 1].mean(axis=0)
        bound = 3 * sigma / math.sqrt(n)
        assert abs(mean[0] - 0.7) < bound and abs(mean[1] + 0.2) < bound

    def test_identical_seed_identical_dataset(self):
        spec = D.default_benchmark_spec()
        a = D.gen_synthetic_2d(spec, rng(2, 6))
        b = D.gen_synthetic_2d(spec, rng(2, 6))
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.labels, b.labels)

    def test_non_positive_definite_cov_rejected(self):
        with pytest.raises(D.DataError, match="positive-definite"):
            D.SyntheticSpec(
                positive_means=((0.0, 0.0),),
                positive_covs=(((1.0, 2.0), (2.0, 1.0)),),
                negative_means=((1.0, 1.0),),
                negative_covs=(((1.0, 0.0), (0.0, 1.0)),),
                n_positive=1, n_negative=1)

    def test_density_matches_hand_gaussian_formula(self):
        # single standard normal: pdf(0,0) = 1/(2*pi)
        density = D.MixtureDensity(means=((0.0, 0.0),),
                                   covs=(((1.0, 0.0), (0.0, 1.0)),),
                                   weights=(1.0,))
        np.testing.assert_allclose(np.exp(density.log_pdf([[0.0, 0.0]])),
                                   [1.0 / (2 * math.pi)], rtol=1e-14)

    def test_density_matches_independent_quadratic_form(self):
        means = ((-0.6, 0.0), (0.6, 0.0))
        covs = (((0.09, 0.01), (0.01, 0.09)), ((0.04, 0.0), (0.0, 0.16)))
        weights = (0.3, 0.7)
        density = D.MixtureDensity(means, covs, weights)
        pts = rng(3, 6).standard_normal((20, 2))
        # second route: per-point scalar loop with explicit 2x2 algebra
        want = np.zeros(20)
        for wgt, mu, cov in zip(weights, means, covs):
            (a, b), (c, d) = cov
            det = a * d - b * c
            for i, (px, py) in enumerate(pts):
                dx, dy = px - mu[0], py - mu[1]
                quad = (d * dx * dx - (b + c) * dx * dy + a * dy * dy) / det
                want[i] += wgt * math.exp(-0.5 * quad) / (2 * math.pi * math.sqrt(det))
        np.testing.assert_allclose(np.exp(density.log_pdf(pts)), want, rtol=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_zero_weight_component_adds_nothing(self):
        # n_positive = 1 leaves a positive component weight 0: the density
        # is that of the mixture without it, bit for bit, and takes no log(0)
        means = ((-0.6, 0.0), (0.0, 1.0), (0.6, 0.0))
        covs = (((0.09, 0.01), (0.01, 0.09)), ((1.0, 0.0), (0.0, 1.0)),
                ((0.04, 0.0), (0.0, 0.16)))
        pts = rng(7, 6).standard_normal((50, 2))
        got = D.MixtureDensity(means, covs, (0.3, 0.0, 0.7)).log_pdf(pts)
        want = D.MixtureDensity(means[::2], covs[::2], (0.3, 0.7)).log_pdf(pts)
        assert got.tobytes() == want.tobytes()
        spec = D.default_benchmark_spec(1, 5)
        alone = D.MixtureDensity(spec.positive_means[:1], spec.positive_covs[:1], (1.0,))
        assert (D.positive_density(spec).log_pdf(pts).tobytes()
                == alone.log_pdf(pts).tobytes())

    def test_benchmark_counts_and_labels(self):
        spec = D.default_benchmark_spec(201, 99)
        ds, density = D.gen_synthetic_2d(spec, rng(4, 6)), D.positive_density(spec)
        assert int((ds.labels == 1).sum()) == 201
        assert int((ds.labels == 0).sum()) == 99
        total = np.exp(density.log_pdf(rng(5, 6).standard_normal((4, 2))))
        assert np.all(total > 0)

    @pytest.mark.filterwarnings("error")
    def test_no_positives_draws_without_warning_and_has_no_density(self):
        # a test set of negatives only (test_positive = 0): drawing it builds
        # no density, and asking for its p+ is an error, not NaN weights
        spec = D.default_benchmark_spec(0, 5)
        ds = D.gen_synthetic_2d(spec, rng(6, 6))
        assert ds.labels.tolist() == [0] * 5
        with pytest.raises(D.DataError, match="do not sum to a positive finite number"):
            D.positive_density(spec)

    @pytest.mark.parametrize("weights", [[0.0, 0.0], [1.0, -1.0], [1.0, math.inf]])
    def test_mixture_weights_must_sum_to_positive_finite(self, weights):
        cov = ((1.0, 0.0), (0.0, 1.0))
        with pytest.raises(D.DataError, match="do not sum to a positive finite number"):
            D.MixtureDensity(((0.0, 0.0), (1.0, 1.0)), (cov, cov), weights)


class TestIdx:
    def test_fixture_roundtrip_exact(self, tmp_path):
        pixels = [[[0, 255], [17, 128]], [[1, 2], [3, 4]]]
        write_idx_fixture(tmp_path / "img", tmp_path / "lab", pixels, [7, 2])
        ds = D.load_idx(tmp_path / "img", tmp_path / "lab")
        assert ds.samples.shape == (2, 1, 2, 2)
        np.testing.assert_array_equal(ds.samples[0, 0], [[0.0, 255.0], [17.0, 128.0]])
        np.testing.assert_array_equal(ds.samples[1, 0], [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(ds.labels, [7, 2])

    def test_gzipped_fixture_loads(self, tmp_path):
        write_idx_fixture(tmp_path / "img", tmp_path / "lab", [[[9, 9], [9, 9]]], [3])
        for name in ("img", "lab"):
            raw = (tmp_path / name).read_bytes()
            with gzip.open(tmp_path / f"{name}.gz", "wb") as fh:
                fh.write(raw)
        ds = D.load_idx(tmp_path / "img.gz", tmp_path / "lab.gz")
        np.testing.assert_array_equal(ds.labels, [3])

    def test_zero_items_gives_empty_dataset(self, tmp_path):
        write_idx_fixture(tmp_path / "img", tmp_path / "lab",
                          np.zeros((0, 2, 2), dtype=np.uint8), [])
        ds = D.load_idx(tmp_path / "img", tmp_path / "lab")
        assert len(ds) == 0

    def test_count_mismatch_error(self, tmp_path):
        write_idx_fixture(tmp_path / "img", tmp_path / "lab",
                          [[[1, 1], [1, 1]]], [1, 2])
        with pytest.raises(D.IdxCountMismatchError):
            D.load_idx(tmp_path / "img", tmp_path / "lab")

    def test_bad_magic_error(self, tmp_path):
        write_idx_fixture(tmp_path / "img", tmp_path / "lab", [[[1, 1], [1, 1]]], [1])
        data = bytearray((tmp_path / "img").read_bytes())
        data[3] = 0x99
        (tmp_path / "img").write_bytes(bytes(data))
        with pytest.raises(D.IdxMagicError):
            D.load_idx(tmp_path / "img", tmp_path / "lab")

    def test_truncated_error(self, tmp_path):
        write_idx_fixture(tmp_path / "img", tmp_path / "lab", [[[1, 1], [1, 1]]], [1])
        data = (tmp_path / "img").read_bytes()
        (tmp_path / "img").write_bytes(data[:-2])
        with pytest.raises(D.IdxTruncatedError):
            D.load_idx(tmp_path / "img", tmp_path / "lab")

    @staticmethod
    def huge_header_files(tmp_path, block):
        """A 48-byte image file whose header asks for 2**31 images of
        2**15 x 2**15 pixels, or a label file whose header asks for 2**32 - 1
        labels, beside a valid partner file."""
        write_idx_fixture(tmp_path / "img", tmp_path / "lab", [[[1, 1], [1, 1]]], [1])
        if block == "pixels":
            path = tmp_path / "img"
            path.write_bytes(struct.pack(">IIII", 0x00000803, 2 ** 31, 2 ** 15, 2 ** 15) + bytes(32))
        else:
            path = tmp_path / "lab"
            path.write_bytes(struct.pack(">II", 0x00000801, 2 ** 32 - 1) + bytes(40))
        return path

    @pytest.mark.parametrize("block", ["pixels", "labels"])
    @pytest.mark.parametrize("gzipped", [False, True], ids=["plain", "gzip"])
    def test_huge_header_count_raises_truncated(self, tmp_path, block, gzipped):
        path = self.huge_header_files(tmp_path, block)
        if gzipped:
            raw = path.read_bytes()
            with gzip.open(path, "wb") as fh:
                fh.write(raw)
        with pytest.raises(D.IdxTruncatedError, match=f"{path}: truncated {block}"):
            D.load_idx(tmp_path / "img", tmp_path / "lab")

    def test_gzip_reads_in_chunks_match_plain(self, tmp_path, monkeypatch):
        pixels = rng(8, 6).integers(0, 256, size=(5, 3, 4))
        write_idx_fixture(tmp_path / "img", tmp_path / "lab", pixels, [0, 1, 2, 3, 4])
        plain = D.load_idx(tmp_path / "img", tmp_path / "lab")
        for name in ("img", "lab"):
            with gzip.open(tmp_path / f"{name}.gz", "wb") as fh:
                fh.write((tmp_path / name).read_bytes())
        monkeypatch.setattr(D, "IDX_GZIP_CHUNK", 7)  # every block spans several chunks
        packed = D.load_idx(tmp_path / "img.gz", tmp_path / "lab.gz")
        assert packed.samples.tobytes() == plain.samples.tobytes()
        np.testing.assert_array_equal(packed.labels, plain.labels)

    @staticmethod
    def gzipped_images(tmp_path):
        """A gzipped 3-image 28x28 IDX file of seeded pixels, beside its
        plain label file; returns (image path, compressed bytes)."""
        pixels = rng(8, 7).integers(0, 256, size=(3, 28, 28))
        write_idx_fixture(tmp_path / "raw", tmp_path / "lab", pixels, [0, 1, 2])
        packed = gzip.compress((tmp_path / "raw").read_bytes(), mtime=0)
        return tmp_path / "img.gz", packed

    def test_gzip_flipped_body_byte_raises_format_error(self, tmp_path):
        path, packed = self.gzipped_images(tmp_path)
        garbled = bytearray(packed)
        garbled[len(packed) // 2] ^= 0xFF
        path.write_bytes(bytes(garbled))
        with pytest.raises(D.IdxFormatError, match=f"^{re.escape(str(path))}: corrupt gzip"):
            D.load_idx(path, tmp_path / "lab")

    def test_error_kinds_are_distinct(self):
        kinds = {D.IdxMagicError, D.IdxTruncatedError, D.IdxCountMismatchError}
        assert len(kinds) == 3
        assert all(issubclass(k, D.IdxFormatError) for k in kinds)


class TestNormalize:
    def test_anchor_points(self):
        ds = D.LabeledDataset(np.array([[0.0], [255.0], [127.5]]),
                              np.array([0, 1, 2]), 3)
        out = D.normalize(ds)
        np.testing.assert_array_equal(out.samples[:, 0], [-1.0, 1.0, 0.0])

    def test_roundtrip_within_1e12(self):
        vals = rng(6, 6).uniform(0, 255, size=(10, 1, 4, 4))
        ds = D.LabeledDataset(vals, np.zeros(10, dtype=int), 1)
        back = D.denormalize(D.normalize(ds).samples)
        np.testing.assert_allclose(back, vals, atol=1e-12)

    def test_mean_in_unit_interval(self):
        vals = rng(7, 6).uniform(0, 255, size=(50, 1, 2, 2))
        ds = D.normalize(D.LabeledDataset(vals, np.zeros(50, dtype=int), 1))
        mean = ds.samples.mean()
        assert math.isfinite(mean) and -1.0 <= mean <= 1.0


class TestSplits:
    def test_disjoint_and_covering(self):
        ds = D.LabeledDataset(np.arange(20.0).reshape(20, 1),
                              np.zeros(20, dtype=int), 1)
        parts = D.split_dataset(ds, 12, seed=9)
        assert [len(p) for p in parts] == [12, 8]
        seen = np.sort(np.concatenate([p.samples[:, 0] for p in parts]))
        np.testing.assert_array_equal(seen, np.arange(20.0))

    def test_deterministic_per_seed(self):
        ds = D.LabeledDataset(np.arange(10.0).reshape(10, 1),
                              np.zeros(10, dtype=int), 1)
        a = D.split_dataset(ds, 6, seed=3)
        b = D.split_dataset(ds, 6, seed=3)
        assert np.array_equal(a[0].samples, b[0].samples)

    def test_stratified_subset_balance(self):
        labels = np.repeat(np.arange(5), 40)
        ds = D.LabeledDataset(np.arange(200.0).reshape(200, 1), labels, 5)
        sub = D.stratified_subset(ds, 50, seed=4)
        counts = np.bincount(sub.labels, minlength=5)
        np.testing.assert_array_equal(counts, [10, 10, 10, 10, 10])


class TestStore:
    def test_empty_roundtrip(self, tmp_path):
        # an empty store keeps its sample shape, as round 0's file does
        store = D.PseudoNegativeStore(np.zeros((0, 2)))
        D.save_store(store, tmp_path / "empty.pn")
        back = D.load_store(tmp_path / "empty.pn")
        assert len(back) == 0
        assert back.samples.shape == (0, 2) and back.rounds.size == back.tags.size == 0

    def test_earlier_1d_empty_file_with_negative_tags_still_loads(self, tmp_path):
        # files written before tags were head columns: round 0's empty store
        # had 1-D samples, and a binary run tagged its rows -1
        path = tmp_path / "old.pn"
        path.write_bytes(D.STORE_MAGIC + struct.pack("<IQI", 2, 0, 0))
        assert D.load_store(path).samples.shape == (0,)
        path.write_bytes(D.STORE_MAGIC + struct.pack("<IQII", 2, 1, 1, 2)
                         + struct.pack("<2i2d", 1, -1, 0.5, 1.5))
        back = D.load_store(path)
        assert (back.rounds.tolist(), back.tags.tolist()) == ([1], [-1])
        assert back.samples.tolist() == [[0.5, 1.5]]

    def test_entries_roundtrip_bitwise_in_order(self, tmp_path):
        store = D.PseudoNegativeStore(np.zeros((0, 2)))
        gen = rng(8, 6)
        for t in range(3):
            store.add_batch(t, 0, gen.standard_normal((4, 2)))
        assert len(store) == 12
        D.save_store(store, tmp_path / "s.pn")
        back = D.load_store(tmp_path / "s.pn")
        assert len(back) == 12
        np.testing.assert_array_equal(back.rounds, np.repeat([0, 1, 2], 4))
        np.testing.assert_array_equal(back.tags, np.zeros(12))
        assert back.samples.tobytes() == store.samples.tobytes()

    def test_v2_layout_read_independently(self, tmp_path):
        # magic; version, count, sample rank and shape; int32 rounds and
        # tags; f8 samples; all little-endian
        store = D.PseudoNegativeStore(np.zeros((0, 1, 2, 3)))
        store.add_batch(3, [0, 2], np.arange(12.0).reshape(2, 1, 2, 3))
        D.save_store(store, tmp_path / "s.pn")
        data = (tmp_path / "s.pn").read_bytes()
        assert data[:7] == b"ICNPN1\n"
        assert struct.unpack_from("<IQI3I", data, 7) == (2, 2, 3, 1, 2, 3)
        assert struct.unpack_from("<4i", data, 35) == (3, 3, 0, 2)
        assert struct.unpack_from("<12d", data, 51) == tuple(np.arange(12.0))
        assert len(data) == 51 + 12 * 8

    def test_class_tags_filterable(self):
        store = D.PseudoNegativeStore(np.zeros((0, 3)))
        store.add_batch(0, 0, np.ones((2, 3)))
        store.add_batch(0, [1, 0, 1], np.zeros((3, 3)))
        np.testing.assert_array_equal(store.tags, [0, 0, 1, 0, 1])
        assert store.samples[store.tags == 0].shape == (3, 3)
        assert store.samples[store.tags == 1].shape == (2, 3)
        assert store.samples_for().shape == (5, 3)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.pn"
        path.write_bytes(D.STORE_MAGIC + struct.pack("<IQ", 99, 0))
        with pytest.raises(D.StoreVersionError):
            D.load_store(path)

    def test_version_1_file_rejected(self, tmp_path):
        # a version 1 store: per-entry round, tag, rank, shape and values
        path = tmp_path / "v1.pn"
        path.write_bytes(D.STORE_MAGIC + struct.pack("<IQ", 1, 1)
                         + struct.pack("<IiII", 1, -1, 1, 2) + struct.pack("<2d", 0.5, 1.5))
        with pytest.raises(D.StoreVersionError, match=r"v1\.pn: store version 1"):
            D.load_store(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.pn"
        path.write_bytes(b"WHATEVER" + b"\x00" * 16)
        with pytest.raises(D.StoreFormatError):
            D.load_store(path)

    def test_every_truncation_raises_typed(self, tmp_path):
        store = D.PseudoNegativeStore(np.zeros((0, 1, 2, 2)))
        store.add_batch(1, 0, rng(10, 6).standard_normal((2, 1, 2, 2)))
        store.add_batch(2, 1, rng(11, 6).standard_normal((1, 1, 2, 2)))
        path = tmp_path / "s.pn"
        D.save_store(store, path)
        data = path.read_bytes()
        for n in range(len(data)):
            path.write_bytes(data[:n])
            with pytest.raises(D.StoreFormatError):
                D.load_store(path)

    @pytest.mark.parametrize("offset, value", [(11, 2 ** 60), (23, 2 ** 31)],
                             ids=["count", "sample_shape"])
    def test_huge_header_field_rejected_before_reading(self, tmp_path, offset, value):
        # before: a sample-shape field of 2**31 raised MemoryError
        store = D.PseudoNegativeStore(np.zeros((0, 3)))
        store.add_batch(1, 0, np.ones((2, 3)))
        path = tmp_path / "huge.pn"
        D.save_store(store, path)
        data = bytearray(path.read_bytes())
        fmt = "<Q" if offset == 11 else "<I"
        struct.pack_into(fmt, data, offset, value)
        path.write_bytes(bytes(data))
        with pytest.raises(D.StoreFormatError, match=r"huge\.pn: truncated"):
            D.load_store(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_rejected_naming_the_file(self, tmp_path, value):
        store = D.PseudoNegativeStore(np.zeros((0, 2)))
        store.add_batch(1, 0, np.array([[0.5, value]]))
        path = tmp_path / "nan.pn"
        D.save_store(store, path)
        with pytest.raises(D.StoreFormatError, match=r"nan\.pn: .*NaN or Inf"):
            D.load_store(path)

    def test_bytes_after_last_entry_rejected_naming_the_file(self, tmp_path):
        store = D.PseudoNegativeStore(np.zeros((0, 2)))
        store.add_batch(1, 0, np.ones((2, 2)))
        path = tmp_path / "tail.pn"
        D.save_store(store, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(D.StoreFormatError, match=r"tail\.pn: bytes after the last entry"):
            D.load_store(path)

    def test_image_shaped_samples_roundtrip(self, tmp_path):
        store = D.PseudoNegativeStore(np.zeros((0, 1, 4, 4)))
        store.add_batch(2, 5, rng(9, 6).standard_normal((2, 1, 4, 4)))
        D.save_store(store, tmp_path / "img.pn")
        back = D.load_store(tmp_path / "img.pn")
        assert back.samples.shape == (2, 1, 4, 4)
        assert back.rounds.tolist() == [2, 2] and back.tags.tolist() == [5, 5]
        assert back.samples.tobytes() == store.samples.tobytes()
