"""Datasets and persistence.

Covers the synthetic 2D Gaussian-mixture benchmark (with its analytic
positive density, which the grid oracle integrates exactly), the IDX image
container used by MNIST-style files, pixel normalization, deterministic
splits, and the on-disk pseudo-negative store.
"""

import functools
import gzip
import math
import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import tensor as T

Array = np.ndarray

class DataError(Exception):
    pass


class IdxFormatError(DataError):
    pass


class IdxMagicError(IdxFormatError):
    pass


class IdxTruncatedError(IdxFormatError):
    pass


class IdxCountMismatchError(IdxFormatError):
    pass


class StoreFormatError(DataError):
    pass


class StoreVersionError(StoreFormatError):
    pass


# ---------------------------------------------------------------------------
# labeled datasets
# ---------------------------------------------------------------------------

@dataclass
class LabeledDataset:
    """Samples with integer class labels 0..class_count-1. A binary task's
    positive class is 1, the paper's y = +1. Samples are float64, except raw
    uint8 pixels, which are kept as they are until `normalize`."""

    samples: Array
    labels: Array
    class_count: int

    def __post_init__(self):
        raw = np.asarray(self.samples).dtype == np.uint8
        self.samples = np.ascontiguousarray(self.samples, dtype=np.uint8 if raw else np.float64)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if self.samples.shape[0] != self.labels.shape[0]:
            raise DataError(f"{self.samples.shape[0]} samples vs "
                            f"{self.labels.shape[0]} labels")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
            raise DataError(f"labels outside 0..{self.class_count - 1}")

    def __len__(self) -> int:
        return self.samples.shape[0]

    def subset(self, indices) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=np.intp)
        return LabeledDataset(self.samples[idx], self.labels[idx], self.class_count)


def split_dataset(ds: LabeledDataset, first: int, seed: int):
    """Disjoint seeded-shuffle split: (`first` samples, the rest)."""
    # entropy path [seed, 100] keeps split draws clear of trainer streams
    order = np.random.default_rng(np.random.SeedSequence([seed, 100])).permutation(len(ds))
    return ds.subset(order[:first]), ds.subset(order[first:])


def stratified_subset(ds: LabeledDataset, total: int, seed: int) -> LabeledDataset:
    """Class-balanced subset of the requested size (as even as labels allow)."""
    if total > len(ds):
        raise DataError(f"requested {total} of {len(ds)} samples")
    gen = np.random.default_rng(np.random.SeedSequence([seed, 101]))
    # labels are non-negative ints; np.unique would import numpy.ma
    classes = np.flatnonzero(np.bincount(ds.labels))
    base, extra = divmod(total, len(classes))
    chosen = []
    for i, cls in enumerate(classes):
        pool = np.flatnonzero(ds.labels == cls)
        want = base + (1 if i < extra else 0)
        if want > pool.size:
            raise DataError(f"class {cls} has only {pool.size} samples, need {want}")
        chosen.append(gen.choice(pool, size=want, replace=False))
    idx = np.concatenate(chosen)
    return ds.subset(idx[gen.permutation(idx.size)])


# ---------------------------------------------------------------------------
# synthetic 2D benchmark
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticSpec:
    positive_means: tuple
    positive_covs: tuple
    negative_means: tuple
    negative_covs: tuple
    n_positive: int
    n_negative: int

    def __post_init__(self):
        for cov in tuple(self.positive_covs) + tuple(self.negative_covs):
            try:
                np.linalg.cholesky(np.asarray(cov, dtype=np.float64))
            except np.linalg.LinAlgError:
                raise DataError(f"covariance {cov} is not positive-definite") from None


class MixtureDensity:
    """Analytic Gaussian-mixture density over R^2 with fixed weights; a
    component of weight 0 adds exactly 0, so it is left out, not taken as log(0)."""

    def __init__(self, means, covs, weights):
        weights = np.asarray(weights, dtype=np.float64)
        total = weights.sum()
        if not (math.isfinite(total) and total > 0):
            raise DataError(f"mixture weights {weights.tolist()} do not sum "
                            "to a positive finite number")
        kept = weights != 0
        self.means = np.asarray(means, dtype=np.float64)[kept]
        self.covs = np.asarray(covs, dtype=np.float64)[kept]
        self.weights = weights[kept] / total
        self._inv = np.stack([np.linalg.inv(c) for c in self.covs])
        dim = self.means.shape[1]
        dets = np.array([np.linalg.det(c) for c in self.covs])
        self._log_norm = -0.5 * (dim * np.log(2 * np.pi) + np.log(dets))

    def log_pdf(self, points) -> Array:
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        terms = np.empty((len(self.weights), pts.shape[0]))
        for i in range(len(self.weights)):
            d = pts - self.means[i]
            quad = np.einsum("nj,jk,nk->n", d, self._inv[i], d)
            terms[i] = np.log(self.weights[i]) + self._log_norm[i] - 0.5 * quad
        m = terms.max(axis=0)
        return m + np.log(np.exp(terms - m).sum(axis=0))


def _component_counts(total: int, k: int) -> list[int]:
    base, extra = divmod(total, k)
    return [base + (1 if i < extra else 0) for i in range(k)]


def gen_synthetic_2d(spec: SyntheticSpec, rng: np.random.Generator) -> LabeledDataset:
    """Draw the two-class 2D benchmark, positives labeled 1 and negatives 0.
    Its analytic positive density is `positive_density(spec)`."""
    samples, labels = [], []
    for means, covs, total, label in (
            (spec.positive_means, spec.positive_covs, spec.n_positive, 1),
            (spec.negative_means, spec.negative_covs, spec.n_negative, 0)):
        counts = _component_counts(total, len(means))
        for mean, cov, count in zip(means, covs, counts):
            chol = np.linalg.cholesky(np.asarray(cov, dtype=np.float64))
            z = rng.standard_normal((count, 2))
            samples.append(np.asarray(mean, dtype=np.float64) + z @ chol.T)
            labels.append(np.full(count, label, dtype=np.int64))
    return LabeledDataset(np.concatenate(samples), np.concatenate(labels), 2)


def positive_density(spec: SyntheticSpec) -> MixtureDensity:
    """Analytic p+ of `spec`, each weight its component's share of
    n_positive; DataError for a spec with no positives."""
    counts = _component_counts(spec.n_positive, len(spec.positive_means))
    return MixtureDensity(spec.positive_means, spec.positive_covs, counts)


def default_benchmark_spec(n_positive: int = 200, n_negative: int = 200) -> SyntheticSpec:
    """Two positive blobs in the middle, four negative blobs flanking them."""
    pc = ((0.09, 0.0), (0.0, 0.09))
    nc = ((0.0625, 0.0), (0.0, 0.0625))
    return SyntheticSpec(
        positive_means=((-0.6, 0.0), (0.6, 0.0)),
        positive_covs=(pc, pc),
        negative_means=((0.0, 1.3), (0.0, -1.3), (-1.7, 0.0), (1.7, 0.0)),
        negative_covs=(nc, nc, nc, nc),
        n_positive=n_positive,
        n_negative=n_negative,
    )


# ---------------------------------------------------------------------------
# IDX container (big-endian magic + dims, then unsigned bytes)
# ---------------------------------------------------------------------------

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


def _open_maybe_gzip(path):
    with open(path, "rb") as probe:
        head = probe.read(2)
    if head == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


IDX_GZIP_CHUNK = 4 << 20


def read_exact(fh, n: int, what: str, path, error) -> bytes:
    """The next n bytes of an outside file, or `error` naming the file. No
    header field can ask for more memory than the file holds: a plain file
    is checked against the bytes left (model shape fields are signed, so n
    may be negative), and a gzip stream, which has no size, is read in
    chunks. A garbled gzip stream, only ever an IDX file, is an IdxFormatError."""
    if isinstance(fh, gzip.GzipFile):
        data = bytearray()
        try:
            while len(data) < n and (chunk := fh.read(min(n - len(data), IDX_GZIP_CHUNK))):
                data += chunk
            # after a file's last block this reaches the trailer, whose CRC
            # and length are checked only there
            fh.peek(1)
        except EOFError as exc:
            raise error(f"{path}: truncated {what}") from exc
        except (gzip.BadGzipFile, zlib.error) as exc:
            raise IdxFormatError(f"{path}: corrupt gzip stream while reading {what} "
                                 f"({exc})") from exc
        if len(data) != n:
            raise error(f"{path}: truncated {what}")
        return data
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if not 0 <= n <= left:
        raise error(f"{path}: truncated {what}: needs {n} bytes, {left} left")
    return fh.read(n)


def load_idx(images_path, labels_path) -> LabeledDataset:
    """Read an IDX image/label file pair into a (n,1,h,w) dataset of raw
    uint8 pixels."""
    with _open_maybe_gzip(images_path) as fh:
        magic, count, rows, cols = struct.unpack(
            ">IIII", read_exact(fh, 16, "image header", images_path, IdxTruncatedError))
        if magic != IDX_IMAGES_MAGIC:
            raise IdxMagicError(f"{images_path}: magic {magic:#010x}, "
                                f"expected {IDX_IMAGES_MAGIC:#010x}")
        raw = read_exact(fh, count * rows * cols, "pixels", images_path, IdxTruncatedError)
        images = np.frombuffer(raw, dtype=np.uint8).reshape(count, 1, rows, cols)
    with _open_maybe_gzip(labels_path) as fh:
        magic, n_labels = struct.unpack(
            ">II", read_exact(fh, 8, "label header", labels_path, IdxTruncatedError))
        if magic != IDX_LABELS_MAGIC:
            raise IdxMagicError(f"{labels_path}: magic {magic:#010x}, "
                                f"expected {IDX_LABELS_MAGIC:#010x}")
        labels = np.frombuffer(read_exact(fh, n_labels, "labels", labels_path,
                                          IdxTruncatedError), dtype=np.uint8)
    if count != n_labels:
        raise IdxCountMismatchError(
            f"{count} images in {images_path} vs {n_labels} labels in {labels_path}")
    n_classes = int(labels.max()) + 1 if labels.size else 0
    return LabeledDataset(images, labels, n_classes)


MNIST_STEMS = {
    "train_images": ("train-images-idx3-ubyte", "train-images.idx3-ubyte"),
    "train_labels": ("train-labels-idx1-ubyte", "train-labels.idx1-ubyte"),
    "test_images": ("t10k-images-idx3-ubyte", "t10k-images.idx3-ubyte"),
    "test_labels": ("t10k-labels-idx1-ubyte", "t10k-labels.idx1-ubyte"),
}


def default_mnist_dir() -> Path:
    return Path(os.environ.get("ICNET_MNIST_DIR", "data/mnist"))


def find_mnist_file(root, key: str) -> Path | None:
    for stem in MNIST_STEMS[key]:
        for name in (stem, stem + ".gz"):
            candidate = Path(root) / name
            if candidate.exists():
                return candidate
    return None


def mnist_available(root=None) -> bool:
    root = default_mnist_dir() if root is None else root
    return all(find_mnist_file(root, k) is not None for k in MNIST_STEMS)


def mnist_files(root, split: str) -> list[Path]:
    """The image and label file of `split`, "train" or "test", under root."""
    paths = []
    for key in (f"{split}_images", f"{split}_labels"):
        paths.append(find_mnist_file(root, key))
        if paths[-1] is None:
            raise DataError(f"missing {MNIST_STEMS[key][0]}[.gz] under {root}; "
                            "set ICNET_MNIST_DIR or fetch the files (see README)")
    return paths


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def normalize(ds: LabeledDataset) -> LabeledDataset:
    """Map raw pixels [0,255] to [-1,1], in one float64 copy of the samples."""
    samples = ds.samples / 127.5
    samples -= 1.0
    return LabeledDataset(samples, ds.labels, ds.class_count)


def denormalize(samples: Array) -> Array:
    """Map [-1,1] back to raw pixels [0,255], inverting `normalize`."""
    return (np.asarray(samples) + 1.0) * 127.5


# ---------------------------------------------------------------------------
# pseudo-negative store
# ---------------------------------------------------------------------------

@dataclass
class PseudoNegativeStore:
    """Append-only archive of synthesized samples across rounds: row i of
    `samples` was made in round `rounds[i]` for class `tags[i]`, the head
    column its chain ascended: 0, the paper's y = -1, on a binary head."""

    samples: Array
    rounds: Array = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    tags: Array = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    def __len__(self) -> int:
        return len(self.rounds)

    def add_batch(self, round_index: int, tags, samples: Array) -> None:
        """Append `samples`, made in round `round_index`; `tags` is one class
        tag for every row or one per row."""
        samples = np.asarray(samples, dtype=np.float64)
        n = len(samples)
        self.samples = np.concatenate([self.samples, samples])
        self.rounds = np.concatenate([self.rounds, np.full(n, round_index, dtype=np.int64)])
        self.tags = np.concatenate([self.tags, np.broadcast_to(tags, (n,)).astype(np.int64)])

    def samples_for(self) -> Array:
        # every sample, in the order added; kept because bench/worker.py
        # times calls to it by name
        return self.samples


STORE_MAGIC = b"ICNPN1\n"
STORE_VERSION = 2


def save_store(store: PseudoNegativeStore, path) -> None:
    """Magic, then version, row count and sample shape, then every round
    and every tag (int32) and every sample (f8), all little-endian."""
    shape = store.samples.shape[1:]
    with open(path, "wb") as fh:
        fh.write(STORE_MAGIC)
        fh.write(struct.pack(f"<IQI{len(shape)}I", STORE_VERSION, len(store), len(shape), *shape))
        for arr, dtype in ((store.rounds, "<i4"), (store.tags, "<i4"), (store.samples, "<f8")):
            fh.write(arr.astype(dtype, copy=False).tobytes())


def load_store(path) -> PseudoNegativeStore:
    """Read a store file; a bad magic, a cut or oversized field, a NaN or
    Inf sample value or bytes after the samples raise StoreFormatError, and
    another format version (1 included) StoreVersionError. Every counted
    read goes through `read_exact`."""
    with open(path, "rb") as fh:
        read = functools.partial(read_exact, fh, path=path, error=StoreFormatError)
        if fh.read(len(STORE_MAGIC)) != STORE_MAGIC:
            raise StoreFormatError(f"{path}: bad magic, not a pseudo-negative store")
        version, count = struct.unpack("<IQ", read(12, "store header"))
        if version != STORE_VERSION:
            raise StoreVersionError(f"{path}: store version {version}, "
                                    f"this build reads {STORE_VERSION}")
        ndim = struct.unpack("<I", read(4, "sample shape"))[0]
        shape = struct.unpack(f"<{ndim}I", read(4 * ndim, "sample shape"))
        rounds = np.frombuffer(read(4 * count, "rounds"), dtype="<i4").astype(np.int64)
        tags = np.frombuffer(read(4 * count, "tags"), dtype="<i4").astype(np.int64)
        samples = np.frombuffer(read(8 * count * math.prod(shape), "samples"), dtype="<f8")
        samples = samples.astype(np.float64).reshape((count,) + shape)
        if not T.all_finite(samples):
            raise StoreFormatError(f"{path}: a sample of shape {shape} holds NaN or Inf")
        if fh.read(1):
            raise StoreFormatError(f"{path}: bytes after the last entry")
        return PseudoNegativeStore(samples, rounds, tags)
