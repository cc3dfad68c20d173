"""Classifier heads over the shared convolutional feature extractor.

A binary classifier is a feature stack w0 plus one linear head w1; its logit
w1 . phi(x; w0) is the log ratio q(+1|x)/q(-1|x) under the sigmoid model.
The multi-class variant shares one feature stack across K linear heads; the
one-vs-all variant keeps K fully independent binary classifiers. Bias terms
ride along with every head.
"""

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T

Array = np.ndarray


class ModelFormatError(Exception):
    pass


@dataclass
class BinaryClassifier:
    spec: list[T.LayerSpec]
    feature_params: list[Array]
    head_w: Array  # (width, 1)
    head_b: Array  # (1,)

    @property
    def width(self) -> int:
        return self.head_w.shape[0]

    def all_params(self) -> list[Array]:
        return self.feature_params + [self.head_w, self.head_b]

    def set_params(self, params: list[Array]) -> None:
        self.feature_params = list(params[:-2])
        self.head_w, self.head_b = params[-2], params[-1]


@dataclass
class MulticlassClassifier:
    spec: list[T.LayerSpec]
    feature_params: list[Array]
    head_w: Array  # (width, K)
    head_b: Array  # (K,)

    @property
    def n_classes(self) -> int:
        return self.head_w.shape[1]

    def all_params(self) -> list[Array]:
        return self.feature_params + [self.head_w, self.head_b]

    def set_params(self, params: list[Array]) -> None:
        self.feature_params = list(params[:-2])
        self.head_w, self.head_b = params[-2], params[-1]


@dataclass
class OneVsAllEnsemble:
    """K independent binary classifiers, one per class, each with its own
    feature extractor."""

    members: list[BinaryClassifier] = field(default_factory=list)

    @property
    def n_classes(self) -> int:
        return len(self.members)


def init_binary(spec: list[T.LayerSpec], input_shape: tuple,
                rng: np.random.Generator) -> BinaryClassifier:
    params = T.init_layer_params(spec, rng)
    width = T.feature_width(spec, input_shape)
    head_w = rng.normal(0.0, 1.0 / np.sqrt(width), size=(width, 1))
    return BinaryClassifier(list(spec), params, head_w, np.zeros(1))


def init_multiclass(spec: list[T.LayerSpec], input_shape: tuple, n_classes: int,
                    rng: np.random.Generator) -> MulticlassClassifier:
    params = T.init_layer_params(spec, rng)
    width = T.feature_width(spec, input_shape)
    head_w = rng.normal(0.0, 1.0 / np.sqrt(width), size=(width, n_classes))
    return MulticlassClassifier(list(spec), params, head_w, np.zeros(n_classes))


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------

def features(c: BinaryClassifier | MulticlassClassifier, x) -> Array:
    return T.forward_features(c.feature_params, c.spec, x)


def logit_binary(c: BinaryClassifier, x) -> Array:
    """Per-sample logit w1 . phi(x; w0), shape (n,)."""
    return (features(c, x) @ c.head_w + c.head_b)[:, 0]


def prob_positive(c: BinaryClassifier, x) -> Array:
    return T.sigmoid_value(logit_binary(c, x))


def class_logits(c: MulticlassClassifier, x) -> Array:
    return features(c, x) @ c.head_w + c.head_b


def class_probs_softmax(c: MulticlassClassifier, x) -> Array:
    return T.softmax_value(class_logits(c, x))


def ensemble_logits(e: OneVsAllEnsemble, x) -> Array:
    """Per-class logits, each from that member's own feature extractor."""
    return np.stack([logit_binary(m, x) for m in e.members], axis=1)


def predict_label(model, x) -> Array:
    """argmax over per-class scores; ties go to the lowest class index."""
    if isinstance(model, MulticlassClassifier):
        scores = class_logits(model, x)
    elif isinstance(model, OneVsAllEnsemble):
        scores = ensemble_logits(model, x)
    else:
        raise TypeError(f"cannot predict classes with {type(model).__name__}")
    return np.argmax(scores, axis=1)


# ---------------------------------------------------------------------------
# graph builders shared by the trainer and the sampler
# ---------------------------------------------------------------------------

def logit_sum_graph(c, x, class_index: int | Array | None = None,
                    trainable_params: bool = False):
    """Graph for the summed per-sample logit of each sample's head.

    Per-sample chains are independent, so the input gradient of the batch sum
    is exactly the per-sample logit gradient. A multi-class classifier takes
    `class_index` as one int for every row or one int per row; the full head
    is evaluated and each row's logit selected, so chains of every class share
    one graph. With trainable_params=False the parameters enter as constants
    and backward skips their gradients, which is what synthesis wants.
    Returns (record, scalar_node, logits (n,)).
    """
    record = T.ComputationRecord()
    x_node = record.leaf(x, kind="input")
    kind = "param" if trainable_params else "const"
    p_nodes = [record.leaf(p, kind=kind) for p in c.feature_params]
    feats = T.build_feature_graph(record, c.spec, p_nodes, x_node)
    w_node = record.leaf(c.head_w, kind=kind)
    b_node = record.leaf(c.head_b, kind=kind)
    logits = record.affine(feats, w_node, b_node)
    if isinstance(c, BinaryClassifier):
        scalar = record.sum(logits)
        return record, scalar, logits.value[:, 0]
    if class_index is None:
        raise ValueError("multi-class synthesis needs a class index")
    picked = record.select(logits, np.broadcast_to(class_index, (logits.shape[0],)))
    return record, record.sum(picked), picked.value


# ---------------------------------------------------------------------------
# serialization: magic, JSON descriptor line, tensors as little-endian f64
# ---------------------------------------------------------------------------

MODEL_MAGIC = b"ICNETM1\n"


def _spec_descriptor(spec: list[T.LayerSpec]) -> list[list]:
    return [[l.kind, l.in_width, l.out_width, l.slope, l.pad] for l in spec]


def _spec_from_descriptor(desc: list[list]) -> list[T.LayerSpec]:
    return [T.LayerSpec(kind, int(iw), int(ow), float(slope), int(pad))
            for kind, iw, ow, slope, pad in desc]


def _write_tensor(fh, arr: Array) -> None:
    """Rank, shape, then the values in logical C order, whatever the
    array's memory layout (tobytes copies a channel-last kernel only once)."""
    fh.write(struct.pack("<q", arr.ndim))
    for d in arr.shape:
        fh.write(struct.pack("<q", d))
    fh.write(arr.astype("<f8", copy=False).tobytes())


def _read_tensor(fh, path) -> Array:
    raw = fh.read(8)
    if len(raw) != 8:
        raise ModelFormatError(f"{path}: truncated tensor header")
    ndim = struct.unpack("<q", raw)[0]
    if not 0 <= ndim <= 8:
        raise ModelFormatError(f"{path}: implausible tensor rank {ndim}")
    raw = fh.read(8 * ndim)
    if len(raw) != 8 * ndim:
        raise ModelFormatError(f"{path}: truncated tensor shape")
    shape = struct.unpack(f"<{ndim}q", raw)
    count = int(np.prod(shape)) if shape else 1
    data = fh.read(count * 8)
    if len(data) != count * 8:
        raise ModelFormatError(f"{path}: truncated tensor data")
    # a conv kernel is laid out channel-last once, here, not in every conv call
    return T.channel_last(np.frombuffer(data, dtype="<f8").astype(np.float64).reshape(shape))


def save_model(path, model) -> None:
    if isinstance(model, BinaryClassifier):
        kind, tensors = "binary", model.all_params()
        extra = {}
    elif isinstance(model, MulticlassClassifier):
        kind, tensors = "multiclass", model.all_params()
        extra = {"classes": model.n_classes}
    elif isinstance(model, OneVsAllEnsemble):
        kind = "one_vs_all"
        tensors = [t for m in model.members for t in m.all_params()]
        extra = {"classes": model.n_classes}
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    spec = model.spec if kind != "one_vs_all" else model.members[0].spec
    header = {"kind": kind, "spec": _spec_descriptor(spec), **extra}
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode())
        for t in tensors:
            _write_tensor(fh, t)


def load_model(path):
    with open(path, "rb") as fh:
        if fh.read(len(MODEL_MAGIC)) != MODEL_MAGIC:
            raise ModelFormatError(f"{path}: bad magic, not a model file")
        # a cut or garbled header line: JSON and UTF-8 errors are ValueErrors
        try:
            header = json.loads(fh.readline().decode())
            spec = _spec_from_descriptor(header["spec"])
            kind = header["kind"]
            classes = int(header.get("classes", 0))
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelFormatError(f"{path}: malformed header: {exc!r}") from None
        n_feature = 2 * sum(1 for l in spec if l.kind in ("dense", "conv"))

        def read_member() -> BinaryClassifier:
            tensors = [_read_tensor(fh, path) for _ in range(n_feature + 2)]
            return BinaryClassifier(spec, tensors[:n_feature], tensors[-2], tensors[-1])

        if kind == "binary":
            return read_member()
        if kind == "multiclass":
            tensors = [_read_tensor(fh, path) for _ in range(n_feature + 2)]
            return MulticlassClassifier(spec, tensors[:n_feature],
                                        tensors[-2], tensors[-1])
        if kind == "one_vs_all":
            return OneVsAllEnsemble([read_member() for _ in range(classes)])
        raise ModelFormatError(f"{path}: unknown model kind {kind!r}")
