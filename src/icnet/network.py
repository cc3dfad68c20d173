"""Classifier heads over the shared convolutional feature extractor.

A classifier is a feature stack w0 plus a linear head of K columns. With one
column it is binary: its logit w1 . phi(x; w0) is the log ratio
q(+1|x)/q(-1|x) under the sigmoid model. With K >= 2 the columns are K class
heads over the one shared stack; the one-vs-all ensemble keeps K fully
independent binary classifiers. Bias terms ride along with every head.
"""

import functools
import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T

Array = np.ndarray


class ModelFormatError(Exception):
    pass


@dataclass
class Classifier:
    """A feature stack plus one linear head of K logit columns. K = 1 is the
    binary classifier; K >= 2 is the joint softmax classifier."""

    spec: list[T.LayerSpec]
    feature_params: list[Array]
    head_w: Array  # (width, K)
    head_b: Array  # (K,)

    @property
    def width(self) -> int:
        return self.head_w.shape[0]

    @property
    def n_classes(self) -> int:
        """Head columns: the class count, or 1 for a binary classifier."""
        return self.head_w.shape[1]

    @property
    def binary(self) -> bool:
        return self.n_classes == 1

    def all_params(self) -> list[Array]:
        return self.feature_params + [self.head_w, self.head_b]

    def set_params(self, params: list[Array]) -> None:
        self.feature_params = list(params[:-2])
        self.head_w, self.head_b = params[-2], params[-1]


@dataclass
class OneVsAllEnsemble:
    """K independent binary classifiers, one per class, each with its own
    feature extractor."""

    members: list[Classifier] = field(default_factory=list)

    @property
    def n_classes(self) -> int:
        return len(self.members)


def init_multiclass(spec: list[T.LayerSpec], input_shape: tuple, n_classes: int,
                    rng: np.random.Generator) -> Classifier:
    """He-initialized stack and a (width, n_classes) head with zero biases;
    n_classes = 1 gives a binary classifier."""
    params = T.init_layer_params(spec, rng)
    width = T.feature_width(spec, input_shape)
    head_w = rng.normal(0.0, 1.0 / np.sqrt(width), size=(width, n_classes))
    c = Classifier(list(spec), params, head_w, np.zeros(n_classes))
    # checked once here, as after each SGD update and in load_model: graphs
    # built over the parameters do not rescan them
    if not all(T.all_finite(p) for p in c.all_params()):
        raise T.NonFiniteError("initial parameters hold NaN or Inf")
    return c


def init_binary(spec: list[T.LayerSpec], input_shape: tuple,
                rng: np.random.Generator) -> Classifier:
    return init_multiclass(spec, input_shape, 1, rng)


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------

def features(c: Classifier, x) -> Array:
    return T.forward_features(c.feature_params, c.spec, x)


def class_logits(c: Classifier, x) -> Array:
    """Per-sample head logits, shape (n, K)."""
    return features(c, x) @ c.head_w + c.head_b


def logit_binary(c: Classifier, x) -> Array:
    """Per-sample logit w1 . phi(x; w0), shape (n,)."""
    return class_logits(c, x)[:, 0]


def prob_positive(c: Classifier, x) -> Array:
    return T.sigmoid_value(logit_binary(c, x))


def class_probs_softmax(c: Classifier, x) -> Array:
    return T.softmax_value(class_logits(c, x))


def ensemble_logits(e: OneVsAllEnsemble, x) -> Array:
    """Per-class logits, each from that member's own feature extractor."""
    return np.stack([logit_binary(m, x) for m in e.members], axis=1)


def labels_from_logits(logits: Array) -> Array:
    """One column: +1 where the logit is positive, else -1. More columns:
    the argmax, ties going to the lowest class index."""
    if logits.shape[1] == 1:
        return np.where(logits[:, 0] > 0, 1, -1)
    return np.argmax(logits, axis=1)


def predict_label(model, x) -> Array:
    if isinstance(model, OneVsAllEnsemble):
        return np.argmax(ensemble_logits(model, x), axis=1)
    return labels_from_logits(class_logits(model, x))


# ---------------------------------------------------------------------------
# graphs over the stack and head: training loss, FGSM loss, synthesis logit
# ---------------------------------------------------------------------------

# Kinds of head-graph term, each summed over its own batch of rows. `index`
# holds labels: {+1, -1} for a binary head, class indices otherwise.
LOGIT = "logit"          # each row's logit (class index[i] on a K-column head)
LABELED = "labeled"      # -ln q(y|x); weighted 1 - alpha on a K-column head
NEGATIVE = "negative"    # -ln q(-1|x), or alpha * softplus(logit of class index[i])


def head_graph(c: Classifier, terms, alpha: float = 0.0,
               params: str = "const", inputs: str = "input"):
    """One record over c's stack and head, summing `terms`.

    Each term is (kind, x, index) and runs x through the stack on the same
    parameter leaves, of kind `params`; each x is a leaf of kind `inputs`.
    The parameters enter unscanned, since they were checked for NaN/Inf
    where they were written (see `init_multiclass`); each x is scanned.
    -ln sigmoid(z) is computed as softplus(-z). Returns (record, scalar,
    [each term's (n, K) logits]).
    """
    if not isinstance(c, Classifier):
        raise TypeError(f"no head graph for {type(c).__name__}")
    record = T.ComputationRecord()
    p_nodes = [record.leaf(p, params, checked=True) for p in c.all_params()]
    feat_nodes, head_w, head_b = p_nodes[:-2], p_nodes[-2], p_nodes[-1]
    parts, logit_values = [], []
    for kind, x, index in terms:
        feats = T.feature_stack(record, c.spec, feat_nodes, record.leaf(x, inputs))
        logits = record.affine(feats, head_w, head_b)
        logit_values.append(logits.value)
        n = logits.shape[0]
        if kind == LOGIT:
            picked = logits if c.binary else record.select(logits, np.broadcast_to(index, (n,)))
            parts.append(record.sum(picked))
        elif c.binary:
            z = record.reshape(logits, (n,))
            if kind == LABELED:
                z = record.mul_const(z, -np.asarray(index, dtype=np.float64))
            parts.append(record.sum(record.softplus(z)))
        elif kind == LABELED:
            picked = record.select(record.log_softmax(logits), index)
            parts.append(record.scale(record.sum(picked), -(1.0 - alpha)))
        else:
            picked = record.select(logits, index)
            parts.append(record.scale(record.sum(record.softplus(picked)), alpha))
    return record, functools.reduce(record.add, parts), logit_values


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
    if class_index is None and not c.binary:
        raise ValueError("multi-class synthesis needs a class index")
    record, scalar, (logits,) = head_graph(
        c, [(LOGIT, x, class_index)], params="param" if trainable_params else "const")
    if c.binary:
        return record, scalar, logits[:, 0]
    rows = np.arange(logits.shape[0])
    return record, scalar, logits[rows, np.broadcast_to(class_index, rows.shape)]


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


def _read_tensor(fh, path, want: tuple) -> Array:
    """The next tensor, whose shape must match `want`; None in `want`
    matches any size."""
    raw = fh.read(8)
    if len(raw) != 8:
        raise ModelFormatError(f"{path}: truncated tensor header")
    ndim = struct.unpack("<q", raw)[0]
    if ndim != len(want):
        raise ModelFormatError(f"{path}: tensor of rank {ndim} where the header implies {want}")
    raw = fh.read(8 * ndim)
    if len(raw) != 8 * ndim:
        raise ModelFormatError(f"{path}: truncated tensor shape")
    shape = struct.unpack(f"<{ndim}q", raw)
    if any(w is not None and d != w for d, w in zip(shape, want)):
        raise ModelFormatError(f"{path}: tensor of shape {shape} where the header implies {want}")
    n_bytes = 8 * math.prod(shape)
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    # checked before the read, so a huge shape field cannot ask for more
    # memory than the file holds
    if not 0 <= n_bytes <= left:
        raise ModelFormatError(f"{path}: truncated tensor data: shape {shape} "
                               f"needs {n_bytes} bytes, {left} left")
    arr = np.frombuffer(fh.read(n_bytes), dtype="<f8").astype(np.float64).reshape(shape)
    if not T.all_finite(arr):
        raise ModelFormatError(f"{path}: tensor of shape {shape} holds NaN or Inf")
    # a conv kernel is laid out channel-last once, here, not in every conv call
    return T.channel_last(arr)


def save_model(path, model) -> None:
    if isinstance(model, OneVsAllEnsemble):
        kind, spec = "one_vs_all", model.members[0].spec
        tensors = [t for m in model.members for t in m.all_params()]
    elif isinstance(model, Classifier):
        kind, spec = ("binary" if model.binary else "multiclass"), model.spec
        tensors = model.all_params()
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    header = {"kind": kind, "spec": _spec_descriptor(spec)}
    if kind != "binary":
        header["classes"] = model.n_classes
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode())
        for t in tensors:
            _write_tensor(fh, t)


def load_model(path):
    """Read a model file, checking every tensor shape against the header's
    layer spec and class count; a mismatch, an unknown layer kind, a leaky
    slope outside [0, 1], a NaN or Inf value or bytes after the last tensor
    raise ModelFormatError."""
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
        for layer in spec:
            if layer.kind not in T.LAYER_KINDS:
                raise ModelFormatError(f"{path}: unknown layer kind {layer.kind!r}")
        if kind not in ("binary", "multiclass", "one_vs_all"):
            raise ModelFormatError(f"{path}: unknown model kind {kind!r}")
        if kind != "binary" and classes < 2:
            raise ModelFormatError(f"{path}: {kind} model with {classes} classes")
        feature_shapes = [s for pair in T.layer_param_shapes(spec) for s in pair]

        def read_classifier(k: int) -> Classifier:
            tensors = [_read_tensor(fh, path, s) for s in feature_shapes + [(None, k), (k,)]]
            return Classifier(spec, tensors[:-2], tensors[-2], tensors[-1])

        if kind == "one_vs_all":
            model = OneVsAllEnsemble([read_classifier(1) for _ in range(classes)])
        else:
            model = read_classifier(1 if kind == "binary" else classes)
        if fh.read(1):
            raise ModelFormatError(f"{path}: bytes after the last tensor")
        return model
