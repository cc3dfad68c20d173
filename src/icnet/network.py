"""Classifier heads over the shared convolutional feature extractor.

A classifier is a feature stack w0 plus a linear head of K columns. With one
column it is binary: its logit w1 . phi(x; w0) is the log ratio
q(+1|x)/q(-1|x) under the sigmoid model, where class 1 is the paper's y = +1
and class 0 its y = -1. With K >= 2 the columns are K class heads over the
one shared stack; the one-vs-all ensemble keeps K fully independent binary
classifiers. Bias terms ride along with every head.
"""

import functools
import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import data as D
from . import tensor as T

Array = np.ndarray


class ModelFormatError(Exception):
    pass


@dataclass
class Classifier:
    """A feature stack plus one linear head of K logit columns. K = 1 is the
    binary classifier; K >= 2 is the joint softmax classifier.

    The parameters are copied once into one flat float64 array, `flat`; the
    fields are views of it, kernels channel-last (`T.flat_views`). SGD
    updates `flat` in place: change a parameter by writing into its array,
    never by binding the field to another one.
    """

    spec: list[T.LayerSpec]
    feature_params: list[Array]
    head_w: Array  # (width, K)
    head_b: Array  # (K,)
    flat: Array = field(init=False, repr=False)

    def __post_init__(self):
        params = self.all_params()
        self.flat = np.empty(sum(p.size for p in params))
        views = T.flat_views(self.flat, params)
        for view, p in zip(views, params):
            view[...] = p
        self.feature_params, self.head_w, self.head_b = views[:-2], views[-2], views[-1]

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
    # checked once here, as after each SGD update and in load_model: passes
    # over the parameters do not rescan them
    if not T.all_finite(c.flat):
        raise T.NonFiniteError("initial parameters hold NaN or Inf")
    return c


def init_binary(spec: list[T.LayerSpec], input_shape: tuple,
                rng: np.random.Generator) -> Classifier:
    return init_multiclass(spec, input_shape, 1, rng)


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------

# Labeled-set passes (test error, validation, FGSM) take this many rows at a time, the
# image SGD batch: on MNIST_NET they peak at 1.4x the parameter bytes, at 256 rows 5.7x.
EVAL_ROWS = 64


def labeled_chunks(x, y) -> list[tuple[Array, Array]]:
    """(x, y) in consecutive runs of EVAL_ROWS rows, the last one shorter."""
    return [(x[at:at + EVAL_ROWS], y[at:at + EVAL_ROWS]) for at in range(0, len(x), EVAL_ROWS)]


def class_logits(c: Classifier, x) -> Array:
    """Per-sample head logits, shape (n, K). The stack and the head run
    through `T.GradPass` ops that keep no rule, so an op whose output holds
    NaN or Inf raises NonFiniteError naming it, as in every other pass."""
    feats = T.forward_features(c.feature_params, c.spec, x)
    return T.GradPass(input_grad=False).affine(feats, c.head_w, c.head_b)


def logit_binary(c: Classifier, x) -> Array:
    """Per-sample logit w1 . phi(x; w0), shape (n,)."""
    return class_logits(c, x)[:, 0]


def labels_from_logits(logits: Array) -> Array:
    """One column: class 1 where the logit is positive, else 0. More
    columns: the argmax, ties going to the lowest class index."""
    if logits.shape[1] == 1:
        return (logits[:, 0] > 0).astype(np.int64)
    return np.argmax(logits, axis=1)


def predict_label(model, x) -> Array:
    if isinstance(model, OneVsAllEnsemble):
        # per-class logits, each from that member's own feature extractor
        logits = np.stack([logit_binary(m, x) for m in model.members], axis=1)
        return np.argmax(logits, axis=1)
    return labels_from_logits(class_logits(model, x))


# ---------------------------------------------------------------------------
# gradient passes over the stack and head: training loss, FGSM loss, synthesis logit
# ---------------------------------------------------------------------------

def head_pass(c: Classifier, x, grads=None, input_grad: bool = True):
    """A `T.GradPass` that has run the batch x, scanned for NaN/Inf, once
    through c's stack and head, and the (n, K) logits. The parameters enter
    unscanned (checked where written, see `init_multiclass`); `grads` and
    `input_grad` are the pass's."""
    if not isinstance(c, Classifier):
        raise TypeError(f"no gradient pass for {type(c).__name__}")
    grad_pass = T.GradPass(grads, input_grad)
    feats = T.feature_stack(grad_pass, c.spec, c.feature_params, T.as_tensor(x))
    return grad_pass, grad_pass.affine(feats, c.head_w, c.head_b)


def head_loss(logits: Array, labels, negative=None, alpha: float = 0.0,
              scale: float = 1.0) -> tuple[float, Array]:
    """A batch's training loss from its (n, K) head logits, and its gradient.

    Row i is labeled labels[i], or is a pseudo-negative tagged labels[i]
    where the bool mask `negative` is set. Its loss is -ln q(y|x), times
    1 - alpha on a K-column head; a pseudo-negative's is -ln q(-1|x) on a
    binary head and alpha * softplus(tagged logit) on a K-column one.
    Returns (total, d(scale * total)/d logits). Both come from the tape's
    elementwise ops in the tape's order, so they equal those of the same
    loss built on a ComputationRecord bitwise. A NaN or Inf loss raises
    NonFiniteError.
    """
    n = logits.shape[0]
    neg = np.zeros(n, bool) if negative is None else np.asarray(negative, bool)
    if logits.shape[1] == 1:
        # the one place a label becomes a sign, -ln q(y|x) = softplus(-y z);
        # a pseudo-negative's -ln q(-1|x) is the labeled term of class 0
        sign = np.where(neg, 1.0, 1.0 - 2.0 * labels)
        z = logits[:, 0] * sign
        total = T.softplus_value(z).sum()
        grad = (sign * (scale * T.sigmoid_value(z))).reshape(n, 1)
    else:
        # labeled rows through log_softmax, pseudo-negatives' tagged logits
        # through softplus; each part's gradient is scattered into zeros
        split = neg.any()
        log_q = T.log_softmax_value(logits[~neg] if split else logits)
        if not T.all_finite(log_q):
            raise T.NonFiniteError("non-finite values produced by log_softmax")
        at = (np.arange(len(log_q)), np.asarray(labels[~neg], dtype=np.intp))
        total = -(1.0 - alpha) * log_q[at].sum()
        g = _scattered(log_q.shape, at, -(1.0 - alpha) * scale)
        grad = g - np.exp(log_q) * g.sum(axis=-1, keepdims=True)
        if split:
            at = (np.arange(np.count_nonzero(neg)), np.asarray(labels[neg], dtype=np.intp))
            tagged = logits[neg][at]
            total = total + alpha * T.softplus_value(tagged).sum()
            g = _scattered((len(tagged), logits.shape[1]), at,
                           (alpha * scale) * T.sigmoid_value(tagged))
            grad = _scattered(logits.shape, neg, g) + _scattered(logits.shape, ~neg, grad)
    if not math.isfinite(total):
        raise T.NonFiniteError("non-finite values produced by the loss")
    return float(total), grad


def _scattered(shape, index, values) -> Array:
    """Zeros of `shape` with `values` written at `index`."""
    out = np.zeros(shape)
    out[index] = values
    return out


def logit_sum_graph(c: Classifier, x, classes):
    """A `T.GradPass` for the summed per-sample logit of each sample's head.

    Per-sample chains are independent, so the input gradient of the batch sum
    is exactly the per-sample logit gradient. Row i's logit is head column
    `classes[i]`; a binary classifier's one column 0 takes an all-ones
    seed. A multi-class head is
    evaluated whole and each row's logit selected by a one-hot seed, so
    chains of every class share one pass. Returns (pass, seed, logits (n,)),
    where `T.input_gradient(pass, seed)` is d(sum)/dx.
    """
    grad_pass, logits = head_pass(c, x)
    if c.binary:
        return grad_pass, np.ones_like(logits), logits[:, 0]
    rows = np.arange(logits.shape[0])
    seed = np.zeros_like(logits)
    seed[rows, classes] = 1.0
    return grad_pass, seed, logits[rows, classes]


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
    read = functools.partial(D.read_exact, fh, path=path, error=ModelFormatError)
    ndim = struct.unpack("<q", read(8, "tensor header"))[0]
    if ndim != len(want):
        raise ModelFormatError(f"{path}: tensor of rank {ndim} where the header implies {want}")
    shape = struct.unpack(f"<{ndim}q", read(8 * ndim, "tensor shape"))
    if any(w is not None and d != w for d, w in zip(shape, want)):
        raise ModelFormatError(f"{path}: tensor of shape {shape} where the header implies {want}")
    # a view of the bytes read: the Classifier copies it into its flat
    # array, laying a conv kernel out channel-last on the way
    arr = np.frombuffer(read(8 * math.prod(shape), f"tensor data of shape {shape}"),
                        dtype="<f8").reshape(shape)
    if not T.all_finite(arr):
        raise ModelFormatError(f"{path}: tensor of shape {shape} holds NaN or Inf")
    return arr


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
        # a cut or garbled header line: JSON and UTF-8 errors are ValueErrors,
        # and int() of an infinite field (1e999) is an OverflowError
        try:
            header = json.loads(fh.readline().decode())
            spec = _spec_from_descriptor(header["spec"])
            kind = header["kind"]
            classes = int(header.get("classes", 0))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
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
