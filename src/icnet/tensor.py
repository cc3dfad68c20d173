"""Dense float64 tensors with reverse-mode automatic differentiation.

Small by design: exactly the primitives a stride-2 convolutional classifier
needs (affine, 5x5/stride-2 convolution, leaky rectifier, sigmoid, softmax,
log, sum and a few glue ops), with gradients w.r.t. both parameters and
inputs. Values are plain numpy arrays. `GradPass` holds the one definition
of each layer op's value and backward rules; the package's gradients come
from one reversed sweep of it over the layer stack, and its inference from
a pass of it that keeps no rule. The append-only tape (`ComputationRecord`),
whose creation order is already topological, runs each layer op through a
one-op `GradPass` and adds the loss ops; the tests build their gradient
checks and references on it.

NaN/Inf is caught where it can first appear: inputs and parameters where
they enter, and the outputs of the ops that can overflow (affine, conv and
every tape op). A pass does not scan the outputs of `leaky` and `reshape`,
which cannot turn finite values into non-finite ones (see `GradPass`).
"""

import math
import weakref
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

Array = np.ndarray


class TensorError(Exception):
    pass


class ShapeMismatchError(TensorError):
    pass


class NonFiniteError(TensorError):
    pass


class GraphError(TensorError):
    pass


def all_finite(a) -> bool:
    """True when no value of `a` is NaN or Inf; True for an empty array.

    The one finiteness test of the package: exact for any float values
    (a sum-based shortcut would overflow, and warn, on huge finite ones)
    and without `np.all`'s dispatch cost, which dominates on small arrays.
    """
    return bool(np.isfinite(a).all())


def as_tensor(data, shape=None) -> Array:
    """Coerce to a float64 array, verifying finiteness.

    An array that already is float64 comes back as is, so a channel-last
    kernel or activation keeps its memory layout (see `flat_views`).
    """
    arr = np.asarray(data, dtype=np.float64)
    if shape is not None:
        arr = arr.reshape(shape)
    if not all_finite(arr):
        raise NonFiniteError("tensor contains NaN or Inf")
    return arr


def flat_views(flat: Array, like: Sequence[Array]) -> list[Array]:
    """Consecutive views of the 1-D `flat`, one per array of `like`, each
    of its shape; a conv kernel's is channel-last: its `transpose(0, 2, 3,
    1)` is C-contiguous, the order the conv GEMMs read and write."""
    views, at = [], 0
    for a in like:
        view = flat[at:at + a.size]
        at += a.size
        if a.ndim == 4:
            co, ci, kh, kw = a.shape
            views.append(view.reshape(co, kh, kw, ci).transpose(0, 3, 1, 2))
        else:
            views.append(view.reshape(a.shape))
    return views


# ---------------------------------------------------------------------------
# pure value kernels (shared by graph ops, inference and finite differences)
# ---------------------------------------------------------------------------

def affine_value(x: Array, w: Array, b: Array) -> Array:
    return x @ w + b


def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Output height (or width) of a conv over `size` input rows (or columns)."""
    return (size + 2 * pad - kernel) // stride + 1


def _row_pad(c: int, pad: int) -> int:
    # with one input channel a GEMM per kernel row is too thin to pay (2-3x
    # slower than one GEMM), so such inputs are padded in rows as well
    return pad if c == 1 else 0


def _padded(x: Array, pad: int):
    """`x` copied into a zeroed channel-last buffer, `pad` columns wide on
    each side, and its row padding (`_row_pad`)."""
    n, c, h, w = x.shape
    row_pad = _row_pad(c, pad)
    xp = np.zeros((n, h + 2 * row_pad, w + 2 * pad, c), dtype=np.float64)
    xp[:, row_pad:row_pad + h, pad:pad + w] = x.transpose(0, 2, 3, 1)
    return xp, row_pad


def _patches(xp: Array, row: int, rows: int, taps: int, ow: int, kw: int, stride: int) -> Array:
    """Patch matrix of `rows` output rows over `taps` kernel rows of `xp`.

    The first output row's first kernel row reads input row `row`. The
    result is one contiguous copy shaped (n * rows * ow, taps * kw * c):
    each row is one output pixel's receptive field in the column order of
    the channel-last kernel.
    """
    n, _, _, c = xp.shape
    sn, sh, sw, sc = xp.strides
    view = as_strided(xp[:, row:], (n, rows, ow, taps, kw, c),
                      (sn, stride * sh, stride * sw, sh, sw, sc), writeable=False)
    return np.ascontiguousarray(view).reshape(n * rows * ow, taps * kw * c)


def _runs(spans: list) -> list:
    """(a, b, span) for each maximal run a <= i < b of equal spans[i]."""
    starts = [i for i in range(len(spans)) if i == 0 or spans[i] != spans[i - 1]]
    return [(a, b, spans[a]) for a, b in zip(starts, starts[1:] + [len(spans)])]


def _output_row_runs(oh: int, kh: int, h: int, stride: int, pad: int) -> list:
    """(o0, o1, (t0, t1)): output rows o0 <= o < o1 whose kernel rows that
    land on the h input rows, not on the `pad` zero rows around them, are
    exactly t0 <= t < t1."""
    return _runs([(max(0, pad - o * stride), min(kh, h + pad - o * stride))
                  for o in range(oh)])


def _kernel_row_runs(oh: int, kh: int, h: int, stride: int, pad: int) -> list:
    """(t0, t1, (lo, hi)): kernel rows t0 <= t < t1 that each land on one
    of the h input rows for exactly the output rows lo <= o < hi."""
    return _runs([(max(0, -((t - pad) // stride)),
                   min(oh, max(0, (h - 1 + pad - t) // stride + 1))) for t in range(kh)])


def conv2d_value(x: Array, k: Array, b: Array, stride: int, pad: int) -> Array:
    """5x5-style convolution. x: (n, c_in, h, w); k: (c_out, c_in, kh, kw); b: (c_out,).

    Activations and kernels are read channel-last (see `flat_views`); any
    other layout gives the same values after one relayout copy. The input
    is copied into a channel-last buffer padded in width only, and each run
    of output rows that reads the same kernel rows is one GEMM of its
    patches against just those rows of the channel-last kernel, a view: no
    kernel row that lands in the row padding is multiplied. With one input
    channel such GEMMs are too thin to pay, so the rows are padded too and
    one GEMM covers them all. Each patch matrix is freed once its GEMM is
    done. The output is channel-last.
    """
    n, c, h, w = x.shape
    co, ci, kh, kw = k.shape
    if ci != c:
        raise ShapeMismatchError(f"conv kernel expects {ci} input channels, got {c}")
    oh = conv_output_size(h, kh, stride, pad)
    ow = conv_output_size(w, kw, stride, pad)
    if oh < 1 or ow < 1:
        raise ShapeMismatchError(f"conv output would be empty for input {h}x{w}")
    xp, row_pad = _padded(x, pad)
    kt = k.transpose(0, 2, 3, 1)
    out = np.zeros((n, oh, ow, co), dtype=np.float64)
    for o0, o1, (t0, t1) in _output_row_runs(oh, kh, xp.shape[1], stride, pad - row_pad):
        if t0 >= t1:
            continue  # every kernel row lands in padding: the output is the bias
        mat = _patches(xp, o0 * stride + t0 - pad + row_pad, o1 - o0, t1 - t0, ow, kw, stride)
        kmat = kt[:, t0:t1].reshape(co, -1).T
        if o1 - o0 == oh:
            np.matmul(mat, kmat, out=out.reshape(-1, co))
        else:
            out[:, o0:o1] = (mat @ kmat).reshape(n, o1 - o0, ow, co)
        del mat  # before the next run's patches are built
    out += b
    return out.transpose(0, 3, 1, 2)


def conv2d_kernel_grad(dout: Array, x: Array, k_shape, stride: int, pad: int,
                       out: Array) -> Array:
    """d(loss)/dk of `conv2d_value`, given dout in channel-last (n, oh, ow, c_out) layout.

    One GEMM per run of kernel rows that land on the input for the same
    output rows, over just those output rows: the run's patches are rebuilt
    from x, so the largest temporary is a fraction of a full patch matrix.
    Writes into `out`, a channel-last array of the kernel's shape, and
    returns it.
    """
    n, c, h, w = x.shape
    co, _, kh, kw = k_shape
    _, oh, ow, _ = dout.shape
    xp, row_pad = _padded(x, pad)
    if not out.transpose(0, 2, 3, 1).flags.c_contiguous:
        raise ValueError("the kernel gradient is written channel-last only")
    grad = out.transpose(0, 2, 3, 1).reshape(co, kh * kw * c)  # a view, by the check above
    for t0, t1, (lo, hi) in _kernel_row_runs(oh, kh, xp.shape[1], stride, pad - row_pad):
        if lo < hi:
            mat = _patches(xp, lo * stride + t0 - pad + row_pad, hi - lo, t1 - t0, ow, kw, stride)
            np.matmul(dout[:, lo:hi].reshape(-1, co).T, mat,
                      out=grad[:, t0 * kw * c:t1 * kw * c])
            del mat
        else:
            grad[:, t0 * kw * c:t1 * kw * c] = 0.0  # kernel rows that reach no output row
    return out


def conv2d_input_grad(dout: Array, k: Array, x_shape, stride: int, pad: int) -> Array:
    """d(loss)/dx of `conv2d_value`, given dout in channel-last (n, oh, ow, c_out) layout.

    One GEMM per run of kernel rows (as in `conv2d_kernel_grad`) gives the
    run's patch gradients, (n, rows, ow, taps, kw, c_in); each kernel tap is
    scatter-added into a channel-last buffer padded like the forward input,
    so every add reads and writes contiguous channel runs. The unpadded
    interior is returned as a channel-last NCHW view.
    """
    n, c, h, w = x_shape
    co, _, kh, kw = k.shape
    _, oh, ow, _ = dout.shape
    row_pad = _row_pad(c, pad)
    kt = k.transpose(0, 2, 3, 1)
    dxp = np.zeros((n, h + 2 * row_pad, w + 2 * pad, c), dtype=np.float64)
    for t0, t1, (lo, hi) in _kernel_row_runs(oh, kh, dxp.shape[1], stride, pad - row_pad):
        if lo == hi:
            continue
        dcols = (dout[:, lo:hi].reshape(-1, co) @ kt[:, t0:t1].reshape(co, -1)).reshape(
            n, hi - lo, ow, t1 - t0, kw, c)
        for t in range(t0, t1):
            row = lo * stride + t - pad + row_pad
            rows = dxp[:, row:row + stride * (hi - lo):stride]
            for j in range(kw):
                rows[:, :, j:j + stride * ow:stride] += dcols[:, :, :, t - t0, j]
    return dxp[:, row_pad:row_pad + h, pad:pad + w].transpose(0, 3, 1, 2)


def leaky_value(x: Array, slope: float) -> Array:
    # max(x, slope * x) is x for x >= 0 and slope * x below, bitwise, for
    # any slope in [0, 1] (`LayerSpec` admits no other)
    return np.maximum(x, slope * x)


def sigmoid_value(x: Array) -> Array:
    # exp of a non-positive argument never overflows: 1 / (1 + e^-x) for
    # x >= 0 and e^x / (1 + e^x) below, both from e = e^-|x|; min(x, -x)
    # is -|x| but keeps a NaN's sign bit, which -np.abs(x) would flip
    e = np.exp(np.minimum(x, -x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def softmax_value(x: Array) -> Array:
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax_value(x: Array) -> Array:
    z = x - x.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def softplus_value(x: Array) -> Array:
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


# ---------------------------------------------------------------------------
# computation record (reverse-mode tape)
# ---------------------------------------------------------------------------

class Node:
    """One entry of a ComputationRecord: a value plus its backward rule."""

    __slots__ = ("value", "grad", "requires_grad", "kind", "_backward", "_record")

    def __init__(self, value: Array, kind: str, requires_grad: bool, record):
        self.value = value
        self.grad: Array | None = None
        self.requires_grad = requires_grad
        self.kind = kind  # "param" | "input" | "const" | "op"
        self._backward: Callable[[Array], None] | None = None
        # weak, so a dropped record and its arrays are freed at once rather
        # than at the next cyclic garbage collection
        self._record = weakref.ref(record)

    @property
    def shape(self):
        return self.value.shape

    def _accumulate(self, g: Array) -> None:
        if not self.requires_grad:
            return
        if g.shape != self.value.shape:
            raise ShapeMismatchError(
                f"{self.kind} gradient has shape {g.shape}, value has {self.value.shape}")
        if self.grad is None:
            # every backward rule hands each operand an array of its own
            # (`add` copies for its second operand), so g is kept, not copied
            self.grad = g
        else:
            self.grad += g


class ComputationRecord:
    """Append-only op tape; creation order is the topological order."""

    def __init__(self):
        self.nodes: list[Node] = []
        self.swept = False  # set by backward, which frees the op nodes' rules

    # -- leaves --------------------------------------------------------------

    def leaf(self, value, kind: str = "const", shape=None, checked: bool = False) -> Node:
        """A leaf node over `value`, coerced by `as_tensor`. With `checked`
        the caller vouches that `value` is a float64 array already found
        finite, as classifier parameters are wherever they are written
        (init, SGD update, model load); it enters the record unscanned."""
        if kind not in ("param", "input", "const"):
            raise GraphError(f"unknown leaf kind {kind!r}")
        node = Node(value if checked else as_tensor(value, shape), kind, kind != "const", self)
        self.nodes.append(node)
        return node

    def _push(self, value: Array, op: str, parents: Sequence[Node],
              backward: Callable[[Array], None]) -> Node:
        for p in parents:
            if p._record() is not self:
                raise GraphError("operand belongs to a different record")
        if not all_finite(value):
            raise NonFiniteError(f"non-finite values produced by {op}")
        node = Node(value, "op", any(p.requires_grad for p in parents), self)
        if node.requires_grad:
            node._backward = backward
        self.nodes.append(node)
        return node

    # -- primitive ops ---------------------------------------------------------

    def _layer_op(self, op: str, x: Node, params: Sequence[Node], *args) -> Node:
        """Layer op `op` through a one-op GradPass, the op's only value
        kernel and backward rules; the rule accumulates the sweep's input
        gradient and fresh parameter gradients into the operands' nodes."""
        grads = None
        if any(p.requires_grad for p in params):
            grads = flat_views(np.empty(sum(p.value.size for p in params)),
                               [p.value for p in params])
        grad_pass = GradPass(grads, input_grad=x.requires_grad)
        out = getattr(grad_pass, op)(x.value, *(p.value for p in params), *args)

        def backward(g: Array) -> None:
            x._accumulate(grad_pass.input_gradient(g))
            for p, dp in zip(params, grads or ()):
                p._accumulate(dp)

        return self._push(out, op, (x, *params), backward)

    def affine(self, x: Node, w: Node, b: Node) -> Node:
        return self._layer_op("affine", x, (w, b))

    def conv2d(self, x: Node, k: Node, b: Node, stride: int = 2, pad: int = 2) -> Node:
        return self._layer_op("conv2d", x, (k, b), stride, pad)

    def leaky(self, x: Node, slope: float) -> Node:
        return self._layer_op("leaky", x, (), slope)

    def sigmoid(self, x: Node) -> Node:
        s = sigmoid_value(x.value)

        def backward(g: Array) -> None:
            x._accumulate(g * s * (1.0 - s))

        return self._push(s, "sigmoid", (x,), backward)

    def softmax(self, x: Node) -> Node:
        s = softmax_value(x.value)

        def backward(g: Array) -> None:
            x._accumulate(s * (g - (g * s).sum(axis=-1, keepdims=True)))

        return self._push(s, "softmax", (x,), backward)

    def log_softmax(self, x: Node) -> Node:
        out = log_softmax_value(x.value)
        s = np.exp(out)

        def backward(g: Array) -> None:
            x._accumulate(g - s * g.sum(axis=-1, keepdims=True))

        return self._push(out, "log_softmax", (x,), backward)

    def log(self, x: Node) -> Node:
        out = np.log(x.value)

        def backward(g: Array) -> None:
            x._accumulate(g / x.value)

        return self._push(out, "log", (x,), backward)

    def softplus(self, x: Node) -> Node:
        out = softplus_value(x.value)

        def backward(g: Array) -> None:
            x._accumulate(g * sigmoid_value(x.value))

        return self._push(out, "softplus", (x,), backward)

    def square(self, x: Node) -> Node:
        def backward(g: Array) -> None:
            x._accumulate(2.0 * x.value * g)

        return self._push(x.value * x.value, "square", (x,), backward)

    def sum(self, x: Node) -> Node:
        out = np.asarray(x.value.sum(), dtype=np.float64)

        def backward(g: Array) -> None:
            x._accumulate(np.broadcast_to(g, x.shape).copy() if x.shape else np.asarray(g))

        return self._push(out, "sum", (x,), backward)

    def add(self, a: Node, b: Node) -> Node:
        if a.shape != b.shape:
            raise ShapeMismatchError(f"add shapes differ: {a.shape} vs {b.shape}")

        def backward(g: Array) -> None:
            a._accumulate(g)
            b._accumulate(g.copy(order="K"))  # a may keep g as its gradient

        return self._push(a.value + b.value, "add", (a, b), backward)

    def scale(self, x: Node, c: float) -> Node:
        def backward(g: Array) -> None:
            x._accumulate(c * g)

        return self._push(c * x.value, "scale", (x,), backward)

    def mul_const(self, x: Node, c) -> Node:
        """Elementwise product with a constant array of the same shape."""
        carr = as_tensor(c)
        if carr.shape != x.shape:
            raise ShapeMismatchError(f"mul_const shapes differ: {x.shape} vs {carr.shape}")

        def backward(g: Array) -> None:
            x._accumulate(carr * g)

        return self._push(x.value * carr, "mul_const", (x,), backward)

    def _gather(self, x: Node, index, op: str) -> Node:
        """out = x[index], for an index that names each element at most once."""
        def backward(g: Array) -> None:
            dx = np.zeros_like(x.value)
            dx[index] = g
            x._accumulate(dx)

        return self._push(x.value[index], op, (x,), backward)

    def select(self, x: Node, idx) -> Node:
        """Row gather: out[i] = x[i, idx[i]] for a 2D operand."""
        idx = np.asarray(idx, dtype=np.intp)
        if x.value.ndim != 2 or idx.shape != (x.shape[0],):
            raise ShapeMismatchError("select expects a 2D operand and one index per row")
        return self._gather(x, (np.arange(x.shape[0]), idx), "select")

    def reshape(self, x: Node, shape) -> Node:
        return self._layer_op("reshape", x, (), shape)

    # -- backward sweep --------------------------------------------------------

    def backward(self, out: Node) -> None:
        """Seed d(out)/d(out) = 1 and sweep the tape once, in reverse.

        The sweep frees the tape as it goes: once an op node's rule has run,
        its gradient and its rule (with the arrays the rule saved, such as a
        leaky's mask) are dropped. Leaf gradients stay. A record can
        therefore be swept only once; a second call raises GraphError.
        """
        if out._record() is not self:
            raise GraphError("output node belongs to a different record")
        if out.value.shape != ():
            raise GraphError(f"backward requires a scalar node, got shape {out.shape}")
        if self.swept:
            raise GraphError("record was already swept by backward; build a new one")
        self.swept = True
        out.grad = np.ones((), dtype=np.float64)
        for node in reversed(self.nodes):
            if node.kind != "op":
                continue
            rule, g = node._backward, node.grad
            node._backward = node.grad = None
            if rule is not None and g is not None:
                rule(g)

    def input_gradient(self, out: Node) -> Array:
        """d(out)/dx for the record's registered differentiable input."""
        x = self.input_node()
        self.backward(out)
        return np.zeros_like(x.value) if x.grad is None else x.grad

    def param_gradients(self, out: Node) -> list[Array]:
        """d(out)/dθ for every param leaf, in declaration order."""
        self.backward(out)
        return [np.zeros_like(n.value) if n.grad is None else n.grad
                for n in self.param_nodes()]

    def param_nodes(self) -> list[Node]:
        return [n for n in self.nodes if n.kind == "param"]

    def input_node(self) -> Node:
        inputs = [n for n in self.nodes if n.kind == "input"]
        if len(inputs) != 1:
            raise GraphError(f"record has {len(inputs)} registered inputs, expected exactly 1")
        return inputs[0]


# ---------------------------------------------------------------------------
# layer specs and network forward
# ---------------------------------------------------------------------------

DEFAULT_LEAKY_SLOPE = 0.2
CONV_KERNEL = 5
CONV_STRIDE = 2
CONV_PAD = 2  # keeps the 28x28 stack at 14 -> 7 -> 4 -> 2
LAYER_KINDS = ("dense", "conv", "leaky", "flatten")


@dataclass(frozen=True)
class LayerSpec:
    """One feature-stack layer: dense, 5x5/stride-2 conv, leaky or flatten."""

    kind: str                 # one of LAYER_KINDS
    in_width: int = 0         # dense input width / conv input channels
    out_width: int = 0        # dense output width / conv output channels
    slope: float = DEFAULT_LEAKY_SLOPE
    pad: int = CONV_PAD

    def __post_init__(self):
        # the leaky kernels are exact only for slopes in [0, 1] (see `leaky_value`)
        if not 0.0 <= self.slope <= 1.0:
            raise ValueError(f"leaky slope must be finite and lie in [0, 1], got {self.slope!r}")
        if self.kind in ("dense", "conv") and min(self.in_width, self.out_width) < 1:
            raise ValueError(f"{self.kind} widths must be at least 1, "
                             f"got {self.in_width} and {self.out_width}")
        if self.kind == "conv" and self.pad < 0:
            raise ValueError(f"conv pad must be at least 0, got {self.pad}")


def dense(in_width: int, out_width: int) -> LayerSpec:
    return LayerSpec("dense", in_width, out_width)


def conv(in_channels: int, out_channels: int, pad: int = CONV_PAD) -> LayerSpec:
    return LayerSpec("conv", in_channels, out_channels, pad=pad)


def leaky(slope: float = DEFAULT_LEAKY_SLOPE) -> LayerSpec:
    return LayerSpec("leaky", slope=slope)


def flatten() -> LayerSpec:
    return LayerSpec("flatten")


def layer_param_shapes(spec: Sequence[LayerSpec]) -> list[tuple[tuple, tuple]]:
    """(weight_shape, bias_shape) per parameterized layer, in layer order."""
    shapes = []
    for layer in spec:
        if layer.kind == "dense":
            shapes.append(((layer.in_width, layer.out_width), (layer.out_width,)))
        elif layer.kind == "conv":
            shapes.append(((layer.out_width, layer.in_width, CONV_KERNEL, CONV_KERNEL),
                           (layer.out_width,)))
    return shapes


def init_layer_params(spec: Sequence[LayerSpec], rng: np.random.Generator) -> list[Array]:
    """He-style init with the leaky gain; biases start at zero."""
    params: list[Array] = []
    slope = next((l.slope for l in spec if l.kind == "leaky"), DEFAULT_LEAKY_SLOPE)
    gain = np.sqrt(2.0 / (1.0 + slope * slope))
    for wshape, bshape in layer_param_shapes(spec):
        fan_in = int(np.prod(wshape[1:])) if len(wshape) == 4 else wshape[0]
        # drawn in logical (c_out, c_in, kh, kw) order; a classifier lays
        # each kernel out channel-last as it copies it into its flat array
        params.append(rng.normal(0.0, gain / np.sqrt(fan_in), size=wshape))
        params.append(np.zeros(bshape))
    return params


def _output_shape(spec: Sequence[LayerSpec], input_shape: tuple) -> tuple:
    """The shape the layer stack gives one sample of input_shape, from the
    layer specs alone; raises ShapeMismatchError naming the first layer
    whose input does not fit it or whose kind is unknown."""
    shape = tuple(input_shape)
    for li, layer in enumerate(spec):
        if layer.kind == "dense":
            if shape != (layer.in_width,):
                raise ShapeMismatchError(f"layer {li} (dense): expected {layer.in_width} "
                                         f"input features, got sample shape {shape}")
            shape = (layer.out_width,)
        elif layer.kind == "conv":
            if len(shape) != 3 or shape[0] != layer.in_width:
                raise ShapeMismatchError(f"layer {li} (conv): expected {layer.in_width} "
                                         f"input channels, got sample shape {shape}")
            oh, ow = (conv_output_size(d, CONV_KERNEL, CONV_STRIDE, layer.pad) for d in shape[1:])
            if oh < 1 or ow < 1:
                raise ShapeMismatchError(
                    f"layer {li} (conv): conv output would be empty for input {shape[1]}x{shape[2]}")
            shape = (layer.out_width, oh, ow)
        elif layer.kind == "flatten":
            shape = (math.prod(shape),)
        elif layer.kind != "leaky":
            raise ShapeMismatchError(f"layer {li} ({layer.kind}): unknown layer kind {layer.kind!r}")
    return shape


def feature_width(spec: Sequence[LayerSpec], input_shape: tuple) -> int:
    """Width of the flattened feature vector for one sample of input_shape,
    from the layer specs alone; raises ShapeMismatchError where the forward
    pass would."""
    return math.prod(_output_shape(spec, input_shape))


class GradPass:
    """The four layer ops on plain arrays, each keeping one backward rule,
    so one reversed sweep gives the input gradient, the parameter gradients
    or both. These methods are the one definition of each layer op's value
    and backward rules: inference, synthesis, FGSM and SGD run the stack
    through a pass, and a ComputationRecord runs its layer ops through a
    one-op pass. The outputs of `affine` and `conv2d` are checked for
    NaN/Inf; those of `leaky` and `reshape` are not, as neither can make a
    non-finite value from a finite input, and every input is finite: a
    batch enters a pass through `as_tensor`, a tape op reads a scanned node,
    and each later op reads an earlier one's output.

    `grads`, if given, holds one array per parameter, in the order the ops
    read the parameters (stack, then head); the sweep writes each
    parameter's gradient into its array with `out=`; a conv kernel's must be
    channel-last. Without `input_grad` the batch is a constant, as in SGD:
    the ops before the first parameterized one keep no rule, and that one's
    rule skips its input side. With neither, as in inference, no op keeps a
    rule, so each activation is freed once the next op has read it.
    """

    def __init__(self, grads: Sequence[Array] | None = None, input_grad: bool = True):
        self._rules: list[Callable[[Array], Array | None]] = []
        self._grads = grads
        self._outs = None if grads is None else iter(grads)
        self._tracked = input_grad  # whether the next op's input leads to a gradient

    def _keep(self, value: Array, op: str, rule) -> Array:
        if not all_finite(value):
            raise NonFiniteError(f"non-finite values produced by {op}")
        if self._tracked:
            self._rules.append(rule)
        return value

    def affine(self, x: Array, w: Array, b: Array) -> Array:
        if self._outs is None:
            # the input gradient alone (synthesis, FGSM): on a small dense
            # stack the rule's Python overhead is a visible part of a step
            return self._keep(affine_value(x, w, b), "affine", lambda g: g @ w.T)
        gw, gb, tracked = next(self._outs), next(self._outs), self._tracked
        self._tracked = True

        def rule(g: Array) -> Array | None:
            np.matmul(x.T, g, out=gw)
            g.sum(axis=0, out=gb)
            return g @ w.T if tracked else None

        return self._keep(affine_value(x, w, b), "affine", rule)

    def conv2d(self, x: Array, k: Array, b: Array, stride: int, pad: int) -> Array:
        outs = None if self._outs is None else (next(self._outs), next(self._outs))
        tracked = self._tracked
        self._tracked = tracked or outs is not None

        # nothing but the operands is kept for backward: the kernel gradient
        # rebuilds its patches from x, one run of kernel rows at a time
        def rule(g: Array) -> Array | None:
            # the conv kernels are module globals, looked up at call time, so
            # a wrapper patched over one sees every call
            dout = np.ascontiguousarray(g.transpose(0, 2, 3, 1))  # no copy if channel-last
            if outs is not None:
                conv2d_kernel_grad(dout, x, k.shape, stride, pad, out=outs[0])
                dout.reshape(-1, k.shape[0]).sum(axis=0, out=outs[1])
            return conv2d_input_grad(dout, k, x.shape, stride, pad) if tracked else None

        return self._keep(conv2d_value(x, k, b, stride, pad), "conv2d", rule)

    def leaky(self, x: Array, slope: float) -> Array:
        # unscanned: with a slope in [0, 1], |slope * x| <= |x|, so a finite
        # x gives a finite output. The subgradient at exactly 0 is 1;
        # max(mask, slope) is 1 or slope, so the rule's product is bitwise
        # np.where(mask, g, slope * g)
        if self._tracked:
            mask = x >= 0.0
            self._rules.append(lambda g: g * np.maximum(mask, slope))
        return leaky_value(x, slope)

    def reshape(self, x: Array, shape) -> Array:
        # unscanned: the values are x's own
        if self._tracked:
            self._rules.append(lambda g: g.reshape(x.shape))
        return x.reshape(shape)

    def input_gradient(self, seed: Array) -> Array | None:
        """d(sum of seed * the last op's output)/dx (None without
        `input_grad`), writing the parameter gradients on the way; drops
        each rule once run."""
        g = seed
        while self._rules:
            g = self._rules.pop()(g)
        return g

    def param_gradients(self, seed: Array) -> Sequence[Array]:
        """Writes d(sum of seed * the last op's output)/dθ into `grads` and
        returns them."""
        self.input_gradient(seed)
        return self._grads


def feature_stack(ops, spec: Sequence[LayerSpec], params: Sequence, x):
    """Run the layer stack on a batch and return its (n, width) features.

    `ops` is a ComputationRecord, with `params` and `x` its nodes, or a
    GradPass, with plain arrays; either raises NonFiniteError naming the
    first op whose output holds NaN or Inf. The shapes are checked by the
    walk over the specs that `feature_width` makes, before any op runs: a
    shape mismatch or an unknown layer kind raises ShapeMismatchError
    naming the layer.
    """
    _output_shape(spec, x.shape[1:])
    out = x
    pi = 0
    for layer in spec:
        if layer.kind == "dense":
            out = ops.affine(out, params[pi], params[pi + 1])
            pi += 2
        elif layer.kind == "conv":
            out = ops.conv2d(out, params[pi], params[pi + 1],
                             stride=CONV_STRIDE, pad=layer.pad)
            pi += 2
        elif layer.kind == "leaky":
            out = ops.leaky(out, layer.slope)
        else:  # flatten: the walk rejects every other kind
            out = ops.reshape(out, (out.shape[0], -1))
    if len(out.shape) != 2:
        out = ops.reshape(out, (out.shape[0], -1))
    return out


def forward_features(params: Sequence[Array], spec: Sequence[LayerSpec], x) -> Array:
    """The stack's features through a GradPass asked for no gradient: the
    ops and NaN/Inf checks of every other pass, keeping no rule."""
    return feature_stack(GradPass(input_grad=False), spec, params, as_tensor(x))


# ---------------------------------------------------------------------------
# gradient extraction
# ---------------------------------------------------------------------------

def param_gradients(graph, out) -> Sequence[Array]:
    """d(out)/dθ of a ComputationRecord (out: a scalar node; the param
    leaves' gradients, in declaration order) or a GradPass (out: a seed;
    written into the pass's `grads`, which are returned)."""
    return graph.param_gradients(out)


def input_gradient(graph, out) -> Array:
    """d(out)/dx of a ComputationRecord (out: a scalar node) or a GradPass (out: a seed)."""
    return graph.input_gradient(out)
