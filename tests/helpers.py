"""Test-only helpers: a channel-last relayout, the central-difference
gradient check on the tape, a grid-cell mass lookup and a PGM reader."""

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from icnet import oracle as O
from icnet import tensor as T


def channel_last(a: np.ndarray) -> np.ndarray:
    """`a` with its logical shape kept, laid out channel-last in memory.

    4-D arrays are activations (n, c, h, w) or conv kernels (c_out, c_in,
    kh, kw); channel-last means `a.transpose(0, 2, 3, 1)` is C-contiguous,
    which is the order the conv GEMMs read and write. Returns `a` itself
    when it already is; other ranks come back unchanged.
    """
    if a.ndim != 4 or a.transpose(0, 2, 3, 1).flags.c_contiguous:
        return a
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


@dataclass
class GradCheckReport:
    max_rel_err_params: float
    max_rel_err_input: float
    coords_checked: int


def rel_err(a: float, n: float) -> float:
    return abs(a - n) / max(abs(a), abs(n), 1e-6)


def gradient_check(spec: Sequence[T.LayerSpec], seed: int, input_shape: tuple,
                   head: str = "sigmoid", n_coords: int = 20,
                   h: float = 1e-5) -> GradCheckReport:
    """Analytic vs central-finite-difference gradients on a random network."""
    gen = np.random.default_rng(seed)
    params = T.init_layer_params(spec, gen)
    # non-degenerate random weights for the check (He init already random;
    # nudge biases off zero so their gradients are exercised away from kinks)
    params = [channel_last(p + 0.05 * gen.standard_normal(p.shape)) for p in params]
    x = gen.standard_normal((2,) + tuple(input_shape))
    width = T.feature_width(spec, input_shape)
    if head == "sigmoid":
        hw = gen.normal(0.0, 1.0 / np.sqrt(width), size=(width, 1))
        hb = gen.normal(0.0, 0.1, size=(1,))
    elif head == "softmax":
        hw = gen.normal(0.0, 1.0 / np.sqrt(width), size=(width, 3))
        hb = gen.normal(0.0, 0.1, size=(3,))
        labels = gen.integers(0, 3, size=2)
    elif head == "quadratic":
        hw = hb = None
    else:
        raise ValueError(f"unknown head {head!r}")

    def build_loss(ps: Sequence[np.ndarray], xs: np.ndarray):
        record = T.ComputationRecord()
        x_node = record.leaf(xs, kind="input")
        p_nodes = [record.leaf(p, kind="param") for p in ps]
        feats = T.feature_stack(record, spec, p_nodes, x_node)
        if head == "quadratic":
            loss = record.scale(record.sum(record.square(feats)), 0.5)
            return record, loss, x_node
        w_node = record.leaf(hw, kind="param")
        b_node = record.leaf(hb, kind="param")
        logits = record.affine(feats, w_node, b_node)
        if head == "sigmoid":
            loss = record.sum(record.sigmoid(logits))
        else:
            loss = record.scale(record.sum(record.select(record.log_softmax(logits), labels)), -1.0)
        return record, loss, x_node

    record, loss, x_node = build_loss(params, x)
    record.backward(loss)
    grads = [n.grad if n.grad is not None else np.zeros_like(n.value)
             for n in record.param_nodes()]
    gx = x_node.grad if x_node.grad is not None else np.zeros_like(x)

    def loss_value(ps, xs) -> float:
        _, node, _ = build_loss(ps, xs)
        return float(node.value)

    all_params = params if head == "quadratic" else params + [hw, hb]

    def central_difference(arr: np.ndarray, ci: int) -> float:
        # perturb the array itself: reshape(-1) would copy a channel-last kernel
        at = np.unravel_index(ci, arr.shape)
        orig = arr[at]
        arr[at] = orig + h
        up = loss_value(params, x)
        arr[at] = orig - h
        down = loss_value(params, x)
        arr[at] = orig
        return (up - down) / (2 * h)

    max_p = 0.0
    checked = 0
    for _ in range(n_coords):
        ti = int(gen.integers(0, len(all_params)))
        ci = int(gen.integers(0, all_params[ti].size))
        numeric = central_difference(all_params[ti], ci)
        analytic = grads[ti].reshape(-1)[ci]
        max_p = max(max_p, rel_err(analytic, numeric))
        checked += 1

    max_x = 0.0
    for _ in range(n_coords):
        ci = int(gen.integers(0, x.size))
        numeric = central_difference(x, ci)
        analytic = gx.reshape(-1)[ci]
        max_x = max(max_x, rel_err(analytic, numeric))
        checked += 1

    return GradCheckReport(max_p, max_x, checked)


def cell_mass_at(p: O.GridDensity, points) -> np.ndarray:
    """Mass of the cell containing each point (0 outside the bounds)."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    (x0, x1), (y0, y1) = p.bounds
    nx, ny = p.resolution
    ix = np.floor((pts[:, 0] - x0) / (x1 - x0) * nx).astype(np.intp)
    iy = np.floor((pts[:, 1] - y0) / (y1 - y0) * ny).astype(np.intp)
    inside = (ix >= 0) & (ix < nx) & (iy >= 0) & (iy < ny)
    out = np.zeros(pts.shape[0])
    out[inside] = p.mass[ix[inside], iy[inside]]
    return out


def read_pgm(path) -> np.ndarray:
    """The pixels of a binary PGM (P5) file of maxval 255."""
    data = Path(path).read_bytes()
    assert data.startswith(b"P5\n"), f"{path}: not a raw PGM file"
    dims, rest = data[3:].split(b"\n", 1)
    maxval, payload = rest.split(b"\n", 1)
    w, h = (int(tok) for tok in dims.split())
    assert maxval == b"255", f"{path}: unsupported maxval {maxval!r}"
    assert len(payload) == w * h, f"{path}: truncated pixel payload"
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w)
