"""Pseudo-negative synthesis.

Chains start at reference-distribution draws and ascend the classifier's
logit (the log probability ratio) with respect to the input, by either an
Adam-style adaptive ascent ("plain-gradient") or Langevin steps whose noise
variance equals the annealed step size. A chain stops when its sample first
looks positive (option1), first clears a confidence threshold (option2), or
after a fixed step count (option3); chains that never meet an early-stop
criterion are kept and tagged rather than discarded.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import network as N
from . import tensor as T

Array = np.ndarray

STOP_POSITIVE = "positive"
STOP_THRESHOLD = "threshold"
STOP_FIXED = "fixed_steps"
STOP_MAX = "max_steps"
STOP_NON_FINITE = "non_finite"

ADAM_BETA1 = 0.5
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class SamplerError(Exception):
    pass


@dataclass
class SamplerConfig:
    method: str = "plain-gradient"  # or "langevin"
    stopping: str = "option2"       # option1 | option2 | option3
    step_size: float = 0.02
    anneal: float = 0.99
    max_steps: int = 500
    confidence_threshold: float = 0.95
    fixed_steps: int | None = None
    clamp: tuple[float, float] | None = None
    reference_sigma: float = 0.3
    noise: bool = True              # test hook: disables Langevin noise

    def __post_init__(self):
        if self.method not in ("plain-gradient", "langevin"):
            raise SamplerError(f"unknown method {self.method!r}")
        if self.stopping not in ("option1", "option2", "option3"):
            raise SamplerError(f"unknown stopping rule {self.stopping!r}")
        if not (math.isfinite(self.step_size) and self.step_size > 0):
            raise SamplerError(f"step_size must be finite and positive, got {self.step_size}")
        if self.max_steps < 0:
            raise SamplerError(f"max_steps must be at least 0, got {self.max_steps}")
        if not (math.isfinite(self.reference_sigma) and self.reference_sigma >= 0):
            raise SamplerError("reference_sigma must be finite and at least 0, "
                               f"got {self.reference_sigma}")
        if not 0 < self.anneal <= 1:
            raise SamplerError("anneal must lie in (0, 1]")
        if self.stopping == "option2" and not 0 < self.confidence_threshold < 1:
            raise SamplerError("option2 needs a confidence threshold in (0, 1)")
        if self.stopping == "option3":
            if self.fixed_steps is None:
                raise SamplerError("option3 needs fixed_steps")
            if not 0 <= self.fixed_steps <= self.max_steps:
                raise SamplerError("fixed_steps must lie in [0, max_steps]")


@dataclass
class SynthesisTrace:
    steps: int
    final_logit: float
    final_confidence: float
    stop_reason: str
    logit_path: Array = field(repr=False, default=None)


def draw_reference(count: int, dims, sigma: float, rng: np.random.Generator) -> Array:
    """i.i.d. zero-mean Gaussian draws, std sigma per coordinate."""
    if count < 1:
        raise SamplerError("need at least one draw")
    shape = (count,) + ((dims,) if isinstance(dims, int) else tuple(dims))
    return sigma * rng.standard_normal(shape)


def langevin_step(x: Array, grad: Array, eps: float, rng: np.random.Generator,
                  noise: bool = True, clamp=None) -> Array:
    """x + (eps/2) * grad + eta with eta ~ N(0, eps) per coordinate."""
    if grad.shape != x.shape:
        raise SamplerError(f"gradient shape {grad.shape} vs sample shape {x.shape}")
    if not T.all_finite(grad):
        raise SamplerError("non-finite gradient")
    out = x + (eps / 2.0) * grad
    if noise:
        out = out + np.sqrt(eps) * rng.standard_normal(x.shape)
    if clamp is not None:
        out = np.clip(out, clamp[0], clamp[1])
    return out


def _adam_step(x, grad, m, v, k, config: SamplerConfig, eps_k: float):
    """One Adam-style ascent step; also returns v_hat, whose rows decide
    which chains stayed finite.

    grad*grad can overflow, which would freeze a chain at step size 0. A
    finite v_hat bounds the step, so it alone decides the row's finiteness.
    """
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    m = b1 * m + (1 - b1) * grad
    v = b2 * v + (1 - b2) * grad * grad
    m_hat = m / (1 - b1 ** (k + 1))
    v_hat = v / (1 - b2 ** (k + 1))
    out = x + eps_k * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    if config.clamp is not None:
        out = np.clip(out, config.clamp[0], config.clamp[1])
    return out, m, v, v_hat


def _finite_rows(a: Array) -> Array:
    """Per-row mask: True where every value of the row is finite."""
    return np.isfinite(a).reshape(a.shape[0], -1).all(axis=1)


def _take(rows, *arrays):
    """Each array's `rows`; None stays None."""
    return [None if a is None else a[rows] for a in arrays]


# Live chains are evaluated in graphs of at most this many rows, so one
# step's memory stays bounded however many chains run: for MNIST_NET the c2
# input-grad patch matrix alone takes about 0.6 MB per row.
MAX_GRAPH_ROWS = 256


def _chain_graphs(classifier, x: Array, rows: Array, classes: Array | None):
    """`logit_sum_graph`s over x[rows] in row order, in runs of MAX_GRAPH_ROWS
    rows; returns (overflowing rows, [(rows, graph), ...]).

    A run in which some op overflows is halved until each overflowing row
    is alone, and that row is dropped. How many rows share a graph moves a
    row's logit only in its last bits (a BLAS sum), but that can move the
    step at which a chain whose logit sits next to a threshold stops.
    """
    if rows.size > MAX_GRAPH_ROWS:
        parts = np.split(rows, range(MAX_GRAPH_ROWS, rows.size, MAX_GRAPH_ROWS))
    else:
        try:
            # rows are distinct, so a run of len(x) of them is all of x: no gather
            run_x, run_classes = (x, classes) if rows.size == len(x) else _take(rows, x, classes)
            graph = N.logit_sum_graph(classifier, run_x, run_classes)
            return rows[:0], [(rows, graph)]
        except T.NonFiniteError:
            if rows.size == 1:
                return rows, []
        parts = np.array_split(rows, 2)
    overflowed, graphs = [], []
    for part in parts:
        part_overflowed, part_graphs = _chain_graphs(classifier, x, part, classes)
        overflowed.append(part_overflowed)
        graphs += part_graphs
    return np.concatenate(overflowed), graphs


@functools.lru_cache
def logit_threshold(p: float) -> float:
    """The smallest double t with `T.sigmoid_value(t) >= p`, for p in (0, 1).

    sigmoid_value never decreases, so a logit z clears confidence p exactly
    when z >= t. t is found by bisection over the doubles in order (their
    bit patterns, sign folded), asking sigmoid_value itself rather than
    inverting it, so no rounding of a closed form can move the boundary.
    The bisection runs once per p; later calls read the cache.
    """
    def key(d: float) -> int:
        bits = int(np.float64(d).view(np.int64))
        return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)

    def double(k: int) -> np.float64:
        return np.int64(k if k >= 0 else -k | -(1 << 63)).view(np.float64)

    lo, hi = key(-math.inf), key(math.inf)  # sigmoid 0 < p and 1 >= p
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if T.sigmoid_value(double(mid)) >= p:
            hi = mid
        else:
            lo = mid
    return float(double(hi))


def synthesize_pseudo_negatives(classifier, config: SamplerConfig, count: int,
                                rng: np.random.Generator, input_shape,
                                class_index: int | Array | None = None,
                                init: Array | None = None):
    """Run `count` chains; returns (samples, traces).

    On a multi-class classifier `class_index` names each chain's head: one
    int for every chain, or one int per chain, so a single call synthesizes
    for every class. Each step runs the live chains in graphs of at most
    MAX_GRAPH_ROWS rows (`_chain_graphs` says what a split can change) and
    draws one Langevin noise array for all of them. The loop carries only
    the live chains; a chain that stops leaves them once, writing back its
    sample, step count and stop reason. Trace logit paths and final logits
    are read from one NaN-filled array at the end. A chain whose forward
    pass, gradient or update stops being finite is tagged non_finite and
    keeps its last finite sample; the other chains go on.

    Emitted samples are pseudo-negatives by construction: the caller tags
    them with the negative label (or the synthesizing class, multi-class).
    `init` overrides the reference draw (test hook).
    """
    if init is None:
        x = draw_reference(count, input_shape, config.reference_sigma, rng)
    else:
        x = np.array(init, dtype=np.float64)
        if x.shape[0] != count:
            raise SamplerError(f"init holds {x.shape[0]} rows, expected {count}")
        if not T.all_finite(x):
            raise SamplerError("init holds non-finite values")
    classes = None
    if class_index is not None:
        classes = np.asarray(class_index, dtype=np.intp)
        if classes.ndim == 0:
            classes = np.full(count, classes)
        if classes.shape != (count,):
            raise SamplerError(f"class_index holds {classes.shape} entries, "
                               f"expected one or {count}")
    # early stop at logit >= early_at (option1's logit > 0 is >= the least positive double)
    limit, at_limit = config.max_steps, STOP_MAX
    if config.stopping == "option1":
        early_at, early_reason = math.ulp(0.0), STOP_POSITIVE
    elif config.stopping == "option2":
        early_at, early_reason = logit_threshold(config.confidence_threshold), STOP_THRESHOLD
    else:
        early_at, early_reason = math.inf, None
        limit, at_limit = config.fixed_steps, STOP_FIXED
    steps = np.zeros(count, dtype=int)
    reasons = np.full(count, "", dtype=object)
    # chain j's logit at step k is paths[k, j]; a chain tagged in its forward
    # pass leaves NaN at its last step
    paths = np.full((limit + 1, count), np.nan)
    # the live chains, in chain-id order: ids, samples, Adam moments and
    # classes; x receives a chain's sample only when the chain stops
    ids, live_x, live_m, live_v, live_classes = (
        np.arange(count), x, np.zeros_like(x), np.zeros_like(x), classes)

    def stop(rows, k, reason):
        """Retire the live rows `rows` at step k, writing back sample, step and reason."""
        if rows.size:  # most calls retire no chain: skip their empty scatters
            j = ids[rows]
            x[j], steps[j], reasons[j] = live_x[rows], k, reason

    # overflow is detected and tagged per row below, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(limit + 1):
            if not ids.size:  # the update tagged every live chain
                break
            overflowed, graphs = _chain_graphs(classifier, live_x, np.arange(ids.size),
                                               live_classes)
            stop(overflowed, k, STOP_NON_FINITE)
            moving, grads = [], []
            for rows, (record, scalar, logits) in graphs:
                paths[k, ids[rows]] = logits
                stop_now = logits >= early_at
                stopping = stop_now.any()
                if stopping:
                    stop(rows[stop_now], k, early_reason)
                if k == limit:
                    stop(rows[~stop_now], k, at_limit)
                elif not (stopping and stop_now.all()):
                    # a slice keeps the common all-moving case free of gathers
                    keep = ~stop_now if stopping else slice(None)
                    moving.append(rows[keep])
                    grads.append(T.input_gradient(record, scalar)[keep])
            if not moving:
                break
            if len(moving) == 1:  # one graph: its rows and gradient as they are
                moving, g = moving[0], grads[0]
            else:
                moving, g = np.concatenate(moving), np.concatenate(grads)
            if not T.all_finite(g):
                ok = _finite_rows(g)
                stop(moving[~ok], k, STOP_NON_FINITE)
                moving, g = moving[ok], g[ok]
                if moving.size == 0:
                    break
            if moving.size < ids.size:  # some chain stopped: gather the others
                ids, live_x, live_m, live_v, live_classes = _take(
                    moving, ids, live_x, live_m, live_v, live_classes)
            eps_k = config.step_size * config.anneal ** k
            if config.method == "langevin":
                new_x = langevin_step(live_x, g, eps_k, rng,
                                      noise=config.noise, clamp=config.clamp)
                new_m, new_v, bound = live_m, live_v, new_x
            else:
                new_x, new_m, new_v, bound = _adam_step(
                    live_x, g, live_m, live_v, k, config, eps_k)
            if not T.all_finite(bound):
                ok = _finite_rows(bound)
                stop(~ok, k, STOP_NON_FINITE)
                ids, new_x, new_m, new_v, live_classes = _take(
                    ok, ids, new_x, new_m, new_v, live_classes)
            live_x, live_m, live_v = new_x, new_m, new_v

    final_logits = paths[steps, np.arange(count)]
    path_ends = steps + ~np.isnan(final_logits)
    confidences = T.sigmoid_value(final_logits)
    traces = [SynthesisTrace(int(steps[j]), float(final_logits[j]),
                             float(confidences[j]), reasons[j], paths[:path_ends[j], j].copy())
              for j in range(count)]
    return x, traces
