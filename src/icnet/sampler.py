"""Pseudo-negative synthesis.

Chains start at reference-distribution draws and ascend the classifier's
logit (the log probability ratio) with respect to the input, by either an
Adam-style adaptive ascent ("plain-gradient") or Langevin steps whose noise
variance equals the annealed step size. A chain stops when its sample first
looks positive (option1), first clears a confidence threshold (option2), or
after a fixed step count (option3); chains that never meet an early-stop
criterion are kept and tagged rather than discarded.
"""

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
        if self.step_size <= 0:
            raise SamplerError("step_size must be positive")
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
    """One Adam-style ascent step; also returns which rows stayed finite.

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
    return out, m, v, _finite_rows(v_hat)


def _finite_rows(a: Array) -> Array:
    """Per-row mask: True where every value of the row is finite."""
    return np.isfinite(a).reshape(a.shape[0], -1).all(axis=1)


# Active chains are evaluated in graphs of at most this many rows, so one
# step's memory stays bounded however many chains run: for MNIST_NET the c2
# input-grad patch matrix alone takes about 0.6 MB per row.
MAX_GRAPH_ROWS = 256


def _chain_graphs(classifier, x: Array, rows: Array, classes: Array | None):
    """`logit_sum_graph`s over x[rows]; returns (overflowing rows, [(rows,
    graph), ...]).

    Rows whose forward pass overflows are dropped. Rows whose logits are all
    finite but whose taped sum overflows are split in halves, each with its
    own graph; the sum decouples over rows, so no row's gradient changes.
    """
    try:
        graph = N.logit_sum_graph(classifier, x[rows],
                                  None if classes is None else classes[rows])
        return rows[:0], [(rows, graph)]
    except T.NonFiniteError:
        if rows.size == 1:
            return rows, []
    # only now pay for an untaped forward that finds the offending rows;
    # class_logits also serves a binary head, whose width is 1
    bad = ~_finite_rows(N.class_logits(classifier, x[rows]))
    overflowed, graphs = [rows[bad]], []
    for part in [rows[~bad]] if bad.any() else np.array_split(rows, 2):
        if part.size:
            part_overflowed, part_graphs = _chain_graphs(classifier, x, part, classes)
            overflowed.append(part_overflowed)
            graphs += part_graphs
    return np.concatenate(overflowed), graphs


def synthesize_pseudo_negatives(classifier, config: SamplerConfig, count: int,
                                rng: np.random.Generator, input_shape,
                                class_index: int | Array | None = None,
                                init: Array | None = None):
    """Run `count` chains; returns (samples, traces).

    On a multi-class classifier `class_index` names each chain's head: one
    int for every chain, or one int per chain, so a single call synthesizes
    for every class. Each step evaluates the active chains in graphs of at
    most MAX_GRAPH_ROWS rows and draws one Langevin noise array for all of
    them, so the result does not depend on that cap. A chain whose forward
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
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    steps = np.zeros(count, dtype=int)
    reasons = np.full(count, "", dtype=object)
    final_logits = np.zeros(count)
    active = np.ones(count, dtype=bool)

    def stop(rows, k, reason):
        if rows.size:
            steps[rows], reasons[rows], active[rows] = k, reason, False

    limit = config.fixed_steps if config.stopping == "option3" else config.max_steps
    # chain j's logit path is paths[:path_len[j], j]: a chain active at step
    # k writes row k, so a chain tagged in its forward pass has no entry for
    # its last step
    paths = np.empty((limit + 1, count))
    path_len = np.zeros(count, dtype=np.intp)
    # overflow is detected and tagged per row below, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(limit + 1):
            idx = np.flatnonzero(active)
            if idx.size == 0:
                break
            moving, grads = [], []
            for at in range(0, idx.size, MAX_GRAPH_ROWS):
                overflowed, graphs = _chain_graphs(
                    classifier, x, idx[at:at + MAX_GRAPH_ROWS], classes)
                final_logits[overflowed] = np.nan
                stop(overflowed, k, STOP_NON_FINITE)
                for rows, (record, scalar, logits) in graphs:
                    paths[k, rows] = logits
                    path_len[rows] = k + 1
                    final_logits[rows] = logits
                    if config.stopping == "option1":
                        stop_now = logits > 0.0
                        reason = STOP_POSITIVE
                    elif config.stopping == "option2":
                        stop_now = T.sigmoid_value(logits) >= config.confidence_threshold
                        reason = STOP_THRESHOLD
                    else:
                        stop_now = np.full(rows.size, k == config.fixed_steps)
                        reason = STOP_FIXED
                    stop(rows[stop_now], k, reason)
                    if k == limit:
                        stop(rows[~stop_now], k, STOP_MAX)
                    elif not stop_now.all():
                        moving.append(rows[~stop_now])
                        grads.append(T.input_gradient(record, scalar)[~stop_now])
            if not moving:
                continue
            moving, g = np.concatenate(moving), np.concatenate(grads)
            ok = _finite_rows(g)
            if not ok.all():
                stop(moving[~ok], k, STOP_NON_FINITE)
                moving, g = moving[ok], g[ok]
                if moving.size == 0:
                    continue
            eps_k = config.step_size * config.anneal ** k
            if config.method == "langevin":
                new_x = langevin_step(x[moving], g, eps_k, rng,
                                      noise=config.noise, clamp=config.clamp)
                updated, ok = [(x, new_x)], _finite_rows(new_x)
            else:
                new_x, new_m, new_v, ok = _adam_step(
                    x[moving], g, m[moving], v[moving], k, config, eps_k)
                updated = [(x, new_x), (m, new_m), (v, new_v)]
            if not ok.all():
                stop(moving[~ok], k, STOP_NON_FINITE)
                moving = moving[ok]
                updated = [(target, value[ok]) for target, value in updated]
            for target, value in updated:
                target[moving] = value

    confidences = T.sigmoid_value(final_logits)
    traces = [SynthesisTrace(int(steps[j]), float(final_logits[j]),
                             float(confidences[j]), reasons[j], paths[:path_len[j], j].copy())
              for j in range(count)]
    return x, traces
