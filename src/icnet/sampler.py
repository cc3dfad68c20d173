"""Pseudo-negative synthesis.

Chains start at reference-distribution draws and ascend the classifier's
logit (the log probability ratio) with respect to the input. One update
function takes either rule: an Adam-style adaptive ascent ("plain-gradient")
or a Langevin step whose noise variance equals the annealed step size. A
chain stops when its sample first looks positive (option1), first clears a
confidence threshold (option2), or after a fixed step count (option3);
chains that never meet an early-stop criterion are kept and tagged rather
than discarded. Each step evaluates the live chains one bounded graph at a
time; a forward overflow reads as a NaN logit and is tagged like a bad
gradient or an update that leaves a row non-finite.
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


def _step(x, g, m, v, k, config: SamplerConfig, rng: np.random.Generator):
    """One update of the live chains at step k, at the annealed step size:
    (samples, Adam moments, the arrays whose rows decide which chains
    stayed finite). plain-gradient takes an Adam-style ascent step; as
    grad*grad can overflow, which would freeze a chain at step size 0, v_hat
    joins the new sample in the verdict. langevin adds (eps/2) * g and one
    N(0, eps) draw per coordinate from `rng`, and carries no moments (None).
    Either rule's sample is then clamped to config.clamp.
    """
    eps = config.step_size * config.anneal ** k
    if config.method == "langevin":
        out = x + (eps / 2.0) * g + np.sqrt(eps) * rng.standard_normal(x.shape)
        checked = ()
    else:
        m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g * g
        m_hat = m / (1 - ADAM_BETA1 ** (k + 1))
        v_hat = v / (1 - ADAM_BETA2 ** (k + 1))
        out = x + eps * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        checked = (v_hat,)
    if config.clamp is not None:
        out = np.clip(out, config.clamp[0], config.clamp[1])
    return out, m, v, checked + (out,)


def _finite_rows(*arrays: Array) -> Array:
    """Per-row mask: True where every value of the row is finite in every array."""
    return np.logical_and.reduce([np.isfinite(a).reshape(a.shape[0], -1).all(axis=1)
                                  for a in arrays])


def _take(rows, *arrays):
    """Each array's `rows`; None stays None."""
    return [None if a is None else a[rows] for a in arrays]


# Live chains are evaluated in graphs of at most this many rows, so one
# step's memory stays bounded however many chains run: for MNIST_NET the c2
# input-grad patch matrix alone takes about 0.6 MB per row.
MAX_GRAPH_ROWS = 256


def _chain_logits(classifier, x: Array, classes: Array, sweep_below: float):
    """(logits (n,), input gradient like x) of the rows of x in row order,
    from `logit_sum_graph`s over runs of at most MAX_GRAPH_ROWS rows, each
    swept (only if some row's logit is below `sweep_below`; else its gradient
    rows are zero) or dropped before the next is built. A run in which some
    op overflows is halved until each overflowing row is alone, with a NaN
    logit and gradient row. How many rows share a graph moves a row's logit
    only in its last bits (a BLAS sum), but that can move the step at which a
    chain whose logit sits next to a threshold stops.
    """
    n = len(x)
    if n <= MAX_GRAPH_ROWS:
        try:
            # a run of every row reads x itself, not a copy
            grad_pass, seed, logits = N.logit_sum_graph(classifier, x, classes)
        except T.NonFiniteError:
            if n == 1:
                return np.full(1, np.nan), np.full_like(x, np.nan)
        else:
            if logits[logits.argmin()] < sweep_below:  # finite here; cheaper than a count
                return logits, T.input_gradient(grad_pass, seed)
            return logits, np.zeros_like(x)
    # runs of MAX_GRAPH_ROWS rows, or the two halves of a run that overflowed
    size = MAX_GRAPH_ROWS if n > MAX_GRAPH_ROWS else (n + 1) // 2
    runs = [_chain_logits(classifier, *_take(slice(a, a + size), x, classes), sweep_below)
            for a in range(0, n, size)]
    logits, grads = zip(*runs)
    return np.concatenate(logits), np.concatenate(grads)


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


def synthesize_pseudo_negatives(classifier, config: SamplerConfig, classes: Array,
                                rng: np.random.Generator, input_shape):
    """Run one chain per entry of `classes`, the head column whose logit
    the chain ascends (0 on a binary classifier), so a single call
    synthesizes for every class; returns (samples, traces).

    Each step takes every live chain's logit and input gradient from one
    `_chain_logits` call (it says what its graphs can change) and draws one
    Langevin noise array for all of them. The loop carries only the live
    chains; a chain that stops leaves them once, writing back its sample,
    step count and stop reason. Trace logit paths and final logits are read
    from one NaN-filled array at the end. A chain whose forward pass (a NaN
    logit), gradient or update stops being finite is tagged non_finite; the
    rest go on. After a bad gradient or update it keeps the sample of that
    step. After a forward overflow at step k >= 1 it keeps the sample of
    step k - 1, the last whose forward pass was finite, with that step's
    count and logit (at step 0, its start). Zero fixed steps return the
    reference draws themselves.

    Emitted samples are pseudo-negatives by construction: the caller tags
    them with the negative label (or the synthesizing class, multi-class).
    """
    classes = np.asarray(classes, dtype=np.intp)
    count = len(classes)
    x = draw_reference(count, input_shape, config.reference_sigma, rng)
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
    # chain j's logit at step k is paths[k, j]; a chain whose forward pass
    # overflows leaves NaN at that step, one past its trace's last
    paths = np.full((limit + 1, count), np.nan)
    # the live chains, in chain-id order: ids, samples, the samples of the
    # step before (a forward overflow hands those back), Adam moments (None
    # for langevin) and classes; x receives a chain's sample only when the
    # chain stops
    ids, prev_x, live_x, live_classes = np.arange(count), x, x, classes
    live_m, live_v = ((None, None) if config.method == "langevin"
                      else (np.zeros_like(x), np.zeros_like(x)))

    def stop(rows, k, reason, samples=None):
        """Retire the live rows of mask `rows` at step k, writing back their
        rows of `samples` (default live_x), step and reason; returns their count."""
        n = np.count_nonzero(rows)
        if n:  # most calls retire no chain: skip their empty scatters
            j = ids[rows]
            x[j], steps[j], reasons[j] = (live_x if samples is None else samples)[rows], k, reason
        return n

    # overflow is detected and tagged per row below, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(limit + 1):
            if not ids.size:  # the update tagged every live chain
                break
            # a run whose every chain stops here, or any run at the limit step, goes unswept
            logits, g = _chain_logits(classifier, live_x, live_classes,
                                      early_at if k < limit else -math.inf)
            paths[k, ids] = logits
            leaving = early = logits >= early_at  # False for a NaN logit
            left = stop(early, k, early_reason)
            # a forward overflow (a NaN logit) writes back the step before's
            # sample, the last whose forward pass was finite
            if k == limit:  # no gradient: a NaN logit, neither >= nor <, marks an overflow
                stop(logits < early_at, k, at_limit)
                stop(np.isnan(logits), max(k - 1, 0), STOP_NON_FINITE, prev_x)
                break
            # a forward overflow's NaN gradient row fails here with a bad gradient's
            if not T.all_finite(g):
                failed = ~(early | _finite_rows(g))
                overflowed = np.isnan(logits)
                left += stop(failed & ~overflowed, k, STOP_NON_FINITE)
                left += stop(overflowed, max(k - 1, 0), STOP_NON_FINITE, prev_x)
                leaving = early | failed
            if left:  # some chain stopped: gather the others
                if left == ids.size:
                    break
                ids, prev_x, live_x, live_m, live_v, live_classes, g = _take(
                    ~leaving, ids, prev_x, live_x, live_m, live_v, live_classes, g)
            new_x, new_m, new_v, checked = _step(live_x, g, live_m, live_v, k, config, rng)
            if not all(map(T.all_finite, checked)):
                ok = _finite_rows(*checked)
                stop(~ok, k, STOP_NON_FINITE)
                ids, live_x, new_x, new_m, new_v, live_classes = _take(
                    ok, ids, live_x, new_x, new_m, new_v, live_classes)
            prev_x, live_x, live_m, live_v = live_x, new_x, new_m, new_v

    final_logits = paths[steps, np.arange(count)]
    path_ends = steps + ~np.isnan(final_logits)
    confidences = T.sigmoid_value(final_logits)
    traces = [SynthesisTrace(int(steps[j]), float(final_logits[j]),
                             float(confidences[j]), reasons[j], paths[:path_ends[j], j].copy())
              for j in range(count)]
    return x, traces
