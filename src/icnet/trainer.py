"""Reclassification by synthesis.

The outer loop alternates two moves: sample pseudo-negatives from the
classifier's own implied negative distribution, then retrain the classifier
on the original data plus every pseudo-negative collected so far. The loop
covers the binary setting (loss: -sum ln q(y|x) over S minus sum ln q(-1|x)
over the store), the joint softmax multi-class setting (cross-entropy on S
weighted 1-alpha, plus alpha times a softplus that pushes the tagged class
logit down on pseudo-negatives) and a one-vs-all ensemble of independent
binary members, all through `run_reclassification_by_synthesis`. The plain
baseline is the loop with no rounds; the noise ablation is the loop with
zero-step chains, whose samples are their reference draws.

Determinism: every random decision draws from a stream keyed by
(seed, stream id, round, ...), so runs with equal configs are bitwise equal.
"""

import math
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from . import data as D
from . import network as N
from . import sampler as S
from . import tensor as T
from .seeding import (STREAM_EPOCH, STREAM_INIT, STREAM_MEMBER, STREAM_SYNTH,
                      rng)

Array = np.ndarray


class TrainerError(Exception):
    pass


class TrainingDivergedError(TrainerError):
    pass


@dataclass
class TrainConfig:
    rounds: int = 8                 # T
    pseudo_per_round: int = 50      # l (per class in multi-class)
    epochs_per_round: int = 5
    init_epochs: int = 30
    batch_size: int = 32
    learning_rate: float = 0.025
    lr_drop_round: int = 25
    momentum: float = 0.9
    alpha: float = 0.1
    val_fraction: float = 0.1
    patience: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.rounds < 0 or self.pseudo_per_round < 0:
            raise TrainerError("rounds and pseudo_per_round must be nonnegative")
        # alpha = 0 is legal: the weighted loss reduces to the plain one
        if not 0.0 <= self.alpha < 1.0:
            raise TrainerError("alpha must lie in [0, 1)")
        if not 0.0 <= self.val_fraction < 1.0:
            raise TrainerError("val_fraction must lie in [0, 1)")
        if self.batch_size < 1:
            raise TrainerError("batch_size must be positive")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise TrainerError(
                f"learning_rate must be finite and positive, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise TrainerError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.init_epochs < 0 or self.epochs_per_round < 0:
            raise TrainerError("init_epochs and epochs_per_round must be nonnegative")
        if self.patience < 1:
            raise TrainerError(f"patience must be at least 1, got {self.patience}")
        if self.lr_drop_round < 0:
            raise TrainerError(f"lr_drop_round must be at least 0, got {self.lr_drop_round}")


@dataclass
class RoundMetrics:
    round: int
    epoch_losses: list[float]
    train_loss: float
    val_error: float
    val_loss: float
    store_size: int
    # the round's chains by stop reason (sampler.STOP_*); empty without synthesis
    stop_reasons: Counter = field(default_factory=Counter)


@dataclass
class RunResult:
    classifier: object            # state after the last executed round
    selected: object              # best-validation copy; without a validation
                                  # split, a copy of the final classifier
    metrics: list[RoundMetrics]
    store: D.PseudoNegativeStore
    stopped_round: int | None     # round at which patience fired, else None
    # always empty; kept because bench/worker.py sums the bytes held here
    snapshots: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# SGD epochs over the union of S and the store
# ---------------------------------------------------------------------------

def _check_classes(index, count: int, what: str) -> None:
    if len(index) and (index.min() < 0 or index.max() >= count):
        raise TrainerError(f"{what} outside 0..{count - 1}")

def _sgd_epochs(c, x_s, y_s, x_pn, tags, alpha, lr, epochs, config: TrainConfig,
                gen: np.random.Generator) -> list[float]:
    """Momentum SGD over shuffled unions of S and pseudo-negatives x_pn,
    one tag per row; returns the per-epoch mean loss trace. Momentum
    buffers are fresh per call; the update runs on c's flat parameter
    array (`_pack`).

    Each batch loss is the mean over its rows of one head loss over the
    batch's S rows, then its store rows marked negative. A binary head's
    labels are 0 and 1; its pseudo-negatives read no tag, so tags go unchecked."""
    _check_classes(y_s, max(c.n_classes, 2), "labels")
    if not c.binary:
        _check_classes(tags, c.n_classes, "pseudo-negative tag")
    n_s = x_s.shape[0]
    n_total = n_s + len(x_pn)
    flat, velocity, grad = _pack(c)
    losses = []
    for epoch in range(epochs):
        order = gen.permutation(n_total)
        epoch_sum = 0.0
        for at in range(0, n_total, config.batch_size):
            batch = order[at:at + config.batch_size]
            s_rows = batch[batch < n_s]
            pn_rows = batch[batch >= n_s] - n_s
            x, y, negative = x_s[s_rows], y_s[s_rows], None
            if pn_rows.size:
                # per batch, never per dataset; an empty store's samples are 1-D
                x = np.concatenate([x, x_pn[pn_rows]])
                y = np.concatenate([y, tags[pn_rows]])
                negative = np.arange(batch.size) >= s_rows.size
            try:
                loss = _sgd_step(c, x, y, negative, alpha, flat, velocity, grad, lr,
                                 config.momentum)
            except T.NonFiniteError as exc:
                raise TrainingDivergedError(
                    f"training diverged at epoch {epoch}, sample offset {at}: {exc}"
                ) from None
            epoch_sum += loss * batch.size
        losses.append(epoch_sum / n_total)
    return losses


def _pack(c):
    """c's flat parameter array (see `N.Classifier`), a zeroed momentum
    buffer of its size, and a gradient buffer with its views laid out as
    c's parameters. A parameter field bound to an array outside the flat
    one would never be updated, so it raises TrainerError."""
    params = c.all_params()
    if any(p.base is not c.flat for p in params):
        raise TrainerError("a classifier parameter is not a view of its flat array")
    # np.zeros, not zeros_like: fresh zero pages, no 34.6 MB fill per call on MNIST_NET
    grad = np.zeros(c.flat.size)
    return c.flat, np.zeros(c.flat.size), (grad, T.flat_views(grad, params))


def _sgd_step(c, x, labels, negative, alpha, flat, velocity, grad, lr, momentum) -> float:
    """One momentum step on the batch's mean loss; returns that loss.
    `flat`, `velocity` and `grad` are `_pack`'s. One gradient pass writes
    every parameter's gradient into the gradient buffer, and the update
    runs once over the flat arrays, which are checked for NaN/Inf here,
    where the parameters are written, so passes need not rescan them; a
    non-finite one raises NonFiniteError."""
    g, grads = grad
    scale = 1.0 / len(x)
    grad_pass, logits = N.head_pass(c, x, grads, input_grad=False)
    total, seed = N.head_loss(logits, labels, negative, alpha, scale)
    T.param_gradients(grad_pass, seed)
    velocity *= momentum
    g *= lr
    velocity -= g
    flat += velocity
    if not T.all_finite(flat):
        raise T.NonFiniteError("the update left a parameter with NaN or Inf")
    return scale * total


def reclassification_step(c, x_s, y_s, store: D.PseudoNegativeStore,
                          config: TrainConfig, round_t: int,
                          gen: np.random.Generator) -> list[float]:
    """One round's retraining on S union S_pn. The learning rate drops by 10x
    from lr_drop_round on; alpha weighting applies only to the multi-class
    integrated loss. Returns the per-epoch loss trace."""
    lr = config.learning_rate / (10.0 if round_t >= config.lr_drop_round else 1.0)
    return _sgd_epochs(c, x_s, y_s, store.samples, store.tags, config.alpha, lr,
                       config.epochs_per_round, config, gen)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def error_rate(model, x, y) -> float:
    """Share of rows whose predicted label differs from y (`N.labeled_chunks`)."""
    wrong = sum(int((N.predict_label(model, xb) != yb).sum()) for xb, yb in N.labeled_chunks(x, y))
    return wrong / len(x)


def _val_stats(c, x, y) -> tuple[float, float]:
    """(error, mean plain loss) on a held-out set; alpha plays no role here.
    Both are read off one checked forward that keeps no backward rule and
    the head loss, the loss SGD minimizes on labeled rows, per chunk of
    `N.labeled_chunks`, so the peak does not grow with the set."""
    if len(x) == 0:
        return float("nan"), float("nan")
    wrong, total = 0, 0.0
    for xb, yb in N.labeled_chunks(x, y):
        logits = N.class_logits(c, xb)
        wrong += int((N.labels_from_logits(logits) != yb).sum())
        total += N.head_loss(logits, yb)[0]
    return wrong / len(x), total / len(x)


# ---------------------------------------------------------------------------
# the outer loop
# ---------------------------------------------------------------------------

def _snapshot(c):
    # np.copy keeps each array's memory layout; ndarray.copy would make a
    # channel-last kernel C-ordered
    return [np.copy(p) for p in c.all_params()]


def _default_synthesizer(sampler_config: S.SamplerConfig, input_shape):
    def synthesize(classifier, classes, gen):
        return S.synthesize_pseudo_negatives(classifier, sampler_config, classes, gen,
                                             input_shape)
    return synthesize


def _rounds(ds: D.LabeledDataset, spec, config: TrainConfig, sampler_config, mode, synthesize):
    """One run as a generator, which `run_reclassification_by_synthesis`
    drives: yields (metrics_row, classifier, store) after each round's
    training, before the patience check; returns the RunResult. Round 0
    trains on S alone; every later round synthesizes, then retrains."""
    if mode not in ("binary", "multiclass"):
        raise TrainerError(f"unknown mode {mode!r}")
    if len(ds) == 0:
        raise TrainerError("empty training set")
    if ds.class_count < 2 or (mode == "binary" and ds.class_count > 2):
        want = "two classes" if mode == "binary" else "two classes or more"
        raise TrainerError(f"{mode} mode needs {want}, not {ds.class_count}")
    if np.count_nonzero(np.bincount(ds.labels)) < 2:
        raise TrainerError(f"{mode} mode needs two classes present in the training set")
    n_val = int(round(config.val_fraction * len(ds)))
    if n_val >= len(ds):
        raise TrainerError(f"train.val_fraction = {config.val_fraction} leaves no training "
                           f"row: {n_val} of the {len(ds)} rows would validate")
    input_shape = ds.samples.shape[1:]
    synthesize = synthesize or _default_synthesizer(sampler_config or S.SamplerConfig(),
                                                    input_shape)
    if n_val > 0:
        train_ds, val_ds = D.split_dataset(ds, len(ds) - n_val, config.seed)
    else:
        train_ds, val_ds = ds, ds.subset([])
    x_s, y_s = train_ds.samples, train_ds.labels

    c = N.init_multiclass(spec, input_shape, 1 if mode == "binary" else ds.class_count,
                          rng(config.seed, STREAM_INIT))
    store = D.PseudoNegativeStore()
    # each round's chains, pseudo_per_round per head column, in column order
    classes = np.repeat(np.arange(c.n_classes), config.pseudo_per_round)
    metrics, best_params, best_error = [], None, math.inf
    rounds_since_best, stopped_round, traces = 0, None, None  # round 0 runs no chain
    for t in range(config.rounds + 1):
        if t == 0:
            losses = _sgd_epochs(c, x_s, y_s, store.samples, store.tags, 0.0,
                                 config.learning_rate, config.init_epochs, config,
                                 rng(config.seed, STREAM_EPOCH, 0))
        else:
            samples, traces = synthesize(c, classes, rng(config.seed, STREAM_SYNTH, t))
            # a binary head's pseudo-negatives carry the negative tag
            store.add_batch(t, -1 if c.binary else classes, samples)
            losses = reclassification_step(c, x_s, y_s, store, config, t,
                                           rng(config.seed, STREAM_EPOCH, t))
        val_error, val_loss = _val_stats(c, val_ds.samples, val_ds.labels)
        metrics.append(RoundMetrics(t, losses, losses[-1] if losses else float("nan"),
                                    val_error, val_loss, len(store),
                                    Counter(tr.stop_reason for tr in traces or ())))
        yield metrics[-1], c, store
        if not len(val_ds):
            continue  # no validation split: no early stopping
        if val_error < best_error - 1e-12:
            best_error = val_error
            best_params = _snapshot(c)
            rounds_since_best = 0
        else:
            rounds_since_best += 1
            if rounds_since_best >= config.patience:
                stopped_round = t
                break

    # a copy of the final or the best-validation parameters
    params = c.all_params() if best_params is None else best_params
    selected = N.Classifier(c.spec, params[:-2], params[-2], params[-1])
    return RunResult(c, selected, metrics, store, stopped_round)


def member_seed(seed: int, class_index: int) -> int:
    """Deterministic per-member seed; members are fully independent."""
    ss = np.random.SeedSequence([seed, STREAM_MEMBER, class_index])
    return int(ss.generate_state(1)[0])


def _ensemble_round(reached):
    """One round's (row, ensemble, merged store) from every member's."""
    rows, live, stores = zip(*reached)
    row = RoundMetrics(
        rows[0].round, np.mean([r.epoch_losses for r in rows], axis=0).tolist(),
        float(np.mean([r.train_loss for r in rows])),
        float(np.mean([r.val_error for r in rows])),
        float(np.mean([r.val_loss for r in rows])),
        sum(r.store_size for r in rows), sum((r.stop_reasons for r in rows), Counter()))
    return row, N.OneVsAllEnsemble(list(live)), _merged_store(stores)


def _merged_store(stores):
    """One store holding each member's rows in member order, tagged with
    the member's class."""
    tags = [np.full(len(s), k) for k, s in enumerate(stores)]
    return D.PseudoNegativeStore(np.concatenate([s.samples for s in stores]),
                                 np.concatenate([s.rounds for s in stores]), np.concatenate(tags))


def run_reclassification_by_synthesis(ds: D.LabeledDataset, spec,
                                      config: TrainConfig,
                                      sampler_config: S.SamplerConfig | None = None,
                                      mode: str = "binary",
                                      synthesize=None, on_round=None) -> RunResult:
    """The one training entry point: an initial classifier on S, then
    `rounds` rounds of synthesize / augment / retrain with validation-based
    early stopping; `rounds = 0` is the plain baseline. `synthesize(
    classifier, classes, gen)`, if given, replaces the sampler: it returns
    (samples, traces or None), one sample per entry of `classes`, each
    the head column its chain ascends (0 on a binary classifier).

    `mode` is "binary", "multiclass" or "one-vs-all": K binary members,
    class k versus the rest, merged by argmax and trained round-major. Its
    rows are member means over the rounds all members reached; members that
    stop later train on without reports. `selected` is the ensemble of the
    members' selected classifiers, `stopped_round` the first member's stop.

    `on_round(metrics_row, classifier, store)`, if given, is called after
    round 0 and after each round's retrain, before the patience check. The
    classifier and store are live and keep changing, so the callback must
    copy what it keeps. Parameters are copied only at each new best
    validation error."""
    one_vs_all = mode == "one-vs-all"
    if one_vs_all:
        counts = np.bincount(ds.labels, minlength=ds.class_count)
        missing = np.flatnonzero(counts == 0)
        if missing.size:
            raise TrainerError(f"no training samples for class {missing[0]}")
        # member k: class k versus the rest, on its own seed
        members = [_rounds(D.LabeledDataset(ds.samples, ds.labels == k, 2), spec,
                           replace(config, seed=member_seed(config.seed, k)),
                           sampler_config, "binary", synthesize)
                   for k in range(ds.class_count)]
    else:
        members = [_rounds(ds, spec, config, sampler_config, mode, synthesize)]
    results = [None] * len(members)
    metrics = []
    while None in results:
        reached = []
        for k, member in enumerate(members):
            if results[k] is None:
                try:
                    reached.append(next(member))
                except StopIteration as done:
                    results[k] = done.value
        if len(reached) < len(members):
            continue  # a member has stopped: no report from here on
        row, c, store = _ensemble_round(reached) if one_vs_all else reached[0]
        metrics.append(row)
        if on_round is not None:
            on_round(row, c, store)
    if not one_vs_all:
        return results[0]
    stops = [r.stopped_round for r in results if r.stopped_round is not None]
    return RunResult(N.OneVsAllEnsemble([r.classifier for r in results]),
                     N.OneVsAllEnsemble([r.selected for r in results]), metrics,
                     _merged_store([r.store for r in results]), min(stops, default=None))
