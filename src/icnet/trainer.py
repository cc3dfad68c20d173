"""Reclassification by synthesis.

The outer loop alternates two moves: sample pseudo-negatives from the
classifier's own implied negative distribution, then retrain the classifier
on the original data plus every pseudo-negative collected so far. The loop
covers the binary setting (loss: -sum ln q(y|x) over S minus sum ln q(-1|x)
over the store), the joint softmax multi-class setting (cross-entropy on S
weighted 1-alpha, plus alpha times a softplus that pushes the tagged class
logit down on pseudo-negatives), a one-vs-all ensemble of independent binary
members, a noise ablation whose "synthesis" is raw reference draws, and the
plain baseline trainer the regressions compare against.

Determinism: every random decision draws from a stream keyed by
(seed, stream id, round, ...), so runs with equal configs are bitwise equal.
"""

import copy
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
    reinit_each_round: bool = False  # False: fine-tune the previous round's net

    def __post_init__(self):
        if self.rounds < 0 or self.pseudo_per_round < 0:
            raise TrainerError("rounds and pseudo_per_round must be nonnegative")
        # alpha = 0 is legal: the weighted loss reduces to the plain one
        if not 0.0 <= self.alpha < 1.0:
            raise TrainerError("alpha must lie in [0, 1)")
        if not 0.0 <= self.val_fraction < 1.0:
            raise TrainerError("val_fraction must lie in [0, 1)")
        if self.batch_size < 1 or self.learning_rate <= 0:
            raise TrainerError("batch_size and learning_rate must be positive")


@dataclass
class RoundMetrics:
    round: int
    epoch_losses: list[float]
    train_loss: float
    val_error: float
    val_loss: float
    store_size: int
    synth_steps_mean: float


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

def _check_classes(c: N.Classifier, index, what: str) -> None:
    if len(index) and (index.min() < 0 or index.max() >= c.n_classes):
        raise TrainerError(f"{what} outside 0..{c.n_classes - 1}")

def _sgd_epochs(c, x_s, y_s, x_pn, tags, alpha, lr, epochs, config: TrainConfig,
                gen: np.random.Generator) -> list[float]:
    """Momentum SGD over shuffled unions of S and pseudo-negatives x_pn,
    one tag per row; returns the per-epoch mean loss trace. Momentum
    buffers are fresh per call.

    Each batch loss is the mean over its rows of the head graph's labeled
    term on S and negative term on the store slice."""
    if not c.binary:
        _check_classes(c, y_s, "labels")
        _check_classes(c, tags, "pseudo-negative tag")
    n_s = x_s.shape[0]
    n_total = n_s + len(x_pn)
    params = c.all_params()
    velocity = [np.zeros_like(p) for p in params]
    losses = []
    for epoch in range(epochs):
        order = gen.permutation(n_total)
        epoch_sum = 0.0
        for at in range(0, n_total, config.batch_size):
            batch = order[at:at + config.batch_size]
            s_rows = batch[batch < n_s]
            pn_rows = batch[batch >= n_s] - n_s
            terms = []
            if s_rows.size:
                terms.append((N.LABELED, x_s[s_rows], y_s[s_rows]))
            if pn_rows.size:
                terms.append((N.NEGATIVE, x_pn[pn_rows], tags[pn_rows]))
            try:
                loss = _sgd_step(c, terms, alpha, batch.size, params, velocity, lr, config.momentum)
            except T.NonFiniteError as exc:
                raise TrainingDivergedError(
                    f"training diverged at epoch {epoch}, sample offset {at}: {exc}"
                ) from None
            epoch_sum += loss * batch.size
        losses.append(epoch_sum / n_total)
    return losses


def _sgd_step(c, terms, alpha, rows, params, velocity, lr, momentum) -> float:
    """One momentum step on the batch's mean loss; returns that loss. The
    tape and the gradients die with this call, so none of them is still
    held while the next batch's graph is built. Each updated parameter is
    checked for NaN/Inf here, where it is written, so graphs need not
    rescan it; a non-finite one raises NonFiniteError."""
    record, total, _ = N.head_graph(c, terms, alpha, params="param", inputs="const")
    loss = record.scale(total, 1.0 / rows)
    for p, g, v in zip(params, T.param_gradients(record, loss), velocity):
        v *= momentum
        g *= lr  # the gradient is the tape's own: scaled in place, not copied
        v -= g
        p += v
        if not T.all_finite(p):
            raise T.NonFiniteError("the update left a parameter with NaN or Inf")
    return float(loss.value)


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

def error_rate(model, x, y, chunk: int = 256) -> float:
    """Share of rows whose predicted label differs from y."""
    wrong = 0
    for at in range(0, len(x), chunk):
        pred = N.predict_label(model, x[at:at + chunk])
        wrong += int((pred != y[at:at + chunk]).sum())
    return wrong / len(x)


def _val_stats(c, x, y) -> tuple[float, float]:
    """(error, mean plain loss) on a held-out set; alpha plays no role here.
    Both are read off one pass of the head graph's labeled term, the loss
    SGD minimizes, per chunk of at most 64 rows, so the peak does not grow
    with the set."""
    if len(x) == 0:
        return float("nan"), float("nan")
    chunk = 64
    wrong, total = 0, 0.0
    for at in range(0, len(x), chunk):
        y_at = y[at:at + chunk]
        _, loss, (logits,) = N.head_graph(c, [(N.LABELED, x[at:at + chunk], y_at)],
                                          inputs="const")
        wrong += int((N.labels_from_logits(logits) != y_at).sum())
        total += float(loss.value)
    return wrong / len(x), total / len(x)


# ---------------------------------------------------------------------------
# the outer loop
# ---------------------------------------------------------------------------

def _init_classifier(spec, input_shape, mode, n_classes, config):
    return N.init_multiclass(spec, input_shape, 1 if mode == "binary" else n_classes,
                             rng(config.seed, STREAM_INIT))


def _snapshot(c):
    # np.copy keeps each array's memory layout; ndarray.copy would make a
    # channel-last kernel C-ordered
    return [np.copy(p) for p in c.all_params()]


def with_params(c, params):
    """A copy of classifier c carrying the given parameter snapshot."""
    out = copy.copy(c)
    out.set_params([np.copy(p) for p in params])
    return out


def _default_synthesizer(sampler_config: S.SamplerConfig, input_shape):
    def synthesize(classifier, count, gen, class_index=None):
        return S.synthesize_pseudo_negatives(classifier, sampler_config, count, gen,
                                             input_shape, class_index=class_index)
    return synthesize


def noise_synthesizer(sampler_config: S.SamplerConfig, input_shape):
    """Ablation source: reference draws stand in for synthesis."""
    def synthesize(classifier, count, gen, class_index=None):
        return S.draw_reference(count, input_shape,
                                sampler_config.reference_sigma, gen), None
    return synthesize


def _rounds(ds: D.LabeledDataset, spec, config: TrainConfig,
            sampler_config: S.SamplerConfig | None = None, mode: str = "binary",
            synthesize=None):
    """The loop of `run_reclassification_by_synthesis` as a generator: yields
    (metrics_row, classifier, store) after round 0 and after each round's
    retrain, before the patience check, and returns the RunResult."""
    if mode not in ("binary", "multiclass"):
        raise TrainerError(f"unknown mode {mode!r}")
    if len(ds) == 0:
        raise TrainerError("empty training set")
    if mode == "binary" and len(np.unique(ds.labels)) < 2:
        raise TrainerError("binary mode needs both labels present")
    if mode == "multiclass" and ds.class_count < 2:
        raise TrainerError("multiclass mode needs at least two classes")
    input_shape = ds.samples.shape[1:]
    if synthesize is None:
        sampler_config = sampler_config or S.SamplerConfig()
        synthesize = _default_synthesizer(sampler_config, input_shape)

    n_val = int(round(config.val_fraction * len(ds)))
    if n_val > 0:
        train_ds, val_ds = D.split_dataset(ds, [len(ds) - n_val], config.seed)
    else:
        train_ds, val_ds = ds, ds.subset([])
    x_s, y_s = train_ds.samples, train_ds.labels
    n_classes = ds.class_count

    c = _init_classifier(spec, input_shape, mode, n_classes, config)
    store = D.PseudoNegativeStore()
    init_losses = _sgd_epochs(c, x_s, y_s, store.samples, store.tags, 0.0,
                              config.learning_rate, config.init_epochs, config,
                              rng(config.seed, STREAM_EPOCH, 0))
    val_error, val_loss = _val_stats(c, val_ds.samples, val_ds.labels)
    metrics = [RoundMetrics(0, init_losses,
                            init_losses[-1] if init_losses else float("nan"),
                            val_error, val_loss, 0, float("nan"))]
    yield metrics[-1], c, store
    best_params = _snapshot(c) if len(val_ds) else None
    best_error = val_error
    rounds_since_best = 0
    stopped_round = None

    for t in range(1, config.rounds + 1):
        per_class = config.pseudo_per_round
        gen = rng(config.seed, STREAM_SYNTH, t)
        if mode == "binary":
            samples, traces = synthesize(c, per_class, gen)
            store.add_batch(t, -1, samples)
        else:
            # every class's chains in one call, per_class rows each, in class order
            classes = np.repeat(np.arange(n_classes), per_class)
            samples, traces = synthesize(c, classes.size, gen, class_index=classes)
            store.add_batch(t, classes, samples)
        if config.reinit_each_round:
            c = _init_classifier(spec, input_shape, mode, n_classes, config)
        losses = reclassification_step(c, x_s, y_s, store, config, t,
                                       rng(config.seed, STREAM_EPOCH, t))
        val_error, val_loss = _val_stats(c, val_ds.samples, val_ds.labels)
        steps_mean = (float(np.mean([tr.steps for tr in traces]))
                      if traces else float("nan"))
        metrics.append(RoundMetrics(t, losses, losses[-1] if losses else float("nan"),
                                    val_error, val_loss, len(store), steps_mean))
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

    selected = with_params(c, c.all_params() if best_params is None else best_params)
    return RunResult(c, selected, metrics, store, stopped_round)


def run_reclassification_by_synthesis(ds: D.LabeledDataset, spec,
                                      config: TrainConfig,
                                      sampler_config: S.SamplerConfig | None = None,
                                      mode: str = "binary",
                                      synthesize=None, on_round=None) -> RunResult:
    """Full training loop: initial classifier on S, then `rounds` rounds of
    synthesize / augment / retrain with validation-based early stopping.

    `on_round(metrics_row, classifier, store)`, if given, is called after
    round 0 and after each round's retrain, before the patience check. The
    classifier and store are live and keep changing, so the callback must
    copy what it keeps. Parameters are copied only at each new best
    validation error."""
    rounds = _rounds(ds, spec, config, sampler_config, mode, synthesize)
    while True:
        try:
            row, c, store = next(rounds)
        except StopIteration as done:
            return done.value
        if on_round is not None:
            on_round(row, c, store)


def baseline_train(ds: D.LabeledDataset, spec, config: TrainConfig,
                   mode: str = "binary", on_round=None) -> RunResult:
    """Plain training on S alone: exactly the initial phase of the loop, so a
    rounds=0 run must reproduce it bitwise."""
    no_rounds = replace(config, rounds=0)
    return run_reclassification_by_synthesis(ds, spec, no_rounds, mode=mode,
                                             on_round=on_round)


def train_icn_noise_ablation(ds: D.LabeledDataset, spec, config: TrainConfig,
                             sampler_config: S.SamplerConfig | None = None,
                             mode: str = "binary", on_round=None) -> RunResult:
    """Same loop, but pseudo-negatives are raw reference draws."""
    sampler_config = sampler_config or S.SamplerConfig()
    return run_reclassification_by_synthesis(
        ds, spec, config, sampler_config, mode,
        synthesize=noise_synthesizer(sampler_config, ds.samples.shape[1:]),
        on_round=on_round)


# ---------------------------------------------------------------------------
# one-vs-all
# ---------------------------------------------------------------------------

def member_seed(seed: int, class_index: int) -> int:
    """Deterministic per-member seed; members are fully independent."""
    ss = np.random.SeedSequence([seed, STREAM_MEMBER, class_index])
    return int(ss.generate_state(1)[0])


def train_one_vs_all_ensemble(ds: D.LabeledDataset, spec, config: TrainConfig,
                              sampler_config: S.SamplerConfig | None = None,
                              synthesize=None, on_round=None) -> RunResult:
    """K independent binary runs, class k versus the rest, merged by argmax,
    trained round-major: every member's round t, then round t + 1. For each
    round all K members reach, `on_round` gets the ensemble row (member
    means, summed store size), the live members as an ensemble and
    `_merged_store` of their stores; members that stop later train on
    without reports. `selected` is the ensemble of the members' selected
    classifiers, `stopped_round` the first member's stop."""
    counts = np.bincount(ds.labels, minlength=ds.class_count)
    missing = np.flatnonzero(counts == 0)
    if missing.size:
        raise TrainerError(f"no training samples for class {missing[0]}")
    members = []
    for k in range(ds.class_count):
        relabeled = D.LabeledDataset(ds.samples, np.where(ds.labels == k, 1, -1), 2)
        members.append(_rounds(relabeled, spec, replace(config, seed=member_seed(config.seed, k)),
                               sampler_config, "binary", synthesize))
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
            continue  # a member has stopped: no ensemble from here on
        rows, live, stores = zip(*reached)
        metrics.append(RoundMetrics(
            rows[0].round, np.mean([r.epoch_losses for r in rows], axis=0).tolist(),
            float(np.mean([r.train_loss for r in rows])),
            float(np.mean([r.val_error for r in rows])),
            float(np.mean([r.val_loss for r in rows])),
            sum(r.store_size for r in rows),
            float(np.mean([r.synth_steps_mean for r in rows]))))
        if on_round is not None:
            on_round(metrics[-1], N.OneVsAllEnsemble(list(live)), _merged_store(stores))
    stops = [r.stopped_round for r in results if r.stopped_round is not None]
    return RunResult(N.OneVsAllEnsemble([r.classifier for r in results]),
                     N.OneVsAllEnsemble([r.selected for r in results]), metrics,
                     _merged_store([r.store for r in results]), min(stops, default=None))


def _merged_store(stores):
    """One store holding each member's rows in member order, tagged with
    the member's class."""
    tags = [np.full(len(s), k) for k, s in enumerate(stores)]
    return D.PseudoNegativeStore(np.concatenate([s.samples for s in stores]),
                                 np.concatenate([s.rounds for s in stores]), np.concatenate(tags))
