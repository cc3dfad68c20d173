"""Fast-gradient-sign attacks and the two-way cross-model fooling experiment.

The attack gradient is taken through the model's own training loss at the
clean label. Adversarial pixels are clamped back to the normalized input
range afterward.
"""

from dataclasses import dataclass

import numpy as np

from . import network as N
from . import tensor as T

DEFAULT_EPSILON = 0.125
DEFAULT_CLAMP = (-1.0, 1.0)


class RobustnessError(Exception):
    pass


@dataclass(frozen=True)
class FoolingReport:
    """Counts for one attack direction: adversarials are generated against
    the source model, then replayed against the target model."""
    eligible_count: int
    adversarial_count: int
    cross_fool_count: int
    epsilon: float

    def __post_init__(self):
        if not (0 <= self.cross_fool_count <= self.adversarial_count
                <= self.eligible_count):
            raise RobustnessError(
                "count nesting violated: cross <= adversarial <= eligible "
                f"got {self.cross_fool_count}, {self.adversarial_count}, "
                f"{self.eligible_count}")

    @property
    def cross_fool_fraction(self):
        if self.adversarial_count == 0:
            return 0.0
        return self.cross_fool_count / self.adversarial_count


def _loss_graph(model, x, labels):
    """Per-sample training loss summed over the batch, params held constant;
    returns (record, loss, logits).

    The sum decouples over rows, so the input gradient of the total is each
    row's gradient of its own loss.
    """
    if not isinstance(model, (N.BinaryClassifier, N.MulticlassClassifier)):
        raise TypeError(f"unsupported model type: {type(model).__name__}")
    record = T.ComputationRecord()
    params = [record.leaf(p, kind="const") for p in model.all_params()]
    x_node = record.leaf(np.asarray(x, dtype=np.float64), kind="input")
    feat = T.build_feature_graph(record, model.spec, params[:-2], x_node)
    w, b = params[-2], params[-1]
    logits = record.affine(feat, w, b)
    if isinstance(model, N.BinaryClassifier):
        signed = record.mul_const(record.reshape(logits, (x.shape[0],)),
                                  -np.asarray(labels, dtype=np.float64))
        loss = record.sum(record.softplus(signed))
    else:
        logp = record.log_softmax(logits)
        picked = record.select(logp, np.asarray(labels, dtype=np.int64))
        loss = record.scale(record.sum(picked), -1.0)
    return record, loss, logits.value


def fgsm_perturb(model, x, true_label, epsilon, clamp=DEFAULT_CLAMP,
                 return_pred=False):
    """One fast-gradient-sign step: x + eps * sign(d loss / d x), clamped.

    With return_pred=True, also returns the model's clean prediction for
    each row, read off the logits of the attack's own forward pass.
    """
    x = np.asarray(x, dtype=np.float64)
    if epsilon < 0:
        raise RobustnessError(f"epsilon must be >= 0, got {epsilon}")
    labels = np.atleast_1d(np.asarray(true_label))
    if labels.shape[0] != x.shape[0]:
        raise RobustnessError(
            f"label count {labels.shape[0]} != batch size {x.shape[0]}")
    record, loss, logits = _loss_graph(model, x, labels)
    grad = T.input_gradient(record, loss)
    if not np.all(np.isfinite(grad)):
        raise RobustnessError("non-finite attack gradient")
    adv = x + epsilon * np.sign(grad)
    if clamp is not None:
        adv = np.clip(adv, clamp[0], clamp[1])
    if not return_pred:
        return adv
    if isinstance(model, N.BinaryClassifier):
        return adv, np.where(logits[:, 0] > 0, 1, -1)
    return adv, np.argmax(logits, axis=1)


def predict(model, x):
    if isinstance(model, N.BinaryClassifier):
        return np.where(N.logit_binary(model, x) > 0, 1, -1)
    return N.predict_label(model, x)


def fool_direction(source, target, samples, labels, epsilon,
                   clamp=DEFAULT_CLAMP, chunk=256):
    """Attack the source model on its correctly classified inputs, then count
    how many adversarials fool the source and how many of those also fool
    the target.

    Each chunk of inputs takes one forward pass through the source: the
    attack's loss graph, whose logits also give the clean predictions. Only
    the rows the source classifies correctly are kept and replayed.
    """
    samples = np.asarray(samples, dtype=np.float64)
    labels = np.asarray(labels)
    n_eligible = n_adv = n_cross = 0
    for i in range(0, samples.shape[0], chunk):
        xb, yb = samples[i:i + chunk], labels[i:i + chunk]
        adv, clean_pred = fgsm_perturb(source, xb, yb, epsilon, clamp, return_pred=True)
        eligible = clean_pred == yb
        if not eligible.any():
            continue
        adv, yb = adv[eligible], yb[eligible]
        fooled_src = predict(source, adv) != yb
        fooled_tgt = predict(target, adv) != yb
        n_eligible += int(eligible.sum())
        n_adv += int(fooled_src.sum())
        n_cross += int((fooled_src & fooled_tgt).sum())
    if n_eligible == 0:
        raise RobustnessError("source model classifies no test input correctly")
    return FoolingReport(n_eligible, n_adv, n_cross, float(epsilon))


def two_way_fool_experiment(model_a, model_b, test_set, epsilon=DEFAULT_EPSILON,
                            clamp=DEFAULT_CLAMP):
    """Returns (a-attacked report replayed on b, b-attacked report replayed
    on a)."""
    ab = fool_direction(model_a, model_b, test_set.samples, test_set.labels,
                        epsilon, clamp)
    ba = fool_direction(model_b, model_a, test_set.samples, test_set.labels,
                        epsilon, clamp)
    return ab, ba


def summarize_two_way(report_ab, report_ba, name_a="model_a", name_b="model_b"):
    lines = []
    for rep, src, tgt in ((report_ab, name_a, name_b),
                          (report_ba, name_b, name_a)):
        lines.append(
            f"{src} -> {tgt}: {rep.eligible_count} eligible, "
            f"{rep.adversarial_count} fool {src}, "
            f"{rep.cross_fool_count} of those also fool {tgt} "
            f"(cross-fool fraction {rep.cross_fool_fraction:.4f}, "
            f"eps={rep.epsilon})")
    return "\n".join(lines)
