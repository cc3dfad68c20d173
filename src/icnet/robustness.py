"""Fast-gradient-sign attacks and the two-way cross-model fooling experiment.

The attack gradient is taken through the model's own training loss at the
clean label. Adversarial inputs are clamped back into the caller's input
box afterward: (-1, 1) for normalized images; None clamps nothing.
"""

from dataclasses import dataclass

import numpy as np

from . import network as N
from . import tensor as T

DEFAULT_EPSILON = 0.125


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


def fgsm_perturb(model, x, true_label, epsilon, clamp):
    """One fast-gradient-sign step: (x + eps * sign(d loss / d x), clamped;
    the model's clean prediction for each row, read off the logits of the
    attack's own forward pass)."""
    x = np.asarray(x, dtype=np.float64)
    if not 0 <= epsilon < np.inf:  # NaN too
        raise RobustnessError(f"epsilon must be >= 0 and finite, got {epsilon}")
    labels = np.atleast_1d(np.asarray(true_label))
    if labels.shape[0] != x.shape[0]:
        raise RobustnessError(
            f"label count {labels.shape[0]} != batch size {x.shape[0]}")
    # the per-row losses are summed: the input gradient of the total is
    # each row's gradient of its own loss
    grad_pass, logits = N.head_pass(model, x)
    grad = T.input_gradient(grad_pass, N.head_loss(logits, labels)[1])
    if not T.all_finite(grad):
        raise RobustnessError("non-finite attack gradient")
    adv = x + epsilon * np.sign(grad)
    if clamp is not None:
        adv = np.clip(adv, clamp[0], clamp[1])
    return adv, N.labels_from_logits(logits)


def predict(model, x):
    """The replay step's predictions; its own name, so bench/worker.py can
    time the replay apart from other inference."""
    return N.predict_label(model, x)


def fool_direction(source, target, samples, labels, epsilon, clamp):
    """Attack the source model on its correctly classified inputs, then count
    how many adversarials fool the source and how many of those also fool
    the target.

    Each chunk of inputs (`N.labeled_chunks`) takes one forward pass through
    the source: the attack's loss graph, whose logits also give the clean
    predictions. Only the rows the source classifies correctly are kept and
    replayed.
    """
    samples = np.asarray(samples, dtype=np.float64)
    n_eligible = n_adv = n_cross = 0
    for xb, yb in N.labeled_chunks(samples, np.asarray(labels)):
        adv, clean_pred = fgsm_perturb(source, xb, yb, epsilon, clamp)
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


def two_way_fool_experiment(model_a, model_b, test_set, epsilon, clamp):
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
