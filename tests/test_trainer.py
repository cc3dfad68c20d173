"""Losses against independent recomputations, round bookkeeping, and the
directional behavior of the full loop on the 2D benchmark."""

import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from icnet import data as D
from icnet import network as N
from icnet import robustness as R
from icnet import sampler as S
from icnet import tensor as T
from icnet import trainer as TR
from icnet.seeding import rng

SPEC_2D = [T.dense(2, 16), T.leaky(), T.dense(16, 16), T.leaky()]


def quick_config(**kw):
    base = dict(rounds=3, pseudo_per_round=10, epochs_per_round=3,
                init_epochs=10, batch_size=32, learning_rate=0.05,
                momentum=0.9, alpha=0.1, val_fraction=0.2, patience=99, seed=0)
    base.update(kw)
    return TR.TrainConfig(**base)


def quick_sampler(**kw):
    base = dict(stopping="option3", fixed_steps=20, step_size=0.02, max_steps=100)
    base.update(kw)
    return S.SamplerConfig(**base)


def noise_draws(scfg):
    """The noise ablation's sampler: zero-step chains, whose samples are
    their reference draws."""
    return replace(scfg, stopping="option3", fixed_steps=0)


def benchmark(seed, n_pos=24, n_neg=24):
    spec = D.default_benchmark_spec(n_pos, n_neg)
    return D.gen_synthetic_2d(spec, rng(seed, 6))


def head_total(c, x, y, pn=None, tags=None, alpha=0.0):
    """The total head_loss returns for one batch of the labeled rows
    (x, y), then the pseudo-negatives pn tagged `tags`: the loss SGD
    minimizes, as a sum."""
    if pn is None:
        return N.head_loss(N.class_logits(c, x), y, alpha=alpha)[0]
    tags = np.full(len(pn), -1) if tags is None else tags
    negative = np.arange(len(x) + len(pn)) >= len(x)
    logits = N.class_logits(c, np.concatenate([x, pn]))
    return N.head_loss(logits, np.concatenate([y, tags]), negative, alpha)[0]


class TestBinaryLoss:
    def test_perfect_classifier_loss_vanishes(self):
        c = N.init_binary(SPEC_2D, (2,), rng(0, 1))
        x = np.array([[1.0, 0.0], [-1.0, 0.0]])
        y = np.array([1, 0])
        logits = N.logit_binary(c, x)
        # scale the head so signed logits are huge and correct
        c.head_b[...] = c.head_b + np.array([1000.0]) - logits[0]
        c.head_w[...] = 0.0
        c.head_b[...] = np.array([1000.0])
        loss = head_total(c, x[:1], y[:1])
        assert loss < 1e-6

    def test_zero_logits_give_ln2_per_sample(self):
        c = N.init_binary(SPEC_2D, (2,), rng(1, 1))
        c.head_w[...] = 0.0
        c.head_b[...] = 0.0
        x = rng(1, 6).standard_normal((5, 2))
        y = np.array([1, 0, 1, 1, 0])
        pn = rng(2, 6).standard_normal((3, 2))
        loss = head_total(c, x, y, pn)
        assert abs(loss - 8 * math.log(2)) < 1e-12

    def test_matches_independent_elementwise_sum(self):
        c = N.init_binary(SPEC_2D, (2,), rng(3, 1))
        x = rng(3, 6).standard_normal((7, 2))
        y = np.array([1, 0, 1, 0, 0, 1, 1])
        pn = rng(4, 6).standard_normal((4, 2))
        logits = N.logit_binary(c, x)
        pn_logits = N.logit_binary(c, pn)
        want = 0.0
        for z, yi in zip(logits, y):
            # -ln q(1|x) = -ln sigmoid(z) and -ln q(0|x) = -ln(1 - sigmoid(z))
            q_one = 1.0 / (1.0 + math.exp(-z))
            want += -math.log(q_one if yi == 1 else 1.0 - q_one)
        for z in pn_logits:
            want += -math.log(1.0 - 1.0 / (1.0 + math.exp(-z)))
        assert abs(head_total(c, x, y, pn) - want) < 1e-9

    def test_additivity_over_pseudo_negatives(self):
        c = N.init_binary(SPEC_2D, (2,), rng(6, 1))
        x = rng(6, 6).standard_normal((6, 2))
        y = np.where(rng(7, 6).standard_normal(6) > 0, 1, 0)
        pn = rng(8, 6).standard_normal((5, 2))
        pn_term = T.softplus_value(N.logit_binary(c, pn)).sum()
        got = head_total(c, x, y, pn)
        want = head_total(c, x, y) + pn_term
        assert abs(got - want) < 1e-12

    def test_label_outside_0_1_rejected(self):
        # 1 - 2 * label is the sign the binary loss needs only for labels 0 and 1
        c = N.init_binary(SPEC_2D, (2,), rng(19, 1))
        before = [p.copy() for p in c.all_params()]
        with pytest.raises(TR.TrainerError, match="labels outside 0..1"):
            TR._sgd_epochs(c, np.zeros((2, 2)), np.array([1, -1]), np.zeros((1, 2)),
                           np.array([-1]), 0.1, 0.01, 1, quick_config(), rng(19, 2))
        for a, b in zip(before, c.all_params()):
            assert np.array_equal(a, b)


class TestMulticlassLoss:
    def test_alpha_zero_is_plain_cross_entropy(self):
        c = N.init_multiclass(SPEC_2D, (2,), 3, rng(10, 1))
        x = rng(10, 6).standard_normal((8, 2))
        y = rng(11, 6).integers(0, 3, size=8)
        probs = T.softmax_value(N.class_logits(c, x))
        want = float(-np.log(probs[np.arange(8), y]).sum())
        got = head_total(c, x, y, alpha=0.0)
        assert abs(got - want) < 1e-9

    def test_zero_logit_pseudo_negative_adds_alpha_ln2(self):
        c = N.init_multiclass(SPEC_2D, (2,), 3, rng(12, 1))
        c.head_w[...] = 0.0
        c.head_b[...] = 0.0
        x = rng(12, 6).standard_normal((2, 2))
        y = np.array([0, 2])
        base = head_total(c, x, y, alpha=0.25)
        with_pn = head_total(c, x, y, np.zeros((1, 2)), np.array([1]), 0.25)
        assert abs(with_pn - base - 0.25 * math.log(2)) < 1e-12

    def test_matches_independent_term_by_term(self):
        c = N.init_multiclass(SPEC_2D, (2,), 4, rng(13, 1))
        x = rng(13, 6).standard_normal((5, 2))
        y = rng(14, 6).integers(0, 4, size=5)
        pn = rng(15, 6).standard_normal((3, 2))
        tags = np.array([2, 0, 3])
        alpha = 0.1
        logits = N.class_logits(c, x)
        pn_logits = N.class_logits(c, pn)
        want = 0.0
        for row, yi in zip(logits, y):
            e = np.exp(row - row.max())
            want += (1 - alpha) * -math.log(e[yi] / e.sum())
        for row, k in zip(pn_logits, tags):
            want += alpha * math.log(1.0 + math.exp(row[k]))
        got = head_total(c, x, y, pn, tags, alpha)
        assert abs(got - want) < 1e-9

    def test_tag_out_of_range_rejected(self):
        c = N.init_multiclass(SPEC_2D, (2,), 3, rng(16, 1))
        before = [p.copy() for p in c.all_params()]
        with pytest.raises(TR.TrainerError, match="pseudo-negative tag outside 0..2"):
            TR._sgd_epochs(c, np.zeros((1, 2)), np.array([0]), np.zeros((1, 2)),
                           np.array([3]), 0.1, 0.01, 1, quick_config(), rng(16, 2))
        for a, b in zip(before, c.all_params()):
            assert np.array_equal(a, b)


class TestValStats:
    @pytest.mark.parametrize("k", [1, 3], ids=["binary", "multiclass"])
    def test_error_and_loss_over_chunks(self, k):
        # 150 rows: two full chunks of 64 and a partial one
        c = N.init_multiclass(SPEC_2D, (2,), k, rng(17, 1))
        x = rng(17, 6).standard_normal((150, 2))
        y = (np.where(x[:, 0] > 0, 1, 0) if k == 1
             else rng(18, 6).integers(0, k, size=150))
        error, loss = TR._val_stats(c, x, y)
        assert error == TR.error_rate(c, x, y)
        assert abs(loss - head_total(c, x, y) / 150) < 1e-12

    @staticmethod
    def peak_over_params(labeled_pass):
        """tracemalloc peak of `labeled_pass(c, x, y)` over 256 MNIST_NET
        rows, in parameter bytes."""
        from icnet.cli import MNIST_NET
        c = N.init_multiclass(MNIST_NET, (1, 28, 28), 10, rng(27, 1))
        gen = rng(27, 6)
        x, y = gen.uniform(-1, 1, (256, 1, 28, 28)), np.arange(256) % 10
        param_bytes = sum(p.nbytes for p in c.all_params())
        tracemalloc.start()
        try:
            labeled_pass(c, x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / param_bytes

    def test_256_mnist_net_rows_peak_below_3x_params(self):
        """Validation on 256 MNIST_NET rows allocates less than 3x the
        parameter bytes at its peak: it runs in chunks, so the peak does
        not grow with the rows."""
        assert self.peak_over_params(TR._val_stats) < 3

    @pytest.mark.parametrize("labeled_pass", [
        TR.error_rate, lambda c, x, y: R.fool_direction(c, c, x, y, 0.125, (-1.0, 1.0))],
        ids=["error_rate", "fool_direction"])
    def test_test_error_and_attack_peak_below_3x_params(self, labeled_pass):
        # they ran 256-row chunks, which peaked at 5.7x
        assert self.peak_over_params(labeled_pass) < 3

    @pytest.mark.parametrize("labeled_pass, replays", [
        (TR._val_stats, False), (TR.error_rate, False),
        (lambda c, x, y: R.fool_direction(c, c, x, y, 0.125, None), True)],
        ids=["val_stats", "error_rate", "fool_direction"])
    def test_labeled_passes_read_one_row_bound(self, monkeypatch, labeled_pass, replays):
        # 23 rows at a bound of 5: stacks over 5, 5, 5, 5 and 3 rows (FGSM
        # replays each chunk's eligible rows between), and the same counts
        c = N.init_multiclass(SPEC_2D, (2,), 3, rng(26, 1))
        x = rng(26, 6).standard_normal((23, 2))
        y = np.arange(23) % 3
        want = labeled_pass(c, x, y)
        sizes = []
        stack = T.feature_stack
        monkeypatch.setattr(T, "feature_stack",
                            lambda ops, spec, params, xs: sizes.append(len(xs))
                            or stack(ops, spec, params, xs))
        monkeypatch.setattr(N, "EVAL_ROWS", 5)
        # a loss summed over other chunks moves in its last bits
        assert labeled_pass(c, x, y) == (want if replays else pytest.approx(want, rel=1e-12))
        assert max(sizes) == 5
        if not replays:
            assert sizes == [5, 5, 5, 5, 3]


CONV_SPEC = [T.conv(1, 2), T.leaky(), T.conv(2, 3), T.leaky(), T.flatten()]
PASS_CASES = pytest.mark.parametrize("spec, shape, k", [
    (SPEC_2D, (2,), 1), (CONV_SPEC, (1, 8, 8), 3)], ids=["binary-dense", "multiclass-conv"])


def tape_head(c, x, labels, negative=None, alpha=0.0, params="const", inputs="const"):
    """The head loss of a batch built from ComputationRecord ops, in the
    order `network.head_loss` follows: (record, total, logits)."""
    record = T.ComputationRecord()
    p_nodes = [record.leaf(p, params, checked=True) for p in c.all_params()]
    feats = T.feature_stack(record, c.spec, p_nodes[:-2], record.leaf(x, inputs))
    logits = record.affine(feats, p_nodes[-2], p_nodes[-1])
    neg = np.zeros(len(labels), bool) if negative is None else negative
    if c.binary:
        z = record.reshape(logits, (len(x),))
        z = record.mul_const(z, np.where(neg, 1.0, 1.0 - 2.0 * labels))
        return record, record.sum(record.softplus(z)), logits
    split = neg.any()
    labeled = record._gather(logits, ~neg, "take_rows") if split else logits
    picked = record.select(record.log_softmax(labeled), labels[~neg])
    total = record.scale(record.sum(picked), -(1.0 - alpha))
    if split:
        picked = record.select(record._gather(logits, neg, "take_rows"), labels[neg])
        total = record.add(total, record.scale(record.sum(record.softplus(picked)), alpha))
    return record, total, logits


def pass_batch(k, shape, gen, n_s, n_pn):
    """n_s labeled rows, then n_pn pseudo-negatives tagged as the store tags
    them (-1 on a binary head): (x, labels, negative or None)."""
    x = gen.uniform(-1, 1, (n_s + n_pn,) + shape)
    tags = np.full(n_pn, -1) if k == 1 else gen.integers(0, k, size=n_pn)
    labels = np.concatenate([gen.integers(0, max(k, 2), size=n_s), tags])
    return x, labels, (np.arange(n_s + n_pn) >= n_s) if n_pn else None


class TestPassMatchesTape:
    """SGD steps, the FGSM gradient and the validation statistics from the
    gradient pass and head loss equal a tape's, compared bitwise."""

    @PASS_CASES
    def test_sgd_steps_match_tape_bitwise(self, spec, shape, k):
        alpha, lr, momentum = (0.1 if k == 1 else 0.3), 0.05, 0.9
        c = N.init_multiclass(spec, shape, k, rng(90, 1))
        ref = N.Classifier(c.spec, c.feature_params, c.head_w, c.head_b)
        velocity = [np.zeros_like(p) for p in ref.all_params()]
        flat, flat_velocity, grad = TR._pack(c)
        gen = rng(90, 6)
        for n_s, n_pn in ((6, 3), (8, 0), (2, 7), (5, 4)):
            x, labels, negative = pass_batch(k, shape, gen, n_s, n_pn)
            loss = TR._sgd_step(c, x, labels, negative, alpha, flat, flat_velocity, grad,
                                lr, momentum)
            record, total, _ = tape_head(ref, x, labels, negative, alpha, params="param")
            want = record.scale(total, 1.0 / len(x))
            for p, g, v in zip(ref.all_params(), T.param_gradients(record, want), velocity):
                v *= momentum
                g *= lr
                v -= g
                p += v
            assert loss == float(want.value)
        assert [p.tobytes() for p in c.all_params()] == [p.tobytes() for p in ref.all_params()]

    @PASS_CASES
    def test_fgsm_input_gradient_matches_tape_bitwise(self, spec, shape, k):
        c = N.init_multiclass(spec, shape, k, rng(91, 1))
        x, labels, _ = pass_batch(k, shape, rng(91, 6), 7, 0)
        record, total, logits = tape_head(c, x, labels, inputs="input")
        want = T.input_gradient(record, total)
        grad_pass, got_logits = N.head_pass(c, x)
        got = T.input_gradient(grad_pass, N.head_loss(got_logits, labels)[1])
        assert got.tobytes() == want.tobytes()
        adv, pred = R.fgsm_perturb(c, x, labels, 0.125, None)
        assert adv.tobytes() == (x + 0.125 * np.sign(want)).tobytes()
        assert pred.tobytes() == N.labels_from_logits(logits.value).tobytes()

    @PASS_CASES
    def test_val_stats_match_tape_bitwise(self, spec, shape, k):
        # 150 rows: two full chunks of 64 and a partial one
        c = N.init_multiclass(spec, shape, k, rng(92, 1))
        x, y, _ = pass_batch(k, shape, rng(92, 6), 150, 0)
        wrong, loss = 0, 0.0
        for at in range(0, len(x), 64):
            _, total, logits = tape_head(c, x[at:at + 64], y[at:at + 64])
            wrong += int((N.labels_from_logits(logits.value) != y[at:at + 64]).sum())
            loss += float(total.value)
        assert TR._val_stats(c, x, y) == (wrong / len(x), loss / len(x))


class TestConfigValidation:
    @pytest.mark.parametrize("key, value, match", [
        ("learning_rate", math.nan, "learning_rate"), ("learning_rate", math.inf, "learning_rate"),
        ("learning_rate", 0.0, "learning_rate"), ("momentum", math.nan, "momentum"),
        ("momentum", -0.1, "momentum"), ("momentum", 1.0, "momentum"),
        ("momentum", math.inf, "momentum"), ("init_epochs", -1, "init_epochs"),
        ("epochs_per_round", -1, "epochs_per_round"), ("batch_size", 0, "batch_size"),
        ("patience", 0, "patience"), ("lr_drop_round", -1, "lr_drop_round")])
    def test_out_of_range_value_rejected(self, key, value, match):
        with pytest.raises(TR.TrainerError, match=match):
            quick_config(**{key: value})

    def test_zero_momentum_and_zero_epochs_allowed(self):
        quick_config(momentum=0.0, init_epochs=0, epochs_per_round=0)


class TestReclassificationStep:
    def test_zero_epochs_leave_params_unchanged(self):
        ds = benchmark(20)
        c = N.init_binary(SPEC_2D, (2,), rng(20, 1))
        before = [p.copy() for p in c.all_params()]
        cfg = quick_config(epochs_per_round=0)
        losses = TR.reclassification_step(c, ds.samples, ds.labels,
                                          D.PseudoNegativeStore(), cfg, 1,
                                          rng(20, 2, 1))
        assert losses == []
        for a, b in zip(before, c.all_params()):
            assert np.array_equal(a, b)

    def test_separable_set_trains_below_ln2(self):
        gen = rng(21, 6)
        x = gen.standard_normal((60, 2)) + np.array([0.0, 0.0])
        y = np.where(x[:, 0] > 0, 1, 0)
        x[:, 0] += 0.5 * np.sign(x[:, 0])  # widen the margin
        c = N.init_binary(SPEC_2D, (2,), rng(21, 1))
        cfg = quick_config(epochs_per_round=40, learning_rate=0.1)
        losses = TR.reclassification_step(c, x, y, D.PseudoNegativeStore(),
                                          cfg, 1, rng(21, 2, 1))
        assert losses[-1] < math.log(2)

    def test_same_seed_identical_parameters(self):
        ds = benchmark(22)
        results = []
        for _ in range(2):
            c = N.init_binary(SPEC_2D, (2,), rng(22, 1))
            TR.reclassification_step(c, ds.samples, ds.labels,
                                     D.PseudoNegativeStore(), quick_config(),
                                     1, rng(22, 2, 1))
            results.append([p.copy() for p in c.all_params()])
        for a, b in zip(*results):
            assert np.array_equal(a, b)

    def test_divergence_reports_diagnostic(self):
        ds = benchmark(23)
        c = N.init_binary(SPEC_2D, (2,), rng(23, 1))
        cfg = quick_config(learning_rate=1e120, epochs_per_round=5)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TR.TrainingDivergedError, match="epoch"):
                TR.reclassification_step(c, ds.samples, ds.labels,
                                         D.PseudoNegativeStore(), cfg, 1,
                                         rng(23, 2, 1))

    def test_nan_written_between_steps_diverges(self, monkeypatch):
        # graphs do not rescan the parameters, but the NaN reaches an op
        # output of the next step's forward pass
        ds = benchmark(25)
        c = N.init_binary(SPEC_2D, (2,), rng(25, 1))
        sgd_step, calls = TR._sgd_step, []

        def poisoned_after_first(c, x, labels, negative, alpha, flat, *rest):
            if calls:
                flat[0] = np.nan  # the first weight of the first layer
            calls.append(len(x))
            return sgd_step(c, x, labels, negative, alpha, flat, *rest)

        monkeypatch.setattr(TR, "_sgd_step", poisoned_after_first)
        with pytest.raises(TR.TrainingDivergedError, match="epoch 0, sample offset 32"):
            TR.reclassification_step(c, ds.samples, ds.labels, D.PseudoNegativeStore(),
                                     quick_config(), 1, rng(25, 2, 1))
        assert len(calls) == 2

    def test_update_to_inf_raises_in_that_step(self):
        # the update itself is checked: no later graph is needed to see it
        ds = benchmark(26)
        c = N.init_binary(SPEC_2D, (2,), rng(26, 1))
        flat, velocity, grad = TR._pack(c)
        velocity[:] = 1e308
        with np.errstate(over="ignore"):
            with pytest.raises(T.NonFiniteError, match="the update left a parameter"):
                TR._sgd_step(c, ds.samples[:4], ds.labels[:4], None, 0.0, flat, velocity,
                             grad, 0.01, 2.0)

    def test_rebound_parameter_field_rejected(self):
        # SGD updates the classifier's flat array: a field bound to another
        # array would silently never train
        c = N.init_binary(SPEC_2D, (2,), rng(27, 1))
        c.head_w = c.head_w.copy()
        with pytest.raises(TR.TrainerError, match="not a view of its flat array"):
            TR._pack(c)

    def test_lr_drop_applies_at_round(self):
        ds = benchmark(24)
        outs = []
        for round_t in (0, 50):
            c = N.init_binary(SPEC_2D, (2,), rng(24, 1))
            cfg = quick_config(epochs_per_round=1, lr_drop_round=25)
            TR.reclassification_step(c, ds.samples, ds.labels,
                                     D.PseudoNegativeStore(), cfg, round_t,
                                     rng(24, 2, 0))
            outs.append([p.copy() for p in c.all_params()])
        # the dropped learning rate must actually change the trajectory
        assert any(not np.array_equal(a, b) for a, b in zip(*outs))

    def test_two_mnist_net_steps_peak_below_4x_params(self):
        """Two SGD steps of MNIST_NET, each on 16 labeled rows and 4
        pseudo-negatives, allocate less than 4x the parameter bytes at their
        peak: momentum and gradients take 2x (the parameters' flat array is
        the classifier's own), so no conv may keep a patch matrix for
        backward and no step may outlive its own."""
        from icnet.cli import MNIST_NET
        c = N.init_multiclass(MNIST_NET, (1, 28, 28), 10, rng(25, 1))
        gen = rng(25, 6)
        x_s, x_pn = gen.uniform(-1, 1, (16, 1, 28, 28)), gen.uniform(-1, 1, (4, 1, 28, 28))
        param_bytes = sum(p.nbytes for p in c.all_params())
        tracemalloc.start()
        try:
            TR._sgd_epochs(c, x_s, np.arange(16) % 10, x_pn, np.arange(4) % 10, 0.1, 0.01,
                           2, quick_config(batch_size=20), rng(25, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * param_bytes


class TestRunLoop:
    @pytest.mark.parametrize("mode, ds", [
        ("binary", D.LabeledDataset(np.zeros((4, 2)), np.ones(4), 2)),
        ("multiclass", D.LabeledDataset(np.zeros((4, 2)), np.zeros(4), 1)),
    ], ids=["binary_one_label", "multiclass_one_class"])
    def test_one_class_rejected(self, mode, ds):
        # so a one-column head always means a binary classifier
        with pytest.raises(TR.TrainerError, match="both labels|two classes"):
            TR.run_reclassification_by_synthesis(ds, SPEC_2D, quick_config(), mode=mode)

    def test_ten_classes_in_binary_mode_rejected(self):
        ds = D.LabeledDataset(np.zeros((20, 2)), np.arange(20) % 10, 10)
        with pytest.raises(TR.TrainerError, match="binary mode needs two classes, not 10"):
            TR.run_reclassification_by_synthesis(ds, SPEC_2D, quick_config(), mode="binary")

    def test_binary_run_trains_class_0(self):
        # two blobs of 20, labeled 0 and 1: every class-0 row must pull the
        # logit down, so the run separates them
        x, y = 0.3 * rng(29, 6).standard_normal((40, 2)), np.repeat([0, 1], 20)
        x[:20, 0] -= 1.0
        x[20:, 0] += 1.0
        cfg = quick_config(rounds=1, pseudo_per_round=4, init_epochs=30, val_fraction=0.0)
        run = TR.run_reclassification_by_synthesis(D.LabeledDataset(x, y, 2), SPEC_2D, cfg,
                                                   quick_sampler(), "binary")
        assert TR.error_rate(run.selected, x, y) < 0.1

    def test_rounds_zero_equals_baseline_bitwise(self):
        ds = benchmark(30)
        cfg = quick_config(rounds=0)
        icn = TR.run_reclassification_by_synthesis(ds, SPEC_2D, cfg,
                                                   quick_sampler(), "binary")
        base = TR.run_reclassification_by_synthesis(ds, SPEC_2D, replace(quick_config(), rounds=0),
                                                    mode="binary")
        for a, b in zip(icn.classifier.all_params(), base.classifier.all_params()):
            assert a.tobytes() == b.tobytes()
        assert icn.metrics[0].epoch_losses == base.metrics[0].epoch_losses

    def test_store_size_is_rounds_times_l(self):
        ds = benchmark(31)
        cfg = quick_config(rounds=3, pseudo_per_round=10)
        run = TR.run_reclassification_by_synthesis(ds, SPEC_2D, cfg,
                                                   quick_sampler(), "binary")
        assert len(run.store) == 3 * 10
        np.testing.assert_array_equal(run.store.rounds, np.repeat([1, 2, 3], 10))

    def test_store_is_append_only_across_rounds(self):
        ds = benchmark(32)
        captured = {}

        def spying_synthesize(c, classes, gen):
            samples = S.draw_reference(len(classes), (2,), 0.3, gen)
            round_t = len(captured) + 1
            captured[round_t] = samples.copy()
            return samples, None

        cfg = quick_config(rounds=3, pseudo_per_round=5)
        run = TR.run_reclassification_by_synthesis(ds, SPEC_2D, cfg, None,
                                                   "binary",
                                                   synthesize=spying_synthesize)
        for t in (1, 2, 3):
            assert np.array_equal(run.store.samples[run.store.rounds == t], captured[t])

    def test_mixture_fraction_exact(self):
        ds = benchmark(33)
        cfg = quick_config(rounds=4, pseudo_per_round=7, val_fraction=0.2)
        run = TR.run_reclassification_by_synthesis(ds, SPEC_2D, cfg,
                                                   quick_sampler(), "binary")
        train_ds, _ = D.split_dataset(ds, len(ds) - round(0.2 * len(ds)), cfg.seed)
        n_neg = int((train_ds.labels == 0).sum())
        t, l = cfg.rounds, cfg.pseudo_per_round
        got = Fraction(len(run.store), n_neg + len(run.store))
        assert got == Fraction(t * l, n_neg + t * l)

    def test_multiclass_store_counts_k_per_round(self):
        gen = rng(34, 6)
        x = gen.standard_normal((30, 2))
        y = np.repeat(np.arange(3), 10)
        ds = D.LabeledDataset(x, y, 3)
        cfg = quick_config(rounds=2, pseudo_per_round=4, val_fraction=0.0)
        run = TR.run_reclassification_by_synthesis(ds, SPEC_2D, cfg,
                                                   quick_sampler(), "multiclass")
        assert len(run.store) == 2 * 3 * 4
        np.testing.assert_array_equal(run.store.tags, np.tile(np.repeat([0, 1, 2], 4), 2))

    def test_early_stop_honors_patience(self):
        ds = benchmark(35, n_pos=40, n_neg=40)
        cfg = quick_config(rounds=30, pseudo_per_round=5, patience=2,
                           val_fraction=0.25)
        run = TR.run_reclassification_by_synthesis(ds, SPEC_2D, cfg,
                                                   quick_sampler(), "binary")
        if run.stopped_round is not None:
            assert run.stopped_round < 30
            assert run.metrics[-1].round == run.stopped_round

    def test_on_round_sees_each_round_live_up_to_the_stop(self):
        # patience 1 over more rounds than 12 validation rows can keep
        # improving on, so early stopping must fire
        ds = benchmark(39)
        cfg = quick_config(rounds=20, pseudo_per_round=3, epochs_per_round=1,
                           patience=1, val_fraction=0.25)
        seen = []

        def on_round(m, c, store):
            seen.append((m, [p.tobytes() for p in c.all_params()], len(store)))

        run = TR.run_reclassification_by_synthesis(ds, SPEC_2D, cfg, quick_sampler(),
                                                   "binary", on_round=on_round)
        assert run.stopped_round is not None
        assert len(seen) == len(run.metrics)
        assert seen[-1][0].round == run.stopped_round
        for t, ((m, params, store_size), row) in enumerate(zip(seen, run.metrics)):
            assert m is row and m.round == t and store_size == m.store_size
            # round t's live parameters are those of a same-seed run cut at t
            cut = TR.run_reclassification_by_synthesis(
                ds, SPEC_2D, replace(cfg, rounds=t), quick_sampler(), "binary")
            assert params == [p.tobytes() for p in cut.classifier.all_params()]

    def test_selected_is_final_copy_without_validation(self):
        ds = benchmark(40)
        run = TR.run_reclassification_by_synthesis(
            ds, SPEC_2D, quick_config(rounds=2, val_fraction=0.0), quick_sampler(), "binary")
        assert run.snapshots == []
        for a, b in zip(run.selected.all_params(), run.classifier.all_params()):
            assert a.tobytes() == b.tobytes() and a is not b

    def test_same_seed_identical_run(self):
        ds = benchmark(36)
        cfg = quick_config(rounds=2, pseudo_per_round=8)
        a = TR.run_reclassification_by_synthesis(ds, SPEC_2D, cfg,
                                                 quick_sampler(), "binary")
        b = TR.run_reclassification_by_synthesis(ds, SPEC_2D, cfg,
                                                 quick_sampler(), "binary")
        for pa, pb in zip(a.classifier.all_params(), b.classifier.all_params()):
            assert pa.tobytes() == pb.tobytes()
        assert [m.val_error for m in a.metrics] == [m.val_error for m in b.metrics]

    def test_softmax_langevin_rerun_bitwise(self, tmp_path):
        gen = rng(37, 6)
        ds = D.LabeledDataset(gen.standard_normal((30, 2)), np.repeat(np.arange(3), 10), 3)
        cfg = quick_config(rounds=2, pseudo_per_round=4)
        sampler = quick_sampler(method="langevin")
        runs = [TR.run_reclassification_by_synthesis(ds, SPEC_2D, cfg, sampler, "multiclass")
                for _ in range(2)]
        for pa, pb in zip(runs[0].classifier.all_params(), runs[1].classifier.all_params()):
            assert pa.tobytes() == pb.tobytes()
        for name, run in zip("ab", runs):
            D.save_store(run.store, tmp_path / f"{name}.pn")
        assert (tmp_path / "a.pn").read_bytes() == (tmp_path / "b.pn").read_bytes()

    def test_multiclass_synthesis_is_one_call_per_round(self):
        gen = rng(38, 6)
        ds = D.LabeledDataset(gen.standard_normal((30, 2)), np.repeat(np.arange(3), 10), 3)
        calls = []

        def spying_synthesize(c, classes, gen):
            calls.append(np.array(classes))
            return np.arange(len(classes), dtype=float)[:, None] * np.ones((1, 2)), None

        cfg = quick_config(rounds=2, pseudo_per_round=4, val_fraction=0.0)
        run = TR.run_reclassification_by_synthesis(ds, SPEC_2D, cfg, None, "multiclass",
                                                   synthesize=spying_synthesize)
        assert len(calls) == 2
        for classes in calls:
            np.testing.assert_array_equal(classes, np.repeat(np.arange(3), 4))
        # the store gets l rows per class, in class order, from the one batch
        np.testing.assert_array_equal(run.store.tags, run.store.samples[:, 0] // 4)
        # a binary classifier's chains all name its one head column, 0, and
        # its pseudo-negatives carry the negative tag
        calls.clear()
        binary = D.LabeledDataset(ds.samples, ds.labels == 0, 2)
        run = TR.run_reclassification_by_synthesis(binary, SPEC_2D, cfg, None, "binary",
                                                   synthesize=spying_synthesize)
        assert len(calls) == 2
        for classes in calls:
            np.testing.assert_array_equal(classes, np.zeros(4, dtype=int))
        np.testing.assert_array_equal(run.store.tags, np.full(8, -1))


def directional_config(seed):
    cfg = quick_config(rounds=8, pseudo_per_round=8, init_epochs=30,
                       epochs_per_round=5, seed=seed, val_fraction=0.25,
                       patience=3)
    # a tight reference keeps raw noise draws redundant while gradient
    # chains can still travel to wherever the classifier is overconfident
    scfg = S.SamplerConfig(stopping="option2", max_steps=150, step_size=0.02,
                           reference_sigma=0.15)
    return cfg, scfg


class TestDirectional2D:

    def paired_runs(self, rival):
        icn_accs, rival_accs = [], []
        for seed in range(5):
            ds = benchmark(100 + seed, n_pos=40, n_neg=12)
            held = D.gen_synthetic_2d(D.default_benchmark_spec(400, 400),
                                      rng(200 + seed, 6, 1))
            cfg, scfg = directional_config(seed)
            icn = TR.run_reclassification_by_synthesis(ds, SPEC_2D, cfg, scfg,
                                                       "binary")
            other = rival(ds, cfg, scfg)
            icn_accs.append(1 - TR.error_rate(icn.selected, held.samples,
                                              held.labels))
            rival_accs.append(1 - TR.error_rate(other.selected, held.samples,
                                                held.labels))
        return np.mean(icn_accs), np.mean(rival_accs)

    def test_icn_at_least_matches_baseline_over_5_seeds(self):
        icn, base = self.paired_runs(
            lambda ds, cfg, scfg: TR.run_reclassification_by_synthesis(
                ds, SPEC_2D, replace(cfg, rounds=0), mode="binary"))
        assert icn >= base - 1e-12

    def test_icn_at_least_matches_noise_ablation_over_5_seeds(self):
        icn, noise = self.paired_runs(
            lambda ds, cfg, scfg: TR.run_reclassification_by_synthesis(
                ds, SPEC_2D, cfg, noise_draws(scfg), "binary"))
        assert icn >= noise - 1e-12


class TestNoiseAblation:
    def test_store_bookkeeping_matches_icn(self):
        ds = benchmark(40)
        cfg = quick_config(rounds=3, pseudo_per_round=6)
        run = TR.run_reclassification_by_synthesis(ds, SPEC_2D, cfg,
                                                   noise_draws(quick_sampler()), "binary")
        assert len(run.store) == 18

    def test_sigma_zero_gives_zero_vectors(self):
        ds = benchmark(41)
        cfg = quick_config(rounds=2, pseudo_per_round=4)
        scfg = quick_sampler(reference_sigma=0.0)
        run = TR.run_reclassification_by_synthesis(ds, SPEC_2D, cfg, noise_draws(scfg),
                                                   "binary")
        assert np.array_equal(run.store.samples, np.zeros((8, 2)))
        # every chain stops at step 0, its fixed step count
        assert [m.stop_reasons for m in run.metrics] == [{}] + [{S.STOP_FIXED: 4}] * 2


class TestOneVsAll:
    def three_class_set(self, seed, n=60):
        gen = rng(seed, 6)
        means = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.4]])
        x = 0.25 * gen.standard_normal((n, 2)) + means[np.arange(n) % 3]
        y = np.arange(n) % 3
        return D.LabeledDataset(x, y, 3)

    def test_missing_class_rejected(self):
        ds = D.LabeledDataset(np.zeros((4, 2)), np.array([0, 0, 2, 2]), 3)
        with pytest.raises(TR.TrainerError, match="class 1"):
            TR.run_reclassification_by_synthesis(ds, SPEC_2D, quick_config(),
                                                 quick_sampler(), "one-vs-all")

    def test_member_positive_counts_match_classes(self):
        ds = self.three_class_set(50)
        cfg = quick_config(rounds=1, pseudo_per_round=4, init_epochs=2,
                           epochs_per_round=1, val_fraction=0.0)
        result = TR.run_reclassification_by_synthesis(ds, SPEC_2D, cfg, quick_sampler(),
                                                      "one-vs-all")
        assert result.selected.n_classes == 3
        assert len(result.store) == 3 * 4
        np.testing.assert_array_equal(result.store.tags, np.repeat([0, 1, 2], 4))

    def test_members_equal_independent_sequential_runs(self):
        ds = self.three_class_set(51)
        cfg = quick_config(rounds=1, pseudo_per_round=3, init_epochs=3,
                           epochs_per_round=2, val_fraction=0.0)
        result = TR.run_reclassification_by_synthesis(ds, SPEC_2D, cfg, quick_sampler(),
                                                      "one-vs-all")
        k = 1
        relabeled = D.LabeledDataset(ds.samples, np.where(ds.labels == k, 1, 0), 2)
        solo_cfg = replace(cfg, seed=TR.member_seed(cfg.seed, k))
        solo = TR.run_reclassification_by_synthesis(
            relabeled, SPEC_2D, solo_cfg, quick_sampler(), "binary")
        for a, b in zip(result.selected.members[k].all_params(),
                        solo.selected.all_params()):
            assert a.tobytes() == b.tobytes()

    @staticmethod
    def member_run(ds, cfg, k):
        """Member k trained alone: class k against the rest, the member seed."""
        relabeled = D.LabeledDataset(ds.samples, np.where(ds.labels == k, 1, 0), 2)
        return TR.run_reclassification_by_synthesis(
            relabeled, SPEC_2D, replace(cfg, seed=TR.member_seed(cfg.seed, k)),
            quick_sampler(), "binary")

    def test_on_round_reports_rounds_every_member_reached(self):
        ds = self.three_class_set(50)
        cfg = quick_config(rounds=6, pseudo_per_round=3, init_epochs=3,
                           epochs_per_round=1, patience=2, val_fraction=0.25)
        solo = [self.member_run(ds, cfg, k) for k in range(3)]
        assert [r.stopped_round for r in solo] == [2, 2, 5]
        seen = []

        def on_round(m, ensemble, store):
            seen.append((m, [[p.tobytes() for p in c.all_params()] for c in ensemble.members],
                         list(zip(store.rounds.tolist(), store.tags.tolist(),
                                  [x.tobytes() for x in store.samples]))))

        result = TR.run_reclassification_by_synthesis(ds, SPEC_2D, cfg, quick_sampler(),
                                                      "one-vs-all", on_round=on_round)
        # the ensemble rows end where the first member stops
        assert [m.round for m, _, _ in seen] == [0, 1, 2]
        assert result.metrics == [m for m, _, _ in seen]
        assert result.stopped_round == 2
        for t, (m, params, entries) in enumerate(seen):
            rows = [r.metrics[t] for r in solo]
            assert m.train_loss == np.mean([r.train_loss for r in rows])
            assert m.val_error == np.mean([r.val_error for r in rows])
            assert m.store_size == sum(r.store_size for r in rows) == len(entries)
            # each member's 3 chains stop at fixed_steps
            assert m.stop_reasons == ({S.STOP_FIXED: 9} if t else {})
            for k in range(3):
                cut = self.member_run(ds, replace(cfg, rounds=t), k)
                assert params[k] == [p.tobytes() for p in cut.classifier.all_params()]
            assert entries == [(rnd, k, x.tobytes()) for k, r in enumerate(solo)
                               for rnd, x in zip(r.store.rounds.tolist(), r.store.samples)
                               if rnd <= t]
        # member 2 trained on after the reports ended
        assert result.classifier.members[2].all_params()[0].tobytes() == \
            solo[2].classifier.all_params()[0].tobytes()
        for member, r in zip(result.selected.members, solo):
            for a, b in zip(member.all_params(), r.selected.all_params()):
                assert a.tobytes() == b.tobytes()

    def test_two_class_ensemble_agrees_with_direct_binary(self):
        gen = rng(52, 6)
        n, sep, sig = 80, 1.5, 0.2
        x = sig * gen.standard_normal((n, 2))
        x[: n // 2, 0] -= sep
        x[n // 2:, 0] += sep
        ds = D.LabeledDataset(x, np.repeat([0, 1], n // 2), 2)
        cfg = quick_config(rounds=2, pseudo_per_round=10, init_epochs=60,
                           epochs_per_round=5, val_fraction=0.0)
        ova = TR.run_reclassification_by_synthesis(ds, SPEC_2D, cfg, quick_sampler(),
                                                   "one-vs-all")
        direct = TR.run_reclassification_by_synthesis(
            ds, SPEC_2D, cfg, quick_sampler(), "binary")
        held = sig * gen.standard_normal((200, 2))
        held[:100, 0] -= sep
        held[100:, 0] += sep
        ova_pred = N.predict_label(ova.selected, held)
        direct_pred = N.predict_label(direct.selected, held)
        assert (ova_pred == direct_pred).mean() >= 0.95
