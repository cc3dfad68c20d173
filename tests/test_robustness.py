"""FGSM construction guarantees and fooling-count bookkeeping."""

from dataclasses import replace

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
LINEAR_SPEC = [T.dense(2, 8)]


def trained_pair(seed=0):
    ds = D.gen_synthetic_2d(D.default_benchmark_spec(40, 40), rng(seed, 6))
    cfg = TR.TrainConfig(rounds=2, pseudo_per_round=8, epochs_per_round=3,
                         init_epochs=30, batch_size=32, learning_rate=0.05,
                         momentum=0.9, alpha=0.1, val_fraction=0.0,
                         patience=99, seed=seed)
    scfg = S.SamplerConfig(stopping="option3", fixed_steps=20, step_size=0.02,
                           max_steps=100)
    icn = TR.run_reclassification_by_synthesis(ds, SPEC_2D, cfg, scfg, "binary")
    base = TR.run_reclassification_by_synthesis(ds, SPEC_2D, replace(cfg, rounds=0))
    held = D.gen_synthetic_2d(D.default_benchmark_spec(100, 100),
                              rng(seed, 6, 1))
    return icn.selected, base.selected, held


class TestFgsmPerturb:
    def test_zero_epsilon_is_identity(self):
        c = N.init_binary(SPEC_2D, (2,), rng(0, 1))
        x = 0.4 * rng(0, 6).standard_normal((6, 2))
        adv = R.fgsm_perturb(c, x, np.ones(6), 0.0, None)
        assert np.array_equal(adv, x)

    def test_infinity_norm_budget_exact(self):
        c = N.init_binary(SPEC_2D, (2,), rng(1, 1))
        x = 0.5 * rng(1, 6).standard_normal((20, 2))
        eps = 0.125
        adv = R.fgsm_perturb(c, x, np.where(x[:, 0] > 0, 1, 0), eps, None)
        assert np.abs(adv - x).max() <= eps + 1e-15
        # every coordinate moves by exactly 0, +eps, or -eps
        deltas = np.unique(np.round(np.abs(adv - x), 12))
        assert set(deltas).issubset({0.0, eps})

    def test_clamp_keeps_normalized_range(self):
        c = N.init_binary(SPEC_2D, (2,), rng(2, 1))
        x = np.array([[0.95, -0.99], [1.0, 1.0], [-1.0, 0.5]])
        adv = R.fgsm_perturb(c, x, np.array([1, 0, 1]), 0.125, (-1.0, 1.0))
        assert adv.max() <= 1.0 and adv.min() >= -1.0

    def test_linear_model_loss_never_decreases(self):
        c = N.init_binary(LINEAR_SPEC, (2,), rng(3, 1))
        gen = rng(3, 6)
        x = gen.standard_normal((50, 2))
        y = np.where(gen.standard_normal(50) > 0, 1, 0)
        adv = R.fgsm_perturb(c, x, y, 0.01, None)
        sign = 2 * y - 1  # the paper's y in {-1, +1}
        before = T.softplus_value(-sign * N.logit_binary(c, x))
        after = T.softplus_value(-sign * N.logit_binary(c, adv))
        assert np.all(after >= before - 1e-12)

    def test_multiclass_attack_raises_loss(self):
        c = N.init_multiclass(SPEC_2D, (2,), 3, rng(4, 1))
        gen = rng(4, 6)
        x = gen.standard_normal((30, 2))
        y = gen.integers(0, 3, size=30)
        adv = R.fgsm_perturb(c, x, y, 0.05, None)
        def ce(samples):
            probs = T.softmax_value(N.class_logits(c, samples))
            return -np.log(probs[np.arange(30), y])
        # summed loss must go up; FGSM maximizes the batch total
        assert ce(adv).sum() > ce(x).sum()

    def test_label_count_mismatch_rejected(self):
        c = N.init_binary(SPEC_2D, (2,), rng(5, 1))
        with pytest.raises(R.RobustnessError, match="label count"):
            R.fgsm_perturb(c, np.zeros((3, 2)), np.ones(2), 0.1, None)

    def test_negative_epsilon_rejected(self):
        c = N.init_binary(SPEC_2D, (2,), rng(6, 1))
        with pytest.raises(R.RobustnessError):
            R.fgsm_perturb(c, np.zeros((1, 2)), np.ones(1), -0.1, None)

    def test_ensemble_model_unsupported(self):
        members = [N.init_binary(SPEC_2D, (2,), rng(7, 1, k)) for k in range(2)]
        ens = N.OneVsAllEnsemble(members)
        with pytest.raises(TypeError):
            R.fgsm_perturb(ens, np.zeros((1, 2)), np.array([0]), 0.1, None)


class TestFoolingReport:
    def test_nesting_invariant_enforced(self):
        with pytest.raises(R.RobustnessError, match="nesting"):
            R.FoolingReport(10, 5, 6, 0.125)
        with pytest.raises(R.RobustnessError, match="nesting"):
            R.FoolingReport(4, 5, 2, 0.125)

    def test_fraction_handles_no_adversarials(self):
        rep = R.FoolingReport(10, 0, 0, 0.125)
        assert rep.cross_fool_fraction == 0.0


class TestTwoWayExperiment:
    def test_self_attack_cross_equals_adversarial(self):
        icn, base, held = trained_pair(10)
        ab, ba = R.two_way_fool_experiment(base, base, held, 0.125, None)
        assert ab.cross_fool_count == ab.adversarial_count
        assert ba.cross_fool_count == ba.adversarial_count

    def test_counts_nest_for_trained_models(self):
        icn, base, held = trained_pair(11)
        ab, ba = R.two_way_fool_experiment(base, icn, held, 0.125, None)
        for rep in (ab, ba):
            assert rep.cross_fool_count <= rep.adversarial_count
            assert rep.adversarial_count <= rep.eligible_count
            assert rep.eligible_count <= len(held)

    def test_empty_eligible_set_rejected(self):
        c = N.init_binary(SPEC_2D, (2,), rng(12, 1))
        x = rng(12, 6).standard_normal((10, 2))
        labels = np.where(N.logit_binary(c, x) > 0, 0, 1)  # force all wrong
        ds = D.LabeledDataset(x, labels, 2)
        with pytest.raises(R.RobustnessError, match="correctly"):
            R.two_way_fool_experiment(c, c, ds, 0.125, None)

    def test_deterministic_counts(self):
        icn, base, held = trained_pair(13)
        first = R.two_way_fool_experiment(base, icn, held, 0.125, None)
        second = R.two_way_fool_experiment(base, icn, held, 0.125, None)
        assert first == second

    def test_summary_mentions_both_directions(self):
        ab = R.FoolingReport(90, 50, 30, 0.125)
        ba = R.FoolingReport(85, 40, 35, 0.125)
        text = R.summarize_two_way(ab, ba, "baseline", "icn")
        assert "baseline -> icn" in text
        assert "icn -> baseline" in text
        assert "0.6000" in text  # 30/50


def two_pass_fool_direction(source, target, samples, labels, epsilon, chunk):
    """The attack as a clean forward over every input, then a separate FGSM
    forward over the correctly classified ones."""
    clean = np.concatenate([R.predict(source, samples[i:i + chunk])
                            for i in range(0, len(samples), chunk)])
    eligible = clean == labels
    xs, ys = samples[eligible], labels[eligible]
    n_adv = n_cross = 0
    for i in range(0, len(xs), chunk):
        adv = R.fgsm_perturb(source, xs[i:i + chunk], ys[i:i + chunk], epsilon, (-1.0, 1.0))
        fooled_src = R.predict(source, adv) != ys[i:i + chunk]
        fooled_tgt = R.predict(target, adv) != ys[i:i + chunk]
        n_adv += int(fooled_src.sum())
        n_cross += int((fooled_src & fooled_tgt).sum())
    return R.FoolingReport(int(eligible.sum()), n_adv, n_cross, float(epsilon))


class TestOneForwardPerChunk:
    SPEC = [T.conv(1, 3), T.leaky(), T.conv(3, 4), T.leaky(), T.flatten()]

    @pytest.mark.parametrize("mode", ["binary", "multiclass"])
    def test_report_equals_two_pass(self, mode, monkeypatch):
        gen = rng(90, 6)
        x = gen.uniform(-1, 1, (23, 1, 8, 8))
        if mode == "binary":
            a = N.init_binary(self.SPEC, (1, 8, 8), rng(90, 1))
            b = N.init_binary(self.SPEC, (1, 8, 8), rng(91, 1))
            y = np.where(gen.random(23) < 0.5, 1, 0)
        else:
            a = N.init_multiclass(self.SPEC, (1, 8, 8), 3, rng(90, 1))
            b = N.init_multiclass(self.SPEC, (1, 8, 8), 3, rng(91, 1))
            y = gen.integers(0, 3, 23)
        want = two_pass_fool_direction(a, b, x, y, 0.3, chunk=5)
        assert 0 < want.eligible_count < len(x) and want.adversarial_count > 0

        infer_rows = []
        forward = T.forward_features

        def counting_forward(params, spec, xs):
            infer_rows.append(len(xs))
            return forward(params, spec, xs)

        monkeypatch.setattr(T, "forward_features", counting_forward)
        got = R.fool_direction(a, b, x, y, 0.3, (-1.0, 1.0), chunk=5)
        assert got == want
        # inference forwards only replay the adversarials, on source and target
        assert sum(infer_rows) == 2 * got.eligible_count
