"""Synthesis chains: reference draws, Langevin step statistics, stopping
rules and where the samples land relative to the exact grid density."""

import math
import weakref
from unittest import mock

import numpy as np
import pytest

from icnet import network as N
from icnet import oracle as O
from icnet import sampler as S
from icnet import tensor as T
from icnet.seeding import rng

from helpers import cell_mass_at


def peaked_classifier(peak_logit=3.5, slope_scale=2.0) -> N.Classifier:
    """Hand-built net whose logit is peak - c*(|x| + |y|): a pyramid over the
    origin, the shape a trained 2D model takes over its positive region.

    leaky(t) + leaky(-t) = (1 - s)|t|, so one dense layer feeding four
    leaky units gives exact absolute values.
    """
    w = np.array([[1.0, -1.0, 0.0, 0.0],
                  [0.0, 0.0, 1.0, -1.0]])
    spec = [T.dense(2, 4), T.leaky(slope=0.2)]
    feature_params = [w, np.zeros(4)]
    scale = slope_scale / (1.0 - 0.2)
    head_w = np.full((4, 1), -scale)
    head_b = np.array([peak_logit])
    return N.Classifier(spec, feature_params, head_w, head_b)


class TestDrawReference:
    def test_zero_sigma_gives_zeros(self):
        out = S.draw_reference(10, (2,), 0.0, rng(0, 3))
        np.testing.assert_array_equal(out, np.zeros((10, 2)))

    def test_moments_at_scale(self):
        out = S.draw_reference(100_000, (2,), 0.3, rng(1, 3))
        assert abs(out.mean()) < 0.01
        assert abs(out.std() - 0.3) < 0.01

    def test_same_seed_identical(self):
        a = S.draw_reference(7, (1, 3, 3), 0.5, rng(2, 3))
        b = S.draw_reference(7, (1, 3, 3), 0.5, rng(2, 3))
        assert np.array_equal(a, b)


def synthesize_from(init, *args, **kwargs):
    """`S.synthesize_pseudo_negatives(*args, **kwargs)` with its chains
    started at a copy of `init`: the reference draw is patched, and like the
    draw it stands in for, takes nothing from the generator."""
    def draw(count, dims, sigma, gen):
        assert count == len(init)
        return np.array(init, dtype=np.float64)

    with mock.patch.object(S, "draw_reference", draw):
        return S.synthesize_pseudo_negatives(*args, **kwargs)


class ZeroNormal:
    """A generator whose normal draws are all zero: Langevin without noise."""

    def standard_normal(self, shape):
        return np.zeros(shape)


def langevin(step_size=0.1, **kw) -> S.SamplerConfig:
    return S.SamplerConfig(method="langevin", step_size=step_size, **kw)


class TestLangevinStep:
    """`_step`'s Langevin rule, and its clamp after either rule."""

    def test_noise_off_is_half_eps_gradient(self):
        x = rng(4, 3).standard_normal((4, 2))
        g = rng(4, 3).standard_normal((4, 2))
        out, m, v = S._step(x, g, None, None, 0, langevin(), ZeroNormal())
        np.testing.assert_allclose(out, x + 0.05 * g, rtol=1e-15)
        assert m is None and v is None

    def test_noise_variance_matches_eps(self):
        eps = 0.04
        x = np.zeros((100_000, 2))
        out, *_ = S._step(x, np.zeros_like(x), None, None, 0, langevin(eps), rng(5, 3))
        var = out.var(axis=0)
        assert np.all(np.abs(var - eps) / eps < 0.02)

    def test_is_bitwise_the_annealed_formula(self):
        # x + (eps/2) * g, then sqrt(eps) times one standard-normal draw
        x = rng(24031, 3).standard_normal((5, 3))
        g = rng(24031, 4).standard_normal((5, 3))
        out, *_ = S._step(x, g, None, None, 4, langevin(0.3, anneal=0.9), rng(24031, 5))
        eps = 0.3 * 0.9 ** 4
        want = x + (eps / 2.0) * g
        want = want + np.sqrt(eps) * rng(24031, 5).standard_normal(x.shape)
        assert out.tobytes() == want.tobytes()

    def test_clamp_applies(self):
        x = np.array([[0.9, -0.9]])
        g = np.array([[100.0, -100.0]])
        for method, moments in (("langevin", None), ("plain-gradient", np.zeros_like(x))):
            config = S.SamplerConfig(method=method, step_size=0.5, clamp=(-1.0, 1.0))
            out, *_ = S._step(x, g, moments, moments, 0, config, ZeroNormal())
            np.testing.assert_array_equal(out, [[1.0, -1.0]])


class TestConfigValidation:
    def test_option2_requires_threshold_in_range(self):
        with pytest.raises(S.SamplerError):
            S.SamplerConfig(stopping="option2", confidence_threshold=1.5)

    def test_option3_requires_fixed_steps(self):
        with pytest.raises(S.SamplerError):
            S.SamplerConfig(stopping="option3")

    def test_fixed_steps_bounded_by_max_steps(self):
        with pytest.raises(S.SamplerError):
            S.SamplerConfig(stopping="option3", fixed_steps=600, max_steps=500)

    def test_bad_anneal_rejected(self):
        with pytest.raises(S.SamplerError):
            S.SamplerConfig(anneal=0.0)

    @pytest.mark.parametrize("key, value, match", [
        ("max_steps", -1, "max_steps"),
        ("step_size", math.nan, "step_size"), ("step_size", math.inf, "step_size"),
        ("step_size", 0.0, "step_size"), ("step_size", -0.1, "step_size"),
        ("reference_sigma", -0.3, "reference_sigma"),
        ("reference_sigma", math.nan, "reference_sigma"),
        ("reference_sigma", math.inf, "reference_sigma")])
    def test_out_of_range_value_rejected(self, key, value, match):
        with pytest.raises(S.SamplerError, match=match):
            S.SamplerConfig(**{key: value})

    def test_zero_steps_and_zero_sigma_allowed(self):
        config = S.SamplerConfig(max_steps=0, reference_sigma=0.0, confidence_threshold=0.99)
        samples, traces = S.synthesize_pseudo_negatives(
            peaked_classifier(), config, np.zeros(2, int), rng(46, 3), (2,))
        np.testing.assert_array_equal(samples, np.zeros((2, 2)))
        assert [(t.stop_reason, t.steps) for t in traces] == [(S.STOP_MAX, 0)] * 2


class TestSynthesize:
    def test_zero_logit_classifier_stays_at_init(self):
        c = peaked_classifier()
        c.head_w[...] = 0.0
        c.head_b[...] = 0.0
        config = S.SamplerConfig(method="langevin", stopping="option3",
                                 fixed_steps=20, step_size=0.05)
        init = S.draw_reference(8, (2,), 0.3, rng(10, 3))
        samples, traces = synthesize_from(
            init, c, config, np.zeros(8, int), ZeroNormal(), (2,))
        np.testing.assert_array_equal(samples, init)
        assert all(t.steps == 20 and t.stop_reason == S.STOP_FIXED for t in traces)

    def test_option2_threshold_contract(self):
        c = peaked_classifier(peak_logit=4.0)
        config = S.SamplerConfig(stopping="option2", confidence_threshold=0.95,
                                 max_steps=200)
        samples, traces = S.synthesize_pseudo_negatives(
            c, config, np.zeros(40, int), rng(12, 3), (2,))
        stopped = [t for t in traces if t.stop_reason == S.STOP_THRESHOLD]
        assert stopped, "no chain reached the threshold"
        for t in stopped:
            assert T.sigmoid_value(t.final_logit) >= 0.95
        # confidences recomputed from the classifier agree with the traces
        probs = T.sigmoid_value(N.logit_binary(c, samples))
        for t, p in zip(traces, probs):
            if t.stop_reason == S.STOP_THRESHOLD:
                assert p >= 0.95 - 1e-12

    @pytest.mark.parametrize("p", [0.5, 0.9, 0.95, 0.99])
    def test_logit_threshold_agrees_with_sigmoid_at_every_point(self, p):
        t = S.logit_threshold(p)
        near = (np.array(t).view(np.int64) + np.arange(-4096, 4097)).view(np.float64)
        for z in (near, np.linspace(-40.0, 40.0, 80001)):
            np.testing.assert_array_equal(z >= t, T.sigmoid_value(z) >= p)
        assert T.sigmoid_value(np.float64(t)) >= p > T.sigmoid_value(np.nextafter(t, -np.inf))

    def test_logit_threshold_bisects_once_per_confidence(self):
        c = peaked_classifier(peak_logit=1.5, slope_scale=1.0)
        config = S.SamplerConfig(stopping="option2", confidence_threshold=0.77, max_steps=3)
        S.logit_threshold.cache_clear()
        for seed in (14, 15):
            S.synthesize_pseudo_negatives(c, config, np.zeros(4, int), rng(seed, 3), (2,))
        info = S.logit_threshold.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_option1_stops_once_positive(self):
        c = peaked_classifier(peak_logit=1.5, slope_scale=1.0)
        config = S.SamplerConfig(stopping="option1", max_steps=300)
        _, traces = S.synthesize_pseudo_negatives(c, config, np.zeros(30, int), rng(13, 3), (2,))
        for t in traces:
            if t.stop_reason == S.STOP_POSITIVE:
                assert t.final_logit > 0.0

    def test_unreached_criterion_keeps_sample_with_max_steps_reason(self):
        # peak below the option2 threshold logit ln(0.95/0.05) ~ 2.944
        c = peaked_classifier(peak_logit=1.0)
        config = S.SamplerConfig(stopping="option2", confidence_threshold=0.95,
                                 max_steps=15)
        samples, traces = S.synthesize_pseudo_negatives(
            c, config, np.zeros(10, int), rng(14, 3), (2,))
        assert samples.shape == (10, 2)
        assert all(t.stop_reason == S.STOP_MAX and t.steps == 15 for t in traces)

    def test_monotone_ascent_plain_gradient_small_steps(self):
        # smooth (linear-feature) net: ascent must never lose ground
        spec = [T.dense(2, 3)]
        c = N.Classifier(spec, [np.array([[0.5, -0.2, 0.1], [0.3, 0.4, -0.6]]),
                                np.zeros(3)],
                         np.array([[0.7], [-0.4], [0.2]]), np.zeros(1))
        config = S.SamplerConfig(method="plain-gradient", stopping="option3",
                                 fixed_steps=50, step_size=1e-3)
        _, traces = S.synthesize_pseudo_negatives(c, config, np.zeros(10, int), rng(15, 3), (2,))
        for t in traces:
            assert np.all(np.diff(t.logit_path) >= -1e-12)

    def test_deterministic_per_seed(self):
        c = peaked_classifier()
        config = S.SamplerConfig(method="langevin", stopping="option3",
                                 fixed_steps=30, step_size=0.02)
        a, _ = S.synthesize_pseudo_negatives(c, config, np.zeros(12, int), rng(16, 3), (2,))
        b, _ = S.synthesize_pseudo_negatives(c, config, np.zeros(12, int), rng(16, 3), (2,))
        assert np.array_equal(a, b)

    def test_step_counts_respect_max(self):
        c = peaked_classifier()
        config = S.SamplerConfig(stopping="option2", max_steps=25)
        _, traces = S.synthesize_pseudo_negatives(c, config, np.zeros(20, int), rng(17, 3), (2,))
        assert all(t.steps <= 25 for t in traces)

    def test_multiclass_head_selection(self):
        spec = [T.dense(2, 8), T.leaky()]
        c = N.init_multiclass(spec, (2,), 3, rng(18, 1))
        config = S.SamplerConfig(stopping="option3", fixed_steps=10, step_size=0.01)
        samples, traces = S.synthesize_pseudo_negatives(
            c, config, np.full(6, 2), rng(18, 3), (2,))
        logits = N.class_logits(c, samples)[:, 2]
        for t, l in zip(traces, logits):
            assert abs(t.final_logit - l) < 1e-9

    def test_samples_land_in_heavy_grid_cells(self):
        c = peaked_classifier(peak_logit=3.5, slope_scale=2.0)
        prior = O.reference_grid(sigma=0.3)
        p_t, _ = O.density_update(prior, c)
        config = S.SamplerConfig(method="plain-gradient", stopping="option2",
                                 confidence_threshold=0.95, max_steps=300)
        samples, _ = S.synthesize_pseudo_negatives(c, config, np.zeros(100, int), rng(19, 3), (2,))
        masses = cell_mass_at(p_t, samples)
        median = np.median(p_t.mass)
        assert (masses > median).mean() >= 0.9


SPEC_CONV = [T.conv(1, 2), T.leaky(), T.conv(2, 3), T.leaky(), T.flatten()]


class TestBatchedClasses:
    """One call over every class's chains against one call per class."""

    def _compare(self, stopping, **kw):
        k, per_class = 3, 4
        c = N.init_multiclass(SPEC_CONV, (1, 8, 8), k, rng(40, 1))
        config = S.SamplerConfig(method="plain-gradient", stopping=stopping,
                                 step_size=0.05, **kw)
        init = S.draw_reference(k * per_class, (1, 8, 8), 0.3, rng(40, 3))
        batched, traces = synthesize_from(
            init, c, config, np.repeat(np.arange(k), per_class), rng(41, 3), (1, 8, 8))
        for cls in range(k):
            rows = slice(cls * per_class, (cls + 1) * per_class)
            alone, alone_traces = synthesize_from(
                init[rows], c, config, np.full(per_class, cls), rng(41, 3), (1, 8, 8))
            np.testing.assert_allclose(batched[rows], alone, rtol=0, atol=1e-12)
            for a, b in zip(traces[rows], alone_traces):
                assert (a.stop_reason, a.steps) == (b.stop_reason, b.steps)
                assert abs(a.final_logit - b.final_logit) <= 1e-12
        return traces

    def test_option3_matches_per_class_calls(self):
        traces = self._compare("option3", fixed_steps=6, max_steps=6)
        assert all(t.stop_reason == S.STOP_FIXED for t in traces)

    def test_option2_matches_per_class_calls(self):
        traces = self._compare("option2", confidence_threshold=0.6, max_steps=30)
        # the rows stop at different steps, so the active subset really shifts
        assert len({(t.stop_reason, t.steps) for t in traces}) > 1

    def test_row_cap_does_not_change_result(self, monkeypatch):
        c = N.init_multiclass([T.dense(2, 8), T.leaky()], (2,), 3, rng(42, 1))
        config = S.SamplerConfig(method="langevin", stopping="option2",
                                 confidence_threshold=0.7, max_steps=40)
        classes = np.arange(20) % 3

        def run():
            return S.synthesize_pseudo_negatives(c, config, classes, rng(43, 3), (2,))

        lifted, lifted_traces = run()
        monkeypatch.setattr(S, "MAX_GRAPH_ROWS", 3)
        capped, capped_traces = run()
        np.testing.assert_allclose(capped, lifted, rtol=0, atol=1e-12)
        assert ([(t.stop_reason, t.steps) for t in capped_traces]
                == [(t.stop_reason, t.steps) for t in lifted_traces])
        assert len({t.steps for t in lifted_traces}) > 1

    def test_live_rows_run_in_graphs_of_the_cap(self, monkeypatch):
        # 7 live rows under a cap of 3: graphs of rows 0-2, 3-5 and 6
        sizes = []
        graph = N.logit_sum_graph

        def spy(c, x, classes):
            sizes.append(len(x))
            return graph(c, x, classes)

        monkeypatch.setattr(N, "logit_sum_graph", spy)
        monkeypatch.setattr(S, "MAX_GRAPH_ROWS", 3)
        c = N.init_binary([T.dense(2, 8), T.leaky()], (2,), rng(48, 1))
        config = S.SamplerConfig(stopping="option3", fixed_steps=0, max_steps=0)
        _, traces = S.synthesize_pseudo_negatives(c, config, np.zeros(7, int), rng(48, 3), (2,))
        assert sizes == [3, 3, 1]
        assert [t.stop_reason for t in traces] == [S.STOP_FIXED] * 7

    def test_per_row_logits_follow_class_index(self):
        c = N.init_multiclass([T.dense(2, 8), T.leaky()], (2,), 3, rng(44, 1))
        config = S.SamplerConfig(stopping="option3", fixed_steps=5, max_steps=5)
        classes = np.array([2, 0, 1, 1, 0, 2])
        samples, traces = S.synthesize_pseudo_negatives(
            c, config, classes, rng(44, 3), (2,))
        want = N.class_logits(c, samples)[np.arange(6), classes]
        np.testing.assert_allclose([t.final_logit for t in traces], want, rtol=1e-12)

    @pytest.mark.parametrize("cap", [S.MAX_GRAPH_ROWS, 5])
    def test_chains_run_as_if_alone(self, monkeypatch, cap):
        # 24 chains stop at widely spread steps, one is tagged non_finite at
        # step 0, and the graphs hold 5 rows or every row: each chain still
        # runs exactly as it does alone
        monkeypatch.setattr(S, "MAX_GRAPH_ROWS", cap)
        c = peaked_classifier()
        config = S.SamplerConfig(method="plain-gradient", stopping="option2",
                                 confidence_threshold=0.9, step_size=0.05, anneal=1.0,
                                 max_steps=120)
        init = S.draw_reference(24, (2,), 1.5, rng(47, 3))
        init[7] = 1e308
        samples, traces = synthesize_from(
            init, c, config, np.zeros(24, int), rng(47, 4), (2,))
        assert (traces[7].stop_reason, traces[7].steps) == (S.STOP_NON_FINITE, 0)
        stopped_at = [t.steps for t in traces if t.stop_reason == S.STOP_THRESHOLD]
        assert len(set(stopped_at)) > 10 and max(stopped_at) - min(stopped_at) > 40
        for j in range(24):
            alone, (trace,) = synthesize_from(
                init[j:j + 1], c, config, np.zeros(1, int), rng(47, 4), (2,))
            np.testing.assert_allclose(samples[j], alone[0], rtol=0, atol=1e-12)
            t = traces[j]
            assert (t.stop_reason, t.steps) == (trace.stop_reason, trace.steps)
            np.testing.assert_allclose(t.final_logit, trace.final_logit, rtol=0, atol=1e-12)
            np.testing.assert_allclose(t.logit_path, trace.logit_path, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 3], ids=["binary", "3-class"])
    def test_run_of_every_row_reads_the_live_array_itself(self, monkeypatch, k):
        # no gather: the graph over x itself gives the bits of the graph
        # over the copy x[np.arange(n)]
        n = 9
        c = N.init_multiclass([T.dense(2, 8), T.leaky(), T.dense(8, 8), T.leaky()],
                              (2,), k, rng(22951, 1))
        x = S.draw_reference(n, (2,), 0.5, rng(22951, 3))
        classes = np.arange(n) % k
        seen = []
        graph = N.logit_sum_graph

        def spy(c, run_x, classes):
            seen.append(run_x is x)
            return graph(c, run_x, classes)

        monkeypatch.setattr(N, "logit_sum_graph", spy)
        logits, grad = S._chain_logits(c, x, classes, math.inf)
        assert seen == [True]
        rows = np.arange(n)
        copy_pass, copy_seed, copy_logits = graph(
            c, x[rows], classes[rows])
        assert logits.tobytes() == copy_logits.tobytes()
        assert grad.tobytes() == T.input_gradient(copy_pass, copy_seed).tobytes()

    def test_a_run_whose_every_row_stops_is_not_swept(self, monkeypatch):
        # 7 rows under a cap of 3; the pyramid's logit is 3.5 at the origin
        # and -2.5 at distance 3, so only the run of rows 3-5 clears 3.0
        c = peaked_classifier()
        x = np.array([[3.0, 0.0]] * 3 + [[0.0, 0.1], [0.1, 0.0], [0.0, 0.0]] + [[0.0, 3.0]])
        monkeypatch.setattr(S, "MAX_GRAPH_ROWS", 3)
        all_logits, all_grad = S._chain_logits(c, x, np.zeros(7, int), math.inf)
        swept = []
        gradient = T.input_gradient
        monkeypatch.setattr(T, "input_gradient",
                            lambda p, seed: swept.append(len(seed)) or gradient(p, seed))
        logits, grad = S._chain_logits(c, x, np.zeros(7, int), 3.0)
        assert swept == [3, 1]
        assert logits.tobytes() == all_logits.tobytes()
        assert np.all(logits[3:6] >= 3.0) and np.all(grad[3:6] == 0.0)
        assert grad[[0, 1, 2, 6]].tobytes() == all_grad[[0, 1, 2, 6]].tobytes()
        # the limit step's bound: no run is swept
        logits, grad = S._chain_logits(c, x, np.zeros(7, int), -math.inf)
        assert swept == [3, 1] and logits.tobytes() == all_logits.tobytes()
        assert not grad.any()

    def test_each_graph_is_swept_before_the_next_is_built(self, monkeypatch):
        # 7 live rows under a cap of 3, over three steps: when each graph is
        # built, no earlier pass of the step or of an earlier step is alive
        passes, alive = [], []
        graph = N.logit_sum_graph

        def spy(c, x, classes):
            alive.append([ref() is not None for ref in passes])
            out = graph(c, x, classes)
            passes.append(weakref.ref(out[0]))
            return out

        monkeypatch.setattr(N, "logit_sum_graph", spy)
        monkeypatch.setattr(S, "MAX_GRAPH_ROWS", 3)
        c = N.init_binary([T.dense(2, 8), T.leaky()], (2,), rng(23931, 1))
        config = S.SamplerConfig(stopping="option3", fixed_steps=2, max_steps=2)
        _, traces = S.synthesize_pseudo_negatives(c, config, np.zeros(7, int), rng(23931, 3), (2,))
        assert [t.stop_reason for t in traces] == [S.STOP_FIXED] * 7
        assert alive == [[False] * i for i in range(9)]


class TestNonFiniteChains:
    def test_forward_overflow_tags_only_that_chain(self):
        spec = [T.dense(2, 4), T.leaky(), T.dense(4, 4), T.leaky()]
        c = N.init_binary(spec, (2,), rng(50, 1))
        for p in c.feature_params:
            p *= 100.0
        init = np.array([[0.1, 0.2], [1e305, 1e305], [0.3, -0.1]])
        config = S.SamplerConfig(stopping="option3", fixed_steps=5, max_steps=5)
        samples, traces = synthesize_from(
            init, c, config, np.zeros(3, int), rng(50, 3), (2,))
        assert (traces[1].stop_reason, traces[1].steps) == (S.STOP_NON_FINITE, 0)
        np.testing.assert_array_equal(samples[1], init[1])
        for j in (0, 2):
            assert (traces[j].stop_reason, traces[j].steps) == (S.STOP_FIXED, 5)
            assert not np.array_equal(samples[j], init[j])
        # the healthy chains ran exactly as they would have without the bad one
        alone, _ = synthesize_from(
            init[[0, 2]], c, config, np.zeros(2, int), rng(50, 3), (2,))
        np.testing.assert_allclose(samples[[0, 2]], alone, rtol=0, atol=1e-12)

    def test_adam_overflow_is_tagged_not_frozen(self):
        spec = [T.dense(2, 4), T.leaky()]
        c = N.init_binary(spec, (2,), rng(51, 1))
        c.head_w[...] = -1e160
        init = np.array([[0.1, 0.2], [0.3, -0.1]])
        config = S.SamplerConfig(method="plain-gradient", stopping="option2",
                                 max_steps=5)
        samples, traces = synthesize_from(
            init, c, config, np.zeros(2, int), rng(51, 3), (2,))
        assert [(t.stop_reason, t.steps) for t in traces] == [(S.STOP_NON_FINITE, 0)] * 2
        np.testing.assert_array_equal(samples, init)

    def test_adam_step_leaves_every_overflow_non_finite(self):
        # row 0's sample overflows while its v_hat stays finite; row 1's
        # grad*grad overflows, which would freeze it at step size 0, so its
        # sample is NaN; the other rows take the Adam formula as written
        x = np.array([[1e308], [0.0], [0.0], [0.3]])
        g = np.array([[1.0], [1e160], [1.0], [-0.25]])
        config = S.SamplerConfig(step_size=1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            out, m, v = S._step(x, g, np.zeros_like(x), np.zeros_like(x), 0, config, None)
        assert not T.all_finite(out[0]) and np.isnan(out[1]).all()
        m_want = S.ADAM_BETA1 * 0.0 + (1 - S.ADAM_BETA1) * g[2:]
        v_want = S.ADAM_BETA2 * 0.0 + (1 - S.ADAM_BETA2) * g[2:] * g[2:]
        want = x[2:] + 1e308 * (m_want / (1 - S.ADAM_BETA1)) / (
            np.sqrt(v_want / (1 - S.ADAM_BETA2)) + S.ADAM_EPS)
        assert out[2:].tobytes() == want.tobytes()
        assert m[2:].tobytes() == m_want.tobytes() and v[2:].tobytes() == v_want.tobytes()

    @pytest.mark.parametrize("method", ["plain-gradient", "langevin"])
    def test_nan_gradient_ends_at_its_reference_draw(self, method, monkeypatch):
        # chain 1's gradient row turns NaN at step 2 while its logit stays
        # finite: its step-3 forward pass reads NaN, and it ends non_finite
        # at step 0, where a run of zero fixed steps ends it
        c = N.init_binary([T.dense(2, 8), T.leaky()], (2,), rng(29201, 1))
        init = S.draw_reference(3, (2,), 0.5, rng(29201, 2))
        chain_logits, calls = S._chain_logits, []

        def nan_at_step_2(classifier, x, classes, sweep_below):
            logits, g = chain_logits(classifier, x, classes, sweep_below)
            calls.append(len(x))
            if len(calls) == 3:  # step 2: the three chains' one call
                g = g.copy()
                g[1] = np.nan
            return logits, g

        def run(init, fixed_steps):
            config = S.SamplerConfig(method=method, stopping="option3",
                                     fixed_steps=fixed_steps, max_steps=6)
            return synthesize_from(init, c, config, np.zeros(len(init), int),
                                   rng(29201, 3), (2,))

        _, start_traces = run(init, 0)
        monkeypatch.setattr(S, "_chain_logits", nan_at_step_2)
        samples, traces = run(init, 6)
        monkeypatch.undo()
        assert calls[:3] == [3, 3, 3]
        assert [(t.stop_reason, t.steps) for t in traces] == \
            [(S.STOP_FIXED, 6), (S.STOP_NON_FINITE, 0), (S.STOP_FIXED, 6)]
        assert samples[1].tobytes() == init[1].tobytes()
        assert traces[1].logit_path.tolist() == [traces[1].final_logit] == \
            [start_traces[1].final_logit]
        assert T.all_finite(samples)
        if method == "plain-gradient":
            # the other chains ran as they would have without chain 1
            alone, _ = run(init[[0, 2]], 6)
            np.testing.assert_allclose(samples[[0, 2]], alone, rtol=0, atol=1e-12)

    def test_overflowing_update_ends_at_the_reference_draw(self):
        # logit x0, gradient (1, 0), and a step of about 1e308 per step:
        # chain 0's step-1 update overflows while its v_hat stays finite, so
        # its step-2 forward pass reads NaN; chain 1, from -1e308, reaches
        # about 1e308 at the limit step
        c = N.Classifier([T.dense(2, 2)], [np.eye(2), np.zeros(2)],
                         np.array([[1.0], [0.0]]), np.zeros(1))
        init = np.array([[0.0, 0.0], [-1e308, 0.0]])
        config = S.SamplerConfig(stopping="option3", fixed_steps=2, max_steps=2,
                                 step_size=1e308, anneal=1.0)
        samples, traces = synthesize_from(
            init, c, config, np.zeros(2, int), rng(24032, 3), (2,))
        assert [(t.stop_reason, t.steps) for t in traces] == \
            [(S.STOP_NON_FINITE, 0), (S.STOP_FIXED, 2)]
        assert T.all_finite(samples) and samples[1, 0] > 1e307
        # chain 0 ends where it started, with its step-0 logit x0 = 0
        assert samples[0].tobytes() == init[0].tobytes()
        assert traces[0].logit_path.tolist() == [traces[0].final_logit] == [0.0]

    def test_update_overflow_in_every_conv_chain_ends_the_loop(self):
        # the update tags every chain at step 0: the next step has no live
        # row, and a conv stack cannot run a forward over zero rows
        c = N.init_binary([T.conv(1, 2), T.leaky(), T.flatten()], (1, 4, 4), rng(52, 1))
        c.head_w[...] = -1e160
        init = S.draw_reference(2, (1, 4, 4), 0.3, rng(52, 3))
        config = S.SamplerConfig(method="plain-gradient", stopping="option2",
                                 max_steps=5)
        samples, traces = synthesize_from(
            init, c, config, np.zeros(2, int), rng(52, 4), (1, 4, 4))
        assert [(t.stop_reason, t.steps) for t in traces] == [(S.STOP_NON_FINITE, 0)] * 2
        np.testing.assert_array_equal(samples, init)

    def test_finite_logits_whose_sum_overflows_still_stop(self):
        # each logit is 1.5e308; their sum would be inf, but no sum is formed
        c = N.Classifier([T.dense(2, 2)], [np.eye(2), np.zeros(2)],
                         np.array([[1.0], [0.0]]), np.zeros(1))
        init = np.full((2, 2), 1.5e308)
        config = S.SamplerConfig(stopping="option2", max_steps=5)
        samples, traces = synthesize_from(
            init, c, config, np.zeros(2, int), rng(53, 3), (2,))
        assert [(t.stop_reason, t.steps) for t in traces] == [(S.STOP_THRESHOLD, 0)] * 2
        assert [t.final_logit for t in traces] == [1.5e308] * 2
        np.testing.assert_array_equal(samples, init)

    def test_sum_overflow_split_keeps_moving_chains_exact(self):
        # two chains whose logit sum would overflow, one that ascends
        # normally: sharing their pass, it takes the same steps as alone
        c = N.Classifier([T.dense(2, 2)], [np.eye(2), np.zeros(2)],
                         np.array([[1.0], [0.0]]), np.zeros(1))
        init = np.array([[1.5e308, 0.0], [1.5e308, 0.0], [0.1, 0.2]])
        config = S.SamplerConfig(stopping="option3", fixed_steps=3, max_steps=3)
        samples, traces = synthesize_from(
            init, c, config, np.zeros(3, int), rng(54, 3), (2,))
        assert all(t.stop_reason == S.STOP_FIXED for t in traces)
        alone, _ = synthesize_from(
            init[2:], c, config, np.zeros(1, int), rng(54, 3), (2,))
        np.testing.assert_array_equal(samples[2], alone[0])

    def test_overflow_no_logit_reads_tags_only_that_chain(self):
        # pad-0 convs on 15x15: the first conv's output row 5 reads input
        # rows 10-14 and overflows for chain 1, but the second conv reads
        # only rows 0-4 of it, so every logit stays finite
        spec = [T.conv(1, 1, pad=0), T.leaky(), T.conv(1, 1, pad=0), T.flatten()]
        c = N.Classifier(spec, [np.full((1, 1, 5, 5), 10.0), np.zeros(1),
                                np.full((1, 1, 5, 5), 0.01), np.zeros(1)],
                         np.array([[1.0]]), np.zeros(1))
        init = S.draw_reference(3, (1, 15, 15), 0.3, rng(57, 3))
        init[1, 0, 14, 0] = 1e308
        # the stack's values, unchecked: the checked pass raises at conv 1
        k1, b1, k2, b2 = c.feature_params
        with np.errstate(over="ignore", invalid="ignore"):
            first = T.conv2d_value(init, k1, b1, T.CONV_STRIDE, 0)
            second = T.conv2d_value(T.leaky_value(first, T.DEFAULT_LEAKY_SLOPE), k2, b2,
                                    T.CONV_STRIDE, 0)
        assert not T.all_finite(first)
        assert T.all_finite(second.reshape(3, -1) @ c.head_w + c.head_b)
        config = S.SamplerConfig(stopping="option3", fixed_steps=3, max_steps=3)
        samples, traces = synthesize_from(
            init, c, config, np.zeros(3, int), rng(57, 4), (1, 15, 15))
        assert [(t.stop_reason, t.steps) for t in traces] == \
            [(S.STOP_FIXED, 3), (S.STOP_NON_FINITE, 0), (S.STOP_FIXED, 3)]
        np.testing.assert_array_equal(samples[1], init[1])
        alone, _ = synthesize_from(
            init[[0, 2]], c, config, np.zeros(2, int), rng(57, 4), (1, 15, 15))
        np.testing.assert_allclose(samples[[0, 2]], alone, rtol=0, atol=1e-12)

    def test_nan_parameter_tags_every_chain(self):
        c = N.init_binary([T.dense(2, 4), T.leaky()], (2,), rng(55, 1))
        c.feature_params[0][0, 0] = np.nan
        init = np.array([[0.1, 0.2], [0.3, -0.1], [-0.5, 0.4]])
        samples, traces = synthesize_from(init, c, S.SamplerConfig(stopping="option2", max_steps=5),
                                          np.zeros(3, int), rng(55, 3), (2,))
        assert [(t.stop_reason, t.steps, t.logit_path.size) for t in traces] == \
            [(S.STOP_NON_FINITE, 0, 0)] * 3
        np.testing.assert_array_equal(samples, init)

    def test_late_overflow_keeps_only_the_step_0_logit(self):
        # logit x0 + x1 through a feature 1e307 * x0, which overflows once
        # x0 passes 17.97: the first chain's forward overflows at step 9,
        # so it ends at step 0 and its path holds step 0 alone; the second
        # runs all 12 steps
        c = N.Classifier([T.dense(2, 2)], [np.diag([1e307, 1.0]), np.zeros(2)],
                         np.array([[1e-307], [1.0]]), np.zeros(1))
        init = np.array([[0.0, 0.0], [-17.0, 0.0]])
        config = S.SamplerConfig(stopping="option3", fixed_steps=12, max_steps=12,
                                 step_size=2.0, anneal=1.0)
        samples, traces = synthesize_from(
            init, c, config, np.zeros(2, int), rng(56, 3), (2,))
        assert [(t.stop_reason, t.steps, t.logit_path.shape) for t in traces] == \
            [(S.STOP_NON_FINITE, 0, (1,)), (S.STOP_FIXED, 12, (13,))]
        assert samples[0].tobytes() == init[0].tobytes()
        for t, start in zip(traces, (0.0, -17.0)):
            assert t.logit_path.dtype == np.float64 and t.logit_path.flags.c_contiguous
            # Adam moves both coordinates by about the step size per step
            np.testing.assert_allclose(t.logit_path, start + 4.0 * np.arange(t.logit_path.size),
                                       rtol=0, atol=1e-5)
        for t, sample in zip(traces, samples):
            assert t.logit_path[-1] == t.final_logit == N.logit_binary(c, sample[None])[0]

    @pytest.mark.parametrize("method", ["plain-gradient", "langevin"])
    def test_forward_overflow_ends_at_reference_draw(self, method):
        # the classifier of the test above: the first chain's forward
        # overflows at some step k >= 1 (its step-0 logit is finite), and it
        # ends where a run of zero fixed steps ends it, so SGD trains on its
        # reference draw
        c = N.Classifier([T.dense(2, 2)], [np.diag([1e307, 1.0]), np.zeros(2)],
                         np.array([[1e-307], [1.0]]), np.zeros(1))
        init = np.array([[0.0, 0.0], [-17.0, 0.0]])

        def run(fixed_steps):
            config = S.SamplerConfig(method=method, stopping="option3", fixed_steps=fixed_steps,
                                     max_steps=30, step_size=2.0, anneal=1.0)
            return synthesize_from(init, c, config, np.zeros(2, int), rng(25201, 3), (2,))

        samples, traces = run(30)
        assert (traces[0].stop_reason, traces[0].steps) == (S.STOP_NON_FINITE, 0)
        start, start_traces = run(0)
        assert samples[0].tobytes() == start[0].tobytes() == init[0].tobytes()
        assert math.isfinite(traces[0].final_logit)
        assert traces[0].logit_path.tolist() == [traces[0].final_logit] == \
            [start_traces[0].final_logit]

    @pytest.mark.parametrize("stopping, x0, limit, at_limit", [
        ("option3", 18.0, 0, S.STOP_FIXED), ("option2", 0.0, 9, S.STOP_MAX)])
    def test_forward_overflow_at_the_limit_step_is_non_finite(self, stopping, x0, limit,
                                                              at_limit):
        # the classifier of the test above, its logit shifted far below any
        # threshold: the first chain's forward overflows at the limit step
        # itself, which takes no gradient; the second reaches the limit
        c = N.Classifier([T.dense(2, 2)], [np.diag([1e307, 1.0]), np.zeros(2)],
                         np.array([[1e-307], [1.0]]), np.array([-1000.0]))
        init = np.array([[x0, 0.0], [-17.0, 0.0]])
        config = S.SamplerConfig(stopping=stopping, fixed_steps=limit, max_steps=limit,
                                 step_size=2.0, anneal=1.0)
        samples, traces = synthesize_from(
            init, c, config, np.zeros(2, int), rng(23932, 3), (2,))
        # at any step the first chain ends at step 0, where it began, with
        # that step's logit: -1000 from x = 0, NaN from x = 18
        assert [(t.stop_reason, t.steps, t.logit_path.size) for t in traces] == \
            [(S.STOP_NON_FINITE, 0, min(limit, 1)), (at_limit, limit, limit + 1)]
        assert samples[0].tobytes() == init[0].tobytes()
        if limit:
            assert traces[0].logit_path.tolist() == [traces[0].final_logit] == [-1000.0]
        else:
            assert np.isnan(traces[0].final_logit)
